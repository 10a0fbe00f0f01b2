"""Offline cracking harness over salted hashed corpora.

The hash scheme is pluggable. The built-in ``trunc8-mix64`` scheme mirrors
the shape of classic crypt(3) (8-byte truncation, small printable salts)
without implementing it: the digest is a 64-bit FNV-1a over salt bytes then
password bytes, finished with the splitmix64 avalanche, so independent
implementations interoperate bit for bit. The cracking loop buckets
entries per salt and hashes each fresh guess once per salt that still has
uncracked entries, which is exactly why real salted corpora cost thousands
of hash calls per guess. Hashing is batched: a block of fresh guesses is
hashed against every live salt as one ``(guesses x salts)`` array.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .crossguess import GuessCurve, GuessOrdering, METRIC_DISTINCT, METRIC_USERS, curve_from_increments
from .ingest import CorpusError, line_blocks
from .tsvio import escape_field, unescape_field

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

CRYPT_SALT_ALPHABET = b"./0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

HASHES_HEADER = b"user\tsalt-hex\tdigest-hex"

# Fresh guesses hashed per replay block. A block's digests take
# GUESS_BLOCK x live salts x 8 bytes: 128 KB at 64 salts, small enough that
# the block arrays do not raise the stage's peak memory.
GUESS_BLOCK = 256

HashMany = Callable[[Sequence[bytes], Sequence[bytes]], np.ndarray]


def _hash_many_scalar(hash_fn: Callable[[bytes, bytes], bytes]) -> HashMany:
    """A ``hash_many`` that calls the scalar ``hash_fn`` once per pair."""

    def hash_many(salts: Sequence[bytes], passwords: Sequence[bytes]) -> np.ndarray:
        digests = np.fromiter(
            (int.from_bytes(hash_fn(salt, pw), "big") for pw in passwords for salt in salts),
            dtype=np.uint64,
            count=len(passwords) * len(salts),
        )
        return digests.reshape(len(passwords), len(salts))

    return hash_many


@dataclass(frozen=True)
class HashScheme:
    """Deterministic salted hash plus its truncation and salt conventions.

    ``hash(salt, password)`` returns an 8-byte digest. ``hash_many(salts,
    passwords)`` returns the same digests for every pair at once, as
    big-endian ``uint64`` values in a ``(len(passwords), len(salts))``
    array; left out, it calls ``hash`` once per pair.
    """

    name: str
    truncate_len: int | None
    hash: Callable[[bytes, bytes], bytes]
    salt_len: int = 2
    salt_alphabet: bytes = CRYPT_SALT_ALPHABET
    hash_many: HashMany | None = None

    def __post_init__(self):
        if self.hash_many is None:
            object.__setattr__(self, "hash_many", _hash_many_scalar(self.hash))

    def truncate(self, password: bytes) -> bytes:
        if self.truncate_len is None:
            return password
        return password[: self.truncate_len]


@dataclass(frozen=True)
class HashedEntry:
    user: str
    salt: bytes
    digest: bytes


def _fnv1a64(data: bytes, h: int = _FNV_OFFSET) -> int:
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _avalanche64(z: int) -> int:
    # splitmix64 finaliser constants
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _trunc8_mix64(salt: bytes, password: bytes) -> bytes:
    """Reference implementation of ``trunc8-mix64`` for one pair."""
    h = _fnv1a64(password[:8], _fnv1a64(salt))
    return _avalanche64(h).to_bytes(8, "big")


def _trunc8_mix64_many(salts: Sequence[bytes], passwords: Sequence[bytes]) -> np.ndarray:
    """``trunc8-mix64`` of every (password, salt) pair as a uint64 array.

    The FNV state after each salt is computed once; the at most 8 password
    bytes are then folded into a ``(passwords, salts)`` array of states, a
    length mask leaving a state alone once its password has run out.
    uint64 multiplication wraps, which is the ``& _MASK64`` of the scalar code.
    """
    n = len(passwords)
    state = np.array([_fnv1a64(salt) for salt in salts], dtype=np.uint64)
    head = b"".join(pw[:8].ljust(8, b"\0") for pw in passwords)
    pw_bytes = np.frombuffer(head, dtype=np.uint8).reshape(n, 8).astype(np.uint64)
    lengths = np.fromiter((len(pw) for pw in passwords), dtype=np.int64, count=n)
    h = np.broadcast_to(state, (n, len(state))).copy()
    prime = np.uint64(_FNV_PRIME)
    for k in range(8):
        folded = (h ^ pw_bytes[:, k, None]) * prime
        h = np.where((lengths > k)[:, None], folded, h)
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


def builtin_scheme(tag: str) -> HashScheme:
    """Look up a built-in scheme by tag; only ``trunc8-mix64`` exists."""
    if tag == "trunc8-mix64":
        return HashScheme(
            name="trunc8-mix64", truncate_len=8, hash=_trunc8_mix64, hash_many=_trunc8_mix64_many
        )
    raise ValueError(f"unknown hash scheme {tag!r}")


def generate_salts(scheme: HashScheme, salt_seed: int, salt_count: int) -> list[bytes]:
    """The seeded set of distinct salts a corpus is hashed under."""
    if salt_count < 1:
        raise ValueError("salt_count must be >= 1")
    space = len(scheme.salt_alphabet) ** scheme.salt_len
    if salt_count > space:
        raise ValueError(f"scheme admits only {space} distinct salts")
    rng = random.Random(salt_seed)
    salts: list[bytes] = []
    seen: set[bytes] = set()
    while len(salts) < salt_count:
        salt = bytes(rng.choice(scheme.salt_alphabet) for _ in range(scheme.salt_len))
        if salt not in seen:
            seen.add(salt)
            salts.append(salt)
    return salts


def hash_corpus(
    credentials: Sequence[tuple[str, bytes]],
    scheme: HashScheme,
    salt_seed: int,
    salt_count: int,
) -> list[HashedEntry]:
    """Hash each ``(user, password)`` pair under a salt drawn uniformly from a seeded set.

    Salts are drawn in the order of ``credentials``. Pairs are grouped by
    their drawn salt and each group is hashed with one ``hash_many`` call.
    """
    salts = generate_salts(scheme, salt_seed, salt_count)
    rng = random.Random((salt_seed ^ 0x5A17) & _MASK64)
    salt_of = np.array([rng.randrange(salt_count) for _ in credentials], dtype=np.int64)
    digests = np.empty(len(credentials), dtype=">u8")
    for j, salt in enumerate(salts):
        rows = np.flatnonzero(salt_of == j)
        passwords = [scheme.truncate(credentials[i][1]) for i in rows.tolist()]
        digests[rows] = scheme.hash_many([salt], passwords)[:, 0]
    raw = digests.tobytes()
    return [
        HashedEntry(user=user, salt=salts[j], digest=raw[8 * i : 8 * i + 8])
        for i, ((user, _), j) in enumerate(zip(credentials, salt_of.tolist()))
    ]


@dataclass
class CrackReport:
    """Recovery curves plus who got cracked.

    The distinct-password curve's denominator is an upper bound that
    assumes every uncracked password is unique; with salted hashes the
    true distinct count of the uncracked remainder is unknowable.
    """

    curve_users: GuessCurve
    curve_distinct: GuessCurve
    cracked: list[tuple[str, bytes]]
    uncracked_count: int


def crack(entries: Sequence[HashedEntry], ordering: GuessOrdering, scheme: HashScheme) -> CrackReport:
    """Replay a guess ordering against a hashed corpus.

    Guesses are truncated per scheme before hashing; a guess that repeats
    an earlier one after truncation advances the curve without hashing, so
    each (salt, guess) pair costs at most one hash evaluation. Fresh
    guesses are hashed in blocks of ``GUESS_BLOCK`` against every salt that
    still has uncracked entries; a salt left with none retires before the
    next block. Hits are resolved guess by guess, and within a guess in
    the order salts first appear in ``entries``, so an entry goes to the
    first guess that matches it and ``cracked`` has the same order in
    every process.
    """
    buckets: dict[bytes, dict[bytes, list[str]]] = {}
    for entry in entries:
        buckets.setdefault(entry.salt, {}).setdefault(entry.digest, []).append(entry.user)
    # Every digest a guess could match, for a vectorised pre-filter; a hit
    # is confirmed and popped through its salt's bucket.
    outstanding = np.sort(
        np.fromiter((int.from_bytes(e.digest, "big") for e in entries), dtype=np.uint64)
    )
    fresh: list[bytes] = []
    fresh_at: list[int] = []
    tried: set[bytes] = set()
    for i, guess in enumerate(ordering.guesses):
        truncated = scheme.truncate(guess)
        if truncated not in tried:
            tried.add(truncated)
            fresh.append(truncated)
            fresh_at.append(i)
    live = list(buckets)
    users_inc = np.zeros(len(ordering.guesses), dtype=np.int64)
    cracked: list[tuple[str, bytes]] = []
    for start in range(0, len(fresh), GUESS_BLOCK):
        if not live:
            break
        block = fresh[start : start + GUESS_BLOCK]
        digests = scheme.hash_many(live, block)
        pos = np.searchsorted(outstanding, digests)
        hit = pos < len(outstanding)
        hit[hit] = outstanding[pos[hit]] == digests[hit]
        rows, cols = np.nonzero(hit)
        for g, s, d in zip(rows.tolist(), cols.tolist(), digests[rows, cols].tolist()):
            users = buckets[live[s]].pop(d.to_bytes(8, "big"), None)
            if users:
                users_inc[fresh_at[start + g]] += len(users)
                cracked.extend((u, block[g]) for u in users)
        live = [salt for salt in live if buckets[salt]]
    distinct_inc = (users_inc > 0).astype(np.int64)
    distinct_recovered = int(distinct_inc.sum())
    uncracked = len(entries) - len(cracked)
    return CrackReport(
        curve_users=curve_from_increments(users_inc, len(entries), METRIC_USERS),
        curve_distinct=curve_from_increments(
            distinct_inc, distinct_recovered + uncracked, METRIC_DISTINCT
        ),
        cracked=cracked,
        uncracked_count=uncracked,
    )


def write_hashes_tsv(entries: Sequence[HashedEntry], path) -> None:
    """Export as ``user<TAB>salt-hex<TAB>digest-hex``."""
    with open(path, "wb") as fh:
        fh.write(HASHES_HEADER + b"\n")
        for e in entries:
            fh.write(
                escape_field(e.user.encode("latin-1"))
                + b"\t" + e.salt.hex().encode() + b"\t" + e.digest.hex().encode() + b"\n"
            )


def _hashed_entry(line: bytes) -> HashedEntry:
    parts = line.split(b"\t")
    if len(parts) != 3:
        raise CorpusError(f"malformed hashes row: {line!r}")
    user, salt_hex, digest_hex = parts
    try:
        entry = HashedEntry(
            user=unescape_field(user).decode("latin-1"),
            salt=bytes.fromhex(salt_hex.decode()),
            digest=bytes.fromhex(digest_hex.decode()),
        )
    except ValueError as exc:
        raise CorpusError(f"malformed hashes row {line!r}: {exc}") from exc
    if len(entry.digest) != 8:
        raise CorpusError(f"malformed hashes row {line!r}: digest is not 8 bytes")
    return entry


def read_hashes_tsv(path) -> list[HashedEntry]:
    """Load a file written by :func:`write_hashes_tsv`.

    CRLF rows and blank lines are accepted; a wrong header, a row without
    exactly three fields, a bad escape or hex field, or a digest that is
    not 8 bytes raises :class:`CorpusError`.
    """
    with open(path, "rb") as fh:
        if fh.readline().rstrip(b"\r\n") != HASHES_HEADER:
            raise CorpusError(f"not a hashed-corpus file: {path}")
        return [_hashed_entry(line) for lines in line_blocks(fh) for line in lines if line]


def write_cracked_tsv(report: CrackReport, path) -> None:
    with open(path, "wb") as fh:
        fh.write(b"user\tpassword\n")
        for user, password in report.cracked:
            fh.write(escape_field(user.encode("latin-1")) + b"\t" + escape_field(password) + b"\n")
