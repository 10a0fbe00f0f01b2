"""Offline cracking harness over salted hashed corpora.

There is one hash, ``trunc8-mix64``. It mirrors the shape of classic
crypt(3) (8-byte truncation, two-character salts from the crypt alphabet)
without implementing it: the digest is a 64-bit FNV-1a over salt bytes then
the password's first 8 bytes, finished with the splitmix64 avalanche, so
independent implementations interoperate bit for bit. A hashed corpus is
held as columns (users, a salt index and a digest per row). The cracking
loop hashes each fresh guess once per salt that still has uncracked rows,
which is exactly why real salted corpora cost thousands of hash calls per
guess. Hashing is batched: a block of fresh guesses is hashed against every
live salt as one ``(guesses x salts)`` array.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .crossguess import GuessCurve, GuessOrdering, METRIC_DISTINCT, METRIC_USERS, curve_from_increments
from .column import splitmix64
from .ingest import WRITE_BLOCK, CorpusError, line_blocks
from .tsvio import escape_field, unescape_field

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

CRYPT_SALT_ALPHABET = b"./0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
SALT_LEN = 2

HASHES_HEADER = b"user\tsalt-hex\tdigest-hex"

# Fresh guesses hashed per replay block. A block's digests take
# GUESS_BLOCK x live salts x 8 bytes: 128 KB at 64 salts, small enough that
# the block arrays do not raise the stage's peak memory.
GUESS_BLOCK = 256
# Leading digest bits indexed by the replay's pre-filter: a 1 MB table.
PREFILTER_BITS = 20


@dataclass(eq=False)
class HashedCorpus:
    """A salted hashed corpus held as columns, one row per user.

    Row i is user ``users[i]``, hashed under ``salts[salt_index[i]]`` to
    the 8-byte digest ``digests[i]`` (a big-endian digest read as a
    ``uint64``). ``salts`` holds each salt once, in the order of the first
    row that uses it.
    """

    users: list[bytes]
    salts: list[bytes]
    salt_index: np.ndarray
    digests: np.ndarray

    def __len__(self) -> int:
        return len(self.users)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HashedCorpus):
            return NotImplemented
        return (
            self.users == other.users
            and self.salts == other.salts
            and np.array_equal(self.salt_index, other.salt_index)
            and np.array_equal(self.digests, other.digests)
        )


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
    """``trunc8-mix64`` of one pair: the reference the batch kernel must match."""
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
    return splitmix64(h)


def generate_salts(salt_seed: int, salt_count: int) -> list[bytes]:
    """The seeded set of distinct salts a corpus is hashed under."""
    if salt_count < 1:
        raise ValueError("salt_count must be >= 1")
    space = len(CRYPT_SALT_ALPHABET) ** SALT_LEN
    if salt_count > space:
        raise ValueError(f"there are only {space} distinct salts")
    rng = random.Random(salt_seed)
    salts: list[bytes] = []
    seen: set[bytes] = set()
    while len(salts) < salt_count:
        salt = bytes(rng.choice(CRYPT_SALT_ALPHABET) for _ in range(SALT_LEN))
        if salt not in seen:
            seen.add(salt)
            salts.append(salt)
    return salts


def draw_below(rng: random.Random, n: int, count: int) -> np.ndarray:
    """``[rng.randrange(n) for _ in range(count)]`` as an int64 array, drawn in bulk.

    For n < 2**32, ``randrange(n)`` keeps the top ``k = n.bit_length()``
    bits of one 32-bit Mersenne Twister output and draws again while the
    value is ``>= n``. ``getrandbits(32 * m)`` returns m such outputs with
    the first in its lowest 32 bits, so shifting each right by ``32 - k``
    and dropping the values ``>= n`` gives the same draws in the same order.
    """
    if not 0 < n < 1 << 32:
        raise ValueError(f"cannot draw below {n} in bulk")
    k = n.bit_length()
    parts = [np.empty(0, dtype=np.int64)]
    need = count
    while need:
        # about the expected number of outputs for ``need`` accepted draws
        words = need * (1 << k) // n + 16
        raw = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"), dtype="<u4")
        drawn = raw >> np.uint32(32 - k)
        drawn = drawn[drawn < n][:need]
        parts.append(drawn.astype(np.int64))
        need -= len(drawn)
    return np.concatenate(parts)


def hash_corpus(
    users: Sequence[bytes],
    passwords: Sequence[bytes],
    salt_seed: int,
    salt_count: int,
) -> HashedCorpus:
    """Hash each user's password under a salt drawn uniformly from a seeded set.

    Salts are drawn in row order, one ``randrange(salt_count)`` per user.
    Rows are grouped by their drawn salt and each group is hashed with one
    ``_trunc8_mix64_many`` call.
    """
    if len(users) != len(passwords):
        raise ValueError("need exactly one password per user")
    salts = generate_salts(salt_seed, salt_count)
    rng = random.Random((salt_seed ^ 0x5A17) & _MASK64)
    drawn = draw_below(rng, salt_count, len(users))
    # Renumber the drawn salts by first use.
    used = list(dict.fromkeys(drawn.tolist()))
    renumber = np.zeros(salt_count, dtype=np.int64)
    renumber[used] = np.arange(len(used))
    salt_index = renumber[drawn]
    digests = np.empty(len(users), dtype=np.uint64)
    for j, salt in enumerate(used):
        rows = np.flatnonzero(salt_index == j)
        group = [passwords[i] for i in rows.tolist()]
        digests[rows] = _trunc8_mix64_many([salts[salt]], group)[:, 0]
    return HashedCorpus(
        users=list(users), salts=[salts[j] for j in used], salt_index=salt_index, digests=digests
    )


@dataclass
class CrackReport:
    """Recovery curves plus who got cracked.

    The distinct-password curve's denominator is an upper bound that
    assumes every uncracked password is unique; with salted hashes the
    true distinct count of the uncracked remainder is unknowable.
    """

    curve_users: GuessCurve
    curve_distinct: GuessCurve
    cracked: list[tuple[bytes, bytes]]
    uncracked_count: int


def crack(corpus: HashedCorpus, ordering: GuessOrdering) -> CrackReport:
    """Replay a guess ordering against a hashed corpus.

    Guesses are cut to their first 8 bytes, the bytes the hash reads; a
    guess that repeats an earlier one after the cut advances the curve
    without hashing, so each (salt, guess) pair costs at most one hash
    evaluation, and ``cracked`` holds the cut guess. Fresh
    guesses are hashed in blocks of ``GUESS_BLOCK`` against every salt that
    still has uncracked rows; a salt left with none retires before the
    next block. Hits are resolved guess by guess, within a guess in the
    order of ``corpus.salts``, and within a salt in row order, so a row
    goes to the first guess that matches it and ``cracked`` has the same
    order in every process.
    """
    n = len(corpus)
    # Rows sorted by digest, then salt, then row: the rows one (salt, guess)
    # hit cracks are the ones of its salt in its digest's run.
    order = np.lexsort((corpus.salt_index, corpus.digests))
    sorted_digests = corpus.digests[order]
    # Whether any row's digest has given top PREFILTER_BITS bits: most
    # (guess, salt) digests are ruled out by this before the sorted search.
    top = np.uint64(64 - PREFILTER_BITS)
    present = np.zeros(1 << PREFILTER_BITS, dtype=bool)
    present[corpus.digests >> top] = True
    salt_at = corpus.salt_index[order].tolist()
    user_at = [corpus.users[i] for i in order.tolist()]
    done = bytearray(n)
    # Uncracked rows per salt.
    left = np.bincount(corpus.salt_index, minlength=len(corpus.salts)).tolist()
    fresh: list[bytes] = []
    fresh_at: list[int] = []
    tried: set[bytes] = set()
    for i, guess in enumerate(ordering.guesses):
        truncated = guess[:8]
        if truncated not in tried:
            tried.add(truncated)
            fresh.append(truncated)
            fresh_at.append(i)
    live = [j for j, rows_left in enumerate(left) if rows_left]
    users_inc = np.zeros(len(ordering.guesses), dtype=np.int64)
    cracked: list[tuple[bytes, bytes]] = []
    for start in range(0, len(fresh), GUESS_BLOCK):
        if not live:
            break
        block = fresh[start : start + GUESS_BLOCK]
        digests = _trunc8_mix64_many([corpus.salts[j] for j in live], block)
        rows, cols = np.nonzero(present[digests >> top])
        found = digests[rows, cols]
        run_starts = np.searchsorted(sorted_digests, found)
        hit = run_starts < n
        hit[hit] = sorted_digests[run_starts[hit]] == found[hit]
        rows, cols, found, run_starts = rows[hit], cols[hit], found[hit], run_starts[hit]
        run_ends = np.searchsorted(sorted_digests, found, side="right")
        for g, s, lo, hi in zip(rows.tolist(), cols.tolist(), run_starts.tolist(), run_ends.tolist()):
            salt = live[s]
            users = []
            for q in range(lo, hi):
                if salt_at[q] == salt and not done[q]:
                    done[q] = 1
                    users.append(user_at[q])
            if users:
                users_inc[fresh_at[start + g]] += len(users)
                left[salt] -= len(users)
                cracked.extend((u, block[g]) for u in users)
        live = [j for j in live if left[j]]
    distinct_inc = (users_inc > 0).astype(np.int64)
    distinct_recovered = int(distinct_inc.sum())
    uncracked_count = n - len(cracked)
    return CrackReport(
        curve_users=curve_from_increments(users_inc, n, METRIC_USERS),
        curve_distinct=curve_from_increments(
            distinct_inc, distinct_recovered + uncracked_count, METRIC_DISTINCT
        ),
        cracked=cracked,
        uncracked_count=uncracked_count,
    )


def write_hashes_tsv(corpus: HashedCorpus, path) -> None:
    """Export as ``user<TAB>salt-hex<TAB>digest-hex``, a block of rows per write."""
    salt_hex = [salt.hex().encode() for salt in corpus.salts]
    with open(path, "wb") as fh:
        fh.write(HASHES_HEADER + b"\n")
        for start in range(0, len(corpus), WRITE_BLOCK):
            stop = start + WRITE_BLOCK
            rows = zip(
                map(escape_field, corpus.users[start:stop]),
                map(salt_hex.__getitem__, corpus.salt_index[start:stop].tolist()),
                corpus.digests[start:stop].tolist(),
            )
            fh.write(b"".join([b"%s\t%s\t%016x\n" % row for row in rows]))


def _hashes_row(line: bytes) -> tuple[bytes, bytes, bytes]:
    """The user, salt and digest of one ``hashes.tsv`` row."""
    parts = line.split(b"\t")
    if len(parts) != 3:
        raise CorpusError(f"malformed hashes row: {line!r}")
    user, salt_hex, digest_hex = parts
    try:
        row = unescape_field(user), bytes.fromhex(salt_hex.decode()), bytes.fromhex(digest_hex.decode())
    except ValueError as exc:
        raise CorpusError(f"malformed hashes row {line!r}: {exc}") from exc
    if len(row[2]) != 8:
        raise CorpusError(f"malformed hashes row {line!r}: digest is not 8 bytes")
    return row


def read_hashes_tsv(path) -> HashedCorpus:
    """Load a file written by :func:`write_hashes_tsv`.

    CRLF rows and blank lines are accepted; a wrong header, a row without
    exactly three fields, a bad escape or hex field, or a digest that is
    not 8 bytes raises :class:`CorpusError`.
    """
    users: list[bytes] = []
    salt_ids: dict[bytes, int] = {}
    salt_index: list[int] = []
    digests: list[bytes] = []
    with open(path, "rb") as fh:
        if fh.readline().rstrip(b"\r\n") != HASHES_HEADER:
            raise CorpusError(f"not a hashed-corpus file: {path}")
        for lines in line_blocks(fh):
            for line in lines:
                if line:
                    user, salt, digest = _hashes_row(line)
                    users.append(user)
                    salt_index.append(salt_ids.setdefault(salt, len(salt_ids)))
                    digests.append(digest)
    return HashedCorpus(
        users=users,
        salts=list(salt_ids),
        salt_index=np.array(salt_index, dtype=np.int64),
        digests=np.frombuffer(b"".join(digests), dtype=">u8").astype(np.uint64),
    )


def write_cracked_tsv(report: CrackReport, path) -> None:
    with open(path, "wb") as fh:
        fh.write(b"user\tpassword\n")
        for start in range(0, len(report.cracked), WRITE_BLOCK):
            rows = report.cracked[start : start + WRITE_BLOCK]
            fh.write(b"".join([b"%s\t%s\n" % (escape_field(u), escape_field(p)) for u, p in rows]))
