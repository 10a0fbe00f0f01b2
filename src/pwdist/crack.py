"""Offline cracking harness over salted hashed corpora.

There is one hash, ``trunc8-mix64``. It mirrors the shape of classic
crypt(3) (8-byte truncation, two-character salts from the crypt alphabet)
without implementing it: the digest is a 64-bit FNV-1a over salt bytes then
the password's first 8 bytes, finished with the splitmix64 avalanche, so
independent implementations interoperate bit for bit. A hashed corpus is
held as columns: its users in a :class:`~pwdist.column.PasswordColumn`,
and a salt index and a digest per row. Passwords and guesses are hashed
from the first 8 bytes of each row, read as one word of their column. The
cracking loop hashes each fresh guess once per salt that still has
uncracked rows, which is exactly why real salted corpora cost thousands of
hash calls per guess. Hashing is batched: a block of fresh guesses is
hashed against every live salt as one ``(guesses x salts)`` array, and
the block's hits are resolved into cracked rows by index arrays. The
cracked users and guesses are two columns. ``hashes.tsv`` and
``cracked.tsv`` are written, and ``hashes.tsv`` read, a block of rows at a
time by the row codec of :mod:`pwdist.tsvio`, with hex fields formatted
and decoded in numpy. ``hashes.tsv`` is read by the same path as
``table.tsv``, CRLF rows and blank lines included.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tsvio
from .crossguess import GuessCurve, GuessOrdering, METRIC_DISTINCT, METRIC_USERS, curve_from_increments
from .column import PasswordColumn, _low_bytes, _words, as_column, splitmix64
from .tsvio import CorpusError

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

    Row i is user ``users[i]`` (a :class:`PasswordColumn`), hashed under
    ``salts[salt_index[i]]`` to the 8-byte digest ``digests[i]`` (a
    big-endian digest read as a ``uint64``). ``salts`` holds each salt
    once, in the order of the first row that uses it.
    """

    users: PasswordColumn
    salts: list[bytes]
    salt_index: np.ndarray
    digests: np.ndarray

    def __len__(self) -> int:
        return len(self.users)


def _fnv1a64(data: bytes, h: int = _FNV_OFFSET) -> int:
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _heads(column: PasswordColumn) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first 8 bytes, the bytes the hash reads, and how many there are.

    The bytes are a little-endian uint64 read from the column's word view,
    NUL past the row's end.
    """
    lengths = np.minimum(column.lengths(), 8)
    return _words(column.data)[column.offsets[:-1]] & _low_bytes(lengths), lengths


def _head_column(heads: np.ndarray, lengths: np.ndarray) -> PasswordColumn:
    """The column whose row i is the first ``lengths[i]`` bytes of ``heads[i]``."""
    raw = heads.astype("<u8").view(np.uint8).reshape(-1, 8)
    return PasswordColumn.from_pieces([raw[np.arange(8) < lengths[:, None]].tobytes()], [lengths])


def _fold_heads(state: np.ndarray, heads: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``trunc8-mix64`` digests: FNV-1a continued from ``state`` over the first
    ``lengths`` bytes of each head, then the splitmix64 finaliser.

    The arguments broadcast. A length mask leaves a state alone once its
    password has run out; uint64 multiplication wraps modulo 2**64, as
    FNV-1a's does.
    """
    h = np.array(np.broadcast_to(state, np.broadcast_shapes(state.shape, heads.shape)))
    prime = np.uint64(_FNV_PRIME)
    for k in range(8):
        byte = (heads >> np.uint64(8 * k)) & np.uint64(0xFF)
        np.copyto(h, (h ^ byte) * prime, where=lengths > k)
    return splitmix64(h)


def _salt_states(salts: Sequence[bytes]) -> np.ndarray:
    """The FNV-1a state after each salt."""
    return np.array([_fnv1a64(salt) for salt in salts], dtype=np.uint64)


def _trunc8_mix64_many(salts: Sequence[bytes], passwords: PasswordColumn) -> np.ndarray:
    """``trunc8-mix64`` of every (password, salt) pair as a ``(passwords, salts)`` uint64 array.

    The FNV state after each salt is computed once, and the passwords'
    heads are folded into it in one numpy pass per byte position.
    """
    heads, lengths = _heads(passwords)
    return _fold_heads(_salt_states(salts)[None, :], heads[:, None], lengths[:, None])


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
    Every row is hashed in one numpy pass per byte of its password's head,
    read from the password column's words.
    """
    users, passwords = as_column(users), as_column(passwords)
    if len(users) != len(passwords):
        raise ValueError("need exactly one password per user")
    salts = generate_salts(salt_seed, salt_count)
    rng = random.Random((salt_seed ^ 0x5A17) & _MASK64)
    drawn = draw_below(rng, salt_count, len(users))
    # Renumber the drawn salts by first use.
    used, first = np.unique(drawn, return_index=True)
    used = used[np.argsort(first)]
    renumber = np.zeros(salt_count, dtype=np.int64)
    renumber[used] = np.arange(len(used))
    heads, lengths = _heads(passwords)
    return HashedCorpus(
        users=users,
        salts=[salts[j] for j in used.tolist()],
        salt_index=renumber[drawn],
        digests=_fold_heads(_salt_states(salts)[drawn], heads, lengths),
    )


@dataclass(eq=False)
class CrackedRows:
    """The ``(user, truncated guess)`` rows a replay cracked, in order, as two columns.

    ``users`` and ``guesses`` are :class:`PasswordColumn` s of one row per
    cracked user; ``len`` gives the rows.
    """

    users: PasswordColumn
    guesses: PasswordColumn

    def __len__(self) -> int:
        return len(self.users)


@dataclass(eq=False)
class CrackReport:
    """Recovery curves plus who got cracked.

    The distinct-password curve's denominator is an upper bound that
    assumes every uncracked password is unique; with salted hashes the
    true distinct count of the uncracked remainder is unknowable.
    """

    curve_users: GuessCurve
    curve_distinct: GuessCurve
    cracked: CrackedRows

    @property
    def uncracked_count(self) -> int:
        return self.curve_users.denominator - len(self.cracked)


def crack(corpus: HashedCorpus, ordering: GuessOrdering) -> CrackReport:
    """Replay a guess ordering against a hashed corpus.

    Guesses are cut to their first 8 bytes, the bytes the hash reads; a
    guess that repeats an earlier one after the cut advances the curve
    without hashing, so each (salt, guess) pair costs at most one hash
    evaluation, and ``cracked`` holds the cut guess. Fresh
    guesses are hashed in blocks of ``GUESS_BLOCK`` against every salt that
    still has uncracked rows; a salt left with none retires before the
    next block. A block's hits are resolved in numpy: every row in a hit's
    digest run that has the hit's salt and is not cracked yet goes to the
    hit, taking hits guess by guess, within a guess in the order of
    ``corpus.salts``, and within a salt in row order. So a row goes to the
    first guess that matches it, and ``cracked`` has the same order in
    every process.
    """
    n = len(corpus)
    # Rows sorted by digest, then salt, then row: the rows one (salt, guess)
    # hit cracks are the ones of its salt in its digest's run.
    order = np.lexsort((corpus.salt_index, corpus.digests))
    sorted_digests = corpus.digests[order]
    sorted_salts = corpus.salt_index[order]
    # Whether any row's digest has given top PREFILTER_BITS bits: most
    # (guess, salt) digests are ruled out by this before the sorted search.
    top = np.uint64(64 - PREFILTER_BITS)
    present = np.zeros(1 << PREFILTER_BITS, dtype=bool)
    present[corpus.digests >> top] = True
    done = np.zeros(n, dtype=bool)
    # Uncracked rows per salt.
    left = np.bincount(corpus.salt_index, minlength=len(corpus.salts))
    # The first guess of each cut: a stable sort brings equal cuts together in guess order.
    heads, cut_lengths = _heads(ordering.guesses)
    by_cut = np.lexsort((heads, cut_lengths))
    new_cut = np.ones(len(by_cut), dtype=bool)
    new_cut[1:] = (np.diff(heads[by_cut]) != 0) | (np.diff(cut_lengths[by_cut]) != 0)
    fresh_at = np.sort(by_cut[new_cut])
    fresh = _head_column(heads[fresh_at], cut_lengths[fresh_at])
    live = np.flatnonzero(left)
    cracked_at: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    cracked_by: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    for start in range(0, len(fresh), GUESS_BLOCK):
        if not len(live):
            break
        block = fresh[start : start + GUESS_BLOCK]
        digests = _trunc8_mix64_many([corpus.salts[j] for j in live.tolist()], block)
        guess, col = np.nonzero(present[digests >> top])
        found = digests[guess, col]
        lo = np.searchsorted(sorted_digests, found)
        run = np.searchsorted(sorted_digests, found, side="right") - lo
        # Every row of every hit's digest run, hit by hit, as sorted positions.
        hit = np.repeat(np.arange(len(run)), run)
        at = np.repeat(lo - (np.cumsum(run) - run), run) + np.arange(len(hit))
        keep = (sorted_salts[at] == live[col[hit]]) & ~done[at]
        at, hit = at[keep], hit[keep]
        # Two guesses of a block whose digests collide under one salt: the first wins.
        first = np.unique(at, return_index=True)[1]
        if len(first) < len(at):
            first.sort()
            at, hit = at[first], hit[first]
        done[at] = True
        left -= np.bincount(sorted_salts[at], minlength=len(left))
        live = live[left[live] > 0]
        cracked_at.append(at)
        cracked_by.append(start + guess[hit])
    at = np.concatenate(cracked_at)
    by = np.concatenate(cracked_by)
    users_inc = np.bincount(fresh_at[by], minlength=len(ordering.guesses))
    distinct_inc = (users_inc > 0).astype(np.int64)
    distinct_recovered = int(distinct_inc.sum())
    return CrackReport(
        curve_users=curve_from_increments(users_inc, n, METRIC_USERS),
        curve_distinct=curve_from_increments(
            distinct_inc, distinct_recovered + n - len(at), METRIC_DISTINCT
        ),
        cracked=CrackedRows(corpus.users.take(order[at]), fresh.take(by)),
    )


_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
# The value of each hex digit byte, either case; 16 for every other byte.
_HEX_VALUES = np.array(
    [int(chr(b), 16) if chr(b) in "0123456789abcdefABCDEF" else 16 for b in range(256)], dtype=np.uint8
)
_NIBBLE_SHIFTS = np.arange(60, -1, -4, dtype=np.uint64)


def write_hashes_tsv(corpus: HashedCorpus, path) -> None:
    """Export as ``user<TAB>salt-hex<TAB>digest-hex``, laid out a block of rows at a time.

    Each block of rows is one uint8 buffer: each user's bytes, escaped only
    where they hold a byte to escape, then a tail of TAB, salt hex, TAB,
    digest hex and LF that numpy lays out for all rows at once.
    """
    # Each salt's tail bytes up to its digest, NUL-padded to the longest.
    salt_tails = np.array([b"\t%s\t" % salt.hex().encode() for salt in corpus.salts], dtype=bytes)
    salt_tails = salt_tails.view(np.uint8).reshape(len(corpus.salts), salt_tails.itemsize)

    def block(rows: slice) -> np.ndarray:
        digest_hex = _HEX_DIGITS[(corpus.digests[rows, None] >> _NIBBLE_SHIFTS) & np.uint64(15)]
        tails = tsvio.fixed_fields([salt_tails[corpus.salt_index[rows]], digest_hex, 0x0A])
        return tsvio.lay_out([tsvio.escaped(corpus.users[rows]), tails])

    tsvio.write_rows(path, HASHES_HEADER, len(corpus), block)


def _hex_values(raw: np.ndarray, start: np.ndarray, stop: np.ndarray, name: str) -> np.ndarray:
    """The hex field ``[start, stop)`` of every row as a matrix of digit values, 0 past a
    row's end; a field of odd length or with a byte that is not a hex digit raises."""
    at = start[:, None] + np.arange((stop - start).max(initial=0))
    inside = at < stop[:, None]
    values = np.where(inside, _HEX_VALUES[raw[np.where(inside, at, 0)]], 0)
    if ((stop - start) % 2).any() or (values > 15).any():
        raise CorpusError(f"malformed hashes row: {name} is not whole bytes of hex digits")
    return values


def _hashes_block(raw: np.ndarray, fields, salt_ids: dict[bytes, int]) -> tuple[np.ndarray, np.ndarray]:
    """A block of ``hashes.tsv`` rows' salt ids (a new salt is added to ``salt_ids``) and digests.

    Hex is decoded in numpy: a digest must be exactly 16 hex digits, a salt
    any even number of them.
    """
    _, salt, digest = fields
    if (digest[1] - digest[0] != 16).any():
        raise CorpusError("malformed hashes row: digest is not 8 bytes")
    nibbles = _hex_values(raw, *digest, "digest").reshape(-1, 16).astype(np.uint64)
    digests = np.bitwise_or.reduce(nibbles << _NIBBLE_SHIFTS, axis=1)
    nibbles = _hex_values(raw, *salt, "salt")
    # Each salt's bytes, then a 1 and NUL padding: one opaque byte string per distinct salt.
    keys = np.zeros((len(nibbles), nibbles.shape[1] // 2 + 1), dtype=np.uint8)
    keys[:, :-1] = nibbles[:, 0::2] << 4 | nibbles[:, 1::2]
    salt_lengths = (salt[1] - salt[0]) // 2
    keys[np.arange(len(keys)), salt_lengths] = 1
    as_strings = keys.view(f"V{keys.shape[1]}").ravel()
    _, first, index = np.unique(as_strings, return_index=True, return_inverse=True)
    ids = np.empty(len(first), dtype=np.int64)
    for k in np.argsort(first).tolist():
        ids[k] = salt_ids.setdefault(keys[first[k], : salt_lengths[first[k]]].tobytes(), len(salt_ids))
    return ids[index.ravel()], digests


def read_hashes_tsv(path) -> HashedCorpus:
    """Load a file written by :func:`write_hashes_tsv`, a block of rows at a time
    by :func:`~pwdist.tsvio.read_rows`, which also takes CRLF rows and blank lines.

    A wrong header, a row without three fields, a bad escape or a bad hex
    field raises :class:`CorpusError`.
    """
    salt_ids: dict[bytes, int] = {}
    users, (salt_index, digests) = tsvio.read_rows(
        path, HASHES_HEADER, "hashes", 0, lambda raw, fields, _: _hashes_block(raw, fields, salt_ids)
    )
    return HashedCorpus(users=users, salts=list(salt_ids), salt_index=salt_index, digests=digests)


def write_cracked_tsv(report: CrackReport, path) -> None:
    """Export as ``user<TAB>password``, the cut guess, laid out a block of rows at a time.

    Each block of rows is one uint8 buffer of users and guesses, each
    escaped only where it holds a byte to escape, between TABs and LFs.
    """
    cracked = report.cracked

    def block(rows: slice) -> np.ndarray:
        users, guesses = tsvio.escaped(cracked.users[rows]), tsvio.escaped(cracked.guesses[rows])
        return tsvio.lay_out([users, 0x09, guesses, 0x0A])

    tsvio.write_rows(path, b"user\tpassword", len(cracked), block)
