"""A column of byte strings: one buffer plus int64 offsets.

Tables hold their passwords, guess orderings their guesses and hashed
corpora their users as a :class:`PasswordColumn`, so that a row costs its
bytes plus an 8-byte offset instead of a Python ``bytes`` object.
Duplicates are found, and two columns joined, by sorting a vectorised
64-bit hash of each row (:func:`row_hashes`) and comparing bytes only
where hashes are equal.
"""

from __future__ import annotations

import hashlib
import operator
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_MASK64 = (1 << 64) - 1
# Rows joined per piece when a column is built from a sequence of rows.
JOIN_BLOCK = 1 << 13
# Rows longer than this are hashed and compared one at a time, not 8 bytes
# per numpy pass.
WORD_PASS_MAX_LEN = 64
# A column's buffer ends in these bytes, so that any row's bytes can be
# read as 8-byte words.
_PAD = bytes(8)


def splitmix64(h: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser of each uint64 in ``h``, in place; returns ``h``.

    A bijection on 64-bit words; uint64 multiplication wraps.
    """
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


def _words(data: bytes) -> np.ndarray:
    """Every little-endian 8-byte word of ``data``: element k is ``data[k:k + 8]``."""
    return np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))


# _LOW_BYTES[k] keeps the first k bytes of a little-endian word.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _low_bytes(remaining: np.ndarray) -> np.ndarray:
    """Masks keeping the first ``min(remaining, 8)`` bytes of a word."""
    return _LOW_BYTES[np.minimum(remaining, 8)]


def _joined(pieces: list[bytes], lengths: Sequence[np.ndarray]) -> tuple[bytes, np.ndarray]:
    """The buffer and the offsets of the rows joined in ``pieces``, one array of lengths per piece.

    ``pieces`` is emptied once joined, so that its bytes are freed before
    the offsets are made.
    """
    pieces.append(_PAD)
    data = b"".join(pieces)
    pieces.clear()
    offsets = np.zeros(sum(map(len, lengths)) + 1, dtype=np.int64)
    if len(offsets) > 1:
        np.cumsum(np.concatenate(lengths), out=offsets[1:])
    return data, offsets


class PasswordColumn(Sequence[bytes]):
    """Byte strings held as one buffer: row i is ``data[offsets[i]:offsets[i + 1]]``.

    A table's passwords and an ordering's guesses cost their bytes plus an
    int64 offset each, with no Python object per row. The column is a
    read-only sequence of ``bytes``: ``len``, an int index gives ``bytes``,
    a slice gives a column that shares the buffer, iteration, and ``==``
    against a list or another column. ``PasswordColumn(rows)`` builds one
    from any iterable of bytes, joining ``JOIN_BLOCK`` rows at a time. The
    buffer ends in 8 NUL bytes past the last row, so each row can be read
    8 bytes at a time as words.

    Duplicates are found by sorting a 64-bit hash of each row
    (:func:`row_hashes`) and comparing bytes only where hashes are equal.
    The hashes are computed on each call that needs them, not kept.
    """

    __slots__ = ("data", "offsets")

    def __init__(self, rows: Iterable[bytes] = ()):
        pieces: list[bytes] = []
        lengths: list[np.ndarray] = []
        rows = iter(rows)
        while block := list(islice(rows, JOIN_BLOCK)):
            pieces.append(b"".join(block))
            lengths.append(np.fromiter(map(len, block), dtype=np.int64, count=len(block)))
        self._set(*_joined(pieces, lengths))

    def _set(self, data: bytes, offsets: np.ndarray) -> None:
        offsets.flags.writeable = False
        self.data = data
        self.offsets = offsets

    @classmethod
    def from_pieces(cls, pieces: list[bytes], lengths: Sequence[np.ndarray]) -> "PasswordColumn":
        """The column of the rows joined in ``pieces``, one array of row lengths per piece.

        ``pieces`` is emptied.
        """
        column = cls.__new__(cls)
        column._set(*_joined(pieces, lengths))
        return column

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step != 1:
                return PasswordColumn(map(self.__getitem__, range(start, stop, step)))
            column = PasswordColumn.__new__(PasswordColumn)
            column._set(self.data, self.offsets[start : max(start, stop) + 1])
            return column
        i = operator.index(key)
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("password column index out of range")
        return self.data[self.offsets[i] : self.offsets[i + 1]]

    def __iter__(self) -> Iterator[bytes]:
        data = self.data
        for start in range(0, len(self), JOIN_BLOCK):
            bounds = self.offsets[start : start + JOIN_BLOCK + 1].tolist()
            for a, b in zip(bounds, islice(bounds, 1, None)):
                yield data[a:b]

    def __eq__(self, other):
        if isinstance(other, PasswordColumn):
            return (
                len(self) == len(other)
                and np.array_equal(np.diff(self.offsets), np.diff(other.offsets))
                and self.view() == other.view()
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"PasswordColumn({list(self)!r})"

    def view(self) -> memoryview:
        """The rows' bytes, joined."""
        return memoryview(self.data)[self.offsets[0] : self.offsets[-1]]

    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def take(self, rows: np.ndarray) -> "PasswordColumn":
        """The column of the given rows of this one, in the order given.

        The bytes are gathered in numpy, ``JOIN_BLOCK`` rows at a time.
        """
        data = np.frombuffer(self.data, dtype=np.uint8)
        pieces: list[bytes] = []
        lengths: list[np.ndarray] = []
        for start in range(0, len(rows), JOIN_BLOCK):
            block = rows[start : start + JOIN_BLOCK]
            begin = self.offsets[block]
            length = self.offsets[block + 1] - begin
            # Byte k of the piece is byte k - (where its row starts in the piece) of its row.
            at = np.repeat(begin - (np.cumsum(length) - length), length) + np.arange(length.sum())
            pieces.append(data[at].tobytes())
            lengths.append(length)
        return PasswordColumn.from_pieces(pieces, lengths)

    def hash_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's :func:`row_hashes` value, and the rows in ascending hash order."""
        hashes = row_hashes(self)
        return hashes, np.argsort(hashes)

    def has_duplicates(self) -> bool:
        """Whether two rows hold the same bytes.

        Bytes are compared only within runs of equal hashes.
        """
        hashes, order = self.hash_order()
        sorted_hashes = hashes[order]
        same = np.concatenate(([False], sorted_hashes[1:] == sorted_hashes[:-1], [False]))
        edges = np.flatnonzero(np.diff(same.view(np.int8)))
        for a, b in zip(edges[0::2].tolist(), (edges[1::2] + 1).tolist()):
            run = [self[i] for i in order[a:b].tolist()]
            if len(set(run)) < len(run):
                return True
        return False

    def positions(self, probes: "PasswordColumn") -> np.ndarray:
        """For each row of ``probes``, the index of the row of this column with its bytes, or -1.

        A join by sorted hashes: the rows of this column must be distinct.
        Bytes are compared only where the hashes match.
        """
        hashes, order = self.hash_order()
        sorted_hashes = hashes[order]
        probe_hashes, probe_order = probes.hash_order()
        # Searching in ascending order keeps the searches in cache.
        sorted_probes = probe_hashes[probe_order]
        lo = np.searchsorted(sorted_hashes, sorted_probes, side="left")
        hi = np.searchsorted(sorted_hashes, sorted_probes, side="right")
        found = np.full(len(probes), -1, dtype=np.int64)
        single = np.flatnonzero(hi - lo == 1)
        rows, candidates = probe_order[single], order[lo[single]]
        same = _same_rows(probes, rows, self, candidates)
        found[rows[same]] = candidates[same]
        # Probes whose hash is shared by several rows here.
        for k in np.flatnonzero(hi - lo > 1).tolist():
            probe = probes[probe_order[k]]
            for j in order[lo[k] : hi[k]].tolist():
                if self[j] == probe:
                    found[probe_order[k]] = j
                    break
        return found


def keyed_hashes(rows: Sequence[bytes], key: int) -> np.ndarray:
    """The 8-byte blake2b of each row keyed by ``key`` mod 2**64 as 8 big-endian
    bytes, read big-endian into a ``>u8`` array.

    The digests are joined ``JOIN_BLOCK`` rows at a time into the array, so
    no digest object outlives its block.
    """
    keyed = hashlib.blake2b(digest_size=8, key=(key & _MASK64).to_bytes(8, "big"))
    out = np.empty(len(rows), dtype=">u8")
    for start in range(0, len(rows), JOIN_BLOCK):
        digests = []
        for row in rows[start : start + JOIN_BLOCK]:
            h = keyed.copy()
            h.update(row)
            digests.append(h.digest())
        out[start : start + len(digests)] = np.frombuffer(b"".join(digests), dtype=">u8")
    return out


def as_column(rows: Iterable[bytes]) -> PasswordColumn:
    """``rows`` if it is a :class:`PasswordColumn`, else a column built from it."""
    return rows if isinstance(rows, PasswordColumn) else PasswordColumn(rows)


def row_hashes(column: PasswordColumn) -> np.ndarray:
    """A 64-bit hash of each row's bytes, as uint64.

    The state starts at the FNV-1a offset basis xor the row's length; each
    8-byte word of the row (the last one NUL-masked past the row's end, and
    an empty row's one word all NUL) is xored in and mixed by
    :func:`splitmix64`, one numpy pass per word position. Rows longer than
    ``WORD_PASS_MAX_LEN`` bytes take a keyless 8-byte blake2b instead, one
    row at a time. Equal bytes give equal hashes; the converse is checked
    byte by byte wherever it matters.
    """
    lengths = column.lengths()
    starts = column.offsets[:-1]
    words = _words(column.data)
    # The first word of every row, in one pass over whole columns.
    hashes = np.uint64(_FNV_OFFSET) ^ lengths.astype(np.uint64)
    hashes ^= words[starts] & _low_bytes(lengths)
    splitmix64(hashes)
    rows = np.flatnonzero((lengths > 8) & (lengths <= WORD_PASS_MAX_LEN))
    base = 8
    while rows.size:
        remaining = lengths[rows] - base
        word = words[starts[rows] + base] & _low_bytes(remaining)
        hashes[rows] = splitmix64(hashes[rows] ^ word)
        rows = rows[remaining > 8]
        base += 8
    for i in np.flatnonzero(lengths > WORD_PASS_MAX_LEN).tolist():
        hashes[i] = int.from_bytes(hashlib.blake2b(column[i], digest_size=8).digest(), "little")
    return hashes


def _same_rows(
    a: PasswordColumn, rows_a: np.ndarray, b: PasswordColumn, rows_b: np.ndarray
) -> np.ndarray:
    """Whether row ``rows_a[k]`` of ``a`` holds the bytes of row ``rows_b[k]`` of ``b``, for each k.

    Compared 8 bytes per numpy pass, rows longer than ``WORD_PASS_MAX_LEN``
    one at a time.
    """
    start_a = a.offsets[rows_a]
    start_b = b.offsets[rows_b]
    length = a.offsets[rows_a + 1] - start_a
    same = length == b.offsets[rows_b + 1] - start_b
    for k in np.flatnonzero(same & (length > WORD_PASS_MAX_LEN)).tolist():
        same[k] = a[rows_a[k]] == b[rows_b[k]]
    words_a, words_b = _words(a.data), _words(b.data)
    live = np.flatnonzero(same & (length > 0) & (length <= WORD_PASS_MAX_LEN))
    base = 0
    while live.size:
        remaining = length[live] - base
        differ = words_a[start_a[live] + base] ^ words_b[start_b[live] + base]
        differ = (differ & _low_bytes(remaining)) != 0
        same[live[differ]] = False
        live = live[~differ & (remaining > 8)]
        base += 8
    return same
