"""A column of byte strings: one buffer plus int64 offsets.

Tables hold their passwords, guess orderings their guesses and hashed
corpora their users as a :class:`PasswordColumn`, so that a row costs its
bytes plus an 8-byte offset instead of a Python ``bytes`` object.
Duplicates are found, and two columns joined, by sorting a vectorised
64-bit hash of each row (:func:`row_hashes`) and comparing bytes only
where hashes are equal. A column is hashed once into its
:meth:`~PasswordColumn.hash_index`, which its caller keeps for as long as
it needs it: a table's read hands it back for a join.
"""

from __future__ import annotations

import operator
# CPython's built-in BLAKE2, which hashlib.blake2b is: importing hashlib
# would load OpenSSL's libcrypto, 3.4 MB resident, before a stage writes
# its manifest.
from _blake2 import blake2b
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_MASK64 = (1 << 64) - 1
# Rows joined per piece when a column is built from a sequence of rows, and
# probes searched per pass of a join.
JOIN_BLOCK = 1 << 13
# Rows hashed per call of row_hashes when a whole column is hashed.
HASH_BLOCK = 1 << 16
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


class PasswordColumn:
    """Byte strings held as one buffer: row i is ``data[offsets[i]:offsets[i + 1]]``.

    A table's passwords and an ordering's guesses cost their bytes plus an
    int64 offset each, with no Python object per row. The column has a
    ``len``, an int index gives ``bytes``, a contiguous slice gives a column
    that shares the buffer, and iteration gives each row's ``bytes``.
    ``PasswordColumn(rows)`` builds one from any iterable of bytes, joining
    ``JOIN_BLOCK`` rows at a time. The buffer ends in 8 NUL bytes past the
    last row, so each row can be read 8 bytes at a time as words.

    Duplicates are found by sorting a 64-bit hash of each row
    (:func:`row_hashes`) and comparing bytes only where hashes are equal.
    The sorted hashes are returned by :meth:`hash_index`, not kept.
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
                raise ValueError("a password column takes only contiguous slices")
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

    def view(self) -> memoryview:
        """The rows' bytes, joined."""
        return memoryview(self.data)[self.offsets[0] : self.offsets[-1]]

    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def take(self, rows: np.ndarray) -> "PasswordColumn":
        """The column of the given rows of this one, in the order given.

        The bytes are gathered in numpy, ``JOIN_BLOCK`` rows at a time, by
        one index per byte. The index is int32 wherever its values fit, so
        it and its ``arange`` cost 8 bytes per gathered byte. numpy casts a
        non-``intp`` index in a slow buffered loop, so the gather goes
        through ``intp`` copies of the index, ``JOIN_BLOCK`` entries at a
        time.
        """
        data = np.frombuffer(self.data, dtype=np.uint8)
        pieces: list[bytes] = []
        lengths: list[np.ndarray] = []
        for start in range(0, len(rows), JOIN_BLOCK):
            block = rows[start : start + JOIN_BLOCK]
            begin = self.offsets[block]
            length = self.offsets[block + 1] - begin
            total = int(length.sum())
            index_type = np.int32 if len(data) + total <= np.iinfo(np.int32).max else np.int64
            # Byte k of the piece is byte k - (where its row starts in the piece) of its row.
            at = np.repeat((begin - (np.cumsum(length) - length)).astype(index_type), length)
            at += np.arange(total, dtype=index_type)
            piece = np.empty(total, dtype=np.uint8)
            for k in range(0, total, JOIN_BLOCK):
                piece[k : k + JOIN_BLOCK] = data[at[k : k + JOIN_BLOCK].astype(np.intp, copy=False)]
            pieces.append(piece.tobytes())
            lengths.append(length)
        return PasswordColumn.from_pieces(pieces, lengths)

    def hash_index(self, order: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
        """The rows' :func:`row_hashes` values in ascending order and, with ``order``,
        the rows in that order (else ``None``).

        Each row is hashed once, ``HASH_BLOCK`` rows per call of
        :func:`row_hashes`, into one uint64 array that is then sorted in
        place: the index costs 8 bytes a row, or 16 with its order.
        """
        hashes = np.empty(len(self), dtype=np.uint64)
        for start in range(0, len(self), HASH_BLOCK):
            hashes[start : start + HASH_BLOCK] = row_hashes(self[start : start + HASH_BLOCK])
        rows = np.argsort(hashes) if order else None
        hashes.sort()
        return hashes, rows

    def has_duplicates(self, index: tuple[np.ndarray, np.ndarray | None] | None = None) -> bool:
        """Whether two rows hold the same bytes, given this column's :meth:`hash_index` if built.

        Bytes are compared only within runs of equal hashes. Finding the rows
        of such a run takes the index's order; an index without one is built
        again with it, which happens only when two hashes are equal.
        """
        sorted_hashes, order = self.hash_index() if index is None else index
        runs = equal_runs(sorted_hashes[1:] == sorted_hashes[:-1])
        if not runs:
            return False
        if order is None:
            order = self.hash_index(order=True)[1]
        for a, b in runs:
            run = [self[i] for i in order[a:b].tolist()]
            if len(set(run)) < len(run):
                return True
        return False

    def matches(
        self,
        index: tuple[np.ndarray, np.ndarray],
        probes: "PasswordColumn",
        probe_index: tuple[np.ndarray, np.ndarray],
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The rows of ``probes`` found in this column, and where, ``JOIN_BLOCK`` probes at a time.

        A join of the two columns' :meth:`hash_index` with order: each
        ``(probe_rows, rows)`` pair says that ``probes[probe_rows[k]]`` holds
        the bytes of ``self[rows[k]]``. The rows of this column must be
        distinct. The probes are searched in ascending hash order, so the
        searches stay in cache, and bytes are compared only where the hashes
        match.
        """
        sorted_hashes, order = index
        probe_hashes, probe_order = probe_index
        for start in range(0, len(probes), JOIN_BLOCK):
            block = probe_hashes[start : start + JOIN_BLOCK]
            rows = probe_order[start : start + JOIN_BLOCK]
            lo = np.searchsorted(sorted_hashes, block, side="left")
            hi = np.searchsorted(sorted_hashes, block, side="right")
            single = np.flatnonzero(hi - lo == 1)
            found, candidates = rows[single], order[lo[single]]
            same = _same_rows(probes, found, self, candidates)
            yield found[same], candidates[same]
            # Probes whose hash is shared by several rows here.
            for k in np.flatnonzero(hi - lo > 1).tolist():
                probe = probes[rows[k]]
                for j in order[lo[k] : hi[k]].tolist():
                    if self[j] == probe:
                        yield rows[k : k + 1], np.array([j])
                        break


def equal_runs(same: np.ndarray) -> list[tuple[int, int]]:
    """The ``[start, stop)`` bounds of each run of equal sorted keys, given
    ``same[k]``: whether key k equals key k + 1."""
    at = np.flatnonzero(same)
    if not len(at):
        return []
    gap = np.diff(at) > 1
    starts = at[np.concatenate(([True], gap))]
    stops = at[np.concatenate((gap, [True]))] + 2
    return list(zip(starts.tolist(), stops.tolist()))


def keyed_hashes(rows: Sequence[bytes], key: int) -> np.ndarray:
    """The 8-byte blake2b of each row keyed by ``key`` mod 2**64 as 8 big-endian
    bytes, read big-endian into a ``>u8`` array.

    The digests are joined ``JOIN_BLOCK`` rows at a time into the array, so
    no digest object outlives its block.
    """
    keyed = blake2b(digest_size=8, key=(key & _MASK64).to_bytes(8, "big"))
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
        hashes[i] = int.from_bytes(blake2b(column[i], digest_size=8).digest(), "little")
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
