"""Binary TSV rows: the one codec of every row file, and the one line rule.

Passwords are arbitrary byte strings, so row files are binary and the bytes
that would break a tab-separated, newline-delimited layout are
backslash-escaped. Files are read ``READ_BLOCK`` bytes at a time, cut after
the last LF; corpora, word lists and ban files are split into lines by
:func:`chunk_lines`. :func:`write_rows` writes ``WRITE_BLOCK`` rows at a
time, in numpy with no ``bytes`` object per row: :func:`fixed_fields` and
:func:`lay_out` write a block of fields, and :func:`read_rows` takes a
three-field file apart by :func:`cut_rows` and :func:`gather`, with no step
per row for CRLF rows or blank lines either.
Only rows that hold a byte to escape, or a backslash to unescape, are
rewritten one at a time. The two error types that every stage raises for
the CLI to map to an exit code, :class:`CorpusError` and
:class:`NumericError`, are defined here.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

from .column import PasswordColumn

# Bytes per read when streaming a corpus or a row file. A line that
# crosses a block boundary is carried into the next block.
READ_BLOCK = 1 << 16
# Rows laid out per write.
WRITE_BLOCK = 1 << 13

_UNESCAPES = {b"\\": b"\\", b"t": b"\t", b"n": b"\n", b"r": b"\r"}
# A backslash and the byte after it, or the end of the field for a dangling one.
_ESCAPE = re.compile(rb"\\(.?)", re.DOTALL)
# A bytes.translate table that maps the bytes escape_field rewrites to 1, all others to 0.
_ESCAPED_BYTES = bytes(int(b in b"\t\n\r\\") for b in range(256))


class CorpusError(Exception):
    """Unusable corpus input. ``byte_offset`` locates stream failures."""

    def __init__(self, message: str, byte_offset: int | None = None):
        super().__init__(message)
        self.byte_offset = byte_offset


class NumericError(Exception):
    """A computation on valid input that has no result, such as a fit that finds no maximum."""


def escape_field(raw: bytes) -> bytes:
    """Escape backslash, TAB, LF and CR so ``raw`` survives a TSV cell.

    Backslash goes first, so the escapes added after it stay single.
    """
    return (
        raw.replace(b"\\", b"\\\\")
        .replace(b"\t", b"\\t")
        .replace(b"\n", b"\\n")
        .replace(b"\r", b"\\r")
    )


def unescape_field(raw: bytes) -> bytes:
    """Inverse of :func:`escape_field`; the first bad escape raises ``ValueError``."""
    if b"\\" not in raw:
        return raw
    try:
        return _ESCAPE.sub(lambda m: _UNESCAPES[m[1]], raw)
    except KeyError as exc:
        follower = exc.args[0]
        if not follower:
            raise ValueError("dangling backslash escape in TSV field") from None
        raise ValueError(f"unknown TSV escape: \\{chr(follower[0])}") from None


def line_chunks(stream: BinaryIO) -> Iterator[bytes]:
    """``READ_BLOCK``-byte reads of ``stream``, each cut after its last LF.

    The bytes after a cut are carried and joined once, when an LF arrives, so
    each chunk but the last ends in an LF and costs time linear in its length.
    """
    carried: list[bytes] = []
    offset = 0
    while True:
        try:
            block = stream.read(READ_BLOCK)
        except OSError as exc:
            raise CorpusError(f"unreadable corpus stream: {exc}", byte_offset=offset) from exc
        if not block:
            break
        offset += len(block)
        cut = block.rfind(b"\n") + 1
        if not cut:
            carried.append(block)
            continue
        yield b"".join([*carried, block[:cut]])
        carried = [block[cut:]]
    if any(carried):
        yield b"".join(carried)


def chunk_lines(chunk: bytes) -> list[bytes]:
    """The lines of a chunk, without LF and one trailing CR: the line rule of
    corpora, word lists and ban files, applied in C but for a last line's CR."""
    lines = chunk.replace(b"\r\n", b"\n").split(b"\n")
    last = lines.pop()
    if last:
        lines.append(last[:-1] if last[-1:] == b"\r" else last)
    return lines


def _rewrite_rows(
    joined: bytes, lengths: np.ndarray, marks: np.ndarray, fn: Callable[[bytes], bytes]
) -> bytes:
    """``joined``, rows of ``lengths`` end to end, with each row that holds a byte
    offset of ``marks`` replaced by ``fn`` of it.

    ``marks`` ascend; ``lengths`` is updated in place.
    """
    if not len(marks):
        return joined
    ends = np.cumsum(lengths)
    rows = np.searchsorted(ends, marks, side="right")
    ends = ends.tolist()
    pieces = []
    done = 0
    for i in dict.fromkeys(rows.tolist()):
        start = ends[i] - int(lengths[i])
        new = fn(joined[start : ends[i]])
        pieces += (joined[done:start], new)
        lengths[i] = len(new)
        done = ends[i]
    pieces.append(joined[done:])
    return b"".join(pieces)


def escaped(column) -> tuple[np.ndarray, np.ndarray]:
    """A :class:`~pwdist.column.PasswordColumn`'s rows escaped and joined, as uint8,
    and each one's escaped length; only rows holding a byte to escape go
    through :func:`escape_field`."""
    lengths = column.lengths()
    joined = column.view().tobytes()
    special = np.flatnonzero(np.frombuffer(joined.translate(_ESCAPED_BYTES), dtype=np.uint8))
    return np.frombuffer(_rewrite_rows(joined, lengths, special, escape_field), dtype=np.uint8), lengths


def put_decimal(out: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Write non-negative ``values`` as right-aligned ASCII decimals into the uint8 rows of
    ``out``, and return each one's number of digits.

    ``out`` has one row per value and at least as many columns as the
    longest value has digits; the columns left of each value are set to NUL.
    """
    rest, digit = np.divmod(values, 10)
    out[:, -1] = digit + 0x30
    digits = np.ones(len(values), dtype=np.int64)
    for col in range(out.shape[1] - 2, -1, -1):
        live = rest > 0
        digits += live
        rest, digit = np.divmod(rest, 10)
        out[:, col] = np.where(live, digit + 0x30, 0)
    return digits


def fixed_fields(fields: Sequence[np.ndarray | int]) -> tuple[np.ndarray, np.ndarray]:
    """Rows of fields in one NUL-padded uint8 matrix, packed: the rows without
    their NULs, joined, and each one's length. A field is a column of integers
    >= 0, written by :func:`put_decimal` as wide as the largest; a uint8 matrix
    of NUL-padded text; or one byte (a TAB, an LF) that every row holds."""
    n = next(len(field) for field in fields if not isinstance(field, int))
    fields = [np.full((n, 1), field, dtype=np.uint8) if isinstance(field, int) else field for field in fields]
    widths = [field.shape[1] if field.ndim == 2 else len(b"%d" % field.max(initial=0)) for field in fields]
    rows = np.empty((n, sum(widths)), dtype=np.uint8)
    lengths = np.zeros(n, dtype=np.int64)
    for field, part in zip(fields, np.split(rows, np.cumsum(widths)[:-1], axis=1)):
        if field.ndim == 2:
            part[:] = field
            # Text with NULs is counted down a transposed copy: numpy counts along a short row slowly.
            full = field.all()
            lengths += field.shape[1] if full else np.count_nonzero(np.ascontiguousarray(field.T), axis=0)
        else:
            if field.min(initial=0) < 0:
                raise ValueError("a decimal field holds a negative value")
            lengths += put_decimal(part, field)
    return rows[rows != 0], lengths


def write_rows(path, header: bytes, n_rows: int, block: Callable[[slice], np.ndarray]) -> None:
    """Write a row file: ``header`` and an LF, then the bytes ``block`` lays out
    for each slice of ``WRITE_BLOCK`` of the ``n_rows`` rows, in turn."""
    with open(path, "wb") as fh:
        fh.write(header + b"\n")
        for start in range(0, n_rows, WRITE_BLOCK):
            fh.write(block(slice(start, min(start + WRITE_BLOCK, n_rows))))


def lay_out(fields: Sequence[tuple[np.ndarray, np.ndarray] | int]) -> np.ndarray:
    """Rows laid end to end as uint8: row i is piece i of each field in turn.

    A field is its pieces' bytes joined, as uint8, and each piece's length,
    or one byte (a TAB, an LF) that every row holds once; one field at least
    is of the first kind. One ``repeat`` marks every byte with its field. A
    one-byte field's mark is its byte, so the marking lays it out; each other
    field's bytes go in by a mask of a mark no one-byte field uses.
    """
    singles = {field for field in fields if isinstance(field, int)}
    free = (mark for mark in range(256) if mark not in singles)
    marks = [field if isinstance(field, int) else next(free) for field in fields]
    n = next(len(field[1]) for field in fields if not isinstance(field, int))
    runs = np.column_stack([np.ones(n, np.int64) if isinstance(f, int) else f[1] for f in fields])
    out = np.repeat(np.tile(np.array(marks, dtype=np.uint8), n), runs.ravel())
    # Every mask is taken before any field's bytes overwrite the marks.
    masks = [(out == mark, field[0]) for mark, field in zip(marks, fields) if not isinstance(field, int)]
    for mask, data in masks:
        out[mask] = data
    return out


def cut_rows(raw: np.ndarray, separators: bytes) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """The ``(start, stop)`` offsets in ``raw`` of each field of every row, or None
    unless ``raw`` is plain rows: each row its fields, each field followed by
    its separator (``b"\\t\\t\\n"`` for three), and no other TAB or LF.
    """
    width = len(separators)
    at = np.flatnonzero((raw == 0x09) | (raw == 0x0A))
    if len(at) % width or (len(raw) and raw[-1] != 0x0A):
        return None
    if not (raw[at].reshape(-1, width) == np.frombuffer(separators, dtype=np.uint8)).all():
        return None
    # A field starts just past the separator before it.
    starts = np.concatenate(([0], at + 1))[:-1]
    return list(zip(*(np.ascontiguousarray(bounds.reshape(-1, width).T) for bounds in (starts, at))))


def gather(raw: np.ndarray, start: np.ndarray, stop: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The field ``[start, stop)`` of every row of ``raw``, unescaped and joined, and each one's length.

    The field's bytes are taken out by one mask of the runs between the
    bounds. Only rows that hold a backslash go through
    :func:`unescape_field`, whose ``ValueError`` a bad escape raises.
    """
    lengths = stop - start
    # Runs of other bytes and of field bytes in turn: before row 0's field, row 0's field, ...
    runs = np.empty(2 * len(start) + 1, dtype=np.int64)
    runs[0:-1:2] = start
    runs[2:-1:2] -= stop[:-1]
    runs[1::2] = lengths
    runs[-1] = len(raw) - (stop[-1] if len(stop) else 0)
    in_field = np.zeros(len(runs), dtype=bool)
    in_field[1::2] = True
    joined = raw[np.repeat(in_field, runs)].tobytes()
    marks = np.flatnonzero(np.frombuffer(joined, dtype=np.uint8) == 0x5C)
    return _rewrite_rows(joined, lengths, marks, unescape_field), lengths


def _normalised(raw: np.ndarray) -> np.ndarray:
    """A chunk's rows by :func:`chunk_lines`' rules, as uint8 with an LF after each:
    an LF is added at the end if there is none, a CR just before an LF is
    dropped, and so is an LF that starts a line, a blank line's."""
    if len(raw) and raw[-1] != 0x0A:
        raw = np.append(raw, np.uint8(0x0A))
    lf = raw == 0x0A
    cr = np.zeros(len(raw), dtype=bool)
    cr[:-1] = (raw[:-1] == 0x0D) & lf[1:]
    raw, lf = raw[~cr], lf[~cr]
    blank = lf.copy()
    blank[1:] &= lf[:-1]
    return raw[~blank]


def read_rows(
    path, header: bytes, kind: str, text: int, decode: Callable[..., tuple[np.ndarray, ...]]
) -> tuple[PasswordColumn, list[np.ndarray]]:
    """A file of ``header`` then rows of three TAB-separated fields, read a
    block of rows at a time: field ``text`` of every row unescaped, as a
    column, and each array ``decode`` returns, joined over the blocks.

    Lines are taken by :func:`chunk_lines`' rules with no step per row. A
    block is cut by :func:`cut_rows`, and a CR just before an LF is cut off
    the last field of its row. A block that does not cut (blank lines, no
    final LF) is normalised in numpy and cut again.
    ``decode(raw, fields, first_row)`` gets a block's bytes, its fields'
    bounds from :func:`cut_rows` and the number of rows before it. A wrong
    header, a row without three fields, a bad escape, or a ``ValueError``
    from ``decode`` raises :class:`CorpusError` that names ``kind``.
    """
    pieces: list[bytes] = []
    lengths: list[np.ndarray] = []
    blocks: list[tuple[np.ndarray, ...]] = []
    rows = 0
    with open(path, "rb") as fh:
        if fh.readline().rstrip(b"\r\n") != header:
            raise CorpusError(f"not a {kind} file: {path}")
        # An empty block first gives each joined array its dtype in a file of no rows.
        for chunk in chain([b""], line_chunks(fh)):
            raw = np.frombuffer(chunk, dtype=np.uint8)
            fields = cut_rows(raw, b"\t\t\n")
            if fields is None:
                raw = _normalised(raw)
                fields = cut_rows(raw, b"\t\t\n")
                if fields is None:
                    bad = next(line for line in raw.tobytes().split(b"\n") if line.count(b"\t") != 2)
                    raise CorpusError(f"malformed {kind} row: {bad!r}")
            elif b"\r" in chunk:
                # The CR of a CRLF row is the last byte of its last field.
                stop = fields[-1][1]
                stop -= raw[stop - 1] == 0x0D
            try:
                joined, length = gather(raw, *fields[text])
                blocks.append(decode(raw, fields, rows))
            except ValueError as exc:
                raise CorpusError(f"malformed {kind} row: {exc}") from exc
            pieces.append(joined)
            lengths.append(length)
            rows += len(length)
    # Joining the decoded blocks and freeing them before the column is built lowers the peak.
    arrays = [np.concatenate(parts) for parts in zip(*blocks)]
    del blocks
    return PasswordColumn.from_pieces(pieces, lengths), arrays
