"""Credential-corpus ingestion and rank-frequency tables.

Raw leak files come in two shapes: one password per line, or
``user<TAB>password`` pairs. Passwords stay raw bytes throughout; leak
files mix encodings freely and any normalisation would merge passwords
that users actually typed differently. Both are read a block of lines at
a time: ``read_credentials`` keeps each user's last non-whitespace entry,
and ``stream_table`` ranks the kept passwords by descending use count with
a seeded pseudo-random tie-break so runs are reproducible.

A ranked table holds its passwords as a
:class:`~pwdist.column.PasswordColumn`: one bytes buffer and an int64
offset per row, with no Python object per password. Table files are read
into it and written from it a block of rows at a time, and ``validate``
finds duplicates by sorting 64-bit row hashes, comparing bytes only where
hashes are equal.
"""

from __future__ import annotations

import hashlib
import io
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .column import PasswordColumn, as_column
from .tsvio import escape_field, unescape_field

FORMAT_USER_TAB_PASSWORD = "user-tab-password"
FORMAT_PASSWORD_PER_LINE = "password-per-line"
CORPUS_FORMATS = (FORMAT_USER_TAB_PASSWORD, FORMAT_PASSWORD_PER_LINE)

TABLE_HEADER = b"rank\tcount\tpassword"

_MASK64 = (1 << 64) - 1

# Bytes per read when streaming a corpus or a table file. A line that
# crosses a block boundary is carried into the next block.
READ_BLOCK = 1 << 16
# Table rows formatted per write.
WRITE_BLOCK = 1 << 13


class CorpusError(Exception):
    """Unusable corpus input. ``byte_offset`` locates stream failures."""

    def __init__(self, message: str, byte_offset: int | None = None):
        super().__init__(message)
        self.byte_offset = byte_offset


@dataclass(eq=False)
class RankFrequencyTable:
    """Passwords ranked by descending use count; rank 1 is the most used.

    Two columns in rank order: ``passwords`` (a :class:`PasswordColumn`,
    built from any sequence of bytes given) and their ``counts`` (int64).
    ``total_users`` is the number of observations (sum of counts) and
    ``distinct_count`` the number of distinct passwords; the two play
    different roles downstream, so both are always available.
    """

    passwords: PasswordColumn
    counts: np.ndarray
    total_users: int
    tie_break_seed: int = 0

    def __post_init__(self):
        self.passwords = as_column(self.passwords)
        self.counts = np.asarray(self.counts, dtype=np.int64)

    @property
    def distinct_count(self) -> int:
        return len(self.passwords)

    def __eq__(self, other):
        if not isinstance(other, RankFrequencyTable):
            return NotImplemented
        return (
            self.passwords == other.passwords
            and np.array_equal(self.counts, other.counts)
            and self.total_users == other.total_users
            and self.tie_break_seed == other.tie_break_seed
        )

    def validate(self) -> None:
        counts = self.counts
        if not len(self.passwords):
            raise CorpusError("rank-frequency table is empty")
        if len(counts) != len(self.passwords):
            raise CorpusError("table columns differ in length")
        if counts.min() < 1:
            raise CorpusError("table contains a non-positive count")
        if np.any(counts[1:] > counts[:-1]):
            raise CorpusError("table counts increase with rank")
        if self.passwords.has_duplicates():
            raise CorpusError("table contains a duplicate password")
        if int(counts.sum()) != self.total_users:
            raise CorpusError("table counts do not sum to total_users")


def _tie_keys(passwords: list[bytes], seed: int) -> np.ndarray:
    """Keyed blake2b of each password, as big-endian uint64 tie-break keys.

    The digests are joined one ``WRITE_BLOCK`` at a time into the key
    array, so no digest object outlives its block.
    """
    keyed = hashlib.blake2b(digest_size=8, key=(seed & _MASK64).to_bytes(8, "big"))
    keys = np.empty(len(passwords), dtype=">u8")
    for start in range(0, len(passwords), WRITE_BLOCK):
        digests = []
        for password in passwords[start : start + WRITE_BLOCK]:
            h = keyed.copy()
            h.update(password)
            digests.append(h.digest())
        keys[start : start + len(digests)] = np.frombuffer(b"".join(digests), dtype=">u8")
    return keys


def table_from_counter(counts: Mapping[bytes, int], tie_break_seed: int = 0) -> RankFrequencyTable:
    """Rank a password -> count mapping.

    Equal counts are ordered by a keyed hash of the password, which is a
    deterministic pseudo-random permutation of each tie run: stable for a
    fixed seed regardless of input order, reshuffled by a different seed.
    Entries with equal count and equal hash are ordered by password bytes.
    """
    passwords = list(counts)
    values = np.fromiter(counts.values(), dtype=np.int64, count=len(passwords))
    return rank_passwords(passwords, values, tie_break_seed)


def rank_passwords(
    passwords: list[bytes], values: np.ndarray, tie_break_seed: int = 0
) -> RankFrequencyTable:
    """Distinct ``passwords``, ``passwords[i]`` used ``values[i]`` times, ranked as
    :func:`table_from_counter` ranks them.

    The ranked column is joined one ``WRITE_BLOCK`` of rows at a time.
    """
    if not passwords:
        raise CorpusError("cannot rank an empty corpus")
    keys = _tie_keys(passwords, tie_break_seed)
    order = np.lexsort((keys, -values))
    keys = keys[order]
    ranked_values = values[order]
    clash = np.flatnonzero((keys[1:] == keys[:-1]) & (ranked_values[1:] == ranked_values[:-1]))
    del keys
    if len(clash):
        gap = np.diff(clash) > 1
        starts = clash[np.concatenate(([True], gap))]
        stops = clash[np.concatenate((gap, [True]))] + 2
        for a, b in zip(starts.tolist(), stops.tolist()):
            order[a:b] = sorted(order[a:b].tolist(), key=passwords.__getitem__)
    ranked = chain.from_iterable(
        map(passwords.__getitem__, order[start : start + WRITE_BLOCK].tolist())
        for start in range(0, len(order), WRITE_BLOCK)
    )
    return RankFrequencyTable(
        passwords=PasswordColumn(ranked),
        counts=ranked_values,
        total_users=int(values.sum()),
        tie_break_seed=tie_break_seed,
    )


def table_from_counts(counts: Iterable[int], tie_break_seed: int = 0) -> RankFrequencyTable:
    """Build a table from bare counts with synthetic password labels."""
    counter = {b"p%08d" % i: int(c) for i, c in enumerate(counts, start=1)}
    return table_from_counter(counter, tie_break_seed)


@dataclass
class StreamStats:
    """Line accounting from a streaming ingest."""

    lines: int
    malformed: int


def _line_chunks(stream: BinaryIO) -> Iterator[bytes]:
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


def _split_lines(chunk: bytes) -> list[bytes]:
    lines = chunk.split(b"\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _strip_cr(lines: list[bytes]) -> list[bytes]:
    return [line[:-1] if line[-1:] == b"\r" else line for line in lines]


def line_blocks(stream: BinaryIO) -> Iterator[list[bytes]]:
    """The lines of ``stream`` a read block at a time, without LF and one trailing CR."""
    for chunk in _line_chunks(stream):
        yield _strip_cr(_split_lines(chunk))


def _corpus_stream(raw: bytes | BinaryIO, corpus_format: str) -> BinaryIO:
    if corpus_format not in CORPUS_FORMATS:
        raise ValueError(f"unknown corpus format {corpus_format!r}")
    return io.BytesIO(raw) if isinstance(raw, (bytes, bytearray)) else raw


def read_credentials(
    raw: bytes | BinaryIO, corpus_format: str
) -> tuple[dict[bytes, bytes], StreamStats]:
    """Each user's last usable password, keyed by the user's bytes.

    ``user-tab-password`` lines split at the first TAB (the password may
    contain further TABs); a line without a TAB is counted as malformed and
    skipped. ``password-per-line`` gives line n the synthetic user ``u<n>``,
    counting every line, blank ones included. Empty and whitespace-only
    passwords are skipped, then a user's later entry replaces an earlier
    one, so a user whose entries are all blank is left out. The entries are
    in the line order of the ones kept: an accepted line deletes its user's
    key before inserting it again.
    """
    stream = _corpus_stream(raw, corpus_format)
    per_line = corpus_format == FORMAT_PASSWORD_PER_LINE
    latest: dict[bytes, bytes] = {}
    n_lines = 0
    malformed = 0
    for lines in line_blocks(stream):
        if per_line:
            for line_no, password in enumerate(lines, start=n_lines + 1):
                if password.strip():
                    latest[b"u%d" % line_no] = password
        else:
            for line in lines:
                user, sep, password = line.partition(b"\t")
                if not sep:
                    malformed += 1
                elif password.strip():
                    latest.pop(user, None)
                    latest[user] = password
        n_lines += len(lines)
    return latest, StreamStats(lines=n_lines, malformed=malformed)


def stream_table(
    raw: bytes | BinaryIO, corpus_format: str, tie_break_seed: int = 0
) -> tuple[RankFrequencyTable, StreamStats]:
    """Read, clean and rank a corpus a block of lines at a time.

    A ``user-tab-password`` corpus is ranked from the entry per user of
    :func:`read_credentials`. A ``password-per-line`` corpus has one user
    per line, so its lines are counted as they are read, holding one
    counter cell per distinct line; that is what makes corpus-scale files
    ingestible. Both give the table of the passwords ``read_credentials``
    keeps.
    """
    if corpus_format != FORMAT_PASSWORD_PER_LINE:
        latest, stats = read_credentials(raw, corpus_format)
        counts = Counter(latest.values())
        del latest
    else:
        counts = Counter()
        n_lines = 0
        saw_cr = False
        for chunk in _line_chunks(_corpus_stream(raw, corpus_format)):
            lines = _split_lines(chunk)
            n_lines += len(lines)
            counts.update(lines)
            saw_cr = saw_cr or b"\r" in chunk
        # Lines were counted raw: fold "pw\r" into "pw", then drop blank lines.
        if saw_cr:
            with_cr = [line for line in counts if line.endswith(b"\r")]
            for line, n in [(line[:-1], counts.pop(line)) for line in with_cr]:
                counts[line] += n
        for line in [k for k in counts if not k.strip()]:
            del counts[line]
        stats = StreamStats(lines=n_lines, malformed=0)
    passwords = list(counts)
    values = np.fromiter(counts.values(), dtype=np.int64, count=len(passwords))
    # The counter's table of entries is dropped before the ranking's arrays are made.
    del counts
    return rank_passwords(passwords, values, tie_break_seed), stats


def cap_ranks(table: RankFrequencyTable, max_ranks: int) -> RankFrequencyTable:
    """Keep only the top max_ranks ranks as a self-consistent sub-table.

    total_users becomes the retained sum, so the result still satisfies
    the table invariants; use it to bound output size on corpus-scale
    inputs when only head behaviour is of interest.
    """
    if max_ranks < 1:
        raise ValueError("max_ranks must be >= 1")
    if max_ranks >= table.distinct_count:
        return table
    counts = table.counts[:max_ranks]
    return RankFrequencyTable(
        passwords=table.passwords[:max_ranks],
        counts=counts,
        total_users=int(counts.sum()),
        tie_break_seed=table.tie_break_seed,
    )


@dataclass
class CountOfCounts:
    """How many passwords were used by exactly k users, per observed k."""

    pairs: list[tuple[int, int]]

    @property
    def total_users(self) -> int:
        return sum(k * n for k, n in self.pairs)

    @property
    def distinct_count(self) -> int:
        return sum(n for _, n in self.pairs)


def count_of_counts(table: RankFrequencyTable) -> CountOfCounts:
    counts = np.sort(table.counts)
    run_start = np.ones(len(counts), dtype=bool)
    run_start[1:] = counts[1:] != counts[:-1]
    starts = np.flatnonzero(run_start)
    runs = np.diff(np.append(starts, len(counts)))
    return CountOfCounts(pairs=list(zip(counts[starts].tolist(), runs.tolist())))


def _put_decimal(out: np.ndarray, values: np.ndarray) -> None:
    """Write non-negative ``values`` as right-aligned ASCII decimals into the uint8 rows of ``out``.

    ``out`` has one row per value and at least as many columns as the
    longest value has digits; the columns left of each value are set to NUL.
    """
    rest, digit = np.divmod(values, 10)
    out[:, -1] = digit + 0x30
    for col in range(out.shape[1] - 2, -1, -1):
        live = rest > 0
        rest, digit = np.divmod(rest, 10)
        out[:, col] = np.where(live, digit + 0x30, 0)


def _decimal_fields(first_rank: int, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bytes ``rank TAB count TAB LF`` of each row, joined as uint8, and each row's length.

    Ranks run from ``first_rank`` on. Both columns go into one NUL-padded
    matrix, a row per table row; dropping the NULs joins the rows.
    """
    if len(counts) and counts.min() < 0:
        raise ValueError("table contains a negative count")
    n = len(counts)
    rank_width = len(b"%d" % (first_rank + n - 1))
    count_width = len(b"%d" % counts.max()) if n else 1
    rows = np.zeros((n, rank_width + count_width + 3), dtype=np.uint8)
    _put_decimal(rows[:, :rank_width], np.arange(first_rank, first_rank + n, dtype=np.int64))
    rows[:, rank_width] = 0x09
    _put_decimal(rows[:, rank_width + 1 : -2], counts)
    rows[:, -2:] = (0x09, 0x0A)
    kept = rows != 0
    return rows[kept], np.count_nonzero(kept, axis=1)


# A bytes.translate table that maps the bytes escape_field rewrites to 1, all others to 0.
_ESCAPED_BYTES = bytes(int(b in b"\t\n\r\\") for b in range(256))


def _rewrite_rows(
    joined: bytes, lengths: np.ndarray, rows: Iterable[int], fn: Callable[[bytes], bytes]
) -> bytes:
    """``joined``, rows of ``lengths`` end to end, with each of ``rows`` replaced by ``fn`` of it.

    ``rows`` ascend; ``lengths`` is updated in place.
    """
    ends = np.cumsum(lengths).tolist()
    pieces = []
    done = 0
    for i in rows:
        start = ends[i] - int(lengths[i])
        new = fn(joined[start : ends[i]])
        pieces += (joined[done:start], new)
        lengths[i] = len(new)
        done = ends[i]
    pieces.append(joined[done:])
    return b"".join(pieces)


def _password_bytes(passwords: PasswordColumn) -> tuple[np.ndarray, np.ndarray]:
    """``passwords`` escaped and joined, as uint8, and the escaped length of each.

    Only the passwords holding a byte to escape go through :func:`escape_field`.
    """
    lengths = passwords.lengths()
    joined = passwords.view().tobytes()
    special = np.flatnonzero(np.frombuffer(joined.translate(_ESCAPED_BYTES), dtype=np.uint8))
    if len(special):
        rows = np.searchsorted(np.cumsum(lengths), special, side="right")
        joined = _rewrite_rows(joined, lengths, dict.fromkeys(rows.tolist()), escape_field)
    return np.frombuffer(joined, dtype=np.uint8), lengths


def write_table_tsv(table: RankFrequencyTable, path) -> None:
    """Export as ``rank<TAB>count<TAB>password`` with escaped passwords.

    Each ``WRITE_BLOCK`` of rows is laid out in one uint8 buffer: numpy
    formats the rank and count columns, and the passwords' bytes are
    scattered between them.
    """
    odd = np.arange(2 * WRITE_BLOCK + 1) % 2 == 1
    with open(path, "wb") as fh:
        fh.write(TABLE_HEADER + b"\n")
        for start in range(0, table.distinct_count, WRITE_BLOCK):
            stop = start + WRITE_BLOCK
            passwords, lengths = _password_bytes(table.passwords[start:stop])
            fields, widths = _decimal_fields(start + 1, table.counts[start:stop])
            # The block alternates runs of field bytes and of password bytes. Field
            # run i is row i-1's LF and row i's "rank TAB count TAB", widths[i]
            # bytes; the first has no LF before it, and the last is the final LF.
            n = len(lengths)
            runs = np.empty(2 * n + 1, dtype=np.int64)
            runs[0:-1:2] = widths
            runs[0] -= 1
            runs[-1] = 1
            runs[1::2] = lengths
            is_password = np.repeat(odd[: 2 * n + 1], runs)
            out = np.empty(len(is_password), dtype=np.uint8)
            out[is_password] = passwords
            out[np.logical_not(is_password, out=is_password)] = fields
            fh.write(out)


_ROW_SEPARATORS = np.frombuffer(b"\t\t\n", dtype=np.uint8)
# Longest decimal field parsed from its digits; any int64 of 18 digits fits.
_MAX_DIGITS = 18


def _unescape(field: bytes) -> bytes:
    try:
        return unescape_field(field)
    except ValueError as exc:
        raise CorpusError(f"malformed table row: {exc}") from exc


def _digit_values(digits: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray | None:
    """The fields ``[start, stop)`` of a chunk as decimal numbers, or None.

    ``digits`` is the chunk's bytes minus ``0x30``, so a digit byte is its
    value and every other byte is above 9. None means some field is empty,
    is longer than ``_MAX_DIGITS`` or holds a byte that is not a digit. The
    fields are right-aligned and read one digit position per pass.
    """
    width = stop - start
    if not len(width):
        return np.zeros(0, dtype=np.int64)
    widest = int(width.max())
    if width.min() < 1 or widest > _MAX_DIGITS:
        return None
    values = np.zeros(len(width), dtype=np.int64)
    for k in range(widest, 0, -1):
        digit = digits[np.maximum(stop - k, 0)]
        digit[width < k] = 0
        if (digit > 9).any():
            return None
        values *= 10
        values += digit
    return values


def _int_values(fields: Sequence[bytes]) -> np.ndarray:
    try:
        return np.fromiter(map(int, fields), dtype=np.int64, count=len(fields))
    except (ValueError, OverflowError) as exc:
        raise CorpusError(f"malformed table row: {exc}") from exc


def _check_ranks(ranks: np.ndarray, first_rank: int, rank_field: Callable[[int], bytes]) -> None:
    out_of_sequence = np.flatnonzero(ranks != np.arange(first_rank, first_rank + len(ranks)))
    if len(out_of_sequence):
        raise CorpusError(
            f"table ranks are not consecutive at row {rank_field(int(out_of_sequence[0]))!r}"
        )


def _table_fields(chunk: bytes, first_rank: int) -> tuple[np.ndarray, bytes, np.ndarray]:
    """The counts of ``chunk``'s rows, and their unescaped passwords joined and each one's length.

    The rows must be ranked from ``first_rank`` on. A chunk of plain rows
    (each ``rank TAB count TAB password LF``, no CR, no blank line) is cut
    in numpy: its rank and count columns are read from their digits where
    each field is 1 to 18 ASCII digits, and its password bytes are taken
    out by a mask, so no ``bytes`` object is made per row. Only rows holding
    a backslash are unescaped. Any other chunk goes row by row: a trailing
    CR is stripped, blank lines are skipped, and each row splits at its
    first two TABs. A field that is not plain digits (``+3``, `` 1``,
    ``1_0``) is read by ``int()``.
    """
    if chunk.endswith(b"\n") and b"\r" not in chunk:
        raw = np.frombuffer(chunk, dtype=np.uint8)
        at = np.flatnonzero((raw == 0x09) | (raw == 0x0A))
        if len(at) % 3 == 0 and (raw[at].reshape(-1, 3) == _ROW_SEPARATORS).all():
            tab1, tab2, line_end = at[0::3], at[1::3], at[2::3]
            line_start = np.concatenate(([0], line_end[:-1] + 1))
            lengths = line_end - tab2 - 1
            # The chunk alternates runs of other bytes and of password bytes:
            # a row's "rank TAB count TAB" after the LF before it, then its password.
            runs = np.empty(2 * len(lengths) + 1, dtype=np.int64)
            runs[0:-1:2] = tab2 + 1 - line_start
            runs[2:-1:2] += 1
            runs[1::2] = lengths
            runs[-1] = 1
            is_password_run = np.zeros(len(runs), dtype=bool)
            is_password_run[1::2] = True
            in_password = np.repeat(is_password_run, runs)
            passwords = raw[in_password].tobytes()
            # Only rows holding a backslash need unescaping; find them by byte offset.
            escaped = np.searchsorted(line_end, np.flatnonzero(raw == 0x5C)).tolist()
            if escaped:
                passwords = _rewrite_rows(passwords, lengths, dict.fromkeys(escaped), _unescape)
            digits = raw - np.uint8(0x30)
            ranks = _digit_values(digits, line_start, tab1)
            counts = _digit_values(digits, tab1 + 1, tab2)
            if ranks is None or counts is None:
                fields = chunk.replace(b"\n", b"\t").split(b"\t")
                fields.pop()
                ranks = _int_values(fields[0::3]) if ranks is None else ranks
                counts = _int_values(fields[1::3]) if counts is None else counts
            _check_ranks(ranks, first_rank, lambda i: chunk[line_start[i] : tab1[i]])
            return counts, passwords, lengths
    rows = [line.split(b"\t", 2) for line in _strip_cr(_split_lines(chunk)) if line]
    bad = next((row for row in rows if len(row) != 3), None)
    if bad is not None:
        row = b"\t".join(bad)
        raise CorpusError(f"malformed table row: {row!r}")
    rank_fields = [row[0] for row in rows]
    passwords = [_unescape(row[2]) if b"\\" in row[2] else row[2] for row in rows]
    ranks = _int_values(rank_fields)
    counts = _int_values([row[1] for row in rows])
    _check_ranks(ranks, first_rank, rank_fields.__getitem__)
    lengths = np.fromiter(map(len, passwords), dtype=np.int64, count=len(passwords))
    return counts, b"".join(passwords), lengths


def read_table_tsv(path) -> RankFrequencyTable:
    """Load a table written by :func:`write_table_tsv`.

    Parses ``READ_BLOCK`` bytes of rows at a time into the password column.
    CRLF rows and blank lines are accepted, and rank and count fields are
    read as ``int()`` reads them; a malformed row, a bad escape, a rank out
    of sequence or a table that fails :meth:`RankFrequencyTable.validate`
    raises :class:`CorpusError`.
    """
    pieces: list[bytes] = []
    length_blocks: list[np.ndarray] = []
    count_blocks: list[np.ndarray] = []
    rows = 0
    with open(path, "rb") as fh:
        if fh.readline().rstrip(b"\r\n") != TABLE_HEADER:
            raise CorpusError(f"not a rank-frequency table file: {path}")
        for chunk in _line_chunks(fh):
            counts, passwords, lengths = _table_fields(chunk, rows + 1)
            rows += len(counts)
            pieces.append(passwords)
            length_blocks.append(lengths)
            count_blocks.append(counts)
    counts = np.concatenate(count_blocks) if count_blocks else np.zeros(0, dtype=np.int64)
    column = PasswordColumn.from_pieces(pieces, length_blocks)
    del pieces, length_blocks, count_blocks
    table = RankFrequencyTable(passwords=column, counts=counts, total_users=int(counts.sum()))
    table.validate()
    return table
