"""Credential-corpus ingestion and rank-frequency tables.

Raw leak files come in two shapes: one password per line, or
``user<TAB>password`` pairs. Passwords stay raw bytes throughout; leak
files mix encodings freely and any normalisation would merge passwords
that users actually typed differently. Both are read a block of lines at
a time: ``read_credentials`` keeps each user's last non-whitespace entry,
and ``stream_table`` ranks the kept passwords by descending use count with
a seeded pseudo-random tie-break so runs are reproducible.
"""

from __future__ import annotations

import hashlib
import io
from collections import Counter
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

import numpy as np

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

    Two columns in rank order: ``passwords`` and their ``counts`` (int64).
    ``total_users`` is the number of observations (sum of counts) and
    ``distinct_count`` the number of distinct passwords; the two play
    different roles downstream, so both are always available.
    """

    passwords: list[bytes]
    counts: np.ndarray
    total_users: int
    tie_break_seed: int = 0

    def __post_init__(self):
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
        if not self.passwords:
            raise CorpusError("rank-frequency table is empty")
        if len(counts) != len(self.passwords):
            raise CorpusError("table columns differ in length")
        if counts.min() < 1:
            raise CorpusError("table contains a non-positive count")
        if np.any(counts[1:] > counts[:-1]):
            raise CorpusError("table counts increase with rank")
        if len(set(self.passwords)) != len(self.passwords):
            raise CorpusError("table contains a duplicate password")
        if int(counts.sum()) != self.total_users:
            raise CorpusError("table counts do not sum to total_users")


def _tie_keys(passwords: list[bytes], seed: int) -> np.ndarray:
    """Keyed blake2b of each password, as big-endian uint64 tie-break keys."""
    keyed = hashlib.blake2b(digest_size=8, key=(seed & _MASK64).to_bytes(8, "big"))

    def digest(password: bytes) -> bytes:
        h = keyed.copy()
        h.update(password)
        return h.digest()

    return np.frombuffer(b"".join(map(digest, passwords)), dtype=">u8")


def table_from_counter(counts: Mapping[bytes, int], tie_break_seed: int = 0) -> RankFrequencyTable:
    """Rank a password -> count mapping.

    Equal counts are ordered by a keyed hash of the password, which is a
    deterministic pseudo-random permutation of each tie run: stable for a
    fixed seed regardless of input order, reshuffled by a different seed.
    Entries with equal count and equal hash are ordered by password bytes.
    """
    if not counts:
        raise CorpusError("cannot rank an empty corpus")
    passwords = list(counts)
    values = np.fromiter(counts.values(), dtype=np.int64, count=len(passwords))
    keys = _tie_keys(passwords, tie_break_seed)
    order = np.lexsort((keys, -values))
    ranked_keys = keys[order]
    ranked_values = values[order]
    clash = np.flatnonzero(
        (ranked_keys[1:] == ranked_keys[:-1]) & (ranked_values[1:] == ranked_values[:-1])
    )
    if len(clash):
        gap = np.diff(clash) > 1
        starts = clash[np.concatenate(([True], gap))]
        stops = clash[np.concatenate((gap, [True]))] + 2
        for a, b in zip(starts.tolist(), stops.tolist()):
            order[a:b] = sorted(order[a:b].tolist(), key=passwords.__getitem__)
    return RankFrequencyTable(
        passwords=[passwords[i] for i in order.tolist()],
        counts=values[order],
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
        return table_from_counter(Counter(latest.values()), tie_break_seed), stats
    counts: Counter[bytes] = Counter()
    n_lines = 0
    for chunk in _line_chunks(_corpus_stream(raw, corpus_format)):
        lines = _split_lines(chunk)
        n_lines += len(lines)
        counts.update(lines)
    # Lines were counted raw: fold "pw\r" into "pw", then drop blank lines.
    with_cr = [line for line in counts if line.endswith(b"\r")]
    for line, n in [(line[:-1], counts.pop(line)) for line in with_cr]:
        counts[line] += n
    for line in [k for k in counts if not k.strip()]:
        del counts[line]
    return table_from_counter(counts, tie_break_seed), StreamStats(lines=n_lines, malformed=0)


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


def write_table_tsv(table: RankFrequencyTable, path) -> None:
    """Export as ``rank<TAB>count<TAB>password`` with escaped passwords."""
    with open(path, "wb") as fh:
        fh.write(TABLE_HEADER + b"\n")
        for start in range(0, table.distinct_count, WRITE_BLOCK):
            stop = start + WRITE_BLOCK
            rows = zip(
                range(start + 1, stop + 1),
                table.counts[start:stop].tolist(),
                map(escape_field, table.passwords[start:stop]),
            )
            fh.write(b"".join([b"%d\t%d\t%s\n" % row for row in rows]))


_ROW_SEPARATORS = np.frombuffer(b"\t\t\n", dtype=np.uint8)


def _unescape(field: bytes) -> bytes:
    try:
        return unescape_field(field)
    except ValueError as exc:
        raise CorpusError(f"malformed table row: {exc}") from exc


def _table_fields(chunk: bytes) -> tuple[Sequence[bytes], Sequence[bytes], list[bytes]]:
    """The rank and count fields and the unescaped passwords of ``chunk``'s rows.

    A chunk of plain rows (each ``rank TAB count TAB password LF``, no CR,
    no blank line) is cut with one split. Any other chunk goes row by row:
    a trailing CR is stripped, blank lines are skipped, and each row splits
    at its first two TABs.
    """
    if chunk.endswith(b"\n") and b"\r" not in chunk:
        raw = np.frombuffer(chunk, dtype=np.uint8)
        at = np.flatnonzero((raw == 0x09) | (raw == 0x0A))
        if len(at) % 3 == 0 and (raw[at].reshape(-1, 3) == _ROW_SEPARATORS).all():
            fields = chunk.replace(b"\n", b"\t").split(b"\t")
            fields.pop()
            passwords = fields[2::3]
            # Only rows holding a backslash need unescaping; find them by byte offset.
            escaped = np.searchsorted(at[2::3], np.flatnonzero(raw == 0x5C)).tolist()
            for i in dict.fromkeys(escaped):
                passwords[i] = _unescape(passwords[i])
            return fields[0::3], fields[1::3], passwords
    rows = [line.split(b"\t", 2) for line in _strip_cr(_split_lines(chunk)) if line]
    bad = next((row for row in rows if len(row) != 3), None)
    if bad is not None:
        row = b"\t".join(bad)
        raise CorpusError(f"malformed table row: {row!r}")
    ranks = [row[0] for row in rows]
    counts = [row[1] for row in rows]
    return ranks, counts, [_unescape(row[2]) if b"\\" in row[2] else row[2] for row in rows]


def read_table_tsv(path) -> RankFrequencyTable:
    """Load a table written by :func:`write_table_tsv`.

    Parses ``READ_BLOCK`` bytes of rows at a time. CRLF rows and blank
    lines are accepted; a malformed row, a bad escape, a rank out of
    sequence or a table that fails :meth:`RankFrequencyTable.validate`
    raises :class:`CorpusError`.
    """
    passwords: list[bytes] = []
    count_blocks: list[np.ndarray] = []
    with open(path, "rb") as fh:
        if fh.readline().rstrip(b"\r\n") != TABLE_HEADER:
            raise CorpusError(f"not a rank-frequency table file: {path}")
        for chunk in _line_chunks(fh):
            ranks, counts, fields = _table_fields(chunk)
            n = len(ranks)
            first_rank = len(passwords) + 1
            try:
                rank_arr = np.fromiter(map(int, ranks), dtype=np.int64, count=n)
                count_arr = np.fromiter(map(int, counts), dtype=np.int64, count=n)
            except (ValueError, OverflowError) as exc:
                raise CorpusError(f"malformed table row: {exc}") from exc
            out_of_sequence = np.flatnonzero(rank_arr != np.arange(first_rank, first_rank + n))
            if len(out_of_sequence):
                raise CorpusError(
                    f"table ranks are not consecutive at row {ranks[out_of_sequence[0]]!r}"
                )
            passwords += fields
            count_blocks.append(count_arr)
    counts = np.concatenate(count_blocks) if count_blocks else np.zeros(0, dtype=np.int64)
    table = RankFrequencyTable(passwords=passwords, counts=counts, total_users=int(counts.sum()))
    table.validate()
    return table
