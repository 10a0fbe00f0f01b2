"""Credential-corpus ingestion and rank-frequency tables.

Raw leak files come in two shapes: one password per line, or
``user<TAB>password`` pairs. Passwords stay raw bytes throughout; leak
files mix encodings freely and any normalisation would merge passwords
that users actually typed differently. Cleanup keeps each user's last
non-whitespace entry, and ``build_table`` ranks passwords by descending
use count with a seeded pseudo-random tie-break so runs are reproducible.
"""

from __future__ import annotations

import hashlib
import io
from collections import Counter
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Mapping, Sequence

import numpy as np

from .tsvio import escape_field, unescape_field

FORMAT_USER_TAB_PASSWORD = "user-tab-password"
FORMAT_PASSWORD_PER_LINE = "password-per-line"
CORPUS_FORMATS = (FORMAT_USER_TAB_PASSWORD, FORMAT_PASSWORD_PER_LINE)

TABLE_HEADER = b"rank\tcount\tpassword"

_MASK64 = (1 << 64) - 1


class CorpusError(Exception):
    """Unusable corpus input. ``byte_offset`` locates stream failures."""

    def __init__(self, message: str, byte_offset: int | None = None):
        super().__init__(message)
        self.byte_offset = byte_offset


@dataclass(frozen=True)
class CredentialRecord:
    user: str
    password: bytes
    line_no: int


@dataclass
class ParseResult:
    """Accepted records plus the number of malformed lines skipped."""

    records: list[CredentialRecord]
    malformed: int


def parse_corpus(raw: bytes | BinaryIO, corpus_format: str) -> ParseResult:
    """Parse a newline-delimited credential stream.

    ``user-tab-password`` lines split at the first TAB (the password may
    contain further TABs); lines without a TAB are counted as malformed
    and skipped. ``password-per-line`` assigns synthetic users ``u<line>``.
    A trailing CR is stripped from every line.
    """
    if corpus_format not in CORPUS_FORMATS:
        raise ValueError(f"unknown corpus format {corpus_format!r}")
    stream = io.BytesIO(raw) if isinstance(raw, (bytes, bytearray)) else raw
    records: list[CredentialRecord] = []
    malformed = 0
    offset = 0
    line_no = 0
    while True:
        try:
            line = stream.readline()
        except OSError as exc:
            raise CorpusError(f"unreadable corpus stream: {exc}", byte_offset=offset) from exc
        if not line:
            break
        offset += len(line)
        line_no += 1
        if line.endswith(b"\n"):
            line = line[:-1]
        if line.endswith(b"\r"):
            line = line[:-1]
        if corpus_format == FORMAT_USER_TAB_PASSWORD:
            sep = line.find(b"\t")
            if sep < 0:
                malformed += 1
                continue
            user = line[:sep].decode("latin-1")
            password = line[sep + 1 :]
        else:
            user = f"u{line_no}"
            password = line
        records.append(CredentialRecord(user=user, password=password, line_no=line_no))
    return ParseResult(records=records, malformed=malformed)


def cleanup(records: Iterable[CredentialRecord]) -> list[CredentialRecord]:
    """Keep each user's last usable entry.

    Empty and whitespace-only passwords are dropped first, then the entry
    with the highest line number wins per user; a user whose entries were
    all whitespace disappears entirely. Output is ordered by line number.
    """
    latest: dict[str, CredentialRecord] = {}
    for rec in records:
        if not rec.password.strip():
            continue
        prev = latest.get(rec.user)
        if prev is None or rec.line_no >= prev.line_no:
            latest[rec.user] = rec
    return sorted(latest.values(), key=lambda rec: rec.line_no)


@dataclass
class RankFrequencyTable:
    """Passwords ranked by descending use count; rank 1 is the most used.

    ``total_users`` is the number of observations (sum of counts) and
    ``distinct_count`` the number of distinct passwords; the two play
    different roles downstream, so both are always available.
    """

    entries: list[tuple[bytes, int]]
    total_users: int
    tie_break_seed: int = 0

    @property
    def distinct_count(self) -> int:
        return len(self.entries)

    def counts(self) -> np.ndarray:
        """Counts in rank order as an int64 array."""
        return np.fromiter((c for _, c in self.entries), dtype=np.int64, count=len(self.entries))

    def passwords(self) -> list[bytes]:
        return [p for p, _ in self.entries]

    def validate(self) -> None:
        if not self.entries:
            raise CorpusError("rank-frequency table is empty")
        prev = None
        seen: set[bytes] = set()
        total = 0
        for pw, count in self.entries:
            if count < 1:
                raise CorpusError("table contains a non-positive count")
            if prev is not None and count > prev:
                raise CorpusError("table counts increase with rank")
            if pw in seen:
                raise CorpusError("table contains a duplicate password")
            seen.add(pw)
            prev = count
            total += count
        if total != self.total_users:
            raise CorpusError("table counts do not sum to total_users")


def _tie_key(password: bytes, seed: int) -> bytes:
    return hashlib.blake2b(
        password, digest_size=8, key=(seed & _MASK64).to_bytes(8, "big")
    ).digest()


def table_from_counter(counts: Mapping[bytes, int], tie_break_seed: int = 0) -> RankFrequencyTable:
    """Rank a password -> count mapping.

    Equal counts are ordered by a keyed hash of the password, which is a
    deterministic pseudo-random permutation of each tie run: stable for a
    fixed seed regardless of input order, reshuffled by a different seed.
    """
    if not counts:
        raise CorpusError("cannot rank an empty corpus")
    entries = sorted(
        counts.items(),
        key=lambda kv: (-kv[1], _tie_key(kv[0], tie_break_seed), kv[0]),
    )
    return RankFrequencyTable(
        entries=entries,
        total_users=sum(counts.values()),
        tie_break_seed=tie_break_seed,
    )


def build_table(records: Sequence[CredentialRecord], tie_break_seed: int = 0) -> RankFrequencyTable:
    """Group cleaned records by password and rank them."""
    if not records:
        raise CorpusError("cannot rank an empty corpus")
    return table_from_counter(Counter(rec.password for rec in records), tie_break_seed)


def table_from_counts(counts: Iterable[int], tie_break_seed: int = 0) -> RankFrequencyTable:
    """Build a table from bare counts with synthetic password labels."""
    counter = {b"p%08d" % i: int(c) for i, c in enumerate(counts, start=1)}
    return table_from_counter(counter, tie_break_seed)


@dataclass
class StreamStats:
    """Line accounting from a streaming ingest."""

    lines: int
    malformed: int
    users: int


def stream_table(
    raw: bytes | BinaryIO, corpus_format: str, tie_break_seed: int = 0
) -> tuple[RankFrequencyTable, StreamStats]:
    """Parse, clean and rank in one pass without materialising records.

    Equivalent to ``build_table(cleanup(parse_corpus(...).records))`` but
    holds only per-user latest entries (one counter cell per distinct
    password for password-per-line input), which is what makes corpus-scale
    files ingestible.
    """
    if corpus_format not in CORPUS_FORMATS:
        raise ValueError(f"unknown corpus format {corpus_format!r}")
    stream = io.BytesIO(raw) if isinstance(raw, (bytes, bytearray)) else raw
    per_line = corpus_format == FORMAT_PASSWORD_PER_LINE
    counts: Counter[bytes] = Counter()
    latest: dict[str, bytes] = {}
    offset = 0
    line_no = 0
    malformed = 0
    while True:
        try:
            line = stream.readline()
        except OSError as exc:
            raise CorpusError(f"unreadable corpus stream: {exc}", byte_offset=offset) from exc
        if not line:
            break
        offset += len(line)
        line_no += 1
        if line.endswith(b"\n"):
            line = line[:-1]
        if line.endswith(b"\r"):
            line = line[:-1]
        if per_line:
            if line.strip():
                counts[line] += 1
        else:
            sep = line.find(b"\t")
            if sep < 0:
                malformed += 1
                continue
            password = line[sep + 1 :]
            if password.strip():
                latest[line[:sep].decode("latin-1")] = password
    if not per_line:
        counts = Counter(latest.values())
    table = table_from_counter(counts, tie_break_seed)
    return table, StreamStats(lines=line_no, malformed=malformed, users=table.total_users)


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
    kept = table.entries[:max_ranks]
    return RankFrequencyTable(
        entries=kept,
        total_users=sum(c for _, c in kept),
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
    multiplicity = Counter(count for _, count in table.entries)
    return CountOfCounts(pairs=sorted(multiplicity.items()))


def write_table_tsv(table: RankFrequencyTable, path) -> None:
    """Export as ``rank<TAB>count<TAB>password`` with escaped passwords."""
    with open(path, "wb") as fh:
        fh.write(TABLE_HEADER + b"\n")
        for rank, (pw, count) in enumerate(table.entries, start=1):
            fh.write(b"%d\t%d\t%s\n" % (rank, count, escape_field(pw)))


def read_table_tsv(path) -> RankFrequencyTable:
    """Load a table written by :func:`write_table_tsv`."""
    entries: list[tuple[bytes, int]] = []
    with open(path, "rb") as fh:
        header = fh.readline().rstrip(b"\r\n")
        if header != TABLE_HEADER:
            raise CorpusError(f"not a rank-frequency table file: {path}")
        for raw in fh:
            line = raw.rstrip(b"\n")
            if line.endswith(b"\r"):
                line = line[:-1]
            if not line:
                continue
            parts = line.split(b"\t", 2)
            if len(parts) != 3:
                raise CorpusError(f"malformed table row: {line!r}")
            rank, count, pw = parts
            try:
                if int(rank) != len(entries) + 1:
                    raise CorpusError(f"table ranks are not consecutive at row {rank!r}")
                entries.append((unescape_field(pw), int(count)))
            except ValueError as exc:
                raise CorpusError(f"malformed table row {line!r}: {exc}") from exc
    table = RankFrequencyTable(entries=entries, total_users=sum(c for _, c in entries))
    table.validate()
    return table
