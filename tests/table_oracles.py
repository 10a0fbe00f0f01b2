"""Row-at-a-time reference implementations of the table layer.

These are the straightforward loops that the block-wise, columnar code in
``pwdist.ingest``, ``pwdist.tsvio`` and ``pwdist.crossguess`` must match
exactly: the same accepted inputs, the same rejections, the same order and
the same bytes.
"""

from __future__ import annotations

import hashlib
import io
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Sequence

from pwdist.ingest import (
    CORPUS_FORMATS,
    FORMAT_USER_TAB_PASSWORD,
    TABLE_HEADER,
    CorpusError,
    RankFrequencyTable,
    table_from_counter,
)

_MASK64 = (1 << 64) - 1
_ESCAPES = {0x5C: b"\\\\", 0x09: b"\\t", 0x0A: b"\\n", 0x0D: b"\\r"}
_UNESCAPES = {0x5C: b"\\", 0x74: b"\t", 0x6E: b"\n", 0x72: b"\r"}


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
    """Parse a newline-delimited credential stream a line at a time.

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


def build_table(records: Sequence[CredentialRecord], tie_break_seed: int = 0) -> RankFrequencyTable:
    """Group cleaned records by password and rank them."""
    if not records:
        raise CorpusError("cannot rank an empty corpus")
    return table_from_counter(Counter(rec.password for rec in records), tie_break_seed)


def tie_key(password: bytes, seed: int) -> bytes:
    return hashlib.blake2b(
        password, digest_size=8, key=(seed & _MASK64).to_bytes(8, "big")
    ).digest()


def rank_rows(counts: dict[bytes, int], seed: int = 0, key=tie_key) -> list[tuple[bytes, int]]:
    """(password, count) rows sorted by (-count, tie key, password)."""
    return sorted(counts.items(), key=lambda kv: (-kv[1], key(kv[0], seed), kv[0]))


def escape_field(raw: bytes) -> bytes:
    out = bytearray()
    for b in raw:
        esc = _ESCAPES.get(b)
        if esc is None:
            out.append(b)
        else:
            out += esc
    return bytes(out)


def unescape_field(raw: bytes) -> bytes:
    """Undo ``escape_field`` a byte at a time; the first bad escape raises ValueError."""
    out = bytearray()
    i = 0
    while i < len(raw):
        b = raw[i]
        if b != 0x5C:
            out.append(b)
            i += 1
            continue
        if i + 1 >= len(raw):
            raise ValueError("dangling backslash escape in TSV field")
        rep = _UNESCAPES.get(raw[i + 1])
        if rep is None:
            raise ValueError(f"unknown TSV escape: \\{chr(raw[i + 1])}")
        out += rep
        i += 2
    return bytes(out)


def write_table(rows: list[tuple[bytes, int]], path) -> None:
    with open(path, "wb") as fh:
        fh.write(TABLE_HEADER + b"\n")
        for rank, (pw, count) in enumerate(rows, start=1):
            fh.write(b"%d\t%d\t%s\n" % (rank, count, escape_field(pw)))


def read_table(path) -> list[tuple[bytes, int]]:
    """Parse and validate a table file row by row; raises CorpusError.

    A row is exactly three TAB-separated fields, and rank and count are 1 to
    19 ASCII digits worth at most 2**63 - 1. A trailing CR is stripped and
    blank lines are skipped.
    """
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
            parts = line.split(b"\t")
            if len(parts) != 3:
                raise CorpusError(f"malformed table row: {line!r}")
            rank, count, pw = parts
            for field in (rank, count):
                if not (field.isdigit() and len(field) <= 19 and int(field) < 1 << 63):
                    raise CorpusError(f"malformed table row {line!r}: {field!r} is not a plain decimal")
            if int(rank) != len(entries) + 1:
                raise CorpusError(f"table ranks are not consecutive at row {rank!r}")
            try:
                entries.append((unescape_field(pw), int(count)))
            except ValueError as exc:
                raise CorpusError(f"malformed table row {line!r}: {exc}") from exc
    if not entries:
        raise CorpusError("rank-frequency table is empty")
    prev = None
    seen: set[bytes] = set()
    for pw, count in entries:
        if count < 1:
            raise CorpusError("table contains a non-positive count")
        if prev is not None and count > prev:
            raise CorpusError("table counts increase with rank")
        if pw in seen:
            raise CorpusError("table contains a duplicate password")
        seen.add(pw)
        prev = count
    return entries


def chunk_lines(chunk: bytes) -> list[bytes]:
    """The lines of a chunk, a line at a time: split at LF, the empty piece after
    a final LF dropped, and one trailing CR cut from each line."""
    lines = chunk.split(b"\n")
    if not lines[-1]:
        lines.pop()
    return [line[:-1] if line[-1:] == b"\r" else line for line in lines]


def cumulative_counts(increments: Iterable[int]) -> list[int]:
    """The cumulative count after each guess, by a running sum."""
    counts: list[int] = []
    cum = 0
    for inc in increments:
        cum += inc
        counts.append(cum)
    return counts


def write_curve(points: list[tuple[int, int]], denom: int, path, ts) -> None:
    """Curve rows at each t of ``ts``, looking up each one with a keyed bisect."""
    with open(path, "w", newline="\n") as fh:
        fh.write("t\tcumulative\tfraction\n")
        for t in ts:
            i = bisect_right(points, t, key=lambda p: p[0]) if t >= 1 else 0
            cum = points[i - 1][1] if i else 0
            frac = cum / denom if denom else 0.0
            fh.write(f"{t}\t{cum}\t{frac:.8g}\n")
