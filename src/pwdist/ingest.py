"""Credential-corpus ingestion and rank-frequency tables.

Raw leak files come in two shapes: one password per line, or
``user<TAB>password`` pairs. Passwords stay raw bytes throughout; leak
files mix encodings freely and any normalisation would merge passwords
that users actually typed differently. Both are read from a binary stream
a block of lines at a time, split by the one line rule of
:func:`~pwdist.tsvio.chunk_lines`: ``read_credentials`` keeps each user's
last non-whitespace entry, and ``stream_table`` ranks the kept passwords by
descending use count with a seeded pseudo-random tie-break so runs are
reproducible.

A ranked table holds its passwords as a
:class:`~pwdist.column.PasswordColumn`: one bytes buffer and an int64
offset per row, with no Python object per password. Table files are read
into it and written from it a block of rows at a time by the row codec of
:mod:`pwdist.tsvio`, with no Python object per row, CRLF rows and blank
lines included; this module supplies only the fields of a block. Rank and
count are plain decimal digits, read in numpy.
``validate`` finds duplicates by sorting 64-bit row hashes, comparing
bytes only where hashes are equal, and a read hands those hashes back to a
caller that joins against the table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import BinaryIO, Iterable, Mapping

import numpy as np

from . import tsvio
from .column import JOIN_BLOCK, PasswordColumn, equal_runs, keyed_hashes
from .tsvio import CorpusError

FORMAT_USER_TAB_PASSWORD = "user-tab-password"
FORMAT_PASSWORD_PER_LINE = "password-per-line"
CORPUS_FORMATS = (FORMAT_USER_TAB_PASSWORD, FORMAT_PASSWORD_PER_LINE)

TABLE_HEADER = b"rank\tcount\tpassword"
_INT64_MAX = 2**63 - 1


@dataclass(eq=False)
class RankFrequencyTable:
    """Passwords ranked by descending use count; rank 1 is the most used.

    Two columns in rank order: ``passwords`` (a :class:`PasswordColumn`)
    and their ``counts`` (int64), stored as given.
    ``total_users`` is the number of observations (sum of counts) and
    ``distinct_count`` the number of distinct passwords; the two play
    different roles downstream, and both are computed from the counts. A
    stage that needs only the counts sets ``passwords`` to ``None`` once the
    table is validated, which frees the password bytes.
    """

    passwords: PasswordColumn
    counts: np.ndarray

    @property
    def distinct_count(self) -> int:
        return len(self.counts)

    @property
    def total_users(self) -> int:
        """The sum of the counts; a sum past 2**63 - 1 raises :class:`CorpusError`."""
        counts = self.counts
        # The counts are non-increasing, so rank 1's count times the rows
        # bounds their sum; only a bound past int64 needs the exact sum.
        if int(counts[0]) * len(counts) <= _INT64_MAX:
            return int(counts.sum())
        total = sum(counts.tolist())
        if total > _INT64_MAX:
            raise CorpusError("table counts sum past 2**63 - 1")
        return total

    def validate(self, order: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
        """Check the table's invariants; raises :class:`CorpusError`.

        Returns the password column's
        :meth:`~pwdist.column.PasswordColumn.hash_index` that the duplicate
        check built, with the rows' order if ``order`` is true.
        """
        counts = self.counts
        if not len(self.passwords):
            raise CorpusError("rank-frequency table is empty")
        if len(counts) != len(self.passwords):
            raise CorpusError("table columns differ in length")
        if counts.min() < 1:
            raise CorpusError("table contains a non-positive count")
        if np.any(counts[1:] > counts[:-1]):
            raise CorpusError("table counts increase with rank")
        index = self.passwords.hash_index(order)
        if self.passwords.has_duplicates(index):
            raise CorpusError("table contains a duplicate password")
        self.total_users  # raises if the counts sum past int64
        return index


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
    passwords: list[bytes] | PasswordColumn, values: np.ndarray, tie_break_seed: int = 0
) -> RankFrequencyTable:
    """Distinct ``passwords``, ``passwords[i]`` used ``values[i]`` times, ranked as
    :func:`table_from_counter` ranks them.

    A column's ranked rows are gathered by :meth:`~PasswordColumn.take`; a
    list's are joined one ``JOIN_BLOCK`` of rows at a time.
    """
    if not passwords:
        raise CorpusError("cannot rank an empty corpus")
    keys = keyed_hashes(passwords, tie_break_seed)
    order = np.lexsort((keys, -values))
    keys = keys[order]
    ranked_values = values[order]
    clashes = equal_runs((keys[1:] == keys[:-1]) & (ranked_values[1:] == ranked_values[:-1]))
    del keys
    for a, b in clashes:
        order[a:b] = sorted(order[a:b].tolist(), key=passwords.__getitem__)
    if isinstance(passwords, PasswordColumn):
        return RankFrequencyTable(passwords=passwords.take(order), counts=ranked_values)
    ranked = chain.from_iterable(
        map(passwords.__getitem__, order[start : start + JOIN_BLOCK].tolist())
        for start in range(0, len(order), JOIN_BLOCK)
    )
    return RankFrequencyTable(passwords=PasswordColumn(ranked), counts=ranked_values)


def table_from_counts(counts: Iterable[int], tie_break_seed: int = 0) -> RankFrequencyTable:
    """Build a table from bare counts with synthetic password labels."""
    counter = {b"p%08d" % i: int(c) for i, c in enumerate(counts, start=1)}
    return table_from_counter(counter, tie_break_seed)


@dataclass
class StreamStats:
    """Line accounting from a streaming ingest."""

    lines: int
    malformed: int


def read_credentials(stream: BinaryIO, corpus_format: str) -> tuple[dict[bytes, bytes], StreamStats]:
    """Each user's last usable password in the binary ``stream``, keyed by the user's bytes.

    ``user-tab-password`` lines split at the first TAB (the password may
    contain further TABs); a line without a TAB is counted as malformed and
    skipped. ``password-per-line`` gives line n the synthetic user ``u<n>``,
    counting every line, blank ones included. Empty and whitespace-only
    passwords are skipped, then a user's later entry replaces an earlier
    one, so a user whose entries are all blank is left out. The entries are
    in the line order of the ones kept: an accepted line deletes its user's
    key before inserting it again. An unknown ``corpus_format`` raises
    ``ValueError``.
    """
    if corpus_format not in CORPUS_FORMATS:
        raise ValueError(f"unknown corpus format {corpus_format!r}")
    per_line = corpus_format == FORMAT_PASSWORD_PER_LINE
    latest: dict[bytes, bytes] = {}
    n_lines = 0
    malformed = 0
    for lines in map(tsvio.chunk_lines, tsvio.line_chunks(stream)):
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
    stream: BinaryIO, corpus_format: str, tie_break_seed: int = 0
) -> tuple[RankFrequencyTable, StreamStats]:
    """Read, clean and rank the corpus in the binary ``stream`` a block of lines at a time.

    A ``user-tab-password`` corpus is ranked from the entry per user of
    :func:`read_credentials`. A ``password-per-line`` corpus has one user
    per line, so its lines are counted as they are read, holding one
    counter cell per distinct line; that is what makes corpus-scale files
    ingestible. Both give the table of the passwords ``read_credentials``
    keeps.
    """
    if corpus_format != FORMAT_PASSWORD_PER_LINE:
        latest, stats = read_credentials(stream, corpus_format)
        counts = Counter(latest.values())
        del latest
    else:
        counts = Counter()
        n_lines = 0
        for lines in map(tsvio.chunk_lines, tsvio.line_chunks(stream)):
            n_lines += len(lines)
            counts.update(lines)
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

    total_users becomes the retained sum; use it to bound output size on
    corpus-scale inputs when only head behaviour is of interest.
    """
    if max_ranks < 1:
        raise ValueError("max_ranks must be >= 1")
    if max_ranks >= table.distinct_count:
        return table
    return RankFrequencyTable(passwords=table.passwords[:max_ranks], counts=table.counts[:max_ranks])


def count_of_counts(table: RankFrequencyTable) -> tuple[np.ndarray, np.ndarray]:
    """``(k, n_k)``: each count k the table holds, ascending, and how many passwords have it."""
    return np.unique(table.counts, return_counts=True)


def write_table_tsv(table: RankFrequencyTable, path) -> None:
    """Export as ``rank<TAB>count<TAB>password`` with escaped passwords.

    Each block of rows is laid out in one uint8 buffer by
    :func:`~pwdist.tsvio.lay_out`: the rank and count columns by
    :func:`~pwdist.tsvio.fixed_fields`, and only passwords holding a byte to
    escape are escaped.
    """

    def block(rows: slice) -> np.ndarray:
        ranks = np.arange(rows.start + 1, rows.stop + 1, dtype=np.int64)
        fields = tsvio.fixed_fields([ranks, 0x09, table.counts[rows], 0x09])
        return tsvio.lay_out([fields, tsvio.escaped(table.passwords[rows]), 0x0A])

    tsvio.write_rows(path, TABLE_HEADER, table.distinct_count, block)


# Longest decimal field read: 19 digits hold every int64, and every
# 19-digit number fits a uint64.
_MAX_DIGITS = 19


def _digit_values(digits: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The fields ``[start, stop)`` of a chunk as decimal numbers, as int64.

    ``digits`` is the chunk's bytes minus ``0x30``, so a digit byte is its
    value and every other byte is above 9. A field that is empty, is
    longer than ``_MAX_DIGITS``, holds a byte that is not a digit or is
    above 2**63 - 1 raises ``ValueError``. The fields are right-aligned and
    read one digit position per pass, in uint64 so that no field overflows.
    """
    width = stop - start
    widest = int(width.max(initial=0))
    if width.min(initial=1) < 1 or widest > _MAX_DIGITS:
        raise ValueError(f"rank or count is not 1 to {_MAX_DIGITS} digits")
    values = np.zeros(len(width), dtype=np.uint64)
    for k in range(widest, 0, -1):
        digit = digits[np.maximum(stop - k, 0)]
        digit[width < k] = 0
        if (digit > 9).any():
            raise ValueError("rank or count holds a byte that is not a digit")
        values *= 10
        values += digit
    # Only a 19-digit field can exceed the int64 range.
    if widest == _MAX_DIGITS and (values >> np.uint64(63)).any():
        raise ValueError("rank or count is above 2**63 - 1")
    return values.view(np.int64)


def _table_block(raw: np.ndarray, fields, first_row: int) -> tuple[np.ndarray]:
    """The counts of a block of table rows, whose ranks must run on from ``first_row``."""
    (rank_start, rank_stop), (count_start, count_stop), _ = fields
    digits = raw - np.uint8(0x30)
    ranks = _digit_values(digits, rank_start, rank_stop)
    wrong = np.flatnonzero(ranks != np.arange(first_row + 1, first_row + 1 + len(ranks)))
    if len(wrong):
        raise CorpusError(f"table ranks are not consecutive at rank {int(ranks[wrong[0]])}")
    return (_digit_values(digits, count_start, count_stop),)


def read_table_tsv(path, index: list | None = None) -> RankFrequencyTable:
    """Load a table written by :func:`write_table_tsv`.

    Reads ``READ_BLOCK`` bytes of rows at a time into the password column
    by :func:`~pwdist.tsvio.read_rows`, which also takes CRLF rows and blank
    lines. Rank and count must be plain decimal digits. A malformed row, a
    bad escape, a rank out of sequence or a table that fails
    :meth:`RankFrequencyTable.validate` raises :class:`CorpusError`.

    ``validate`` hashes each row once. Given a list as ``index``, the read
    puts the column's hash index with its order in it, ``[sorted_hashes,
    order]``, so that a join against the table need not hash it again.
    """
    column, (counts,) = tsvio.read_rows(path, TABLE_HEADER, "table", 2, _table_block)
    table = RankFrequencyTable(passwords=column, counts=counts)
    found = table.validate(order=index is not None)
    if index is not None:
        index[:] = found
    return table
