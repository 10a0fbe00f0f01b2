"""Cross-corpus guessing effectiveness.

A guess ordering replayed against a target table yields a cumulative
recovery curve: C(t) when the target's own optimal ordering is used,
C(t given a reference ordering) otherwise. Matching is exact byte
equality; a password absent from the target simply contributes nothing.
An ordering holds its guesses in a :class:`~pwdist.column.PasswordColumn`
(shared with the table it comes from), and a reference is joined to the
target by :meth:`~pwdist.column.PasswordColumn.matches`, over the sorted
row hashes of both columns, comparing bytes only where hashes match. A
column read from a table file comes with those hashes from its read, so
each column is hashed once.
A curve is its cumulative count after every guess, the form every run
writes: ``write_curve_tsv`` lays its rows out a block at a time straight
from that array, through :func:`~pwdist.tsvio.write_rows`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import tsvio
from .column import PasswordColumn
from .ingest import RankFrequencyTable, table_from_counter

METRIC_USERS = "users"
METRIC_DISTINCT = "distinct-passwords"
METRICS = (METRIC_USERS, METRIC_DISTINCT)


@dataclass(eq=False)
class GuessOrdering:
    """Password guesses in order, as a :class:`PasswordColumn`."""

    guesses: PasswordColumn
    source_label: str = ""

    @classmethod
    def from_table(cls, table: RankFrequencyTable, label: str = "table") -> "GuessOrdering":
        """The table's passwords in rank order, sharing its column."""
        return cls(table.passwords, label)


@dataclass(eq=False)
class GuessCurve:
    """Cumulative recovery per guess: ``cumulative[t - 1]`` after guess t.

    An int64 entry for every guess, stored as given: what ``write_curve_tsv`` writes.
    ``cumulative_at`` is 0 before the first guess and clamps past the end.
    """

    cumulative: np.ndarray
    denominator: int
    metric: str

    def __eq__(self, other):
        if not isinstance(other, GuessCurve):
            return NotImplemented
        return (
            np.array_equal(self.cumulative, other.cumulative)
            and self.denominator == other.denominator
            and self.metric == other.metric
        )

    @property
    def total_guesses(self) -> int:
        return len(self.cumulative)

    @property
    def final_cumulative(self) -> int:
        return int(self.cumulative[-1]) if len(self.cumulative) else 0

    def cumulative_at(self, t: int) -> int:
        guesses = min(t, len(self.cumulative))
        return int(self.cumulative[guesses - 1]) if guesses >= 1 else 0


def curve_from_increments(increments: np.ndarray, denominator: int, metric: str) -> GuessCurve:
    """The curve of guesses that add ``increments[t - 1]`` each, for t = 1, 2, ..."""
    return GuessCurve(np.cumsum(increments, dtype=np.int64), denominator, metric)


def self_curve(table: RankFrequencyTable, metric: str = METRIC_USERS) -> GuessCurve:
    """Recovery curve under the table's own (optimal) ordering."""
    if metric == METRIC_USERS:
        return curve_from_increments(table.counts, table.total_users, metric)
    if metric == METRIC_DISTINCT:
        n = table.distinct_count
        return curve_from_increments(np.ones(n, dtype=np.int64), n, metric)
    raise ValueError(f"unknown metric {metric!r}")


def cross_curve(
    reference: GuessOrdering,
    target: RankFrequencyTable,
    metric: str = METRIC_USERS,
    *,
    reference_index: Sequence[np.ndarray] | None = None,
    target_index: Sequence[np.ndarray] | None = None,
) -> GuessCurve:
    """Recovery curve when guessing the target in the reference's order.

    At step t the guess is the reference's t-th password; the users metric
    adds the target's count for that exact password (zero if absent), the
    distinct metric adds one whenever the password is present. Each index,
    the :meth:`~pwdist.column.PasswordColumn.hash_index` with order of the
    guesses or of the target's passwords, is built here if not given, as
    :func:`~pwdist.ingest.read_table_tsv` hands it back. A repeated guess
    would count its users twice, so a reference holding one is refused.
    """
    if not len(reference.guesses):
        raise ValueError("reference ordering is empty")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    guesses, passwords = reference.guesses, target.passwords
    if reference_index is None:
        reference_index = guesses.hash_index(order=True)
    if guesses.has_duplicates(reference_index):
        raise ValueError("guess ordering contains duplicate passwords")
    if target_index is None:
        target_index = passwords.hash_index(order=True)
    # Each guess's increment goes in place, and the curve is summed over them in place.
    increments = np.zeros(len(guesses), dtype=np.int64)
    for guess_rows, rows in passwords.matches(target_index, guesses, reference_index):
        increments[guess_rows] = target.counts[rows] if metric == METRIC_USERS else 1
    np.cumsum(increments, out=increments)
    denominator = target.total_users if metric == METRIC_USERS else target.distinct_count
    return GuessCurve(increments, denominator, metric)


def dictionary_ordering(words: Iterable[bytes], label: str = "dictionary") -> GuessOrdering:
    """Deduplicated words in byte-wise lexical order."""
    return GuessOrdering(PasswordColumn(sorted(set(words))), label)


def truncate_reaggregate(
    table: RankFrequencyTable, max_len: int, tie_break_seed: int = 0
) -> RankFrequencyTable:
    """Truncate every password to its first max_len bytes and re-rank.

    Counts of passwords that become identical are summed; total_users is
    conserved exactly. Truncation is per byte, so a multi-byte text
    character may be split.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    agg: Counter[bytes] = Counter()
    for pw, count in zip(table.passwords, table.counts.tolist()):
        agg[pw[:max_len]] += count
    return table_from_counter(agg, tie_break_seed=tie_break_seed)


def write_curve_tsv(curve: GuessCurve, path, log_spaced: bool = False) -> None:
    """Export as ``"%d\\t%d\\t%.8g\\n" % (t, cumulative, fraction)`` rows.

    Dense by default; ``log_spaced`` samples about 512 geometrically
    spaced indices instead, which is what plotting wants at full scale. A
    block of rows is read from ``curve.cumulative`` and laid out by
    :func:`~pwdist.tsvio.fixed_fields`; each distinct fraction in it (they
    come in runs, as the counts do) is formatted once by ``%``.
    """
    total = curve.total_guesses
    ts = None
    if log_spaced and total:
        ts = np.geomspace(1, total, num=512).round().astype(np.int64)
        # Rounding repeats neighbouring indices at the low end; keep one of each.
        ts = ts[np.concatenate(([True], ts[1:] != ts[:-1]))]
    denom = curve.denominator

    def block(rows: slice) -> np.ndarray:
        t = np.arange(rows.start + 1, rows.stop + 1, dtype=np.int64) if ts is None else ts[rows]
        cums = curve.cumulative[t - 1]
        fracs = cums / denom if denom else np.zeros(len(cums))
        run_start = np.ones(len(fracs), dtype=bool)
        run_start[1:] = fracs[1:] != fracs[:-1]
        text = np.array([b"%.8g" % f for f in fracs[run_start].tolist()], dtype=bytes)
        runs = text.view(np.uint8).reshape(len(text), text.itemsize)[np.cumsum(run_start) - 1]
        return tsvio.fixed_fields([t, 0x09, cums, 0x09, runs, 0x0A])[0]

    tsvio.write_rows(path, b"t\tcumulative\tfraction", total if ts is None else len(ts), block)
