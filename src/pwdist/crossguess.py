"""Cross-corpus guessing effectiveness.

A guess ordering replayed against a target table yields a cumulative
recovery curve: C(t) when the target's own optimal ordering is used,
C(t given a reference ordering) otherwise. Matching is exact byte
equality; a password absent from the target simply contributes nothing.
An ordering holds its guesses in a :class:`~pwdist.column.PasswordColumn`
(shared with the table it comes from), and a reference is joined to the
target by :meth:`~pwdist.column.PasswordColumn.positions`, which hashes
both columns' rows on each call, sorts the hashes and compares bytes only
where hashes match.
Curves are stored sparsely (only the steps where the cumulative value
changes, plus the final guess index) because full-scale corpora produce
tens of millions of points.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import tsvio
from .column import PasswordColumn, as_column
from .ingest import RankFrequencyTable, table_from_counter

METRIC_USERS = "users"
METRIC_DISTINCT = "distinct-passwords"
METRICS = (METRIC_USERS, METRIC_DISTINCT)


@dataclass
class GuessOrdering:
    """Unique password guesses in order, as a :class:`PasswordColumn`.

    Built from any sequence of bytes; a duplicate guess is refused.
    """

    guesses: PasswordColumn
    source_label: str = ""

    def __post_init__(self):
        self.guesses = as_column(self.guesses)
        if self.guesses.has_duplicates():
            raise ValueError("guess ordering contains duplicate passwords")

    @classmethod
    def from_table(cls, table: RankFrequencyTable, label: str = "table") -> "GuessOrdering":
        """The table's passwords in rank order, sharing its column.

        The table's own ``validate()`` has already refused duplicates, so no
        second check is made.
        """
        ordering = cls.__new__(cls)
        ordering.guesses, ordering.source_label = table.passwords, label
        return ordering


@dataclass(eq=False)
class GuessCurve:
    """Cumulative recovery per guess index, sparsely encoded.

    Two int64 columns, ``t`` and ``cumulative``: one row at every guess
    index where the cumulative count changes, plus the final index.
    ``cumulative_at`` interpolates the steps and clamps past the end.
    """

    t: np.ndarray
    cumulative: np.ndarray
    denominator: int
    metric: str

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.int64)
        self.cumulative = np.asarray(self.cumulative, dtype=np.int64)

    def __eq__(self, other):
        if not isinstance(other, GuessCurve):
            return NotImplemented
        return (
            np.array_equal(self.t, other.t)
            and np.array_equal(self.cumulative, other.cumulative)
            and self.denominator == other.denominator
            and self.metric == other.metric
        )

    @property
    def total_guesses(self) -> int:
        return int(self.t[-1]) if len(self.t) else 0

    @property
    def final_cumulative(self) -> int:
        return int(self.cumulative[-1]) if len(self.cumulative) else 0

    def cumulative_at(self, t: int) -> int:
        i = int(np.searchsorted(self.t, t, side="right"))
        return int(self.cumulative[i - 1]) if i else 0


def curve_from_increments(increments: np.ndarray, denominator: int, metric: str) -> GuessCurve:
    """The curve of guesses that add ``increments[t - 1]`` each, for t = 1, 2, ..."""
    increments = np.asarray(increments, dtype=np.int64)
    stored = increments != 0
    stored[-1:] = True  # the final guess, if any, is always stored
    steps = np.flatnonzero(stored)
    cumulative = np.cumsum(increments)[steps]
    return GuessCurve(t=steps + 1, cumulative=cumulative, denominator=denominator, metric=metric)


def self_curve(table: RankFrequencyTable, metric: str = METRIC_USERS) -> GuessCurve:
    """Recovery curve under the table's own (optimal) ordering."""
    if metric == METRIC_USERS:
        return curve_from_increments(table.counts, table.total_users, metric)
    if metric == METRIC_DISTINCT:
        n = table.distinct_count
        return curve_from_increments(np.ones(n, dtype=np.int64), n, metric)
    raise ValueError(f"unknown metric {metric!r}")


def cross_curve(
    reference: GuessOrdering, target: RankFrequencyTable, metric: str = METRIC_USERS
) -> GuessCurve:
    """Recovery curve when guessing the target in the reference's order.

    At step t the guess is the reference's t-th password; the users metric
    adds the target's count for that exact password (zero if absent), the
    distinct metric adds one whenever the password is present.
    """
    if not len(reference.guesses):
        raise ValueError("reference ordering is empty")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    # The target's row of each guess, by the sorted hashes of both columns.
    found = target.passwords.positions(reference.guesses)
    if metric == METRIC_USERS:
        increments = np.where(found >= 0, target.counts[found], 0)
        denominator = target.total_users
    else:
        increments = found >= 0
        denominator = target.distinct_count
    return curve_from_increments(increments, denominator, metric)


def dictionary_ordering(words: Iterable[bytes], label: str = "dictionary") -> GuessOrdering:
    """Deduplicated words in byte-wise lexical order."""
    return GuessOrdering(guesses=sorted(set(words)), source_label=label)


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
    """Export as ``t<TAB>cumulative<TAB>fraction`` rows.

    Dense by default; ``log_spaced`` samples about 512 geometrically
    spaced indices instead, which is what plotting wants at full scale.
    """
    total = curve.total_guesses
    if log_spaced and total >= 1:
        ts = np.geomspace(1, total, num=512).round().astype(np.int64)
        # Rounding repeats neighbouring indices at the low end; keep one of each.
        ts = ts[np.concatenate(([True], ts[1:] != ts[:-1]))]
    else:
        ts = np.arange(1, total + 1, dtype=np.int64)
    # The cumulative value at t is the one of the last step at or before t.
    cums = np.concatenate(([0], curve.cumulative))[np.searchsorted(curve.t, ts, side="right")]
    denom = curve.denominator
    fracs = cums / denom if denom else np.zeros(len(cums))
    with open(path, "wb") as fh:
        fh.write(b"t\tcumulative\tfraction\n")
        for start in range(0, len(ts), tsvio.WRITE_BLOCK):
            block = slice(start, start + tsvio.WRITE_BLOCK)
            fh.write(_curve_rows(ts[block], cums[block], fracs[block]))


def _curve_rows(ts: np.ndarray, cums: np.ndarray, fracs: np.ndarray) -> bytes:
    """The rows ``"%d\\t%d\\t%.8g\\n" % (t, cumulative, fraction)``, joined.

    numpy lays out the integer columns; each distinct fraction (they come in
    runs, as the cumulative count does) is formatted once by ``%``, so the
    text is that of the format by construction. The fields go into one
    NUL-padded matrix, a row per curve row; dropping the NULs joins them.
    """
    run_start = np.ones(len(fracs), dtype=bool)
    run_start[1:] = fracs[1:] != fracs[:-1]
    text = np.array(["%.8g" % f for f in fracs[run_start].tolist()], dtype=bytes)
    t_width = len(b"%d" % ts[-1])
    c_width = len(b"%d" % cums[-1])
    f_width = text.itemsize
    rows = np.zeros((len(ts), t_width + c_width + f_width + 3), dtype=np.uint8)
    tsvio.put_decimal(rows[:, :t_width], ts)
    rows[:, t_width] = 0x09
    tsvio.put_decimal(rows[:, t_width + 1 : t_width + 1 + c_width], cums)
    rows[:, t_width + 1 + c_width] = 0x09
    runs = text.view(np.uint8).reshape(len(text), f_width)
    rows[:, -1 - f_width : -1] = runs[np.cumsum(run_start) - 1]
    rows[:, -1] = 0x0A
    return rows[rows != 0].tobytes()
