from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from pwdist.ingest import RankFrequencyTable, table_from_counter


def rows(table: RankFrequencyTable) -> list[tuple[bytes, int]]:
    """The table as (password, count) pairs in rank order."""
    return list(zip(table.passwords, table.counts.tolist()))


def rarely(draw, usual, unusual):
    """Draw from ``usual``, or one time in ten from ``usual + unusual``."""
    return draw(st.sampled_from(usual + unusual if draw(st.integers(0, 9)) == 0 else usual))


def crlf_forms(data: bytes) -> list[bytes]:
    """A row file with CRLF rows, and with CRLF rows, blank lines (CRLF and LF)
    after the header and after every row, and no line end after the last row."""
    header, body = data.split(b"\n", 1)
    return [
        data.replace(b"\n", b"\r\n"),
        header + b"\r\n\n\r\n" + body.replace(b"\n", b"\r\n\r\n\n").rstrip(b"\r\n"),
    ]


def table_of(counts: dict[bytes, int], seed: int = 0) -> RankFrequencyTable:
    return table_from_counter(counts, tie_break_seed=seed)


@pytest.fixture
def four_rank_table() -> RankFrequencyTable:
    """Counts 12/r at ranks 1..4: exactly collinear in log-log space."""
    return table_of({b"a": 12, b"b": 6, b"c": 4, b"d": 3})


def random_table(rng: np.random.Generator, max_distinct: int = 30, max_count: int = 9):
    """A small random table over a shared password universe."""
    n = int(rng.integers(1, max_distinct + 1))
    universe = [b"w%03d" % i for i in range(60)]
    picks = rng.choice(len(universe), size=n, replace=False)
    counts = {universe[int(i)]: int(rng.integers(1, max_count + 1)) for i in picks}
    return table_from_counter(counts, tie_break_seed=int(rng.integers(0, 2**32)))
