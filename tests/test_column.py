"""The password column: length, indexing, slices and iteration, row hashes, duplicates and joins.

The row hash is also replaced by a constant, so that every pair of rows
collides and only the byte comparisons can tell rows apart.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import table_oracles as oracle
from pwdist import column, tsvio
from pwdist.cli import EXIT_INPUT, EXIT_OK, main
from pwdist.column import PasswordColumn, row_hashes
from pwdist.ingest import (
    TABLE_HEADER,
    CorpusError,
    read_table_tsv,
    table_from_counter,
    write_table_tsv,
)

from conftest import rows

# Block sizes small enough that lines and rows cross block boundaries.
SMALL_BLOCKS = st.sampled_from([1, 2, 3, 5, 8, 64, tsvio.READ_BLOCK])

# Rows with the bytes the table codec escapes, NUL and high bytes, and rows
# on both sides of the length at which hashing leaves numpy.
AWKWARD_PARTS = [b"\x00", b"\t", b"\r", b"\n", b"\\", b"\xff", b"\xe9", b"a", b"ab", b"abcdefgh"]
awkward_rows = st.one_of(
    st.binary(max_size=20),
    st.lists(st.sampled_from(AWKWARD_PARTS), max_size=12).map(b"".join),
    st.integers(column.WORD_PASS_MAX_LEN - 2, column.WORD_PASS_MAX_LEN + 9).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)
    ),
)


def _constant_hashes(column):
    return np.zeros(len(column), dtype=np.uint64)


def _positions(col: PasswordColumn, probes: PasswordColumn) -> list[int]:
    """Each probe's row in ``col``, or -1, by ``matches`` over both hash indexes."""
    found = np.full(len(probes), -1)
    index, probe_index = col.hash_index(order=True), probes.hash_index(order=True)
    for probe_rows, rows in col.matches(index, probes, probe_index):
        found[probe_rows] = rows
    return found.tolist()


class TestPasswordColumn:
    @given(st.lists(awkward_rows, max_size=30), st.data())
    def test_len_index_slice_and_iteration(self, items, data):
        col = PasswordColumn(items)
        assert len(col) == len(items)
        assert list(col) == items
        assert list(PasswordColumn(iter(items))) == items
        if items:
            i = data.draw(st.integers(-len(items), len(items) - 1))
            assert col[i] == items[i]
            assert type(col[i]) is bytes
        start = data.draw(st.integers(-3, len(items) + 3))
        stop = data.draw(st.integers(-3, len(items) + 3))
        step = data.draw(st.sampled_from([None, 1]))
        part = col[start:stop:step]
        assert isinstance(part, PasswordColumn) and part.data is col.data
        assert list(part) == items[start:stop]
        with pytest.raises(IndexError):
            col[len(items)]
        with pytest.raises(ValueError, match="contiguous"):
            col[::2]

    @given(st.lists(awkward_rows, max_size=30), st.data())
    def test_take_gathers_rows(self, items, data):
        col = PasswordColumn(items)[1:]
        rows = data.draw(st.lists(st.integers(0, len(col) - 1), max_size=40) if len(col) else st.just([]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(column, "JOIN_BLOCK", data.draw(st.sampled_from([1, 3, column.JOIN_BLOCK])))
            taken = col.take(np.array(rows, dtype=np.int64))
        assert list(taken) == [items[1:][i] for i in rows]

    @given(st.lists(awkward_rows, min_size=1, max_size=30))
    def test_row_hash_depends_only_on_the_row(self, items):
        hashes = row_hashes(PasswordColumn(items))
        alone = [int(row_hashes(PasswordColumn([row]))[0]) for row in items]
        assert hashes.tolist() == alone

    @given(st.lists(awkward_rows, max_size=30), st.booleans())
    def test_duplicates_match_a_set(self, items, constant):
        with pytest.MonkeyPatch.context() as mp:
            if constant:
                mp.setattr(column, "row_hashes", _constant_hashes)
            assert PasswordColumn(items).has_duplicates() == (len(set(items)) < len(items))

    @given(
        st.lists(awkward_rows, min_size=1, max_size=40, unique=True),
        st.integers(0, 2**32),
        st.sampled_from([1, 3, 7, tsvio.WRITE_BLOCK]),
        SMALL_BLOCKS,
    )
    def test_round_trip_arbitrary_bytes(
        self, tmp_path_factory, items, seed, write_block, read_block
    ):
        counts = {pw: 1 + (i * 7 + seed) % 5 for i, pw in enumerate(items)}
        table = table_from_counter(counts, tie_break_seed=seed)
        path = tmp_path_factory.mktemp("column") / "table.tsv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tsvio, "WRITE_BLOCK", write_block)
            mp.setattr(tsvio, "READ_BLOCK", read_block)
            write_table_tsv(table, path)
            loaded = read_table_tsv(path)
        assert rows(loaded) == oracle.read_table(path) == oracle.rank_rows(counts, seed) == rows(table)

    def test_long_rows_with_a_shared_prefix(self):
        prefix = b"p" * column.WORD_PASS_MAX_LEN
        rows_ = [prefix + b"%d" % i for i in range(20)] + [prefix, prefix[:-1]]
        assert not PasswordColumn(rows_).has_duplicates()
        assert PasswordColumn(rows_ + [prefix + b"7"]).has_duplicates()
        col = PasswordColumn(rows_)
        probes = PasswordColumn([prefix + b"3", prefix + b"x", prefix[:-1], b"p"])
        assert _positions(col, probes) == [3, -1, 21, -1]

    @pytest.mark.parametrize("constant", [False, True], ids=["row-hash", "constant-hash"])
    def test_duplicate_password_is_an_input_error(self, tmp_path, monkeypatch, constant):
        if constant:
            monkeypatch.setattr(column, "row_hashes", _constant_hashes)
        good = tmp_path / "good.tsv"
        good.write_bytes(TABLE_HEADER + b"\n1\t3\tpw\n2\t2\tpw\\t\n3\t1\tp\n")
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(TABLE_HEADER + b"\n1\t3\tpw\n2\t2\tp\n3\t1\tpw\n")
        assert rows(read_table_tsv(good)) == [(b"pw", 3), (b"pw\t", 2), (b"p", 1)]
        assert main(["stats", "--table", str(good), "--out-dir", str(tmp_path / "ok")]) == EXIT_OK
        with pytest.raises(CorpusError, match="duplicate"):
            read_table_tsv(bad)
        assert main(["stats", "--table", str(bad), "--out-dir", str(tmp_path / "no")]) == EXIT_INPUT


class TestTakeMemory:
    def test_transient_bytes_per_gathered_byte(self):
        """``take`` gathers a block of rows by one int32 index per byte.

        One ``JOIN_BLOCK`` of 16-byte rows, gathered in reverse: the peak
        that ``tracemalloc`` traces above what the new column keeps, per
        byte gathered. Measured at 7.5 B/byte here, against 15.5 for int64
        per-byte index arrays built by ``np.repeat`` and ``np.arange``.
        """
        col = PasswordColumn(b"%016d" % i for i in range(column.JOIN_BLOCK))
        rows_ = np.arange(len(col))[::-1].copy()
        col.take(rows_[:10])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            taken = col.take(rows_)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert list(taken) == list(col)[::-1]
        assert (peak - kept) / len(taken.view()) < 9
