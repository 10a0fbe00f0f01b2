from __future__ import annotations

import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import table_oracles as oracle
from pwdist import column, tsvio
from pwdist.column import PasswordColumn
from pwdist.crossguess import (
    GuessCurve,
    GuessOrdering,
    METRIC_DISTINCT,
    METRIC_USERS,
    cross_curve,
    curve_from_increments,
    dictionary_ordering,
    self_curve,
    truncate_reaggregate,
    write_curve_tsv,
)
from pwdist.cli import EXIT_OK, main
from pwdist.ingest import table_from_counter, write_table_tsv

from conftest import random_table, rows, table_of


class TestSelfCurve:
    def test_users_partial_sums(self):
        table = table_of({b"a": 2, b"b": 1, b"c": 1})
        curve = self_curve(table, METRIC_USERS)
        assert curve.cumulative.tolist() == [2, 3, 4]
        assert curve.denominator == 4

    def test_distinct_identity_line(self):
        table = table_of({b"a": 2, b"b": 1, b"c": 1})
        curve = self_curve(table, METRIC_DISTINCT)
        assert curve.cumulative.tolist() == [1, 2, 3]
        assert curve.denominator == 3

    def test_users_exhausts_at_distinct_count(self):
        table = table_of({b"a": 5, b"b": 3, b"c": 3, b"d": 1})
        curve = self_curve(table, METRIC_USERS)
        assert curve.cumulative_at(table.distinct_count) == table.total_users


class TestCurveFromIncrements:
    @given(st.lists(st.integers(0, 3), max_size=30), st.integers(0, 99))
    def test_matches_increment_loop(self, increments, denominator):
        curve = curve_from_increments(np.array(increments, dtype=np.int64), denominator, "users")
        assert curve.cumulative.tolist() == oracle.cumulative_counts(increments)
        assert curve.total_guesses == len(increments)
        assert curve.final_cumulative == sum(increments)
        for t in range(len(increments) + 2):
            assert curve.cumulative_at(t) == sum(increments[:t])

    def test_arrays_compare_by_value(self):
        a = curve_from_increments(np.array([2, 0, 1]), 3, METRIC_USERS)
        assert a == GuessCurve(cumulative=np.int64([2, 2, 3]), denominator=3, metric=METRIC_USERS)
        assert a != GuessCurve(cumulative=np.int64([2, 2, 3]), denominator=4, metric=METRIC_USERS)
        assert a != GuessCurve(cumulative=np.int64([2, 3]), denominator=3, metric=METRIC_USERS)
        assert a.cumulative.dtype == np.int64


class TestCrossCurve:
    def test_identity_reference_equals_self_curve(self):
        table = table_of({b"a": 4, b"b": 2, b"c": 1})
        for metric in (METRIC_USERS, METRIC_DISTINCT):
            cross = cross_curve(GuessOrdering.from_table(table), table, metric)
            own = self_curve(table, metric)
            assert cross == own

    def test_disjoint_vocabularies_flat_zero(self):
        target = table_of({b"a": 3, b"b": 1})
        reference = GuessOrdering(PasswordColumn([b"x", b"y", b"z"]))
        curve = cross_curve(reference, target, METRIC_USERS)
        assert curve.final_cumulative == 0
        assert all(curve.cumulative_at(t) == 0 for t in range(1, 4))

    def test_hand_traced_reference(self):
        target = table_of({b"b": 3, b"a": 1})
        curve = cross_curve(GuessOrdering(PasswordColumn([b"a", b"b"])), target, METRIC_USERS)
        assert [(t, curve.cumulative_at(t)) for t in (1, 2)] == [(1, 1), (2, 4)]

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            cross_curve(GuessOrdering(PasswordColumn([])), table_of({b"a": 1}), METRIC_USERS)

    def test_distinct_bounded_by_t(self):
        target = table_of({b"a": 3, b"b": 2, b"c": 1})
        reference = GuessOrdering(PasswordColumn([b"z", b"a", b"b", b"q", b"c"]))
        curve = cross_curve(reference, target, METRIC_DISTINCT)
        for t in range(1, 6):
            assert curve.cumulative_at(t) <= t

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_dominance(self, seed):
        rng = np.random.default_rng(seed)
        target = random_table(rng)
        reference = GuessOrdering.from_table(random_table(rng))
        for metric in (METRIC_USERS, METRIC_DISTINCT):
            cross = cross_curve(reference, target, metric)
            own = self_curve(target, metric)
            for t in range(1, len(reference.guesses) + 1):
                assert cross.cumulative_at(t) <= own.cumulative_at(t)


def _dict_join_cumulative(reference: list[bytes], target, metric: str) -> list[int]:
    """The cross curve's cumulative counts, looking each guess up in a dict of the target."""
    lookup = dict(zip(target.passwords, target.counts.tolist()))
    if metric == METRIC_USERS:
        return oracle.cumulative_counts(lookup.get(g, 0) for g in reference)
    return oracle.cumulative_counts(int(g in lookup) for g in reference)


guess_bytes = st.one_of(
    st.sampled_from([b"a", b"b", b"ab", b"a\x00", b"\x00", b"", b"\t\\", b"\xff" * 9]),
    st.binary(max_size=10),
    st.binary(min_size=column.WORD_PASS_MAX_LEN, max_size=column.WORD_PASS_MAX_LEN + 2),
)


class TestCrossCurveJoin:
    """``cross_curve`` joins by sorted row hashes; a dict lookup is the reference."""

    @given(
        st.lists(guess_bytes, min_size=1, max_size=25, unique=True),
        st.dictionaries(guess_bytes, st.integers(1, 9), min_size=1, max_size=25),
        st.sampled_from([METRIC_USERS, METRIC_DISTINCT]),
        st.sampled_from(["row", "constant", "parity"]),
    )
    def test_matches_dict_join(self, reference, counts, metric, hashes):
        # With a constant or a two-valued row hash, a guess's hash run holds
        # several target rows, and the guess may match any of them or none.
        target = table_from_counter(counts)
        with pytest.MonkeyPatch.context() as mp:
            if hashes == "constant":
                mp.setattr(column, "row_hashes", lambda column: np.zeros(len(column), np.uint64))
            elif hashes == "parity":
                mp.setattr(column, "row_hashes", lambda column: (column.lengths() % 2).astype(np.uint64))
            curve = cross_curve(GuessOrdering(PasswordColumn(reference)), target, metric)
        assert curve.cumulative.tolist() == _dict_join_cumulative(reference, target, metric)

    @pytest.mark.parametrize("seed", range(5))
    def test_table_orderings_match_dict_join(self, seed):
        rng = np.random.default_rng(seed)
        target, source = random_table(rng, 40), random_table(rng, 40)
        reference = GuessOrdering.from_table(source)
        assert reference.guesses is source.passwords
        for metric in (METRIC_USERS, METRIC_DISTINCT):
            curve = cross_curve(reference, target, metric)
            assert curve.cumulative.tolist() == _dict_join_cumulative(list(source.passwords), target, metric)


    @pytest.mark.parametrize("metric", [METRIC_USERS, METRIC_DISTINCT])
    def test_curve_run_hashes_each_table_once(self, tmp_path, monkeypatch, metric):
        # Every row of both tables goes through row_hashes once, a few rows per call.
        rng = np.random.default_rng(4)
        target, source = random_table(rng, 40), random_table(rng, 40)
        write_table_tsv(target, tmp_path / "target.tsv")
        write_table_tsv(source, tmp_path / "reference.tsv")
        calls = []
        real = column.row_hashes

        def counted(rows_):
            calls.append(len(rows_))
            return real(rows_)

        monkeypatch.setattr(column, "row_hashes", counted)
        monkeypatch.setattr(column, "HASH_BLOCK", 7)
        argv = ["curve", "--target", str(tmp_path / "target.tsv"),
                "--reference", str(tmp_path / "reference.tsv"), "--metric", metric]
        assert main([*argv, "--out-dir", str(tmp_path / "curve")]) == EXIT_OK
        assert sum(calls) == target.distinct_count + source.distinct_count
        assert len(calls) > 2
        written = (tmp_path / "curve" / "curve.tsv").read_bytes().splitlines()[1:]
        expected = _dict_join_cumulative(list(source.passwords), target, metric)
        assert [int(line.split(b"\t")[1]) for line in written] == expected


class TestOrdering:
    def test_duplicates_rejected(self, monkeypatch):
        # An ordering holds the guesses it is given; a cross curve would
        # count a repeated guess's users twice, so it refuses one, also
        # where every row hash collides.
        reference = GuessOrdering(PasswordColumn([b"a", b"b", b"a"]))
        target = table_of({b"a": 2, b"b": 1})
        for constant in (False, True):
            if constant:
                monkeypatch.setattr(column, "row_hashes", lambda column: np.zeros(len(column), np.uint64))
            for metric in (METRIC_USERS, METRIC_DISTINCT):
                with pytest.raises(ValueError, match="duplicate"):
                    cross_curve(reference, target, metric)
            assert cross_curve(GuessOrdering(PasswordColumn([b"a", b"b"])), target).final_cumulative == 3

    def test_dictionary_dedupe_and_sort(self):
        ordering = dictionary_ordering([b"b", b"a", b"a"])
        assert list(ordering.guesses) == [b"a", b"b"]

    def test_dictionary_empty(self):
        assert list(dictionary_ordering([]).guesses) == []

    def test_dictionary_byte_order_uppercase_first(self):
        ordering = dictionary_ordering([b"zebra", b"Apple"])
        assert list(ordering.guesses) == [b"Apple", b"zebra"]


class TestTruncateReaggregate:
    def test_shared_prefix_merges(self):
        table = table_of({b"password1": 5, b"password2": 3})
        merged = truncate_reaggregate(table, 8)
        assert rows(merged) == [(b"password", 8)]
        assert merged.total_users == 8

    def test_long_enough_length_changes_nothing(self):
        table = table_of({b"ab": 2, b"cd": 1})
        merged = truncate_reaggregate(table, 16)
        assert sorted(rows(merged)) == sorted(rows(table))
        assert merged.total_users == table.total_users

    def test_single_byte(self):
        table = table_of({b"ab": 1, b"cd": 1})
        merged = truncate_reaggregate(table, 1)
        assert sorted(rows(merged)) == [(b"a", 1), (b"c", 1)]

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            truncate_reaggregate(table_of({b"a": 1}), 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_conserves_users_never_grows_distinct(self, seed, max_len):
        table = random_table(np.random.default_rng(seed))
        merged = truncate_reaggregate(table, max_len)
        assert merged.total_users == table.total_users
        assert merged.distinct_count <= table.distinct_count


def _step_curve(points: list[tuple[int, int]], denominator: int) -> GuessCurve:
    """The curve whose cumulative count steps to ``cum`` at each ``(t, cum)`` of
    ``points`` (t increasing) and ends at the last t."""
    cumulative = []
    for t, cum in points:
        cumulative += [cumulative[-1] if cumulative else 0] * (t - 1 - len(cumulative)) + [cum]
    return GuessCurve(cumulative=np.int64(cumulative), denominator=denominator, metric=METRIC_USERS)


class TestCurveExport:
    def test_dense_rows(self, tmp_path):
        curve = self_curve(table_of({b"a": 3, b"b": 1}), METRIC_USERS)
        path = tmp_path / "curve.tsv"
        write_curve_tsv(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t\tcumulative\tfraction"
        assert lines[1] == "1\t3\t0.75"
        assert lines[2] == "2\t4\t1"

    def test_log_spaced_subset(self, tmp_path):
        table = table_from_counter({b"w%04d" % i: 1 for i in range(2000)})
        curve = self_curve(table, METRIC_DISTINCT)
        dense = tmp_path / "dense.tsv"
        sparse = tmp_path / "sparse.tsv"
        write_curve_tsv(curve, dense)
        write_curve_tsv(curve, sparse, log_spaced=True)
        dense_lines = dense.read_text().splitlines()
        sparse_lines = sparse.read_text().splitlines()
        assert len(sparse_lines) < len(dense_lines)
        assert set(sparse_lines[1:]) <= set(dense_lines[1:])
        assert sparse_lines[-1] == dense_lines[-1]  # endpoint kept

    @given(
        st.lists(st.tuples(st.integers(1, 40), st.integers(0, 9)), max_size=12),
        st.integers(0, 60),
        st.booleans(),
        st.sampled_from([1, 2, 7, tsvio.WRITE_BLOCK]),
    )
    def test_bytes_match_bisect_loop(self, tmp_path_factory, steps, denominator, log_spaced, block):
        # A step curve: strictly increasing t, non-decreasing cumulative values.
        points, t, cum = [], 0, 0
        for dt, inc in steps:
            t, cum = t + dt, cum + inc
            points.append((t, cum))
        curve = _step_curve(points, denominator)
        total = curve.total_guesses
        if log_spaced and total >= 1:
            ts = sorted(set(np.geomspace(1, total, num=512).round().astype(int).tolist()))
        else:
            ts = range(1, total + 1)
        d = tmp_path_factory.mktemp("curve")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tsvio, "WRITE_BLOCK", block)
            write_curve_tsv(curve, d / "new.tsv", log_spaced=log_spaced)
        oracle.write_curve(points, denominator, d / "old.tsv", ts)
        assert (d / "new.tsv").read_bytes() == (d / "old.tsv").read_bytes()

    @settings(deadline=None)
    @given(
        # A run of up to 10 steps of width 300 spans 1,000 blocks of 3 rows;
        # only whole-block writes take steps of up to 3000.
        st.sampled_from([1, 3, tsvio.WRITE_BLOCK]).flatmap(
            lambda block: st.tuples(
                st.just(block),
                st.lists(
                    st.tuples(st.integers(1, 3000 if block == tsvio.WRITE_BLOCK else 300), st.integers(0, 40)),
                    max_size=10,
                ),
            )
        ),
        st.sampled_from([0, 1, 7, 99_991, 10**6, 123_456_789, 10**12]),
        st.booleans(),
    )
    def test_bytes_match_percent_format(self, tmp_path_factory, block_and_steps, denominator, log_spaced):
        # Large denominators give fractions below 1e-4, which %.8g writes in exponent form.
        block, steps = block_and_steps
        points, t, cum = [], 0, 0
        for dt, inc in steps:
            t, cum = t + dt, cum + inc
            points.append((t, cum))
        t, cumulative = zip(*points) if points else ((), ())
        curve = _step_curve(points, denominator)
        total = curve.total_guesses
        if log_spaced and total >= 1:
            ts = sorted(set(np.geomspace(1, total, num=512).round().astype(int).tolist()))
        else:
            ts = range(1, total + 1)
        expected = [b"t\tcumulative\tfraction\n"]
        for at in ts:
            i = bisect_right(t, at)
            cum = cumulative[i - 1] if i else 0
            fraction = cum / denominator if denominator else 0.0
            expected.append(b"%d\t%d\t%.8g\n" % (at, cum, fraction))
        path = tmp_path_factory.mktemp("curve") / "curve.tsv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tsvio, "WRITE_BLOCK", block)
            write_curve_tsv(curve, path, log_spaced=log_spaced)
        assert path.read_bytes() == b"".join(expected)

    def test_exponent_form_fractions(self, tmp_path):
        curve = GuessCurve(cumulative=np.int64([1, 3, 3, 3, 3]), denominator=10**7, metric=METRIC_USERS)
        path = tmp_path / "curve.tsv"
        write_curve_tsv(curve, path)
        assert path.read_bytes().splitlines()[1:] == [
            b"1\t1\t1e-07", b"2\t3\t3e-07", b"3\t3\t3e-07", b"4\t3\t3e-07", b"5\t3\t3e-07"
        ]


class TestCurveMemory:
    @pytest.mark.parametrize("log_spaced", [False, True], ids=["dense", "log-spaced"])
    def test_transient_memory_is_set_by_block_size(self, tmp_path, log_spaced):
        """Writing a 10**6-guess curve needs memory for a block of rows, not for the curve.

        Every 16th guess adds a user, so a block has 512 fractions to format.
        """
        n = 10**6
        curve = curve_from_increments(np.arange(n) % 16 == 0, n, METRIC_USERS)
        path = tmp_path / "curve.tsv"
        # A first small write, so that one-time allocations are not counted.
        write_curve_tsv(curve_from_increments(np.ones(50, dtype=np.int64), 50, METRIC_USERS), path, log_spaced)
        tracemalloc.start()
        try:
            write_curve_tsv(curve, path, log_spaced=log_spaced)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * tsvio.WRITE_BLOCK

    def test_cross_curve_bytes_per_row(self, monkeypatch):
        """``cross_curve`` holds the two columns' hash indexes and one int64 per guess.

        Each index is 16 bytes per row: sorted hashes and their order. The
        curve is summed in place over its increments, and the join works a
        block of guesses at a time. Shapes with ten times more target rows
        than guesses, and the reverse, separate the two per-row costs.
        Measured at about 16 B per target row and 24 B per guess here, with
        both indexes built in the call; given them, as a ``curve`` run does,
        it holds only the curve.
        """
        monkeypatch.setattr(column, "HASH_BLOCK", 1 << 10)
        monkeypatch.setattr(column, "JOIN_BLOCK", 1 << 10)
        block_bound = 64 * column.HASH_BLOCK + 128 * column.JOIN_BLOCK

        def tables(n_target, n_guesses):
            target = table_from_counter({b"pw%d" % i: 1 + (n_target - i) // 1000 for i in range(n_target)})
            source = table_from_counter({b"pw%d" % (2 * i): 1 + (n_guesses - i) // 1000 for i in range(n_guesses)})
            return GuessOrdering.from_table(source), target

        cross_curve(*tables(100, 100))
        for n_target, n_guesses in ((100_000, 10_000), (10_000, 100_000)):
            reference, target = tables(n_target, n_guesses)
            indexes = {
                "reference_index": reference.guesses.hash_index(order=True),
                "target_index": target.passwords.hash_index(order=True),
            }
            tracemalloc.start()
            try:
                cross_curve(reference, target)
                built = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                curve = cross_curve(reference, target, **indexes)
                given_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert curve == cross_curve(reference, target)
            assert built < 17 * n_target + 25 * n_guesses + block_bound
            assert given_peak < 8 * n_guesses + block_bound
