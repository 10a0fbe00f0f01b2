from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pwdist import zipf_fit
from pwdist.ingest import count_of_counts, table_from_counter, table_from_counts

import zipf_oracles as oracle
from pwdist.zipf_fit import (
    FLAG_BOUNDARY,
    FLAG_DEBIASED,
    FLAG_FLAT_SLOPE,
    FitError,
    METHOD_LS_BINNED,
    METHOD_LS_RAW,
    METHOD_MLE,
    METHOD_NK_BINNED,
    METHOD_NK_RAW,
    ZipfFit,
    _ad_ks_statistic,
    _golden_s,
    _log_ranks,
    _mle_core,
    _sorted_table,
    _zipf_probs,
    bin_dyadic_k,
    bin_dyadic_rank,
    bootstrap_p_value,
    ls_binned_rank,
    ls_nk,
    ls_raw_rank,
    mle_truncated_zipf,
    sample_zipf_counts,
)


def loglik_oracle(counts, s):
    """Truncated-Zipf log-likelihood computed independently with fsum."""
    m = sum(counts)
    a = math.fsum(c * math.log(i) for i, c in enumerate(counts, start=1))
    h = math.fsum(i ** (-s) for i in range(1, len(counts) + 1))
    return -s * a - m * math.log(h)


def score_oracle(counts, s):
    """Score and observed information of the same likelihood, with fsum.

    The score is sum_i (M p_i - f_i) ln i with p_i = i^-s / H(N, s), so at
    s = 0 equal counts give exactly 0.
    """
    m = sum(counts)
    w = [i ** (-s) for i in range(1, len(counts) + 1)]
    lr = [math.log(i) for i in range(1, len(counts) + 1)]
    h = math.fsum(w)
    g = math.fsum((m * wi / h - c) * li for wi, c, li in zip(w, counts, lr))
    mean = math.fsum(wi * li for wi, li in zip(w, lr)) / h
    var = math.fsum(wi * (li - mean) ** 2 for wi, li in zip(w, lr)) / h
    return g, m * var


def bisect_oracle_root(counts):
    """The root of the oracle score on [0, 64], by bisection."""
    lo, hi = 0.0, 64.0
    while hi - lo > 1e-13 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if score_oracle(counts, mid)[0] > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def golden_oracle(counts):
    """The golden-section search that defines the debiased exponent, every step evaluated."""
    arr = np.asarray(counts, dtype=np.int64)
    n, m = len(arr), float(arr.sum())
    lr = np.log(np.arange(1, n + 1, dtype=np.float64))
    a = float(arr @ lr)

    def score(s):
        w = np.exp(-s * lr)
        return -a + m * float(w @ lr) / float(w.sum())

    def neg_loglik(s):
        return s * a + m * math.log(float(np.exp(-s * lr).sum()))

    if score(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 10.0
    while score(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - golden * (hi - lo), lo + golden * (hi - lo)
    fc, fd = neg_loglik(c), neg_loglik(d)
    while hi - lo > 1e-9:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - golden * (hi - lo)
            fc = neg_loglik(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + golden * (hi - lo)
            fd = neg_loglik(d)
    return 0.5 * (lo + hi)


def sorted_sample(s, n, m, seed):
    sample = sample_zipf_counts(s, n, m, np.random.default_rng(seed))
    return np.sort(sample[sample > 0])[::-1]


class TestLsRaw:
    def test_exact_inverse_law(self, four_rank_table):
        fit = ls_raw_rank(four_rank_table)
        assert fit.method == METHOD_LS_RAW
        assert fit.s == pytest.approx(1.0, abs=1e-9)
        assert fit.truncation_N == 4
        assert fit.flag is None

    def test_exact_square_law(self):
        # 36 / r^2 is integral at ranks 1..3
        fit = ls_raw_rank(table_from_counts([36, 9, 4]))
        assert fit.s == pytest.approx(2.0, abs=1e-9)

    def test_flat_counts_flagged(self):
        fit = ls_raw_rank(table_from_counts([5, 5]))
        assert fit.s == 0.0
        assert fit.flag == FLAG_FLAT_SLOPE

    def test_single_rank_rejected(self):
        with pytest.raises(FitError):
            ls_raw_rank(table_from_counts([7]))


class TestDyadicRankBins:
    def test_hand_traced_bins(self, four_rank_table):
        # bin {4..7} is incomplete and dropped
        (x0, x1), (y0, y1) = bin_dyadic_rank(four_rank_table)
        assert y0 == 12.0 and y1 == 5.0
        assert x0 == pytest.approx(math.sqrt(2))
        assert x1 == pytest.approx(math.sqrt(2 * 4))

    def test_single_rank_single_bin(self):
        x, y = bin_dyadic_rank(table_from_counts([9]))
        assert x.tolist() == [math.sqrt(2)] and y.tolist() == [9.0]

    def test_seven_ranks_three_bins(self):
        x, y = bin_dyadic_rank(table_from_counts([7, 6, 5, 4, 3, 2, 1]))
        assert len(x) == len(y) == 3

    def test_eight_ranks_still_three_bins(self):
        x, y = bin_dyadic_rank(table_from_counts([8, 7, 6, 5, 4, 3, 2, 1]))
        assert len(x) == len(y) == 3  # bin {8..15} incomplete


class TestLsBinned:
    def test_exactly_collinear_dyadic_data(self):
        # bin means 16, 8, 4 at abscissae sqrt(2), sqrt(8), sqrt(32): slope -1
        fit = ls_binned_rank(table_from_counts([16, 8, 8, 4, 4, 4, 4]))
        assert fit.method == METHOD_LS_BINNED
        assert fit.s == pytest.approx(1.0, abs=1e-9)

    def test_recovers_generator_exponent(self):
        i = np.arange(1, 10**4 + 1, dtype=np.float64)
        counts = np.round(1e6 * i**-0.78).astype(int)
        fit = ls_binned_rank(table_from_counts(counts))
        assert fit.s == pytest.approx(0.78, abs=0.05)

    def test_needs_two_bins(self):
        with pytest.raises(FitError):
            ls_binned_rank(table_from_counts([3, 2]))  # bin {2,3} incomplete

    @pytest.mark.parametrize("s_true,scale", [(0.5, 30), (0.7, 60), (1.0, 200)])
    def test_binned_at_least_raw_on_heavy_tail(self, s_true, scale):
        # password tables end in a long run of frequency-1 entries, which is
        # flat in log-log space and drags the raw slope towards 0; binning
        # compresses the run and recovers the underlying law
        i = np.arange(1, 200001, dtype=np.float64)
        f = np.round(scale * i**-s_true)
        table = table_from_counts(f[f >= 1].astype(int))
        raw = ls_raw_rank(table).s
        binned = ls_binned_rank(table).s
        assert binned >= raw
        assert abs(binned - s_true) < abs(raw - s_true)


class TestLsNk:
    def test_two_point_slope(self):
        cc = count_of_counts(
            table_from_counter({b"p%d" % i: 1 for i in range(8)} | {b"q1": 2, b"q2": 2})
        )
        assert [a.tolist() for a in cc] == [[1, 2], [8, 2]]
        fit = ls_nk(cc, binned=False)
        assert fit.method == METHOD_NK_RAW
        assert fit.slope_m == pytest.approx(-2.0, abs=1e-9)
        assert fit.s == pytest.approx(1.0, abs=1e-9)

    def test_single_point_rejected(self):
        cc = count_of_counts(table_from_counts([3, 3]))
        with pytest.raises(FitError):
            ls_nk(cc, binned=False)

    def test_shallow_slope_rejected(self):
        cc = count_of_counts(table_from_counter({b"a": 1, b"b": 1, b"c": 2, b"d": 2}))
        assert [a.tolist() for a in cc] == [[1, 2], [2, 2]]  # slope 0 has no Zipf exponent
        with pytest.raises(FitError):
            ls_nk(cc, binned=False)

    def test_binned_hand_trace(self):
        # n_1=32; n_2=n_3=8; n_4=7, n_7=1 with 5,6 empty: bin means 32, 8, 2
        counter = {b"a%03d" % i: 1 for i in range(32)}
        counter |= {b"b%03d" % i: 2 for i in range(8)}
        counter |= {b"c%03d" % i: 3 for i in range(8)}
        counter |= {b"d%03d" % i: 4 for i in range(7)}
        counter |= {b"e000": 7}
        cc = count_of_counts(table_from_counter(counter))
        x, y = bin_dyadic_k(cc)
        assert y.tolist() == [32.0, 8.0, 2.0]
        fit = ls_nk(cc, binned=True)
        assert fit.method == METHOD_NK_BINNED
        assert fit.slope_m == pytest.approx(-2.0, abs=1e-9)
        assert fit.s == pytest.approx(1.0, abs=1e-9)

    def test_slope_within_rounding_of_minus_one_rejected(self):
        # Counts 5, 3 and 1 bin to a slope of -(1 + 2**-52), whose s would be 2**52.
        cc = count_of_counts(table_from_counts([5, 3, 1]))
        with pytest.raises(FitError, match="above 64"):
            ls_nk(cc, binned=True)

    def test_s_above_the_mle_cap_rejected(self):
        # n_k = 2 at k = 10000, and 1 at k = 19788 (s = 64.04) or 19787 (s = 63.74).
        with pytest.raises(FitError, match="above 64"):
            ls_nk((np.array([10000, 19788]), np.array([2, 1])))
        assert ls_nk((np.array([10000, 19787]), np.array([2, 1]))).s == pytest.approx(63.737, abs=1e-3)

    def test_incomplete_k_bin_dropped(self):
        cc = count_of_counts(table_from_counter({b"a": 1, b"b": 1, b"c": 2, b"d": 5}))
        x, y = bin_dyadic_k(cc)
        # k bins {1} and {2,3}; {4..7} incomplete because k_max = 5
        assert len(x) == len(y) == 2


class TestMle:
    def test_uniform_data_hits_boundary(self):
        fit = mle_truncated_zipf(table_from_counts([1] * 10))
        assert fit.s == 0.0
        assert fit.flag == FLAG_BOUNDARY
        assert fit.method == METHOD_MLE

    def test_truncation_is_distinct_count(self, four_rank_table):
        fit = mle_truncated_zipf(four_rank_table)
        assert fit.truncation_N == 4
        assert fit.stderr is not None and fit.stderr > 0

    def test_likelihood_maximality(self):
        rng = np.random.default_rng(11)
        sample = sample_zipf_counts(0.6, 2000, 30000, rng)
        table = table_from_counts(np.sort(sample[sample > 0])[::-1])
        fit = mle_truncated_zipf(table)
        counts = table.counts.tolist()
        at_max = loglik_oracle(counts, fit.s)
        assert at_max >= loglik_oracle(counts, fit.s + 1e-3)
        assert at_max >= loglik_oracle(counts, max(fit.s - 1e-3, 0.0))

    def test_sample_then_recover_within_three_stderr(self):
        rng = np.random.default_rng(4242)
        sample = sample_zipf_counts(0.7, 10**4, 10**5, rng)
        table = table_from_counts(np.sort(sample[sample > 0])[::-1])
        fit = mle_truncated_zipf(table, bias_correction=True, seed=1)
        assert abs(fit.s - 0.7) <= 3 * fit.stderr

    def test_plain_fit_is_deterministic(self):
        table = table_from_counts([40, 21, 9, 7, 7, 3, 2, 1, 1, 1])
        assert mle_truncated_zipf(table).s == mle_truncated_zipf(table).s

    @pytest.mark.parametrize(
        "s_true,n,m,seed", [(0.78, 20000, 400000, 3), (0.7, 2000, 30000, 11), (0.6, 2000, 30000, 11)]
    )
    def test_newton_step_at_fit_is_negligible(self, s_true, n, m, seed):
        sample = sample_zipf_counts(s_true, n, m, np.random.default_rng(seed))
        table = table_from_counts(np.sort(sample[sample > 0])[::-1])
        fit = mle_truncated_zipf(table)
        g, info = score_oracle(table.counts.tolist(), fit.s)
        assert abs(g / info) <= 1e-10 * fit.s

    def test_cap_is_evaluated_at_64(self):
        # The MLE solves 10^15 * 2^-s = 1, beyond the old doubling bracket of 40.
        fit = mle_truncated_zipf(table_from_counts([10**15, 1]))
        assert fit.s == pytest.approx(15 * math.log2(10))
        assert fit.flag is None

    @given(st.lists(st.integers(1, 50), min_size=2, max_size=12))
    def test_matches_oracle_bisection_and_warm_starts(self, values):
        counts = sorted(values, reverse=True)
        arr = np.array(counts, dtype=np.int64)
        s, _, flag = _mle_core(arr)
        assert (flag == FLAG_BOUNDARY) == (score_oracle(counts, 0.0)[0] <= 0.0)
        if flag is None:
            assert s == pytest.approx(bisect_oracle_root(counts), abs=1e-9)
        else:
            assert s == 0.0
        for s0 in (0.1, s, 10.0):
            s_warm, _, flag_warm = _mle_core(arr, s0=s0)
            assert flag_warm == flag
            assert math.isclose(s_warm, s, rel_tol=1e-12)

    def test_score_noise_above_the_step_tolerance_still_converges(self, monkeypatch):
        # Relative noise of 1e-8 in the weights, drawn afresh for every s,
        # puts the step's noise far above 1e-12, so only the collapsing
        # bracket can stop Newton.
        counts = sorted_sample(0.78, 2000, 40000, 5)
        exact, _, _ = _mle_core(counts)
        clean = zipf_fit._rank_weights

        def noisy(s, lr):
            w = clean(s, lr)
            return w * (1.0 + 1e-8 * np.random.default_rng(abs(hash(s))).standard_normal(len(w)))

        monkeypatch.setattr(zipf_fit, "_rank_weights", noisy)
        s, _, flag = _mle_core(counts)
        assert flag is None
        assert s == pytest.approx(exact, rel=1e-6)

    def test_too_small_rejected(self):
        with pytest.raises(FitError):
            mle_truncated_zipf(table_from_counts([5]))


class TestGoldenSearch:
    @pytest.mark.parametrize(
        "s_true,n,m,seed",
        [(0.78, 40000, 800000, 0), (0.78, 2000, 40000, 1), (0.7, 2000, 30000, 11), (2.5, 500, 3000, 2)],
    )
    def test_matches_the_full_search_bit_for_bit(self, s_true, n, m, seed):
        counts = sorted_sample(s_true, n, m, seed)
        assert _golden_s(counts, _log_ranks(n)) == golden_oracle(counts)
        assert _golden_s(counts, _log_ranks(n), s_true) == golden_oracle(counts)

    @given(st.lists(st.integers(1, 50), min_size=2, max_size=12))
    def test_matches_the_full_search_on_small_tables(self, values):
        counts = np.array(sorted(values, reverse=True), dtype=np.int64)
        assert _golden_s(counts, _log_ranks(len(counts))) == golden_oracle(counts)

    def test_debiased_fit_runs_on_the_full_search(self, monkeypatch):
        table = table_from_counts(sorted_sample(0.78, 1000, 20000, 3))
        fit = mle_truncated_zipf(table, bias_correction=True, seed=4)
        monkeypatch.setattr(zipf_fit, "_golden_s", lambda counts, lr, s0=0.0: golden_oracle(counts))
        assert mle_truncated_zipf(table, bias_correction=True, seed=4).s == fit.s


class TestSampling:
    def test_counts_conserved(self):
        rng = np.random.default_rng(0)
        counts = sample_zipf_counts(0.8, 100, 5000, rng)
        assert counts.sum() == 5000
        assert len(counts) == 100


class TestBootstrap:
    def _zipf_table(self, seed, s=0.7, n=1000, m=20000):
        rng = np.random.default_rng(seed)
        sample = sample_zipf_counts(s, n, m, rng)
        return table_from_counts(np.sort(sample[sample > 0])[::-1])

    def test_replicates_validated(self, four_rank_table):
        fit = mle_truncated_zipf(four_rank_table)
        with pytest.raises(ValueError):
            bootstrap_p_value(four_rank_table, fit, replicates=0)

    def test_requires_mle_fit(self, four_rank_table):
        with pytest.raises(ValueError):
            bootstrap_p_value(four_rank_table, ls_raw_rank(four_rank_table), replicates=10)

    def test_debiased_fit_is_tested_at_the_plain_fit(self):
        table = self._zipf_table(3)
        plain = mle_truncated_zipf(table)
        debiased = mle_truncated_zipf(table, bias_correction=True, seed=1)
        assert debiased.flag == FLAG_DEBIASED and debiased.s != plain.s
        p_plain = bootstrap_p_value(table, plain, replicates=20, seed=9)
        assert bootstrap_p_value(table, debiased, replicates=20, seed=9) == p_plain

    def test_p_value_in_range_and_deterministic(self):
        table = self._zipf_table(3)
        fit = mle_truncated_zipf(table)
        p1 = bootstrap_p_value(table, fit, replicates=40, seed=9)
        p2 = bootstrap_p_value(table, fit, replicates=40, seed=9)
        assert p1 == p2
        assert 0.0 <= p1 <= 1.0

    def test_zipf_data_not_rejected(self):
        table = self._zipf_table(501)
        fit = mle_truncated_zipf(table)
        assert bootstrap_p_value(table, fit, replicates=60, seed=2) > 0.05

    def test_geometric_data_rejected(self):
        rng = np.random.default_rng(77)
        r = np.arange(1, 1001, dtype=np.float64)
        p = (1 - 0.004) ** r
        p /= p.sum()
        sample = rng.multinomial(20000, p)
        table = table_from_counts(np.sort(sample[sample > 0])[::-1])
        fit = mle_truncated_zipf(table)
        assert bootstrap_p_value(table, fit, replicates=60, seed=2) < 0.05


class TestSharedBuffersMatchFreshArrays:
    """The fits and the statistic on shared ln-rank arrays and buffers equal
    the fresh-array versions of ``zipf_oracles`` exactly."""

    # Tables above 10,000 ranks, where OpenBLAS may split a dot product
    # between threads, and below; then tables of one rank less than a block
    # of the statistic, one block, one rank more, and two blocks and a rank.
    TABLES = [
        (0.78, 40000, 800000, 0),
        (0.78, 15000, 20000, 3),
        (0.7, 2000, 30000, 11),
        (2.5, 500, 3000, 2),
        (0.78, 10000, 39000, 189),
        (0.78, 10000, 39000, 43),
        (0.78, 10000, 39000, 78),
        (0.78, 20000, 79000, 179),
    ]

    def test_tables_straddle_statistic_blocks(self):
        ranks = [len(sorted_sample(*table)) for table in self.TABLES[4:]]
        block = zipf_fit._STAT_BLOCK
        assert ranks == [block - 1, block, block + 1, 2 * block + 1]

    @pytest.mark.parametrize("s_true,n,m,seed", TABLES)
    def test_mle_core(self, s_true, n, m, seed):
        counts = sorted_sample(s_true, n, m, seed)
        shared = _log_ranks(n + 7)
        expected = oracle.mle_core(counts)
        assert _mle_core(counts) == expected
        assert _mle_core(counts, shared) == expected
        assert _mle_core(counts, shared, s_true) == oracle.mle_core(counts, oracle.log_ranks(n), s_true)

    @pytest.mark.parametrize("s_true,n,m,seed", TABLES)
    def test_golden_s(self, s_true, n, m, seed):
        counts = sorted_sample(s_true, n, m, seed)
        expected = oracle.golden_s(counts, oracle.log_ranks(n), s_true)
        assert _golden_s(counts, _log_ranks(n), s_true) == expected

    @pytest.mark.parametrize("s_true,n,m,seed", TABLES)
    def test_statistic_across_replicates(self, s_true, n, m, seed):
        # One table's ln ranks, reused by replicates of fewer ranks, as the bootstrap does.
        counts = sorted_sample(s_true, n, m, seed)
        ranks = _log_ranks(len(counts))
        lr = oracle.log_ranks(len(counts))
        s = oracle.mle_core(counts)[0]
        assert _ad_ks_statistic(counts, s, ranks) == oracle.ad_ks_statistic(counts, s, lr)
        p = _zipf_probs(s, len(counts))
        for i in range(3):
            sample = np.random.default_rng(i).multinomial(m, p)
            rep = np.sort(sample[sample > 0])[::-1]
            s_rep = oracle.mle_core(rep, lr, s)[0]
            assert _mle_core(rep, ranks, s)[0] == s_rep
            assert _ad_ks_statistic(rep, s_rep, ranks) == oracle.ad_ks_statistic(rep, s_rep, lr)

    def test_statistic_on_one_rank_is_zero(self):
        # Both CDFs are 1 at the one rank, which the sup excludes.
        counts = np.array([3])
        assert _ad_ks_statistic(counts, 0.0, _log_ranks(4)) == 0.0
        assert oracle.ad_ks_statistic(counts, 0.0, oracle.log_ranks(4)) == 0.0

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    def test_sorted_table(self, values):
        sample = np.array(values, dtype=np.int64)
        expected = np.sort(sample[sample > 0])[::-1]
        assert np.array_equal(_sorted_table(sample.copy()), expected)

    def test_bootstrap_p_value(self, monkeypatch):
        table = table_from_counts(sorted_sample(0.78, 12000, 30000, 5))
        fit = mle_truncated_zipf(table)
        p = bootstrap_p_value(table, fit, replicates=6, seed=3)
        monkeypatch.setattr(zipf_fit, "_mle_core", lambda c, ranks=None, s0=0.0: oracle.mle_core(c, None, s0))
        monkeypatch.setattr(
            zipf_fit,
            "_ad_ks_statistic",
            lambda c, s, ranks: oracle.ad_ks_statistic(c, s, oracle.log_ranks(len(c))),
        )
        assert bootstrap_p_value(table, fit, replicates=6, seed=3) == p

    def test_bootstrap_memory_per_rank(self):
        """The bootstrap's transient, as ``tracemalloc`` traces it, per rank of a
        sparse table shaped like the sparse-tail benchmark's (about 187,000 ranks).

        It holds ln r, its square, the weights, the model probabilities and a
        replicate's draw, 40 B/rank. Each draw is let go before the next one is
        made, so the peak, about 46 B/rank, adds only the float copy of a
        replicate's counts that ``counts @ lr`` makes in ``_mle_core``; a draw
        kept into the next one would make it 48. Statistic buffers spanning the
        ranks would add 16 B/rank.
        """
        table = table_from_counts(sorted_sample(0.78, 600000, 400000, 1))
        fit = mle_truncated_zipf(table)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            bootstrap_p_value(table, fit, replicates=2, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / table.distinct_count < 47.0
