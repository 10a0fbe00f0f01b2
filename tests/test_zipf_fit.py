from __future__ import annotations

import math

import numpy as np
import pytest

from pwdist.ingest import count_of_counts, table_from_counter, table_from_counts
from pwdist.zipf_fit import (
    FLAG_BOUNDARY,
    FLAG_FLAT_SLOPE,
    FitError,
    METHOD_LS_BINNED,
    METHOD_LS_RAW,
    METHOD_MLE,
    METHOD_NK_BINNED,
    METHOD_NK_RAW,
    ZipfFit,
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
        series = bin_dyadic_rank(four_rank_table)
        assert len(series.points) == 2  # bin {4..7} is incomplete and dropped
        (x0, y0), (x1, y1) = series.points
        assert y0 == 12.0 and y1 == 5.0
        assert x0 == pytest.approx(math.sqrt(2))
        assert x1 == pytest.approx(math.sqrt(2 * 4))

    def test_single_rank_single_bin(self):
        series = bin_dyadic_rank(table_from_counts([9]))
        assert len(series.points) == 1
        assert series.points[0][1] == 9.0

    def test_seven_ranks_three_bins(self):
        series = bin_dyadic_rank(table_from_counts([7, 6, 5, 4, 3, 2, 1]))
        assert len(series.points) == 3

    def test_eight_ranks_still_three_bins(self):
        series = bin_dyadic_rank(table_from_counts([8, 7, 6, 5, 4, 3, 2, 1]))
        assert len(series.points) == 3  # bin {8..15} incomplete


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
        assert cc.pairs == [(1, 8), (2, 2)]
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
        assert cc.pairs == [(1, 2), (2, 2)]  # slope 0 has no Zipf exponent
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
        series = bin_dyadic_k(cc)
        assert [y for _, y in series.points] == [32.0, 8.0, 2.0]
        fit = ls_nk(cc, binned=True)
        assert fit.method == METHOD_NK_BINNED
        assert fit.slope_m == pytest.approx(-2.0, abs=1e-9)
        assert fit.s == pytest.approx(1.0, abs=1e-9)

    def test_incomplete_k_bin_dropped(self):
        cc = count_of_counts(table_from_counter({b"a": 1, b"b": 1, b"c": 2, b"d": 5}))
        series = bin_dyadic_k(cc)
        # k bins {1} and {2,3}; {4..7} incomplete because k_max = 5
        assert len(series.points) == 2


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

    def test_too_small_rejected(self):
        with pytest.raises(FitError):
            mle_truncated_zipf(table_from_counts([5]))


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
