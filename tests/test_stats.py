from __future__ import annotations

import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pwdist.ingest import table_from_counter, table_from_counts
from pwdist.stats import (
    KIND_EMPIRICAL,
    KIND_UNIFORM,
    KIND_ZIPF,
    alpha_guesswork,
    check_probs,
    compute_stats,
    empirical_model,
    guesswork,
    min_entropy,
    renyi_half_entropy,
    shannon_entropy,
    stats_report,
    uniform_model,
    zipf_model,
)
from pwdist.zipf_fit import mle_truncated_zipf, sample_zipf_counts


# Brute-force oracles: plain fsum loops, independent of the array code.

def oracle_guesswork(probs):
    return math.fsum(i * p for i, p in enumerate(probs, start=1))


def oracle_alpha_guesswork(probs, alpha):
    cum = 0.0
    for r, p in enumerate(probs, start=1):
        cum += p
        if cum >= alpha:
            return r, math.fsum(i * q for i, q in enumerate(probs[:r], start=1))
    return len(probs), oracle_guesswork(probs)


def oracle_shannon(probs):
    return -math.fsum(p * math.log2(p) for p in probs if p > 0)


def oracle_min_entropy(probs):
    return -math.log2(max(probs))


def oracle_renyi(probs):
    return 2.0 * math.log2(math.fsum(math.sqrt(p) for p in probs))


def sorted_random_probs(rng, k):
    p = rng.random(k) + 1e-9
    p /= p.sum()
    return np.sort(p)[::-1]


probs_strategy = (
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12)
    .map(lambda ws: sorted([w / math.fsum(ws) for w in ws], reverse=True))
)


class TestModels:
    def test_empirical_hand_values(self):
        model = empirical_model(table_from_counts([2, 1, 1]))
        assert model == pytest.approx([0.5, 0.25, 0.25])

    def test_empirical_single(self):
        assert empirical_model(table_from_counts([7])) == pytest.approx([1.0])

    def test_empirical_symmetric(self):
        assert empirical_model(table_from_counts([1, 1])) == pytest.approx([0.5, 0.5])

    def test_uniform(self):
        assert uniform_model(4) == pytest.approx([0.25] * 4)
        assert uniform_model(1) == pytest.approx([1.0])
        with pytest.raises(ValueError):
            uniform_model(0)

    def test_zipf_s0_is_uniform(self):
        assert zipf_model(0.0, 5) == pytest.approx([0.2] * 5)

    def test_zipf_hand_values(self):
        model = zipf_model(1.0, 2)
        assert model == pytest.approx([2 / 3, 1 / 3])
        assert model[0] == pytest.approx(2 / 3)  # P_1 = K
        assert zipf_model(1.0, 1) == pytest.approx([1.0])

    def test_zipf_s0_matches_uniform_elementwise(self):
        z = zipf_model(0.0, 1000)
        u = uniform_model(1000)
        assert np.max(np.abs(z - u)) < 1e-12

    def test_validation_rejects_increasing(self):
        with pytest.raises(ValueError):
            check_probs(np.array([0.2, 0.8]))

    @pytest.mark.parametrize("probs", [[], [1.0, 0.0], [0.5, 0.4], [0.5, np.nan]])
    def test_validation_rejects_non_distributions(self, probs):
        with pytest.raises(ValueError):
            check_probs(probs)

    def test_builders_return_float64_arrays(self):
        for p in (empirical_model(table_from_counts([2, 1, 1])), uniform_model(3), zipf_model(0.5, 3)):
            assert isinstance(p, np.ndarray) and p.dtype == np.float64
            assert check_probs(p) is p


class TestGuesswork:
    def test_uniform_three(self):
        assert guesswork(uniform_model(3)) == pytest.approx(2.0)

    def test_hand_summation(self):
        model = empirical_model(table_from_counts([2, 1, 1]))
        assert guesswork(model) == pytest.approx(1.75, abs=1e-12)

    def test_single(self):
        assert guesswork(uniform_model(1)) == pytest.approx(1.0)

    def test_matches_oracle_on_random_models(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            p = sorted_random_probs(rng, int(rng.integers(1, 9)))
            assert guesswork(p) == pytest.approx(oracle_guesswork(p.tolist()), abs=1e-12)

    def test_sorted_order_is_optimal_small(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = sorted_random_probs(rng, 5)
            g = guesswork(p)
            for perm in permutations(range(5)):
                permuted = sum((i + 1) * p[j] for i, j in enumerate(perm))
                assert g <= permuted + 1e-12


class TestAlphaGuesswork:
    def test_stops_at_first_rank(self):
        assert alpha_guesswork(np.array([0.9, 0.1]), 0.85) == (1, pytest.approx(0.9))

    def test_runs_to_the_end(self):
        model = empirical_model(table_from_counts([2, 1, 1]))
        r, g = alpha_guesswork(model, 0.85)
        assert r == 3
        assert g == pytest.approx(1.75)

    def test_alpha_one_equals_guesswork_exactly(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            p = sorted_random_probs(rng, int(rng.integers(1, 12)))
            r, g = alpha_guesswork(p, 1.0)
            assert r == len(p)
            assert g == guesswork(p)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            alpha_guesswork(uniform_model(3), 0.0)
        with pytest.raises(ValueError):
            alpha_guesswork(uniform_model(3), 1.5)


class TestEntropies:
    def test_uniform_all_coincide(self):
        model = uniform_model(4)
        assert shannon_entropy(model) == pytest.approx(2.0)
        assert min_entropy(model) == pytest.approx(2.0)
        assert renyi_half_entropy(model) == pytest.approx(2.0)

    def test_hand_values(self):
        model = empirical_model(table_from_counts([2, 1, 1]))
        assert shannon_entropy(model) == pytest.approx(1.5)
        assert min_entropy(model) == pytest.approx(1.0)
        assert renyi_half_entropy(model) == pytest.approx(2 * math.log2(1.70710678), abs=1e-7)

    def test_degenerate_all_zero(self):
        model = uniform_model(1)
        assert shannon_entropy(model) == 0.0
        assert min_entropy(model) == 0.0
        assert renyi_half_entropy(model) == pytest.approx(0.0)

    @given(probs_strategy)
    def test_entropy_chain(self, probs):
        model = np.array(probs)
        h = shannon_entropy(model)
        assert min_entropy(model) <= h + 1e-12
        assert h <= renyi_half_entropy(model) + 1e-12

    def test_relabelling_invariance(self):
        t1 = table_from_counter({b"alpha": 3, b"beta": 2, b"gamma": 2})
        t2 = table_from_counter({b"x": 3, b"y": 2, b"z": 2})
        s1 = compute_stats(empirical_model(t1))
        s2 = compute_stats(empirical_model(t2))
        assert s1 == s2


class TestStatsReport:
    def test_uniform_table_collapses_models(self):
        table = table_from_counts([1] * 16)
        fit = mle_truncated_zipf(table)  # boundary fit, s = 0
        report = stats_report(table, fit.s)
        for field in ("guesswork_G", "shannon_H", "min_entropy", "renyi_R"):
            vals = {kind: getattr(report[kind], field) for kind in report}
            assert vals[KIND_UNIFORM] == pytest.approx(vals[KIND_EMPIRICAL], abs=1e-9)
            assert vals[KIND_UNIFORM] == pytest.approx(vals[KIND_ZIPF], abs=1e-9)

    def test_zipf_sample_guesswork_within_factor_two(self):
        rng = np.random.default_rng(99)
        sample = sample_zipf_counts(0.78, 20000, 60000, rng)
        table = table_from_counts(np.sort(sample[sample > 0])[::-1])
        fit = mle_truncated_zipf(table)
        report = stats_report(table, fit.s)
        ratio = report[KIND_EMPIRICAL].guesswork_G / report[KIND_ZIPF].guesswork_G
        assert 0.5 <= ratio <= 2.0

    def test_uniform_model_overestimates_skewed_guesswork(self):
        # a skewed table: the uniform model predicts more required guesses
        table = table_from_counts([500, 120, 40, 20] + [1] * 400)
        fit = mle_truncated_zipf(table)
        report = stats_report(table, fit.s)
        assert report[KIND_UNIFORM].guesswork_G > report[KIND_EMPIRICAL].guesswork_G

    def test_alpha_recorded(self, four_rank_table):
        report = stats_report(four_rank_table, mle_truncated_zipf(four_rank_table).s, alpha=0.6)
        assert all(st.alpha == 0.6 for st in report.values())
