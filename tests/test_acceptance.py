"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output) and asserts its stated runtime budget.
"""

from __future__ import annotations

import filecmp
import json
import math
import time
from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from pwdist.cli import EXIT_OK, main
from pwdist.crack import crack, hash_corpus
from pwdist.crossguess import (
    GuessOrdering,
    METRIC_DISTINCT,
    METRIC_USERS,
    cross_curve,
    self_curve,
    truncate_reaggregate,
)
from pwdist.ingest import table_from_counter, table_from_counts
from pwdist.mh_uniform import simulate
from pwdist.stats import (
    alpha_guesswork,
    guesswork,
    min_entropy,
    renyi_half_entropy,
    shannon_entropy,
    zipf_model,
)
from pwdist.zipf_fit import (
    bootstrap_p_value,
    ls_binned_rank,
    mle_truncated_zipf,
    sample_zipf_counts,
)

from conftest import random_table
from mh_oracles import CountMinCounter


def report(n, message, started, budget):
    elapsed = time.time() - started
    print(f"\nACCEPTANCE {n} PASS: {message} ({elapsed:.1f}s)")
    assert elapsed < budget


def test_01_statistics_match_brute_force_oracle():
    started = time.time()
    rng = np.random.default_rng(17)
    for case in range(200):
        k = int(rng.integers(1, 9))
        p = np.sort(rng.random(k) + 1e-6)[::-1]
        p /= p.sum()
        probs = p.tolist()
        alpha = float(rng.uniform(0.05, 1.0))
        assert guesswork(p) == pytest.approx(
            math.fsum(i * q for i, q in enumerate(probs, 1)), abs=1e-12
        )
        r_a, g_a = alpha_guesswork(p, alpha)
        cum = 0.0
        r_oracle = len(probs)
        for i, q in enumerate(probs, 1):
            cum += q
            if cum >= alpha:
                r_oracle = i
                break
        assert r_a == r_oracle
        assert g_a == pytest.approx(
            math.fsum(i * q for i, q in enumerate(probs[:r_a], 1)), abs=1e-12
        )
        assert shannon_entropy(p) == pytest.approx(
            -math.fsum(q * math.log2(q) for q in probs), abs=1e-12
        )
        assert min_entropy(p) == pytest.approx(-math.log2(max(probs)), abs=1e-12)
        assert renyi_half_entropy(p) == pytest.approx(
            2 * math.log2(math.fsum(math.sqrt(q) for q in probs)), abs=1e-12
        )
    # exhaustive optimality of the sorted order over all 8! orderings
    for case in range(20):
        p = rng.random(8) + 1e-6
        p /= p.sum()
        p_sorted = np.sort(p)[::-1]
        g = guesswork(p_sorted)
        for perm in permutations(range(8)):
            assert g <= sum((i + 1) * p_sorted[j] for i, j in enumerate(perm)) + 1e-12
    report(1, "statistics equal brute-force oracles; sorted order optimal over 8!", started, 10)


def test_02_mle_recovers_generator_within_three_stderr():
    started = time.time()
    hits = 0
    total = 0
    for s_true, runs in ((0.3, 14), (0.7, 13), (1.0, 13)):
        for _ in range(runs):
            seed = 1000 + total
            rng = np.random.default_rng(seed)
            sample = sample_zipf_counts(s_true, 10**4, 10**5, rng)
            table = table_from_counts(np.sort(sample[sample > 0])[::-1])
            fit = mle_truncated_zipf(table, bias_correction=True, seed=seed)
            hits += abs(fit.s - s_true) <= 3 * fit.stderr
            total += 1
    assert total == 40
    assert hits >= 0.95 * total
    report(2, f"MLE within 3 stderr of the generator in {hits}/40 corpora", started, 120)


def test_03_binned_least_squares_recovers_078():
    started = time.time()
    i = np.arange(1, 10**4 + 1, dtype=np.float64)
    table = table_from_counts(np.round(1e6 * i**-0.78).astype(int))
    fit = ls_binned_rank(table)
    assert fit.s == pytest.approx(0.78, abs=0.05)
    report(3, f"binned least squares recovered s = {fit.s:.3f} (target 0.78 +/- 0.05)", started, 10)


def test_04_bootstrap_p_value_calibration():
    started = time.time()
    null_ok = 0
    for k in range(20):
        rng = np.random.default_rng(1300 + k)
        sample = sample_zipf_counts(0.7, 1000, 20000, rng)
        table = table_from_counts(np.sort(sample[sample > 0])[::-1])
        fit = mle_truncated_zipf(table)
        null_ok += bootstrap_p_value(table, fit, replicates=100, seed=1300 + k) > 0.05
    assert null_ok >= 17
    geom_ok = 0
    r = np.arange(1, 1001, dtype=np.float64)
    geom = (1 - 0.004) ** r
    geom /= geom.sum()
    for k in range(20):
        rng = np.random.default_rng(4300 + k)
        sample = rng.multinomial(20000, geom)
        table = table_from_counts(np.sort(sample[sample > 0])[::-1])
        fit = mle_truncated_zipf(table)
        geom_ok += bootstrap_p_value(table, fit, replicates=100, seed=4300 + k) < 0.05
    assert geom_ok >= 17
    report(
        4,
        f"p-value above 0.05 in {null_ok}/20 Zipf runs, below 0.05 in {geom_ok}/20 geometric runs",
        started,
        300,
    )


def test_05_cross_guess_dominance_and_identity():
    started = time.time()
    rng = np.random.default_rng(23)
    for pair in range(500):
        target = random_table(rng)
        reference = GuessOrdering.from_table(random_table(rng))
        for metric in (METRIC_USERS, METRIC_DISTINCT):
            cross = cross_curve(reference, target, metric)
            own = self_curve(target, metric)
            for t in range(1, len(reference.guesses) + 1):
                assert cross.cumulative_at(t) <= own.cumulative_at(t)
        identity = cross_curve(GuessOrdering.from_table(target), target, METRIC_USERS)
        own = self_curve(target, METRIC_USERS)
        for t in range(1, target.distinct_count + 1):
            assert identity.cumulative_at(t) == own.cumulative_at(t)
    report(5, "C(t||ref) <= C(t) on 500 random pairs, equal under the target's own order", started, 30)


def test_06_crack_curve_equals_truncated_self_curve():
    started = time.time()
    for k in range(20):
        rng = np.random.default_rng(600 + k)
        n_users = int(rng.integers(1500, 4000))
        n_pool = int(rng.integers(40, 400))
        pool = [b"password%04d" % i for i in range(n_pool // 2)]
        pool += [b"pw%04d" % i for i in range(n_pool - len(pool))]
        weights = 1.0 / np.arange(1, len(pool) + 1, dtype=np.float64) ** 0.8
        weights /= weights.sum()
        picks = rng.choice(len(pool), size=n_users, p=weights)
        users = [b"u%d" % i for i in range(n_users)]
        passwords = [pool[int(j)] for j in picks]
        table = table_from_counter(Counter(passwords), tie_break_seed=k)
        truncated = truncate_reaggregate(table, 8, tie_break_seed=k)
        salt_count = int(rng.integers(4, 65))
        corpus = hash_corpus(users, passwords, salt_seed=k, salt_count=salt_count)
        result = crack(corpus, GuessOrdering.from_table(truncated))
        own = self_curve(truncated, METRIC_USERS)
        assert result.curve_users == own
        assert result.uncracked_count == 0
    report(6, "crack recovery equals the truncated table's self-curve on 20 corpora", started, 60)


def test_07_mh_flattening_at_scale():
    started = time.time()
    n = 10**5
    probs = zipf_model(0.78, n)
    passwords = [b"p%08d" % i for i in range(1, n + 1)]
    result = simulate(probs, passwords, 10**5, seed=42)
    max_accepted = result.accepted_table.counts[0]
    max_free = result.free_table.counts[0]
    assert max_free >= 50 * max_accepted
    assert 1.05 <= result.mean_asks <= 1.7
    report(
        7,
        f"max accepted frequency {max_accepted} vs free {max_free} "
        f"({max_free / max_accepted:.0f}x), mean asks {result.mean_asks:.2f}",
        started,
        120,
    )


def test_08_count_min_soundness_at_default_size():
    started = time.time()
    sketch = CountMinCounter(width=1 << 18, depth=4, master_seed=3)
    shadow: dict[bytes, int] = {}
    rng = np.random.default_rng(31)
    n_keys = 20000
    keys = [b"key%06d" % i for i in range(n_keys)]
    weights = 1.0 / np.arange(1, n_keys + 1, dtype=np.float64) ** 0.7
    weights /= weights.sum()
    for idx in rng.choice(n_keys, size=10**5, p=weights):
        key = keys[int(idx)]
        sketch.increment(key)
        shadow[key] = shadow.get(key, 0) + 1
    overestimates = []
    for key, true_count in shadow.items():
        estimate = sketch.query(key)
        assert estimate >= true_count
        overestimates.append(estimate - true_count)
    mean_over = float(np.mean(overestimates))
    assert mean_over <= 1.0
    report(
        8,
        f"count-min never undercounts {len(shadow)} keys; mean overestimate {mean_over:.3f}",
        started,
        30,
    )


def test_09_cli_reruns_are_byte_identical(tmp_path):
    started = time.time()
    corpus = tmp_path / "corpus.txt"
    lines = [b"123456"] * 12 + [b"qwerty"] * 6 + [b"dragon"] * 4 + [b"letmein"] * 3
    corpus.write_bytes(b"\n".join(lines) + b"\n")
    words = tmp_path / "words.txt"
    words.write_bytes(b"dragon\n123456\nzzz\n")
    config = tmp_path / "sim.cfg"
    config.write_text("source = zipf\ns = 0.8\nn-ranks = 300\nn-users = 2000\nseed = 7\n")

    table_dir = tmp_path / "table"
    assert main(["ingest", str(corpus), "--out-dir", str(table_dir), "--seed", "3"]) == EXIT_OK
    table = table_dir / "table.tsv"

    invocations = {
        "ingest": ["ingest", str(corpus), "--seed", "3"],
        "fit": ["fit", "--table", str(table), "--replicates", "50", "--seed", "9"],
        "stats": ["stats", "--table", str(table)],
        "curve": ["curve", "--target", str(table), "--reference", str(table)],
        "crack": [
            "crack",
            "--corpus", str(corpus),
            "--salt-count", "8",
            "--ordering", str(table),
            "--seed", "5",
        ],
        "mh-sim": ["mh-sim", "--config", str(config)],
    }
    for name, argv in invocations.items():
        out_a = tmp_path / f"{name}-a"
        out_b = tmp_path / f"{name}-b"
        assert main(argv + ["--out-dir", str(out_a)]) == EXIT_OK
        assert main(argv + ["--out-dir", str(out_b)]) == EXIT_OK
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b and files_a
        for fname in files_a:
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes(), (
                f"{name}: {fname} differs between reruns"
            )
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert manifest["command"] == name
    report(9, "all six subcommands reproduce byte-identical outputs", started, 60)
