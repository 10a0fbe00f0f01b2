from __future__ import annotations

import hashlib
import math
import tracemalloc
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwdist import mh_uniform
from pwdist.cli import main
from pwdist.mh_uniform import (
    DEFAULT_RETRY_CAP,
    MAX_COUNTERS,
    PROPOSAL_BATCH,
    BannedExhaustionError,
    CountMinStore,
    count_type,
    simulate,
    zipf_labels,
)
from pwdist.stats import uniform_model, zipf_model

from conftest import rows
from mh_oracles import (
    CountMinCounter,
    ExactCounter,
    ProposalLog,
    RawStream,
    mh_session,
    reference_simulate,
    report_fields,
)


class FakeRng:
    """Deterministic stand-in: queued uniform draws, queued integer draws."""

    def __init__(self, randoms=(), integers=()):
        self._randoms = list(randoms)
        self._integers = list(integers)

    def random(self):
        return self._randoms.pop(0)

    def integers(self, lo, hi):
        return self._integers.pop(0)


class TestExactStore:
    def test_fresh_key_is_zero(self):
        store = ExactCounter()
        assert store.query(b"nothing") == 0

    def test_counts_increments(self):
        store = ExactCounter()
        for _ in range(3):
            store.increment(b"k")
        assert store.query(b"k") == 3
        assert store.totals == 3


class TestCountMin:
    def test_fresh_key_is_zero(self):
        store = CountMinCounter(width=64, depth=3, master_seed=1)
        assert store.query(b"nothing") == 0

    def test_exact_when_alone(self):
        store = CountMinCounter(width=2048, depth=4, master_seed=1)
        for _ in range(5):
            store.increment(b"solo")
        assert store.query(b"solo") == 5

    def test_increment_then_query(self):
        sketch = CountMinCounter(width=32, depth=2, master_seed=0)
        sketch.increment(b"k")
        assert sketch.query(b"k") == 1

    def test_hash_evaluations_count_row_hashes(self):
        sketch = CountMinCounter(width=32, depth=3, master_seed=0)
        sketch.increment(b"k")
        sketch.query(b"k")
        assert sketch.hash_evaluations == 6
        assert ExactCounter().hash_evaluations == 0

    def test_never_underestimates_and_bounded_overestimate(self):
        rng = np.random.default_rng(12)
        sketch = CountMinCounter(width=2048, depth=4, master_seed=7)
        shadow: Counter[bytes] = Counter()
        keys = [b"key%05d" % i for i in range(1500)]
        weights = 1.0 / np.arange(1, len(keys) + 1)
        weights /= weights.sum()
        for idx in rng.choice(len(keys), size=10**4, p=weights):
            key = keys[int(idx)]
            sketch.increment(key)
            shadow[key] += 1
        assert sketch.totals == 10**4
        bound = math.e * sketch.totals / sketch.width
        within = 0
        for key, true_count in shadow.items():
            estimate = sketch.query(key)
            assert estimate >= true_count
            within += (estimate - true_count) <= bound
        assert within / len(shadow) >= 0.95

    def test_seeds_give_different_layouts(self):
        a = CountMinStore(width=256, depth=2, master_seed=0)
        b = CountMinStore(width=256, depth=2, master_seed=1)
        assert a.seeds != b.seeds

    def test_dimensions_validated(self):
        with pytest.raises(ValueError):
            CountMinStore(width=0, depth=1)

    def test_counters_past_int32_offsets_refused(self):
        # The constructor lays out no counters, so the largest sketch costs nothing here.
        assert CountMinStore(width=MAX_COUNTERS, depth=1).width == 2**31 - 1
        for width, depth in [(2**31, 1), (2**30, 2), (3 * 10**9, 1)]:
            with pytest.raises(ValueError, match=r"width \* depth must be <= 2\*\*31 - 1"):
                CountMinStore(width=width, depth=depth)


class TestBatchOffsets:
    def test_match_keyed_row_hashes_and_count_nothing(self):
        store = CountMinStore(width=1000, depth=3, master_seed=5)
        keys = [b"", b"key", b"\xff" * 40, b"key"]
        offsets = store.offsets(keys)
        assert offsets.shape == (4, 3)
        for i, key in enumerate(keys):
            for row, seed in enumerate(store.seeds):
                digest = hashlib.blake2b(key, digest_size=8, key=seed.to_bytes(8, "big")).digest()
                assert offsets[i, row] == row * 1000 + int.from_bytes(digest, "big") % 1000
        assert offsets.dtype == np.int32
        assert store.offsets([]).shape == (0, 3)
        assert store.hash_evaluations == 0


class TestIncrementReturnsPriorEstimate:
    keys = st.lists(st.sampled_from([b"", b"a", b"b", b"pw1", b"\xff\x00", b"x" * 20]), max_size=60)

    @settings(max_examples=50, deadline=None)
    @given(keys=keys)
    def test_exact_store(self, keys):
        store = ExactCounter()
        for key in keys:
            before = store.query(key)
            assert store.increment(key) == before
            assert store.query(key) == before + 1

    @settings(max_examples=50, deadline=None)
    @given(
        keys=keys, width=st.integers(1, 8), depth=st.integers(1, 4), seed=st.integers(0, 2**64 - 1)
    )
    def test_count_min_store(self, keys, width, depth, seed):
        store = CountMinCounter(width=width, depth=depth, master_seed=seed)
        for key in keys:
            before = store.query(key)
            assert store.increment(key) == before
            assert store.query(key) >= before + 1
        assert store.totals == len(keys)

    def test_count_min_layout_is_keyed_blake2b_per_row(self):
        store = CountMinCounter(width=1000, depth=3, master_seed=5)
        store.increment(b"key")
        for row, seed in enumerate(store.layout.seeds):
            digest = hashlib.blake2b(b"key", digest_size=8, key=seed.to_bytes(8, "big")).digest()
            col = int.from_bytes(digest, "big") % store.width
            assert store.counters[row * store.width + col] == 1
        assert int(store.counters.sum()) == store.depth


class TestBans:
    """``simulate`` takes the banned passwords, any collection of bytes."""

    def test_empty_ban_set_is_no_ban(self):
        probs = zipf_model(0.9, 200)
        passwords = [b"p%03d" % i for i in range(200)]
        expected = report_fields(simulate(probs, passwords, 2000, seed=3))
        for banned in ([], frozenset()):
            assert report_fields(simulate(probs, passwords, 2000, banned=banned, seed=3)) == expected

    def test_bans_match_reference(self):
        # Repeated words and words that label no rank change nothing.
        probs = zipf_model(1.0, 50)
        passwords = [b"p%02d" % i for i in range(50)]
        banned = [b"p00", b"p03", b"p00", b"p99", b""]
        report = simulate(probs, passwords, 3000, banned=banned, seed=4)
        expected, _ = reference_simulate(
            probs, passwords, 3000, store=ExactCounter(), banned=banned, seed=4
        )
        assert report_fields(report) == report_fields(expected)
        assert report_fields(report) == report_fields(
            simulate(probs, passwords, 3000, banned={b"p03", b"p00"}, seed=4)
        )
        accepted = dict(rows(report.accepted_table))
        assert b"p00" not in accepted and b"p03" not in accepted
        assert b"p02" in accepted and b"p04" in accepted


class TestProposalLog:
    def test_empty_history_yields_none(self):
        log = ProposalLog()
        rng = np.random.default_rng(0)
        assert log.sample_distinct(rng) is None

    def test_single_element_always_returned(self):
        log = ProposalLog()
        log.record(b"only")
        rng = np.random.default_rng(0)
        assert all(log.sample_distinct(rng) == b"only" for _ in range(10))

    def test_distinct_sampling_ignores_multiplicity(self):
        log = ProposalLog()
        for pw in (b"a",) * 99 + (b"b",):
            log.record(pw)
        assert log.distinct_count == 2
        rng = np.random.default_rng(5)
        draws = Counter(log.sample_distinct(rng) for _ in range(2000))
        assert 800 < draws[b"b"] < 1200


class TestSession:
    def test_cold_start_accepts_first_proposal(self):
        store = ExactCounter()
        log = ProposalLog()
        rng = np.random.default_rng(0)
        outcome = mh_session(store, log, iter([b"first"]), rng)
        assert outcome.accepted_password == b"first"
        assert outcome.asks == 1
        assert store.query(b"first") == 1  # incremented even on the accepting ask

    def test_popular_proposal_rejected_when_comparison_unseen(self):
        # F(x) = 0 against a popular proposal: acceptance chance F(x)/F(x') = 0
        store = ExactCounter()
        log = ProposalLog()
        for _ in range(50):
            store.increment(b"123456")
        log.record(b"rare")  # distinct pool = {rare}, F(rare) = 0
        rng = np.random.default_rng(1)
        outcome = mh_session(store, log, iter([b"123456", b"fresh"]), rng)
        assert outcome.accepted_password == b"fresh"
        assert outcome.asks == 2
        assert store.query(b"123456") == 51  # the rejected ask still counted

    def test_acceptance_is_exactly_u_below_comparison_frequency(self):
        # F(x) = 2, F(x') = 5: accept iff 5u <= 2
        def session_with(u):
            store = ExactCounter()
            log = ProposalLog()
            for _ in range(2):
                store.increment(b"x")
            for _ in range(5):
                store.increment(b"p")
            log.record(b"x")
            rng = FakeRng(randoms=[u, 0.0], integers=[0, 0])
            return mh_session(store, log, iter([b"p", b"fallback"]), rng)

        assert session_with(0.399).accepted_password == b"p"  # u = 1.995 <= 2
        assert session_with(0.401).accepted_password == b"fallback"  # u = 2.005 > 2

    def test_banned_proposal_never_accepted(self):
        store = ExactCounter()
        log = ProposalLog()
        rng = np.random.default_rng(3)
        outcome = mh_session(store, log, iter([b"banned", b"ok"]), rng, banned={b"banned"})
        assert outcome.accepted_password == b"ok"
        assert outcome.asks == 2

    def test_all_banned_hits_retry_cap(self):
        store = ExactCounter()
        log = ProposalLog()
        rng = np.random.default_rng(3)
        stream = iter(lambda: b"bad", None)  # endless banned proposals
        with pytest.raises(BannedExhaustionError):
            mh_session(store, log, stream, rng, banned={b"bad"}, retry_cap=10)
        assert store.query(b"bad") == 10  # every ask recorded before rejection

    def test_exhausted_stream_raises(self):
        store = ExactCounter()
        log = ProposalLog()
        for _ in range(9):
            store.increment(b"hot")
        log.record(b"cold")
        rng = FakeRng(randoms=[0.9], integers=[0])
        with pytest.raises(BannedExhaustionError):
            mh_session(store, log, iter([b"hot"]), rng)


class TestSimulate:
    def test_uniform_source_barely_rejects(self):
        # rejections on an already-uniform source come only from noise in
        # the online frequency estimate, which fades as roughly
        # 1/sqrt(users per rank): ~1.09 mean asks at 1e4 users over 100
        # ranks, inside 1.05 by 1e5 users
        probs = uniform_model(100)
        passwords = [b"p%03d" % i for i in range(100)]
        small = simulate(probs, passwords, 10**4, seed=6)
        assert 1.0 <= small.mean_asks <= 1.15
        assert small.rejected_total == round((small.mean_asks - 1) * 10**4)
        large = simulate(probs, passwords, 10**5, seed=6)
        assert 1.0 <= large.mean_asks <= 1.05
        assert large.mean_asks < small.mean_asks

    def test_flattens_zipf_source(self):
        probs = zipf_model(0.78, 2000)
        passwords = [b"p%05d" % i for i in range(2000)]
        # 10 users per rank rejects hard; the default cap can trip here
        report = simulate(probs, passwords, 20000, seed=9, retry_cap=1000)
        max_accepted = report.accepted_table.counts[0]
        max_free = report.free_table.counts[0]
        assert max_accepted < max_free
        assert report.accepted_table.total_users == 20000
        assert report.free_table.total_users == 20000

    def test_reproducible(self):
        probs = zipf_model(0.9, 300)
        passwords = [b"p%04d" % i for i in range(300)]
        a = simulate(probs, passwords, 2000, seed=42)
        b = simulate(probs, passwords, 2000, seed=42)
        assert rows(a.accepted_table) == rows(b.accepted_table)
        assert rows(a.free_table) == rows(b.free_table)
        assert (a.mean_asks, a.var_asks, a.rejected_total) == (
            b.mean_asks,
            b.var_asks,
            b.rejected_total,
        )

    def test_count_min_backend_flattens_too(self):
        probs = zipf_model(0.8, 500)
        passwords = [b"p%04d" % i for i in range(500)]
        store = CountMinStore(width=1 << 14, depth=4, master_seed=1)
        report = simulate(probs, passwords, 5000, store=store, seed=11)
        assert report.accepted_table.counts[0] < report.free_table.counts[0]

    def test_banned_password_absent_from_accepted_table(self):
        probs = zipf_model(1.0, 50)
        passwords = [b"p%02d" % i for i in range(50)]
        report = simulate(probs, passwords, 3000, banned=[passwords[0]], seed=4)
        accepted = dict(rows(report.accepted_table))
        assert passwords[0] not in accepted
        assert passwords[0] in dict(rows(report.free_table))

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError):
            simulate(uniform_model(3), [b"a", b"b"], 10)

    def test_retry_cap_below_one_rejected(self):
        with pytest.raises(ValueError, match="retry_cap"):
            simulate(uniform_model(3), [b"a", b"b", b"c"], 10, retry_cap=0)


class TestZipfLabels:
    @pytest.mark.parametrize(
        "ranks",
        [
            pytest.param([1, 2, 9, 10, 12345678, 99999999, 100000000, 100000001], id="8-to-9-digits"),
            pytest.param([0, 10**9 - 1, 10**9, 2**63 - 1, 5], id="wide-and-unsorted"),
            pytest.param(range(1, 20001), id="several-blocks"),
            pytest.param(range(99990000, 100010000), id="blocks-across-8-to-9-digits"),
        ],
    )
    def test_equal_formatted_labels(self, ranks):
        assert list(zipf_labels(np.array(ranks))) == [b"p%08d" % i for i in ranks]

    def test_empty_and_negative(self):
        assert len(zipf_labels(np.arange(0))) == 0
        with pytest.raises(ValueError):
            zipf_labels(np.array([3, -1]))


class TestZipfLabelsOnDemand:
    """``simulate(probs, None, ...)`` makes the Zipf label of a rank only when it reads it."""

    @pytest.mark.parametrize(
        "banned, retry_cap",
        [
            pytest.param(0, DEFAULT_RETRY_CAP, id="no-weights"),
            pytest.param(3, DEFAULT_RETRY_CAP, id="weights"),
            pytest.param(20, 5, id="banned-exhaustion"),
        ],
    )
    @pytest.mark.parametrize("sketch", [None, {"width": 1 << 11, "depth": 3, "master_seed": 3}])
    def test_same_report_as_every_label_laid_out(self, sketch, banned, retry_cap):
        n = 4000
        probs = zipf_model(0.7, n)
        labels = zipf_labels(np.arange(1, n + 1))
        outcomes = []
        for passwords in (labels, None):
            _, store = _stores(sketch)
            try:
                report = simulate(
                    probs, passwords, 3000, store=store, banned=labels[:banned], seed=5, retry_cap=retry_cap
                )
                fields = report_fields(report)
            except BannedExhaustionError:
                fields = None
            outcomes.append((fields, None if store is None else store.hash_evaluations))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0][0] is None) == (retry_cap == 5)

    @pytest.mark.parametrize(
        "backend, simulate_bound",
        [pytest.param("exact", 24.0, id="exact"), pytest.param("count-min", 30.0, id="count-min")],
    )
    def test_no_label_bytes_per_rank(self, tmp_path, backend, simulate_bound):
        # 10**6 ranks that 3,000 users barely touch, traced through the
        # mh-sim stage, without and with a one-word ban file, and then
        # through simulate alone. A label for every rank costs 17 B/rank: 9
        # bytes and an 8-byte offset. The stage, whose peak also holds the
        # probabilities, measured 30.4 (exact) and 32.8 B/rank (count-min)
        # either way, against 49.3 and 49.8 when it laid out every label,
        # and 49.1 with the ban when a ban laid out every label and a
        # float64 weight per rank; simulate measured 21.4 and 26.6 B/rank
        # (2**12 x 4).
        n_ranks = 10**6
        ban = tmp_path / "ban.txt"
        ban.write_bytes(b"p00000001\n")
        argv = ["mh-sim", "--backend", backend, "--n-ranks", str(n_ranks), "--n-users", "3000"]
        for extra in ([], ["--ban-file", str(ban)]):
            tracemalloc.start()
            try:
                assert main([*argv, *extra, "--seed", "1", "--out-dir", str(tmp_path / "out")]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak / n_ranks < 40.0, extra
        probs = zipf_model(0.78, n_ranks)
        store = CountMinStore(1 << 12, 4, 1) if backend == "count-min" else None
        assert _traced_peak(probs, None, 3000, store, seed=1) / n_ranks < simulate_bound


class TestCountType:
    """No per-rank count can wrap: its type holds every ask of the run."""

    @pytest.mark.parametrize(
        "n_users, retry_cap, typecode",
        [
            (1, 1, "I"),
            (2**16, 2**16 - 1, "I"),
            (2**16, 2**16, "Q"),
            (2**32, DEFAULT_RETRY_CAP, "Q"),
            (2**62, 1, "Q"),
            (2**62 - 1, 2, "Q"),
        ],
    )
    def test_type_holds_every_ask(self, n_users, retry_cap, typecode):
        assert count_type(n_users, retry_cap) == typecode
        assert 2 ** (8 * np.dtype(typecode).itemsize) > n_users * retry_cap

    @pytest.mark.parametrize("n_users, retry_cap", [(2**62, 2), (2**63, 1), (2**40, 2**40)])
    def test_past_int64_rejected_before_any_rank_is_read(self, n_users, retry_cap):
        class Unread:
            def __len__(self):
                raise AssertionError("labels read")

        with pytest.raises(ValueError, match="n_users \\* retry_cap"):
            simulate(Unread(), Unread(), n_users, retry_cap=retry_cap)

    @pytest.mark.parametrize("sketch", [None, {"width": 64, "depth": 3, "master_seed": 2}])
    def test_wide_counts_give_the_same_report(self, sketch):
        probs = zipf_model(0.9, 300)
        passwords = zipf_labels(np.arange(1, 301))
        reports = []
        for typecode in ("I", "Q"):
            _, store = _stores(sketch)
            with patch.object(mh_uniform, "count_type", lambda n_users, retry_cap: typecode):
                reports.append(simulate(probs, passwords, 3000, store=store, seed=8))
        assert report_fields(reports[0]) == report_fields(reports[1])


def _traced_peak(probs, passwords, n_users, store, seed):
    """The peak that ``tracemalloc`` traces while ``simulate`` runs."""
    tracemalloc.start()
    try:
        simulate(probs, passwords, n_users, store=store, seed=seed)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPerRankMemory:
    """``simulate`` costs a few fixed-size array slots per rank, not Python objects.

    The peak that ``tracemalloc`` traces while it runs, per rank of a
    3 * 10**5-rank Zipf label column that 500 users barely touch; the
    probabilities and labels are made before tracing starts. Measured at
    24.7 B/rank (exact) and 34-36 B/rank (count-min); the bounds lie below
    the 36.7 B/rank that lists of counts cost, and below the 51.9 B/rank
    of a count-min run that lays out counter offsets for every rank, not
    only for the ranks proposed.
    """

    N_RANKS = 300_000

    @pytest.mark.parametrize(
        "sketch, bound",
        [
            pytest.param(None, 31.0, id="exact"),
            pytest.param({"width": 1 << 12, "depth": 4, "master_seed": 1}, 45.0, id="count-min"),
        ],
    )
    def test_peak_bytes_per_rank(self, sketch, bound):
        probs = zipf_model(0.78, self.N_RANKS)
        passwords = zipf_labels(np.arange(1, self.N_RANKS + 1))
        _, store = _stores(sketch)
        assert _traced_peak(probs, passwords, 500, store, seed=1) / self.N_RANKS < bound

    def test_peak_bytes_per_counter(self):
        # 2**22 counters and 2,000 ranks: the sketch's layout is most of the
        # peak. Measured at 1.30 B/counter with one byte of state a counter,
        # against 4.34 with an int32 a counter.
        probs = zipf_model(0.78, 2000)
        passwords = zipf_labels(np.arange(1, 2001))
        store = CountMinStore(1 << 20, 4, 1)
        assert _traced_peak(probs, passwords, 500, store, seed=1) / (1 << 22) < 2.0

    def test_peak_bytes_per_rank_as_counters_go_live(self):
        # A flat source on a narrow sketch: tens of thousands of ranks are
        # proposed, and counters go live batch after batch, each time onto
        # every rank hashed so far. Measured at 64.2 B/rank joining a block
        # of ranks at a time, against 77.7 for a join over all of them at once
        # and counter offsets laid out for every rank.
        n_ranks = 200_000
        probs = zipf_model(0.5, n_ranks)
        passwords = zipf_labels(np.arange(1, n_ranks + 1))
        store = CountMinStore(1 << 16, 2, 3)
        assert _traced_peak(probs, passwords, 60_000, store, seed=1) / n_ranks < 70.0


LABELS = [b"a", b"b", b"c", b"", b"a\x00", b"\xff\xfe", b"pw123456", b"x" * 12]


@st.composite
def simulations(draw):
    # simulate takes distinct labels.
    n_ranks = draw(st.integers(1, len(LABELS)))
    passwords = draw(st.lists(st.sampled_from(LABELS), min_size=n_ranks, max_size=n_ranks, unique=True))
    probs = draw(
        st.sampled_from([zipf_model(1.1, n_ranks), zipf_model(0.5, n_ranks), uniform_model(n_ranks)])
    )
    # Bans from all the labels, so a ban may repeat a word or name one that labels no rank.
    banned = draw(st.lists(st.sampled_from(LABELS), max_size=4))
    sketch = draw(
        st.one_of(
            st.none(),
            st.fixed_dictionaries(
                {
                    "width": st.integers(1, 8),
                    "depth": st.integers(1, 4),
                    "master_seed": st.integers(0, 2**64 - 1),
                }
            ),
        )
    )
    return dict(
        probs=probs,
        passwords=passwords,
        n_users=draw(st.integers(1, 80)),
        banned=banned,
        seed=draw(st.integers(0, 2**32 - 1)),
        retry_cap=draw(st.sampled_from([1, 2, 3, 5, DEFAULT_RETRY_CAP])),
        batch=draw(st.sampled_from([1, 2, 3, 7, PROPOSAL_BATCH])),
        sketch=sketch,
    )


def _stores(sketch):
    """The bytes-keyed counter of the reference and the store ``simulate``
    takes for ``sketch``, which is None for exact counts."""
    if sketch is None:
        return ExactCounter(), None
    return CountMinCounter(**sketch), CountMinStore(**sketch)


def _assert_counted(report, n_users, counter, store, seen):
    """The asks of ``report`` (None if a session raised) are the reference
    counter's increments, and ``store`` hashed each distinct proposed
    password once per row."""
    if report is not None:
        assert report.rejected_total + n_users == counter.totals
    if store is not None:
        assert store.hash_evaluations == store.depth * seen.distinct_count


def _batches_adding_live_counters(batches, store):
    """How many of the batches of new ranks' counters make counters go live.

    After each batch, a rank hashed so far is shared when no other rank
    hashed so far leaves it a counter to itself; the live counters are the
    shared ranks' counters.
    """
    offsets = np.zeros((0, store.depth), dtype=np.int64)
    live: set[int] = set()
    adding = 0
    for batch in batches:
        offsets = np.concatenate((offsets, batch))
        owners = np.bincount(offsets.ravel(), minlength=store.depth * store.width)[offsets]
        now = set(offsets[(owners > 1).all(axis=1)].ravel().tolist())
        adding += bool(now - live)
        live = now
    return adding


RAW_BOUNDS = [1, 2, 3, 2**31 - 5, 2**31 + 5, 2**32 - 1, 2**32]


class TestRawStream:
    """The replayed stream against the ``Generator`` it replays."""

    draws = st.lists(
        st.one_of(
            st.just(("random", None)),
            st.tuples(st.just("randoms"), st.integers(0, 40)),
            st.tuples(st.just("below"), st.sampled_from(RAW_BOUNDS) | st.integers(1, 2**32)),
        ),
        max_size=120,
    )

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), block=st.integers(1, 9), draws=draws)
    def test_matches_generator(self, seed, block, draws):
        rng = np.random.default_rng(seed)
        stream = RawStream(np.random.default_rng(seed), block=block)
        for kind, arg in draws:
            if kind == "random":
                assert stream.random() == rng.random()
            elif kind == "randoms":
                assert np.array_equal(stream.randoms(arg), rng.random(arg))
            else:
                assert stream.below(arg) == int(rng.integers(0, arg))

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_long_interleaving(self, seed):
        # Many block refills and rejections: bounds just above 2**31 reject
        # about half of the 32-bit draws.
        pick = np.random.default_rng(seed + 100)
        rng = np.random.default_rng(seed)
        stream = RawStream(np.random.default_rng(seed))
        for _ in range(20000):
            kind = int(pick.integers(0, 4))
            if kind == 0:
                assert stream.random() == rng.random()
            elif kind == 1:
                k = int(pick.integers(0, 3000))
                assert np.array_equal(stream.randoms(k), rng.random(k))
            else:
                n = RAW_BOUNDS[int(pick.integers(0, len(RAW_BOUNDS)))] if kind == 2 else int(
                    pick.integers(1, 2**32, endpoint=True)
                )
                assert stream.below(n) == int(rng.integers(0, n))

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        block=st.integers(1, 9),
        draws=st.lists(st.integers(0, 40) | st.none(), max_size=120),
    )
    def test_raw_words_match_generator(self, seed, block, draws):
        # simulate's reads: one word per uniform, and batches of uniforms.
        rng = np.random.default_rng(seed)
        with patch.object(mh_uniform, "RAW_BLOCK", block):
            next_word, randoms = mh_uniform._raw_words(np.random.default_rng(seed))
            for size in draws:
                if size is None:
                    assert (next_word() >> 11) * 2.0**-53 == rng.random()
                else:
                    assert np.array_equal(randoms(size), rng.random(size))

    def test_bound_above_two_to_the_32_is_refused(self):
        with pytest.raises(ValueError):
            RawStream(np.random.default_rng(0)).below(2**32 + 1)


class TestSimulateMatchesSessionReference:
    @settings(max_examples=300, deadline=None)
    @given(case=simulations())
    def test_same_report_and_store(self, case):
        # Small batches put a batch draw between any two other draws, so
        # a change in the order of the generator calls changes the report.
        sketch, batch = case.pop("sketch"), case.pop("batch")
        counter, store = _stores(sketch)
        seen = ProposalLog()
        try:
            expected, _ = reference_simulate(**case, store=counter, batch=batch, seen=seen)
        except BannedExhaustionError:
            expected = None
        with patch.object(mh_uniform, "PROPOSAL_BATCH", batch):
            if expected is None:
                with pytest.raises(BannedExhaustionError):
                    simulate(**case, store=store)
                report = None
            else:
                report = simulate(**case, store=store)
                assert report_fields(report) == report_fields(expected)
        _assert_counted(report, case["n_users"], counter, store, seen)

    def test_hash_evaluations_are_depth_per_distinct_rank(self):
        probs = zipf_model(0.78, 3000)
        passwords = [b"p%08d" % i for i in range(1, 3001)]
        reference = CountMinCounter(width=1 << 12, depth=4, master_seed=7)
        ref_report, seen = reference_simulate(probs, passwords, 3000, store=reference, seed=7)
        store = CountMinStore(width=1 << 12, depth=4, master_seed=7)
        report = simulate(probs, passwords, 3000, store=store, seed=7)
        assert report_fields(report) == report_fields(ref_report)
        assert store.hash_evaluations == 4 * seen.distinct_count
        # the bytes-keyed path hashes on every ask and every comparison query
        assert reference.hash_evaluations == 4 * (3000 + report.rejected_total + 3000 - 1)

    @pytest.mark.parametrize(
        "banned, retry_cap",
        [
            pytest.param(0, DEFAULT_RETRY_CAP, id="cold"),
            pytest.param(20, 5, id="banned-exhaustion"),
        ],
    )
    def test_clean_and_shared_ranks(self, banned, retry_cap):
        # At width 2^11 and depth 3 a few thousand proposed ranks include
        # both ranks with a counter of their own in some row and ranks that
        # share a counter in every row.
        n = 4000
        probs = zipf_model(0.7, n)
        passwords = [b"p%08d" % i for i in range(n)]
        counter, store = _stores({"width": 1 << 11, "depth": 3, "master_seed": 3})
        case = dict(banned=passwords[:banned], seed=5, retry_cap=retry_cap)
        seen = ProposalLog()
        if banned:
            with pytest.raises(BannedExhaustionError):
                reference_simulate(probs, passwords, 3000, store=counter, seen=seen, **case)
            with pytest.raises(BannedExhaustionError):
                simulate(probs, passwords, 3000, store=store, **case)
            report = None
            assert counter.totals > 1000  # many sessions ran before the one that failed
        else:
            expected, _ = reference_simulate(probs, passwords, 3000, store=counter, seen=seen, **case)
            report = simulate(probs, passwords, 3000, store=store, **case)
            assert report_fields(report) == report_fields(expected)
        _assert_counted(report, 3000, counter, store, seen)
        # The seen ranks' counters: a rank is clean if, in some row, no other
        # seen rank shares its counter.
        offsets = store.offsets(seen._pool)
        owners = np.bincount(offsets.ravel(), minlength=store.depth * store.width)[offsets]
        clean = (owners == 1).any(axis=1)
        assert 0 < clean.sum() < len(clean)

    @pytest.mark.parametrize("batch", [PROPOSAL_BATCH, 1000])
    @pytest.mark.parametrize("sketch", [None, {"width": 1 << 12, "depth": 3, "master_seed": 11}])
    def test_same_report_and_store_at_scale(self, sketch, batch):
        # Far past the Hypothesis cases: tens of thousands of seen ranks in
        # the comparison draw, and many proposal batches.
        n = 20000
        probs = zipf_model(0.7, n)
        passwords = [b"p%08d" % i for i in range(n)]
        banned = {b"p00000000", b"p00000002"}
        counter, store = _stores(sketch)
        expected, seen = reference_simulate(
            probs, passwords, n, store=counter, banned=banned, seed=13, batch=batch
        )
        hashed: list[np.ndarray] = []
        if store is not None:
            # simulate hashes each batch's new ranks in one call.
            layout = store.offsets

            def offsets(keys):
                hashed.append(layout(keys))
                return hashed[-1]

            store.offsets = offsets
        with patch.object(mh_uniform, "PROPOSAL_BATCH", batch):
            report = simulate(probs, passwords, n, store=store, banned=banned, seed=13)
        assert report_fields(report) == report_fields(expected)
        _assert_counted(report, n, counter, store, seen)
        if store is not None:
            # Counters went live in several batches, not all in the first.
            assert _batches_adding_live_counters(hashed, store) >= 3
