"""Metropolis-Hastings password selection.

When a user proposes a password x', the scheme draws a comparison
password x from those already seen, draws u uniformly in [0, F(x')] with
F the running proposal-frequency estimate, increments F(x'), and accepts
x' only if u <= F(x); otherwise the user is asked again. Frequent
proposals therefore get rejected in proportion to how far above the
comparison frequency they sit, and the accepted passwords spread toward a
uniform distribution without any banned-word list.

Two frequency backends implement the same interface: an exact counter and
a count-min sketch, which never undercounts and needs fixed memory.
Target weights generalise the rule to banned (weight 0) and soft-banned
(weight below 1) passwords via the usual acceptance ratio; with the
default all-ones weights the rule reduces exactly to u <= F(x).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .ingest import RankFrequencyTable, table_from_counter
from .stats import ProbabilityModel

BACKEND_EXACT = "exact"
BACKEND_COUNT_MIN = "count-min"

COMPARISON_DISTINCT = "distinct"
COMPARISON_MULTISET = "multiset"

DEFAULT_SKETCH_WIDTH = 1 << 18
DEFAULT_SKETCH_DEPTH = 4
DEFAULT_RETRY_CAP = 100


class BannedExhaustionError(Exception):
    """A session hit the retry cap without an acceptable proposal."""


class ExactFrequencyStore:
    """Exact proposal-frequency counts."""

    backend = BACKEND_EXACT

    def __init__(self):
        self._counts: Counter[bytes] = Counter()
        self.totals = 0

    def increment(self, key: bytes) -> int:
        """Count one more ``key``; returns the count from before."""
        count = self._counts[key]
        self._counts[key] = count + 1
        self.totals += 1
        return count

    def query(self, key: bytes) -> int:
        return self._counts[key]


class CountMinStore:
    """Count-min sketch: fixed-size counters that never underestimate.

    Each of ``depth`` rows hashes the key with its own seed and increments
    one of ``width`` counters; a query takes the minimum across rows, so
    collisions can only inflate the answer. Row seeds derive from a master
    seed unless given explicitly.
    """

    backend = BACKEND_COUNT_MIN

    def __init__(
        self,
        width: int = DEFAULT_SKETCH_WIDTH,
        depth: int = DEFAULT_SKETCH_DEPTH,
        seeds: Sequence[int] | None = None,
        master_seed: int = 0,
    ):
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be positive")
        if seeds is None:
            master = (master_seed & ((1 << 64) - 1)).to_bytes(8, "big")
            seeds = [
                int.from_bytes(
                    hashlib.blake2b(row.to_bytes(4, "big"), digest_size=8, key=master).digest(),
                    "big",
                )
                for row in range(depth)
            ]
        if len(seeds) != depth:
            raise ValueError("need one seed per row")
        self.width = width
        self.depth = depth
        self.seeds = tuple(int(s) for s in seeds)
        # Row r's counters are _flat[r * width : (r + 1) * width]; each row
        # keeps a keyed blake2b that a key's hash is copied from.
        self._rows = [
            (row * width, hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "big")))
            for row, seed in enumerate(self.seeds)
        ]
        self._flat = np.zeros(depth * width, dtype=np.int64)
        self.totals = 0

    def _offsets(self, key: bytes) -> list[int]:
        """Each row's counter for ``key``, as an offset into the flat counters."""
        offsets = []
        for base, row_hash in self._rows:
            h = row_hash.copy()
            h.update(key)
            offsets.append(base + int.from_bytes(h.digest(), "big") % self.width)
        return offsets

    def increment(self, key: bytes) -> int:
        """Count one more ``key``; returns the estimate from before."""
        flat = self._flat
        offsets = self._offsets(key)
        estimate = min([flat[o] for o in offsets])
        for o in offsets:
            flat[o] += 1
        self.totals += 1
        return int(estimate)

    def query(self, key: bytes) -> int:
        flat = self._flat
        return int(min([flat[o] for o in self._offsets(key)]))


def cms_increment(store: CountMinStore, key: bytes) -> None:
    if store.backend != BACKEND_COUNT_MIN:
        raise ValueError("store is not a count-min sketch")
    store.increment(key)


def cms_query(store: CountMinStore, key: bytes) -> int:
    if store.backend != BACKEND_COUNT_MIN:
        raise ValueError("store is not a count-min sketch")
    return store.query(key)


@dataclass
class TargetWeight:
    """Relative target probability per password.

    1 everywhere by default; exactly 0 bans a password outright, a value
    in (0, 1) soft-bans it.
    """

    fn: Callable[[bytes], float] | None = None

    def weight(self, password: bytes) -> float:
        return 1.0 if self.fn is None else float(self.fn(password))

    @classmethod
    def with_bans(
        cls, banned: Iterable[bytes] = (), soft: dict[bytes, float] | None = None
    ) -> "TargetWeight":
        banned_set = frozenset(banned)
        soft_map = dict(soft or {})
        for pw, w in soft_map.items():
            if not 0.0 < w < 1.0:
                raise ValueError(f"soft-ban weight for {pw!r} must be in (0, 1)")
        def fn(pw: bytes) -> float:
            if pw in banned_set:
                return 0.0
            return soft_map.get(pw, 1.0)
        return cls(fn=fn)


class ProposalLog:
    """Every proposal ever submitted: an interned pool of distinct
    passwords plus the multiset log of submissions (as pool indices)."""

    def __init__(self):
        self._pool: list[bytes] = []
        self._index: dict[bytes, int] = {}
        self._log: list[int] = []

    def __len__(self) -> int:
        return len(self._log)

    @property
    def distinct_count(self) -> int:
        return len(self._pool)

    def record(self, password: bytes) -> None:
        idx = self._index.get(password)
        if idx is None:
            idx = len(self._pool)
            self._index[password] = idx
            self._pool.append(password)
        self._log.append(idx)

    def sample_seen(self, rng: np.random.Generator) -> bytes | None:
        """Uniform over the submission multiset; None before any proposal."""
        if not self._log:
            return None
        return self._pool[self._log[int(rng.integers(0, len(self._log)))]]

    def sample_distinct(self, rng: np.random.Generator) -> bytes | None:
        """Uniform over distinct seen passwords; None before any proposal.

        This is the draw the sessions use: uniform over the seen support
        is a draw from the target distribution itself, which is what lets
        the scheme skip a burn-in period and is what reproduces the
        two-orders-of-magnitude flattening. Sampling the multiset instead
        (``sample_seen``) weights the comparison by proposal popularity
        and only caps, rather than flattens, the head of the distribution.
        """
        if not self._pool:
            return None
        return self._pool[int(rng.integers(0, len(self._pool)))]


@dataclass
class SessionOutcome:
    accepted_password: bytes
    asks: int


def mh_session(
    store,
    seen: ProposalLog,
    proposals: Iterator[bytes],
    rng: np.random.Generator,
    *,
    weights: TargetWeight | None = None,
    retry_cap: int = DEFAULT_RETRY_CAP,
    comparison: str = COMPARISON_DISTINCT,
) -> SessionOutcome:
    """Run one user's enrolment until a proposal is accepted.

    The comparison password x and its frequency snapshot are fixed for the
    whole session; each proposal x' is recorded and counted whether or not
    it is accepted. The acceptance draw u is uniform on [0, F(x')] taken
    before the increment, and the weighted rule accepts when
    u * weight(x) <= F(x) * weight(x'), which is the usual acceptance
    ratio and collapses to the plain u <= F(x) when weights are all 1.
    A fresh store accepts the first proposal in one ask (u = 0 <= 0).

    Raises BannedExhaustionError after ``retry_cap`` asks, which with a
    weight-0 ban on everything the user will propose is a livelock guard.
    """
    if weights is None:
        weights = TargetWeight()
    if comparison == COMPARISON_DISTINCT:
        x = seen.sample_distinct(rng)
    elif comparison == COMPARISON_MULTISET:
        x = seen.sample_seen(rng)
    else:
        raise ValueError(f"unknown comparison mode {comparison!r}")
    fx = store.query(x) if x is not None else 0
    wx = weights.weight(x) if x is not None else 1.0
    asks = 0
    for proposal in proposals:
        asks += 1
        f_prop = store.increment(proposal)
        seen.record(proposal)
        w_prop = weights.weight(proposal)
        if w_prop > 0.0:
            u = rng.random() * f_prop
            if u * wx <= fx * w_prop:
                return SessionOutcome(accepted_password=proposal, asks=asks)
        if asks >= retry_cap:
            raise BannedExhaustionError(f"no acceptable proposal after {retry_cap} asks")
    raise BannedExhaustionError("proposal stream ended before an acceptable password")


class _ProposalSampler:
    """Batched i.i.d. draws from a finite distribution, shared by sessions."""

    def __init__(
        self,
        probs: np.ndarray,
        passwords: Sequence[bytes],
        rng: np.random.Generator,
        batch: int = 8192,
    ):
        self._cum = np.cumsum(np.asarray(probs, dtype=np.float64))
        self._cum[-1] = 1.0
        self._passwords = list(passwords)
        self._rng = rng
        self._batch = batch
        self._buf: np.ndarray | None = None
        self._pos = 0

    def take(self) -> bytes:
        if self._buf is None or self._pos >= len(self._buf):
            self._buf = np.searchsorted(self._cum, self._rng.random(self._batch), side="right")
            self._pos = 0
        password = self._passwords[int(self._buf[self._pos])]
        self._pos += 1
        return password

    def __iter__(self):
        return self

    def __next__(self) -> bytes:
        return self.take()


@dataclass
class SimulationReport:
    """Accepted and free-choice tables plus the per-user ask statistics."""

    accepted_table: RankFrequencyTable
    free_table: RankFrequencyTable
    mean_asks: float
    var_asks: float
    rejected_total: int


def simulate(
    model: ProbabilityModel,
    passwords: Sequence[bytes],
    n_users: int,
    *,
    store=None,
    weights: TargetWeight | None = None,
    seed: int = 0,
    retry_cap: int = DEFAULT_RETRY_CAP,
    comparison: str = COMPARISON_DISTINCT,
) -> SimulationReport:
    """Simulate n_users enrolments with i.i.d. proposals from a model.

    Each user proposes passwords drawn from ``model`` (labelled by
    ``passwords``) until their session accepts. The free-choice table
    counts every user's first proposal, i.e. what would be in use with no
    gate, and shares the seeded tie-break so reports are reproducible
    byte for byte.
    """
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if len(passwords) != model.n_ranks:
        raise ValueError("need exactly one password label per model rank")
    rng = np.random.default_rng(seed)
    if store is None:
        store = ExactFrequencyStore()
    seen = ProposalLog()
    sampler = _ProposalSampler(model.probs, passwords, rng)
    accepted: Counter[bytes] = Counter()
    free: Counter[bytes] = Counter()
    asks_total = 0
    asks_sq = 0
    for _ in range(n_users):
        first = sampler.take()
        free[first] += 1
        outcome = mh_session(
            store,
            seen,
            chain((first,), sampler),
            rng,
            weights=weights,
            retry_cap=retry_cap,
            comparison=comparison,
        )
        accepted[outcome.accepted_password] += 1
        asks_total += outcome.asks
        asks_sq += outcome.asks * outcome.asks
    mean = asks_total / n_users
    var = asks_sq / n_users - mean * mean
    return SimulationReport(
        accepted_table=table_from_counter(accepted, tie_break_seed=seed),
        free_table=table_from_counter(free, tie_break_seed=seed),
        mean_asks=mean,
        var_asks=max(var, 0.0),
        rejected_total=asks_total - n_users,
    )


def write_summary_tsv(report: SimulationReport, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("mean_asks\tvar_asks\trejected_total\n")
        fh.write(f"{report.mean_asks:.10g}\t{report.var_asks:.10g}\t{report.rejected_total}\n")
