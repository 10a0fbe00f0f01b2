"""Metropolis-Hastings password selection.

When a user proposes a password x', the scheme draws a comparison
password x from those already seen, draws u uniformly in [0, F(x')] with
F the running proposal-frequency estimate, increments F(x'), and accepts
x' only if u <= F(x); otherwise the user is asked again. Frequent
proposals therefore get rejected in proportion to how far above the
comparison frequency they sit, and the accepted passwords spread toward a
uniform distribution without any banned-word list.

Two frequency backends implement the same interface: an exact counter and
a count-min sketch, which never undercounts and keeps its counters in fixed
memory. ``simulate`` runs its sessions over model rank indices; ``mh_session``
is the same rule over password bytes, one session at a time, and is the
reference that ``simulate`` must reproduce draw for draw.
Target weights generalise the rule to banned (weight 0) and soft-banned
(weight below 1) passwords via the usual acceptance ratio; with the
default all-ones weights the rule reduces exactly to u <= F(x).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .ingest import RankFrequencyTable, table_from_counter
from .stats import ProbabilityModel

BACKEND_EXACT = "exact"
BACKEND_COUNT_MIN = "count-min"

DEFAULT_SKETCH_WIDTH = 1 << 18
DEFAULT_SKETCH_DEPTH = 4
DEFAULT_RETRY_CAP = 100
# Proposal draws taken from the generator at a time.
PROPOSAL_BATCH = 8192


class BannedExhaustionError(Exception):
    """A session hit the retry cap without an acceptable proposal."""


class ExactFrequencyStore:
    """Exact proposal-frequency counts."""

    backend = BACKEND_EXACT
    hash_evaluations = 0

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
        # Keyed row hashes computed so far, ``depth`` per key hashed.
        self.hash_evaluations = 0

    def _offsets(self, key: bytes) -> list[int]:
        """Each row's counter for ``key``, as an offset into the flat counters."""
        self.hash_evaluations += self.depth
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
    """Every distinct password ever proposed, in first-seen order."""

    def __init__(self):
        self._pool: list[bytes] = []
        self._members: set[bytes] = set()

    @property
    def distinct_count(self) -> int:
        return len(self._pool)

    def record(self, password: bytes) -> None:
        if password not in self._members:
            self._members.add(password)
            self._pool.append(password)

    def sample_distinct(self, rng: np.random.Generator) -> bytes | None:
        """Uniform over distinct seen passwords; None before any proposal.

        Uniform over the seen support is a draw from the target
        distribution itself, which is what lets the scheme skip a burn-in
        period and is what reproduces the two-orders-of-magnitude
        flattening. Weighting the comparison by proposal popularity
        instead would only cap, rather than flatten, the head of the
        distribution.
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
    x = seen.sample_distinct(rng)
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
    """Batched i.i.d. rank draws from a finite distribution, shared by sessions.

    ``canon``, if given, maps each rank to the rank a draw is reported as.
    """

    def __init__(
        self, probs: np.ndarray, rng: np.random.Generator, canon: np.ndarray | None, batch: int
    ):
        self._cum = np.cumsum(np.asarray(probs, dtype=np.float64))
        self._cum[-1] = 1.0
        self._rng = rng
        self._canon = canon
        self._batch = batch
        self._buf: list[int] = []
        self._pos = 0

    def take(self) -> int:
        if self._pos >= len(self._buf):
            ranks = np.searchsorted(self._cum, self._rng.random(self._batch), side="right")
            if self._canon is not None:
                ranks = self._canon[ranks]
            self._buf = ranks.tolist()
            self._pos = 0
        rank = self._buf[self._pos]
        self._pos += 1
        return rank


def _first_ranks(passwords: Sequence[bytes]) -> np.ndarray | None:
    """Map each rank to the first rank with an equal label; None if all differ.

    Labels are grouped by sorting their hashes, and only labels whose hash
    collides are compared, so no set of every label is built.
    """
    hashes = np.fromiter(map(hash, passwords), dtype=np.int64, count=len(passwords))
    order = np.argsort(hashes, kind="stable")
    sorted_hashes = hashes[order]
    clash = np.flatnonzero(sorted_hashes[1:] == sorted_hashes[:-1])
    clashing = np.zeros(len(passwords), dtype=bool)
    clashing[order[clash]] = True
    clashing[order[clash + 1]] = True
    canon = None
    first: dict[bytes, int] = {}
    # Ascending, so the first rank seen with a label is its lowest.
    for rank in np.flatnonzero(clashing).tolist():
        label_rank = first.setdefault(passwords[rank], rank)
        if label_rank != rank:
            if canon is None:
                canon = np.arange(len(passwords))
            canon[rank] = label_rank
    return canon


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
) -> SimulationReport:
    """Simulate n_users enrolments with i.i.d. proposals from a model.

    Each user proposes passwords drawn from ``model`` (labelled by
    ``passwords``) until their session accepts. The free-choice table
    counts every user's first proposal, i.e. what would be in use with no
    gate, and shares the seeded tie-break so reports are reproducible
    byte for byte.

    Sessions follow ``mh_session`` draw for draw but run over rank
    indices: a rank stands for its label, and ranks whose labels repeat
    count as the first of them. A count-min store hashes each rank's key
    once, on its first proposal, and its counters are then read and
    written in place by offset; an exact store's counts are kept per rank
    and written back to it at the end.
    """
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if retry_cap < 1:
        raise ValueError("retry_cap must be >= 1")
    if len(passwords) != model.n_ranks:
        raise ValueError("need exactly one password label per model rank")
    if store is None:
        store = ExactFrequencyStore()
    accepted, free, asks_total, asks_sq = _run_sessions(
        model, passwords, n_users, store, weights, seed, retry_cap
    )
    mean = asks_total / n_users
    var = asks_sq / n_users - mean * mean
    return SimulationReport(
        accepted_table=_table(accepted, passwords, seed),
        free_table=_table(free, passwords, seed),
        mean_asks=mean,
        var_asks=max(var, 0.0),
        rejected_total=asks_total - n_users,
    )


def _run_sessions(
    model: ProbabilityModel,
    passwords: Sequence[bytes],
    n_users: int,
    store,
    weights: TargetWeight | None,
    seed: int,
    retry_cap: int,
) -> tuple[list[int], list[int], int, int]:
    """The sessions of ``simulate``: per-rank accepted and free counts, and
    the sum and the sum of squares of the asks per user.

    The per-rank session state is freed on return, before the output
    tables are sorted, which is what sets the peak memory of a run.
    """
    n_ranks = model.n_ranks
    sketch = store.backend == BACKEND_COUNT_MIN
    weight = None if weights is None else weights.weight
    rng = np.random.default_rng(seed)
    take = _ProposalSampler(model.probs, rng, _first_ranks(passwords), PROPOSAL_BATCH).take
    seen: list[int] = []
    is_seen = bytearray(n_ranks)
    if sketch:
        depth = store.depth
        offset_type = np.int32 if store._flat.size <= 2**31 else np.int64
        # Rank r's row offsets are offsets[r * depth : (r + 1) * depth], filled
        # on its first proposal.
        offsets_np = np.zeros(n_ranks * depth, dtype=offset_type)
        offsets = memoryview(offsets_np)
        counters = memoryview(store._flat)
        read_counter = counters.__getitem__
    elif store._counts:
        counts = [store._counts[pw] for pw in passwords]
    else:
        counts = [0] * n_ranks
    accepted = [0] * n_ranks
    free = [0] * n_ranks
    asks_total = 0
    asks_sq = 0
    try:
        for _ in range(n_users):
            rank = take()
            free[rank] += 1
            if seen:
                x = seen[int(rng.integers(0, len(seen)))]
                if sketch:
                    fx = min(map(read_counter, offsets[x * depth : (x + 1) * depth]))
                else:
                    fx = counts[x]
                wx = 1.0 if weight is None else weight(passwords[x])
            else:
                fx = 0
                wx = 1.0
            asks = 0
            while True:
                asks += 1
                if not is_seen[rank]:
                    is_seen[rank] = 1
                    seen.append(rank)
                    if sketch:
                        offsets_np[rank * depth : (rank + 1) * depth] = store._offsets(passwords[rank])
                if sketch:
                    row_offsets = offsets[rank * depth : (rank + 1) * depth].tolist()
                    f_prop = min(map(read_counter, row_offsets))
                    for o in row_offsets:
                        counters[o] += 1
                else:
                    f_prop = counts[rank]
                    counts[rank] = f_prop + 1
                w_prop = 1.0 if weight is None else weight(passwords[rank])
                if w_prop > 0.0 and rng.random() * f_prop * wx <= fx * w_prop:
                    break
                if asks >= retry_cap:
                    raise BannedExhaustionError(f"no acceptable proposal after {retry_cap} asks")
                rank = take()
            accepted[rank] += 1
            asks_total += asks
            asks_sq += asks * asks
    except BannedExhaustionError:
        asks_total += asks
        raise
    finally:
        store.totals += asks_total
        if not sketch:
            for rank in seen:
                store._counts[passwords[rank]] = counts[rank]
    return accepted, free, asks_total, asks_sq


def _table(rank_counts: list[int], passwords: Sequence[bytes], seed: int) -> RankFrequencyTable:
    counter = {passwords[rank]: c for rank, c in enumerate(rank_counts) if c}
    return table_from_counter(counter, tie_break_seed=seed)


def write_summary_tsv(report: SimulationReport, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("mean_asks\tvar_asks\trejected_total\n")
        fh.write(f"{report.mean_asks:.10g}\t{report.var_asks:.10g}\t{report.rejected_total}\n")
