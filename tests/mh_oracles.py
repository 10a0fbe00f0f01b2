"""Password-at-a-time reference implementations of the MH simulation.

``pwdist.mh_uniform.simulate`` runs its sessions over rank indices,
replays the generator's raw stream in blocks, counts proposals per rank
and keeps sketch counters only for ranks that share a counter in every
row. These are the straightforward versions it must match draw for draw:
frequency counters keyed by password bytes with one ``increment`` per ask
and one ``query`` per comparison, a proposal log of the distinct passwords
seen, and one ``mh_session`` per user that calls the ``Generator`` itself,
looking bans up by password. ``RawStream`` is the replay of the
``Generator``'s draws from its raw words, one method per kind of draw,
that ``simulate``'s session loop does inline.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Collection, Iterator

import numpy as np

from pwdist.ingest import table_from_counter
from pwdist.mh_uniform import (
    DEFAULT_RETRY_CAP,
    PROPOSAL_BATCH,
    RAW_BLOCK,
    BannedExhaustionError,
    CountMinStore,
    SimulationReport,
)


def report_fields(report: SimulationReport) -> tuple:
    """Both tables of ``report`` as (password, count) rows, then its ask statistics,
    to compare two reports."""
    tables = [list(zip(t.passwords, t.counts.tolist())) for t in (report.accepted_table, report.free_table)]
    return (*tables, report.mean_asks, report.var_asks, report.rejected_total)


class RawStream:
    """The draws of a fresh PCG64 ``Generator``, replayed from its raw output.

    numpy makes ``random()`` of the next 64-bit word x as ``(x >> 11) *
    2**-53``, and ``integers(0, n)`` for n <= 2**32 by Lemire's multiply-and-
    reject method on 32-bit draws; PCG64 gives a 32-bit draw as the low half
    of a fresh word and keeps the high half for the next one. Reading the
    words in blocks through ``random_raw`` gives every draw exactly, in the
    same order, without one generator call per draw. The stream reads ahead
    of the draws it has returned, so the generator is not to be drawn from
    directly once a stream is made from it.
    """

    def __init__(self, rng: np.random.Generator, block: int = RAW_BLOCK):
        self._raw = rng.bit_generator.random_raw
        self._block = block
        self._words: list[int] = []
        self._pos = 0
        self._high: int | None = None

    def _word(self) -> int:
        pos = self._pos
        if pos == len(self._words):
            self._words = self._raw(self._block).tolist()
            pos = 0
        self._pos = pos + 1
        return self._words[pos]

    def random(self) -> float:
        """``Generator.random()``."""
        return (self._word() >> 11) * 2.0**-53

    def randoms(self, size: int) -> np.ndarray:
        """``Generator.random(size)``: the words read ahead, then fresh ones."""
        ahead = self._words[self._pos : self._pos + size]
        self._pos += len(ahead)
        raw = np.array(ahead, dtype=np.uint64)
        if len(ahead) < size:
            raw = np.concatenate((raw, self._raw(size - len(ahead))))
        return (raw >> np.uint64(11)) * 2.0**-53

    def below(self, n: int) -> int:
        """``int(Generator.integers(0, n))`` for 1 <= n <= 2**32; n = 1 draws nothing."""
        if n == 1:
            return 0
        if not 1 < n <= 1 << 32:
            raise ValueError(f"cannot replay integers(0, {n})")
        threshold = ((1 << 32) - n) % n
        while True:
            x = self._high
            if x is None:
                word = self._word()
                self._high = word >> 32
                x = word & 0xFFFFFFFF
            else:
                self._high = None
            m = x * n
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32


class ExactCounter:
    """Exact proposal-frequency counts."""

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


class CountMinCounter:
    """A count-min sketch with its counters, on the layout of ``CountMinStore``.

    A key is counted on the ``depth`` counters that ``CountMinStore.offsets``
    gives it, and its estimate is the minimum over them.
    """

    def __init__(self, width: int, depth: int, master_seed: int = 0):
        self.layout = CountMinStore(width, depth, master_seed)
        self.width = width
        self.depth = depth
        self.counters = np.zeros(depth * width, dtype=np.int64)
        self.totals = 0
        # Keyed row hashes: ``depth`` per increment and per query.
        self.hash_evaluations = 0

    def _key_offsets(self, key: bytes) -> list[int]:
        self.hash_evaluations += self.depth
        return self.layout.offsets([key])[0].tolist()

    def increment(self, key: bytes) -> int:
        """Count one more ``key``; returns the estimate from before."""
        offsets = self._key_offsets(key)
        estimate = min([self.counters[o] for o in offsets])
        for o in offsets:
            self.counters[o] += 1
        self.totals += 1
        return int(estimate)

    def query(self, key: bytes) -> int:
        return int(min([self.counters[o] for o in self._key_offsets(key)]))


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
        """Uniform over distinct seen passwords; None before any proposal."""
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
    banned: Collection[bytes] = (),
    retry_cap: int = DEFAULT_RETRY_CAP,
) -> SessionOutcome:
    """Run one user's enrolment until a proposal is accepted.

    The comparison password x and its frequency snapshot are fixed for the
    whole session; each proposal x' is recorded and counted whether or not
    it is accepted. The acceptance draw u is uniform on [0, F(x')] taken
    before the increment, and the rule accepts when u * w(x) <= F(x) * w(x'),
    w(x) being 0 if x is in ``banned`` and 1 if not. A fresh store accepts
    the first proposal in one ask (u = 0 <= 0).

    Raises BannedExhaustionError after ``retry_cap`` asks, or when the
    proposals run out.
    """
    x = seen.sample_distinct(rng)
    fx = store.query(x) if x is not None else 0
    wx = 0.0 if x in banned else 1.0
    asks = 0
    for proposal in proposals:
        asks += 1
        f_prop = store.increment(proposal)
        seen.record(proposal)
        w_prop = 0.0 if proposal in banned else 1.0
        if w_prop > 0.0:
            u = rng.random() * f_prop
            if u * wx <= fx * w_prop:
                return SessionOutcome(accepted_password=proposal, asks=asks)
        if asks >= retry_cap:
            raise BannedExhaustionError(f"no acceptable proposal after {retry_cap} asks")
    raise BannedExhaustionError("proposal stream ended before an acceptable password")


def reference_proposals(probs, passwords, rng, batch):
    """Batched inverse-CDF draws, yielded as labels."""
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    while True:
        for rank in np.searchsorted(cum, rng.random(batch), side="right"):
            yield passwords[rank]


def reference_simulate(probs, passwords, n_users, *, store, banned=(), seed=0,
                       retry_cap=DEFAULT_RETRY_CAP, batch=PROPOSAL_BATCH, seen=None):
    """``mh_session`` per user over a bytes-keyed counter: what ``simulate`` must match.

    ``banned`` is any collection of passwords, looked up by password. Returns
    the report and the proposal log; ``seen``, if given, is the log to
    record into, which a caller can read after a ``BannedExhaustionError``.
    """
    rng = np.random.default_rng(seed)
    if seen is None:
        seen = ProposalLog()
    proposals = reference_proposals(probs, passwords, rng, batch)
    accepted: Counter[bytes] = Counter()
    free: Counter[bytes] = Counter()
    asks_total = 0
    asks_sq = 0
    for _ in range(n_users):
        first = next(proposals)
        free[first] += 1
        outcome = mh_session(
            store, seen, chain((first,), proposals), rng, banned=banned, retry_cap=retry_cap
        )
        accepted[outcome.accepted_password] += 1
        asks_total += outcome.asks
        asks_sq += outcome.asks * outcome.asks
    mean = asks_total / n_users
    report = SimulationReport(
        accepted_table=table_from_counter(accepted, tie_break_seed=seed),
        free_table=table_from_counter(free, tie_break_seed=seed),
        mean_asks=mean,
        var_asks=max(asks_sq / n_users - mean * mean, 0.0),
        rejected_total=asks_total - n_users,
    )
    return report, seen
