"""Metropolis-Hastings password selection.

When a user proposes a password x', the scheme draws a comparison
password x from those already seen, draws u uniformly in [0, F(x')] with
F the running proposal-frequency estimate, increments F(x'), and accepts
x' only if u <= F(x); otherwise the user is asked again. Frequent
proposals therefore get rejected in proportion to how far above the
comparison frequency they sit, and the accepted passwords spread toward a
uniform distribution without any banned-word list.

``simulate`` runs the sessions over rank indices and replays its
seeded generator's raw stream in blocks. F is either exact or a count-min
sketch's estimate, which never undercounts and is read from a fixed
number of counters; ``CountMinStore`` is the sketch's layout. Either way
``simulate`` counts each rank's proposals exactly, for the length of the
run, and keeps sketch counters only for the few ranks that share a
counter in every row.
A set of banned passwords extends the rule: a banned proposal is never
accepted, and a banned comparison password accepts every proposal that is
not banned; with no bans the rule is exactly u <= F(x).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, compress, islice
from typing import Callable, Collection, Iterator, Sequence

import numpy as np

from . import tsvio
from .column import JOIN_BLOCK, PasswordColumn, as_column, keyed_hashes
from .ingest import RankFrequencyTable, rank_passwords

DEFAULT_RETRY_CAP = 100
# Proposal draws taken from the generator at a time.
PROPOSAL_BATCH = 8192
# Raw generator words read at a time for the per-session draws.
RAW_BLOCK = 1024
# A sketch counter's state while ``simulate`` runs: no proposed rank is on
# it, one is, several are, or several are and its count is kept. MARKED is
# set on top of a state while a pass over the proposed ranks looks for it.
EMPTY, ONE, SEVERAL, LIVE = 0, 1, 2, 3
MARKED = 4
# The most counters a sketch may have; every counter's offset, below it, is an int32.
MAX_COUNTERS = 2**31 - 1
# The most ranks ``simulate`` takes; every rank index, below it, is a uint32.
MAX_RANKS = 2**32


class BannedExhaustionError(tsvio.NumericError):
    """A session hit the retry cap without an acceptable proposal."""


class CountMinStore:
    """The layout of a count-min sketch: which counters a key is counted on.

    Each of ``depth`` rows hashes the key with its own seed and puts it on
    one of ``width`` counters; a key's estimate is the minimum over its
    counters, so collisions can only inflate it. Row seeds derive from a
    master seed. A sketch has at most ``MAX_COUNTERS`` counters, so that
    every counter's offset is an int32. The counters themselves are
    ``simulate``'s, for the length of one run, with one byte of layout
    state each.
    """

    def __init__(self, width: int, depth: int, master_seed: int = 0):
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be positive")
        if width * depth > MAX_COUNTERS:
            raise ValueError(f"width * depth must be <= 2**31 - 1, got {width * depth}")
        self.width = width
        self.depth = depth
        # Row r hashes keys under its seed onto counters [r * width, (r + 1) * width).
        rows = [row.to_bytes(4, "big") for row in range(depth)]
        self.seeds = tuple(keyed_hashes(rows, master_seed).tolist())
        # Keyed row hashes counted so far: ``depth`` per rank that
        # ``simulate`` proposes.
        self.hash_evaluations = 0

    def offsets(self, keys: Sequence[bytes]) -> np.ndarray:
        """Each key's counter in each row, as int32 offsets into ``depth * width`` flat counters.

        Returns a ``(len(keys), depth)`` array, hashing the keys in one pass
        per row; ``hash_evaluations`` is counted by the caller.
        """
        offsets = np.empty((len(keys), self.depth), dtype=np.int32)
        for row, seed in enumerate(self.seeds):
            offsets[:, row] = keyed_hashes(keys, seed) % np.uint64(self.width) + np.uint64(row * self.width)
        return offsets


def zipf_labels(ranks: np.ndarray) -> PasswordColumn:
    """The column of ``b"p%08d" % r`` for each rank number r >= 0 in ``ranks``.

    The labels are laid out in numpy, ``JOIN_BLOCK`` ranks at a time, by
    :func:`~pwdist.tsvio.fixed_fields`: a ``p``, then each rank's digits by
    :func:`~pwdist.tsvio.put_decimal`, filled with ``0`` to 8 digits.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.size and ranks.min() < 0:
        raise ValueError("rank numbers must be >= 0")
    pieces: list[bytes] = []
    lengths: list[np.ndarray] = []
    for start in range(0, len(ranks), JOIN_BLOCK):
        block = ranks[start : start + JOIN_BLOCK]
        digits = np.empty((len(block), max(8, len(b"%d" % block.max()))), dtype=np.uint8)
        tsvio.put_decimal(digits, block)
        padding = digits[:, -8:]
        padding[padding == 0] = ord("0")
        piece, length = tsvio.fixed_fields([ord("p"), digits])
        pieces.append(piece.tobytes())
        lengths.append(length)
    return PasswordColumn.from_pieces(pieces, lengths)


def _zipf_labels_of_indices(ranks: np.ndarray) -> PasswordColumn:
    """The :func:`zipf_labels` of rank indices: ``b"p%08d" % (r + 1)`` for each r."""
    return zipf_labels(ranks + 1)


def _raw_words(rng: np.random.Generator) -> tuple[Callable[[], int], Callable[[int], np.ndarray]]:
    """The raw 64-bit words of a fresh PCG64 ``Generator``, read in blocks.

    Returns ``next_word``, which gives the next word as an int, and
    ``randoms``, which is ``Generator.random(size)`` of the next ``size``
    words: the rest of the block read ahead, then fresh ones. Both read
    one stream, in the order called, so the generator is not to be drawn
    from directly once its words are read here.
    """
    raw = rng.bit_generator.random_raw
    block: Iterator[int] = iter(())

    def blocks() -> Iterator[Iterator[int]]:
        nonlocal block
        while True:
            block = iter(raw(RAW_BLOCK).tolist())
            yield block

    def randoms(size: int) -> np.ndarray:
        ahead = list(islice(block, size))
        words = np.array(ahead, dtype=np.uint64)
        if len(ahead) < size:
            words = np.concatenate((words, raw(size - len(ahead))))
        return (words >> np.uint64(11)) * 2.0**-53

    return chain.from_iterable(blocks()).__next__, randoms


def _proposal_ranks(
    probs: np.ndarray,
    randoms: Callable[[int], np.ndarray],
    batch: int,
    on_batch: Callable[[np.ndarray], None] | None = None,
) -> Iterator[int]:
    """I.i.d. rank draws from a finite distribution, ``batch`` at a time.

    A batch is drawn when the first of its ranks is asked for.
    ``on_batch``, if given, sees each batch of ranks before any is yielded.
    """
    cum = np.cumsum(np.asarray(probs, dtype=np.float64))
    cum[-1] = 1.0
    while True:
        ranks = np.searchsorted(cum, randoms(batch), side="right")
        if on_batch is not None:
            on_batch(ranks)
        yield from ranks.tolist()


@dataclass
class SimulationReport:
    """Accepted and free-choice tables plus the per-user ask statistics."""

    accepted_table: RankFrequencyTable
    free_table: RankFrequencyTable
    mean_asks: float
    var_asks: float
    rejected_total: int


def count_type(n_users: int, retry_cap: int) -> str:
    """The ``array`` typecode of ``simulate``'s per-rank counts for a run.

    No count passes the run's asks, at most ``n_users * retry_cap``: the
    counts are uint32 when that fits, else uint64. A run whose bound
    passes 2**63 - 1, or with ``n_users`` or ``retry_cap`` below 1, raises
    ``ValueError``.
    """
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if retry_cap < 1:
        raise ValueError("retry_cap must be >= 1")
    asks = n_users * retry_cap
    if asks > 2**63 - 1:
        raise ValueError(f"n_users * retry_cap must be <= 2**63 - 1, got {asks}")
    return "I" if asks < 2**32 else "Q"


def check_ranks(n_ranks: int) -> None:
    """Raise ``ValueError`` for a run of more than ``MAX_RANKS`` ranks."""
    if n_ranks > MAX_RANKS:
        raise ValueError(f"simulate takes at most 2**32 ranks, got {n_ranks}")


def simulate(
    probs: np.ndarray,
    passwords: Sequence[bytes] | None,
    n_users: int,
    *,
    store: CountMinStore | None = None,
    banned: Collection[bytes] = (),
    seed: int = 0,
    retry_cap: int = DEFAULT_RETRY_CAP,
) -> SimulationReport:
    """Simulate n_users enrolments with i.i.d. proposals from a distribution.

    Each user proposes ranks drawn from the probabilities ``probs``, most
    probable first (labelled by ``passwords``), until their session
    accepts. The free-choice table counts every user's first proposal,
    i.e. what would be in use with no gate, and shares the seeded
    tie-break so reports are reproducible byte for byte.

    A session draws its comparison password x uniformly from the distinct
    passwords proposed so far (none for the first user, whose F(x) is 0):
    uniform over the seen support is a draw from the target distribution
    itself, which is what lets the scheme skip a burn-in period and
    flatten, rather than only cap, the head. x and F(x) are fixed for the
    session. Each proposal x' is counted whether or not it is accepted; u
    is uniform on [0, F(x')] from before the increment, and x' is accepted
    when u <= F(x). A password in ``banned``, any collection of bytes, is
    never accepted and draws no u; a session whose x is banned accepts its
    first x' that is not. A session that reaches ``retry_cap`` asks raises
    ``BannedExhaustionError``.

    ``passwords`` is any sequence of distinct labels, one per rank; that
    they are distinct is not checked. A ``PasswordColumn`` is used as
    given, and any other sequence is joined into one. ``None`` labels rank
    index r ``b"p%08d" % (r + 1)``, the labels of :func:`zipf_labels`, made
    only for the ranks that are read. Sessions run over rank indices, a
    rank standing for its label, and labels are read only for a batch's
    fresh ranks, to check them against ``banned`` and to hash them into
    the sketch, and to build the two tables, all through one function of
    rank indices. The per-rank counts are sized by ``count_type``, which
    raises ``ValueError`` for a run whose counts could pass 2**63 - 1, and
    at most 2**32 ranks are taken. F is exact with ``store=None``, else
    the count-min estimate of the sketch laid out by ``store``, whose
    ``hash_evaluations`` grows by its depth per distinct proposed rank,
    also when a session raises.
    """
    counts_type = count_type(n_users, retry_cap)
    check_ranks(len(probs))
    if passwords is None:
        labels = _zipf_labels_of_indices
    else:
        passwords = as_column(passwords)
        if len(passwords) != len(probs):
            raise ValueError("need exactly one password label per rank")
        labels = passwords.take
    accepted, free, asks_total, asks_sq = _run_sessions(
        probs, labels, n_users, store, frozenset(banned), seed, retry_cap, counts_type
    )
    mean = asks_total / n_users
    var = asks_sq / n_users - mean * mean
    return SimulationReport(
        accepted_table=_table(accepted, labels, seed),
        free_table=_table(free, labels, seed),
        mean_asks=mean,
        var_asks=max(var, 0.0),
        rejected_total=asks_total - n_users,
    )


def _run_sessions(
    probs: np.ndarray,
    labels: Callable[[np.ndarray], PasswordColumn],
    n_users: int,
    store: CountMinStore | None,
    banned: frozenset[bytes],
    seed: int,
    retry_cap: int,
    counts_type: str,
) -> tuple[array, array, int, int]:
    """The sessions of ``simulate``: per-rank accepted and free counts, and
    the sum and the sum of squares of the asks per user.

    Every rank's proposals are counted exactly. The per-rank state is
    typed arrays: the counts of type ``counts_type``, the seen pool as
    uint32 ranks and a seen flag per rank. The draws replay the seeded
    generator's raw words (``_raw_words``) as numpy derives them: a
    uniform is ``(word >> 11) * 2**-53``, and the comparison draw is
    ``integers(0, n)`` by Lemire's multiply-and-reject method on 32-bit
    draws, the low half of a fresh word first and its high half kept for
    the next one.

    A rank is labelled once, with the other fresh (never proposed) ranks
    of the first proposal batch that holds it, before any of them is
    proposed: its label is checked against ``banned`` and, with a sketch,
    hashed into it. All sketch counters start at 0, so a rank that is
    alone on a counter in some row is estimated by its own count, as that
    row's counter would give; counters are kept only
    for the other ranks, which take the min over their rows. The layout
    costs one byte per counter, its state: no hashed rank is on it, one
    is, several are, or several are and it is kept (live). The hashed
    ranks and their counters are listed in the order hashed. Rank ids are
    read back from that list: when a batch's new ranks share counters
    that one earlier rank had to itself, or when counters go live, those
    counters are marked in their state, and one pass over the list,
    ``JOIN_BLOCK`` ranks at a time, finds the ranks on them. The per-rank
    session state is freed on return, before the output tables are
    sorted, which is what sets the peak memory of a run.
    """
    n_ranks = len(probs)
    sketch = store is not None
    next_word, randoms = _raw_words(np.random.default_rng(seed))
    seen = array("I")
    is_seen = bytearray(n_ranks)
    counts = array(counts_type, [0]) * n_ranks
    banned_ranks: set[int] = set()
    if sketch:
        depth = store.depth
        # Each counter's state: EMPTY, ONE, SEVERAL or LIVE.
        state = np.zeros(depth * store.width, dtype=np.uint8)
        # The ranks hashed so far, in the order hashed, and each one's
        # counter in each row, ``depth`` offsets a rank.
        hashed = array("I")
        hashed_offsets = array("i")
        # A shared rank has no counter to itself: its estimate is the min
        # of its counters, live[i] for i in reads[r]. Each rank on a live
        # counter lists it in its reads, and counts its asks into it.
        # ``live_index`` maps a live counter's offset to its index in ``live``.
        shared = bytearray(n_ranks)
        reads: dict[int, list[int]] = {}
        live: list[int] = []
        live_index: dict[int, int] = {}

        def join(ranks: np.ndarray, counters: np.ndarray) -> None:
            """Put each rank on the live counter beside it in ``counters``."""
            for rank, i in zip(ranks.tolist(), map(live_index.__getitem__, counters.tolist())):
                live[i] += counts[rank]
                reads.setdefault(rank, []).append(i)

        def marked(offsets: np.ndarray, stop: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
            """Where the first ``stop`` hashed ranks' ``offsets`` hold a marked
            counter, ``JOIN_BLOCK`` ranks at a time: the ranks' positions in
            ``hashed``, and the counters."""
            for start in range(0, stop, JOIN_BLOCK):
                block = offsets[start : min(start + JOIN_BLOCK, stop)].ravel()
                hits = np.flatnonzero(state.take(block) >= MARKED)
                yield start + hits // depth, block[hits]

        def hash_fresh(fresh: np.ndarray, fresh_labels: list[bytes]) -> None:
            fresh_offsets = store.offsets(fresh_labels)
            old = len(hashed)
            hashed.extend(fresh.tolist())
            hashed_offsets.frombytes(fresh_offsets.tobytes())
            # Views, let go on return so that the next batch can extend the arrays.
            ranks_at = np.frombuffer(hashed, dtype=np.uint32)
            offsets_at = np.frombuffer(hashed_offsets, dtype=np.int32).reshape(-1, depth)
            hits = fresh_offsets.ravel()
            on_live = np.flatnonzero(state.take(hits) == LIVE)
            join(fresh[on_live // depth], hits[on_live])
            hits = np.sort(hits)
            first = np.flatnonzero(np.diff(hits, prepend=-1) != 0)
            counters = hits[first]
            before = state[counters]
            alone = (np.diff(first, append=hits.size) == 1) & (before == EMPTY)
            state[counters] = np.where(alone, ONE, np.maximum(before, SEVERAL))
            # Whether a rank has a counter to itself is recomputed for the
            # fresh ranks and for the earlier sole owners of the counters a
            # fresh rank now shares; a rank never gets one back.
            check = [np.arange(old, len(hashed))]
            taken = counters[before == ONE]
            if taken.size:
                state[taken] = SEVERAL | MARKED
                check += [positions for positions, _ in marked(offsets_at, old)]
                state[taken] = SEVERAL
            check = np.concatenate(check)
            turned = check[~(state.take(offsets_at[check]) == ONE).any(axis=1)]
            if not turned.size:
                return
            for rank in ranks_at[turned].tolist():
                shared[rank] = 1
            counters = np.sort(offsets_at[turned].ravel())
            counters = counters[(np.diff(counters, prepend=-1) != 0) & (state[counters] == SEVERAL)]
            if counters.size:
                live_index.update(zip(counters.tolist(), range(len(live), len(live) + counters.size)))
                live.extend([0] * counters.size)
                # Only onto the counters that went live now: the fresh ranks
                # are on the others already.
                state[counters] = LIVE | MARKED
                for positions, went_live in marked(offsets_at, len(hashed)):
                    join(ranks_at[positions], went_live)
                state[counters] = LIVE

    on_batch = None
    if sketch or banned:
        seen_flags = np.frombuffer(is_seen, dtype=np.uint8)  # a view: is_seen as it stands

        def on_batch(ranks: np.ndarray) -> None:
            # Every rank of the earlier batches has been proposed by now, so
            # the ranks not seen yet are the ones not labelled yet.
            fresh = np.sort(ranks[seen_flags[ranks] == 0])
            fresh = fresh[np.diff(fresh, prepend=-1) != 0]
            if not fresh.size:
                return
            # A list: the sketch iterates the labels once per row.
            fresh_labels = list(labels(fresh))
            if banned:
                banned_ranks.update(compress(fresh.tolist(), map(banned.__contains__, fresh_labels)))
            if sketch:
                hash_fresh(fresh, fresh_labels)

    take = _proposal_ranks(probs, randoms, PROPOSAL_BATCH, on_batch).__next__
    accepted = array(counts_type, [0]) * n_ranks
    free = array(counts_type, [0]) * n_ranks
    asks_total = 0
    asks_sq = 0
    # The high half of the last word split for a 32-bit draw, or None.
    high = None
    try:
        for _ in range(n_users):
            rank = take()
            free[rank] += 1
            n_seen = len(seen)
            if n_seen:
                m = 0
                if n_seen > 1:
                    # integers(0, n_seen) draws nothing when n_seen is 1.
                    threshold = ((1 << 32) - n_seen) % n_seen
                    while True:
                        if high is None:
                            word = next_word()
                            high = word >> 32
                            m = (word & 0xFFFFFFFF) * n_seen
                        else:
                            m = high * n_seen
                            high = None
                        if m & 0xFFFFFFFF >= threshold:
                            break
                x = seen[m >> 32]
                if sketch and shared[x]:
                    fx = min(map(live.__getitem__, reads[x]))
                else:
                    fx = counts[x]
                x_banned = x in banned_ranks
            else:
                fx = 0
                x_banned = False
            asks = 0
            while True:
                asks += 1
                if not is_seen[rank]:
                    is_seen[rank] = 1
                    seen.append(rank)
                f_prop = counts[rank]
                counts[rank] = f_prop + 1
                if sketch:
                    row_reads = reads.get(rank)
                    if row_reads is not None:
                        if shared[rank]:
                            f_prop = min(map(live.__getitem__, row_reads))
                        for i in row_reads:
                            live[i] += 1
                # u is drawn for every proposal that is not banned, also where x is banned.
                if rank not in banned_ranks and ((next_word() >> 11) * 2.0**-53 * f_prop <= fx or x_banned):
                    break
                if asks >= retry_cap:
                    raise BannedExhaustionError(f"no acceptable proposal after {retry_cap} asks")
                rank = take()
            accepted[rank] += 1
            asks_total += asks
            asks_sq += asks * asks
    finally:
        if sketch:
            # A rank's keyed row hashes count once, at its first proposal.
            store.hash_evaluations += depth * len(seen)
    return accepted, free, asks_total, asks_sq


def _table(
    rank_counts: array, labels: Callable[[np.ndarray], PasswordColumn], seed: int
) -> RankFrequencyTable:
    counts = np.frombuffer(rank_counts, dtype=rank_counts.typecode)
    ranks = np.flatnonzero(counts)
    # simulate's labels are distinct, so the counted ranks' labels are too.
    return rank_passwords(labels(ranks), counts[ranks].astype(np.int64), seed)


def write_summary_tsv(report: SimulationReport, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("mean_asks\tvar_asks\trejected_total\n")
        fh.write(f"{report.mean_asks:.10g}\t{report.var_asks:.10g}\t{report.rejected_total}\n")
