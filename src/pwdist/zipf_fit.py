"""Zipf exponent estimation for rank-frequency tables.

Five routes to the exponent s of f ~ r^-s:

* ``ls_raw_rank``: least squares on the raw log-log rank-frequency points.
  The long run of frequency-1 passwords drags this slope towards 0.
* ``ls_binned_rank``: least squares after dyadic binning, which rescues
  the slope from the frequency-1 tail.
* ``ls_nk``: least squares on the count-of-counts view (raw or binned),
  where a Zipf law shows up as slope m = -(1 + 1/s).
* ``mle_truncated_zipf``: maximum likelihood for a Zipf truncated to the
  observed number of ranks, with a standard error from the observed
  information, and optionally an indirect-inference bias correction for
  recovering a generator exponent from sampled data.
* ``bootstrap_p_value``: parametric-bootstrap goodness of fit using an
  Anderson-Darling-weighted Kolmogorov-Smirnov statistic.

Slopes are fitted on base-2 logs to line up with the dyadic bins; the
fitted s is base-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ingest import RankFrequencyTable
from .tsvio import NumericError

METHOD_LS_RAW = "ls-raw"
METHOD_LS_BINNED = "ls-binned"
METHOD_NK_RAW = "nk-raw"
METHOD_NK_BINNED = "nk-binned"
METHOD_MLE = "mle"

FLAG_FLAT_SLOPE = "flat-slope"
FLAG_BOUNDARY = "boundary"
FLAG_DEBIASED = "debiased"

_S_CAP = 64.0
_STEP_TOL = 1e-12
_MAX_PASSES = 100
# The golden-section search that defines the debiased exponent.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_BRACKET = 10.0
_GOLDEN_TOL = 1e-9
_EPS = float(np.finfo(np.float64).eps)

# Indirect-inference schedule: fixed-point rounds and simulations per round,
# with more simulations on the last rounds to shrink Monte Carlo noise.
_CORRECTION_ROUNDS = 8
_CORRECTION_SIMS = 12
_CORRECTION_SIMS_FINAL = 24
# Ranks per block of the goodness-of-fit statistic's CDFs.
_STAT_BLOCK = 1 << 13


class FitError(NumericError):
    """No fit can be produced from the given data."""


@dataclass
class ZipfFit:
    """A fitted exponent plus how it was obtained.

    ``slope_m`` is the raw log-log slope for the count-of-counts methods
    (s is recovered via m = -(1 + 1/s)); ``stderr`` and ``p_value`` are
    populated for the MLE only. ``truncation_N`` is the number of ranks
    the fitted model is supported on.
    """

    s: float
    method: str
    truncation_N: int
    slope_m: float | None = None
    stderr: float | None = None
    p_value: float | None = None
    flag: str | None = None


def _ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = float(xc @ xc)
    if denom == 0.0:
        raise FitError("degenerate abscissa for least squares")
    return float(xc @ yc) / denom


def _rank_slope_fit(slope: float, method: str, n: int) -> ZipfFit:
    """The fit s = -slope of a rank-frequency slope, flagged and held at 0 when not positive."""
    s = -slope
    flag = FLAG_FLAT_SLOPE if s <= 0.0 else None
    return ZipfFit(s=max(s, 0.0), method=method, truncation_N=n, flag=flag)


def ls_raw_rank(table: RankFrequencyTable) -> ZipfFit:
    """Least squares of log2 f_i against log2 i over every rank."""
    counts = table.counts.astype(np.float64)
    n = len(counts)
    if n < 2:
        raise FitError("need at least 2 ranks for a least-squares fit")
    slope = _ols_slope(np.log2(np.arange(1, n + 1, dtype=np.float64)), np.log2(counts))
    return _rank_slope_fit(slope, METHOD_LS_RAW, n)


def _bin_dyadic(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dyadic bins over ascending positive ``x``: bin n spans 2^n .. 2^(n+1)-1.

    The ordinate is the total of ``y`` in the bin over the bin's width, so an
    x missing from the data counts as y = 0, and an exact y = C/x^s law
    keeps slope -s instead of picking up the +1 that summing would add. The
    abscissa is the geometric mean of the bin edges 2^n and 2^(n+1), which
    spaces the points exactly one unit apart in log2 and keeps exact dyadic
    data exactly collinear. A final bin that would run past the largest x
    is dropped rather than averaged short, and a bin whose total is zero is
    omitted. The points come back as two float64 arrays, ``(x, y)``.
    """
    x_max = int(x[-1]) if len(x) else 0
    xs: list[float] = []
    ys: list[float] = []
    n = 0
    while (hi := (2 << n) - 1) <= x_max:
        lo = 1 << n
        i, j = np.searchsorted(x, (lo, hi + 1))
        total = int(y[i:j].sum())
        if total > 0:
            xs.append(math.sqrt(lo * (hi + 1)))
            ys.append(total / (hi - lo + 1))
        n += 1
    return np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64)


def bin_dyadic_rank(table: RankFrequencyTable) -> tuple[np.ndarray, np.ndarray]:
    """Dyadic rank bins: the mean frequency over ranks 2^n .. 2^(n+1)-1."""
    return _bin_dyadic(np.arange(1, table.distinct_count + 1), table.counts)


def ls_binned_rank(table: RankFrequencyTable) -> ZipfFit:
    """Least squares on the dyadically binned rank-frequency points."""
    x, y = bin_dyadic_rank(table)
    if len(x) < 2:
        raise FitError("need at least 2 complete dyadic bins")
    return _rank_slope_fit(_ols_slope(np.log2(x), np.log2(y)), METHOD_LS_BINNED, table.distinct_count)


def bin_dyadic_k(cc: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Dyadic bins over the multiplicity k: the mean n_k over k = 2^n .. 2^(n+1)-1.

    ``cc`` is ``(k, n_k)`` as :func:`~pwdist.ingest.count_of_counts` gives
    it. Multiplicities that occur for no password count as zero inside a
    bin; bins whose total is zero are omitted entirely.
    """
    return _bin_dyadic(*cc)


def ls_nk(cc: tuple[np.ndarray, np.ndarray], binned: bool = False) -> ZipfFit:
    """Fit the count-of-counts view ``cc = (k, n_k)``: log2 n_k against log2 k.

    Under Zipf the slope is m = -(1 + 1/s); a slope at or above -1 has no
    corresponding positive s, and one that gives an s above the MLE's cap
    of 64 is as flat as a slope of -1 to rounding. Both are rejected.
    """
    x, y = bin_dyadic_k(cc) if binned else (c.astype(np.float64) for c in cc)
    if len(x) < 2:
        what = "complete dyadic k-bins" if binned else "(k, n_k) points"
        raise FitError(f"need at least 2 {what}")
    slope_m = _ols_slope(np.log2(x), np.log2(y))
    if slope_m >= -1.0:
        raise FitError(f"slope {slope_m:.4g} incompatible with Zipf (needs m < -1)")
    s = 1.0 / (-slope_m - 1.0)
    if s > _S_CAP:
        raise FitError(f"slope {slope_m:.17g} gives s = {s:.4g}, above {_S_CAP:g}")
    return ZipfFit(
        s=s,
        method=METHOD_NK_BINNED if binned else METHOD_NK_RAW,
        truncation_N=int(cc[1].sum()),
        slope_m=slope_m,
    )


# ---------------------------------------------------------------------------
# Truncated-Zipf maximum likelihood
#
# With N ranks, M observations and f_i observations of rank i, the
# log-likelihood is L(s) = -s * a - M * ln H(N, s) where a = sum_i f_i ln i
# and H(N, s) = sum_{r=1}^{N} r^-s. Its score is g(s) = -a + M * E_w[ln r]
# under the weights w = r^-s, and its slope is -M * Var_w[ln r] < 0, so g
# crosses zero at most once and its sign brackets the root.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _LogRanks:
    """ln r for ranks r = 1..n, its square, and a buffer that the weights r^-s are written into.

    The fits of one table, of its bootstrap replicates and of one debias
    round share one, so that no pass over the ranks allocates: ``[:k]``
    gives the first k ranks, sharing the arrays.
    """

    lr: np.ndarray
    lr2: np.ndarray
    w: np.ndarray

    def __getitem__(self, key: slice) -> "_LogRanks":
        return _LogRanks(self.lr[key], self.lr2[key], self.w[key])


def _log_ranks(n: int) -> _LogRanks:
    lr = np.log(np.arange(1, n + 1, dtype=np.float64))
    return _LogRanks(lr, lr * lr, np.empty(n))


def _rank_weights(s: float, ranks: _LogRanks) -> np.ndarray:
    """r^-s as exp(-s ln r), written into the ranks' weights buffer."""
    w = np.multiply(ranks.lr, -s, out=ranks.w)
    return np.exp(w, out=w)


def _mle_core(
    counts: np.ndarray, ranks: _LogRanks | None = None, s0: float = 0.0
) -> tuple[float, float, str | None]:
    """Fit non-increasing counts by safeguarded Newton; returns (s, stderr, flag).

    ``ranks`` covers at least ``len(counts)`` ranks, to share between calls;
    ``s0`` is a warm start. One pass gives g and the observed information
    -g'. A step that leaves the bracket bisects it, or doubles s while it
    has no upper end; the solve stops at a step below _STEP_TOL * max(1, s),
    or when rounding noise in g has shrunk the bracket below that width.
    The stderr is 1 / sqrt(information) at the root.
    """
    n = len(counts)
    ranks = _log_ranks(n) if ranks is None else ranks[:n]
    lr, lr2 = ranks.lr, ranks.lr2
    m = float(counts.sum())
    a = float(counts @ lr)
    # g(0) = -N * Cov(f, ln r) is exactly 0 for equal counts, whatever sign
    # the rounded sums give it, and positive otherwise.
    flat = counts[0] == counts[-1]
    s = 0.0 if flat else s0
    lo, hi = -math.inf, math.inf
    for _ in range(_MAX_PASSES):
        w = _rank_weights(s, ranks)
        h = float(w.sum())
        m1 = float(w @ lr) / h
        g, info = -a + m * m1, m * (float(w @ lr2) / h - m1 * m1)
        if s == 0.0 and (flat or g <= 0.0):
            # Likelihood non-increasing from s = 0: uniform-ish data.
            flag = FLAG_BOUNDARY
            break
        step = g / info if info > 0.0 else math.copysign(math.inf, g)
        tol = _STEP_TOL * max(1.0, s)
        if abs(step) < tol:
            s, flag = s + step, None
            break
        if g > 0.0:
            if s >= _S_CAP:
                raise FitError(f"likelihood still increasing at s = {_S_CAP:g}; no maximum found")
            lo = s
        else:
            hi = s
        if hi - lo <= tol:
            flag = None
            break
        s += step
        if not lo < s < hi:
            s = 0.5 * (lo + hi) if hi < math.inf else max(2.0 * lo, 1.0)
        s = min(max(s, 0.0), _S_CAP)
    else:
        raise FitError(f"no MLE convergence in {_MAX_PASSES} likelihood passes")
    return s, (1.0 / math.sqrt(info) if info > 0.0 else math.inf), flag


def _golden_s(counts: np.ndarray, ranks: _LogRanks, s0: float = 0.0) -> float:
    """The s that a golden-section search on the likelihood returns, bit for bit.

    The debiased exponent is defined with this search: bracket [0, 10],
    doubled while the score at its upper end is positive, golden sections
    on the rounded -L(s) = s * a + M * ln H(N, s) until the bracket is
    narrower than 1e-9, then its midpoint. Rounding noise decides its last
    comparisons, so it stops about 1e-8 from the Newton root. The debias
    rounds draw from exponents built from these fits, and a 1e-8 move
    there changes rng.multinomial's draws and the debiased s by up to 2e-4
    relative, so the rounds keep this search. Here the Newton root s* and
    its information I decide each comparison whose likelihood gap provably
    exceeds the rounding noise; only the others evaluate -L, as the search
    did: about 19 of its 52 passes on a 40,000-rank table, after about 4
    for the Newton solve.
    """
    s_root, stderr, _ = _mle_core(counts, ranks, s0)
    n = len(counts)
    ranks = ranks[:n]
    lr = ranks.lr
    m = float(counts.sum())
    a = float(counts @ lr)

    def score(s: float) -> float:
        w = _rank_weights(s, ranks)
        return -a + m * float(w @ lr) / float(w.sum())

    def neg_loglik(s: float) -> float:
        return s * a + m * math.log(float(_rank_weights(s, ranks).sum()))

    if score(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, _GOLDEN_BRACKET
    while score(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    # |I'| = M |third cumulant of ln r| <= ln N * I, so I(t) lies within
    # exp(+-ln N |t - s*|) of I(s*). ``info`` is shaded for its own
    # rounding, and ``err`` bounds the distance from s* to the true root.
    info = stderr**-2 * (1.0 - 1e-6)
    ln_n = math.log(n)
    err = 1e-9 * max(1.0, s_root)

    def decided(c: float, d: float) -> bool | None:
        """-L(c) < -L(d), when the gap is sure to exceed the noise."""
        # Bounds the search's rounding error in -L at c or d, from exp, the
        # pairwise sum, log and the rounded a.
        noise = _EPS * (abs(a) * (d + n * (d - c)) + m * (ln_n * (2.0 + d) + 32.0))
        if s_root + err <= c or s_root - err >= d:
            # -L is monotone on [c, d]: the gap is at least (d - c) * |g|
            # at the end nearer s*, and there |g| >= I (1 - e^(-eta ln N)) / ln N.
            eta = max(c - s_root, s_root - d) - err
            if (d - c) * info * -math.expm1(-ln_n * eta) / ln_n > 2.0 * noise:
                return s_root < c
            return None
        r = max(s_root - c, d - s_root) + err
        if ln_n * r > 0.5:
            return None
        # Quadratic model about s* plus the cubic remainder bound.
        gap = info * (d - c) * (s_root - 0.5 * (c + d))
        slack = 0.55 * ln_n * info * r**3 / (1.0 - 1e-6) + info * (d - c) * err
        if abs(gap) > slack + 2.0 * noise:
            return gap < 0.0
        return None

    c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fc = fd = None
    while hi - lo > _GOLDEN_TOL:
        left = fc < fd if fc is not None and fd is not None else decided(c, d)
        if left is None:
            fc = neg_loglik(c) if fc is None else fc
            fd = neg_loglik(d) if fd is None else fd
            left = fc < fd
        if left:
            hi, d, fd = d, c, fc
            c, fc = hi - _GOLDEN * (hi - lo), None
        else:
            lo, c, fc = c, d, fd
            d, fd = lo + _GOLDEN * (hi - lo), None
    return 0.5 * (lo + hi)


def _zipf_probs(s: float, n_ranks: int) -> np.ndarray:
    """Truncated Zipf(s, n_ranks) probabilities, as every sampler builds them."""
    p = np.arange(1, n_ranks + 1, dtype=np.float64) ** (-s)
    p /= p.sum()
    return p


def _sorted_table(sample: np.ndarray) -> np.ndarray:
    """The non-zero counts of ``sample`` in descending order, as a sorted table's counts.

    A view of ``sample``, sorted in place, so that a replicate or a debias
    simulation holds no array past its draw.
    """
    sample.sort()
    return sample[::-1][: np.count_nonzero(sample)]


def sample_zipf_counts(s: float, n_ranks: int, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Per-rank counts of n_draws i.i.d. draws from truncated Zipf(s, n_ranks)."""
    return rng.multinomial(n_draws, _zipf_probs(s, n_ranks))


def _indirect_inference(counts: np.ndarray, seed: int) -> float:
    """Solve for the generator exponent whose sort-and-fit output matches.

    Building a table sorts the observed counts, which pairs sampling noise
    assortatively with rank, and drops never-hit ranks from the support.
    Both distort the plain MLE whenever mean counts per rank are small.
    This runs the same sort-and-fit pipeline on simulated corpora and
    walks (s, N) until the simulated fit and distinct count reproduce the
    observed ones. Every fit is ``_golden_s``; each simulation draws as
    ``sample_zipf_counts`` does, from probabilities built once per round.
    """
    m = int(counts.sum())
    n_obs = len(counts)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    s_naive = _golden_s(counts, _log_ranks(n_obs))
    s, n = s_naive, n_obs
    for round_idx in range(_CORRECTION_ROUNDS):
        sims = _CORRECTION_SIMS_FINAL if round_idx >= _CORRECTION_ROUNDS - 2 else _CORRECTION_SIMS
        ranks = _log_ranks(n)
        p = _zipf_probs(s, n)
        fit_sum, distinct_sum = 0.0, 0
        for _ in range(sims):
            rep = _sorted_table(rng.multinomial(m, p))
            fit_sum += _golden_s(rep, ranks, s)
            distinct_sum += len(rep)
            # Let the draw go before the next one is made.
            del rep
        s = max(s + (s_naive - fit_sum / sims), 0.0)
        n = max(int(round(n + (n_obs - distinct_sum / sims))), n_obs)
    return s


def mle_truncated_zipf(
    table: RankFrequencyTable, *, bias_correction: bool = False, seed: int = 0
) -> ZipfFit:
    """Maximum-likelihood exponent for a Zipf truncated at the table size.

    The model support is ranks 1..distinct_count (the observed support is
    the maximum-likelihood choice for N). The standard error comes from
    the observed information at the maximum. A likelihood that decreases
    from s = 0 returns s = 0 with a boundary flag.

    ``bias_correction=True`` additionally removes the sort-and-truncate
    bias by indirect inference, which matters when recovering a known
    generator exponent from sampled corpora; the plain fit is what the
    bootstrap replication uses, and is the default.
    """
    if table.distinct_count < 2 or table.total_users < 2:
        raise FitError("MLE needs at least 2 ranks and 2 observations")
    counts = table.counts
    s, stderr, flag = _mle_core(counts)
    if bias_correction and flag is None:
        s = _indirect_inference(counts, seed)
        flag = FLAG_DEBIASED
    return ZipfFit(
        s=s, method=METHOD_MLE, truncation_N=table.distinct_count, stderr=stderr, flag=flag
    )


def _ad_ks_statistic(counts: np.ndarray, s: float, ranks: _LogRanks) -> float:
    """Anderson-Darling-weighted KS distance between rank CDFs.

    Sup over ranks of |empirical - model| / sqrt(model * (1 - model)),
    which weights tail discrepancies as heavily as the middle. The last
    rank, where both CDFs are exactly 1, is excluded, so counts on one
    rank have no rank left to differ on and give 0. The survival term
    is accumulated from the tail to dodge cancellation. ``ranks`` covers
    at least ``len(counts)`` ranks; the weights go into its buffer.

    The sup is taken ``_STAT_BLOCK`` ranks at a time, so that no CDF
    array spans the ranks. A first pass from the tail keeps the survival
    sum at each block's end; each block's cumsum starts from the sum
    before it, so every partial sum is the float that one cumsum over all
    ranks gives.
    """
    n = len(counts)
    if n < 2:
        return 0.0
    w = _rank_weights(s, ranks[:n])
    h = w.sum()
    total = counts.sum()
    edges = list(range(0, n - 1, _STAT_BLOCK)) + [n - 1]
    buf = np.empty(min(_STAT_BLOCK, n) + 1)

    def carried(carry: float, values: np.ndarray) -> np.ndarray:
        """The running sums of ``values`` from ``carry``, ``carry`` first, in ``buf``."""
        run = buf[: len(values) + 1]
        run[0] = carry
        run[1:] = values
        return np.cumsum(run, out=run)

    # The survival sum at each block's end, over the ranks from there to the
    # last, summed from the tail; found last block first.
    surv_end = [w[n - 1]]
    for k in range(len(edges) - 2, 0, -1):
        surv_end.append(carried(surv_end[-1], w[edges[k] : edges[k + 1]][::-1])[-1])
    surv_end.reverse()
    sups = []
    cdf_carry = emp_carry = 0.0
    for a, b, end in zip(edges, edges[1:], surv_end):
        run = carried(cdf_carry, w[a:b])
        cdf_carry = run[-1]
        cdf = run[1:] / h
        # Summed in float64; exact, as every partial sum is an integer below 2^53.
        run = carried(emp_carry, counts[a:b])
        emp_carry = run[-1]
        num = np.abs(np.subtract(np.divide(run[1:], total), cdf))
        # The survival sums at ranks a + 1 .. b, summed from b down, in rank order.
        surv = carried(end, w[a + 1 : b][::-1])[::-1]
        den = np.sqrt(np.multiply(cdf, np.divide(surv, h, out=surv), out=cdf), out=cdf)
        sups.append(np.max(np.divide(num, den, out=num)))
    return float(np.max(sups))


def bootstrap_p_value(
    table: RankFrequencyTable, fit: ZipfFit, replicates: int = 100, seed: int = 0
) -> float:
    """Parametric-bootstrap p-value for the plain MLE fit.

    Each replicate draws total_users samples from the fitted model, sorts
    them into a table and re-fits with the plain MLE, warm-started at the
    fitted s, mirroring exactly what was done to the data; the p-value is
    the fraction of replicate statistics strictly above the observed one.
    Replicate streams are derived independently from (seed, replicate
    index), so any execution order gives the same answer. A debiased fit
    is tested at the plain fit of the table, which is what the replicates'
    fits estimate.
    """
    if fit.method != METHOD_MLE:
        raise ValueError("p-value is defined for mle fits")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    ranks = _log_ranks(table.distinct_count)
    s = _mle_core(table.counts, ranks)[0] if fit.flag == FLAG_DEBIASED else fit.s
    observed = _ad_ks_statistic(table.counts, s, ranks)
    p = _zipf_probs(s, table.distinct_count)
    exceed = 0
    for i in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        rep = _sorted_table(rng.multinomial(table.total_users, p))
        s_rep, _, _ = _mle_core(rep, ranks, s)
        if _ad_ks_statistic(rep, s_rep, ranks) > observed:
            exceed += 1
        # Let the draw go before the next one is made.
        del rep
    return exceed / replicates


def write_fit_tsv(fits: list[ZipfFit], path) -> None:
    """Export fit rows as ``method s slope_m stderr p_value N flag``.

    ``flag`` is ``boundary``, ``flat-slope``, ``debiased`` or empty.
    """
    def fmt(v) -> str:
        return "" if v is None else f"{v:.10g}"

    with open(path, "w", newline="\n") as fh:
        fh.write("method\ts\tslope_m\tstderr\tp_value\tN\tflag\n")
        for f in fits:
            fh.write(
                f"{f.method}\t{f.s:.10g}\t{fmt(f.slope_m)}\t{fmt(f.stderr)}"
                f"\t{fmt(f.p_value)}\t{f.truncation_N}\t{f.flag or ''}\n"
            )


def write_binned_tsv(series: tuple[np.ndarray, np.ndarray], path) -> None:
    """Export binned points ``(x, y)`` as ``x<TAB>y`` rows for plotting."""
    with open(path, "w", newline="\n") as fh:
        fh.write("x\ty\n")
        for x, y in zip(*(a.tolist() for a in series)):
            fh.write(f"{x:.10g}\t{y:.10g}\n")
