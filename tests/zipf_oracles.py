"""Fresh-array reference implementations of the truncated-Zipf fits.

``pwdist.zipf_fit`` shares ln r, its square and the weights buffer between
the fits of one table, its bootstrap replicates and its debias rounds, and
takes the fit statistic's sup one block of ranks at a time.
These are the versions it must match exactly, bit for bit: each call makes
its arrays afresh.
"""

from __future__ import annotations

import math

import numpy as np

from pwdist.zipf_fit import (
    _EPS,
    _GOLDEN,
    _GOLDEN_BRACKET,
    _GOLDEN_TOL,
    _MAX_PASSES,
    _S_CAP,
    _STEP_TOL,
    FLAG_BOUNDARY,
    FitError,
)


def log_ranks(n: int) -> np.ndarray:
    return np.log(np.arange(1, n + 1, dtype=np.float64))


def rank_weights(s: float, lr: np.ndarray) -> np.ndarray:
    """r^-s as exp(-s ln r), computed in place in one new array."""
    w = lr * -s
    return np.exp(w, out=w)


def mle_core(
    counts: np.ndarray, lr: np.ndarray | None = None, s0: float = 0.0
) -> tuple[float, float, str | None]:
    """Fit non-increasing counts by safeguarded Newton; returns (s, stderr, flag).

    ``lr`` holds at least ``len(counts)`` ln ranks to share between calls;
    ``s0`` is a warm start. One pass gives g and the observed information
    -g'. A step that leaves the bracket bisects it, or doubles s while it
    has no upper end; the solve stops at a step below _STEP_TOL * max(1, s),
    or when rounding noise in g has shrunk the bracket below that width.
    The stderr is 1 / sqrt(information) at the root.
    """
    n = len(counts)
    lr = log_ranks(n) if lr is None else lr[:n]
    m = float(counts.sum())
    a = float(counts @ lr)
    # g(0) = -N * Cov(f, ln r) is exactly 0 for equal counts, whatever sign
    # the rounded sums give it, and positive otherwise.
    flat = counts[0] == counts[-1]
    s = 0.0 if flat else s0
    lr2 = lr * lr
    lo, hi = -math.inf, math.inf
    for _ in range(_MAX_PASSES):
        w = rank_weights(s, lr)
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


def golden_s(counts: np.ndarray, lr: np.ndarray, s0: float = 0.0) -> float:
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
    s_root, stderr, _ = mle_core(counts, lr, s0)
    n = len(counts)
    lr = lr[:n]
    m = float(counts.sum())
    a = float(counts @ lr)

    def score(s: float) -> float:
        w = rank_weights(s, lr)
        return -a + m * float(w @ lr) / float(w.sum())

    def neg_loglik(s: float) -> float:
        return s * a + m * math.log(float(rank_weights(s, lr).sum()))

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


def ad_ks_statistic(counts: np.ndarray, s: float, lr: np.ndarray) -> float:
    """Anderson-Darling-weighted KS distance between rank CDFs.

    Sup over ranks of |empirical - model| / sqrt(model * (1 - model)),
    which weights tail discrepancies as heavily as the middle. The last
    rank, where both CDFs are exactly 1, is excluded, so one rank gives 0.
    The survival term is accumulated from the tail to dodge cancellation.
    ``lr`` holds at least ``len(counts)`` ln ranks.
    """
    w = rank_weights(s, lr[: len(counts)])
    h = w.sum()
    cdf = np.cumsum(w) / h
    surv = np.cumsum(w[::-1])[::-1] / h
    emp = np.cumsum(counts) / counts.sum()
    num = np.abs(emp[:-1] - cdf[:-1])
    den = np.sqrt(cdf[:-1] * surv[1:])
    return float(np.max(num / den, initial=0.0))
