"""Guesswork and entropy statistics of finite password distributions.

All statistics are functions of the probability sequence alone, evaluated
under three models of a corpus: the empirical frequencies, a uniform model
over the distinct passwords, and a Zipf model over the same ranks. A model
is its float64 array of probabilities, most probable first, as
:func:`check_probs` accepts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import RankFrequencyTable
from .tsvio import NumericError

KIND_EMPIRICAL = "empirical"
KIND_UNIFORM = "uniform"
KIND_ZIPF = "zipf"

DEFAULT_ALPHA = 0.85


def check_probs(p) -> np.ndarray:
    """``p`` as a float64 array, if it is a finite distribution over ranks, most probable first."""
    p = np.asarray(p, dtype=np.float64)
    if len(p) == 0:
        raise ValueError("model has no ranks")
    if not np.all(p > 0.0):
        raise ValueError("probabilities must be positive")
    if not abs(float(p.sum()) - 1.0) <= 1e-9:
        raise ValueError("probabilities must sum to 1 within 1e-9")
    if np.any(np.diff(p) > 0.0):
        raise ValueError("probabilities must be non-increasing in rank")
    return p


def empirical_model(table: RankFrequencyTable) -> np.ndarray:
    """P_i = f_i / total_users, in table order."""
    return check_probs(table.counts.astype(np.float64) / table.total_users)


def uniform_model(n: int) -> np.ndarray:
    """Every one of n passwords equally likely."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return check_probs(np.full(n, 1.0 / n))


def zipf_model(s: float, n: int) -> np.ndarray:
    """P_i = K * i^-s over ranks 1..n, K the normalising constant."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= s < np.inf:
        raise ValueError("s must be >= 0 and finite")
    probs = np.arange(1, n + 1, dtype=np.float64)
    np.power(probs, -s, out=probs)
    probs *= 1.0 / float(probs.sum())
    if not probs[-1] > 0.0:
        raise NumericError(f"Zipf probabilities underflow to 0 at s={s}, n={n}")
    return check_probs(probs)


def guesswork(p: np.ndarray) -> float:
    """Mean guesses to hit a random user's password, guessing in rank order."""
    return float(np.arange(1, len(p) + 1, dtype=np.float64) @ p)


def alpha_guesswork(p: np.ndarray, alpha: float) -> tuple[int, float]:
    """Guessing effort when the attacker stops at cumulative mass alpha.

    Returns (r_alpha, G_alpha): the smallest rank whose cumulative
    probability reaches alpha, and the partial guesswork up to it.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    cum = np.cumsum(p)
    idx = int(np.searchsorted(cum, alpha, side="left"))
    r = min(idx + 1, len(p))
    g = float(np.arange(1, r + 1, dtype=np.float64) @ p[:r])
    return r, g


def shannon_entropy(p: np.ndarray) -> float:
    nz = p[p > 0.0]
    # 0.0 - x, not -x: a one-password distribution has entropy +0, not -0.
    return float(0.0 - (nz * np.log2(nz)).sum())


def min_entropy(p: np.ndarray) -> float:
    return float(0.0 - np.log2(p.max()))


def renyi_half_entropy(p: np.ndarray) -> float:
    """Order-1/2 Renyi entropy, 2 * log2 sum sqrt(P_i), in bits."""
    return float(2.0 * np.log2(np.sqrt(p).sum()))


@dataclass
class GuessStats:
    guesswork_G: float
    alpha: float
    r_alpha: int
    alpha_guesswork: float
    shannon_H: float
    min_entropy: float
    renyi_R: float


def compute_stats(p: np.ndarray, alpha: float = DEFAULT_ALPHA) -> GuessStats:
    r_alpha, g_alpha = alpha_guesswork(p, alpha)
    return GuessStats(
        guesswork_G=guesswork(p),
        alpha=alpha,
        r_alpha=r_alpha,
        alpha_guesswork=g_alpha,
        shannon_H=shannon_entropy(p),
        min_entropy=min_entropy(p),
        renyi_R=renyi_half_entropy(p),
    )


def stats_report(
    table: RankFrequencyTable, s: float, alpha: float = DEFAULT_ALPHA
) -> dict[str, GuessStats]:
    """All statistics under the uniform, empirical and Zipf(``s``) models.

    The uniform and Zipf models share the table's distinct_count as their
    support so the three columns are comparable.
    """
    n = table.distinct_count
    return {
        KIND_UNIFORM: compute_stats(uniform_model(n), alpha),
        KIND_EMPIRICAL: compute_stats(empirical_model(table), alpha),
        KIND_ZIPF: compute_stats(zipf_model(s, n), alpha),
    }


def write_stats_tsv(report: dict[str, GuessStats], path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("model\tG\tG_alpha\tr_alpha\tshannon_H\tmin_entropy\trenyi_R\n")
        for kind in (KIND_UNIFORM, KIND_EMPIRICAL, KIND_ZIPF):
            st = report[kind]
            fh.write(
                f"{kind}\t{st.guesswork_G:.10g}\t{st.alpha_guesswork:.10g}\t{st.r_alpha}"
                f"\t{st.shannon_H:.10g}\t{st.min_entropy:.10g}\t{st.renyi_R:.10g}\n"
            )
