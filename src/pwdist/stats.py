"""Guesswork and entropy statistics of finite password distributions.

All statistics are functions of the probability sequence alone, evaluated
under three models of a corpus: the empirical frequencies, a uniform model
over the distinct passwords, and a fitted Zipf model over the same ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import RankFrequencyTable
from .zipf_fit import ZipfFit

KIND_EMPIRICAL = "empirical"
KIND_UNIFORM = "uniform"
KIND_ZIPF = "zipf"

DEFAULT_ALPHA = 0.85


@dataclass
class ProbabilityModel:
    """A finite distribution over ranks, most probable first."""

    probs: np.ndarray
    kind: str

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)

    @property
    def n_ranks(self) -> int:
        return len(self.probs)

    def validate(self) -> None:
        p = self.probs
        if len(p) == 0:
            raise ValueError("model has no ranks")
        if not np.all(p > 0.0):
            raise ValueError("probabilities must be positive")
        if not abs(float(p.sum()) - 1.0) <= 1e-9:
            raise ValueError("probabilities must sum to 1 within 1e-9")
        if np.any(np.diff(p) > 0.0):
            raise ValueError("probabilities must be non-increasing in rank")


def empirical_model(table: RankFrequencyTable) -> ProbabilityModel:
    """P_i = f_i / total_users, in table order."""
    probs = table.counts.astype(np.float64) / table.total_users
    model = ProbabilityModel(probs=probs, kind=KIND_EMPIRICAL)
    model.validate()
    return model


def uniform_model(n: int) -> ProbabilityModel:
    """Every one of n passwords equally likely."""
    if n < 1:
        raise ValueError("n must be >= 1")
    model = ProbabilityModel(probs=np.full(n, 1.0 / n), kind=KIND_UNIFORM)
    model.validate()
    return model


def zipf_model(s: float, n: int) -> ProbabilityModel:
    """P_i = K * i^-s over ranks 1..n, K the normalising constant."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not s >= 0.0:
        raise ValueError("s must be >= 0")
    probs = np.arange(1, n + 1, dtype=np.float64)
    np.power(probs, -s, out=probs)
    probs *= 1.0 / float(probs.sum())
    model = ProbabilityModel(probs=probs, kind=KIND_ZIPF)
    model.validate()
    return model


def guesswork(model: ProbabilityModel) -> float:
    """Mean guesses to hit a random user's password, guessing in rank order."""
    p = model.probs
    return float(np.arange(1, len(p) + 1, dtype=np.float64) @ p)


def alpha_guesswork(model: ProbabilityModel, alpha: float) -> tuple[int, float]:
    """Guessing effort when the attacker stops at cumulative mass alpha.

    Returns (r_alpha, G_alpha): the smallest rank whose cumulative
    probability reaches alpha, and the partial guesswork up to it.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    p = model.probs
    cum = np.cumsum(p)
    idx = int(np.searchsorted(cum, alpha, side="left"))
    r = min(idx + 1, len(p))
    g = float(np.arange(1, r + 1, dtype=np.float64) @ p[:r])
    return r, g


def shannon_entropy(model: ProbabilityModel) -> float:
    p = model.probs
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def min_entropy(model: ProbabilityModel) -> float:
    return float(-np.log2(model.probs.max()))


def renyi_half_entropy(model: ProbabilityModel) -> float:
    """Order-1/2 Renyi entropy, 2 * log2 sum sqrt(P_i), in bits."""
    return float(2.0 * np.log2(np.sqrt(model.probs).sum()))


@dataclass
class GuessStats:
    guesswork_G: float
    alpha: float
    r_alpha: int
    alpha_guesswork: float
    shannon_H: float
    min_entropy: float
    renyi_R: float


def compute_stats(model: ProbabilityModel, alpha: float = DEFAULT_ALPHA) -> GuessStats:
    r_alpha, g_alpha = alpha_guesswork(model, alpha)
    return GuessStats(
        guesswork_G=guesswork(model),
        alpha=alpha,
        r_alpha=r_alpha,
        alpha_guesswork=g_alpha,
        shannon_H=shannon_entropy(model),
        min_entropy=min_entropy(model),
        renyi_R=renyi_half_entropy(model),
    )


def stats_report(
    table: RankFrequencyTable, fit: ZipfFit, alpha: float = DEFAULT_ALPHA
) -> dict[str, GuessStats]:
    """All statistics under the uniform, empirical and Zipf models.

    The uniform and Zipf models share the table's distinct_count as their
    support so the three columns are comparable.
    """
    n = table.distinct_count
    return {
        KIND_UNIFORM: compute_stats(uniform_model(n), alpha),
        KIND_EMPIRICAL: compute_stats(empirical_model(table), alpha),
        KIND_ZIPF: compute_stats(zipf_model(fit.s, n), alpha),
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
