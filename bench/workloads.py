"""Workload definitions shared by run.py, the generator and the checker.

A workload is a set of seeded synthetic inputs plus the ``pwdist`` stages run
over them, one after another. Sizes are given at ``scale = 1``; the smoke
test runs the same plans at a small scale. Stage argv lists use paths
relative to the workload's working directory, which is the stages' cwd.
Stdlib only: run.py imports this module and must stay small.
"""

from __future__ import annotations

from dataclasses import dataclass

ZIPF_S = 0.78


@dataclass(frozen=True)
class Corpus:
    """One generated corpus file.

    ``draw_stream`` picks the random stream of the rank draws, so that two
    corpora over the same labels (a target and its reference) are
    independent samples of one distribution.
    """

    file: str
    lines: int
    draw_stream: int
    user_tab: bool = False


@dataclass(frozen=True)
class Stage:
    name: str
    argv: tuple[str, ...]
    out_dir: str


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    scale: float
    labels: int
    tab_share: float
    corpora: tuple[Corpus, ...]
    stages: tuple[Stage, ...]
    reported: tuple[str, ...]


# What each workload is for; BENCHMARK.json repeats these lines.
WHY = {
    "sparse-tail": "RockYou-like, ~2 users per distinct password: table I/O and the large-N MLE",
    "dense-head": "flirtlife-like, ~20 users per distinct password: many small MLE solves, exact mh-sim",
    "salted-crack": "user-tab corpus hashed under 64 salts and cracked; count-min mh-sim",
}
WORKLOADS = tuple(WHY)

# Subcommand -> metric stem; ``mh-sim`` reports as ``mhsim``.
STAGE_METRIC = {
    "ingest": "ingest",
    "fit": "fit",
    "stats": "stats",
    "curve": "curve",
    "crack": "crack",
    "mh-sim": "mhsim",
}

# Base sizes at scale 1.
SIZES = {
    "sparse-tail": {"labels": 600_000, "corpus": 400_000, "reference": 200_000, "replicates": 20},
    "dense-head": {"labels": 40_000, "corpus": 800_000, "replicates": 40, "mh_users": 40_000},
    "salted-crack": {
        "labels": 100_000,
        "users": 60_000,
        "ordering": 60_000,
        "max_ranks": 6_000,
        "salts": 64,
        "mh_ranks": 100_000,
        "mh_users": 100_000,
    },
}


def _n(base: int, scale: float, floor: int) -> int:
    return max(floor, int(round(base * scale)))


def _stage(cmd: str, out_dir: str, *args: str, seed: int) -> Stage:
    return Stage(cmd, (cmd, *args, "--seed", str(seed), "--out-dir", out_dir), out_dir)


def plan(workload: str, seed: int, scale: float = 1.0) -> Plan:
    """The inputs and stage sequence of one workload at one seed."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    size = SIZES[workload]
    if workload == "sparse-tail":
        corpora = (
            Corpus("corpus.txt", _n(size["corpus"], scale, 2000), draw_stream=1),
            Corpus("reference.txt", _n(size["reference"], scale, 1000), draw_stream=2),
        )
        stages = (
            _stage("ingest", "ingest", "corpus.txt", seed=seed),
            _stage("ingest", "ingest-ref", "reference.txt", seed=seed),
            _stage("fit", "fit", "--table", "ingest/table.tsv",
                   "--replicates", str(size["replicates"]), seed=seed),
            _stage("stats", "stats", "--table", "ingest/table.tsv", seed=seed),
            _stage("curve", "curve", "--target", "ingest/table.tsv",
                   "--reference", "ingest-ref/table.tsv", seed=seed),
        )
        reported = ("ingest", "fit", "stats", "curve")
        labels, tab_share = _n(size["labels"], scale, 3000), 0.0
    elif workload == "dense-head":
        corpora = (Corpus("corpus.txt", _n(size["corpus"], scale, 4000), draw_stream=1),)
        stages = (
            _stage("ingest", "ingest", "corpus.txt", seed=seed),
            _stage("fit", "fit", "--table", "ingest/table.tsv",
                   "--replicates", str(_n(size["replicates"], scale, 5)), "--debias", seed=seed),
            _stage("stats", "stats", "--table", "ingest/table.tsv", seed=seed),
            _stage("curve", "curve", "--target", "ingest/table.tsv", "--truncate", "8", seed=seed),
            _stage("mh-sim", "mh-sim", "--source", "table", "--table", "ingest/table.tsv",
                   "--n-users", str(_n(size["mh_users"], scale, 2000)), "--backend", "exact",
                   seed=seed),
        )
        reported = ("ingest", "fit", "mh-sim")
        labels, tab_share = _n(size["labels"], scale, 200), 0.0
    else:
        corpora = (
            Corpus("users.tsv", _n(size["users"], scale, 2000), draw_stream=1, user_tab=True),
            Corpus("ordering.txt", _n(size["ordering"], scale, 2000), draw_stream=2),
        )
        stages = (
            _stage("ingest", "ingest-users", "users.tsv", "--format", "user-tab-password",
                   seed=seed),
            _stage("ingest", "ingest-ordering", "ordering.txt",
                   "--max-ranks", str(_n(size["max_ranks"], scale, 200)), seed=seed),
            _stage("crack", "crack", "--corpus", "users.tsv", "--format", "user-tab-password",
                   "--salt-count", str(size["salts"]), "--ordering", "ingest-ordering/table.tsv",
                   seed=seed),
            _stage("mh-sim", "mh-sim", "--source", "zipf", "--s", str(ZIPF_S),
                   "--n-ranks", str(_n(size["mh_ranks"], scale, 2000)),
                   "--n-users", str(_n(size["mh_users"], scale, 2000)),
                   "--backend", "count-min", seed=seed),
        )
        reported = ("ingest", "crack", "mh-sim")
        labels, tab_share = _n(size["labels"], scale, 3000), 0.01
    return Plan(workload, seed, scale, labels, tab_share, corpora, stages, reported)
