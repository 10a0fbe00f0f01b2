"""Seeded synthetic corpora for the benchmark workloads (stdlib + numpy).

Every byte follows from the workload plan and its seed. Passwords are labels
drawn from a Zipf(0.78) law over ranks, and ranks map to labels through a
seeded permutation. About a third of the labels are longer than 8 bytes, with
random 8-byte prefixes; a few of those copy another long label's prefix, so
truncating to 8 bytes merges passwords only now and then. About 1% of labels
carry a backslash, and in user-tab corpora 1% carry a TAB, so TSV escaping
does real work. User-tab corpora also hold re-entries (the user's last line
wins) and malformed lines without a TAB.

Run as a script it writes one workload's inputs into a directory and prints
the numpy and BLAS build it ran with:

    python bench/gen.py --workload sparse-tail --seed 1 --workdir DIR
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import ZIPF_S, Corpus, Plan, plan as make_plan  # noqa: E402

ALPHABET = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz0123456789", dtype=np.uint8)
ID_WIDTH = 5
LONG_SHARE = 1 / 3
SHARED_PREFIX_SHARE = 0.03
BACKSLASH_SHARE = 0.01
REENTRY_SHARE = 0.05
MALFORMED_SHARE = 0.001

STREAM_LABELS = 0
STREAM_USERS = 100


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def make_labels(seed: int, n: int, tab_share: float) -> np.ndarray:
    """``n`` distinct password labels as a numpy bytes array.

    Layout: random body, optional backslash, optional TAB, then a fixed-width
    base-36 id that makes every label unique.
    """
    if n > 36**ID_WIDTH:
        raise ValueError("too many labels for the id width")
    rng = _rng(seed, STREAM_LABELS)
    long_ = rng.random(n) < LONG_SHARE
    body_len = np.where(long_, 8 + rng.integers(1, 5, n), rng.integers(0, 4, n))
    body = ALPHABET[rng.integers(0, len(ALPHABET), (n, 12))]
    long_idx = np.flatnonzero(long_)
    copiers = long_idx[rng.random(len(long_idx)) < SHARED_PREFIX_SHARE]
    body[copiers, :8] = body[rng.choice(long_idx, len(copiers)), :8]
    backslash = (rng.random(n) < BACKSLASH_SHARE).astype(np.int64)
    tab = (rng.random(n) < tab_share).astype(np.int64)
    ids = np.arange(n)
    id_chars = np.stack(
        [ALPHABET[(ids // 36**k) % 36] for k in range(ID_WIDTH - 1, -1, -1)], axis=1
    )
    e1 = body_len
    e2 = e1 + backslash
    e3 = e2 + tab
    e4 = e3 + ID_WIDTH
    width = 12 + 2 + ID_WIDTH
    out = np.zeros((n, width), dtype=np.uint8)
    rows = np.arange(n)
    for c in range(width):
        id_pos = np.clip(c - e3, 0, ID_WIDTH - 1)
        out[:, c] = np.where(
            c < e1,
            body[:, min(c, 11)],
            np.where(
                c < e2,
                ord("\\"),
                np.where(c < e3, ord("\t"), np.where(c < e4, id_chars[rows, id_pos], 0)),
            ),
        )
    return out.view(f"S{width}").ravel()


def draw_ranks(seed: int, stream: int, n_labels: int, n_draws: int) -> np.ndarray:
    """0-based Zipf(ZIPF_S) ranks of ``n_draws`` i.i.d. draws."""
    cdf = np.cumsum(np.arange(1, n_labels + 1, dtype=np.float64) ** -ZIPF_S)
    cdf /= cdf[-1]
    u = _rng(seed, stream).random(n_draws)
    return np.minimum(np.searchsorted(cdf, u, side="right"), n_labels - 1)


@dataclass
class CorpusTruth:
    """What a correct ingest must find in one corpus.

    ``label_ids`` holds the label of every counted password: one per line
    for password-per-line input, one per user (their last entry) for
    user-tab input. ``users`` names those users in the same order.
    """

    raw: bytes
    label_ids: np.ndarray
    users: np.ndarray | None = None


def build_corpus(p: Plan, corpus: Corpus, labels: np.ndarray, perm: np.ndarray) -> CorpusTruth:
    if not corpus.user_tab:
        ids = perm[draw_ranks(p.seed, corpus.draw_stream, len(labels), corpus.lines)]
        raw = b"\n".join(labels[ids].tolist()) + b"\n"
        return CorpusTruth(raw, ids)
    rng = _rng(p.seed, STREAM_USERS + corpus.draw_stream)
    n_malformed = max(1, int(corpus.lines * MALFORMED_SHARE))
    n_reentry = int(corpus.lines * REENTRY_SHARE)
    n_users = corpus.lines - n_malformed - n_reentry
    user_of_line = rng.permutation(
        np.concatenate([np.arange(n_users), rng.integers(0, n_users, n_reentry)])
    )
    n_valid = len(user_of_line)
    ids = perm[draw_ranks(p.seed, corpus.draw_stream, len(labels), n_valid)]
    names = np.char.add(b"user", np.char.zfill(user_of_line.astype("S7"), 7))
    valid = np.char.add(np.char.add(names, b"\t"), labels[ids])
    bad = np.char.add(b"malformed-line-", np.arange(n_malformed).astype("S7"))
    at = np.sort(rng.integers(0, n_valid + 1, n_malformed))
    raw = b"\n".join(np.insert(valid.astype(object), at, bad.astype(object)).tolist()) + b"\n"
    # The last entry of each user wins: first occurrence in the reversed order.
    _, first_rev = np.unique(user_of_line[::-1], return_index=True)
    last = n_valid - 1 - first_rev
    return CorpusTruth(raw, ids[last], names[last])


def build(p: Plan) -> tuple[np.ndarray, dict[str, CorpusTruth]]:
    """Labels plus every corpus of the plan, in memory."""
    labels = make_labels(p.seed, p.labels, p.tab_share)
    perm = _rng(p.seed, STREAM_LABELS + 1).permutation(p.labels)
    return labels, {c.file: build_corpus(p, c, labels, perm) for c in p.corpora}


def truth_table(labels: np.ndarray, truth: CorpusTruth) -> dict[bytes, int]:
    """Password -> count, as a correct ingest tallies it."""
    counts = np.bincount(truth.label_ids, minlength=len(labels))
    hit = np.flatnonzero(counts)
    return dict(zip(labels[hit].tolist(), counts[hit].tolist()))


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    p = make_plan(args.workload, args.seed, args.scale)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    _, corpora = build(p)
    for name, truth in corpora.items():
        (workdir / name).write_bytes(truth.raw)
    print(json.dumps(environment()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
