"""Output checks for one benchmark workload, run after its stages (untimed).

Three kinds of check, all against what the generator knows about its own
inputs or against files recorded for the seed:

* oracles: every table, curve and crack output is recomputed from the
  generator's ground truth and compared exactly; the uniform and empirical
  rows of ``stats.tsv`` are compared with closed forms; a sample of
  ``hashes.tsv`` is re-hashed from the ``trunc8-mix64`` specification;
* recorded values: the byte outputs are compared by SHA-256, and the
  ``fit.tsv`` and ``stats.tsv`` floats by relative tolerance ``FLOAT_RTOL``,
  with what ``expected.json`` holds for this workload and seed. ``p_value``
  is only checked to lie in [0, 1]. ``cracked.tsv`` is hashed in the
  canonical form of ``outputs.py``, because the program leaves the order of
  the users within one guess to the per-process hash seed;
* invariants for ``mh-sim``, whose outputs depend on the sketch layout and
  comparison draw: both tables sum to ``n_users``, hold only source
  passwords and agree with the summary. A Zipf-source run of acceptance test
  07's size must also keep the flattening ratio and mean asks inside that
  test's bands; they do not carry over to smaller or table-source runs (a
  4·10^4-user run over a 4·10^4-password table flattens 49-54x).

Prints one JSON object: failures per stage out-dir, and whether a record was
used. ``--record`` stores this run's values as the record instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402
import outputs  # noqa: E402
from workloads import Plan, plan as make_plan  # noqa: E402

RECORD_PATH = Path(__file__).resolve().parent / "expected.json"
FLOAT_RTOL = 1e-6
CLOSED_FORM_RTOL = 1e-8
PINNED = ("table.tsv", "curve.tsv", "hashes.tsv", "cracked.tsv", "curve_users.tsv",
          "curve_distinct.tsv")
# nk-raw and nk-binned are skipped, with a note, when the data give no Zipf slope.
FIT_METHODS = {"ls-raw", "ls-binned", "mle"}
HASH_SAMPLE = 2000
SALT_ALPHABET = b"./0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
# Acceptance test 07: 10^5 users over a Zipf(0.78) source of 10^5 ranks.
MH_BAND_USERS = 100_000
MH_MIN_FLATTENING = 50.0
MH_ASKS_BAND = (1.05, 1.7)

_UNESCAPES = {ord("\\"): b"\\", ord("t"): b"\t", ord("n"): b"\n", ord("r"): b"\r"}


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def unescape(raw: bytes) -> bytes:
    if b"\\" not in raw:
        return raw
    out = bytearray()
    i = 0
    while i < len(raw):
        if raw[i] == ord("\\"):
            out += _UNESCAPES[raw[i + 1]]
            i += 2
        else:
            out.append(raw[i])
            i += 1
    return bytes(out)


def read_rows(path: Path, header: bytes) -> list[list[bytes]]:
    lines = path.read_bytes().split(b"\n")
    expect(lines[0] == header, f"{path.name}: header {lines[0]!r}, want {header!r}")
    expect(lines[-1] == b"", f"{path.name}: no final newline")
    return [line.split(b"\t") for line in lines[1:-1]]


def read_named(path: Path) -> list[dict[str, str]]:
    """A small text TSV as one dict per row, keyed by column name."""
    lines = path.read_text().splitlines()
    names = lines[0].split("\t")
    return [dict(zip(names, line.split("\t"))) for line in lines[1:]]


def read_table(path: Path) -> list[tuple[bytes, int]]:
    rows = read_rows(path, b"rank\tcount\tpassword")
    out = []
    for i, row in enumerate(rows, start=1):
        expect(len(row) >= 3 and int(row[0]) == i, f"{path.name}: bad row {i}")
        out.append((unescape(b"\t".join(row[2:])), int(row[1])))
    counts = [c for _, c in out]
    expect(all(a >= b for a, b in zip(counts, counts[1:])), f"{path.name}: counts increase")
    return out


def check_table(path: Path, truth: dict[bytes, int], max_ranks: int | None = None) -> list:
    rows = read_table(path)
    want = len(truth) if max_ranks is None else min(max_ranks, len(truth))
    expect(len(rows) == want, f"{path}: {len(rows)} rows, want {want}")
    expect(len({p for p, _ in rows}) == len(rows), f"{path}: duplicate password")
    wrong = sum(1 for p, c in rows if truth.get(p) != c)
    expect(wrong == 0, f"{path}: {wrong} rows disagree with the corpus")
    if max_ranks is not None:
        top = sorted(truth.values(), reverse=True)[:want]
        expect([c for _, c in rows] == top, f"{path}: kept ranks are not the top counts")
    return rows


def check_curve(path: Path, increments: list[int], denominator: int) -> None:
    rows = read_rows(path, b"t\tcumulative\tfraction")
    expect(len(rows) == len(increments), f"{path}: {len(rows)} rows, want {len(increments)}")
    cum = np.cumsum(np.asarray(increments, dtype=np.int64))
    got_t = np.array([int(r[0]) for r in rows], dtype=np.int64)
    got_c = np.array([int(r[1]) for r in rows], dtype=np.int64)
    got_f = np.array([float(r[2]) for r in rows])
    expect(np.array_equal(got_t, np.arange(1, len(rows) + 1)), f"{path}: t is not 1..n")
    bad = np.flatnonzero(got_c != cum)
    expect(len(bad) == 0, f"{path}: cumulative wrong from t = {bad[0] + 1 if len(bad) else 0}")
    expect(np.allclose(got_f, cum / denominator, rtol=1e-7, atol=0), f"{path}: fractions wrong")


def check_fit(path: Path, distinct: int) -> dict:
    rows = read_named(path)
    by_method = {r["method"]: r for r in rows}
    expect(FIT_METHODS <= set(by_method), f"{path}: methods {sorted(by_method)}")
    values = {}
    for method, r in by_method.items():
        s = float(r["s"])
        expect(math.isfinite(s) and s > 0, f"{path}: {method} s = {s}")
        values[method] = {k: float(r[k]) for k in ("s", "slope_m", "stderr") if r.get(k)}
    mle = by_method["mle"]
    expect(int(mle["N"]) == distinct, f"{path}: mle N = {mle['N']}, want {distinct}")
    expect(0.0 < float(mle["stderr"]) < math.inf, f"{path}: mle stderr {mle['stderr']}")
    p = float(mle["p_value"])
    expect(0.0 <= p <= 1.0, f"{path}: p_value {p} outside [0, 1]")
    return values


def check_stats(path: Path, counts: np.ndarray) -> dict:
    rows = {r["model"]: r for r in read_named(path)}
    expect(set(rows) == {"uniform", "empirical", "zipf"}, f"{path}: models {sorted(rows)}")
    n = len(counts)
    p = counts / counts.sum()
    closed = {
        ("uniform", "G"): (n + 1) / 2,
        ("uniform", "shannon_H"): math.log2(n),
        ("uniform", "min_entropy"): math.log2(n),
        ("uniform", "renyi_R"): math.log2(n),
        ("empirical", "shannon_H"): float(-(p * np.log2(p)).sum()),
        ("empirical", "min_entropy"): -math.log2(p.max()),
        ("empirical", "G"): float((p * np.arange(1, n + 1)).sum()),
    }
    for (model, col), want in closed.items():
        got = float(rows[model][col])
        expect(math.isclose(got, want, rel_tol=CLOSED_FORM_RTOL),
               f"{path}: {model} {col} = {got}, want {want}")
    return {m: {k: float(v) for k, v in r.items() if k != "model"} for m, r in rows.items()}


def trunc8_mix64(salt: bytes, password: bytes) -> bytes:
    """The documented hash: splitmix64 finaliser over FNV-1a64(salt + password[:8])."""
    h = 0xCBF29CE484222325
    for b in salt + password[:8]:
        h = ((h ^ b) * 0x100000001B3) & (2**64 - 1)
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & (2**64 - 1)
    h ^= h >> 31
    return h.to_bytes(8, "big")


def check_crack(d: Path, users: dict[bytes, bytes], ordering: list[bytes], salt_count: int) -> None:
    rows = read_rows(d / "hashes.tsv", b"user\tsalt-hex\tdigest-hex")
    expect(len(rows) == len(users), f"hashes.tsv: {len(rows)} rows, want {len(users)}")
    expect({unescape(r[0]) for r in rows} == set(users), "hashes.tsv: wrong user set")
    salts = {bytes.fromhex(r[1].decode()) for r in rows}
    expect(len(salts) <= salt_count and all(len(s) == 2 and set(s) <= set(SALT_ALPHABET)
                                            for s in salts), "hashes.tsv: bad salts")
    for r in rows[:HASH_SAMPLE]:
        digest = trunc8_mix64(bytes.fromhex(r[1].decode()), users[unescape(r[0])])
        expect(digest.hex().encode() == r[2], f"hashes.tsv: wrong digest for {r[0]!r}")
    by_prefix = Counter(pw[:8] for pw in users.values())
    seen: set[bytes] = set()
    inc = []
    for g in ordering:
        t = g[:8]
        inc.append(by_prefix[t] if t not in seen else 0)
        seen.add(t)
    check_curve(d / "curve_users.tsv", inc, len(users))
    hits = [1 if i else 0 for i in inc]
    check_curve(d / "curve_distinct.tsv", hits, sum(hits) + len(users) - sum(inc))
    cracked = read_rows(d / "cracked.tsv", b"user\tpassword")
    expect(len(cracked) == sum(inc), f"cracked.tsv: {len(cracked)} rows, want {sum(inc)}")
    wrong = sum(1 for u, pw in cracked if users.get(unescape(u), b"")[:8] != unescape(pw))
    expect(wrong == 0, f"cracked.tsv: {wrong} users cracked with the wrong password")
    blocks = [pw for i, (_, pw) in enumerate(cracked) if i == 0 or cracked[i - 1][1] != pw]
    hit_guesses = [g[:8] for g, i in zip(ordering, inc) if i]
    expect([unescape(pw) for pw in blocks] == hit_guesses,
           "cracked.tsv: rows are not grouped by guess in the ordering's order")


def check_mhsim(d: Path, n_users: int, labels: set[bytes], bands: bool) -> None:
    tables = {}
    for name in ("accepted.tsv", "free.tsv"):
        rows = read_table(d / name)
        expect(sum(c for _, c in rows) == n_users, f"{name}: counts do not sum to {n_users}")
        expect(all(p in labels for p, _ in rows), f"{name}: password outside the source")
        tables[name] = rows
    summary = read_named(d / "summary.tsv")[0]
    mean_asks = float(summary["mean_asks"])
    rejected = int(summary["rejected_total"])
    expect(abs(rejected - (mean_asks - 1) * n_users) <= 1e-6 * n_users + 1,
           "mh-sim: rejected_total disagrees with mean_asks")
    if not bands:
        return
    ratio = tables["free.tsv"][0][1] / tables["accepted.tsv"][0][1]
    expect(ratio >= MH_MIN_FLATTENING, f"mh-sim: flattening {ratio:.1f}x < {MH_MIN_FLATTENING}x")
    lo, hi = MH_ASKS_BAND
    expect(lo <= mean_asks <= hi, f"mh-sim: mean asks {mean_asks} outside [{lo}, {hi}]")


def _flag(stage_argv: tuple[str, ...], flag: str) -> str:
    return stage_argv[stage_argv.index(flag) + 1]


def run_checks(p: Plan, workdir: Path) -> tuple[dict[str, list[str]], dict]:
    """Check every stage's outputs; returns (failures per out-dir, values to record)."""
    labels, corpora = gen.build(p)
    truths = {name: gen.truth_table(labels, t) for name, t in corpora.items()}
    failures: dict[str, list[str]] = {}
    values: dict = {"sha256": {}}
    tables: dict[str, list[tuple[bytes, int]]] = {}

    for st in p.stages:
        d = workdir / st.out_dir
        try:
            if st.name == "ingest":
                source = st.argv[1]
                max_ranks = int(_flag(st.argv, "--max-ranks")) if "--max-ranks" in st.argv else None
                tables[st.out_dir] = check_table(d / "table.tsv", truths[source], max_ranks)
            elif st.name == "fit":
                values["fit"] = check_fit(d / "fit.tsv", len(truths[p.corpora[0].file]))
            elif st.name == "stats":
                counts = np.array(sorted(truths[p.corpora[0].file].values(), reverse=True),
                                  dtype=np.float64)
                values["stats"] = check_stats(d / "stats.tsv", counts)
            elif st.name == "curve":
                target = truths[p.corpora[0].file]
                if "--reference" in st.argv:
                    ref_rows = tables[Path(_flag(st.argv, "--reference")).parent.name]
                    inc = [target.get(pw, 0) for pw, _ in ref_rows]
                else:
                    agg = Counter()
                    for pw, c in target.items():
                        agg[pw[: int(_flag(st.argv, "--truncate"))]] += c
                    inc = sorted(agg.values(), reverse=True)
                check_curve(d / "curve.tsv", inc, sum(target.values()))
            elif st.name == "crack":
                truth = corpora[_flag(st.argv, "--corpus")]
                users = dict(zip(truth.users.tolist(), labels[truth.label_ids].tolist()))
                ordering = [pw for pw, _ in tables[Path(_flag(st.argv, "--ordering")).parent.name]]
                check_crack(d, users, ordering, int(_flag(st.argv, "--salt-count")))
            elif st.name == "mh-sim":
                n_users = int(_flag(st.argv, "--n-users"))
                zipf = _flag(st.argv, "--source") == "zipf"
                if zipf:
                    source = {b"p%08d" % i for i in range(1, int(_flag(st.argv, "--n-ranks")) + 1)}
                else:
                    source = {pw for pw, _ in tables[Path(_flag(st.argv, "--table")).parent.name]}
                check_mhsim(d, n_users, source, bands=zipf and n_users >= MH_BAND_USERS)
            for name in PINNED:
                if (d / name).exists():
                    values["sha256"][f"{st.out_dir}/{name}"] = outputs.digest(d / name)
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            failures.setdefault(st.out_dir, []).append(f"{type(exc).__name__}: {exc}")
    return failures, values


def plan_key(p: Plan) -> str:
    return f"{p.workload}/{p.seed}"


def plan_digest(p: Plan) -> str:
    return hashlib.sha256(repr((p.labels, p.tab_share, p.corpora, p.stages)).encode()).hexdigest()


def compare_record(p: Plan, values: dict, record: dict, failures: dict[str, list[str]]) -> None:
    def fail(path: str, message: str) -> None:
        failures.setdefault(path.split("/")[0], []).append(message)

    if record["plan"] != plan_digest(p):
        fail(p.stages[0].out_dir, "expected.json entry was recorded for other sizes")
        return
    for path, digest in record["sha256"].items():
        if values["sha256"].get(path) != digest:
            fail(path, f"{path}: SHA-256 differs from the record")
    for kind in ("fit", "stats"):
        out_dir = next(st.out_dir for st in p.stages if st.name == kind) if kind in record else None
        for row, cols in record.get(kind, {}).items():
            for col, want in cols.items():
                got = values.get(kind, {}).get(row, {}).get(col)
                if got is None or not math.isclose(got, want, rel_tol=FLOAT_RTOL):
                    fail(out_dir, f"{kind}.tsv: {row} {col} = {got}, recorded {want}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--record", action="store_true", help="store this run's values as the record")
    args = ap.parse_args(argv)
    p = make_plan(args.workload, args.seed, args.scale)
    failures, values = run_checks(p, Path(args.workdir))
    records = json.loads(RECORD_PATH.read_text()) if RECORD_PATH.exists() else {}
    key = plan_key(p)
    if args.record:
        if failures:
            print(json.dumps(failures), file=sys.stderr)
            return 1
        records[key] = {"plan": plan_digest(p), **values}
        RECORD_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    elif key in records and args.scale == 1.0:
        compare_record(p, values, records[key], failures)
    print(json.dumps({"failures": failures, "recorded": key in records and args.scale == 1.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
