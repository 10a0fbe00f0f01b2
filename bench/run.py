"""Seeded pipeline benchmark for pwdist.

    python3 bench/run.py --workload sparse-tail --seed 1 --seconds 30 --trace 0

Run from anywhere; it works on the checkout that holds this file and writes
only under ``.bench_work/`` there, which it removes at the end.

One run of a workload:

1. Set-up, repeated ``SETUP_REPEATS`` times: a child process writes the
   seeded inputs (``gen.py``), then ``python -m pwdist.cli --version`` pays
   the interpreter, numpy and pwdist import cost that every stage pays.
2. Timed loop, a closed loop with one client: the workload's stages run one
   after another, each in a fresh ``python -m pwdist.cli`` process with
   ``PYTHONPATH=<checkout>/src``. ``os.wait4`` gives each child's wall time,
   CPU time and peak RSS. The loop repeats the whole sequence until
   ``--seconds`` of pipeline time have been measured (at least
   ``MIN_ITERATIONS`` times) and reports medians. This process imports
   neither numpy nor pwdist, so its own RSS, which a forked child inherits
   as its starting high-water mark, stays small.
3. Host speed: before every stage the loop also times ``PROBE``, a child
   that imports numpy and nothing of pwdist. ``pipeline_s``, ``setup_s``
   and the printed per-stage times are scaled by ``PROBE_REF_S`` / (median
   probe time of the run), i.e. given in seconds at a host speed where the
   probe takes ``PROBE_REF_S``. On the shared 2-core VM this was built on,
   the same salted-crack pass took 6.1 s to 10.6 s within six minutes, in
   phases of one to two minutes; over runs of four passes the quartile
   spread was 0.30 of the median raw and 0.14 scaled. Raw times are printed
   too, and the per-layer metrics are raw, with ``host.probe_s`` beside them.
4. Checks, untimed: after the first pass ``check.py`` verifies every output
   against the generator's ground truth and the record in ``expected.json``;
   every later pass must reproduce the first pass's output files byte for
   byte, in the canonical form of ``outputs.py``. A stage invocation that
   exits non-zero or fails a check counts as failed. A ``cracked.tsv`` whose
   rows within one guess come in another order is printed as a
   ``bench-known-defect`` line on stderr and does not count as failed.
5. With ``--trace 1``, one more pass runs each stage under ``tracer.py``
   and the per-layer metrics come from its spans; the traced outputs must
   equal the untraced ones.

The last line of stdout is the JSON result; lines before it give every
metric by name and unit, and the run record (source digest, nproc, Python,
numpy, BLAS and its thread count). Exits 2 without a result when the
program is missing or cannot start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import outputs  # noqa: E402
from workloads import STAGE_METRIC, WORKLOADS, Plan, plan as make_plan  # noqa: E402

SETUP_REPEATS = 3
MIN_ITERATIONS = 3
# Host-speed probe: a fixed child that never touches pwdist. Its wall time on
# this VM's fast phases is about PROBE_REF_S.
PROBE = [sys.executable, "-c", "import numpy"]
PROBE_REF_S = 0.2
LAYERS = ("ingest", "zipf_fit", "stats", "crossguess", "crack", "mh_uniform")

END_TO_END = {
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics that are a sum of span self times: name -> span names.
SPAN_TIMES = {
    "ingest.stream_table_s": ("ingest.stream_table",),
    "ingest.parse_corpus_s": ("ingest.parse_corpus",),
    "ingest.cleanup_s": ("ingest.cleanup",),
    "ingest.read_table_s": ("ingest.read_table_tsv",),
    "ingest.write_table_s": ("ingest.write_table_tsv",),
    "zipf_fit.mle_s": ("zipf_fit.mle_truncated_zipf",),
    "zipf_fit.debias_s": ("zipf_fit._indirect_inference",),
    "zipf_fit.bootstrap_s": ("zipf_fit.bootstrap_p_value",),
    "zipf_fit.ls_s": ("zipf_fit.ls_raw_rank", "zipf_fit.ls_binned_rank", "zipf_fit.ls_nk",
                      "zipf_fit.bin_dyadic_rank", "zipf_fit.bin_dyadic_k"),
    "stats.report_s": ("stats.stats_report",),
    "crossguess.ordering_s": ("crossguess.from_table", "crossguess.dictionary_ordering"),
    "crossguess.cross_curve_s": ("crossguess.cross_curve",),
    "crossguess.self_curve_s": ("crossguess.self_curve",),
    "crossguess.truncate_reaggregate_s": ("crossguess.truncate_reaggregate",),
    "crossguess.write_curve_s": ("crossguess.write_curve_tsv",),
    "crack.hash_corpus_s": ("crack.hash_corpus",),
    "crack.replay_s": ("crack.crack",),
    "crack.write_s": ("crack.write_hashes_tsv", "crack.write_cracked_tsv"),
    "mh_uniform.simulate_s": ("mh_uniform.simulate",),
}

# name -> (unit, better); BENCHMARK.json lists the same metrics.
PER_LAYER = {
    "cli.startup_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    **{f"cli.{m}.{k}": (u, "lower") for m in STAGE_METRIC.values()
       for k, u in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))},
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{name: ("s", "lower") for name in SPAN_TIMES},
    "ingest.lines_per_s": ("lines/s", "higher"),
    "ingest.read_rows_per_s": ("rows/s", "higher"),
    "ingest.write_rows_per_s": ("rows/s", "higher"),
    "ingest.lines": ("count", "higher"),
    "ingest.malformed": ("count", "higher"),
    "ingest.distinct": ("count", "higher"),
    "zipf_fit.replicate_ms": ("ms", "lower"),
    "zipf_fit.replicate_distinct": ("count", "higher"),
    "crossguess.curve_rows": ("count", "higher"),
    "crack.hash_corpus_users_per_s": ("users/s", "higher"),
    "crack.replay_guesses_per_s": ("guesses/s", "higher"),
    "crack.cracked_users": ("count", "higher"),
    "crack.hit_ratio": ("fraction", "higher"),
    "mh_uniform.asks_per_s": ("asks/s", "higher"),
    "mh_uniform.asks": ("count", "lower"),
    "mh_uniform.accept_ratio": ("fraction", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "host.probe_s": ("s", "lower"),
}


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


@dataclass
class Pass:
    """One run of the whole stage sequence, with a host-speed probe before each stage."""

    stages: list[ChildRun] = field(default_factory=list)
    probes_s: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.stages)


def run_child(argv: list[str], cwd: Path, log: Path, env: dict | None = None) -> ChildRun:
    """Run a child to completion; its output goes to ``log``."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                    proc.returncode)


def stage_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "pwdist.cli", *args]


def setup(p: Plan, workdir: Path, env: dict) -> tuple[list[float], list[float], dict]:
    """Write the inputs and start the program, ``SETUP_REPEATS`` times.

    Returns the set-up times, the ``--version`` start-up times and the
    generator's report of the numpy and BLAS it ran with.
    """
    totals, startups = [], []
    gen_argv = [sys.executable, str(BENCH / "gen.py"), "--workload", p.workload,
                "--seed", str(p.seed), "--scale", repr(p.scale), "--workdir", str(workdir)]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        gen = run_child(gen_argv, workdir, workdir / "gen.log")
        version = run_child(cli_argv("--version"), workdir, workdir / "version.log", env)
        totals.append(time.perf_counter() - start)
        startups.append(version.wall_s)
        if gen.code != 0 or version.code != 0:
            log = "gen.log" if gen.code else "version.log"
            raise RuntimeError(f"set-up failed:\n{(workdir / log).read_text(errors='replace')}")
    report = json.loads((workdir / "gen.log").read_text().splitlines()[-1])
    return totals, startups, report


def run_pass(p: Plan, workdir: Path, env: dict) -> Pass:
    out = Pass()
    for i, st in enumerate(p.stages):
        out.probes_s.append(run_child(PROBE, workdir, workdir / "probe.log", env).wall_s)
        out.stages.append(run_child(cli_argv(*st.argv), workdir, workdir / f"stage{i}.log", env))
    return out


def digests(p: Plan, workdir: Path, digest=outputs.digest) -> dict[str, str]:
    """Every output file's digest, by default in ``outputs.py``'s canonical form."""
    found = {}
    for st in p.stages:
        for path in sorted((workdir / st.out_dir).glob("*")):
            found[f"{st.out_dir}/{path.name}"] = digest(path)
    return found


def changed(before: dict[str, str], now: dict[str, str]) -> set[str]:
    return {k for k in before.keys() | now.keys() if before.get(k) != now.get(k)}


def failed_stages(p: Plan, ps: Pass, bad_dirs: set[str]) -> int:
    return sum(1 for st, r in zip(p.stages, ps.stages) if r.code != 0 or st.out_dir in bad_dirs)


def run_check(p: Plan, workdir: Path, record: bool) -> set[str]:
    argv = [sys.executable, str(BENCH / "check.py"), "--workload", p.workload,
            "--seed", str(p.seed), "--scale", repr(p.scale), "--workdir", str(workdir)]
    if record:
        argv.append("--record")
    r = run_child(argv, workdir, workdir / "check.log")
    text = (workdir / "check.log").read_text(errors="replace")
    if r.code != 0:
        print(text, file=sys.stderr)
        return {st.out_dir for st in p.stages}
    result = json.loads(text.splitlines()[-1])
    for out_dir, messages in result["failures"].items():
        for m in messages:
            print(f"bench-check-failed\t{out_dir}\t{m}", file=sys.stderr)
    if not result["recorded"]:
        print("bench-note\tno record for this seed: byte outputs checked against the "
              "ground truth and across passes only", file=sys.stderr)
    return set(result["failures"])


def per_stage(p: Plan, passes: list[Pass], pick, combine) -> dict[str, float]:
    """Median over passes of ``combine`` over each subcommand's processes."""
    out = {}
    for cmd, metric in STAGE_METRIC.items():
        values = []
        for ps in passes:
            runs = [pick(r) for st, r in zip(p.stages, ps.stages) if st.name == cmd]
            values.append(combine(runs) if runs else 0.0)
        out[metric] = statistics.median(values)
    return out


def self_times(spans: list[dict]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def trace_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the spans of every traced stage."""
    own = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, own):
        by_name[s["name"]] += t
        by_layer[s["layer"]] += t
        for k, v in s.get("counters", {}).items():
            counts[f"{s['name']}.{k}"] += v
    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    m = {f"{layer}.self_s": by_layer[layer] for layer in LAYERS}
    m["cli.self_s"] = by_layer["cli"]
    for metric, names in SPAN_TIMES.items():
        m[metric] = sum(by_name[n] for n in names)
    m["ingest.lines"] = counts["ingest.stream_table.lines"]
    m["ingest.malformed"] = counts["ingest.stream_table.malformed"]
    m["ingest.distinct"] = counts["ingest.stream_table.distinct"]
    m["ingest.lines_per_s"] = rate(m["ingest.lines"], m["ingest.stream_table_s"])
    m["ingest.read_rows_per_s"] = rate(counts["ingest.read_table_tsv.rows"],
                                       m["ingest.read_table_s"])
    m["ingest.write_rows_per_s"] = rate(counts["ingest.write_table_tsv.rows"],
                                        m["ingest.write_table_s"])
    replicates = counts["zipf_fit.bootstrap_p_value.replicates"]
    m["zipf_fit.replicate_ms"] = rate(1000 * m["zipf_fit.bootstrap_s"], replicates)
    m["zipf_fit.replicate_distinct"] = counts["zipf_fit.bootstrap_p_value.distinct"]
    m["crossguess.curve_rows"] = counts["crossguess.write_curve_tsv.rows"]
    m["crack.hash_corpus_users_per_s"] = rate(counts["crack.hash_corpus.users"],
                                              m["crack.hash_corpus_s"])
    guesses = counts["crack.crack.guesses"]
    m["crack.replay_guesses_per_s"] = rate(guesses, m["crack.replay_s"])
    m["crack.cracked_users"] = counts["crack.crack.cracked"]
    m["crack.hit_ratio"] = rate(counts["crack.crack.hit_guesses"], guesses)
    m["mh_uniform.asks"] = counts["mh_uniform.simulate.asks"]
    m["mh_uniform.asks_per_s"] = rate(m["mh_uniform.asks"], m["mh_uniform.simulate_s"])
    m["mh_uniform.accept_ratio"] = rate(counts["mh_uniform.simulate.users"], m["mh_uniform.asks"])
    return m


def traced_pass(p: Plan, workdir: Path, env: dict) -> tuple[float, list[dict], set[str]]:
    """Run every stage under the tracer into ``traced/``.

    Returns the summed stage wall time, all spans, and the out-dirs whose
    stage failed or whose outputs differ from the untraced pass.
    """
    tdir = workdir / "traced"
    shutil.rmtree(tdir, ignore_errors=True)
    tdir.mkdir()
    for name in (c.file for c in p.corpora):
        os.symlink(workdir / name, tdir / name)
    wall, spans, bad = 0.0, [], set()
    untraced = digests(p, workdir)
    for i, st in enumerate(p.stages):
        spans_path = tdir / f"spans{i}.json"
        r = run_child([sys.executable, str(BENCH / "tracer.py"), str(spans_path), *st.argv],
                      tdir, tdir / f"stage{i}.log", env)
        wall += r.wall_s
        if r.code != 0 or not spans_path.exists():
            bad.add(st.out_dir)
            continue
        traced = json.loads(spans_path.read_text())
        for e in traced["errors"]:
            print(f"bench-trace-note\t{e}", file=sys.stderr)
        stage_spans = traced["spans"]
        root = stage_spans[0]
        own = sum(self_times(stage_spans))
        if abs(own - (root["end"] - root["start"])) > 1e-6:
            raise RuntimeError(f"{st.out_dir}: span self times do not add up to the stage span")
        offset = len(spans)
        for s in stage_spans:
            if s["parent"] is not None:
                s["parent"] += offset
        spans.extend(stage_spans)
    for path, digest in digests(p, tdir).items():
        if untraced.get(path) != digest:
            bad.add(path.split("/")[0])
    return wall, spans, bad


def run_record(gen_report: dict) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_sha = r.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_sha": git_sha, "src_sha256": src.hexdigest(), "nproc": os.cpu_count(),
            "python": platform.python_version(), **gen_report}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="pipeline time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="input size factor (tests use < 1)")
    ap.add_argument("--record", action="store_true",
                    help="store this seed's outputs in expected.json instead of checking them")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pwdist" / "cli.py").is_file():
        print(f"bench: no pwdist source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # On SIGTERM, stop the running child and remove the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = make_plan(args.workload, args.seed, args.scale)
    workdir = ROOT / ".bench_work" / f"{p.workload}-{p.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return measure(p, workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(p: Plan, workdir: Path, args) -> int:
    env = stage_env()
    try:
        setup_s, startup_s, gen_report = setup(p, workdir, env)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    passes: list[Pass] = []
    attempted = failed = 0
    reference: dict[str, str] = {}
    raw_reference: dict[str, str] = {}
    differing: set[str] = set()
    unordered: set[str] = set()
    while len(passes) < MIN_ITERATIONS or sum(ps.wall_s for ps in passes) < args.seconds:
        ps = run_pass(p, workdir, env)
        if not passes:
            bad_dirs = run_check(p, workdir, args.record)
            reference = digests(p, workdir)
            raw_reference = digests(p, workdir, outputs.raw_digest)
        else:
            wrong = changed(reference, digests(p, workdir))
            for path in sorted(wrong - differing):
                print(f"bench-check-failed\t{path}\tdiffers from the first pass", file=sys.stderr)
            differing |= wrong
            bad_dirs = {k.split("/")[0] for k in wrong}
            reordered = changed(raw_reference, digests(p, workdir, outputs.raw_digest)) - wrong
            for path in sorted(reordered - unordered):
                print(f"bench-known-defect\t{path}\tdiffers from the first pass only in the order "
                      "of cracked.tsv rows within one guess (crack iterates a set of salts)",
                      file=sys.stderr)
            unordered |= reordered
        attempted += len(ps.stages)
        failed += failed_stages(p, ps, bad_dirs)
        passes.append(ps)
        if args.record:
            break

    pipeline_s = statistics.median(ps.wall_s for ps in passes)
    probe_s = statistics.median(t for ps in passes for t in ps.probes_s)
    speed = PROBE_REF_S / probe_s
    wall = per_stage(p, passes, lambda r: r.wall_s, sum)
    metrics = {
        "pipeline_s": pipeline_s * speed,
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in ps.stages) for ps in passes),
        "setup_s": statistics.median(setup_s) * speed,
    }
    print("bench-record\t" + json.dumps(run_record(gen_report), sort_keys=True))
    print(f"bench-run\t{p.workload}\tseed={p.seed}\tpasses={len(passes)}\t"
          f"raw pipeline_s={[round(ps.wall_s, 3) for ps in passes]}\tprobe_s={probe_s:.4f}")
    for name, unit in END_TO_END.items():
        print(f"bench-metric\t{name}\t{metrics[name]:.6g}\t{unit}")
    for cmd in p.reported:
        stage_s = wall[STAGE_METRIC[cmd]] * speed
        print(f"bench-metric\t{STAGE_METRIC[cmd]}_s\t{stage_s:.6g}\ts")
    print(f"bench-metric\tfailed_ratio\t{failed / attempted:.6g}\tfraction")

    if args.trace:
        traced_wall, spans, traced_bad = traced_pass(p, workdir, env)
        attempted += len(p.stages)
        failed += len(traced_bad)
        metrics = trace_metrics(spans)
        metrics["cli.startup_s"] = statistics.median(startup_s)
        cpu = per_stage(p, passes, lambda r: r.cpu_s, sum)
        rss = per_stage(p, passes, lambda r: r.rss_mb, max)
        for m in STAGE_METRIC.values():
            metrics[f"cli.{m}.wall_s"] = wall[m]
            metrics[f"cli.{m}.cpu_s"] = cpu[m]
            metrics[f"cli.{m}.peak_rss_mb"] = rss[m]
        metrics["trace.overhead_s"] = traced_wall - pipeline_s
        metrics["host.probe_s"] = probe_s
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
