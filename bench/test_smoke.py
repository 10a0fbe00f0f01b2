"""Smoke test of the benchmark: every workload end to end at a small scale.

    python -m pytest bench/test_smoke.py

Each workload runs once untraced and once traced. The test checks the
result line against BENCHMARK.json (every metric named there, with its
unit), that the timings are positive, and that the traced run's span self
times add up (``run.py`` stops with an error when they do not).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SCALE = "0.02"


def bench(workload: str, trace: int) -> tuple[str, dict]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), "--scale", SCALE]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    return out.stdout, json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    return request.param, bench(request.param, 0), bench(request.param, 1)


def test_result_lines_match_the_spec(runs):
    _, (stdout, plain), (_, traced) = runs
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert result["metrics"] == {
            m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in SPEC[kind]
        }
    for m in SPEC["end_to_end"]:
        assert plain["metrics"][m["name"]]["value"] > 0
        assert f"bench-metric\t{m['name']}\t" in stdout
    assert "bench-metric\tfailed_ratio\t" in stdout


def test_traced_layers_cover_the_stages(runs):
    _, _, (_, traced) = runs
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    assert m["cli.startup_s"] > 0 and m["cli.self_s"] > 0
    assert m["ingest.lines"] > 0 and m["ingest.distinct"] > 0
    layers = sum(m[f"{layer}.self_s"] for layer in
                 ("ingest", "zipf_fit", "stats", "crossguess", "crack", "mh_uniform"))
    assert layers + m["cli.self_s"] <= sum(m[k] for k in m if k.endswith(".wall_s"))


def test_outputs_are_correct(runs):
    _, (_, plain), (_, traced) = runs
    assert plain["correct"] and plain["failed"] == 0
    assert traced["correct"] and traced["failed"] == 0
