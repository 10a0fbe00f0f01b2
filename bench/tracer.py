"""Traced run of one ``pwdist`` stage, in this process.

Wraps the module functions that ``pwdist.cli`` calls (and the debias step
inside the MLE) with ``functools.wraps`` spans, runs ``pwdist.cli.main`` on
the given argv inside a root span named after the subcommand, and writes
every span as JSON when the stage ends. Spans stay in memory until then.
Each span has a name, its layer (the module), start and end on
``time.perf_counter``, the index of its parent span, and counts taken from
the call's arguments and result. A function missing from this version of
the program is skipped, and a count that cannot be taken is left out.

    python bench/tracer.py SPANS.json ingest corpus.txt --out-dir ingest
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

from pwdist import cli, crack, crossguess, ingest, mh_uniform, stats, zipf_fit

LAYERS = {
    "ingest": ingest,
    "zipf_fit": zipf_fit,
    "stats": stats,
    "crossguess": crossguess,
    "crack": crack,
    "mh_uniform": mh_uniform,
}


# Counts taken at each boundary, from (args, kwargs, result).
COUNTERS = {
    "ingest.stream_table": lambda a, k, r: {
        "lines": r[1].lines, "malformed": r[1].malformed, "distinct": r[0].distinct_count},
    "ingest.read_table_tsv": lambda a, k, r: {"rows": r.distinct_count},
    "ingest.write_table_tsv": lambda a, k, r: {"rows": a[0].distinct_count},
    "zipf_fit.bootstrap_p_value": lambda a, k, r: {
        "replicates": k["replicates"], "distinct": a[0].distinct_count},
    "crossguess.write_curve_tsv": lambda a, k, r: {"rows": a[0].total_guesses},
    "crack.hash_corpus": lambda a, k, r: {"users": len(r)},
    "crack.crack": lambda a, k, r: {
        "guesses": len(a[1].guesses), "cracked": len(r.cracked),
        "hit_guesses": r.curve_distinct.final_cumulative},
    "mh_uniform.simulate": lambda a, k, r: {"users": a[2], "asks": r.rejected_total + a[2]},
}

WRAPPED = {
    "ingest": ("stream_table", "cap_ranks", "write_table_tsv", "read_table_tsv",
               "count_of_counts", "parse_corpus", "cleanup"),
    "zipf_fit": ("ls_raw_rank", "ls_binned_rank", "ls_nk", "bin_dyadic_rank", "bin_dyadic_k",
                 "mle_truncated_zipf", "_indirect_inference", "bootstrap_p_value",
                 "write_fit_tsv", "write_binned_tsv"),
    "stats": ("stats_report", "write_stats_tsv"),
    "crossguess": ("GuessOrdering.from_table", "dictionary_ordering", "truncate_reaggregate",
                   "cross_curve", "self_curve", "write_curve_tsv"),
    "crack": ("builtin_scheme", "hash_corpus", "read_hashes_tsv", "write_hashes_tsv", "crack",
              "write_cracked_tsv"),
    "mh_uniform": ("simulate", "write_summary_tsv"),
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.errors: list[str] = []

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        idx = len(self.spans)
        record = {"name": name, "layer": layer,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(idx)
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            try:
                record["counters"] = counter(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError) as exc:
                self.errors.append(f"{name}: no counts ({exc})")
        return result

    def wrap(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, layer, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        for layer, attrs in WRAPPED.items():
            module = LAYERS[layer]
            for attr in attrs:
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                fn = getattr(owner, fn_name, None)
                if fn is None:
                    self.errors.append(f"{layer}.{attr}: not found, not traced")
                    continue
                traced = self.wrap(f"{layer}.{fn_name}", layer, getattr(fn, "__func__", fn))
                setattr(owner, fn_name, classmethod(traced) if owner_name else traced)


def main(argv: list[str]) -> int:
    spans_path, stage_argv = Path(argv[0]), argv[1:]
    tracer = Tracer()
    tracer.install()
    code = tracer.span(f"cli.{stage_argv[0]}", "cli", cli.main, stage_argv)
    spans_path.write_text(json.dumps({"spans": tracer.spans, "errors": tracer.errors}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
