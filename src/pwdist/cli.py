"""Command-line front end.

Each subcommand reads input files, writes its TSV outputs plus a JSON run
manifest into ``--out-dir``, and exits 0 on success, 1 on usage errors,
2 on input or parse errors, 3 on numeric or fit errors. All randomness is
driven by explicit seeds (``--seed`` defaults to a fixed constant), so a
re-run with the same manifest reproduces every output byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__, crack as crack_mod, crossguess, ingest, mh_uniform, stats, zipf_fit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

DEFAULT_SEED = 0
MANIFEST_NAME = "manifest.json"
PARTIAL_SUFFIX = ".partial"


def _error_line(category: str, message: str) -> None:
    print(f"pwdist-error\t{category}\t{message}", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        _error_line("usage", message)
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunManifest:
    """What a run consumed and produced, for byte-exact reproduction.

    Paths are stored relative to the out directory (outputs) or as bare
    names (inputs), so two runs of the same command into different
    directories produce identical manifests.
    """

    command: str
    parameters: dict
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    version: str = __version__

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "version": self.version,
            "parameters": self.parameters,
            "inputs": self.inputs,
            "outputs": self.outputs,
        }
        if self.counters:
            payload["counters"] = self.counters
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _finish(
    args,
    command: str,
    parameters: dict,
    inputs: list[Path],
    counters: dict | None = None,
) -> None:
    """Move every staged output over its final name, then write the manifest."""
    out_dir = Path(args.out_dir)
    outputs = {name: _sha256(partial) for name, partial in args.staged.items()}
    for name, partial in args.staged.items():
        os.replace(partial, out_dir / name)
    manifest = RunManifest(
        command=command,
        parameters=parameters,
        inputs={p.name: _sha256(p) for p in inputs},
        outputs=outputs,
        counters=counters or {},
    )
    (out_dir / MANIFEST_NAME).write_text(manifest.to_json())


def _out_dir(args) -> None:
    """Create ``--out-dir`` and drop any manifest an earlier run left there.

    The manifest is written last, so an out-dir holding one is complete;
    deleting it first keeps a rerun that fails from looking complete.
    """
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / MANIFEST_NAME).unlink(missing_ok=True)


def _stage(args, name: str) -> Path:
    """Where a command writes output ``name`` until ``_finish`` moves it in place.

    A run that fails never touches the outputs of an earlier run: ``main``
    deletes whatever it staged.
    """
    partial = Path(args.out_dir) / (name + PARTIAL_SUFFIX)
    args.staged[name] = partial
    return partial


def _read_words(path: Path) -> list[bytes]:
    """The non-empty lines of a word list or ban file."""
    with open(path, "rb") as fh:
        return [line for lines in ingest.line_blocks(fh) for line in lines if line]


def cmd_ingest(args) -> None:
    _out_dir(args)
    corpus = Path(args.corpus)
    with open(corpus, "rb") as fh:
        table, parse_stats = ingest.stream_table(fh, args.format, tie_break_seed=args.seed)
    dropped = 0
    if args.max_ranks is not None:
        capped = ingest.cap_ranks(table, args.max_ranks)
        dropped = table.distinct_count - capped.distinct_count
        table = capped
    ingest.write_table_tsv(table, _stage(args, "table.tsv"))
    note = f" ({dropped} tail ranks dropped by --max-ranks)" if dropped else ""
    print(
        f"ingested {parse_stats.lines} lines ({parse_stats.malformed} malformed skipped), "
        f"{table.total_users} users, {table.distinct_count} distinct passwords{note}"
    )
    _finish(
        args,
        "ingest",
        {"format": args.format, "seed": args.seed, "max_ranks": args.max_ranks},
        [corpus],
    )


def cmd_fit(args) -> None:
    _out_dir(args)
    table_path = Path(args.table)
    table = ingest.read_table_tsv(table_path)
    cc = ingest.count_of_counts(table)
    fits: list[zipf_fit.ZipfFit] = []
    errors: list[zipf_fit.FitError] = []

    def attempt(fn, *fargs, **kw):
        try:
            fits.append(fn(*fargs, **kw))
        except zipf_fit.FitError as exc:
            errors.append(exc)
            print(f"note: {fn.__name__} skipped: {exc}", file=sys.stderr)

    attempt(zipf_fit.ls_raw_rank, table)
    attempt(zipf_fit.ls_binned_rank, table)
    attempt(zipf_fit.ls_nk, cc, binned=False)
    attempt(zipf_fit.ls_nk, cc, binned=True)
    attempt(zipf_fit.mle_truncated_zipf, table, bias_correction=args.debias, seed=args.seed)
    if not fits:
        raise errors[0]
    for f in fits:
        if f.method == zipf_fit.METHOD_MLE and args.replicates > 0 and f.flag != zipf_fit.FLAG_BOUNDARY:
            f.p_value = zipf_fit.bootstrap_p_value(table, f, replicates=args.replicates, seed=args.seed)
    zipf_fit.write_fit_tsv(fits, _stage(args, "fit.tsv"))
    zipf_fit.write_binned_tsv(zipf_fit.bin_dyadic_rank(table), _stage(args, "binned_rank.tsv"))
    zipf_fit.write_binned_tsv(zipf_fit.bin_dyadic_k(cc), _stage(args, "binned_nk.tsv"))
    for f in fits:
        print(f"{f.method}: s = {f.s:.4g}" + (f" (p = {f.p_value:.3g})" if f.p_value is not None else ""))
    _finish(
        args,
        "fit",
        {"seed": args.seed, "replicates": args.replicates, "debias": args.debias},
        [table_path],
    )


def cmd_stats(args) -> None:
    _out_dir(args)
    table_path = Path(args.table)
    table = ingest.read_table_tsv(table_path)
    if args.s is not None:
        fit = zipf_fit.ZipfFit(s=args.s, method=zipf_fit.METHOD_MLE, truncation_N=table.distinct_count)
    else:
        fit = zipf_fit.mle_truncated_zipf(table)
    report = stats.stats_report(table, fit, alpha=args.alpha)
    stats.write_stats_tsv(report, _stage(args, "stats.tsv"))
    for kind, st in report.items():
        print(f"{kind}: G = {st.guesswork_G:.6g}, H = {st.shannon_H:.6g}")
    _finish(
        args,
        "stats",
        {"seed": args.seed, "alpha": args.alpha, "s": args.s if args.s is not None else fit.s},
        [table_path],
    )


def cmd_curve(args) -> None:
    _out_dir(args)
    target_path = Path(args.target)
    target = ingest.read_table_tsv(target_path)
    inputs = [target_path]
    if args.truncate is not None:
        target = crossguess.truncate_reaggregate(target, args.truncate, tie_break_seed=args.seed)
    if args.reference:
        ref_path = Path(args.reference)
        inputs.append(ref_path)
        reference = crossguess.GuessOrdering.from_table(
            ingest.read_table_tsv(ref_path), label=ref_path.name
        )
        curve = crossguess.cross_curve(reference, target, metric=args.metric)
    elif args.wordlist:
        words_path = Path(args.wordlist)
        inputs.append(words_path)
        reference = crossguess.dictionary_ordering(_read_words(words_path), label=words_path.name)
        curve = crossguess.cross_curve(reference, target, metric=args.metric)
    else:
        curve = crossguess.self_curve(target, metric=args.metric)
    crossguess.write_curve_tsv(curve, _stage(args, "curve.tsv"), log_spaced=args.log_spaced)
    print(
        f"{curve.metric} recovered after {curve.total_guesses} guesses: "
        f"{curve.final_cumulative}/{curve.denominator}"
    )
    _finish(
        args,
        "curve",
        {
            "seed": args.seed,
            "metric": args.metric,
            "truncate": args.truncate,
            "log_spaced": args.log_spaced,
        },
        inputs,
    )


def cmd_crack(args) -> None:
    _out_dir(args)
    scheme = crack_mod.builtin_scheme(args.scheme)
    inputs: list[Path] = []
    counters = {}
    if args.corpus:
        corpus_path = Path(args.corpus)
        inputs.append(corpus_path)
        with open(corpus_path, "rb") as fh:
            latest, read_stats = ingest.read_credentials(fh, args.format)
        credentials = [(user.decode("latin-1"), password) for user, password in latest.items()]
        del latest
        salt_seed = args.salt_seed if args.salt_seed is not None else args.seed
        entries = crack_mod.hash_corpus(credentials, scheme, salt_seed, args.salt_count)
        del credentials  # the replay needs only the hashed entries
        crack_mod.write_hashes_tsv(entries, _stage(args, "hashes.tsv"))
        print(
            f"hashed {len(entries)} users from {read_stats.lines} lines "
            f"({read_stats.malformed} malformed skipped)"
        )
        counters = {"lines": read_stats.lines, "malformed": read_stats.malformed}
    elif args.hashes:
        hashes_path = Path(args.hashes)
        inputs.append(hashes_path)
        entries = crack_mod.read_hashes_tsv(hashes_path)
    else:
        raise ValueError("need --corpus or --hashes")
    ordering = None
    if args.ordering:
        ord_path = Path(args.ordering)
        inputs.append(ord_path)
        ordering = crossguess.GuessOrdering.from_table(
            ingest.read_table_tsv(ord_path), label=ord_path.name
        )
    elif args.wordlist:
        words_path = Path(args.wordlist)
        inputs.append(words_path)
        ordering = crossguess.dictionary_ordering(_read_words(words_path), label=words_path.name)
    if ordering is not None:
        report = crack_mod.crack(entries, ordering, scheme)
        crossguess.write_curve_tsv(
            report.curve_users, _stage(args, "curve_users.tsv"), log_spaced=args.log_spaced
        )
        crossguess.write_curve_tsv(
            report.curve_distinct, _stage(args, "curve_distinct.tsv"), log_spaced=args.log_spaced
        )
        crack_mod.write_cracked_tsv(report, _stage(args, "cracked.tsv"))
        print(
            f"cracked {len(report.cracked)}/{len(entries)} users "
            f"({report.uncracked_count} uncracked) in {ordering.source_label or 'given'} order"
        )
    elif not args.corpus:
        raise ValueError("nothing to do: no ordering and no corpus to hash")
    _finish(
        args,
        "crack",
        {
            "seed": args.seed,
            "scheme": args.scheme,
            "salt_count": args.salt_count,
            "salt_seed": args.salt_seed,
            "format": args.format,
            "log_spaced": args.log_spaced,
        },
        inputs,
        counters,
    )


# Every key cmd_mhsim reads, after "-" -> "_" and aliasing.
_CONFIG_KEYS = frozenset(
    {"source", "s", "n_ranks", "table", "n_users", "backend", "width", "depth", "seed",
     "retry_cap", "ban_file"}
)
_CONFIG_ALIASES = {"w": "width", "d": "depth", "ban_list": "ban_file"}


def _load_sim_config(path: Path) -> dict[str, str]:
    config: dict[str, str] = {}
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (want key=value): {line!r}")
        raw_key, value = line.split("=", 1)
        key = raw_key.strip().replace("-", "_")
        key = _CONFIG_ALIASES.get(key, key)
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {raw_key.strip()!r} in {path.name}")
        config[key] = value.strip()
    return config


def cmd_mhsim(args) -> None:
    _out_dir(args)
    config: dict[str, str] = {}
    inputs: list[Path] = []
    if args.config:
        config_path = Path(args.config)
        inputs.append(config_path)
        config = _load_sim_config(config_path)

    def setting(name, cast, default):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in config:
            return cast(config[name])
        return default

    source = setting("source", str, "zipf")
    n_users = setting("n_users", int, 10000)
    backend = setting("backend", str, mh_uniform.BACKEND_EXACT)
    width = setting("width", int, mh_uniform.DEFAULT_SKETCH_WIDTH)
    depth = setting("depth", int, mh_uniform.DEFAULT_SKETCH_DEPTH)
    seed = setting("seed", int, DEFAULT_SEED)
    retry_cap = setting("retry_cap", int, mh_uniform.DEFAULT_RETRY_CAP)
    ban_file = setting("ban_file", str, None)

    if source == "zipf":
        s = setting("s", float, 0.78)
        n_ranks = setting("n_ranks", int, 100000)
        model = stats.zipf_model(s, n_ranks)
        passwords = [b"p%08d" % i for i in range(1, n_ranks + 1)]
        source_desc = {"source": "zipf", "s": s, "n_ranks": n_ranks}
    elif source == "table":
        table_file = setting("table", str, None)
        if not table_file:
            raise ValueError("source=table needs table=<path>")
        table_path = Path(table_file)
        inputs.append(table_path)
        table = ingest.read_table_tsv(table_path)
        model = stats.empirical_model(table)
        passwords = table.passwords
        source_desc = {"source": "table", "table": table_path.name}
    else:
        raise ValueError(f"unknown source {source!r} (want zipf or table)")

    weights = None
    if ban_file:
        ban_path = Path(ban_file)
        inputs.append(ban_path)
        weights = mh_uniform.TargetWeight.with_bans(banned=_read_words(ban_path))

    if backend == mh_uniform.BACKEND_EXACT:
        store = mh_uniform.ExactFrequencyStore()
    elif backend == mh_uniform.BACKEND_COUNT_MIN:
        store = mh_uniform.CountMinStore(width=width, depth=depth, master_seed=seed)
    else:
        raise ValueError(f"unknown backend {backend!r}")

    report = mh_uniform.simulate(
        model, passwords, n_users, store=store, weights=weights, seed=seed, retry_cap=retry_cap
    )
    ingest.write_table_tsv(report.accepted_table, _stage(args, "accepted.tsv"))
    ingest.write_table_tsv(report.free_table, _stage(args, "free.tsv"))
    mh_uniform.write_summary_tsv(report, _stage(args, "summary.tsv"))
    counters = {
        "asks": report.rejected_total + n_users,
        "rejected": report.rejected_total,
        "hash_evaluations": store.hash_evaluations,
    }
    if backend == mh_uniform.BACKEND_COUNT_MIN:
        counters["sketch_error_bound"] = math.e * store.totals / store.width
    print(
        f"simulated {n_users} users: mean asks {report.mean_asks:.3f}, "
        f"max accepted frequency {report.accepted_table.counts[0]}, "
        f"max free frequency {report.free_table.counts[0]}"
    )
    _finish(
        args,
        "mh-sim",
        {
            "seed": seed,
            "n_users": n_users,
            "backend": backend,
            "width": width,
            "depth": depth,
            "retry_cap": retry_cap,
            **source_desc,
        },
        inputs,
        counters,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pwdist", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pwdist {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for every random choice")
        p.add_argument("--out-dir", default=".", help="directory for outputs and the manifest")

    p = sub.add_parser("ingest", help="parse a corpus into a rank-frequency table")
    common(p)
    p.add_argument("corpus", help="raw corpus file")
    p.add_argument(
        "--format",
        choices=ingest.CORPUS_FORMATS,
        default=ingest.FORMAT_PASSWORD_PER_LINE,
    )
    p.add_argument(
        "--max-ranks",
        dest="max_ranks",
        type=int,
        default=None,
        help="keep only the top N ranks (bounds output size on huge corpora)",
    )
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("fit", help="fit Zipf models to a table")
    common(p)
    p.add_argument("--table", required=True, help="table.tsv from ingest")
    p.add_argument("--replicates", type=int, default=100, help="bootstrap replicates (0 skips the p-value)")
    p.add_argument("--debias", action="store_true", help="indirect-inference bias correction for the MLE")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("stats", help="guesswork and entropy statistics")
    common(p)
    p.add_argument("--table", required=True)
    p.add_argument("--alpha", type=float, default=stats.DEFAULT_ALPHA)
    p.add_argument("--s", type=float, default=None, help="Zipf exponent (default: fit by MLE)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("curve", help="self or cross guessing curves")
    common(p)
    p.add_argument("--target", required=True, help="table being guessed")
    p.add_argument("--reference", help="table whose ordering drives the guessing")
    p.add_argument("--wordlist", help="dictionary file, guessed in lexical order")
    p.add_argument("--metric", choices=crossguess.METRICS, default=crossguess.METRIC_USERS)
    p.add_argument("--truncate", type=int, default=None, help="truncate-and-reaggregate the target first")
    p.add_argument("--log-spaced", action="store_true", help="sample the curve at log-spaced indices")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("crack", help="hash a corpus and/or crack a hashed corpus")
    common(p)
    p.add_argument("--corpus", help="raw corpus to hash into hashes.tsv")
    p.add_argument(
        "--format",
        choices=ingest.CORPUS_FORMATS,
        default=ingest.FORMAT_PASSWORD_PER_LINE,
    )
    p.add_argument("--hashes", help="existing hashes.tsv to attack")
    p.add_argument("--ordering", help="table.tsv whose ranking orders the guesses")
    p.add_argument("--wordlist", help="dictionary file, guessed in lexical order")
    p.add_argument("--scheme", default="trunc8-mix64")
    p.add_argument("--salt-count", type=int, default=64)
    p.add_argument("--salt-seed", type=int, default=None, help="defaults to --seed")
    p.add_argument("--log-spaced", action="store_true")
    p.set_defaults(func=cmd_crack)

    p = sub.add_parser("mh-sim", help="simulate the Metropolis-Hastings password scheme")
    common(p)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--source", choices=("zipf", "table"), default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--n-ranks", dest="n_ranks", type=int, default=None)
    p.add_argument("--table", default=None, help="table for source=table")
    p.add_argument("--n-users", dest="n_users", type=int, default=None)
    p.add_argument("--backend", choices=(mh_uniform.BACKEND_EXACT, mh_uniform.BACKEND_COUNT_MIN), default=None)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--retry-cap", dest="retry_cap", type=int, default=None)
    p.add_argument("--ban-file", dest="ban_file", default=None)
    # No flag default, so that a config file's seed applies unless --seed is given.
    p.set_defaults(func=cmd_mhsim, seed=None)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.staged = {}
    try:
        try:
            args.func(args)
        finally:
            for partial in args.staged.values():
                partial.unlink(missing_ok=True)
    except ingest.CorpusError as exc:
        _error_line("input", str(exc))
        return EXIT_INPUT
    except FileNotFoundError as exc:
        _error_line("input", str(exc))
        return EXIT_INPUT
    except OSError as exc:
        _error_line("input", str(exc))
        return EXIT_INPUT
    except zipf_fit.FitError as exc:
        _error_line("numeric", str(exc))
        return EXIT_NUMERIC
    except mh_uniform.BannedExhaustionError as exc:
        _error_line("numeric", str(exc))
        return EXIT_NUMERIC
    except ValueError as exc:
        _error_line("usage", str(exc))
        return EXIT_USAGE
    return EXIT_OK


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
