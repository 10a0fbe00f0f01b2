"""Command-line front end.

Each subcommand reads input files, writes its TSV outputs plus a JSON run
manifest into ``--out-dir``, and exits 0 on success, 1 on usage errors,
2 on input or parse errors, 3 on numeric or fit errors. All randomness is
driven by explicit seeds (``--seed`` defaults to a fixed constant), so a
re-run with the same manifest reproduces every output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, ingest, tsvio

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

DEFAULT_SEED = 0
# mh-sim's Zipf source where --s or --n-ranks is not given.
MH_ZIPF_S = 0.78
MH_ZIPF_RANKS = 100000
# crack --corpus's salts where --salt-count is not given.
CRACK_SALT_COUNT = 64
# mh-sim's frequency backends, and its count-min sketch size where --width
# or --depth is not given.
MH_BACKENDS = ("exact", "count-min")
MH_SKETCH_WIDTH = 1 << 18
MH_SKETCH_DEPTH = 4
# The parser's choices and defaults that belong to stage modules, repeated
# here so that building the parser imports none of them; a test checks each
# against its module. A subcommand imports only the modules it calls.
METRICS = ("users", "distinct-passwords")  # crossguess.METRICS
DEFAULT_ALPHA = 0.85  # stats.DEFAULT_ALPHA
MH_RETRY_CAP = 100  # mh_uniform.DEFAULT_RETRY_CAP
MANIFEST_NAME = "manifest.json"
PARTIAL_SUFFIX = ".partial"


def _error_line(category: str, message: str) -> None:
    print(f"pwdist-error\t{category}\t{message}", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        _error_line("usage", message)
        raise SystemExit(EXIT_USAGE)


def _sha256(path: Path) -> str:
    # Imported here, so that a stage loads OpenSSL's libcrypto only when it
    # writes its manifest.
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _finish(args, parameters: dict, counters: dict) -> None:
    """Move every staged output over its final name, then write the manifest.

    The manifest names inputs by their bare names and outputs by their names
    in the out-dir, so two runs of one command into different directories
    write identical manifests.
    """
    out_dir = Path(args.out_dir)
    outputs = {name: _sha256(partial) for name, partial in args.staged.items()}
    for name, partial in args.staged.items():
        os.replace(partial, out_dir / name)
    manifest = {
        "command": args.subcommand,
        "version": __version__,
        "parameters": parameters,
        "inputs": {p.name: _sha256(p) for p in args.inputs},
        "outputs": outputs,
    }
    if counters:
        manifest["counters"] = counters
    (out_dir / MANIFEST_NAME).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


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


def _input(args, name: str) -> Path:
    """Record ``name`` as an input of the run, as ``_stage`` records an output."""
    path = Path(name)
    args.inputs.append(path)
    return path


def _read_words(path: Path) -> list[bytes]:
    """The non-empty lines of a word list or ban file."""
    with open(path, "rb") as fh:
        return [line for chunk in tsvio.line_chunks(fh) for line in tsvio.chunk_lines(chunk) if line]


def _ordering(args, index: list | None = None) -> crossguess.GuessOrdering | None:
    """The guess order given by ``--ordering`` (a table) or ``--wordlist``, if any.

    A table's read puts its hash index in ``index``, as ``read_table_tsv`` does.
    """
    from . import crossguess

    if args.ordering:
        path = _input(args, args.ordering)
        table = ingest.read_table_tsv(path, index=index)
        return crossguess.GuessOrdering.from_table(table, label=path.name)
    if args.wordlist:
        path = _input(args, args.wordlist)
        words = _read_words(path)
        if not words:
            raise ingest.CorpusError(f"word list {path.name} has no words")
        return crossguess.dictionary_ordering(words, label=path.name)
    return None


def cmd_ingest(args) -> tuple[dict, dict]:
    with open(_input(args, args.corpus), "rb") as fh:
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
    return {"format": args.format, "seed": args.seed, "max_ranks": args.max_ranks}, {}


def cmd_fit(args) -> tuple[dict, dict]:
    from . import zipf_fit

    table = ingest.read_table_tsv(_input(args, args.table))
    # Every row fit writes depends only on the counts: the password bytes are let go.
    table.passwords = None
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
    return {"seed": args.seed, "replicates": args.replicates, "debias": args.debias}, {}


def cmd_stats(args) -> tuple[dict, dict]:
    from . import stats

    table = ingest.read_table_tsv(_input(args, args.table))
    # Every row stats writes depends only on the counts: the password bytes are let go.
    table.passwords = None
    s = args.s
    if s is None:
        from . import zipf_fit

        s = zipf_fit.mle_truncated_zipf(table).s
    report = stats.stats_report(table, s, alpha=args.alpha)
    stats.write_stats_tsv(report, _stage(args, "stats.tsv"))
    for kind, st in report.items():
        print(f"{kind}: G = {st.guesswork_G:.6g}, H = {st.shannon_H:.6g}")
    return {"seed": args.seed, "alpha": args.alpha, "s": s}, {}


def cmd_curve(args) -> tuple[dict, dict]:
    from . import crossguess

    # A join takes each table's hash index from its read, so no table is hashed twice.
    target_index = [] if args.truncate is None and (args.ordering or args.wordlist) else None
    target = ingest.read_table_tsv(_input(args, args.target), index=target_index)
    if args.truncate is not None:
        target = crossguess.truncate_reaggregate(target, args.truncate, tie_break_seed=args.seed)
    reference_index = []
    reference = _ordering(args, reference_index)
    if reference is not None:
        curve = crossguess.cross_curve(
            reference, target, metric=args.metric,
            reference_index=reference_index or None, target_index=target_index or None,
        )
    else:
        curve = crossguess.self_curve(target, metric=args.metric)
    crossguess.write_curve_tsv(curve, _stage(args, "curve.tsv"), log_spaced=args.log_spaced)
    print(
        f"{curve.metric} recovered after {curve.total_guesses} guesses: "
        f"{curve.final_cumulative}/{curve.denominator}"
    )
    parameters = {
        "seed": args.seed, "metric": args.metric, "truncate": args.truncate, "log_spaced": args.log_spaced
    }
    return parameters, {}


def cmd_crack(args) -> tuple[dict, dict]:
    from . import crack as crack_mod, crossguess
    from .column import PasswordColumn

    parameters = {"seed": args.seed, "log_spaced": args.log_spaced}
    counters = {}
    if args.corpus:
        corpus_format = args.format or ingest.FORMAT_PASSWORD_PER_LINE
        salt_count = CRACK_SALT_COUNT if args.salt_count is None else args.salt_count
        path = _input(args, args.corpus)
        with open(path, "rb") as fh:
            latest, read_stats = ingest.read_credentials(fh, corpus_format)
        if not latest:
            raise ingest.CorpusError(f"corpus {path.name} has no usable line")
        # The credential dict is let go before the hashing, and the password
        # column once the corpus is hashed: the replay needs only the digests.
        users, passwords = PasswordColumn(latest), PasswordColumn(latest.values())
        del latest
        corpus = crack_mod.hash_corpus(users, passwords, args.seed, salt_count)
        del passwords
        crack_mod.write_hashes_tsv(corpus, _stage(args, "hashes.tsv"))
        print(
            f"hashed {len(corpus)} users from {read_stats.lines} lines "
            f"({read_stats.malformed} malformed skipped)"
        )
        counters = {"lines": read_stats.lines, "malformed": read_stats.malformed}
        # These shape only the hashing of a corpus, so only a --corpus run takes them.
        parameters.update(salt_count=salt_count, format=corpus_format)
    else:
        for option, value in (("salt-count", args.salt_count), ("format", args.format)):
            if value is not None:
                raise ValueError(f"{option} is read only with --corpus")
        path = _input(args, args.hashes)
        corpus = crack_mod.read_hashes_tsv(path)
        if not len(corpus):
            raise ingest.CorpusError(f"hashes file {path.name} has no rows")
    ordering = _ordering(args)
    if ordering is not None:
        report = crack_mod.crack(corpus, ordering)
        crossguess.write_curve_tsv(
            report.curve_users, _stage(args, "curve_users.tsv"), log_spaced=args.log_spaced
        )
        crossguess.write_curve_tsv(
            report.curve_distinct, _stage(args, "curve_distinct.tsv"), log_spaced=args.log_spaced
        )
        crack_mod.write_cracked_tsv(report, _stage(args, "cracked.tsv"))
        print(
            f"cracked {len(report.cracked)}/{len(corpus)} users "
            f"({report.uncracked_count} uncracked) in {ordering.source_label or 'given'} order"
        )
    elif not args.corpus:
        raise ValueError("nothing to do: no ordering and no corpus to hash")
    return parameters, counters


def cmd_mhsim(args) -> tuple[dict, dict]:
    from . import mh_uniform, stats

    if args.backend == "exact":
        for option, value in (("width", args.width), ("depth", args.depth)):
            if value is not None:
                raise ValueError(f"{option} is read only with backend=count-min")
        store = None
        sketch = {}
    else:
        width = MH_SKETCH_WIDTH if args.width is None else args.width
        depth = MH_SKETCH_DEPTH if args.depth is None else args.depth
        store = mh_uniform.CountMinStore(width, depth, args.seed)
        sketch = {"width": width, "depth": depth}
    # Checked before the source is built, which costs memory per rank.
    mh_uniform.count_type(args.n_users, args.retry_cap)

    if args.source == "zipf":
        if args.table:
            raise ValueError("table is read only with source=table")
        s = MH_ZIPF_S if args.s is None else args.s
        n_ranks = MH_ZIPF_RANKS if args.n_ranks is None else args.n_ranks
        probs = stats.zipf_model(s, n_ranks)
        # simulate makes the Zipf labels of the ranks it reads.
        passwords = None
        source_desc = {"source": "zipf", "s": s, "n_ranks": n_ranks}
    else:
        if not args.table:
            raise ValueError("source=table needs table=<path>")
        for option, value in (("s", args.s), ("n-ranks", args.n_ranks)):
            if value is not None:
                raise ValueError(f"{option} is read only with source=zipf")
        table_path = _input(args, args.table)
        table = ingest.read_table_tsv(table_path)
        probs = stats.empirical_model(table)
        passwords = table.passwords
        del table
        source_desc = {"source": "table", "table": table_path.name}

    weights = None
    if args.ban_file:
        # A banned rank weighs 0 and every other rank 1; a ban word that labels no rank is ignored.
        banned = frozenset(_read_words(_input(args, args.ban_file)))
        labels = mh_uniform.zipf_labels(np.arange(1, len(probs) + 1)) if passwords is None else passwords
        weights = np.fromiter((pw not in banned for pw in labels), dtype=np.float64, count=len(labels))
        del labels

    report = mh_uniform.simulate(
        probs, passwords, args.n_users, store=store, weights=weights, seed=args.seed,
        retry_cap=args.retry_cap,
    )
    ingest.write_table_tsv(report.accepted_table, _stage(args, "accepted.tsv"))
    ingest.write_table_tsv(report.free_table, _stage(args, "free.tsv"))
    mh_uniform.write_summary_tsv(report, _stage(args, "summary.tsv"))
    asks = report.rejected_total + args.n_users
    counters = {
        "asks": asks,
        "rejected": report.rejected_total,
        "hash_evaluations": 0 if store is None else store.hash_evaluations,
    }
    if store is not None:
        counters["sketch_error_bound"] = math.e * asks / store.width
    print(
        f"simulated {args.n_users} users: mean asks {report.mean_asks:.3f}, "
        f"max accepted frequency {report.accepted_table.counts[0]}, "
        f"max free frequency {report.free_table.counts[0]}"
    )
    parameters = {
        "seed": args.seed,
        "n_users": args.n_users,
        "backend": args.backend,
        "retry_cap": args.retry_cap,
        **sketch,
        **source_desc,
    }
    return parameters, counters


# The short names a config file may use for some mh-sim flags.
_CONFIG_ALIASES = {"w": "width", "d": "depth", "ban-list": "ban-file"}


def _config_tokens(path: Path, keys: frozenset[str]) -> list[str]:
    """The ``--key=value`` flags that the ``key = value`` lines of ``path`` stand for;
    ``keys`` are the flags, without ``--``, that a line may set."""
    try:
        text = path.read_bytes().decode()
    except UnicodeDecodeError as exc:
        raise ingest.CorpusError(f"config file {path} is not UTF-8: {exc}") from exc
    tokens = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (want key=value): {line!r}")
        raw_key, value = line.split("=", 1)
        key = raw_key.strip().replace("_", "-")
        key = _CONFIG_ALIASES.get(key, key)
        if key not in keys:
            raise ValueError(f"unknown config key {raw_key.strip()!r} in {path.name}")
        tokens.append(f"--{key}={value.strip()}")
    return tokens


def _replicates(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (0 skips the p-value), got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pwdist", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pwdist {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for every random choice")
        p.add_argument("--out-dir", default=".", help="directory for outputs and the manifest")
        p.set_defaults(func=func)
        return p

    p = command("ingest", cmd_ingest, "parse a corpus into a rank-frequency table")
    p.add_argument("corpus", help="raw corpus file")
    p.add_argument(
        "--format", choices=ingest.CORPUS_FORMATS, default=ingest.FORMAT_PASSWORD_PER_LINE,
        help="corpus line format",
    )
    p.add_argument("--max-ranks", type=int, default=None, help="keep only the top N ranks")

    p = command("fit", cmd_fit, "fit Zipf models to a table")
    p.add_argument("--table", required=True, help="table.tsv from ingest")
    p.add_argument("--replicates", type=_replicates, default=100, help="bootstrap replicates; 0 skips the p-value")
    p.add_argument("--debias", action="store_true", help="indirect-inference bias correction for the MLE")

    p = command("stats", cmd_stats, "guesswork and entropy statistics")
    p.add_argument("--table", required=True)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--s", type=float, default=None, help="Zipf exponent; None fits it by MLE")

    p = command("curve", cmd_curve, "self or cross guessing curves")
    p.add_argument("--target", required=True, help="table being guessed")
    order = p.add_mutually_exclusive_group()
    order.add_argument("--reference", dest="ordering", help="table whose ordering drives the guessing")
    order.add_argument("--wordlist", help="dictionary file, guessed in lexical order")
    p.add_argument("--metric", choices=METRICS, default=METRICS[0])
    p.add_argument("--truncate", type=int, default=None, help="truncate-and-reaggregate the target first")
    p.add_argument("--log-spaced", action="store_true", help="sample the curve at log-spaced indices")

    p = command("crack", cmd_crack, "hash a corpus and/or crack a hashed corpus")
    hashed = p.add_mutually_exclusive_group(required=True)
    hashed.add_argument("--corpus", help="raw corpus to hash into hashes.tsv")
    hashed.add_argument("--hashes", help="existing hashes.tsv to attack")
    order = p.add_mutually_exclusive_group()
    order.add_argument("--ordering", help="table.tsv whose ranking orders the guesses")
    order.add_argument("--wordlist", help="dictionary file, guessed in lexical order")
    p.add_argument(
        "--format", choices=ingest.CORPUS_FORMATS, default=None,
        help=f"corpus line format for --corpus; None means {ingest.FORMAT_PASSWORD_PER_LINE}",
    )
    p.add_argument(
        "--salt-count", type=int, default=None,
        help=f"distinct salts for --corpus, drawn with --seed; None means {CRACK_SALT_COUNT}",
    )
    p.add_argument("--log-spaced", action="store_true")

    # Every option but --config and --out-dir may also be set by a config file line.
    p = command("mh-sim", cmd_mhsim, "simulate the Metropolis-Hastings password scheme")
    p.add_argument("--config", help="key = value config file; flags override its lines")
    p.add_argument("--source", choices=("zipf", "table"), default="zipf", help="proposal distribution")
    p.add_argument(
        "--s", type=float, default=None, help=f"Zipf exponent for source=zipf; None means {MH_ZIPF_S}"
    )
    p.add_argument(
        "--n-ranks", type=int, default=None,
        help=f"Zipf ranks for source=zipf; None means {MH_ZIPF_RANKS}",
    )
    p.add_argument("--table", default=None, help="table for source=table")
    p.add_argument("--n-users", type=int, default=10000, help="users to enrol")
    p.add_argument(
        "--backend",
        choices=MH_BACKENDS,
        default=MH_BACKENDS[0],
        help="frequency store",
    )
    p.add_argument(
        "--width", type=int, default=None,
        help=f"count-min width for backend=count-min; None means {MH_SKETCH_WIDTH}",
    )
    p.add_argument(
        "--depth", type=int, default=None,
        help=f"count-min depth for backend=count-min; None means {MH_SKETCH_DEPTH}",
    )
    p.add_argument("--retry-cap", type=int, default=MH_RETRY_CAP, help="asks per session")
    p.add_argument("--ban-file", default=None, help="passwords never accepted")
    flags = {flag[2:] for action in p._actions for flag in action.option_strings if flag[:2] == "--"}
    p.set_defaults(config_keys=frozenset(flags - {"help", "config", "out-dir"}))

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    Each ``cmd_*`` reads its inputs through ``_input``, writes its outputs
    through ``_stage`` and returns ``(parameters, counters)``; the out-dir,
    the manifest and the mapping of errors to exit codes are done here.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    staged: dict[str, Path] = {}
    try:
        args = parser.parse_args(argv)
        _out_dir(args)
        inputs = []
        if getattr(args, "config", None):
            # The file's lines go before the command line's flags, so the flags override them.
            inputs.append(Path(args.config))
            at = argv.index(args.subcommand) + 1
            tokens = _config_tokens(inputs[0], args.config_keys)
            args = parser.parse_args([*argv[:at], *tokens, *argv[at:]])
        args.staged, args.inputs = staged, inputs
        parameters, counters = args.func(args)
        _finish(args, parameters, counters)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ingest.CorpusError, OSError) as exc:
        _error_line("input", str(exc))
        return EXIT_INPUT
    except tsvio.NumericError as exc:
        _error_line("numeric", str(exc))
        return EXIT_NUMERIC
    except ValueError as exc:
        _error_line("usage", str(exc))
        return EXIT_USAGE
    finally:
        for partial in staged.values():
            partial.unlink(missing_ok=True)
    return EXIT_OK


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
