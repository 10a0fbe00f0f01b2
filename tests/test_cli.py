from __future__ import annotations

import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pwdist
from pwdist import zipf_fit
from pwdist.ingest import table_from_counts, write_table_tsv
from pwdist.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    lines = [b"123456"] * 12 + [b"qwerty"] * 6 + [b"dragon"] * 4 + [b"letmein"] * 3
    path.write_bytes(b"\n".join(lines) + b"\n")
    return path


def child_env(**extra) -> dict[str, str]:
    """The environment, with ``extra`` set, for a child Python that imports this pwdist."""
    env = dict(os.environ, **extra)
    src = str(Path(pwdist.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def ingest_table(tmp_path, corpus, name="t"):
    out = tmp_path / name
    assert main(["ingest", str(corpus), "--out-dir", str(out), "--seed", "3"]) == EXIT_OK
    return out / "table.tsv"


def _exponent_argv(tmp_path, corpus, argv, config_line, out):
    """``argv`` with a source for its stage, ``config_line`` as a config file if given, and ``out``."""
    if argv[0] == "stats":
        argv = [*argv, "--table", str(ingest_table(tmp_path, corpus))]
    else:
        argv = [*argv, "--n-users", "100", "--n-ranks", "50"]
    if config_line is not None:
        config = tmp_path / "sim.cfg"
        config.write_text(config_line + "\n")
        argv += ["--config", str(config)]
    return [*argv, "--out-dir", str(out)]


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        assert "pwdist-error\tusage" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        assert main(["ingest", "--bogus"]) == EXIT_USAGE

    def test_empty_corpus_is_input_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"")
        code = main(["ingest", str(empty), "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_INPUT
        assert "pwdist-error\tinput" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["ingest", str(tmp_path / "nope.txt"), "--out-dir", str(tmp_path)]) == EXIT_INPUT

    def test_degenerate_fit_is_numeric_error(self, tmp_path, capsys):
        single = tmp_path / "one.txt"
        single.write_bytes(b"only\nonly\n")
        table = ingest_table(tmp_path, single)
        code = main(["fit", "--table", str(table), "--out-dir", str(tmp_path / "f")])
        assert code == EXIT_NUMERIC
        assert "pwdist-error\tnumeric" in capsys.readouterr().err

    def test_banned_exhaustion_is_numeric_error(self, tmp_path, capsys):
        bans = tmp_path / "bans.txt"
        bans.write_bytes(b"p00000001\np00000002\n")
        argv = ["mh-sim", "--n-ranks", "2", "--n-users", "3", "--ban-file", str(bans),
                "--out-dir", str(tmp_path / "m")]
        assert main(argv) == EXIT_NUMERIC
        assert "pwdist-error\tnumeric" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize(
        "argv, config_line",
        [(["stats", "--s", "nan"], None), (["mh-sim", "--s", "nan"], None), (["mh-sim"], "s = nan")],
        ids=["stats-flag", "mh-sim-flag", "mh-sim-config"],
    )
    def test_nan_exponent_is_usage_error(self, tmp_path, corpus, capsys, argv, config_line):
        # Every comparison with NaN is false, so the range checks must be written to fail on it.
        out = tmp_path / "out"
        assert main(_exponent_argv(tmp_path, corpus, argv, config_line, out)) == EXIT_USAGE
        assert "pwdist-error\tusage\ts must be >= 0" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "s, code, message",
        [
            ("inf", EXIT_USAGE, "usage\ts must be >= 0 and finite"),
            # 50**-2000 is far below the smallest double.
            ("2000", EXIT_NUMERIC, "numeric\tZipf probabilities underflow to 0 at s=2000.0, n="),
        ],
        ids=["inf", "underflow"],
    )
    @pytest.mark.parametrize("where", ["stats-flag", "mh-sim-flag", "mh-sim-config"])
    def test_exponent_out_of_range(self, tmp_path, corpus, capsys, s, code, message, where):
        argv, config_line = {
            "stats-flag": (["stats", "--s", s], None),
            "mh-sim-flag": (["mh-sim", "--s", s], None),
            "mh-sim-config": (["mh-sim"], f"s = {s}"),
        }[where]
        out = tmp_path / "out"
        assert main(_exponent_argv(tmp_path, corpus, argv, config_line, out)) == code
        err = capsys.readouterr().err
        assert err.startswith(f"pwdist-error\t{message}") and err.count("\n") == 1
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize(
        "stage", ["ingest", "fit", "stats", "curve", "crack", "mh-sim", "mh-sim-config"]
    )
    def test_seed_out_of_range(self, tmp_path, corpus, capsys, stage, seed):
        # A seed is 0 to 2**64 - 1 in every stage; outside that range seeds would alias.
        table = str(ingest_table(tmp_path, corpus))
        argv = {
            "ingest": ["ingest", str(corpus)],
            "fit": ["fit", "--table", table, "--replicates", "2"],
            "stats": ["stats", "--table", table],
            "curve": ["curve", "--target", table],
            "crack": ["crack", "--corpus", str(corpus)],
            "mh-sim": ["mh-sim", "--n-users", "100", "--n-ranks", "50"],
            "mh-sim-config": ["mh-sim", "--n-users", "100", "--n-ranks", "50"],
        }[stage]
        if stage == "mh-sim-config":
            config = tmp_path / "sim.cfg"
            config.write_text(f"seed = {seed}\n")
            argv += ["--config", str(config)]
        else:
            argv += ["--seed", seed]
        out = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out)]) == EXIT_USAGE
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("pwdist-error")]
        assert len(errors) == 1 and errors[0].startswith("pwdist-error\tusage\t") and "--seed" in errors[0]
        assert not (out / "manifest.json").exists()

    def test_largest_seed_is_taken(self, tmp_path, corpus):
        top = str(2**64 - 1)
        assert main(["ingest", str(corpus), "--seed", top, "--out-dir", str(tmp_path / "i")]) == EXIT_OK
        argv = ["mh-sim", "--n-users", "100", "--n-ranks", "50", "--backend", "count-min", "--seed", top]
        assert main([*argv, "--out-dir", str(tmp_path / "m")]) == EXIT_OK

    @pytest.mark.parametrize("n_ranks", [10**12, 10**20])
    def test_too_many_ranks_is_usage_error(self, tmp_path, capsys, n_ranks):
        # Rejected before the Zipf model, 8 bytes a rank, is built.
        out = tmp_path / "out"
        argv = ["mh-sim", "--n-ranks", str(n_ranks), "--n-users", "10", "--out-dir", str(out)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"pwdist-error\tusage\tsimulate takes at most 2**32 ranks, got {n_ranks}\n"
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "bad_row", [b"1\tmany\tpw", b"x\t3\tpw", b"1\t3\tbad\\q", b"1\t3\tdangling\\"]
    )
    def test_malformed_table_is_input_error(self, tmp_path, capsys, bad_row):
        table = tmp_path / "table.tsv"
        table.write_bytes(b"rank\tcount\tpassword\n" + bad_row + b"\n")
        code = main(["stats", "--table", str(table), "--out-dir", str(tmp_path / "s")])
        assert code == EXIT_INPUT
        assert "pwdist-error\tinput\t" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["fit", "stats"])
    @pytest.mark.parametrize(
        "first_row",
        [b" 1\t12\t123456", b"1\t+12\t123456", b"1\t1_2\t123456", b"1\t12\t123\t456", b"1\t%d\t123456" % 2**63],
        ids=["space", "plus", "underscore", "raw-tab", "above-int64"],
    )
    def test_table_field_not_plain_is_input_error(self, tmp_path, corpus, capsys, stage, first_row):
        # Rank and count are plain digits up to 2**63 - 1, and a password's TABs are escaped.
        lines = ingest_table(tmp_path, corpus).read_bytes().split(b"\n")
        assert lines[1] == b"1\t12\t123456"
        table = tmp_path / "table.tsv"
        table.write_bytes(b"\n".join([lines[0], first_row, *lines[2:]]))
        out = tmp_path / "out"
        assert main([stage, "--table", str(table), "--out-dir", str(out)]) == EXIT_INPUT
        assert "pwdist-error\tinput\t" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("stage", ["fit", "stats", "curve"])
    def test_counts_summing_past_int64_are_input_error(self, tmp_path, capsys, stage):
        # Each count fits int64, but 2**62 + 2**62 wraps an int64 sum to -2**63.
        table = tmp_path / "table.tsv"
        table.write_bytes(b"rank\tcount\tpassword\n1\t%d\ta\n2\t%d\tb\n" % (2**62, 2**62))
        out = tmp_path / "out"
        flag = "--target" if stage == "curve" else "--table"
        assert main([stage, flag, str(table), "--out-dir", str(out)]) == EXIT_INPUT
        assert "pwdist-error\tinput\ttable counts sum past 2**63 - 1" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


    @pytest.mark.parametrize("stage", ["curve", "crack"])
    @pytest.mark.parametrize("words", [b"", b"\n\r\n\n"], ids=["empty", "all-blank"])
    def test_word_list_without_words_is_input_error(self, tmp_path, corpus, capsys, stage, words):
        wordlist = tmp_path / "words.txt"
        wordlist.write_bytes(words)
        out = tmp_path / "out"
        if stage == "curve":
            argv = ["curve", "--target", str(ingest_table(tmp_path, corpus))]
        else:
            argv = ["crack", "--corpus", str(corpus)]
        assert main([*argv, "--wordlist", str(wordlist), "--out-dir", str(out)]) == EXIT_INPUT
        assert "pwdist-error\tinput\tword list words.txt has no words" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        assert list(out.iterdir()) == []


class TestOutDir:
    def test_failed_rerun_leaves_no_manifest(self, tmp_path, corpus):
        out = tmp_path / "out"
        assert main(["ingest", str(corpus), "--out-dir", str(out)]) == EXIT_OK
        assert (out / "manifest.json").exists()
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"")
        assert main(["ingest", str(empty), "--out-dir", str(out)]) == EXIT_INPUT
        assert not (out / "manifest.json").exists()

    @staticmethod
    def _snapshot(out: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}

    def test_failed_rerun_keeps_earlier_outputs(self, tmp_path, corpus, monkeypatch):
        table = ingest_table(tmp_path, corpus)
        out = tmp_path / "fit"
        argv = ["fit", "--table", str(table), "--out-dir", str(out)]
        assert main([*argv, "--replicates", "5"]) == EXIT_OK
        before = self._snapshot(out)

        def full_disk(*args, **kwargs):
            raise OSError("no space left on device")

        # The rerun writes a different fit.tsv (no p-value), then fails on its next output.
        monkeypatch.setattr(zipf_fit, "write_binned_tsv", full_disk)
        code = main([*argv, "--replicates", "0"])
        assert code == EXIT_INPUT
        assert self._snapshot(out) == before
        assert sorted(before) == ["binned_nk.tsv", "binned_rank.tsv", "fit.tsv"]
        assert not (out / "manifest.json").exists()

    def test_failed_crack_rerun_keeps_earlier_hashes(self, tmp_path, corpus):
        out = tmp_path / "crack"
        assert main(["crack", "--corpus", str(corpus), "--out-dir", str(out)]) == EXIT_OK
        before = self._snapshot(out)
        # Hashes under other salts are written, then the missing ordering fails the run.
        code = main(
            ["crack", "--corpus", str(corpus), "--seed", "9",
             "--ordering", str(tmp_path / "missing.tsv"), "--out-dir", str(out)]
        )
        assert code == EXIT_INPUT
        assert self._snapshot(out) == before == {"hashes.tsv": before["hashes.tsv"]}

    def test_outputs_move_into_place_before_the_manifest(self, tmp_path, corpus):
        out = tmp_path / "out"
        assert main(["ingest", str(corpus), "--out-dir", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "table.tsv"]


class TestIngest:
    def test_writes_table_and_manifest(self, tmp_path, corpus):
        out = tmp_path / "out"
        assert main(["ingest", str(corpus), "--out-dir", str(out), "--seed", "3"]) == EXIT_OK
        table_lines = (out / "table.tsv").read_bytes().splitlines()
        assert table_lines[0] == b"rank\tcount\tpassword"
        assert table_lines[1] == b"1\t12\t123456"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert manifest["parameters"]["seed"] == 3
        assert "table.tsv" in manifest["outputs"]
        assert "corpus.txt" in manifest["inputs"]

    def test_user_tab_password_format(self, tmp_path):
        raw = tmp_path / "utp.txt"
        raw.write_bytes(b"alice\tpw1\nbob\tpw1\ncarol\tpw2\nbroken-line\n")
        out = tmp_path / "out"
        code = main(
            ["ingest", str(raw), "--format", "user-tab-password", "--out-dir", str(out)]
        )
        assert code == EXIT_OK
        assert b"1\t2\tpw1" in (out / "table.tsv").read_bytes()

    def test_max_ranks_caps_table(self, tmp_path, corpus):
        out = tmp_path / "capped"
        code = main(["ingest", str(corpus), "--out-dir", str(out), "--max-ranks", "2"])
        assert code == EXIT_OK
        lines = (out / "table.tsv").read_bytes().splitlines()
        assert len(lines) == 3  # header plus two ranks


class TestFit:
    def test_collinear_fixture_reports_ls_raw_one(self, tmp_path, corpus):
        table = ingest_table(tmp_path, corpus)
        out = tmp_path / "fit"
        code = main(
            ["fit", "--table", str(table), "--out-dir", str(out), "--replicates", "10"]
        )
        assert code == EXIT_OK
        rows = {
            line.split("\t")[0]: line.split("\t")
            for line in (out / "fit.tsv").read_text().splitlines()[1:]
        }
        assert float(rows["ls-raw"][1]) == pytest.approx(1.0, abs=1e-9)
        assert rows["mle"][4] != ""  # p_value present
        assert (out / "binned_rank.tsv").exists()
        assert (out / "binned_nk.tsv").exists()

    def test_flag_column(self, tmp_path, corpus):
        flat = tmp_path / "flat.txt"
        flat.write_bytes(b"".join(b"%s\n" % pw for pw in [b"aa", b"bb", b"cc", b"dd"] * 5))
        runs = {
            "flat": ["--table", str(ingest_table(tmp_path, flat, "flat"))],
            "collinear": ["--table", str(ingest_table(tmp_path, corpus, "collinear"))],
            "debiased": ["--table", str(ingest_table(tmp_path, corpus, "collinear")), "--debias"],
        }
        flags = {}
        for name, argv in runs.items():
            out = tmp_path / f"fit-{name}"
            assert main(["fit", *argv, "--replicates", "0", "--out-dir", str(out)]) == EXIT_OK
            lines = (out / "fit.tsv").read_text().splitlines()
            header = lines[0].split("\t")
            assert header[-1] == "flag"
            rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
            flags[name] = {row["method"]: row["flag"] for row in rows}
        # Equal counts: both least-squares slopes are clamped to s = 0.
        assert flags["flat"] == {
            "ls-raw": "flat-slope", "ls-binned": "flat-slope", "mle": "boundary"
        }
        assert flags["collinear"]["ls-raw"] == ""
        assert flags["collinear"]["mle"] == ""
        assert flags["debiased"]["mle"] == "debiased"

    def test_debias_keeps_the_plain_fit_p_value(self, tmp_path):
        sample = zipf_fit.sample_zipf_counts(0.78, 2000, 40000, np.random.default_rng(1))
        table = tmp_path / "table.tsv"
        write_table_tsv(table_from_counts(np.sort(sample[sample > 0])[::-1]), table)
        p_values = {}
        for name, extra in (("plain", []), ("debias", ["--debias"])):
            out = tmp_path / name
            argv = ["fit", "--table", str(table), "--replicates", "40", "--seed", "0", *extra]
            assert main([*argv, "--out-dir", str(out)]) == EXIT_OK
            rows = {
                line.split("\t")[0]: line.split("\t")
                for line in (out / "fit.tsv").read_text().splitlines()[1:]
            }
            p_values[name] = rows["mle"][4]
        assert p_values["plain"] != ""
        assert p_values["debias"] == p_values["plain"]

    @pytest.mark.parametrize("counts, replicates, seeds", [((2, 1), 20, range(4)), ((5, 3, 1), 100, [0])])
    def test_replicate_on_one_rank_gives_a_p_value(self, tmp_path, counts, replicates, seeds):
        # These seeds draw a replicate whose users all land on rank 1; its statistic is 0.
        table = tmp_path / "table.tsv"
        write_table_tsv(table_from_counts(counts), table)
        for seed in seeds:
            out = tmp_path / f"fit-{seed}"
            argv = ["fit", "--table", str(table), "--replicates", str(replicates), "--seed", str(seed)]
            assert main([*argv, "--out-dir", str(out)]) == EXIT_OK
            rows = {
                line.split("\t")[0]: line.split("\t")
                for line in (out / "fit.tsv").read_text().splitlines()[1:]
            }
            assert rows["mle"][4] != ""

    def test_replicates_zero_skips_p_value(self, tmp_path, corpus):
        table = ingest_table(tmp_path, corpus)
        out = tmp_path / "fit0"
        assert main(["fit", "--table", str(table), "--out-dir", str(out), "--replicates", "0"]) == EXIT_OK
        rows = {
            line.split("\t")[0]: line.split("\t")
            for line in (out / "fit.tsv").read_text().splitlines()[1:]
        }
        assert rows["mle"][4] == ""

    def test_negative_replicates_is_usage_error(self, tmp_path, corpus, capsys):
        table = ingest_table(tmp_path, corpus)
        out = tmp_path / "fit"
        code = main(["fit", "--table", str(table), "--out-dir", str(out), "--replicates", "-5"])
        assert code == EXIT_USAGE
        assert "pwdist-error\tusage\t" in capsys.readouterr().err
        assert not (out / "fit.tsv").exists()


def test_tiny_tables_keep_the_exit_contract(tmp_path, capsys):
    """Every table of 1-4 rows with counts 1-5 through each stage that reads a table.

    Every run exits 0, but for ``fit`` and ``stats`` on one row, which have
    no exponent to fit: they exit 3 with one numeric error line and leave
    no manifest. Every exponent written is finite and at most 64.
    """
    commands = {
        "fit": ["fit", "--replicates", "30", "--table", "{t}"],
        "fit-debias": ["fit", "--replicates", "30", "--debias", "--table", "{t}"],
        "stats": ["stats", "--table", "{t}"],
        "curve": ["curve", "--target", "{t}", "--reference", "{t}"],
        "mh-sim": ["mh-sim", "--source", "table", "--n-users", "50", "--table", "{t}"],
    }
    tables = [
        counts
        for rows in range(1, 5)
        for counts in itertools.combinations_with_replacement(range(5, 0, -1), rows)
    ]
    assert len(tables) == 125
    wrong = []
    for counts in tables:
        name = "-".join(map(str, counts))
        table = tmp_path / f"{name}.tsv"
        write_table_tsv(table_from_counts(counts), table)
        for command, argv in commands.items():
            out = tmp_path / command / name
            code = main([a.format(t=table) for a in argv] + ["--out-dir", str(out)])
            errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("pwdist-error")]
            if len(counts) == 1 and command in ("fit", "fit-debias", "stats"):
                ok = code == EXIT_NUMERIC and len(errors) == 1 and errors[0].startswith("pwdist-error\tnumeric\t")
                ok = ok and not (out / "manifest.json").exists()
            else:
                ok = code == EXIT_OK and not errors
            if ok and code == EXIT_OK and command.startswith("fit"):
                s = [float(line.split("\t")[1]) for line in (out / "fit.tsv").read_text().splitlines()[1:]]
                ok = all(math.isfinite(v) and v <= 64.0 for v in s)
            if not ok:
                wrong.append((counts, command, code, errors))
    assert wrong == []


class TestStats:
    def test_writes_three_model_rows(self, tmp_path, corpus):
        table = ingest_table(tmp_path, corpus)
        out = tmp_path / "stats"
        assert main(["stats", "--table", str(table), "--out-dir", str(out)]) == EXIT_OK
        lines = (out / "stats.tsv").read_text().splitlines()
        assert [line.split("\t")[0] for line in lines] == ["model", "uniform", "empirical", "zipf"]

    def test_one_row_table_has_zero_entropy_not_minus_zero(self, tmp_path, capsys):
        table = tmp_path / "one.tsv"
        table.write_bytes(b"rank\tcount\tpassword\n1\t3\tpw\n")
        out = tmp_path / "stats"
        assert main(["stats", "--table", str(table), "--s", "0.8", "--out-dir", str(out)]) == EXIT_OK
        header, *rows = [line.split("\t") for line in (out / "stats.tsv").read_text().splitlines()]
        entropies = [row[header.index(name)] for row in rows for name in ("shannon_H", "min_entropy")]
        assert entropies == ["0"] * 6
        assert capsys.readouterr().out.count("H = 0\n") == 3
        # Without --s the zipf row's MLE needs 2 ranks.
        assert main(["stats", "--table", str(table), "--out-dir", str(tmp_path / "mle")]) == EXIT_NUMERIC


class TestCurve:
    def test_reference_equal_to_target_matches_self_curve(self, tmp_path, corpus):
        table = ingest_table(tmp_path, corpus)
        self_out = tmp_path / "self"
        cross_out = tmp_path / "cross"
        assert main(["curve", "--target", str(table), "--out-dir", str(self_out)]) == EXIT_OK
        assert (
            main(
                [
                    "curve",
                    "--target", str(table),
                    "--reference", str(table),
                    "--out-dir", str(cross_out),
                ]
            )
            == EXIT_OK
        )
        assert (self_out / "curve.tsv").read_bytes() == (cross_out / "curve.tsv").read_bytes()

    def test_wordlist_reference(self, tmp_path, corpus):
        table = ingest_table(tmp_path, corpus)
        words = tmp_path / "words.txt"
        words.write_bytes(b"zzz\n123456\naaa\n")
        out = tmp_path / "wl"
        code = main(
            ["curve", "--target", str(table), "--wordlist", str(words), "--out-dir", str(out)]
        )
        assert code == EXIT_OK
        lines = (out / "curve.tsv").read_text().splitlines()
        assert lines[1] == "1\t12\t0.48"  # "123456" sorts first and recovers 12 users

    def test_reference_with_wordlist_is_usage_error(self, tmp_path, corpus, capsys):
        table = ingest_table(tmp_path, corpus)
        words = tmp_path / "words.txt"
        words.write_bytes(b"123456\n")
        code = main(
            ["curve", "--target", str(table), "--reference", str(table),
             "--wordlist", str(words), "--out-dir", str(tmp_path / "c")]
        )
        assert code == EXIT_USAGE
        assert "pwdist-error\tusage\t" in capsys.readouterr().err


class TestCrack:
    def test_generate_then_attack(self, tmp_path, corpus):
        table = ingest_table(tmp_path, corpus)
        gen = tmp_path / "gen"
        code = main(
            [
                "crack",
                "--corpus", str(corpus),
                "--salt-count", "4",
                "--out-dir", str(gen),
                "--seed", "5",
            ]
        )
        assert code == EXIT_OK
        hashes = gen / "hashes.tsv"
        attack = tmp_path / "attack"
        code = main(
            [
                "crack",
                "--hashes", str(hashes),
                "--ordering", str(table),
                "--out-dir", str(attack),
            ]
        )
        assert code == EXIT_OK
        assert (attack / "curve_users.tsv").exists()
        assert (attack / "curve_distinct.tsv").exists()
        cracked = (attack / "cracked.tsv").read_bytes().splitlines()
        assert len(cracked) - 1 == 25  # every user recovered

    def test_cracked_rows_do_not_depend_on_hash_seed(self, tmp_path):
        corpus = tmp_path / "users.txt"
        corpus.write_bytes(b"123456\n" * 60 + b"qwerty\n" * 30 + b"dragon\n")
        table = ingest_table(tmp_path, corpus)
        cracked = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"crack-{hash_seed}"
            subprocess.run(
                [sys.executable, "-m", "pwdist.cli", "crack", "--corpus", str(corpus),
                 "--salt-count", "16", "--ordering", str(table), "--out-dir", str(out)],
                env=child_env(PYTHONHASHSEED=hash_seed), check=True, capture_output=True, timeout=120,
            )
            cracked.append((out / "cracked.tsv").read_bytes())
        assert len(cracked[0].splitlines()) == 1 + 91
        assert cracked[0] == cracked[1]

    def test_crack_without_inputs_is_usage_error(self, tmp_path):
        assert main(["crack", "--out-dir", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "raw, corpus_format",
        [
            pytest.param(b"", "password-per-line", id="empty"),
            pytest.param(b"\n \n\t\r\n", "password-per-line", id="blank-lines"),
            pytest.param(b"alice\t \nbob\n", "user-tab-password", id="blank-and-malformed"),
        ],
    )
    @pytest.mark.parametrize("wordlist", [False, True], ids=["hash-only", "wordlist"])
    def test_corpus_without_usable_line_is_input_error(self, tmp_path, capsys, raw, corpus_format, wordlist):
        blank = tmp_path / "blank.txt"
        blank.write_bytes(raw)
        words = tmp_path / "w.txt"
        words.write_bytes(b"pw\n")
        out = tmp_path / "out"
        argv = ["crack", "--corpus", str(blank), "--format", corpus_format, "--out-dir", str(out)]
        assert main(argv + ["--wordlist", str(words)] * wordlist) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count("pwdist-error") == 1
        assert "pwdist-error\tinput\tcorpus blank.txt has no usable line" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("rows", [b"", b"\n\r\n"], ids=["header-only", "blank-rows"])
    def test_hashes_without_rows_is_input_error(self, tmp_path, capsys, rows):
        hashes = tmp_path / "hashes.tsv"
        hashes.write_bytes(b"user\tsalt-hex\tdigest-hex\n" + rows)
        words = tmp_path / "w.txt"
        words.write_bytes(b"pw\n")
        out = tmp_path / "out"
        code = main(["crack", "--hashes", str(hashes), "--wordlist", str(words), "--out-dir", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.count("pwdist-error") == 1
        assert "pwdist-error\tinput\thashes file hashes.tsv has no rows" in err
        assert list(out.iterdir()) == []

    def test_ordering_with_wordlist_is_usage_error(self, tmp_path, corpus, capsys):
        table = ingest_table(tmp_path, corpus)
        words = tmp_path / "words.txt"
        words.write_bytes(b"123456\n")
        code = main(
            ["crack", "--corpus", str(corpus), "--ordering", str(table),
             "--wordlist", str(words), "--out-dir", str(tmp_path / "k")]
        )
        assert code == EXIT_USAGE
        assert "pwdist-error\tusage\t" in capsys.readouterr().err

    def test_corpus_with_hashes_is_usage_error(self, tmp_path, corpus, capsys):
        hashes = tmp_path / "hashes.tsv"
        hashes.write_bytes(b"user\tsalt-hex\tdigest-hex\n")
        code = main(
            ["crack", "--corpus", str(corpus), "--hashes", str(hashes), "--out-dir", str(tmp_path / "k")]
        )
        assert code == EXIT_USAGE
        assert "pwdist-error\tusage\t" in capsys.readouterr().err

    def test_digest_not_eight_bytes_is_input_error(self, tmp_path, capsys):
        hashes = tmp_path / "hashes.tsv"
        hashes.write_bytes(
            b"user\tsalt-hex\tdigest-hex\n"
            b"alice\t2e2e\tabcd\n"
            b"bob\t2e2e\t0011223344556677\n"
        )
        words = tmp_path / "words.txt"
        words.write_bytes(b"123456\n")
        out = tmp_path / "out"
        code = main(
            ["crack", "--hashes", str(hashes), "--wordlist", str(words), "--out-dir", str(out)]
        )
        assert code == EXIT_INPUT
        assert "pwdist-error\tinput" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_hashes_run_records_no_hashing_parameters(self, tmp_path, corpus):
        gen = tmp_path / "gen"
        assert main(["crack", "--corpus", str(corpus), "--salt-count", "4", "--out-dir", str(gen)]) == EXIT_OK
        hashing = {"salt_count", "format"}
        assert hashing <= set(json.loads((gen / "manifest.json").read_text())["parameters"])
        words = tmp_path / "words.txt"
        words.write_bytes(b"123456\n")
        attack = tmp_path / "attack"
        code = main(
            ["crack", "--hashes", str(gen / "hashes.tsv"), "--wordlist", str(words),
             "--out-dir", str(attack)]
        )
        assert code == EXIT_OK
        parameters = json.loads((attack / "manifest.json").read_text())["parameters"]
        assert not hashing & set(parameters)

    @pytest.mark.parametrize(
        "option", [["--salt-count", "3"], ["--format", "user-tab-password"]], ids=["salt-count", "format"]
    )
    def test_hashing_options_with_hashes_are_usage_errors(self, tmp_path, corpus, capsys, option):
        gen = tmp_path / "gen"
        assert main(["crack", "--corpus", str(corpus), "--out-dir", str(gen)]) == EXIT_OK
        words = tmp_path / "words.txt"
        words.write_bytes(b"123456\n")
        attack = tmp_path / "attack"
        code = main(
            ["crack", "--hashes", str(gen / "hashes.tsv"), "--wordlist", str(words), *option,
             "--out-dir", str(attack)]
        )
        assert code == EXIT_USAGE
        assert f"pwdist-error\tusage\t{option[0][2:]} " in capsys.readouterr().err
        assert not (attack / "manifest.json").exists()

    def test_corpus_hashing_defaults_recorded(self, tmp_path, corpus):
        out = tmp_path / "gen"
        assert main(["crack", "--corpus", str(corpus), "--out-dir", str(out)]) == EXIT_OK
        parameters = json.loads((out / "manifest.json").read_text())["parameters"]
        assert (parameters["salt_count"], parameters["format"]) == (64, "password-per-line")

    @pytest.mark.parametrize("option", [["--scheme", "trunc8-mix64"], ["--salt-seed", "1"]])
    def test_removed_hashing_options_are_usage_errors(self, tmp_path, corpus, capsys, option):
        out = tmp_path / "out"
        assert main(["crack", "--corpus", str(corpus), *option, "--out-dir", str(out)]) == EXIT_USAGE
        assert "pwdist-error\tusage\t" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_corpus_read_is_reported(self, tmp_path, capsys):
        corpus = tmp_path / "users.tsv"
        corpus.write_bytes(b"\xe9ve\tpw1\nbroken\nbob\tpw2\r\n\n\xe9ve\tpw3\n")
        out = tmp_path / "out"
        code = main(
            ["crack", "--corpus", str(corpus), "--format", "user-tab-password",
             "--out-dir", str(out)]
        )
        assert code == EXIT_OK
        assert "hashed 2 users from 5 lines (2 malformed skipped)" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counters"] == {"lines": 5, "malformed": 2}
        # Each user's last entry, in the order of the kept lines; user bytes unchanged.
        rows = (out / "hashes.tsv").read_bytes().splitlines()[1:]
        assert [row.split(b"\t")[0] for row in rows] == [b"bob", b"\xe9ve"]


def test_stages_do_not_import_numpy_ma(tmp_path, corpus):
    """``numpy.ma`` costs about 1 MB resident; no stage should pull it in."""
    table = tmp_path / "t" / "table.tsv"
    stages = [
        ["ingest", str(corpus), "--out-dir", str(table.parent)],
        ["fit", "--table", str(table), "--replicates", "3", "--out-dir", str(tmp_path / "f")],
        ["mh-sim", "--n-users", "300", "--n-ranks", "200", "--out-dir", str(tmp_path / "m")],
        # A sketch this small puts counters live and runs every layout pass.
        ["mh-sim", "--backend", "count-min", "--width", "64", "--depth", "3", "--n-users", "500",
         "--n-ranks", "200", "--out-dir", str(tmp_path / "m-cm")],
        ["curve", "--target", str(table), "--log-spaced", "--out-dir", str(tmp_path / "c")],
        ["crack", "--corpus", str(corpus), "--ordering", str(table), "--log-spaced",
         "--out-dir", str(tmp_path / "k")],
    ]
    script = (
        "import json, sys\n"
        "from pwdist.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, json.dumps(stages)],
        env=child_env(), check=True, capture_output=True, text=True, timeout=120,
    )
    assert out.stdout.splitlines()[-1] == "False"


def test_hashing_before_the_manifest_does_not_load_openssl():
    """OpenSSL's libcrypto costs 3.4 MB resident, and only the manifest's sha256 needs it.

    The stages' BLAKE2b digests, keyed and keyless, and a corpus's read and
    ranking leave ``_hashlib`` unloaded.
    """
    script = (
        "import io, sys\n"
        "import pwdist.cli\n"
        "from pwdist import column, ingest\n"
        "column.keyed_hashes([b'alice', b'bob'], 7)\n"
        "column.row_hashes(column.PasswordColumn([b'x' * (column.WORD_PASS_MAX_LEN + 1), b'y']))\n"
        "ingest.stream_table(io.BytesIO(b'pw1\\npw2\\npw1\\n'), ingest.FORMAT_PASSWORD_PER_LINE)\n"
        "ingest.stream_table(io.BytesIO(b'u1\\tpw1\\nu2\\tpw2\\n'), ingest.FORMAT_USER_TAB_PASSWORD)\n"
        "print('_hashlib' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=child_env(), check=True, capture_output=True, text=True, timeout=120
    )
    assert out.stdout.splitlines()[-1] == "False"


def test_fit_and_stats_do_not_depend_on_blas_threads(tmp_path):
    """``fit`` with replicates and ``stats`` write the same bytes on one OpenBLAS thread and on two.

    The table has over 10,000 ranks, where OpenBLAS may split a dot product
    between threads. ``--debias`` is left out: its fits do depend on the
    thread count.
    """
    sample = zipf_fit.sample_zipf_counts(0.78, 60000, 100000, np.random.default_rng(4))
    table = tmp_path / "table.tsv"
    write_table_tsv(table_from_counts(np.sort(sample[sample > 0])[::-1]), table)
    assert np.count_nonzero(sample) > 10000
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        for argv in (["fit", "--replicates", "3"], ["stats"]):
            subprocess.run(
                [sys.executable, "-m", "pwdist.cli", *argv, "--table", str(table), "--out-dir", str(out)],
                env=child_env(OPENBLAS_NUM_THREADS=threads), check=True, capture_output=True, timeout=120,
            )
        written[threads] = [(out / name).read_bytes() for name in ("fit.tsv", "stats.tsv")]
    assert written["1"] == written["2"]


# The modules every stage imports: the CLI, the corpus and table reader, and what it uses.
BASE_MODULES = {"pwdist", "pwdist.cli", "pwdist.ingest", "pwdist.column", "pwdist.tsvio"}


@pytest.mark.parametrize("stage", ["ingest", "curve", "mh-sim", "stats-s"])
def test_stages_import_only_their_modules(tmp_path, corpus, stage):
    """Building the parser imports no stage module; a stage imports the ones it calls."""
    table = ingest_table(tmp_path, corpus)
    bans = tmp_path / "bans.txt"
    bans.write_bytes(b"123456\n")
    argv, imported = {
        "ingest": (["ingest", str(corpus), "--out-dir", str(tmp_path / "i")], set()),
        "curve": (["curve", "--target", str(table), "--reference", str(table),
                   "--out-dir", str(tmp_path / "c")], {"pwdist.crossguess"}),
        # Neither builds a fit, so neither loads zipf_fit.
        "mh-sim": (["mh-sim", "--source", "table", "--table", str(table), "--ban-file", str(bans),
                    "--n-users", "50", "--out-dir", str(tmp_path / "m")],
                   {"pwdist.mh_uniform", "pwdist.stats"}),
        "stats-s": (["stats", "--table", str(table), "--s", "0.8", "--out-dir", str(tmp_path / "s")],
                    {"pwdist.stats"}),
    }[stage]
    script = (
        "import json, sys\n"
        "from pwdist.cli import main\n"
        "assert main(json.loads(sys.argv[1])) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'pwdist')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)],
        env=child_env(), check=True, capture_output=True, text=True, timeout=120,
    )
    assert set(json.loads(out.stdout.splitlines()[-1])) == BASE_MODULES | imported


def test_parser_constants_match_their_modules():
    from pwdist import cli, crossguess, mh_uniform, stats

    assert cli.METRICS == crossguess.METRICS and cli.METRICS[0] == crossguess.METRIC_USERS
    assert cli.DEFAULT_ALPHA == stats.DEFAULT_ALPHA
    assert cli.MH_RETRY_CAP == mh_uniform.DEFAULT_RETRY_CAP


class TestMhSim:
    def test_config_file_drives_simulation(self, tmp_path):
        config = tmp_path / "sim.cfg"
        config.write_text(
            "# tiny flattening run\n"
            "source = zipf\n"
            "s = 0.9\n"
            "n-ranks = 200\n"
            "n-users = 1500\n"
            "backend = exact\n"
            "seed = 11\n"
        )
        out = tmp_path / "sim"
        assert main(["mh-sim", "--config", str(config), "--out-dir", str(out)]) == EXIT_OK
        summary = (out / "summary.tsv").read_text().splitlines()
        assert summary[0] == "mean_asks\tvar_asks\trejected_total"
        accepted = (out / "accepted.tsv").read_bytes().splitlines()
        free = (out / "free.tsv").read_bytes().splitlines()
        assert accepted[0] == b"rank\tcount\tpassword"
        assert len(accepted) > 2 and len(free) > 2

    def test_flag_overrides_config(self, tmp_path):
        config = tmp_path / "sim.cfg"
        config.write_text("source = zipf\ns = 0.9\nn-ranks = 100\nn-users = 4000\n")
        out = tmp_path / "sim"
        code = main(
            ["mh-sim", "--config", str(config), "--n-users", "300", "--out-dir", str(out)]
        )
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["n_users"] == 300

    def test_config_seed_applies_without_flag(self, tmp_path):
        accepted = []
        for seed in (7, 8):
            config = tmp_path / f"sim{seed}.cfg"
            config.write_text(
                f"source = zipf\ns = 0.9\nn-ranks = 200\nn-users = 1500\nseed = {seed}\n"
            )
            out = tmp_path / f"sim{seed}"
            assert main(["mh-sim", "--config", str(config), "--out-dir", str(out)]) == EXIT_OK
            assert json.loads((out / "manifest.json").read_text())["parameters"]["seed"] == seed
            accepted.append((out / "accepted.tsv").read_bytes())
        assert accepted[0] != accepted[1]

    def test_seed_flag_overrides_config_seed(self, tmp_path):
        config = tmp_path / "sim.cfg"
        config.write_text("source = zipf\nn-ranks = 100\nn-users = 300\nseed = 7\n")
        for flag in ("0", "9"):
            out = tmp_path / f"sim{flag}"
            code = main(["mh-sim", "--config", str(config), "--seed", flag, "--out-dir", str(out)])
            assert code == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["parameters"]["seed"] == int(flag)

    def test_ban_file(self, tmp_path):
        ban = tmp_path / "banned.txt"
        ban.write_bytes(b"p00000001\n")
        # A word listed twice, or one that labels no rank, changes nothing.
        ban_twice = tmp_path / "banned-twice.txt"
        ban_twice.write_bytes(b"p00000001\nnot-a-label\np00000001\np00000051\n")
        outputs = []
        for path in (ban, ban_twice):
            out = tmp_path / path.stem
            code = main(
                [
                    "mh-sim",
                    "--source", "zipf",
                    "--s", "1.0",
                    "--n-ranks", "50",
                    "--n-users", "800",
                    "--ban-file", str(path),
                    "--out-dir", str(out),
                    "--seed", "2",
                ]
            )
            assert code == EXIT_OK
            assert b"\tp00000001" not in (out / "accepted.tsv").read_bytes()
            outputs.append([(out / name).read_bytes() for name in ("accepted.tsv", "free.tsv", "summary.tsv")])
        assert outputs[0] == outputs[1]

    def test_retry_cap_below_one_is_usage_error(self, tmp_path, capsys):
        args = ["mh-sim", "--source", "zipf", "--s", "1.0", "--n-ranks", "50", "--n-users", "800"]
        assert main(args + ["--retry-cap", "0", "--out-dir", str(tmp_path / "sim")]) == EXIT_USAGE
        assert "pwdist-error\tusage\tretry_cap" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["zipf", "table"])
    def test_counts_past_int64_are_usage_error_before_any_rank(
        self, tmp_path, corpus, capsys, monkeypatch, source
    ):
        # n_users * retry_cap asks could pass any int64 count: the run stops
        # before the source's probabilities or labels are built.
        from pwdist import ingest, stats

        def per_rank(*args, **kwargs):
            raise AssertionError("built a per-rank source")

        argv = ["mh-sim", "--n-users", str(2**62), "--retry-cap", "4"]
        if source == "table":
            argv += ["--source", "table", "--table", str(ingest_table(tmp_path, corpus))]
        monkeypatch.setattr(stats, "zipf_model", per_rank)
        monkeypatch.setattr(ingest, "read_table_tsv", per_rank)
        out = tmp_path / "sim"
        assert main([*argv, "--out-dir", str(out)]) == EXIT_USAGE
        assert "pwdist-error\tusage\tn_users * retry_cap must be <= 2**63 - 1" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_sketch_past_int32_offsets_is_usage_error(self, tmp_path, capsys):
        # 3 * 10**9 counters: refused before any counter is laid out.
        out = tmp_path / "sim"
        argv = ["mh-sim", "--backend", "count-min", "--width", "3000000000", "--depth", "1",
                "--n-users", "10", "--n-ranks", "20", "--out-dir", str(out)]
        assert main(argv) == EXIT_USAGE
        assert "pwdist-error\tusage\twidth * depth must be <= 2**31 - 1" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_every_flag_is_a_config_key(self, tmp_path, corpus, capsys):
        # Each mh-sim option but --config and --out-dir, set by a config line,
        # gives the run that its flag gives.
        assert main(["mh-sim", "--help"]) == EXIT_OK
        options = set(re.findall(r"--([a-z-]+)", capsys.readouterr().out)) - {"help", "config", "out-dir"}
        ban = tmp_path / "ban.txt"
        ban.write_bytes(b"p00000001\n")
        runs = [
            {"source": "zipf", "s": "0.9", "n-ranks": "50", "n-users": "300", "backend": "count-min",
             "width": "64", "depth": "3", "seed": "5", "retry-cap": "60", "ban-file": str(ban)},
            {"source": "table", "table": str(ingest_table(tmp_path, corpus)), "n-users": "200"},
        ]
        assert set().union(*runs) == options
        for k, run in enumerate(runs):
            config = tmp_path / f"sim{k}.cfg"
            config.write_text("".join(f"{key} = {value}\n" for key, value in run.items()))
            by_config, by_flags = tmp_path / f"config{k}", tmp_path / f"flags{k}"
            assert main(["mh-sim", "--config", str(config), "--out-dir", str(by_config)]) == EXIT_OK
            flags = [f"--{key}={value}" for key, value in run.items()]
            assert main(["mh-sim", *flags, "--out-dir", str(by_flags)]) == EXIT_OK
            for name in ("accepted.tsv", "free.tsv", "summary.tsv"):
                assert (by_config / name).read_bytes() == (by_flags / name).read_bytes()
            manifests = [json.loads((d / "manifest.json").read_text()) for d in (by_config, by_flags)]
            assert manifests[0]["parameters"] == manifests[1]["parameters"]

    @pytest.mark.parametrize(
        "line", ["bogus-key = 3", "n-user = 100000", "out-dir = x", "config = y"]
    )
    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys, line):
        config = tmp_path / "sim.cfg"
        config.write_text(f"source = zipf\nn-ranks = 100\n{line}\n")
        code = main(["mh-sim", "--config", str(config), "--out-dir", str(tmp_path / "sim")])
        assert code == EXIT_USAGE
        assert repr(line.split(" =")[0]) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config_text, code", [("source = zipf\nbogus-key = 3\n", EXIT_USAGE), (None, EXIT_INPUT)]
    )
    def test_bad_config_leaves_no_manifest(self, tmp_path, config_text, code):
        out = tmp_path / "sim"
        argv = ["mh-sim", "--n-users", "50", "--n-ranks", "20", "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        assert (out / "manifest.json").exists()
        config = tmp_path / "sim.cfg"
        if config_text is not None:
            config.write_text(config_text)
        assert main([*argv, "--config", str(config)]) == code
        assert not (out / "manifest.json").exists()

    def test_config_that_does_not_decode_is_input_error(self, tmp_path, capsys):
        config = tmp_path / "sim.cfg"
        config.write_bytes(b"# caf\xe9\nsource = zipf\nn-ranks = 20\nn-users = 50\n")
        code = main(["mh-sim", "--config", str(config), "--out-dir", str(tmp_path / "sim")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "pwdist-error\tinput\t" in err and str(config) in err

    @pytest.mark.parametrize("via_config", [False, True])
    def test_table_with_zipf_source_is_usage_error(self, tmp_path, capsys, via_config):
        out = tmp_path / "sim"
        argv = ["mh-sim", "--n-users", "50", "--n-ranks", "20", "--out-dir", str(out)]
        if via_config:
            config = tmp_path / "sim.cfg"
            config.write_text("source = zipf\ntable = /nonexistent.tsv\n")
            argv += ["--config", str(config)]
        else:
            argv += ["--table", "/nonexistent.tsv"]
        assert main(argv) == EXIT_USAGE
        assert "pwdist-error\tusage\ttable" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "flags, config_line, option",
        [(["--s", "3"], None, "s"), (["--n-ranks", "5"], None, "n-ranks"), ([], "s = 3", "s"),
         ([], "n-ranks = 5", "n-ranks")],
        ids=["flag-s", "flag-n-ranks", "config-s", "config-n-ranks"],
    )
    def test_zipf_shape_with_table_source_is_usage_error(
        self, tmp_path, corpus, capsys, flags, config_line, option
    ):
        table = ingest_table(tmp_path, corpus)
        out = tmp_path / "sim"
        argv = ["mh-sim", "--source", "table", "--table", str(table), "--n-users", "50", *flags,
                "--out-dir", str(out)]
        if config_line is not None:
            config = tmp_path / "sim.cfg"
            config.write_text(config_line + "\n")
            argv += ["--config", str(config)]
        assert main(argv) == EXIT_USAGE
        assert f"pwdist-error\tusage\t{option} " in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_zipf_source_defaults_recorded(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["mh-sim", "--n-users", "50", "--out-dir", str(out)]) == EXIT_OK
        parameters = json.loads((out / "manifest.json").read_text())["parameters"]
        assert (parameters["s"], parameters["n_ranks"]) == (0.78, 100000)

    @pytest.mark.parametrize(
        "flags, config_line, option",
        [(["--width", "7"], None, "width"), (["--depth", "9"], None, "depth"),
         ([], "width = 7", "width"), ([], "w = 7", "width"), ([], "d = 9", "depth")],
        ids=["flag-width", "flag-depth", "config-width", "config-w", "config-d"],
    )
    def test_sketch_shape_with_exact_backend_is_usage_error(
        self, tmp_path, capsys, flags, config_line, option
    ):
        out = tmp_path / "sim"
        argv = ["mh-sim", "--n-users", "50", "--n-ranks", "20", "--backend", "exact", *flags,
                "--out-dir", str(out)]
        if config_line is not None:
            config = tmp_path / "sim.cfg"
            config.write_text(config_line + "\n")
            argv += ["--config", str(config)]
        assert main(argv) == EXIT_USAGE
        assert f"pwdist-error\tusage\t{option} " in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_sketch_defaults_recorded_for_count_min_only(self, tmp_path):
        parameters = {}
        for backend in ("count-min", "exact"):
            out = tmp_path / backend
            argv = ["mh-sim", "--n-users", "50", "--n-ranks", "20", "--backend", backend]
            assert main([*argv, "--out-dir", str(out)]) == EXIT_OK
            parameters[backend] = json.loads((out / "manifest.json").read_text())["parameters"]
        sketch = (parameters["count-min"]["width"], parameters["count-min"]["depth"])
        assert sketch == (1 << 18, 4)
        assert not {"width", "depth"} & set(parameters["exact"])

    def test_config_aliases_accepted(self, tmp_path):
        ban = tmp_path / "banned.txt"
        ban.write_bytes(b"p00000001\n")
        config = tmp_path / "sim.cfg"
        config.write_text(
            "source = zipf\nn-ranks = 100\nn-users = 200\nbackend = count-min\n"
            f"w = 64\nd = 2\nban-list = {ban}\n"
        )
        out = tmp_path / "sim"
        assert main(["mh-sim", "--config", str(config), "--out-dir", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["parameters"]["width"], manifest["parameters"]["depth"]) == (64, 2)
        assert "banned.txt" in manifest["inputs"]

    def test_manifest_counters(self, tmp_path):
        args = ["mh-sim", "--source", "zipf", "--s", "0.9", "--n-ranks", "300", "--n-users", "2000"]
        manifests = {}
        for backend, run in (("count-min", "a"), ("count-min", "b"), ("exact", "c")):
            out = tmp_path / run
            sketch = ["--backend", backend]
            if backend == "count-min":
                sketch += ["--width", "512", "--depth", "3"]
            assert main(args + sketch + ["--out-dir", str(out)]) == EXIT_OK
            manifests[run] = json.loads((out / "manifest.json").read_text())
        counters = manifests["a"]["counters"]
        assert counters == manifests["b"]["counters"]
        summary = (tmp_path / "a" / "summary.tsv").read_text().splitlines()[1].split("\t")
        assert counters["rejected"] == int(summary[2])
        assert counters["asks"] == 2000 + counters["rejected"]
        assert counters["sketch_error_bound"] == math.e * counters["asks"] / 512
        # one row hash per depth for each distinct proposed rank, at most 300 of them
        assert counters["hash_evaluations"] % 3 == 0
        assert 0 < counters["hash_evaluations"] <= 3 * 300
        exact = manifests["c"]["counters"]
        assert exact["hash_evaluations"] == 0
        assert "sketch_error_bound" not in exact
