"""Golden SHA-256 digests of ``ingest``, ``curve``, ``mh-sim`` and ``crack`` outputs.

The benchmark checks ``mh-sim`` only by invariants, so these digests are
what pins its bytes: every draw of the seeded session stream, the sketch
layout and the table tie-breaks. The ``ingest`` and ``curve`` cases pin
the table codec (escapes, CRLF rows, high bytes) and the cross-corpus
join and curve layout. The inputs are built here from SHA-256 of the line
number, so they do not depend on any random generator.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from pwdist.cli import EXIT_OK, main


def _unit(tag: bytes, i: int) -> float:
    """A fixed number in [0, 1) for line ``i``."""
    return int.from_bytes(hashlib.sha256(tag + b"%d" % i).digest()[:7], "big") / 2.0**56


def _zipf_like(tag: bytes, i: int, n: int) -> int:
    """A heavy-headed index in [0, n): small indices far more often."""
    return int(n ** _unit(tag, i)) - 1


def _password(k: int) -> bytes:
    # every third password is longer than the 8 bytes the hash keeps
    return b"password%05d" % k if k % 3 == 0 else b"pw%d" % k


def _awkward(k: int) -> bytes:
    """``_password(k)``, or for some k a variant holding bytes the table escapes."""
    pw = _password(k)
    if k % 7 == 1:
        return pw + b"\t\\"
    if k % 11 == 2:
        return b"\xff\x00" + pw + b"\xe9"
    if k % 13 == 3:
        return pw + b"\\"
    return pw


def _awkward_user(k: int) -> bytes:
    """User ``k``'s name; some hold a backslash, an inner CR, NUL or high bytes."""
    if k % 5 == 1:
        return b"back\\slash%d" % k
    if k % 7 == 2:
        return b"in\rner%d" % k
    if k % 11 == 3:
        return b"nul\x00%d" % k
    if k % 13 == 4:
        return b"\xff\xfehigh%d\\" % k
    return b"user%d" % k


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    corpus = root / "corpus.txt"
    corpus.write_bytes(b"".join(_password(_zipf_like(b"c", i, 3000)) + b"\n" for i in range(20000)))
    users = root / "users.tsv"
    names = [b"user%d" % i for i in range(2500)] + [b"\xe9ve", b"back\\slash", b"caf\xc3\xa9"]
    users.write_bytes(
        b"".join(
            names[i % len(names)] + b"\t" + _password(_zipf_like(b"u", i, 2000)) + b"\n"
            for i in range(3000)
        )
    )
    # Tabs, backslashes, NUL and high bytes, some lines ending in CRLF, and blank lines.
    mixed = root / "mixed.txt"
    mixed.write_bytes(
        b"".join(
            _awkward(_zipf_like(b"m", i, 2500)) + (b"\r\n" if i % 5 == 0 else b"\n")
            + (b"\n" if i % 97 == 0 else b"")
            for i in range(15000)
        )
    )
    # Users holding backslashes, inner CRs, NUL and high bytes, with passwords that escape.
    escaped_users = root / "escaped-users.tsv"
    escaped_users.write_bytes(
        b"".join(
            _awkward_user(i % 2400) + b"\t" + _awkward(_zipf_like(b"e", i, 2500))
            + (b"\r\n" if i % 6 == 0 else b"\n")
            for i in range(3000)
        )
    )
    mixed_table = root / "ingest-mixed" / "table.tsv"
    assert main(
        ["ingest", str(mixed), "--seed", "2", "--out-dir", str(mixed_table.parent)]
    ) == EXIT_OK
    bans = root / "bans.txt"
    bans.write_bytes(b"pw1\npassword00003\n")
    table = root / "ingest" / "table.tsv"
    assert main(["ingest", str(corpus), "--seed", "4", "--out-dir", str(table.parent)]) == EXIT_OK
    return {
        "root": root, "table": table, "users": users, "bans": bans, "mixed": mixed,
        "mixed_table": mixed_table, "escaped_users": escaped_users,
    }


def _digests(out_dir) -> dict[str, str]:
    """SHA-256 of each output file, and of the manifest's counters."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()[:16]
        for name in sorted(manifest["outputs"])
    }
    counters = json.dumps(manifest.get("counters", {}), sort_keys=True).encode()
    digests["counters"] = hashlib.sha256(counters).hexdigest()[:16]
    return digests


CASES = {
    "ingest-escapes-crlf": (
        ["ingest", "{mixed}", "--seed", "2"],
        {
            "table.tsv": "1fbaf523b5090c5a",
            "counters": "44136fa355b3678a",
        },
    ),
    "curve-reference-users": (
        ["curve", "--target", "{table}", "--reference", "{mixed_table}"],
        {
            "curve.tsv": "ee0e841e1677325e",
            "counters": "44136fa355b3678a",
        },
    ),
    "curve-reference-distinct": (
        ["curve", "--target", "{mixed_table}", "--reference", "{table}",
         "--metric", "distinct-passwords"],
        {
            "curve.tsv": "e9635e1e692a9fd7",
            "counters": "44136fa355b3678a",
        },
    ),
    "curve-reference-users-log-spaced": (
        ["curve", "--target", "{table}", "--reference", "{mixed_table}", "--log-spaced"],
        {
            "curve.tsv": "e8666769368f7ee4",
            "counters": "44136fa355b3678a",
        },
    ),
    "curve-reference-distinct-log-spaced": (
        ["curve", "--target", "{table}", "--reference", "{mixed_table}",
         "--metric", "distinct-passwords", "--log-spaced"],
        {
            "curve.tsv": "aa22c15e0baa0fdd",
            "counters": "44136fa355b3678a",
        },
    ),
    "curve-truncate-8": (
        ["curve", "--target", "{mixed_table}", "--truncate", "8", "--seed", "3"],
        {
            "curve.tsv": "1b20521f8cb01427",
            "counters": "44136fa355b3678a",
        },
    ),
    "mh-zipf-exact": (
        ["mh-sim", "--n-ranks", "20000", "--n-users", "20000", "--seed", "5"],
        {
            "accepted.tsv": "9e43b22935c9ff8d",
            "free.tsv": "9764e4ab6fdbb8e9",
            "summary.tsv": "e757a5b97a7c0a4d",
            "counters": "562598a2e82594a6",
        },
    ),
    "mh-zipf-count-min": (
        ["mh-sim", "--n-ranks", "30000", "--n-users", "25000", "--backend", "count-min",
         "--width", "4096", "--depth", "3", "--seed", "6"],
        {
            "accepted.tsv": "96c0d5ba44580cf9",
            "free.tsv": "f3773290b078e74d",
            "summary.tsv": "92da50a6734f47be",
            "counters": "fe32ef58a38944ef",
        },
    ),
    # The default 2^18 x 4 sketch, where nearly every rank has a counter of
    # its own in some row.
    "mh-zipf-count-min-default-sketch": (
        ["mh-sim", "--backend", "count-min", "--n-ranks", "30000", "--n-users", "30000",
         "--seed", "9"],
        {
            "accepted.tsv": "5a353fb588f3ecf8",
            "free.tsv": "f9af550f7546a9ff",
            "summary.tsv": "8b1bcd213bf83193",
            "counters": "86ab8922f5bdd091",
        },
    ),
    "mh-table-exact": (
        ["mh-sim", "--source", "table", "--table", "{table}", "--n-users", "8000",
         "--ban-file", "{bans}", "--seed", "7"],
        {
            "accepted.tsv": "a49b2301bf926a78",
            "free.tsv": "3175d9372522b021",
            "summary.tsv": "e9cd642325125701",
            "counters": "e2c977cc2b3762bf",
        },
    ),
    "mh-table-count-min": (
        ["mh-sim", "--source", "table", "--table", "{table}", "--n-users", "8000",
         "--backend", "count-min", "--width", "1024", "--depth", "4", "--seed", "8"],
        {
            "accepted.tsv": "eae5296c92c7f64e",
            "free.tsv": "9e3e9d043c17379d",
            "summary.tsv": "8b3d46f97e8692f3",
            "counters": "97fafffdbe5ceddc",
        },
    ),
    "crack-corpus": (
        ["crack", "--corpus", "{users}", "--format", "user-tab-password", "--salt-count", "16",
         "--ordering", "{table}", "--seed", "3"],
        {
            "cracked.tsv": "7b3f6aa073b1d824",
            "curve_distinct.tsv": "d0aa5729222c0639",
            "curve_users.tsv": "fe08ccfa1114b3d0",
            "hashes.tsv": "9d4e6987d2ea87e9",
            "counters": "e1c47eaf8e5dbc51",
        },
    ),
    "crack-corpus-mixed-ordering": (
        ["crack", "--corpus", "{users}", "--format", "user-tab-password", "--salt-count", "8",
         "--ordering", "{mixed_table}", "--seed", "5"],
        {
            "cracked.tsv": "04863811332730cb",
            "curve_distinct.tsv": "a3588276e9550377",
            "curve_users.tsv": "4c124e816f9a4ab4",
            "hashes.tsv": "878768af9931ee2e",
            "counters": "e1c47eaf8e5dbc51",
        },
    ),
    "crack-corpus-escapes": (
        ["crack", "--corpus", "{escaped_users}", "--format", "user-tab-password",
         "--salt-count", "8", "--ordering", "{mixed_table}", "--seed", "7"],
        {
            "cracked.tsv": "16a4679f762199ce",
            "curve_distinct.tsv": "debf35b5e265543e",
            "curve_users.tsv": "6b054942ff229902",
            "hashes.tsv": "693a0ebc2348e1b6",
            "counters": "e1c47eaf8e5dbc51",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(inputs, case):
    argv, expected = CASES[case]
    out = inputs["root"] / case
    paths = {
        key: str(inputs[key])
        for key in ("table", "users", "bans", "mixed", "mixed_table", "escaped_users")
    }
    argv = [arg.format(**paths) for arg in argv] + ["--out-dir", str(out)]
    assert main(argv) == EXIT_OK
    assert _digests(out) == expected
