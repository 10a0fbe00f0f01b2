"""The canonical form that output digests are taken in.

    python -m pytest bench/test_outputs.py
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from outputs import canonical_cracked  # noqa: E402

HEADER = b"user\tpassword"


def cracked(*rows: bytes) -> bytes:
    return b"\n".join([HEADER, *rows, b""])


def test_order_within_a_guess_is_ignored():
    a = cracked(b"u2\tpw1", b"u1\tpw1", b"u3\tpw2")
    b = cracked(b"u1\tpw1", b"u2\tpw1", b"u3\tpw2")
    assert canonical_cracked(a) == canonical_cracked(b) == b


def test_guess_order_and_content_are_kept():
    base = cracked(b"u1\tpw1", b"u3\tpw2")
    assert canonical_cracked(cracked(b"u3\tpw2", b"u1\tpw1")) != canonical_cracked(base)
    assert canonical_cracked(cracked(b"u1\tpw1", b"u4\tpw2")) != canonical_cracked(base)
    assert canonical_cracked(cracked()) == cracked()
