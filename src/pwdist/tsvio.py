"""Binary TSV helpers.

Passwords are arbitrary byte strings, so table files are written in binary
mode and the few bytes that would break a tab-separated, newline-delimited
layout are backslash-escaped.
"""

from __future__ import annotations

import re

_UNESCAPES = {b"\\": b"\\", b"t": b"\t", b"n": b"\n", b"r": b"\r"}
# A backslash and the byte after it, or the end of the field for a dangling one.
_ESCAPE = re.compile(rb"\\(.?)", re.DOTALL)


def escape_field(raw: bytes) -> bytes:
    """Escape backslash, TAB, LF and CR so ``raw`` survives a TSV cell.

    Backslash goes first, so the escapes added after it stay single.
    """
    return (
        raw.replace(b"\\", b"\\\\")
        .replace(b"\t", b"\\t")
        .replace(b"\n", b"\\n")
        .replace(b"\r", b"\\r")
    )


def unescape_field(raw: bytes) -> bytes:
    """Inverse of :func:`escape_field`; the first bad escape raises ``ValueError``."""
    if b"\\" not in raw:
        return raw
    try:
        return _ESCAPE.sub(lambda m: _UNESCAPES[m[1]], raw)
    except KeyError as exc:
        follower = exc.args[0]
        if not follower:
            raise ValueError("dangling backslash escape in TSV field") from None
        raise ValueError(f"unknown TSV escape: \\{chr(follower[0])}") from None
