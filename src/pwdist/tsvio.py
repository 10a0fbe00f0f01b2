"""Binary TSV helpers.

Passwords are arbitrary byte strings, so table files are written in binary
mode and the few bytes that would break a tab-separated, newline-delimited
layout are backslash-escaped.
"""

from __future__ import annotations

_UNESCAPES = {0x5C: b"\\", 0x74: b"\t", 0x6E: b"\n", 0x72: b"\r"}


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
    """Inverse of :func:`escape_field`."""
    if b"\\" not in raw:
        return raw
    out = bytearray()
    i = 0
    while i < len(raw):
        b = raw[i]
        if b != 0x5C:
            out.append(b)
            i += 1
            continue
        if i + 1 >= len(raw):
            raise ValueError("dangling backslash escape in TSV field")
        rep = _UNESCAPES.get(raw[i + 1])
        if rep is None:
            raise ValueError(f"unknown TSV escape: \\{chr(raw[i + 1])}")
        out += rep
        i += 2
    return bytes(out)
