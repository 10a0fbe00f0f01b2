"""Row-at-a-time reference implementations of the table layer.

These are the straightforward loops that the block-wise, columnar code in
``pwdist.ingest``, ``pwdist.tsvio`` and ``pwdist.crossguess`` must match
exactly: the same accepted inputs, the same rejections, the same order and
the same bytes.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right

from pwdist.ingest import TABLE_HEADER, CorpusError
from pwdist.tsvio import unescape_field

_MASK64 = (1 << 64) - 1
_ESCAPES = {0x5C: b"\\\\", 0x09: b"\\t", 0x0A: b"\\n", 0x0D: b"\\r"}


def tie_key(password: bytes, seed: int) -> bytes:
    return hashlib.blake2b(
        password, digest_size=8, key=(seed & _MASK64).to_bytes(8, "big")
    ).digest()


def rank_rows(counts: dict[bytes, int], seed: int = 0, key=tie_key) -> list[tuple[bytes, int]]:
    """(password, count) rows sorted by (-count, tie key, password)."""
    return sorted(counts.items(), key=lambda kv: (-kv[1], key(kv[0], seed), kv[0]))


def escape_field(raw: bytes) -> bytes:
    out = bytearray()
    for b in raw:
        esc = _ESCAPES.get(b)
        if esc is None:
            out.append(b)
        else:
            out += esc
    return bytes(out)


def write_table(rows: list[tuple[bytes, int]], path) -> None:
    with open(path, "wb") as fh:
        fh.write(TABLE_HEADER + b"\n")
        for rank, (pw, count) in enumerate(rows, start=1):
            fh.write(b"%d\t%d\t%s\n" % (rank, count, escape_field(pw)))


def read_table(path) -> list[tuple[bytes, int]]:
    """Parse and validate a table file row by row; raises CorpusError."""
    entries: list[tuple[bytes, int]] = []
    with open(path, "rb") as fh:
        header = fh.readline().rstrip(b"\r\n")
        if header != TABLE_HEADER:
            raise CorpusError(f"not a rank-frequency table file: {path}")
        for raw in fh:
            line = raw.rstrip(b"\n")
            if line.endswith(b"\r"):
                line = line[:-1]
            if not line:
                continue
            parts = line.split(b"\t", 2)
            if len(parts) != 3:
                raise CorpusError(f"malformed table row: {line!r}")
            rank, count, pw = parts
            try:
                if int(rank) != len(entries) + 1:
                    raise CorpusError(f"table ranks are not consecutive at row {rank!r}")
                entries.append((unescape_field(pw), int(count)))
            except ValueError as exc:
                raise CorpusError(f"malformed table row {line!r}: {exc}") from exc
    if not entries:
        raise CorpusError("rank-frequency table is empty")
    prev = None
    seen: set[bytes] = set()
    for pw, count in entries:
        if count < 1:
            raise CorpusError("table contains a non-positive count")
        if prev is not None and count > prev:
            raise CorpusError("table counts increase with rank")
        if pw in seen:
            raise CorpusError("table contains a duplicate password")
        seen.add(pw)
        prev = count
    return entries


def write_curve(points: list[tuple[int, int]], denom: int, path, ts) -> None:
    """Curve rows at each t of ``ts``, looking up each one with a keyed bisect."""
    with open(path, "w", newline="\n") as fh:
        fh.write("t\tcumulative\tfraction\n")
        for t in ts:
            i = bisect_right(points, t, key=lambda p: p[0]) if t >= 1 else 0
            cum = points[i - 1][1] if i else 0
            frac = cum / denom if denom else 0.0
            fh.write(f"{t}\t{cum}\t{frac:.8g}\n")
