"""Digests of a stage's output files, with the one order the program leaves open fixed.

``crack`` writes the users that one guess cracks in the order it visits the
live salts. It visits them by iterating a ``set`` of salt bytes, whose order
follows the per-process hash seed (``PYTHONHASHSEED``), so two runs with the
same inputs and seed write the rows of one guess in different orders, and
the crack stage's ``manifest.json`` records the differing digest. The rest
of those files is determined: which users each guess cracks, with which
password, and the order of the guesses.

``digest`` hashes a canonical form: the rows of each guess's block of
``cracked.tsv`` are sorted, the blocks keep their order, and the manifest
records the canonical digest of ``cracked.tsv``. Every other file is hashed
as written. A record made this way also holds once the program fixes the
order. ``raw_digest`` hashes the bytes as written, so that the benchmark can
still report the difference between runs as the known defect.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

CRACKED = "cracked.tsv"
MANIFEST = "manifest.json"


def raw_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def canonical_cracked(data: bytes) -> bytes:
    """``cracked.tsv`` with each block of rows sharing a password sorted."""
    lines = data.split(b"\n")
    rows, tail = lines[1:-1], lines[-1]
    out = [lines[0]]
    block: list[bytes] = []
    for row in rows:
        if block and row.rpartition(b"\t")[2] != block[0].rpartition(b"\t")[2]:
            out += sorted(block)
            block = []
        block.append(row)
    out += sorted(block)
    return b"\n".join([*out, tail])


def digest(path: Path) -> str:
    if path.name == CRACKED:
        return hashlib.sha256(canonical_cracked(path.read_bytes())).hexdigest()
    if path.name == MANIFEST and (path.parent / CRACKED).exists():
        manifest = json.loads(path.read_text())
        if CRACKED in manifest.get("outputs", {}):
            manifest["outputs"][CRACKED] = digest(path.parent / CRACKED)
        return hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()
    return raw_digest(path)
