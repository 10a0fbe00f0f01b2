"""Entry-at-a-time reference implementations of the hashed-corpus layer.

``pwdist.crack`` holds a hashed corpus as columns, draws every salt in
one bulk read of the generator, resolves a block of hits in numpy and
lays out and reads a block of rows at a time. These are the
straightforward versions it must match exactly: one ``randrange`` and one
``HashedEntry`` per user, a cracking loop over per-salt dict buckets with
the scalar ``_trunc8_mix64`` for every pair, writers that format and
escape one row at a time, and a reader that splits, unescapes and
``bytes.fromhex``-decodes one row at a time.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from pwdist.column import PasswordColumn
from pwdist.crack import HASHES_HEADER, CrackedRows, CrackReport, HashedCorpus, generate_salts
from pwdist.tsvio import CorpusError, escape_field, unescape_field

_MASK64 = (1 << 64) - 1


def _avalanche64(z: int) -> int:
    # splitmix64 finaliser constants
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _trunc8_mix64(salt: bytes, password: bytes) -> bytes:
    """``trunc8-mix64`` of one pair: 64-bit FNV-1a over the salt, then the
    password's first 8 bytes, finished by the splitmix64 avalanche, big-endian."""
    h = 0xCBF29CE484222325
    for b in salt + password[:8]:
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return _avalanche64(h).to_bytes(8, "big")


def pairs(cracked: CrackedRows) -> list[tuple[bytes, bytes]]:
    """The ``(user, truncated guess)`` rows of ``cracked``, in order."""
    return list(zip(cracked.users, cracked.guesses))


def columns(corpus: HashedCorpus) -> tuple[list[bytes], list[bytes], list[int], list[int]]:
    """The users, salts, salt index and digests of ``corpus`` as lists, to compare two corpora."""
    return list(corpus.users), corpus.salts, corpus.salt_index.tolist(), corpus.digests.tolist()


@dataclass(frozen=True)
class HashedEntry:
    user: bytes
    salt: bytes
    digest: bytes


def hash_corpus(
    credentials: Sequence[tuple[bytes, bytes]], salt_seed: int, salt_count: int
) -> list[HashedEntry]:
    """One salt per ``(user, password)`` pair, drawn in order, and one entry each."""
    salts = generate_salts(salt_seed, salt_count)
    rng = random.Random((salt_seed ^ 0x5A17) & _MASK64)
    entries = []
    for user, password in credentials:
        salt = salts[rng.randrange(salt_count)]
        entries.append(HashedEntry(user, salt, _trunc8_mix64(salt, password)))
    return entries


def entries_of(corpus: HashedCorpus) -> list[HashedEntry]:
    """The rows of a columnar corpus as entries."""
    return [
        HashedEntry(user, corpus.salts[j], digest.to_bytes(8, "big"))
        for user, j, digest in zip(corpus.users, corpus.salt_index.tolist(), corpus.digests.tolist())
    ]


def crack(
    entries: Sequence[HashedEntry], guesses: Sequence[bytes]
) -> tuple[list[int], list[tuple[bytes, bytes]]]:
    """Users cracked by each guess, and the ``(user, truncated guess)`` rows in order.

    Guesses are cut to their first 8 bytes. Salts are tried in the order
    their first entry appears and users in entry order; a truncated guess
    already tried cracks nobody.
    """
    buckets: dict[bytes, dict[bytes, list[bytes]]] = {}
    for e in entries:
        buckets.setdefault(e.salt, {}).setdefault(e.digest, []).append(e.user)
    tried: set[bytes] = set()
    increments = []
    cracked = []
    for guess in guesses:
        truncated = guess[:8]
        hits = 0
        if truncated not in tried:
            tried.add(truncated)
            for salt, bucket in buckets.items():
                users = bucket.pop(_trunc8_mix64(salt, truncated), None)
                if users:
                    hits += len(users)
                    cracked.extend((user, truncated) for user in users)
        increments.append(hits)
    return increments, cracked


def write_hashes_tsv(corpus: HashedCorpus, path) -> None:
    """``user<TAB>salt-hex<TAB>digest-hex`` rows, ``%``-formatted one row at a time."""
    salt_hex = [salt.hex().encode() for salt in corpus.salts]
    rows = zip(map(escape_field, corpus.users), map(salt_hex.__getitem__, corpus.salt_index.tolist()),
               corpus.digests.tolist())
    with open(path, "wb") as fh:
        fh.write(HASHES_HEADER + b"\n")
        fh.write(b"".join([b"%s\t%s\t%016x\n" % row for row in rows]))


def write_cracked_tsv(report: CrackReport, path) -> None:
    """``user<TAB>password`` rows, escaped one field at a time."""
    with open(path, "wb") as fh:
        fh.write(b"user\tpassword\n")
        fh.write(b"".join([b"%s\t%s\n" % (escape_field(u), escape_field(p)) for u, p in pairs(report.cracked)]))


_HEX = re.compile(rb"[0-9a-fA-F]*")


def _hashes_row(line: bytes) -> tuple[bytes, bytes, bytes]:
    """The user, salt and digest of one ``hashes.tsv`` row.

    Hex fields must be hex digits only: ``bytes.fromhex`` alone would also
    skip whitespace between digits.
    """
    parts = line.split(b"\t")
    if len(parts) != 3:
        raise CorpusError(f"malformed hashes row: {line!r}")
    user, salt_hex, digest_hex = parts
    if not (_HEX.fullmatch(salt_hex) and _HEX.fullmatch(digest_hex)):
        raise CorpusError(f"malformed hashes row {line!r}: a hex field holds a byte that is not a hex digit")
    try:
        row = unescape_field(user), bytes.fromhex(salt_hex.decode()), bytes.fromhex(digest_hex.decode())
    except ValueError as exc:
        raise CorpusError(f"malformed hashes row {line!r}: {exc}") from exc
    if len(row[2]) != 8:
        raise CorpusError(f"malformed hashes row {line!r}: digest is not 8 bytes")
    return row


def read_hashes(path) -> HashedCorpus:
    """``hashes.tsv`` read one row at a time.

    Each line loses its LF and one trailing CR, blank lines are skipped,
    and salts are numbered by first use.
    """
    users: list[bytes] = []
    salt_ids: dict[bytes, int] = {}
    salt_index: list[int] = []
    digests: list[bytes] = []
    with open(path, "rb") as fh:
        if fh.readline().rstrip(b"\r\n") != HASHES_HEADER:
            raise CorpusError(f"not a hashed-corpus file: {path}")
        lines = fh.read().split(b"\n")
    for line in lines:
        line = line[:-1] if line.endswith(b"\r") else line
        if line:
            user, salt, digest = _hashes_row(line)
            users.append(user)
            salt_index.append(salt_ids.setdefault(salt, len(salt_ids)))
            digests.append(digest)
    return HashedCorpus(
        users=PasswordColumn(users),
        salts=list(salt_ids),
        salt_index=np.array(salt_index, dtype=np.int64),
        digests=np.frombuffer(b"".join(digests), dtype=">u8").astype(np.uint64),
    )
