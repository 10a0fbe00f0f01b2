"""Entry-at-a-time reference implementations of the hashed-corpus layer.

``pwdist.crack`` holds a hashed corpus as columns, draws every salt in
one bulk read of the generator, resolves a block of hits in numpy and
lays out a block of output rows at a time. These are the straightforward
versions it must match exactly: one ``randrange`` and one ``HashedEntry``
per user, a cracking loop over per-salt dict buckets with the scalar
``_trunc8_mix64`` for every pair, and writers that format and escape
one row at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from pwdist.crack import HASHES_HEADER, CrackReport, HashedCorpus, _trunc8_mix64, generate_salts
from pwdist.tsvio import escape_field

_MASK64 = (1 << 64) - 1


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
        fh.write(b"".join([b"%s\t%s\n" % (escape_field(u), escape_field(p)) for u, p in report.cracked]))
