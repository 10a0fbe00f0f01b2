"""Entry-at-a-time reference implementations of the hashed-corpus layer.

``pwdist.crack`` holds a hashed corpus as columns and draws every salt in
one bulk read of the generator. These are the straightforward versions it
must match exactly: one ``randrange`` and one ``HashedEntry`` per user,
and a cracking loop over per-salt dict buckets, with the scheme's scalar
``hash`` for every pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from pwdist.crack import HashedCorpus, HashScheme, generate_salts

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class HashedEntry:
    user: bytes
    salt: bytes
    digest: bytes


def hash_corpus(
    credentials: Sequence[tuple[bytes, bytes]], scheme: HashScheme, salt_seed: int, salt_count: int
) -> list[HashedEntry]:
    """One salt per ``(user, password)`` pair, drawn in order, and one entry each."""
    salts = generate_salts(scheme, salt_seed, salt_count)
    rng = random.Random((salt_seed ^ 0x5A17) & _MASK64)
    entries = []
    for user, password in credentials:
        salt = salts[rng.randrange(salt_count)]
        entries.append(HashedEntry(user, salt, scheme.hash(salt, scheme.truncate(password))))
    return entries


def entries_of(corpus: HashedCorpus) -> list[HashedEntry]:
    """The rows of a columnar corpus as entries."""
    return [
        HashedEntry(user, corpus.salts[j], digest.to_bytes(8, "big"))
        for user, j, digest in zip(corpus.users, corpus.salt_index.tolist(), corpus.digests.tolist())
    ]


def crack(
    entries: Sequence[HashedEntry], guesses: Sequence[bytes], scheme: HashScheme
) -> tuple[list[int], list[tuple[bytes, bytes]]]:
    """Users cracked by each guess, and the ``(user, truncated guess)`` rows in order.

    Salts are tried in the order their first entry appears and users in
    entry order; a truncated guess already tried cracks nobody.
    """
    buckets: dict[bytes, dict[bytes, list[bytes]]] = {}
    for e in entries:
        buckets.setdefault(e.salt, {}).setdefault(e.digest, []).append(e.user)
    tried: set[bytes] = set()
    increments = []
    cracked = []
    for guess in guesses:
        truncated = scheme.truncate(guess)
        hits = 0
        if truncated not in tried:
            tried.add(truncated)
            for salt, bucket in buckets.items():
                users = bucket.pop(scheme.hash(salt, truncated), None)
                if users:
                    hits += len(users)
                    cracked.extend((user, truncated) for user in users)
        increments.append(hits)
    return increments, cracked
