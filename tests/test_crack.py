from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwdist import crack as crack_mod
from pwdist.crack import (
    CRYPT_SALT_ALPHABET,
    HashScheme,
    HashedEntry,
    _trunc8_mix64,
    _trunc8_mix64_many,
    builtin_scheme,
    crack,
    generate_salts,
    hash_corpus,
    read_hashes_tsv,
    write_hashes_tsv,
)
from pwdist.crossguess import GuessOrdering, self_curve, truncate_reaggregate
from pwdist.ingest import CorpusError, table_from_counter


# Frozen vectors recomputed by hand from the documented constants:
# FNV-1a(64) over salt bytes then password bytes, then the splitmix64
# finaliser, big-endian.
EMPTY_DIGEST = bytes.fromhex("f52a15e9a9b5e89b")
AB_XY_DIGEST = bytes.fromhex("3f5cac1ec3588869")

SCHEME = builtin_scheme("trunc8-mix64")
# The same scheme without the numpy kernel: hash_many calls hash per pair.
SCALAR_SCHEME = HashScheme(name=SCHEME.name, truncate_len=SCHEME.truncate_len, hash=SCHEME.hash)


class TestBuiltinScheme:
    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            builtin_scheme("md5-crypt")

    def test_frozen_vectors(self):
        assert SCHEME.hash(b"", b"") == EMPTY_DIGEST
        assert SCHEME.hash(b"ab", b"xy") == AB_XY_DIGEST

    def test_deterministic(self):
        assert SCHEME.hash(b"s1", b"secret") == SCHEME.hash(b"s1", b"secret")

    def test_truncates_to_eight_bytes(self):
        assert SCHEME.hash(b"s", b"password1") == SCHEME.hash(b"s", b"password2")
        assert SCHEME.hash(b"s", b"short") != SCHEME.hash(b"s", b"short2")

    def test_salt_changes_digest(self):
        assert SCHEME.hash(b"aa", b"pw") != SCHEME.hash(b"ab", b"pw")

    def test_batch_kernel_frozen_vectors(self):
        digests = SCHEME.hash_many([b"", b"ab"], [b"", b"xy"])
        assert digests.shape == (2, 2) and digests.dtype == np.uint64
        assert int(digests[0, 0]).to_bytes(8, "big") == EMPTY_DIGEST
        assert int(digests[1, 1]).to_bytes(8, "big") == AB_XY_DIGEST

    @settings(max_examples=200, deadline=None)
    @given(
        salts=st.lists(st.binary(max_size=4), min_size=1, max_size=5),
        passwords=st.lists(st.binary(max_size=16), max_size=12),
    )
    def test_batch_kernel_equals_scalar_reference(self, salts, passwords):
        digests = _trunc8_mix64_many(salts, passwords)
        assert digests.shape == (len(passwords), len(salts))
        for i, pw in enumerate(passwords):
            for j, salt in enumerate(salts):
                assert int(digests[i, j]).to_bytes(8, "big") == _trunc8_mix64(salt, pw)

    def test_default_hash_many_loops_over_scalar_hash(self):
        salts, passwords = [b"s1", b"s2", b"s3"], [b"a", b"longer than eight", b""]
        assert np.array_equal(
            SCALAR_SCHEME.hash_many(salts, passwords), SCHEME.hash_many(salts, passwords)
        )
        assert SCALAR_SCHEME.hash_many(salts, []).shape == (0, 3)


class TestHashCorpus:
    def test_empty(self):
        assert hash_corpus([], SCHEME, salt_seed=1, salt_count=4) == []

    def test_single_salt_shared(self):
        credentials = [("u%d" % i, b"pw%d" % i) for i in range(10)]
        entries = hash_corpus(credentials, SCHEME, salt_seed=3, salt_count=1)
        assert len({e.salt for e in entries}) == 1

    def test_salts_come_from_generated_set(self):
        credentials = [("u%d" % i, b"pw%d" % (i % 37)) for i in range(1000)]
        entries = hash_corpus(credentials, SCHEME, salt_seed=17, salt_count=50)
        salt_set = set(generate_salts(SCHEME, 17, 50))
        assert len(salt_set) == 50
        assert {e.salt for e in entries} <= salt_set
        assert all(len(s) == SCHEME.salt_len for s in salt_set)
        assert all(b in CRYPT_SALT_ALPHABET for s in salt_set for b in s)

    def test_salt_count_validated(self):
        with pytest.raises(ValueError):
            generate_salts(SCHEME, 0, 0)
        with pytest.raises(ValueError):
            generate_salts(SCHEME, 0, 64**2 + 1)

    def test_deterministic(self):
        credentials = [("u%d" % i, b"pw%d" % i) for i in range(30)]
        a = hash_corpus(credentials, SCHEME, salt_seed=9, salt_count=8)
        b = hash_corpus(credentials, SCHEME, salt_seed=9, salt_count=8)
        assert a == b


class TestCrack:
    def test_hand_trace(self):
        credentials = [("u1", b"x"), ("u2", b"x"), ("u3", b"y")]
        entries = hash_corpus(credentials, SCHEME, salt_seed=0, salt_count=2)
        report = crack(entries, GuessOrdering(guesses=[b"x"]), SCHEME)
        assert report.curve_users.cumulative_at(1) == 2
        assert sorted(u for u, _ in report.cracked) == ["u1", "u2"]
        assert report.uncracked_count == 1

    def test_empty_ordering(self):
        credentials = [("u1", b"x")]
        entries = hash_corpus(credentials, SCHEME, salt_seed=0, salt_count=1)
        report = crack(entries, GuessOrdering(guesses=[]), SCHEME)
        assert report.cracked == []
        assert report.uncracked_count == 1

    def test_exhaustive_ordering_cracks_everyone(self):
        credentials = [("u%d" % i, b"pw%d" % (i % 5)) for i in range(20)]
        entries = hash_corpus(credentials, SCHEME, salt_seed=1, salt_count=4)
        ordering = GuessOrdering(guesses=[b"pw%d" % i for i in range(5)])
        report = crack(entries, ordering, SCHEME)
        assert report.uncracked_count == 0
        assert report.curve_users.final_cumulative == 20
        assert report.curve_distinct.denominator == 5

    def test_guess_colliding_after_truncation_adds_nothing(self):
        credentials = [("u1", b"longpassword")]
        entries = hash_corpus(credentials, SCHEME, salt_seed=2, salt_count=1)
        ordering = GuessOrdering(guesses=[b"longpassword", b"longpassXXX"])
        report = crack(entries, ordering, SCHEME)
        assert report.curve_users.cumulative_at(1) == 1
        assert report.curve_users.cumulative_at(2) == 1
        assert report.cracked == [("u1", b"longpass")]

    def test_distinct_denominator_upper_bounds_unseen(self):
        credentials = [("u1", b"hit"), ("u2", b"miss1"), ("u3", b"miss2")]
        entries = hash_corpus(credentials, SCHEME, salt_seed=5, salt_count=2)
        report = crack(entries, GuessOrdering(guesses=[b"hit"]), SCHEME)
        # one recovered plus two uncracked assumed unique
        assert report.curve_distinct.denominator == 3

    def test_recovery_matches_self_curve_of_truncated_table(self):
        rng = np.random.default_rng(31)
        pool = [b"verylongpassword%02d" % i for i in range(12)] + [b"pw%02d" % i for i in range(30)]
        credentials = [("u%d" % i, pool[int(rng.integers(0, len(pool)))]) for i in range(400)]
        table = table_from_counter(Counter(pw for _, pw in credentials), tie_break_seed=8)
        truncated = truncate_reaggregate(table, 8, tie_break_seed=8)
        assert truncated.distinct_count < table.distinct_count  # truncation really merges
        entries = hash_corpus(credentials, SCHEME, salt_seed=8, salt_count=16)
        report = crack(entries, GuessOrdering.from_table(truncated), SCHEME)
        own = self_curve(truncated, "users")
        assert report.curve_users == own

    def test_each_salt_guess_pair_hashed_at_most_once(self):
        calls = []
        counting = SCHEME.__class__(
            name=SCHEME.name,
            truncate_len=SCHEME.truncate_len,
            hash=lambda salt, pw: calls.append((salt, pw)) or SCHEME.hash(salt, pw),
            salt_len=SCHEME.salt_len,
            salt_alphabet=SCHEME.salt_alphabet,
        )
        credentials = [("u%d" % i, b"pw%d" % (i % 3)) for i in range(9)]
        entries = hash_corpus(credentials, SCHEME, salt_seed=4, salt_count=3)
        ordering = GuessOrdering(guesses=[b"pw0", b"pw1", b"pw0XXXXXXXX", b"pw2"])
        crack(entries, ordering, counting)
        assert len(calls) == len(set(calls))

    def test_block_size_does_not_change_report(self, monkeypatch):
        rng = np.random.default_rng(5)
        pool = [b"pw%02d" % i for i in range(40)] + [b"longpassword%02d" % i for i in range(5)]
        credentials = [("u%d" % i, pool[int(rng.integers(0, len(pool)))]) for i in range(300)]
        entries = hash_corpus(credentials, SCHEME, salt_seed=6, salt_count=12)
        ordering = GuessOrdering(guesses=[p for p in pool if p != b"pw07"] + [b"pw07"])
        whole = crack(entries, ordering, SCHEME)
        monkeypatch.setattr(crack_mod, "GUESS_BLOCK", 4)
        blocked = crack(entries, ordering, SCHEME)
        assert blocked == whole
        assert whole.uncracked_count == 0

    def test_rows_within_a_guess_follow_first_seen_salt_order(self):
        credentials = [("u%d" % i, b"same") for i in range(40)]
        entries = hash_corpus(credentials, SCHEME, salt_seed=2, salt_count=16)
        report = crack(entries, GuessOrdering(guesses=[b"same"]), SCHEME)
        salt_of = {e.user: e.salt for e in entries}
        first_seen = list(dict.fromkeys(e.salt for e in entries))
        order = [first_seen.index(salt_of[u]) for u, _ in report.cracked]
        assert order == sorted(order) and len(set(order)) == len(first_seen) > 1


class TestCrackBatchKernelProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        passwords=st.lists(st.sampled_from([b"a", b"b", b"abcdefgh1", b"abcdefgh2", b"\x80\xff", b""]),
                           max_size=25),
        guesses=st.lists(st.binary(max_size=10) | st.sampled_from([b"a", b"abcdefgh", b""]),
                         max_size=15, unique=True),
        salt_count=st.integers(1, 6),
        salt_seed=st.integers(0, 1000),
    )
    def test_default_hash_many_gives_same_report(self, passwords, guesses, salt_count, salt_seed):
        credentials = [("u%d" % i, pw) for i, pw in enumerate(passwords)]
        entries = hash_corpus(credentials, SCHEME, salt_seed=salt_seed, salt_count=salt_count)
        assert hash_corpus(credentials, SCALAR_SCHEME, salt_seed, salt_count) == entries
        ordering = GuessOrdering(guesses=guesses)
        assert crack(entries, ordering, SCALAR_SCHEME) == crack(entries, ordering, SCHEME)


class TestHashesTsv:
    def test_round_trip(self, tmp_path):
        credentials = [("user\twith\ttabs", b"pw1"), ("plain", b"pw2")]
        entries = hash_corpus(credentials, SCHEME, salt_seed=11, salt_count=2)
        path = tmp_path / "hashes.tsv"
        write_hashes_tsv(entries, path)
        assert read_hashes_tsv(path) == entries

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"wrong\theader\there\n")
        with pytest.raises(CorpusError):
            read_hashes_tsv(path)

    @pytest.mark.parametrize(
        "row",
        [
            b"alice\t2e2e\tabcd",  # a 2-byte digest
            b"alice\t2e2e\t00112233445566778899",  # a 10-byte digest
            b"alice\t2e2e",  # a missing field
            b"alice\tzz\t0011223344556677",  # salt not hex
            b"al\\qice\t2e2e\t0011223344556677",  # bad escape
        ],
    )
    def test_bad_row_is_corpus_error(self, tmp_path, row):
        path = tmp_path / "hashes.tsv"
        path.write_bytes(b"user\tsalt-hex\tdigest-hex\n" + row + b"\n")
        with pytest.raises(CorpusError):
            read_hashes_tsv(path)

    def test_crlf_and_blank_lines_accepted(self, tmp_path):
        entries = hash_corpus([("a", b"pw1"), ("b", b"pw2")], SCHEME, salt_seed=3, salt_count=2)
        path = tmp_path / "hashes.tsv"
        write_hashes_tsv(entries, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n") + b"\r\n")
        assert read_hashes_tsv(path) == entries
