from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import random

from pwdist import crack as crack_mod, tsvio
from pwdist.crack import (
    CRYPT_SALT_ALPHABET,
    HASHES_HEADER,
    SALT_LEN,
    HashedCorpus,
    _trunc8_mix64_many,
    crack,
    draw_below,
    generate_salts,
    hash_corpus,
    read_hashes_tsv,
    write_cracked_tsv,
    write_hashes_tsv,
)
from pwdist.crossguess import (
    METRIC_USERS,
    GuessOrdering,
    curve_from_increments,
    self_curve,
    truncate_reaggregate,
)
from pwdist.column import PasswordColumn
from pwdist.ingest import CorpusError, table_from_counter

import crack_oracles as oracle
from crack_oracles import _trunc8_mix64, pairs
from conftest import crlf_forms, rarely


# Frozen vectors recomputed by hand from the documented constants:
# FNV-1a(64) over salt bytes then password bytes, then the splitmix64
# finaliser, big-endian.
EMPTY_DIGEST = bytes.fromhex("f52a15e9a9b5e89b")
AB_XY_DIGEST = bytes.fromhex("3f5cac1ec3588869")


def hashed(credentials, salt_seed, salt_count):
    """``hash_corpus`` over ``(user, password)`` pairs."""
    users = [user for user, _ in credentials]
    passwords = [password for _, password in credentials]
    return hash_corpus(users, passwords, salt_seed, salt_count)


class TestBuiltinScheme:
    def test_frozen_vectors(self):
        assert _trunc8_mix64(b"", b"") == EMPTY_DIGEST
        assert _trunc8_mix64(b"ab", b"xy") == AB_XY_DIGEST

    def test_deterministic(self):
        assert _trunc8_mix64(b"s1", b"secret") == _trunc8_mix64(b"s1", b"secret")

    def test_truncates_to_eight_bytes(self):
        assert _trunc8_mix64(b"s", b"password1") == _trunc8_mix64(b"s", b"password2")
        assert _trunc8_mix64(b"s", b"short") != _trunc8_mix64(b"s", b"short2")

    def test_salt_changes_digest(self):
        assert _trunc8_mix64(b"aa", b"pw") != _trunc8_mix64(b"ab", b"pw")

    def test_batch_kernel_frozen_vectors(self):
        digests = _trunc8_mix64_many([b"", b"ab"], PasswordColumn([b"", b"xy"]))
        assert digests.shape == (2, 2) and digests.dtype == np.uint64
        assert int(digests[0, 0]).to_bytes(8, "big") == EMPTY_DIGEST
        assert int(digests[1, 1]).to_bytes(8, "big") == AB_XY_DIGEST

    @settings(max_examples=200, deadline=None)
    @given(
        salts=st.lists(st.binary(max_size=4), min_size=1, max_size=5),
        passwords=st.lists(st.binary(max_size=16), max_size=12),
    )
    def test_batch_kernel_equals_scalar_reference(self, salts, passwords):
        digests = _trunc8_mix64_many(salts, PasswordColumn(passwords))
        assert digests.shape == (len(passwords), len(salts))
        for i, pw in enumerate(passwords):
            for j, salt in enumerate(salts):
                assert int(digests[i, j]).to_bytes(8, "big") == _trunc8_mix64(salt, pw)


class TestDrawBelow:
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 100, 4096])
    @pytest.mark.parametrize("seed", [0, 1, 7, 0x5A17, 2**40 + 3])
    def test_matches_randrange(self, n, seed):
        for count in (0, 1, 5, 3000):
            rng, ref = random.Random(seed), random.Random(seed)
            drawn = draw_below(rng, n, count)
            assert drawn.dtype == np.int64
            assert drawn.tolist() == [ref.randrange(n) for _ in range(count)]

    def test_bound_checked(self):
        with pytest.raises(ValueError):
            draw_below(random.Random(0), 0, 3)
        with pytest.raises(ValueError):
            draw_below(random.Random(0), 1 << 32, 3)


class TestHashCorpus:
    def test_empty(self):
        corpus = hashed([], salt_seed=1, salt_count=4)
        assert len(corpus) == 0 and corpus.salts == []
        assert corpus.digests.dtype == np.uint64 and corpus.digests.shape == (0,)

    def test_single_salt_shared(self):
        credentials = [(b"u%d" % i, b"pw%d" % i) for i in range(10)]
        corpus = hashed(credentials, salt_seed=3, salt_count=1)
        assert len(corpus.salts) == 1 and corpus.salt_index.tolist() == [0] * 10

    def test_salts_come_from_generated_set(self):
        credentials = [(b"u%d" % i, b"pw%d" % (i % 37)) for i in range(1000)]
        corpus = hashed(credentials, salt_seed=17, salt_count=50)
        salt_set = set(generate_salts(17, 50))
        assert len(salt_set) == 50
        assert set(corpus.salts) <= salt_set
        assert all(len(s) == SALT_LEN for s in salt_set)
        assert all(b in CRYPT_SALT_ALPHABET for s in salt_set for b in s)

    def test_salts_listed_once_in_order_of_first_use(self):
        credentials = [(b"u%d" % i, b"pw") for i in range(300)]
        corpus = hashed(credentials, salt_seed=4, salt_count=12)
        assert len(set(corpus.salts)) == len(corpus.salts)
        assert list(dict.fromkeys(corpus.salt_index.tolist())) == list(range(len(corpus.salts)))

    def test_salt_count_validated(self):
        with pytest.raises(ValueError):
            generate_salts(0, 0)
        with pytest.raises(ValueError):
            generate_salts(0, 64**2 + 1)

    def test_one_password_per_user(self):
        with pytest.raises(ValueError):
            hash_corpus([b"a", b"b"], [b"pw"], 0, 4)

    def test_deterministic(self):
        credentials = [(b"u%d" % i, b"pw%d" % i) for i in range(30)]
        a = hashed(credentials, salt_seed=9, salt_count=8)
        b = hashed(credentials, salt_seed=9, salt_count=8)
        assert oracle.columns(a) == oracle.columns(b)

    @pytest.mark.parametrize("salt_count", [1, 3, 64, 100])
    def test_matches_entry_oracle(self, salt_count):
        rng = np.random.default_rng(salt_count)
        credentials = [
            (b"user%d" % i, b"pw%d" % int(rng.integers(0, 500)) * int(rng.integers(1, 4)))
            for i in range(2000)
        ]
        corpus = hashed(credentials, salt_seed=salt_count + 1, salt_count=salt_count)
        expected = oracle.hash_corpus(credentials, salt_count + 1, salt_count)
        assert oracle.entries_of(corpus) == expected


class TestCrack:
    def test_hand_trace(self):
        credentials = [(b"u1", b"x"), (b"u2", b"x"), (b"u3", b"y")]
        corpus = hashed(credentials, salt_seed=0, salt_count=2)
        report = crack(corpus, GuessOrdering(PasswordColumn([b"x"])))
        assert report.curve_users.cumulative_at(1) == 2
        assert sorted(u for u, _ in pairs(report.cracked)) == [b"u1", b"u2"]
        assert report.uncracked_count == 1

    def test_empty_ordering(self):
        corpus = hashed([(b"u1", b"x")], salt_seed=0, salt_count=1)
        report = crack(corpus, GuessOrdering(PasswordColumn([])))
        assert pairs(report.cracked) == []
        assert report.uncracked_count == 1

    def test_empty_corpus(self):
        corpus = hashed([], salt_seed=0, salt_count=3)
        report = crack(corpus, GuessOrdering(PasswordColumn([b"x", b"y"])))
        assert pairs(report.cracked) == [] and report.uncracked_count == 0

    def test_exhaustive_ordering_cracks_everyone(self):
        credentials = [(b"u%d" % i, b"pw%d" % (i % 5)) for i in range(20)]
        corpus = hashed(credentials, salt_seed=1, salt_count=4)
        ordering = GuessOrdering(PasswordColumn([b"pw%d" % i for i in range(5)]))
        report = crack(corpus, ordering)
        assert report.uncracked_count == 0
        assert report.curve_users.final_cumulative == 20
        assert report.curve_distinct.denominator == 5

    def test_guess_colliding_after_truncation_adds_nothing(self):
        corpus = hashed([(b"u1", b"longpassword")], salt_seed=2, salt_count=1)
        ordering = GuessOrdering(PasswordColumn([b"longpassword", b"longpassXXX"]))
        report = crack(corpus, ordering)
        assert report.curve_users.cumulative_at(1) == 1
        assert report.curve_users.cumulative_at(2) == 1
        assert pairs(report.cracked) == [(b"u1", b"longpass")]

    def test_distinct_denominator_upper_bounds_unseen(self):
        credentials = [(b"u1", b"hit"), (b"u2", b"miss1"), (b"u3", b"miss2")]
        corpus = hashed(credentials, salt_seed=5, salt_count=2)
        report = crack(corpus, GuessOrdering(PasswordColumn([b"hit"])))
        # one recovered plus two uncracked assumed unique
        assert report.curve_distinct.denominator == 3

    def test_recovery_matches_self_curve_of_truncated_table(self):
        rng = np.random.default_rng(31)
        pool = [b"verylongpassword%02d" % i for i in range(12)] + [b"pw%02d" % i for i in range(30)]
        credentials = [(b"u%d" % i, pool[int(rng.integers(0, len(pool)))]) for i in range(400)]
        table = table_from_counter(Counter(pw for _, pw in credentials), tie_break_seed=8)
        truncated = truncate_reaggregate(table, 8, tie_break_seed=8)
        assert truncated.distinct_count < table.distinct_count  # truncation really merges
        corpus = hashed(credentials, salt_seed=8, salt_count=16)
        report = crack(corpus, GuessOrdering.from_table(truncated))
        own = self_curve(truncated, "users")
        assert report.curve_users == own

    def test_each_salt_guess_pair_hashed_at_most_once(self, monkeypatch):
        credentials = [(b"u%d" % i, b"pw%d" % (i % 3)) for i in range(9)]
        corpus = hashed(credentials, salt_seed=4, salt_count=3)
        calls = []

        def counting(salts, passwords):
            calls.extend((salt, pw) for pw in passwords for salt in salts)
            return _trunc8_mix64_many(salts, passwords)

        monkeypatch.setattr(crack_mod, "_trunc8_mix64_many", counting)
        ordering = GuessOrdering(PasswordColumn([b"pw0", b"pw1", b"pw0XXXXXXXX", b"pw2"]))
        crack(corpus, ordering)
        assert calls and len(calls) == len(set(calls))

    def test_block_size_does_not_change_report(self, monkeypatch):
        rng = np.random.default_rng(5)
        pool = [b"pw%02d" % i for i in range(40)] + [b"longpassword%02d" % i for i in range(5)]
        credentials = [(b"u%d" % i, pool[int(rng.integers(0, len(pool)))]) for i in range(300)]
        corpus = hashed(credentials, salt_seed=6, salt_count=12)
        ordering = GuessOrdering(PasswordColumn([p for p in pool if p != b"pw07"] + [b"pw07"]))
        whole = crack(corpus, ordering)
        monkeypatch.setattr(crack_mod, "GUESS_BLOCK", 4)
        blocked = crack(corpus, ordering)
        assert blocked.curve_users == whole.curve_users
        assert blocked.curve_distinct == whole.curve_distinct
        assert pairs(blocked.cracked) == pairs(whole.cracked)
        assert whole.uncracked_count == 0

    def test_rows_within_a_guess_follow_first_seen_salt_order(self):
        credentials = [(b"u%d" % i, b"same") for i in range(40)]
        corpus = hashed(credentials, salt_seed=2, salt_count=16)
        report = crack(corpus, GuessOrdering(PasswordColumn([b"same"])))
        salt_of = {e.user: e.salt for e in oracle.entries_of(corpus)}
        first_seen = list(dict.fromkeys(e.salt for e in oracle.entries_of(corpus)))
        order = [first_seen.index(salt_of[u]) for u, _ in pairs(report.cracked)]
        assert order == sorted(order) and len(set(order)) == len(first_seen) > 1

    def test_digest_shared_across_salts_cracks_only_its_salt(self):
        # Two rows with one digest under different salts: a hit under one
        # salt must not crack the row of the other.
        corpus = crack_mod.HashedCorpus(
            users=PasswordColumn([b"a", b"b"]),
            salts=[b"s1", b"s2"],
            salt_index=np.array([0, 1]),
            digests=np.array([int.from_bytes(_trunc8_mix64(b"s2", b"pw"), "big")] * 2, dtype=np.uint64),
        )
        report = crack(corpus, GuessOrdering(PasswordColumn([b"pw"])))
        assert pairs(report.cracked) == [(b"b", b"pw")] and report.uncracked_count == 1


class TestCrackOracle:
    @settings(max_examples=100, deadline=None)
    @given(
        passwords=st.lists(
            st.sampled_from([b"a", b"b", b"abcdefgh1", b"abcdefgh2", b"\x80\xff", b"", b"pw"]),
            max_size=60,
        ),
        guesses=st.lists(st.sampled_from([b"a", b"b", b"abcdefgh", b"abcdefghZ", b"", b"zz", b"pw"]),
                         max_size=7, unique=True),
        salt_count=st.integers(1, 8),
        salt_seed=st.integers(0, 2**64 - 1),
        block=st.sampled_from([1, 2, 256]),
    )
    def test_matches_bucket_loop(self, passwords, guesses, salt_count, salt_seed, block):
        credentials = [(b"u%d" % i, pw) for i, pw in enumerate(passwords)]
        corpus = hashed(credentials, salt_seed, salt_count)
        entries = oracle.hash_corpus(credentials, salt_seed, salt_count)
        assert oracle.entries_of(corpus) == entries
        increments, cracked = oracle.crack(entries, guesses)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(crack_mod, "GUESS_BLOCK", block)
            report = crack(corpus, GuessOrdering(PasswordColumn(guesses)))
        assert pairs(report.cracked) == cracked
        expected = curve_from_increments(np.array(increments, dtype=np.int64), len(entries), METRIC_USERS)
        assert report.curve_users == expected
        assert report.uncracked_count == len(entries) - len(cracked)


def weak_digest(salt: bytes, password: bytes) -> bytes:
    """A 2-bit stand-in for ``_trunc8_mix64``: distinct guesses collide under one salt."""
    return ((sum(password[:8]) + sum(salt)) % 4).to_bytes(8, "big")


def weak_digests(salts, passwords):
    return np.array(
        [[int.from_bytes(weak_digest(salt, pw), "big") for salt in salts] for pw in passwords],
        dtype=np.uint64,
    ).reshape(len(passwords), len(salts))


class TestCrackSharedDigestRuns:
    """``crack`` resolves hits as the bucket loop does where one digest run
    holds rows of several salts, and where guesses collide."""

    SALTS = [b"s0", b"s1", b"s2", b"s3"]
    PASSWORDS = [b"a", b"b", b"abcdefgh1", b"abcdefgh2", b"", b"\x80\xff"]
    GUESSES = [b"a", b"b", b"abcdefgh", b"abcdefghZ", b"", b"zz", b"\x80\xff"]

    @classmethod
    def corpus(cls, rows, digest):
        """Row i of ``rows`` is (salt, salt of its digest, password).

        Where the two salts differ, the row shares its digest with the rows
        of the other salt and no guess can crack it.
        """
        used = list(dict.fromkeys(j for j, _, _ in rows))
        return HashedCorpus(
            users=PasswordColumn([b"u%d" % i for i in range(len(rows))]),
            salts=[cls.SALTS[j] for j in used],
            salt_index=np.array([used.index(j) for j, _, _ in rows], dtype=np.int64),
            digests=np.array(
                [int.from_bytes(digest(cls.SALTS[k], pw), "big") for _, k, pw in rows], dtype=np.uint64
            ),
        )

    def check(self, corpus, guesses, block):
        increments, cracked = oracle.crack(oracle.entries_of(corpus), guesses)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(crack_mod, "GUESS_BLOCK", block)
            report = crack(corpus, GuessOrdering(PasswordColumn(guesses)))
        assert pairs(report.cracked) == cracked
        expected = curve_from_increments(np.array(increments, dtype=np.int64), len(corpus), METRIC_USERS)
        assert report.curve_users == expected
        assert report.uncracked_count == len(corpus) - len(cracked)

    rows = st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from(PASSWORDS)), max_size=50
    )
    guesses = st.lists(st.sampled_from(GUESSES), max_size=7, unique=True)

    @settings(max_examples=100, deadline=None)
    @given(rows=rows, guesses=guesses, block=st.sampled_from([1, 2, 256]))
    def test_matches_bucket_loop(self, rows, guesses, block):
        self.check(self.corpus(rows, _trunc8_mix64), guesses, block)

    @settings(max_examples=100, deadline=None)
    @given(rows=rows, guesses=guesses, block=st.sampled_from([1, 3, 256]))
    def test_first_of_colliding_guesses_wins(self, rows, guesses, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(crack_mod, "_trunc8_mix64_many", weak_digests)
            mp.setattr(oracle, "_trunc8_mix64", weak_digest)
            self.check(self.corpus(rows, weak_digest), guesses, block)


# Fields holding the bytes the TSV files escape, NUL, high bytes, and the empty string.
awkward = st.lists(
    st.sampled_from([b"\\", b"\t", b"\r", b"\n", b"\x00", b"\xff", b"\xe9", b"a", b"pw", b"abcdefgh"]),
    max_size=5,
).map(b"".join)


class TestColumnWriters:
    """The block writers give the bytes of the row-at-a-time oracles."""

    @settings(max_examples=100, deadline=None)
    @given(
        credentials=st.lists(st.tuples(awkward, awkward), max_size=30),
        salt_count=st.integers(1, 5),
        salt_seed=st.integers(0, 2**64 - 1),
        block=st.sampled_from([1, tsvio.WRITE_BLOCK]),
    )
    def test_match_row_oracles(self, tmp_path_factory, credentials, salt_count, salt_seed, block):
        corpus = hashed(credentials, salt_seed, salt_count)
        report = crack(corpus, GuessOrdering(PasswordColumn(dict.fromkeys(pw for _, pw in credentials))))
        d = tmp_path_factory.mktemp("writers")
        oracle.write_hashes_tsv(corpus, d / "expected-hashes.tsv")
        oracle.write_cracked_tsv(report, d / "expected-cracked.tsv")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tsvio, "WRITE_BLOCK", block)
            write_hashes_tsv(corpus, d / "hashes.tsv")
            write_cracked_tsv(report, d / "cracked.tsv")
        assert (d / "hashes.tsv").read_bytes() == (d / "expected-hashes.tsv").read_bytes()
        assert (d / "cracked.tsv").read_bytes() == (d / "expected-cracked.tsv").read_bytes()
        assert oracle.columns(read_hashes_tsv(d / "hashes.tsv")) == oracle.columns(corpus)

    def test_salts_of_any_length(self, tmp_path):
        corpus = HashedCorpus(
            users=PasswordColumn([b"a", b"b\\", b"", b"d"]),
            salts=[b"", b"\x00", b"abc"],
            salt_index=np.array([0, 1, 2, 1]),
            digests=np.array([0, 1, 2**64 - 1, 0x0123456789ABCDEF], dtype=np.uint64),
        )
        write_hashes_tsv(corpus, tmp_path / "hashes.tsv")
        oracle.write_hashes_tsv(corpus, tmp_path / "expected.tsv")
        assert (tmp_path / "hashes.tsv").read_bytes() == (tmp_path / "expected.tsv").read_bytes()
        assert oracle.columns(read_hashes_tsv(tmp_path / "hashes.tsv")) == oracle.columns(corpus)


class TestHashesTsv:
    def test_round_trip(self, tmp_path):
        credentials = [(b"user\twith\ttabs", b"pw1"), (b"plain", b"pw2"), (b"caf\xe9\\", b"pw3")]
        corpus = hashed(credentials, salt_seed=11, salt_count=2)
        path = tmp_path / "hashes.tsv"
        write_hashes_tsv(corpus, path)
        assert oracle.columns(read_hashes_tsv(path)) == oracle.columns(corpus)

    def test_round_trip_across_write_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tsvio, "WRITE_BLOCK", 3)
        credentials = [(b"u%d" % i, b"pw%d" % i) for i in range(10)]
        corpus = hashed(credentials, salt_seed=1, salt_count=5)
        path = tmp_path / "hashes.tsv"
        write_hashes_tsv(corpus, path)
        assert oracle.columns(read_hashes_tsv(path)) == oracle.columns(corpus)
        rows = path.read_bytes().splitlines()[1:]
        assert rows == [
            b"%s\t%s\t%s" % (e.user, e.salt.hex().encode(), e.digest.hex().encode())
            for e in oracle.entries_of(corpus)
        ]

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
            b"alice\t2e 2e\t0011223344556677",  # a space inside the salt, which bytes.fromhex skips
            b"alice\t2e2e\t00112233 44556677",  # a space inside the digest
            b"alice\t2e2\t0011223344556677",  # an odd number of salt digits
            b"al\\qice\t2e2e\t0011223344556677",  # bad escape
        ],
    )
    def test_bad_row_is_corpus_error(self, tmp_path, row):
        path = tmp_path / "hashes.tsv"
        path.write_bytes(b"user\tsalt-hex\tdigest-hex\n" + row + b"\n")
        with pytest.raises(CorpusError):
            read_hashes_tsv(path)

    def test_crlf_and_blank_lines_accepted(self, tmp_path):
        corpus = hashed([(b"a", b"pw1"), (b"b", b"pw2")], salt_seed=3, salt_count=2)
        path = tmp_path / "hashes.tsv"
        write_hashes_tsv(corpus, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n") + b"\r\n")
        assert oracle.columns(read_hashes_tsv(path)) == oracle.columns(corpus)


@st.composite
def hashes_files(draw) -> bytes:
    """``hashes.tsv`` files, mostly well formed, with the row variants a reader must judge."""
    eol = [b"\n", b"\r\n"]
    out = [rarely(draw, [HASHES_HEADER], [b"user\tsalt-hex"]), draw(st.sampled_from(eol))]
    for _ in range(draw(st.integers(0, 8))):
        out.append(rarely(draw, [b""], [b"\n", b"\r\n", b"\r\r\n"]))
        out += [
            b"".join(
                rarely(draw, [b"a", b"\xff", b" ", b"\r", b"\\\\", b"\\t", b"\\n"], [b"\\q", b"\\", b"\t"])
                for _ in range(draw(st.integers(0, 3)))
            ),
            rarely(draw, [b"\t"], [b""]),
            rarely(draw, [b"", b"2e2e", b"2E2e", b"00", b"abcdef"], [b"2", b"zz", b"2e 2e", b" 2e", b"\xff\xfe"]),
            b"\t",
            rarely(
                draw,
                [b"0011223344556677", b"FFEEDDCCBBAA9988", b"a1b2c3d4e5f60718"],
                [b"abcd", b"00112233445566778899", b"0011223344556677 ", b"001122334455667g", b""],
            ),
            rarely(draw, [b""], [b"\tx", b"\t"]),
            draw(st.sampled_from(eol)),
        ]
    data = b"".join(out)
    return data[:-1] if draw(st.booleans()) and data.endswith(b"\n") else data


class TestReadHashesBlocks:
    @settings(max_examples=200, deadline=None)
    @given(data=hashes_files(), block=st.sampled_from([1, 2, 3, 5, 8, 64, tsvio.READ_BLOCK]))
    def test_accepts_and_rejects_like_row_loop(self, tmp_path_factory, data, block):
        path = tmp_path_factory.mktemp("read") / "hashes.tsv"
        path.write_bytes(data)
        try:
            expected = oracle.read_hashes(path)
        except CorpusError:
            expected = None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tsvio, "READ_BLOCK", block)
            if expected is None:
                with pytest.raises(CorpusError):
                    read_hashes_tsv(path)
                return
            corpus = read_hashes_tsv(path)
        assert oracle.columns(corpus) == oracle.columns(expected)

    def test_plain_rows_are_cut_without_a_row_loop(self, tmp_path, monkeypatch):
        corpus = hashed([(b"u%d" % i, b"pw%d" % i) for i in range(50)], salt_seed=2, salt_count=4)
        write_hashes_tsv(corpus, tmp_path / "hashes.tsv")

        def refuse(chunk):
            raise AssertionError("a chunk was split into lines")

        monkeypatch.setattr(tsvio, "chunk_lines", refuse)
        assert oracle.columns(read_hashes_tsv(tmp_path / "hashes.tsv")) == oracle.columns(corpus)
        for data in crlf_forms((tmp_path / "hashes.tsv").read_bytes()):
            (tmp_path / "crlf.tsv").write_bytes(data)
            for block in (7, tsvio.READ_BLOCK):
                monkeypatch.setattr(tsvio, "READ_BLOCK", block)
                assert oracle.columns(read_hashes_tsv(tmp_path / "crlf.tsv")) == oracle.columns(corpus)
