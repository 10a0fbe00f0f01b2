from __future__ import annotations

import io
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import table_oracles as oracle
from pwdist import column, ingest, tsvio
from pwdist.column import PasswordColumn
from pwdist.ingest import (
    CORPUS_FORMATS,
    TABLE_HEADER,
    CorpusError,
    FORMAT_PASSWORD_PER_LINE,
    FORMAT_USER_TAB_PASSWORD,
    RankFrequencyTable,
    cap_ranks,
    count_of_counts,
    rank_passwords,
    read_credentials,
    read_table_tsv,
    stream_table,
    table_from_counter,
    table_from_counts,
    write_table_tsv,
)
from pwdist.tsvio import escape_field, unescape_field

from conftest import crlf_forms, rarely, rows

# Block sizes small enough that lines and rows cross block boundaries.
SMALL_BLOCKS = st.sampled_from([1, 2, 3, 5, 8, 64, tsvio.READ_BLOCK])


def user_tab(*pairs: tuple[bytes, bytes]) -> bytes:
    return b"".join(user + b"\t" + pw + b"\n" for user, pw in pairs)


def credentials(raw: bytes, corpus_format: str = FORMAT_USER_TAB_PASSWORD) -> list[tuple]:
    """What ``read_credentials`` keeps, as (user, password) pairs in order."""
    latest, _ = read_credentials(raw, corpus_format)
    return list(latest.items())


def ranked(pairs, seed: int = 0):
    """The table of a user-tab-password corpus of ``pairs``."""
    table, _ = stream_table(user_tab(*pairs), FORMAT_USER_TAB_PASSWORD, tie_break_seed=seed)
    return table


class TestParseCorpus:
    def test_empty_input(self):
        latest, read_stats = read_credentials(b"", FORMAT_USER_TAB_PASSWORD)
        assert latest == {}
        assert read_stats.lines == read_stats.malformed == 0

    def test_user_tab_password(self):
        assert credentials(b"alice\t123456\nbob\tabc\n") == [
            (b"alice", b"123456"),
            (b"bob", b"abc"),
        ]

    def test_password_per_line_synthetic_users(self):
        assert credentials(b"123456\n123456\nqwerty\n", FORMAT_PASSWORD_PER_LINE) == [
            (b"u1", b"123456"),
            (b"u2", b"123456"),
            (b"u3", b"qwerty"),
        ]

    def test_synthetic_users_count_blank_lines(self):
        raw = b"a\n\n  \nb\r\n"
        assert credentials(raw, FORMAT_PASSWORD_PER_LINE) == [(b"u1", b"a"), (b"u4", b"b")]

    def test_password_may_contain_tabs(self):
        assert credentials(b"alice\tpass\tword\n") == [(b"alice", b"pass\tword")]

    def test_malformed_lines_counted_and_skipped(self):
        latest, read_stats = read_credentials(
            b"ok\tpw\nno-tab-here\nalso bad\nbob\tx\n", FORMAT_USER_TAB_PASSWORD
        )
        assert list(latest) == [b"ok", b"bob"]
        assert read_stats.malformed == 2
        assert read_stats.lines == 4

    def test_crlf_stripped(self):
        assert credentials(b"alice\tpw\r\n") == [(b"alice", b"pw")]

    def test_no_trailing_newline(self):
        raw = b"pw1\npw2"
        assert credentials(raw, FORMAT_PASSWORD_PER_LINE) == [(b"u1", b"pw1"), (b"u2", b"pw2")]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            read_credentials(b"", "csv")

    def test_unreadable_stream_reports_offset(self):
        class Broken(io.RawIOBase):
            def __init__(self):
                self.calls = 0

            def readable(self):
                return True

            def read(self, size=-1):
                self.calls += 1
                if self.calls > 2:
                    raise OSError("disk on fire")
                return b"line%d\n" % self.calls

        with pytest.raises(CorpusError) as err:
            read_credentials(Broken(), FORMAT_PASSWORD_PER_LINE)
        assert err.value.byte_offset == 12  # two 6-byte lines consumed


class TestCleanup:
    def test_last_entry_per_user_wins(self):
        assert credentials(user_tab((b"u1", b"a"), (b"u1", b"b"))) == [(b"u1", b"b")]

    def test_kept_entries_follow_their_line_order(self):
        raw = user_tab((b"u1", b"a"), (b"u2", b"b"), (b"u1", b"c"), (b"u3", b"d"))
        assert credentials(raw) == [(b"u2", b"b"), (b"u1", b"c"), (b"u3", b"d")]

    def test_whitespace_password_dropped(self):
        assert credentials(user_tab((b"u1", b"   "))) == []

    def test_empty_password_dropped(self):
        assert credentials(user_tab((b"u1", b""))) == []

    def test_empty_input(self):
        assert credentials(b"") == []

    def test_whitespace_dropped_before_last_entry_selection(self):
        # a trailing whitespace entry must not erase the real password
        assert credentials(user_tab((b"u1", b"real"), (b"u1", b" \t "))) == [(b"u1", b"real")]

    def test_all_whitespace_user_omitted(self):
        raw = user_tab((b"u1", b" "), (b"u1", b"\t"), (b"u2", b"keep"))
        assert credentials(raw) == [(b"u2", b"keep")]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([b"u1", b"u2", b"u3", b"u4"]),
                st.binary(max_size=4).filter(lambda b: b"\n" not in b and b"\r" not in b),
            ),
            max_size=20,
        )
    )
    def test_idempotent(self, pairs):
        once = credentials(user_tab(*pairs))
        assert credentials(user_tab(*once)) == once


class TestReadCredentialsOracle:
    @given(
        st.lists(
            st.lists(
                st.sampled_from([b"a", b"b", b"u1", b"u2", b"\t", b" ", b"\r"]), max_size=4
            ).map(b"".join),
            max_size=20,
        ),
        st.booleans(),
        st.sampled_from(CORPUS_FORMATS),
        SMALL_BLOCKS,
    )
    def test_matches_record_pipeline(self, lines, final_newline, corpus_format, block):
        raw = b"\n".join(lines) + (b"\n" if final_newline and lines else b"")
        parsed = oracle.parse_corpus(raw, corpus_format)
        expected = [
            (rec.user.encode("latin-1"), rec.password) for rec in oracle.cleanup(parsed.records)
        ]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tsvio, "READ_BLOCK", block)
            latest, read_stats = read_credentials(io.BytesIO(raw), corpus_format)
        assert list(latest.items()) == expected
        assert read_stats.lines == len(io.BytesIO(raw).readlines())
        assert read_stats.malformed == parsed.malformed

    def test_long_line_is_read_in_linear_time(self, monkeypatch):
        # 65,536 small reads without an LF: joining the carried blocks once is
        # linear, appending each block to the carried bytes was quadratic (~10 s).
        monkeypatch.setattr(tsvio, "READ_BLOCK", 64)
        line = b"x" * (4 << 20)
        start = time.perf_counter()
        latest, read_stats = read_credentials(io.BytesIO(b"alice\t" + line), FORMAT_USER_TAB_PASSWORD)
        assert time.perf_counter() - start < 2.0
        assert latest == {b"alice": line}
        assert (read_stats.lines, read_stats.malformed) == (1, 0)


class TestBuildTable:
    def test_hand_counted_example(self):
        table = ranked([(b"u1", b"x"), (b"u2", b"x"), (b"u3", b"y")])
        assert rows(table) == [(b"x", 2), (b"y", 1)]
        assert table.total_users == 3
        assert table.distinct_count == 2

    def test_empty_records_rejected(self):
        for corpus_format in CORPUS_FORMATS:
            with pytest.raises(CorpusError):
                stream_table(b"\n \n\t\n", corpus_format)

    def test_same_seed_same_order(self):
        pairs = [(b"u%d" % i, b"pw%d" % i) for i in range(8)]
        assert rows(ranked(pairs, seed=99)) == rows(ranked(reversed(pairs), seed=99))

    def test_different_seeds_permute_ties_only(self):
        pairs = [(b"u%d" % i, b"pw%d" % i) for i in range(6)] + [(b"v1", b"top"), (b"v2", b"top")]
        t1 = ranked(pairs, seed=1)
        t2 = ranked(pairs, seed=2)
        # top entry has count 2 and stays at rank 1; the singleton run may shuffle
        assert rows(t1)[0] == rows(t2)[0] == (b"top", 2)
        assert sorted(rows(t1)) == sorted(rows(t2))
        assert t1.counts.tolist() == t2.counts.tolist()
        assert rows(t1) != rows(t2)  # these seeds do reshuffle the tie run

    def test_counts_non_increasing_and_conserved(self):
        table = ranked([(b"u%d" % i, b"pw%d" % (i % 3)) for i in range(10)])
        table.validate()
        counts = table.counts.tolist()
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) == 10


def pairs(cc):
    """``count_of_counts``' two arrays as a list of ``(k, n_k)`` pairs."""
    k, n_k = cc
    assert k.dtype == n_k.dtype == np.int64
    return list(zip(k.tolist(), n_k.tolist()))


class TestCountOfCounts:
    def test_hand_counted(self):
        table = table_from_counter({b"x": 2, b"y": 1, b"z": 1})
        assert pairs(count_of_counts(table)) == [(1, 2), (2, 1)]

    def test_singleton(self):
        table = table_from_counter({b"only": 5})
        assert pairs(count_of_counts(table)) == [(5, 1)]

    def test_all_ones(self):
        table = table_from_counter({b"a": 1, b"b": 1, b"c": 1, b"d": 1})
        assert pairs(count_of_counts(table)) == [(1, 4)]

    @given(
        st.dictionaries(
            st.binary(min_size=1, max_size=4), st.integers(1, 50), min_size=1, max_size=30
        )
    )
    def test_conservation(self, counts):
        table = table_from_counter(counts)
        k, n_k = count_of_counts(table)
        assert int(k @ n_k) == table.total_users
        assert int(n_k.sum()) == table.distinct_count
        assert np.all(np.diff(k) > 0)

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=30))
    def test_matches_counter(self, counts):
        assert pairs(count_of_counts(table_from_counts(counts))) == sorted(Counter(counts).items())


class TestStreamTable:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([b"u1", b"u2", b"u3", b"u4", b"u5"]),
                st.binary(max_size=5).filter(lambda b: b"\t" not in b and b"\n" not in b and b"\r" not in b),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_matches_record_pipeline_user_tab(self, pairs):
        raw = user_tab(*pairs)
        records = oracle.cleanup(oracle.parse_corpus(raw, FORMAT_USER_TAB_PASSWORD).records)
        try:
            expected = oracle.build_table(records, tie_break_seed=5)
        except CorpusError:
            with pytest.raises(CorpusError):
                stream_table(raw, FORMAT_USER_TAB_PASSWORD, tie_break_seed=5)
            return
        streamed, _ = stream_table(raw, FORMAT_USER_TAB_PASSWORD, tie_break_seed=5)
        assert rows(streamed) == rows(expected)
        assert streamed.total_users == expected.total_users

    def test_matches_record_pipeline_per_line(self):
        raw = b"aaa\n\nbbb\naaa\n   \nccc\n"
        records = oracle.cleanup(oracle.parse_corpus(raw, FORMAT_PASSWORD_PER_LINE).records)
        expected = oracle.build_table(records, tie_break_seed=2)
        streamed, parse_stats = stream_table(raw, FORMAT_PASSWORD_PER_LINE, tie_break_seed=2)
        assert rows(streamed) == rows(expected)
        assert parse_stats.lines == 6
        assert streamed.total_users == 4

    def test_counts_malformed(self):
        streamed, parse_stats = stream_table(b"ok\tpw\nnotab\n", FORMAT_USER_TAB_PASSWORD)
        assert parse_stats.malformed == 1
        assert streamed.total_users == 1


class TestCapRanks:
    def test_keeps_head_and_stays_valid(self):
        table = table_from_counter({b"a": 5, b"b": 3, b"c": 2, b"d": 1})
        capped = cap_ranks(table, 2)
        assert rows(capped) == rows(table)[:2]
        assert capped.total_users == 8
        capped.validate()

    def test_noop_when_large_enough(self):
        table = table_from_counter({b"a": 2, b"b": 1})
        assert cap_ranks(table, 10) is table

    def test_validates_argument(self):
        with pytest.raises(ValueError):
            cap_ranks(table_from_counter({b"a": 1}), 0)


class TestTableTsv:
    def test_round_trip_awkward_bytes(self, tmp_path):
        table = table_from_counter(
            {b"has\ttab": 4, b"back\\slash": 3, b"cr\rinside": 2, b"trailing\r": 2, b"plain": 1},
            tie_break_seed=7,
        )
        path = tmp_path / "table.tsv"
        write_table_tsv(table, path)
        loaded = read_table_tsv(path)
        assert rows(loaded) == rows(table)
        assert loaded.total_users == table.total_users

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"not\ta\theader\n1\t2\tx\n")
        with pytest.raises(CorpusError):
            read_table_tsv(path)

    def test_rank_column_checked(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"rank\tcount\tpassword\n2\t5\tx\n")
        with pytest.raises(CorpusError):
            read_table_tsv(path)


def ranked_both_ways(counts: dict[bytes, int], seed: int = 0) -> list[RankFrequencyTable]:
    """``counts`` ranked from a list of its passwords, by ``table_from_counter``,
    and from a column of them, which ``rank_passwords`` gathers by ``take``."""
    values = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    return [table_from_counter(counts, seed), rank_passwords(PasswordColumn(counts), values, seed)]


class TestTableFromCounter:
    @given(
        st.dictionaries(st.binary(max_size=4), st.integers(1, 5), min_size=1, max_size=40),
        st.integers(-5, 2**65),
    )
    def test_matches_tuple_sort(self, counts, seed):
        for table in ranked_both_ways(counts, seed):
            assert rows(table) == oracle.rank_rows(counts, seed)
            assert table.total_users == sum(counts.values())

    @given(
        st.dictionaries(st.binary(max_size=4), st.integers(1, 5), min_size=1, max_size=40),
        st.sampled_from([1, 2, 3, 7, tsvio.WRITE_BLOCK]),
    )
    def test_tie_keys_across_write_blocks(self, counts, block):
        # The keys are joined one column block, and the ranked rows one write block, at a time.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(column, "JOIN_BLOCK", block)
            mp.setattr(tsvio, "WRITE_BLOCK", block)
            tables = ranked_both_ways(counts, 9)
        for table in tables:
            assert rows(table) == oracle.rank_rows(counts, 9)

    def test_equal_tie_keys_fall_back_to_password_bytes(self, monkeypatch):
        monkeypatch.setattr(
            ingest, "keyed_hashes", lambda passwords, seed: np.zeros(len(passwords), dtype=np.uint64)
        )
        for table in ranked_both_ways({b"b": 1, b"a": 1, b"c": 2, b"d": 1, b"e": 2}):
            assert rows(table) == [(b"c", 2), (b"e", 2), (b"a", 1), (b"b", 1), (b"d", 1)]

    @given(st.dictionaries(st.binary(max_size=4), st.integers(1, 3), min_size=1, max_size=40))
    def test_column_ranks_as_list_under_constant_tie_keys(self, counts):
        # Every tie run is sorted by password bytes, read from the column by row.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                ingest, "keyed_hashes", lambda passwords, seed: np.zeros(len(passwords), dtype=np.uint64)
            )
            listed, columned = ranked_both_ways(counts)
        assert rows(columned) == rows(listed) == oracle.rank_rows(counts, key=lambda password, seed: 0)

    @given(st.dictionaries(st.binary(max_size=3), st.integers(1, 3), min_size=1, max_size=30))
    def test_partly_equal_tie_keys_match_tuple_sort(self, counts):
        def parity(password: bytes, seed: int) -> int:
            return len(password) % 2

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                ingest,
                "keyed_hashes",
                lambda passwords, seed: np.array([len(p) % 2 for p in passwords], dtype=np.uint64),
            )
            tables = ranked_both_ways(counts)
        for table in tables:
            assert rows(table) == oracle.rank_rows(counts, key=parity)


class TestLineRule:
    """``tsvio.chunk_lines`` splits in C; the per-line form in ``table_oracles`` is the reference."""

    @given(st.lists(st.sampled_from([b"a", b" ", b"\t", b"\n", b"\r", b"\r\n", b"\r\r\n"]), max_size=12))
    @example([b"a", b"\n", b"b", b"\n"])  # LF
    @example([b"a", b"\r\n", b"b", b"\r\n"])  # CRLF
    @example([b"a", b"\r\r\n"])  # one CR is cut, the other kept
    @example([b"a", b"\r", b"b", b"\n", b"\r"])  # a lone CR, inside a line and as the last line
    @example([])  # an empty chunk
    @example([b"a", b"\n", b"b", b"\r"])  # a final line without LF that ends in CR
    def test_matches_per_line_form(self, pieces):
        chunk = b"".join(pieces)
        assert tsvio.chunk_lines(chunk) == oracle.chunk_lines(chunk)


class TestStreamTableBlocks:
    @given(
        st.lists(
            st.lists(
                st.sampled_from([b"a", b"b", b"u1", b"u2", b"\t", b" ", b"\r"]), max_size=4
            ).map(b"".join),
            max_size=20,
        ),
        st.booleans(),
        st.sampled_from(CORPUS_FORMATS),
        SMALL_BLOCKS,
    )
    def test_matches_record_pipeline(self, lines, final_newline, corpus_format, block):
        raw = b"\n".join(lines) + (b"\n" if final_newline and lines else b"")
        parsed = oracle.parse_corpus(raw, corpus_format)
        records = oracle.cleanup(parsed.records)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tsvio, "READ_BLOCK", block)
            if not records:
                with pytest.raises(CorpusError):
                    stream_table(io.BytesIO(raw), corpus_format, tie_break_seed=4)
                return
            streamed, parse_stats = stream_table(io.BytesIO(raw), corpus_format, tie_break_seed=4)
        assert rows(streamed) == rows(oracle.build_table(records, tie_break_seed=4))
        assert parse_stats.lines == len(io.BytesIO(raw).readlines())
        assert parse_stats.malformed == parsed.malformed


def _plain_forms(value: int) -> list[bytes]:
    """Spellings of ``value`` in plain digits, which a reader takes."""
    return [b"%d" % value, b"0%d" % value]


def _int_forms(value: int) -> list[bytes]:
    """Other spellings that int() reads as ``value``, which a reader refuses."""
    digits = b"%d" % value
    return [b" " + digits, b"+" + digits, digits + b" ", b"0_" + digits]


@st.composite
def table_files(draw) -> bytes:
    """Table files, mostly well formed, with the row variants a reader must judge."""
    eol = [b"\n", b"\r\n"]
    out = [rarely(draw, [TABLE_HEADER], [b"rank\tcount"]), draw(st.sampled_from(eol))]
    count = draw(st.integers(3, 9))
    for rank in range(1, rarely(draw, list(range(1, 9)), [0]) + 1):
        out.append(rarely(draw, [b""], [b"\n", b"\r\n", b"\r\r\n", b"1\t1\n"]))
        count -= rarely(draw, [0, 1], [-1, count])
        password = b"".join(
            rarely(
                draw,
                [b"a", b"\r", b" ", b"\\\\", b"\\t", b"\\n", b"\\r"],
                [b"\\q", b"\\", b"\t"],
            )
            for _ in range(draw(st.integers(0, 3)))
        )
        out += [
            rarely(draw, _plain_forms(rank), [*_int_forms(rank), b"x", b"", b"%d" % (rank + 1)]),
            b"\t",
            rarely(draw, _plain_forms(count), [*_int_forms(count), b"y", b"", b"1.0", b"9" * 19]),
            b"\t",
            password + rarely(draw, [b"%d" % rank], [b""]),
            draw(st.sampled_from(eol)),
        ]
    data = b"".join(out)
    return data[:-1] if draw(st.booleans()) and data.endswith(b"\n") else data


class TestReadTableBlocks:
    @given(data=table_files(), block=SMALL_BLOCKS)
    def test_accepts_and_rejects_like_row_loop(self, tmp_path_factory, data, block):
        path = tmp_path_factory.mktemp("read") / "table.tsv"
        path.write_bytes(data)
        try:
            expected = oracle.read_table(path)
        except CorpusError:
            expected = None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tsvio, "READ_BLOCK", block)
            if expected is None:
                with pytest.raises(CorpusError):
                    read_table_tsv(path)
                return
            table = read_table_tsv(path)
        assert rows(table) == expected
        assert table.total_users == sum(c for _, c in expected)

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n"])
    @pytest.mark.parametrize(
        "lines",
        [
            [b"1\t3\tpw"],
            [b" 1\t+3\tpw"],
            [b"1_0\t3\tpw"],
            [b"1\t3\tp\tw", b"2\t1\tv"],
            [b"1\t3\t\\\\q"],
            # Four TABs over two rows, but the second row has only one.
            [b"1\t3\tx\t2", b"2\tz"],
        ],
    )
    def test_int_forms_and_raw_tab(self, tmp_path, lines, eol):
        path = tmp_path / "t.tsv"
        path.write_bytes(eol.join([TABLE_HEADER, *lines, b""]))
        # Rank and count are plain digits and a password holds no raw TAB, or the table is refused.
        if lines not in ([b"1\t3\tpw"], [b"1\t3\t\\\\q"]):
            with pytest.raises(CorpusError):
                oracle.read_table(path)
            with pytest.raises(CorpusError):
                read_table_tsv(path)
            return
        assert rows(read_table_tsv(path)) == oracle.read_table(path)


class TestWriteTableBlocks:
    @given(
        st.dictionaries(
            st.binary(max_size=5), st.integers(1, 4), min_size=1, max_size=30
        ),
        st.sampled_from([1, 2, 3, tsvio.WRITE_BLOCK]),
    )
    def test_bytes_match_row_loop(self, tmp_path_factory, counts, block):
        table = table_from_counter(counts)
        d = tmp_path_factory.mktemp("write")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tsvio, "WRITE_BLOCK", block)
            write_table_tsv(table, d / "new.tsv")
        oracle.write_table(rows(table), d / "old.tsv")
        assert (d / "new.tsv").read_bytes() == (d / "old.tsv").read_bytes()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tsvio, "READ_BLOCK", 3)
            assert rows(read_table_tsv(d / "new.tsv")) == rows(table)

    @given(st.binary(max_size=12))
    def test_escape_matches_byte_loop(self, raw):
        assert escape_field(raw) == oracle.escape_field(raw)


class TestUnescapeField:
    @given(
        st.lists(
            st.sampled_from([b"\\", b"t", b"n", b"r", b"\t", b"\r", b"\n", b"x", b"\xe9"]),
            max_size=12,
        ).map(b"".join)
    )
    def test_matches_byte_loop(self, raw):
        try:
            expected = oracle.unescape_field(raw)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                unescape_field(raw)
            assert str(got.value) == str(exc)
            return
        assert unescape_field(raw) == expected

    @given(st.binary(max_size=12))
    def test_inverts_escape(self, raw):
        assert unescape_field(escape_field(raw)) == raw


def _digit_boundary_table(top: int) -> RankFrequencyTable:
    """Counts on both sides of each step in digit count below ``top``, then 1000 ones.

    The counts cross 9 -> 10 ... 10**17 - 1 -> 10**17 and the ranks 9 -> 10,
    99 -> 100 and 999 -> 1000, all inside one default block.
    """
    steps = {c for k in range(1, 19) for c in (10**k - 1, 10**k) if c <= top}
    counts = [*sorted({top, *steps}, reverse=True), *[1] * 1000]
    return RankFrequencyTable(
        passwords=PasswordColumn(b"pw%04d" % i for i in range(len(counts))),
        counts=np.array(counts, dtype=np.int64),
    )


class TestTableCodecEdges:
    @pytest.mark.parametrize("top", [2**62, 10**18 - 1], ids=["19-digits", "18-digits"])
    @pytest.mark.parametrize("write_block", [1, tsvio.WRITE_BLOCK])
    @pytest.mark.parametrize("read_block", [1, tsvio.READ_BLOCK])
    def test_digit_length_boundaries(self, tmp_path, monkeypatch, top, write_block, read_block):
        table = _digit_boundary_table(top)
        monkeypatch.setattr(tsvio, "WRITE_BLOCK", write_block)
        monkeypatch.setattr(tsvio, "READ_BLOCK", read_block)
        write_table_tsv(table, tmp_path / "new.tsv")
        oracle.write_table(rows(table), tmp_path / "old.tsv")
        assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "old.tsv").read_bytes()
        assert rows(read_table_tsv(tmp_path / "new.tsv")) == rows(table)

    def test_crlf_rows_are_cut_without_a_row_loop(self, tmp_path, monkeypatch):
        table = _digit_boundary_table(2**62)
        write_table_tsv(table, tmp_path / "t.tsv")

        def refuse(chunk):
            raise AssertionError("a chunk was split into lines")

        monkeypatch.setattr(tsvio, "chunk_lines", refuse)
        assert rows(read_table_tsv(tmp_path / "t.tsv")) == rows(table)
        for data in crlf_forms((tmp_path / "t.tsv").read_bytes()):
            (tmp_path / "crlf.tsv").write_bytes(data)
            for block in (7, tsvio.READ_BLOCK):
                monkeypatch.setattr(tsvio, "READ_BLOCK", block)
                assert rows(read_table_tsv(tmp_path / "crlf.tsv")) == rows(table)

    def test_negative_count_is_refused(self, tmp_path):
        table = RankFrequencyTable(passwords=PasswordColumn([b"a"]), counts=np.array([-1]))
        with pytest.raises(ValueError):
            write_table_tsv(table, tmp_path / "t.tsv")

    @given(
        st.dictionaries(
            st.lists(st.sampled_from([b"\\", b"\t", b"\n", b"\r"]), max_size=5).map(b"".join),
            st.integers(1, 12),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from([1, 2, tsvio.WRITE_BLOCK]),
        st.sampled_from([1, 7, tsvio.READ_BLOCK]),
    )
    def test_all_special_passwords(self, tmp_path_factory, counts, write_block, read_block):
        table = table_from_counter(counts)
        d = tmp_path_factory.mktemp("special")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tsvio, "WRITE_BLOCK", write_block)
            mp.setattr(tsvio, "READ_BLOCK", read_block)
            write_table_tsv(table, d / "new.tsv")
            loaded = read_table_tsv(d / "new.tsv")
        oracle.write_table(rows(table), d / "old.tsv")
        assert (d / "new.tsv").read_bytes() == (d / "old.tsv").read_bytes()
        assert rows(loaded) == rows(table)


def _traced_peak(fn, *args):
    """``fn(*args)`` under tracemalloc: its result, and its peak and kept bytes above the start."""
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = fn(*args)
    current, peak = tracemalloc.get_traced_memory()
    return result, peak - base, current - base


class TestCodecMemory:
    def test_transient_memory_is_set_by_block_size(self, tmp_path, monkeypatch):
        """Writing and reading 100,000 rows needs memory for a block, not for the rows.

        Beyond the table it returns, the reader's peak may pass one extra
        copy of the column's bytes and an 8-byte length per row, while the
        blocks are joined, by a block's work only. ``validate`` hashes the
        rows a block at a time into an 8-byte hash per row and sorts those
        in place; past the index it returns, it needs a byte per row and a
        block's work. Small blocks make a cost of even 8 bytes a row stand
        out.
        """
        monkeypatch.setattr(tsvio, "WRITE_BLOCK", 1 << 10)
        monkeypatch.setattr(tsvio, "READ_BLOCK", 1 << 13)
        monkeypatch.setattr(column, "HASH_BLOCK", 1 << 10)
        n = 100_000
        table = table_from_counter(
            {(b"pw\t%d\\" if i % 3 else b"pw%d") % i: (n - i) // 7 + 1 for i in range(n)}
        )
        path = tmp_path / "table.tsv"
        # A first small run, so that one-time allocations are not counted.
        write_table_tsv(cap_ranks(table, 50), path)
        read_table_tsv(path)
        tracemalloc.start()
        try:
            _, write_peak, _ = _traced_peak(write_table_tsv, table, path)
            loaded, read_peak, read_kept = _traced_peak(read_table_tsv, path)
            _, check_peak, check_kept = _traced_peak(loaded.validate)
        finally:
            tracemalloc.stop()
        write_bound = 512 * tsvio.WRITE_BLOCK
        read_bound = 16 * tsvio.READ_BLOCK
        hash_bound = 64 * column.HASH_BLOCK
        assert rows(loaded) == rows(table)
        # Holding the whole file, or a byte of work per byte of it, breaks both bounds.
        assert path.stat().st_size > write_bound + read_bound
        assert write_peak < write_bound
        assert read_peak - read_kept < len(loaded.passwords.data) + 8 * n + read_bound + hash_bound
        assert check_kept < 8 * n + hash_bound
        assert check_peak - check_kept < n + hash_bound


class TestColumns:
    def test_cap_ranks_slices_both_columns(self):
        table = table_from_counter({b"a": 5, b"b": 3, b"c": 2, b"d": 1})
        capped = cap_ranks(table, 3)
        assert list(capped.passwords) == [b"a", b"b", b"c"]
        assert capped.counts.tolist() == [5, 3, 2]
        assert capped.counts.dtype == np.int64

    def test_validate_rejects_ragged_columns(self):
        # The password column is read-only, so the extra row is given at construction.
        table = RankFrequencyTable(passwords=PasswordColumn([b"a", b"b", b"c"]), counts=np.array([2, 1]))
        with pytest.raises(CorpusError):
            table.validate()

