"""The chunked flow file writer and parser against the row-at-a-time
writer and the whole-file parser in tests/ingest_oracle.py."""
import csv
import dataclasses
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import c2sift.flows as flows
import ingest_oracle
from c2sift.flows import CANONICAL_FIELDS, INT64_MAX, INT64_MIN, parse_flow_file, write_flow_file
from conftest import flow_table, table_rows

ADDRESSES = ["10.0.0.5", "203.0.113.7", "0.0.0.0", "255.255.255.255", "2001:db8::1", "::", "fe80::1:2"]
FLAGS = ["", "S", "a,b", 'a"b', "a\nb", "a\rb", " é"]
INTS = st.one_of(st.sampled_from([0, 1, INT64_MIN, INT64_MAX, INT64_MAX - 1, INT64_MIN + 1]), st.integers(INT64_MIN, INT64_MAX))
SMALL_CHUNK = 4

table_row = st.tuples(
    st.sampled_from(ADDRESSES),
    st.sampled_from(ADDRESSES),
    *[INTS] * len(flows.INT_FIELDS),
    st.sampled_from(FLAGS),
)


@settings(max_examples=80, deadline=None)
@given(
    n_rows=st.sampled_from([0, 1, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1]),
    rows=st.lists(table_row, min_size=SMALL_CHUNK + 1, max_size=SMALL_CHUNK + 1),
)
def test_writer_bytes_match_row_writer(n_rows, rows):
    table = flow_table(rows[:n_rows])
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(flows, "CHUNK_ROWS", SMALL_CHUNK)
        assert write_flow_file(Path(tmp) / "chunked.csv", table) == ingest_oracle.write_flow_file(Path(tmp) / "rows.csv", table) == n_rows
        assert (Path(tmp) / "chunked.csv").read_bytes() == (Path(tmp) / "rows.csv").read_bytes()


def test_writer_bytes_at_the_default_chunk():
    rows = [(ADDRESSES[i % 7], ADDRESSES[i % 5], i, 65535 - i % 9, INT64_MAX - i, 1, INT64_MIN + i, i, 6, FLAGS[i % 7]) for i in range(2 * flows.CHUNK_ROWS + 3)]
    with tempfile.TemporaryDirectory() as tmp:
        write_flow_file(Path(tmp) / "chunked.csv", flow_table(rows))
        ingest_oracle.write_flow_file(Path(tmp) / "rows.csv", flow_table(rows))
        assert (Path(tmp) / "chunked.csv").read_bytes() == (Path(tmp) / "rows.csv").read_bytes()


# Field spellings for the parse tests. None holds a character that
# str.splitlines splits on, since the oracle reads lines with it.
ADDRESS_TEXTS = ADDRESSES + ["2001:DB8::0001", " 10.0.0.5 ", "10.0.0.05", "nope", ""]
INT_TEXTS = [
    "0", "1", "7", " 7", "+7", "1_000", "٣", "-0", "-1", "80", "443", "65535", "65536", "70000", "255", "256",
    "6", "17", "58", "x", "", "1.5", "7 7", str(INT64_MAX), str(INT64_MAX + 1), str(INT64_MIN), str(INT64_MIN - 1),
    "9" * 20, "1" * 30,
]
FLAG_TEXTS = ["", "S", "SA", " F ", "a,b", "a\tb", 'a"b', " é"]
SPELLED_FIELDS = (
    [st.sampled_from(ADDRESS_TEXTS)] * 2
    + [st.sampled_from(INT_TEXTS) | st.integers(-5, 100).map(str)] * len(flows.INT_FIELDS)
    + [st.sampled_from(FLAG_TEXTS)]
)
spelled_row = st.tuples(*SPELLED_FIELDS).map(list)
# a row of the header's width, or one with a field too many or too few
any_row = st.one_of(spelled_row, spelled_row.map(lambda row: row + ["extra"]), spelled_row.map(lambda row: row[:-1]))
line = st.one_of(any_row, any_row, any_row, st.sampled_from([[], ["  "], ["", ""]]))


def flow_text(lines, delimiter, order, line_ends):
    """The header and lines as csv.writer quotes them, each line ended with
    the next of ``line_ends``; an empty line is a blank line."""
    out = []
    for i, fields in enumerate([list(CANONICAL_FIELDS)] + lines):
        if fields and len(fields) == len(order):
            fields = [fields[j] for j in order]
        buffer = io.StringIO()
        csv.writer(buffer, delimiter=delimiter, lineterminator="\n").writerow(fields)
        out.append(buffer.getvalue()[:-1] + line_ends[i % len(line_ends)])
    return "".join(out)


def assert_parse_matches_oracle(path, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flows, "CHUNK_ROWS", chunk)
        table, stats = parse_flow_file(path)
    records, oracle_stats = ingest_oracle.parse_flow_file(path)
    assert stats == oracle_stats
    assert table_rows(table) == [dataclasses.astuple(record) for record in records]
    assert list(table.ips) == ingest_oracle.address_order(path)
    return stats


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(line, max_size=12),
    delimiter=st.sampled_from([",", "\t"]),
    order=st.permutations(range(len(CANONICAL_FIELDS))),
    line_ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3),
    chunk=st.sampled_from([1, 2, 3, 5, flows.CHUNK_ROWS]),
)
@example(
    lines=[["10.0.0.5", "203.0.113.7", "70000", "2", "1" * 30, "1", "0", "5", "6", "S"]],
    delimiter=",", order=list(range(10)), line_ends=["\n"], chunk=2048,
)
def test_parse_matches_oracle(lines, delimiter, order, line_ends, chunk):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "flows.csv"
        path.write_bytes(flow_text(lines, delimiter, order, line_ends).encode("utf-8"))
        assert_parse_matches_oracle(path, chunk)


REASON_ROWS = {
    "bad-address": ["10.0.0.5", "10.0.0.256", "1", "2", "10", "1", "0", "5", "6", "S"],
    "bad-integer": ["10.0.0.5", "203.0.113.7", "1", "2", "10", "1", "0", "5", "six", "S"],
    "port-range": ["10.0.0.5", "203.0.113.7", "1", "65536", "10", "1", "0", "5", "6", "S"],
    "protocol-range": ["10.0.0.5", "203.0.113.7", "1", "2", "10", "1", "0", "5", "-1", "S"],
    "portless-protocol": ["10.0.0.5", "203.0.113.7", "0", "2", "10", "1", "0", "5", "58", "S"],
    "negative-bytes": ["10.0.0.5", "203.0.113.7", "1", "2", "-1", "-2", "0", "5", "6", "S"],
    "bad-packets": ["10.0.0.5", "203.0.113.7", "1", "2", "10", "0", "0", "5", "6", "S"],
    "bytes-lt-packets": ["10.0.0.5", "203.0.113.7", "1", "2", "10", "11", "0", "5", "6", "S"],
    "time-order": ["10.0.0.5", "203.0.113.7", "1", "2", "10", "1", "6", "5", "6", "S"],
    "int64-range": ["10.0.0.5", "203.0.113.7", "1", "2", "10", "1", str(INT64_MIN - 1), "5", "6", "S"],
}


@pytest.mark.parametrize("reason", sorted(REASON_ROWS))
def test_each_reason_from_a_row_that_fails_only_its_check(tmp_path, reason):
    path = tmp_path / "flows.csv"
    path.write_text(flow_text([REASON_ROWS[reason]], ",", range(10), ["\n"]), encoding="utf-8")
    assert assert_parse_matches_oracle(path, 2048).reject_reasons == {reason: 1}


@pytest.mark.parametrize("chunk", [1, 2, 2048])
def test_out_of_range_rows_keep_their_reasons(tmp_path, chunk):
    rows = [
        ["10.0.0.5", "203.0.113.7", "70000", "2", "1" * 30, "1", "0", "5", "6", "S"],  # port first
        ["10.0.0.5", "203.0.113.7", "1", "2", "10", "1", "0", "9" * 20, "6", "S"],
        ["nope", "203.0.113.7", "1", "2", "1" * 30, "1", "0", "5", "6", "S"],  # address first
        ["10.0.0.5", "203.0.113.7", "1", "2", "10", "1", "0", "5", "6", "S"],
    ]
    path = tmp_path / "flows.csv"
    path.write_text(flow_text(rows, ",", range(10), ["\n"]), encoding="utf-8")
    stats = assert_parse_matches_oracle(path, chunk)
    assert stats.reject_reasons == {"port-range": 1, "int64-range": 1, "bad-address": 1}
    assert stats.records_accepted == 1


@pytest.mark.parametrize("chunk", [1, 2, 3, 2048])
def test_quoted_line_breaks_straddle_chunks(tmp_path, chunk):
    """A quoted field that holds line ends reads as one row whichever chunk it starts in."""
    rows = [
        ("10.0.0.5", "203.0.113.7", 1, 2, 10, 1, 0, 5, 6, flag)
        for flag in ["S", "a\nb", "c\r\nd\n\ne", 'x"y', "", "a,b", "S"]
    ]
    path = tmp_path / "flows.csv"
    write_flow_file(path, flow_table(rows))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flows, "CHUNK_ROWS", chunk)
        table, stats = parse_flow_file(path)
    assert table_rows(table) == rows
    assert stats.records_accepted == len(rows) and stats.records_rejected == 0
