import dataclasses
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_oracle
from c2sift.flows import CANONICAL_FIELDS, parse_flow_file, read_schema, write_flow_file
from conftest import flow_table, table_rows

HEADER = ",".join(CANONICAL_FIELDS)


def write_lines(tmp_path, lines, name="flows.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_parse_simple_row(tmp_path):
    row = "10.0.0.5,203.0.113.7,50432,443,1500,10,1640995200000,1640995201000,6,S"
    table, stats = parse_flow_file(write_lines(tmp_path, [HEADER, row]))
    assert stats.records_accepted == 1 and stats.records_rejected == 0
    assert table.bytes.tolist() == [1500] and table.packets.tolist() == [10]
    assert table.ips[table.src[0]] == "10.0.0.5" and table.dst_port.tolist() == [443]
    assert table.flags == ("S",)


def test_time_order_rejected(tmp_path):
    row = "10.0.0.5,203.0.113.7,50432,443,1500,10,1640995201000,1640995200000,6,S"
    table, stats = parse_flow_file(write_lines(tmp_path, [HEADER, row]))
    assert len(table) == 0
    assert stats.reject_reasons == {"time-order": 1}


@pytest.mark.parametrize(
    "row,reason",
    [
        ("nope,203.0.113.7,1,2,10,1,0,0,6,", "bad-address"),
        ("10.0.0.5,203.0.113.7,99999,2,10,1,0,0,6,", "port-range"),
        ("10.0.0.5,203.0.113.7,1,2,10,1,0,0,999,", "protocol-range"),
        ("10.0.0.5,203.0.113.7,1,2,10,0,0,0,6,", "bad-packets"),
        ("10.0.0.5,203.0.113.7,1,2,3,10,0,0,6,", "bytes-lt-packets"),
        ("10.0.0.5,203.0.113.7,1,2,ten,1,0,0,6,", "bad-integer"),
        ("10.0.0.5,203.0.113.7,1,2,10,1,0,0,1,", "portless-protocol"),
        ("10.0.0.5,203.0.113.7,1,2,-1,1,0,0,6,", "negative-bytes"),
        (f"10.0.0.5,203.0.113.7,1,2,{2**63},1,0,0,6,", "int64-range"),
    ],
)
def test_rejection_reasons(tmp_path, row, reason):
    _, stats = parse_flow_file(write_lines(tmp_path, [HEADER, row]))
    assert stats.reject_reasons == {reason: 1}


@pytest.mark.parametrize(
    "row",
    [
        "10.0.0.5,203.0.113.7,50432,443,1500,10,1640995200000,1640995201000,6,S,extra",
        "10.0.0.5,203.0.113.7,50432,443,1500,10,1640995200000,1640995201000,6",
    ],
    ids=["too-long", "too-short"],
)
def test_field_count_must_match_header(tmp_path, row):
    good = "10.0.0.5,203.0.113.7,50432,443,1500,10,1640995200000,1640995201000,6,S"
    table, stats = parse_flow_file(write_lines(tmp_path, [HEADER, row, good]))
    assert len(table) == 1
    assert stats.records_accepted == 1 and stats.records_rejected == 1
    assert stats.reject_reasons == {"field-count": 1}


def test_icmp_with_zero_ports_accepted(tmp_path):
    row = "10.0.0.5,203.0.113.7,0,0,84,1,5,9,1,"
    table, stats = parse_flow_file(write_lines(tmp_path, [HEADER, row]))
    assert stats.records_accepted == 1
    assert table.protocol.tolist() == [1]


def test_thousand_rows_against_line_validator(tmp_path):
    """Independent oracle: a minimal row-by-row validator recounts the file."""
    lines = [HEADER]
    for i in range(997):
        start = 1_640_995_200_000 + i
        lines.append(f"10.0.0.{i % 250 + 1},203.0.113.7,50000,443,{100 + i},2,{start},{start + 10},6,S")
    lines.insert(200, "10.0.0.5,203.0.113.7,50000,443,100,2,90,10,6,S")  # end < start
    lines.insert(500, "10.0.0.5,203.0.113.7,50000,443,1,2,0,10,6,S")  # bytes < packets
    lines.insert(800, "not-an-ip,203.0.113.7,50000,443,100,2,0,10,6,S")
    path = write_lines(tmp_path, lines)
    table, stats = parse_flow_file(path)

    def row_ok(parts):
        try:
            import ipaddress

            ipaddress.ip_address(parts[0]), ipaddress.ip_address(parts[1])
            sp, dp, b, p = int(parts[2]), int(parts[3]), int(parts[4]), int(parts[5])
            s, e, proto = int(parts[6]), int(parts[7]), int(parts[8])
        except ValueError:
            return False
        if not (0 <= sp <= 65535 and 0 <= dp <= 65535 and 0 <= proto <= 255):
            return False
        return p >= 1 and b >= p and e >= s and b >= 0

    raw_rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    oracle_ok = sum(1 for parts in raw_rows if row_ok(parts))
    assert stats.records_accepted == oracle_ok == 997
    assert stats.records_rejected == len(raw_rows) - oracle_ok == 3
    assert stats.lines_read == stats.records_accepted + stats.records_rejected
    assert len(table) == 997


def test_order_preserved(tmp_path):
    rows = [
        f"10.0.0.{i},203.0.113.7,50000,443,{100 + i},2,{1000 + i},{2000 + i},6," for i in (5, 3, 9, 1)
    ]
    table, _ = parse_flow_file(write_lines(tmp_path, [HEADER] + rows))
    assert [table.ips[code] for code in table.src] == ["10.0.0.5", "10.0.0.3", "10.0.0.9", "10.0.0.1"]


def test_missing_mapped_column_fatal(tmp_path):
    path = write_lines(tmp_path, ["src_ip,dst_ip", "10.0.0.5,203.0.113.7"])
    with pytest.raises(ValueError, match="missing mapped column"):
        parse_flow_file(path)


def test_empty_file_fatal(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty file"):
        parse_flow_file(path)


def test_unreadable_file_fatal(tmp_path):
    with pytest.raises(ValueError, match="cannot read"):
        parse_flow_file(tmp_path / "absent.csv")


ARGUS_COLUMNS = {
    "src_ip": "SrcAddr",
    "dst_ip": "DstAddr",
    "src_port": "Sport",
    "dst_port": "Dport",
    "bytes": "SrcBytes",
    "packets": "TotPkts",
    "start_time": "StartTime",
    "end_time": "LastTime",
    "protocol": "Proto",
    "flags": "State",
}
# a file's column order under that schema
ARGUS_ORDER = ("start_time", "end_time", "src_ip", "dst_ip", "src_port", "dst_port", "bytes", "packets", "protocol", "flags")


def argus_schema(tmp_path):
    schema_path = tmp_path / "schema.cfg"
    schema_path.write_text("\n".join(f"{k} = {v}" for k, v in ARGUS_COLUMNS.items()), encoding="utf-8")
    return read_schema(schema_path)


def test_custom_schema_and_tabs(tmp_path):
    schema = argus_schema(tmp_path)
    header = "\t".join(ARGUS_COLUMNS[name] for name in ARGUS_ORDER)
    row = "\t".join(["100", "200", "10.0.0.5", "203.0.113.7", "50000", "443", "99", "3", "6", "SA"])
    table, stats = parse_flow_file(write_lines(tmp_path, [header, row]), schema)
    assert stats.records_accepted == 1
    assert table.bytes.tolist() == [99] and table.flags == ("SA",)


def test_schema_missing_field(tmp_path):
    p = tmp_path / "schema.cfg"
    p.write_text("src_ip = a\n", encoding="utf-8")
    with pytest.raises(ValueError, match="schema missing"):
        read_schema(p)


record_strategy = st.builds(
    dict,
    src_ip=st.sampled_from(["10.0.0.5", "192.168.1.9", "2001:db8::1"]),
    dst_ip=st.sampled_from(["203.0.113.7", "198.51.100.23", "2001:db8::9"]),
    src_port=st.integers(0, 65535),
    dst_port=st.integers(0, 65535),
    packets=st.integers(1, 10_000),
    extra_bytes=st.integers(0, 10_000_000),
    start=st.integers(0, 2_000_000_000_000),
    extra_time=st.integers(0, 100_000_000),
    protocol=st.sampled_from([6, 17]),
    flags=st.sampled_from(["", "S", "SA", "FPA"]),
)


@settings(max_examples=60, deadline=None)
@given(spec=record_strategy)
def test_round_trip(spec):
    record = ingest_oracle.FlowRecord(
        src_ip=spec["src_ip"],
        dst_ip=spec["dst_ip"],
        src_port=spec["src_port"],
        dst_port=spec["dst_port"],
        bytes=spec["packets"] + spec["extra_bytes"],
        packets=spec["packets"],
        start_time=spec["start"],
        end_time=spec["start"] + spec["extra_time"],
        protocol=spec["protocol"],
        flags=spec["flags"],
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "one.csv"
        write_flow_file(path, flow_table([dataclasses.astuple(record)]))
        assert path.read_text(encoding="utf-8").splitlines()[1] == ",".join(ingest_oracle.record_to_row(record))
        table, stats = parse_flow_file(path)
    assert stats.records_accepted == 1
    assert table_rows(table) == [dataclasses.astuple(record)]


def test_write_then_parse_file_round_trip(tmp_path):
    rows = [
        ("10.0.0.5", "203.0.113.7", 50000, 443, 100, 2, 5, 10, 6, "S"),
        ("2001:db8::1", "203.0.113.7", 0, 0, 84, 1, 7, 7, 17, ""),
    ]
    path = tmp_path / "out.csv"
    assert write_flow_file(path, flow_table(rows)) == 2
    parsed, stats = parse_flow_file(path)
    assert table_rows(parsed) == rows
    assert stats.records_rejected == 0


# rows with rejects, repeated addresses and one address in two spellings
STREAM_ROWS = [
    ["10.0.0.5", "203.0.113.7", "50000", "443", "1500", "10", "1000", "2000", "6", "S"],
    ["2001:DB8::0001", "10.0.0.5", "443", "50000", "99", "3", "1001", "1500", "17", ""],
    ["2001:db8::1", "10.0.0.6", "443", "50001", "80", "2", "1002", "1700", "6", "SA"],
    ["nope", "10.0.0.6", "443", "50001", "80", "2", "1002", "1700", "6", "SA"],
    ["10.0.0.6", "203.0.113.7", "1", "2", "10", "1", "9", "5", "6", "F"],
    ["10.0.0.6", "203.0.113.7", " 7 ", "8", "10", "1", "9", "15", "6", " F "],
    ["10.0.0.5", "203.0.113.7", "1", "2", "10", "1", "0", "0", "6"],
    ["10.0.0.5", "203.0.113.7", "50000", "443", "1500", "10", "1000", "2000", "6", "S"],
]


def stream_file(tmp_path, variant):
    if variant == "tab-schema":
        order = [CANONICAL_FIELDS.index(name) for name in ARGUS_ORDER]
        lines = ["\t".join(ARGUS_COLUMNS[name] for name in ARGUS_ORDER)]
        lines += ["\t".join(row[i] for i in order if i < len(row)) for row in STREAM_ROWS]
        text = "\n".join(lines) + "\n"
    else:
        lines = [HEADER] + [",".join(row) for row in STREAM_ROWS]
        text = {
            "lf": "\n".join(lines) + "\n",
            "crlf": "\r\n".join(lines) + "\r\n",
            "blank-lines": "\n\n".join(lines) + "\n\n\n",
            "no-final-newline": "\n".join(lines),
        }[variant]
    path = tmp_path / f"{variant}.csv"
    path.write_bytes(text.encode("utf-8"))
    return path, argus_schema(tmp_path) if variant == "tab-schema" else None


@pytest.mark.parametrize("variant", ["crlf", "blank-lines", "no-final-newline", "tab-schema"])
def test_stream_parse_matches_oracle(tmp_path, variant):
    path, schema = stream_file(tmp_path, variant)
    table, stats = parse_flow_file(path, schema)
    records, oracle_stats = ingest_oracle.parse_flow_file(path, schema)
    assert stats == oracle_stats
    assert table_rows(table) == [dataclasses.astuple(r) for r in records]
    # every spelling of a file holds the same rows
    reference, reference_stats = parse_flow_file(stream_file(tmp_path, "lf")[0])
    assert stats == reference_stats
    assert stats.reject_reasons == {"bad-address": 1, "time-order": 1, "field-count": 1}
    assert table_rows(table) == table_rows(reference)
    assert len(table.ips) == 4  # 2001:DB8::0001 and 2001:db8::1 are one address
