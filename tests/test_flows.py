import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2sift.flows import (
    CANONICAL_FIELDS,
    FlowRecord,
    build_record,
    parse_flow_file,
    read_schema,
    record_to_row,
    write_flow_file,
)

HEADER = ",".join(CANONICAL_FIELDS)


def write_lines(tmp_path, lines, name="flows.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_parse_simple_row(tmp_path):
    row = "10.0.0.5,203.0.113.7,50432,443,1500,10,1640995200000,1640995201000,6,S"
    records, stats = parse_flow_file(write_lines(tmp_path, [HEADER, row]))
    assert stats.records_accepted == 1 and stats.records_rejected == 0
    rec = records[0]
    assert rec.bytes == 1500 and rec.packets == 10
    assert rec.src_ip == "10.0.0.5" and rec.dst_port == 443
    assert rec.flags == "S"


def test_time_order_rejected(tmp_path):
    row = "10.0.0.5,203.0.113.7,50432,443,1500,10,1640995201000,1640995200000,6,S"
    records, stats = parse_flow_file(write_lines(tmp_path, [HEADER, row]))
    assert records == []
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
    records, stats = parse_flow_file(write_lines(tmp_path, [HEADER, row, good]))
    assert len(records) == 1
    assert stats.records_accepted == 1 and stats.records_rejected == 1
    assert stats.reject_reasons == {"field-count": 1}


def test_icmp_with_zero_ports_accepted(tmp_path):
    row = "10.0.0.5,203.0.113.7,0,0,84,1,5,9,1,"
    records, stats = parse_flow_file(write_lines(tmp_path, [HEADER, row]))
    assert stats.records_accepted == 1
    assert records[0].protocol == 1


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
    records, stats = parse_flow_file(path)

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
    assert len(records) == 997


def test_order_preserved(tmp_path):
    rows = [
        f"10.0.0.{i},203.0.113.7,50000,443,{100 + i},2,{1000 + i},{2000 + i},6," for i in (5, 3, 9, 1)
    ]
    records, _ = parse_flow_file(write_lines(tmp_path, [HEADER] + rows))
    assert [r.src_ip for r in records] == ["10.0.0.5", "10.0.0.3", "10.0.0.9", "10.0.0.1"]


def test_missing_mapped_column_fatal(tmp_path):
    path = write_lines(tmp_path, ["src_ip,dst_ip", "10.0.0.5,203.0.113.7"])
    with pytest.raises(ValueError, match="missing mapped column"):
        parse_flow_file(path)


def test_unreadable_file_fatal(tmp_path):
    with pytest.raises(ValueError, match="cannot read"):
        parse_flow_file(tmp_path / "absent.csv")


def test_custom_schema_and_tabs(tmp_path):
    schema_path = tmp_path / "schema.cfg"
    schema_path.write_text(
        "\n".join(
            [
                "src_ip = SrcAddr",
                "dst_ip = DstAddr",
                "src_port = Sport",
                "dst_port = Dport",
                "bytes = SrcBytes",
                "packets = TotPkts",
                "start_time = StartTime",
                "end_time = LastTime",
                "protocol = Proto",
                "flags = State",
            ]
        ),
        encoding="utf-8",
    )
    schema = read_schema(schema_path)
    header = "\t".join(["StartTime", "LastTime", "SrcAddr", "DstAddr", "Sport", "Dport", "SrcBytes", "TotPkts", "Proto", "State"])
    row = "\t".join(["100", "200", "10.0.0.5", "203.0.113.7", "50000", "443", "99", "3", "6", "SA"])
    records, stats = parse_flow_file(write_lines(tmp_path, [header, row]), schema)
    assert stats.records_accepted == 1
    assert records[0].bytes == 99 and records[0].flags == "SA"


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
    record = FlowRecord(
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
    reparsed = build_record(dict(zip(CANONICAL_FIELDS, record_to_row(record))))
    assert reparsed == record


def test_write_then_parse_file_round_trip(tmp_path):
    records = [
        FlowRecord("10.0.0.5", "203.0.113.7", 50000, 443, 100, 2, 5, 10, 6, "S"),
        FlowRecord("2001:db8::1", "203.0.113.7", 0, 0, 84, 1, 7, 7, 17, ""),
    ]
    path = tmp_path / "out.csv"
    assert write_flow_file(path, records) == 2
    parsed, stats = parse_flow_file(path)
    assert parsed == records
    assert stats.records_rejected == 0
