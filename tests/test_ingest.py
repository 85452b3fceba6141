"""The columnar ingest path against the object path in tests/ingest_oracle.py.

Both read the same flow file; host-day keys, row order, grouped flows,
feature names and every feature value must agree bit for bit.
"""
import dataclasses
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_oracle
from c2sift.aggregate import InternalSpace, group_daily
from c2sift.features import FeatureConfig, feature_names, featurize_aggregates
from c2sift.flows import CANONICAL_FIELDS, parse_flow_file
from c2sift.synthgen import default_scenario, generate
from conftest import DAY0_MS, grouped_flows, table_rows

SPACE = InternalSpace(["10.0.0.0/8", "fd00::/8"])
CFG = FeatureConfig()
DAY_MS = 86_400_000
# "::c612:101" is 198.18.1.1 as an integer: the numeric host order ties;
# "2001:DB8::7" is "2001:db8::7" spelled another way
HOSTS = ("203.0.113.7", "203.0.113.10", "198.18.1.1", "::c612:101", "2001:db8::7", "2001:DB8::7")
# "10.0.0.10" sorts before "10.0.0.9" as a string
DEVICES = ("10.0.0.9", "10.0.0.10", "10.0.0.5", "fd00::1", "fd00::a")


def write_rows(path: Path, rows) -> Path:
    lines = [",".join(CANONICAL_FIELDS)] + [",".join(map(str, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def oracle_grouped(aggregates) -> list[tuple]:
    return [
        (agg.host_ip, agg.window_date, [dataclasses.astuple(f)[1:] for f in agg.flows]) for agg in aggregates.values()
    ]


def assert_paths_agree(path: Path) -> int:
    """Parse, group and featurize ``path`` both ways; returns the host-day count."""
    table, stats = parse_flow_file(path)
    records, oracle_stats = ingest_oracle.parse_flow_file(path)
    assert stats == oracle_stats
    assert table_rows(table) == [dataclasses.astuple(r) for r in records]

    days, non_boundary = group_daily(table, SPACE)
    aggregates, oracle_non_boundary = ingest_oracle.group_daily(records, SPACE)
    assert non_boundary == oracle_non_boundary
    assert grouped_flows(days) == oracle_grouped(aggregates)

    data = featurize_aggregates(days, CFG)
    expected = ingest_oracle.featurize_aggregates(aggregates.values(), CFG)
    assert data.row_keys == tuple((host, day.isoformat()) for host, day, _ in expected)
    assert data.feature_names == feature_names(CFG)
    assert data.X.dtype == np.float64 and data.y is None
    want = np.array([row for _, _, row in expected]).reshape(-1, len(data.feature_names))
    assert data.X.shape == want.shape and data.X.tobytes() == want.tobytes()
    return data.n_rows


@st.composite
def flow_rows(draw) -> tuple:
    """A canonical row: mostly boundary flows, some internal or external on both ends."""
    host, device = draw(st.sampled_from(HOSTS)), draw(st.sampled_from(DEVICES))
    device_port, host_port = draw(st.sampled_from([443, 80, 50000])), draw(st.sampled_from([443, 80, 51000]))
    kind = draw(st.sampled_from(["boundary", "boundary", "boundary", "internal", "external"]))
    if kind == "internal":
        src, dst = device, draw(st.sampled_from(("10.0.0.5", "fd00::a")))
    elif kind == "external":
        src, dst = host, "198.51.100.2"
    elif draw(st.booleans()):
        src, dst = host, device
    else:
        src, dst = device, host
    src_port, dst_port = (host_port, device_port) if src == host else (device_port, host_port)
    packets = draw(st.integers(1, 5))
    nbytes = packets + draw(st.integers(0, 1000))
    start = DAY0_MS + draw(st.integers(0, 2)) * DAY_MS + draw(st.sampled_from([0, 1, 500, 500, 60_000, DAY_MS - 1_000, DAY_MS - 1]))
    end = start + draw(st.sampled_from([0, 1_000, 5_000]))
    return (src, dst, src_port, dst_port, nbytes, packets, start, end, 6, "S")


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(flow_rows(), min_size=1, max_size=40))
def test_generated_flows_match_object_path(rows):
    with tempfile.TemporaryDirectory() as tmp:
        assert_paths_agree(write_rows(Path(tmp) / "flows.csv", rows))


def test_every_edge_case_at_once(tmp_path):
    rows = [
        # ties in start_time, then in device string, then in device port
        ("10.0.0.9", "203.0.113.7", 50000, 443, 300, 2, DAY0_MS + 500, DAY0_MS + 900, 6, "S"),
        ("10.0.0.10", "203.0.113.7", 50000, 443, 310, 2, DAY0_MS + 500, DAY0_MS + 900, 6, "S"),
        ("203.0.113.7", "10.0.0.9", 443, 80, 320, 3, DAY0_MS + 500, DAY0_MS + 900, 6, "S"),
        ("10.0.0.9", "203.0.113.7", 50000, 443, 330, 3, DAY0_MS + 500, DAY0_MS + 700, 6, "S"),
        # a flow straddling midnight into the next day, and the next day's own flow
        ("10.0.0.5", "203.0.113.7", 50000, 443, 100, 1, DAY0_MS + DAY_MS - 1, DAY0_MS + DAY_MS + 4000, 6, "S"),
        ("10.0.0.5", "203.0.113.7", 50000, 443, 100, 1, DAY0_MS + DAY_MS, DAY0_MS + DAY_MS + 1, 6, "S"),
        # non-boundary rows
        ("10.0.0.5", "fd00::1", 1, 2, 10, 1, DAY0_MS, DAY0_MS, 6, ""),
        ("198.51.100.2", "203.0.113.7", 1, 2, 10, 1, DAY0_MS, DAY0_MS, 6, ""),
        # single-flow hosts, IPv6 and IPv4 with equal integer values, one spelled twice
        ("fd00::a", "::c612:101", 50000, 443, 50, 5, DAY0_MS + 7, DAY0_MS + 8, 17, ""),
        ("198.18.1.1", "10.0.0.5", 443, 50000, 51, 5, DAY0_MS + 7, DAY0_MS + 8, 17, ""),
        ("2001:DB8::7", "fd00::1", 443, 50000, 60, 2, DAY0_MS + 9, DAY0_MS + 90, 6, "S"),
        ("fd00::1", "2001:db8::7", 50000, 443, 61, 2, DAY0_MS + 9, DAY0_MS + 95, 6, "S"),
    ]
    assert assert_paths_agree(write_rows(tmp_path / "flows.csv", rows)) == 5


def test_default_scenario_day_matches_object_path(tmp_path):
    generate(default_scenario(seed=21), tmp_path / "flows.csv", tmp_path / "labels.csv")
    assert assert_paths_agree(tmp_path / "flows.csv") == 300
