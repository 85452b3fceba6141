import numpy as np
import pytest

from c2sift.aggregate import InternalSpace, group_daily, window_day

import ingest_oracle
from conftest import DAY0, DAY0_MS, SPACE, flow_table, grouped_flows


def rec(src, dst, start=DAY0_MS, nbytes=100, packets=2, sport=50000, dport=443):
    return (src, dst, sport, dport, nbytes, packets, start, start + 1000, 6, "S")


def group(records):
    return group_daily(flow_table(records), SPACE)


def per_host(days, column):
    """host_ip -> that host's slice of a column, for one-day inputs."""
    assert len(set(days.window_date)) <= 1
    return {host: column[days.bounds[i] : days.bounds[i + 1]] for i, host in enumerate(days.host_ip)}


def test_split_external_source():
    days, non_boundary = group([rec("203.0.113.7", "10.0.0.5")])
    assert non_boundary == 0
    assert days.host_ip == ("203.0.113.7",) and days.ips[days.device[0]] == "10.0.0.5"
    assert days.initiated_by_host.tolist() == [True]
    assert days.device_port.tolist() == [443]


def test_split_internal_source():
    days, _ = group([rec("10.0.0.5", "203.0.113.7")])
    assert days.host_ip == ("203.0.113.7",)
    assert days.initiated_by_host.tolist() == [False]
    assert days.device_port.tolist() == [50000]


def test_split_non_boundary():
    days, non_boundary = group([rec("10.0.0.5", "10.1.2.3"), rec("203.0.113.7", "198.51.100.2")])
    assert non_boundary == 2
    assert len(days) == 0 and days.bounds.tolist() == [0]


def test_build_counts():
    records = [
        rec("10.0.0.1", "203.0.113.7", DAY0_MS + 10),
        rec("10.0.0.2", "203.0.113.7", DAY0_MS + 20),
        rec("10.0.0.3", "203.0.113.7", DAY0_MS + 30),
        rec("10.0.0.1", "198.51.100.9", DAY0_MS + 40),
        rec("10.0.0.2", "198.51.100.9", DAY0_MS + 50),
    ]
    days, non_boundary = group(records)
    assert non_boundary == 0
    devices = per_host(days, days.device)
    assert {h: len(d) for h, d in devices.items()} == {"203.0.113.7": 3, "198.51.100.9": 2}
    assert len(set(devices["203.0.113.7"].tolist())) == 3


def test_flows_sorted_with_tiebreak():
    records = [
        rec("10.0.0.9", "203.0.113.7", DAY0_MS + 500),
        rec("10.0.0.1", "203.0.113.7", DAY0_MS + 500),
        rec("10.0.0.5", "203.0.113.7", DAY0_MS + 100),
    ]
    days, _ = group(records)
    assert (days.start_time - DAY0_MS).tolist() == [100, 500, 500]
    assert [days.ips[d] for d in days.device] == ["10.0.0.5", "10.0.0.1", "10.0.0.9"]


def test_device_tiebreak_is_string_order():
    # numerically 10.0.0.9 < 10.0.0.10, but as strings "10.0.0.10" sorts first
    days, _ = group([rec("10.0.0.9", "203.0.113.7"), rec("10.0.0.10", "203.0.113.7")])
    assert [days.ips[d] for d in days.device] == ["10.0.0.10", "10.0.0.9"]


def test_group_by_oracle(rng):
    """10k records over 50 hosts vs an independent one-pass hash count."""
    hosts = [f"203.0.113.{i}" for i in range(1, 51)]
    records = []
    for i in range(10_000):
        h = hosts[int(rng.integers(0, 50))]
        internal = f"10.0.{int(rng.integers(0, 200))}.{int(rng.integers(1, 250))}"
        if rng.random() < 0.5:
            records.append(rec(h, internal, DAY0_MS + int(rng.integers(0, 86_400_000)), nbytes=int(rng.integers(2, 5000))))
        else:
            records.append(rec(internal, h, DAY0_MS + int(rng.integers(0, 86_400_000)), nbytes=int(rng.integers(2, 5000))))
    days, non_boundary = group(records)

    oracle_counts: dict[str, int] = {}
    oracle_bytes: dict[str, int] = {}
    for r in records:
        host = r[1] if r[0].startswith("10.") else r[0]
        oracle_counts[host] = oracle_counts.get(host, 0) + 1
        oracle_bytes[host] = oracle_bytes.get(host, 0) + r[4]
    assert non_boundary == 0
    nbytes = per_host(days, days.bytes)
    assert {h: len(b) for h, b in nbytes.items()} == oracle_counts
    assert {h: int(b.sum()) for h, b in nbytes.items()} == oracle_bytes


def test_permutation_invariance(rng):
    records = [
        rec(f"10.0.0.{int(rng.integers(1, 30))}", "203.0.113.7", DAY0_MS + int(rng.integers(0, 1000_000)))
        for _ in range(200)
    ]
    base = grouped_flows(group(records)[0])
    for _ in range(5):
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert grouped_flows(group(shuffled)[0]) == base


def test_conservation(rng):
    records = []
    for _ in range(500):
        internal = f"10.9.0.{int(rng.integers(1, 250))}"
        external = f"203.0.113.{int(rng.integers(1, 20))}"
        records.append(rec(internal, external, DAY0_MS + int(rng.integers(0, 86_000_000)), nbytes=int(rng.integers(2, 9999)), packets=int(rng.integers(1, 9))))
    records.append(rec("10.0.0.1", "10.0.0.2"))  # non-boundary
    days, non_boundary = group(records)
    boundary = records[:-1]
    assert non_boundary == 1
    assert days.bounds[-1] + non_boundary == len(records)
    assert np.all(np.diff(days.bounds) > 0)
    assert int(days.bytes.sum()) == sum(r[4] for r in boundary)
    assert int(days.packets.sum()) == sum(r[5] for r in boundary)


def test_group_daily_splits_days():
    records = [
        rec("10.0.0.1", "203.0.113.7", DAY0_MS + 10),
        rec("10.0.0.1", "203.0.113.7", DAY0_MS + 86_400_000 + 10),
    ]
    days, _ = group(records)
    assert sorted(day.isoformat() for day in days.window_date) == ["2022-01-10", "2022-01-11"]
    assert days.host_ip == ("203.0.113.7", "203.0.113.7")


def test_midnight_straddle_belongs_to_start_day():
    r = ("10.0.0.1", "203.0.113.7", 50000, 443, 100, 2, DAY0_MS + 86_399_000, DAY0_MS + 86_401_000, 6, "")
    assert window_day(r[6]) == DAY0
    days, _ = group([r])
    assert days.window_date == (DAY0,)
    assert days.bounds.tolist() == [0, 1]


def test_internal_space_file(tmp_path):
    p = tmp_path / "space.txt"
    p.write_text("# devices\n10.0.0.0/8\n192.168.0.0/16\n", encoding="utf-8")
    space = InternalSpace.from_file(p)
    assert space.inside(["192.168.3.4", "203.0.113.7"]).tolist() == [True, False]


def test_internal_space_mask_test_matches_per_address_oracle():
    space = InternalSpace(["10.0.0.0/8", "192.168.4.0/22", "172.16.0.1/12", "fd00::/8", "2001:db8:0:8000::/49", "::/127"])
    ips = [
        "10.0.0.1", "10.255.255.255", "11.0.0.0", "9.255.255.255", "192.168.3.255", "192.168.4.0",
        "192.168.7.255", "192.168.8.0", "172.31.0.9", "172.32.0.0", "0.0.0.0", "255.255.255.255",
        "fd00::1", "fdff:ffff::", "fe00::", "fc00::1", "2001:db8:0:8000::1", "2001:db8:0:7fff::1",
        "2001:DB8:0:FFFF::", "::", "::1", "::2", "::ffff:10.0.0.1", "::a00:1", "fd00::1%eth0",
    ]
    assert space.inside(ips).tolist() == [ingest_oracle.contains(space, ip) for ip in ips]
    assert space.inside(ips).sum() == 12
    assert space.inside([]).tolist() == []


def test_internal_space_empty_rejected():
    with pytest.raises(ValueError):
        InternalSpace([])
