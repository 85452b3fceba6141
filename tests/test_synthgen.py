import csv

import numpy as np
import pytest

from c2sift.aggregate import InternalSpace, group_daily
from c2sift.features import FeatureConfig, featurize_aggregates
from c2sift.flows import parse_flow_file
from c2sift.synthgen import (
    ArrivalSpec,
    HostProfile,
    ScenarioConfig,
    SizeSpec,
    default_scenario,
    generate,
    overlap_scenario,
    read_labels,
)

SPACE = InternalSpace(["10.0.0.0/8"])
CFG = FeatureConfig()


def small_scenario(seed=0, **overrides):
    cfg = default_scenario(seed=seed, n_c2=5, n_benign=10)
    return cfg if not overrides else cfg.__class__(**{**cfg.__dict__, **overrides})


def run_generate(tmp_path, cfg, tag=""):
    flows = tmp_path / f"flows{tag}.csv"
    labels = tmp_path / f"labels{tag}.csv"
    summary = generate(cfg, flows, labels)
    return flows, labels, summary


def featurize(flows_path):
    """host_ip -> {feature name: value} for a one-day flow file."""
    table, _ = parse_flow_file(flows_path)
    data = featurize_aggregates(group_daily(table, SPACE)[0], CFG)
    return {host: dict(zip(data.feature_names, row)) for (host, _), row in zip(data.row_keys, data.X.tolist())}


def test_zero_jitter_beacon_is_perfectly_periodic(tmp_path):
    base = default_scenario(seed=3, n_c2=2, n_benign=1)
    c2 = HostProfile(
        bytes_spec=base.c2.bytes_spec,
        packets_spec=base.c2.packets_spec,
        arrival=ArrivalSpec("beacon", (60.0, 60.0), jitter_frac=0.0),
        service_ports=(443,),
        devices_range=(5, 10),
    )
    cfg = ScenarioConfig(n_benign_hosts=1, n_c2_hosts=2, benign=base.benign, c2=c2, seed=3)
    flows_path, labels_path, _ = run_generate(tmp_path, cfg)
    labels = read_labels(labels_path)
    vectors = featurize(flows_path)
    for host, label in labels.items():
        if label == 1:
            vec = vectors[host]
            assert vec["periodicity_score"] == 1.0
            assert vec["sd_gap"] == 0.0


def test_zero_sigma_benign_constant_sizes(tmp_path):
    base = default_scenario(seed=4, n_c2=1, n_benign=2)
    benign = HostProfile(
        bytes_spec=SizeSpec("lognormal", np.log(300.0), 0.0),
        packets_spec=base.benign.packets_spec,
        arrival=base.benign.arrival,
        service_ports=base.benign.service_ports,
        devices_range=(1, 5),
    )
    cfg = ScenarioConfig(n_benign_hosts=2, n_c2_hosts=1, benign=benign, c2=base.c2, seed=4)
    flows_path, labels_path, _ = run_generate(tmp_path, cfg)
    labels = read_labels(labels_path)
    for host, vec in featurize(flows_path).items():
        if labels[host] == 0:
            qs = [vec[f"bytes_q{5 * i}"] for i in range(1, 21)]
            assert len(set(qs)) == 1
            assert vec["bytes_sd"] == 0.0


def test_event_replay_oracle(tmp_path):
    """Re-read the flow file with a bare csv reader and recount per host."""
    cfg = default_scenario(seed=5, n_c2=4, n_benign=8)
    flows_path, _, summary = run_generate(tmp_path, cfg)
    counts: dict[str, int] = {}
    totals: dict[str, int] = {}
    with open(flows_path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            host = row["dst_ip"] if row["src_ip"].startswith("10.") else row["src_ip"]
            counts[host] = counts.get(host, 0) + 1
            totals[host] = totals.get(host, 0) + int(row["bytes"])
    assert counts == {h: p.n_flows for h, p in summary.hosts.items()}
    assert totals == {h: p.total_bytes for h, p in summary.hosts.items()}


def test_deterministic_bitwise(tmp_path):
    cfg = small_scenario(seed=6)
    f1, l1, _ = run_generate(tmp_path, cfg, tag="_a")
    f2, l2, _ = run_generate(tmp_path, cfg, tag="_b")
    assert f1.read_bytes() == f2.read_bytes()
    assert l1.read_bytes() == l2.read_bytes()


def test_seed_changes_output(tmp_path):
    f1, _, _ = run_generate(tmp_path, small_scenario(seed=1), tag="_a")
    f2, _, _ = run_generate(tmp_path, small_scenario(seed=2), tag="_b")
    assert f1.read_bytes() != f2.read_bytes()


def test_label_fidelity(tmp_path):
    cfg = small_scenario(seed=7)
    flows_path, labels_path, _ = run_generate(tmp_path, cfg)
    labels = read_labels(labels_path)
    seen = set()
    with open(flows_path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            seen.add(row["dst_ip"] if row["src_ip"].startswith("10.") else row["src_ip"])
    assert seen == set(labels)
    assert len(labels) == cfg.n_benign_hosts + cfg.n_c2_hosts


def test_shape_separation_sd_gap(tmp_path):
    cfg = default_scenario(seed=8, n_c2=30, n_benign=30)
    flows_path, labels_path, _ = run_generate(tmp_path, cfg)
    labels = read_labels(labels_path)
    sd_gaps = {0: [], 1: []}
    for host_ip, values in featurize(flows_path).items():
        sd_gaps[labels[host_ip]].append(values["sd_gap"])
    assert len(sd_gaps[0]) == 30 and len(sd_gaps[1]) == 30
    assert np.mean(sd_gaps[1]) < np.mean(sd_gaps[0])


def test_parsed_cleanly_and_one_day(tmp_path):
    cfg = small_scenario(seed=9)
    flows_path, _, _ = run_generate(tmp_path, cfg)
    table, stats = parse_flow_file(flows_path)
    assert stats.records_rejected == 0
    days = set((table.start_time // 86_400_000).tolist())
    assert len(days) == 1


def test_flows_ordered_by_start_then_address_strings(tmp_path):
    # a full default day: ~80k flows over 86.4M ms, so some start times tie
    flows_path, _, _ = run_generate(tmp_path, default_scenario(seed=10))
    with open(flows_path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    keys = [(int(r["start_time"]), r["src_ip"], r["dst_ip"], int(r["src_port"]), int(r["dst_port"])) for r in rows]
    assert keys == sorted(keys)
    assert len({key[0] for key in keys}) < len(keys)


def test_overlap_scenario_profiles_match():
    cfg = overlap_scenario(seed=0)
    assert cfg.benign.packets_spec == cfg.c2.packets_spec
    assert cfg.benign.arrival == cfg.c2.arrival
    assert cfg.benign.service_ports == cfg.c2.service_ports
    assert cfg.benign.devices_range == cfg.c2.devices_range
    # byte distributions: same mean and variance, different family
    assert cfg.c2.bytes_spec.kind == "uniform_int"
    assert cfg.benign.bytes_spec.kind == "lognormal"
    mu, sigma = cfg.benign.bytes_spec.a, cfg.benign.bytes_spec.b
    mean = np.exp(mu + sigma**2 / 2)
    var = mean**2 * (np.exp(sigma**2) - 1)
    assert mean == pytest.approx(300.0, rel=1e-9)
    assert var == pytest.approx(300.0**2 / 12, rel=1e-9)


def test_c2_bytes_outside_benign_support_rejected():
    base = overlap_scenario(seed=0)
    benign = HostProfile(
        bytes_spec=SizeSpec("uniform_int", 100, 200),
        packets_spec=base.benign.packets_spec,
        arrival=base.benign.arrival,
        service_ports=base.benign.service_ports,
        devices_range=base.benign.devices_range,
    )
    with pytest.raises(ValueError, match="within benign support"):
        ScenarioConfig(n_benign_hosts=1, n_c2_hosts=1, benign=benign, c2=base.c2, seed=0)


def test_counts_validated():
    base = overlap_scenario(seed=0)
    with pytest.raises(ValueError):
        ScenarioConfig(n_benign_hosts=0, n_c2_hosts=1, benign=base.benign, c2=base.c2, seed=0)
