import ipaddress
import json

import pytest

import c2sift.cli as cli
from c2sift.triage import (
    OUTCOME_CANDIDATE,
    OUTCOME_KNOWN_MALICIOUS,
    OUTCOME_SUPPRESSED_ALLOW,
    OUTCOME_SUPPRESSED_CDN,
    OUTCOME_SUPPRESSED_RULES,
    OUTCOME_SUPPRESSED_SINKHOLE,
    TriageConfig,
    build_rules,
    load_ip_list,
    triage,
    write_decisions,
)


def make_list(tmp_path, name, kind, lines):
    path = tmp_path / f"{name}.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_ip_list(path, kind)


def feature_row(device_count=10.0, periodicity=0.9):
    return {"device_count": device_count, "periodicity_score": periodicity}


def rows_for(flagged, **kwargs):
    return {(h, d): feature_row(**kwargs) for h, d, _ in flagged}


RULES = build_rules(TriageConfig(threshold=0.5, min_devices=2, min_periodicity=0.1))


class TestLoad:
    def test_addresses_and_cidr(self, tmp_path):
        src = make_list(tmp_path, "deny", "deny", ["198.51.100.1", "203.0.113.0/24"])
        assert src.entry_count == 2
        assert src.contains("198.51.100.1")
        assert src.contains("203.0.113.77")
        assert not src.contains("198.51.100.2")

    def test_comments_blanks_duplicates(self, tmp_path):
        src = make_list(tmp_path, "deny", "deny", ["# c2 feeds", "", "198.51.100.1", "198.51.100.1  # dup"])
        assert src.entry_count == 1

    def test_invalid_lines_reported(self, tmp_path):
        src = make_list(tmp_path, "deny", "deny", ["198.51.100.1", "not-an-ip"])
        assert src.invalid_lines == ("not-an-ip",)
        assert src.entry_count == 1

    def test_unreadable_fatal(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_ip_list(tmp_path / "absent.txt", "deny")

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            make_list(tmp_path, "x", "blocky", ["198.51.100.1"])

    def test_membership_matches_linear_scan(self, tmp_path, rng):
        entries = [str(ipaddress.ip_address(int(v))) for v in rng.integers(2**24, 2**31, size=9_000)]
        entries += [f"{int(a)}.{int(b)}.0.0/16" for a, b in rng.integers(1, 200, size=(1_000, 2))]
        src = make_list(tmp_path, "big", "deny", entries)
        nets = [ipaddress.ip_network(e, strict=False) for e in entries if "/" in e]
        addrs = {str(ipaddress.ip_address(e)) for e in entries if "/" not in e}
        probes = [str(ipaddress.ip_address(int(v))) for v in rng.integers(2**24, 2**31, size=100)]
        probes += entries[:5]
        for probe in probes:
            want = probe in addrs or any(ipaddress.ip_address(probe) in n for n in nets)
            assert src.contains(probe) == want


class TestTriage:
    def test_denylist_beats_everything(self, tmp_path):
        deny = make_list(tmp_path, "deny", "deny", ["198.18.1.1"])
        allow = make_list(tmp_path, "allow", "allow", ["198.18.1.1"])
        flagged = [("198.18.1.1", "2022-01-10", 0.01)]
        decisions = triage(flagged, [allow, deny], RULES, rows_for(flagged))
        assert decisions[0].outcome == OUTCOME_KNOWN_MALICIOUS

    def test_allowlist_suppresses_high_score(self, tmp_path):
        allow = make_list(tmp_path, "allow", "allow", ["198.18.1.1"])
        flagged = [("198.18.1.1", "2022-01-10", 0.99)]
        decisions = triage(flagged, [allow], RULES, rows_for(flagged))
        assert decisions[0].outcome == OUTCOME_SUPPRESSED_ALLOW

    def test_cdn_and_sinkhole_outcomes(self, tmp_path):
        cdn = make_list(tmp_path, "cdn", "cdn_cloud", ["198.18.0.0/24"])
        sink = make_list(tmp_path, "sink", "sinkhole", ["198.18.1.0/24"])
        flagged = [("198.18.0.9", "2022-01-10", 0.9), ("198.18.1.9", "2022-01-10", 0.9)]
        decisions = triage(flagged, [cdn, sink], RULES, rows_for(flagged))
        assert decisions[0].outcome == OUTCOME_SUPPRESSED_CDN
        assert decisions[1].outcome == OUTCOME_SUPPRESSED_SINKHOLE

    def test_candidate_requires_all_rules(self):
        flagged = [("198.18.1.1", "2022-01-10", 0.9)]
        good = triage(flagged, [], RULES, rows_for(flagged))
        assert good[0].outcome == OUTCOME_CANDIDATE
        assert set(good[0].matched_rules) == {"min_score", "min_devices", "min_periodicity"}

        low_score = [("198.18.1.1", "2022-01-10", 0.3)]
        failed = triage(low_score, [], RULES, rows_for(low_score))
        assert failed[0].outcome == OUTCOME_SUPPRESSED_RULES
        assert "min_score" not in failed[0].matched_rules
        assert "min_devices" in failed[0].matched_rules

    def test_rules_only_on_survivors(self, tmp_path):
        deny = make_list(tmp_path, "deny", "deny", ["198.18.1.1"])
        flagged = [("198.18.1.1", "2022-01-10", 0.9)]
        # no feature row provided: rules must not be consulted for listed hosts
        decisions = triage(flagged, [deny], RULES, {})
        assert decisions[0].outcome == OUTCOME_KNOWN_MALICIOUS

    def test_missing_feature_row_raises(self):
        with pytest.raises(KeyError):
            triage([("198.18.1.1", "2022-01-10", 0.9)], [], RULES, {})

    def test_score_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            triage([("198.18.1.1", "2022-01-10", 1.5)], [], RULES, {})

    def test_reference_pipeline_oracle(self, tmp_path, rng):
        hosts = [f"198.18.{i // 200}.{i % 200 + 1}" for i in range(200)]
        deny = make_list(tmp_path, "deny", "deny", hosts[:20])
        allow = make_list(tmp_path, "allow", "allow", hosts[20:40])
        cdn = make_list(tmp_path, "cdn", "cdn_cloud", hosts[40:50])
        flagged = [(h, "2022-01-10", float(rng.random())) for h in hosts]
        rows = {
            (h, "2022-01-10"): feature_row(
                device_count=float(rng.integers(1, 20)), periodicity=float(rng.random())
            )
            for h in hosts
        }
        lists = [deny, allow, cdn]
        decisions = {d.host_ip: d for d in triage(flagged, lists, RULES, rows)}

        cfg = TriageConfig(threshold=0.5, min_devices=2, min_periodicity=0.1)
        for h, _, score in flagged:
            if h in hosts[:20]:
                want = OUTCOME_KNOWN_MALICIOUS
            elif h in hosts[20:40]:
                want = OUTCOME_SUPPRESSED_ALLOW
            elif h in hosts[40:50]:
                want = OUTCOME_SUPPRESSED_CDN
            else:
                row = rows[(h, "2022-01-10")]
                passes = (
                    score >= cfg.threshold
                    and row["device_count"] >= cfg.min_devices
                    and row["periodicity_score"] >= cfg.min_periodicity
                )
                want = OUTCOME_CANDIDATE if passes else OUTCOME_SUPPRESSED_RULES
            assert decisions[h].outcome == want, h

    def test_monotone_suppression(self, tmp_path, rng):
        hosts = [f"198.18.5.{i + 1}" for i in range(50)]
        flagged = [(h, "2022-01-10", float(rng.random())) for h in hosts]
        rows = rows_for(flagged)
        base = triage(flagged, [], RULES, rows)
        n_candidates = sum(d.outcome == OUTCOME_CANDIDATE for d in base)
        grow = make_list(tmp_path, "allow", "allow", hosts[:25])
        fewer = triage(flagged, [grow], RULES, rows)
        assert sum(d.outcome == OUTCOME_CANDIDATE for d in fewer) <= n_candidates

    def test_idempotent_on_candidates(self, tmp_path, rng):
        hosts = [f"198.18.6.{i + 1}" for i in range(40)]
        flagged = [(h, "2022-01-10", float(rng.random())) for h in hosts]
        rows = rows_for(flagged)
        lists = [make_list(tmp_path, "deny", "deny", hosts[:5])]
        first = triage(flagged, lists, RULES, rows)
        candidates = [(d.host_ip, d.window_date, d.score) for d in first if d.outcome == OUTCOME_CANDIDATE]
        second = triage(candidates, lists, RULES, rows)
        assert [(d.host_ip, d.outcome) for d in second] == [
            (h, OUTCOME_CANDIDATE) for h, _, _ in candidates
        ]

    def test_partition(self, tmp_path, rng):
        hosts = [f"198.18.7.{i + 1}" for i in range(60)]
        flagged = [(h, "2022-01-10", float(rng.random())) for h in hosts]
        lists = [make_list(tmp_path, "deny", "deny", hosts[:7])]
        decisions = triage(flagged, lists, RULES, rows_for(flagged))
        assert len(decisions) == len(flagged)
        assert {d.host_ip for d in decisions} == set(hosts)


def test_config_from_file(tmp_path):
    p = tmp_path / "triage.cfg"
    p.write_text("threshold = 0.7\nmin_devices = 5\nmin_periodicity = 0.3\n", encoding="utf-8")
    cfg = TriageConfig.from_file(p)
    assert cfg == TriageConfig(threshold=0.7, min_devices=5, min_periodicity=0.3)


def test_write_decisions_sorted(tmp_path):
    flagged = [("198.18.1.9", "2022-01-10", 0.9), ("198.18.1.1", "2022-01-10", 0.8)]
    decisions = triage(flagged, [], RULES, rows_for(flagged))
    out = tmp_path / "decisions.csv"
    write_decisions(out, decisions)
    lines = out.read_text().splitlines()
    assert lines[0] == "host_ip,window_date,score,outcome,matched_rules"
    assert lines[1].startswith("198.18.1.1") and lines[2].startswith("198.18.1.9")


def write_triage_inputs(tmp_path, prediction_lines):
    features = tmp_path / "features.csv"
    features.write_text(
        "host_ip,window_date,device_count,periodicity_score\n"
        + "".join(f"198.51.100.{i},2022-01-10,{i}.0,0.5\n" for i in (1, 2, 3)),
        encoding="utf-8",
    )
    predictions = tmp_path / "predictions.csv"
    predictions.write_text("\n".join(["host_ip,window_date,score"] + prediction_lines) + "\n", encoding="utf-8")
    return features, predictions


def test_summary_counts_each_lists_entries_invalid_lines_and_hits(tmp_path):
    features, predictions = write_triage_inputs(
        tmp_path, [f"198.51.100.{i},2022-01-10,0.9" for i in (1, 2, 3)]
    )
    deny = tmp_path / "deny.txt"
    deny.write_text("198.51.100.1\nnot-an-ip\n", encoding="utf-8")
    allow = tmp_path / "allow.txt"
    allow.write_text("198.51.100.1\n198.51.100.2\n198.51.100.0/30\n", encoding="utf-8")
    out = tmp_path / "triage"
    args = ["triage", "--predictions", predictions, "--features", features, "--deny", deny, "--allow", allow, "--out", out]
    assert cli.main([str(a) for a in args]) == 0
    summary = json.loads((out / "triage_summary.json").read_text())
    # both lists hold 198.51.100.1; the deny list decides it
    assert summary["lists"] == [
        {"name": "deny", "kind": "deny", "entries": 1, "invalid_lines": ["not-an-ip"], "hits": 1},
        {"name": "allow", "kind": "allow", "entries": 3, "invalid_lines": [], "hits": 2},
    ]
    assert summary["outcomes"] == {OUTCOME_KNOWN_MALICIOUS: 1, OUTCOME_SUPPRESSED_ALLOW: 2}


def test_malformed_prediction_line_named(tmp_path, capsys):
    features, predictions = write_triage_inputs(tmp_path, ["198.51.100.1,2022-01-10,0.9", "198.51.100.2,2022-01-10"])
    args = ["triage", "--predictions", predictions, "--features", features, "--out", tmp_path / "triage"]
    assert cli.main([str(a) for a in args]) == 2
    assert f"{predictions}:3:" in capsys.readouterr().err
    assert not (tmp_path / "triage").exists()
