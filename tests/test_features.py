import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2sift.features import (
    EPS_SECONDS,
    FeatureConfig,
    beaconing_feature_names,
    quantile_transform,
    write_feature_matrix,
)
from c2sift.learners import load_feature_matrix

from conftest import feature_vector, features_of, make_flow, random_flows

CFG = FeatureConfig()


class TestFlowSize:
    def test_hand_example(self):
        got = features_of(
            [
                make_flow(0, nbytes=100, packets=2, duration_s=1, device_port=443, initiated_by_host=True),
                make_flow(10, nbytes=300, packets=6, duration_s=3, device_port=443, initiated_by_host=True),
            ]
        )
        assert got["total_bytes"] == 400
        assert got["total_packets"] == 8
        assert got["total_duration"] == 4
        assert got["flow_count"] == 2
        assert got["device_count"] == 1
        assert got["mean_bpp"] == 50
        assert got["byte_rate"] == 100
        assert got["packet_rate"] == 2
        assert got["host_initiated_fraction"] == 1.0
        assert got["port_443"] == 1.0
        assert got["port_other"] == 0.0

    def test_zero_duration_guard(self):
        got = features_of([make_flow(0, nbytes=500, packets=1, duration_s=0)])
        assert got["byte_rate"] == 500 / EPS_SECONDS
        assert np.isfinite(got["byte_rate"])

    def test_naive_recompute_oracle(self, rng):
        flows = random_flows(rng, n_flows=500)
        got = features_of(flows)
        durations = [(f.end_time - f.start_time) / 1000 for f in flows]
        expect = {
            "total_bytes": sum(f.bytes for f in flows),
            "total_packets": sum(f.packets for f in flows),
            "total_duration": sum(durations),
            "flow_count": len(flows),
            "device_count": len({f.device_ip for f in flows}),
            "mean_bpp": sum(f.bytes / f.packets for f in flows) / len(flows),
            "host_initiated_fraction": sum(f.initiated_by_host for f in flows) / len(flows),
        }
        expect["byte_rate"] = expect["total_bytes"] / max(expect["total_duration"], EPS_SECONDS)
        expect["packet_rate"] = expect["total_packets"] / max(expect["total_duration"], EPS_SECONDS)
        for port in CFG.tracked_ports:
            expect[f"port_{port}"] = sum(f.device_port == port for f in flows) / len(flows)
        expect["port_other"] = sum(f.device_port not in CFG.tracked_ports for f in flows) / len(flows)
        for key, val in expect.items():
            assert got[key] == pytest.approx(val, rel=1e-12), key


class TestBeaconing:
    def test_perfect_beacon(self):
        got = features_of([make_flow(t, packets=2) for t in (0, 60, 120, 180)])
        assert {name: got[name] for name in beaconing_feature_names()} == {"mean_gap": 60, "sd_gap": 0, "cv_gap": 0, "periodicity_score": 1.0, "sd_packets": 0}

    def test_hand_counted_gaps(self):
        got = features_of([make_flow(t) for t in (0, 7, 200, 201)])
        assert got["periodicity_score"] == pytest.approx(1 / 3)
        assert got["mean_gap"] == pytest.approx((7 + 193 + 1) / 3)

    def test_single_flow_zeroes(self):
        got = features_of([make_flow(0)])
        assert [got[name] for name in beaconing_feature_names()] == [0.0] * 5

    def test_jittered_beacon_matches_gap_counter(self, rng):
        starts = np.cumsum(np.abs(rng.normal(60, 3, size=100)))
        flows = [make_flow(float(t)) for t in starts]
        got = features_of(flows)
        # independent gap-by-gap counter over the same rounded start times
        times = sorted(f.start_time for f in flows)
        gaps = [(b - a) / 1000 for a, b in zip(times, times[1:])]
        med = sorted(gaps)[len(gaps) // 2 - 1 : len(gaps) // 2 + 1]
        median = sum(med) / 2 if len(gaps) % 2 == 0 else sorted(gaps)[len(gaps) // 2]
        hits = sum(1 for g in gaps if abs(g - median) <= CFG.beacon_tolerance * median)
        assert got["periodicity_score"] == pytest.approx(hits / len(gaps))
        assert got["periodicity_score"] >= 0.9


class TestQuantiles:
    def test_constant(self):
        out = quantile_transform([7.5] * 13, CFG.quantile_levels)
        assert np.all(out == 7.5)

    def test_uniform_deciles(self):
        out = quantile_transform(np.arange(1, 101), [i / 10 for i in range(1, 11)])
        assert out.tolist() == [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]

    def test_sort_and_index_oracle(self, rng):
        values = rng.normal(size=37)
        got = quantile_transform(values, CFG.quantile_levels)
        ordered = sorted(values.tolist())
        expect = [ordered[min(max(math.ceil(q * 37 - 1e-9), 1), 37) - 1] for q in CFG.quantile_levels]
        assert got.tolist() == expect
        assert all(v in values for v in got)

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty distribution"):
            quantile_transform([], CFG.quantile_levels)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=200))
    def test_monotone_and_member(self, values):
        out = quantile_transform(values, CFG.quantile_levels)
        assert np.all(np.diff(out) >= 0)
        assert out[-1] == max(values)
        pool = set(values)
        assert all(v in pool for v in out)


class TestDistributional:
    def test_singleton(self):
        got = features_of([make_flow(0, nbytes=60, packets=1)])
        assert got["bytes_mean"] == 60 and got["bytes_sd"] == 0
        assert got["bpp_mean"] == 60 and got["packets_mean"] == 1
        assert all(got[f"bytes_q{5 * i}"] == 60 for i in range(1, 21))

    def test_two_flow_hand_math(self):
        got = features_of([make_flow(0, nbytes=100, packets=2), make_flow(9, nbytes=300, packets=2)])
        assert got["bpp_mean"] == 100
        assert got["bpp_sd"] == pytest.approx(math.sqrt(5000))  # 70.71, n-1 denominator
        assert got["bpp_q50"] == 50 and got["bpp_q100"] == 150

    def test_independent_recompute(self, rng):
        flows = random_flows(rng, n_flows=200)
        vec = feature_vector(flows, CFG)
        got = vec.values[vec.blocks["distributional"]]
        expect = []
        for vals in ([float(f.packets) for f in flows], [float(f.bytes) for f in flows], [f.bytes / f.packets for f in flows]):
            m = sum(vals) / len(vals)
            sd = math.sqrt(sum((v - m) ** 2 for v in vals) / (len(vals) - 1))
            ordered = sorted(vals)
            qs = [ordered[math.ceil(q * len(vals) - 1e-9) - 1] for q in CFG.quantile_levels]
            expect.extend([m, sd] + qs)
        assert np.allclose(got, expect, rtol=1e-12, atol=0)


class TestFeatureVector:
    def test_default_width_and_blocks(self):
        vec = feature_vector([make_flow(0), make_flow(5)], CFG)
        assert len(vec.values) == 97 == len(vec.names)
        assert vec.blocks["flow_size"] == range(0, 26)
        assert vec.blocks["beaconing"] == range(26, 31)
        assert vec.blocks["distributional"] == range(31, 97)
        assert len(set(vec.names)) == 97

    def test_small_quantile_config_width(self):
        cfg = FeatureConfig(n_quantiles=4)
        vec = feature_vector([make_flow(0)], cfg)
        assert len(vec.values) == 9 + 17 + 5 + 3 * 6 == 49

    def test_fuzz_finite_and_aligned(self, rng):
        for _ in range(1000):
            vec = feature_vector(random_flows(rng), CFG)
            assert np.all(np.isfinite(vec.values))
            assert len(vec.values) == len(vec.names)

    def test_flow_order_invariance(self, rng):
        flows = random_flows(rng, n_flows=30)
        base = feature_vector(flows, CFG).values
        for _ in range(5):
            rng.shuffle(flows)
            again = feature_vector(flows, CFG).values
            assert np.array_equal(again, base)

    def test_scale_equivariance(self, rng):
        flows = random_flows(rng, n_flows=50)
        k = 3
        base = features_of(flows)
        got = features_of([f._replace(bytes=f.bytes * k) for f in flows])
        for i in range(1, 21):
            assert got[f"bytes_q{5 * i}"] == k * base[f"bytes_q{5 * i}"]  # exact: same element scaled
        assert got["bytes_mean"] == pytest.approx(k * base["bytes_mean"], rel=1e-12)
        assert got["bytes_sd"] == pytest.approx(k * base["bytes_sd"], rel=1e-12)

    def test_single_flow_finite(self):
        vec = feature_vector([make_flow(0)], CFG)
        assert np.all(np.isfinite(vec.values))


class TestMatrixIO:
    def test_write_read_round_trip(self, tmp_path, rng):
        vecs = [feature_vector(random_flows(rng), CFG) for _ in range(5)]
        labels = {v.host_ip: i % 2 for i, v in enumerate(vecs)}
        path = tmp_path / "features.csv"
        write_feature_matrix(path, vecs, labels=labels)
        data = load_feature_matrix(path)
        assert data.feature_names == vecs[0].names
        assert data.n_rows == 5
        for i, vec in enumerate(vecs):
            assert np.array_equal(data.X[i], vec.values)  # repr round-trips floats exactly
            assert data.y[i] == labels[vec.host_ip]

    def test_drop_block(self, tmp_path, rng):
        vecs = [feature_vector(random_flows(rng), CFG) for _ in range(3)]
        path = tmp_path / "ablated.csv"
        write_feature_matrix(path, vecs, drop_block="distributional")
        data = load_feature_matrix(path)
        assert len(data.feature_names) == 31
        assert not any(n.startswith(("bytes_", "packets_", "bpp_")) for n in data.feature_names)

    def test_missing_label_errors(self, tmp_path, rng):
        vecs = [feature_vector(random_flows(rng), CFG)]
        with pytest.raises(ValueError, match="no label for host"):
            write_feature_matrix(tmp_path / "x.csv", vecs, labels={})


def test_config_from_file(tmp_path):
    p = tmp_path / "features.cfg"
    p.write_text("n_quantiles = 4\ntracked_ports = 80,443\nbeacon_tolerance = 0.2\n", encoding="utf-8")
    cfg = FeatureConfig.from_file(p)
    assert cfg.n_quantiles == 4
    assert cfg.tracked_ports == (80, 443)
    assert cfg.quantile_levels == (0.25, 0.5, 0.75, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig(n_quantiles=0)
    with pytest.raises(ValueError):
        FeatureConfig(tracked_ports=(80, 80))
