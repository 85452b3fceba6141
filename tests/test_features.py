import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2sift.cli import run_featurize
from c2sift.features import (
    EPS_SECONDS,
    FeatureConfig,
    beaconing_feature_names,
    block_ranges,
    distributional_feature_names,
    feature_names,
    featurize_aggregates,
    quantile_transform,
)
from c2sift.learners import LabeledDataset, load_feature_matrix
from c2sift.learners.data import write_feature_matrix
from c2sift.synthgen import default_scenario, generate, read_labels

from conftest import feature_row, features_of, host_days, make_flow, random_flows

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
        got = feature_row(flows, CFG)[block_ranges(CFG)["distributional"]]
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
        data = featurize_aggregates(host_days([make_flow(0), make_flow(5)]), CFG)
        assert data.X.shape == (1, 97) and data.X.dtype == np.float64
        assert data.feature_names == feature_names(CFG) and data.y is None
        assert data.row_keys == (("198.18.1.1", "2022-01-10"),)
        blocks = block_ranges(CFG)
        assert blocks["flow_size"] == range(0, 26)
        assert blocks["beaconing"] == range(26, 31)
        assert blocks["distributional"] == range(31, 97)
        assert len(set(data.feature_names)) == 97

    def test_small_quantile_config_width(self):
        cfg = FeatureConfig(n_quantiles=4)
        data = featurize_aggregates(host_days([make_flow(0)]), cfg)
        assert data.X.shape[1] == len(data.feature_names) == 9 + 17 + 5 + 3 * 6 == 49

    def test_fuzz_finite_and_aligned(self, rng):
        for _ in range(1000):
            row = feature_row(random_flows(rng), CFG)
            assert np.all(np.isfinite(row))
            assert len(row) == len(feature_names(CFG))

    def test_flow_order_invariance(self, rng):
        flows = random_flows(rng, n_flows=30)
        base = feature_row(flows, CFG)
        for _ in range(5):
            rng.shuffle(flows)
            again = feature_row(flows, CFG)
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
        assert np.all(np.isfinite(feature_row([make_flow(0)], CFG)))


EXTREMES = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)


@st.composite
def matrices(draw) -> LabeledDataset:
    """A finite matrix with distinct names and row keys, labeled or not."""
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    value = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREMES)
    X = np.array(draw(st.lists(st.lists(value, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows)))
    name = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True).filter(lambda text: text != "label")  # the writer refuses "label"
    names = draw(st.lists(name, min_size=n_cols, max_size=n_cols, unique=True))
    key = st.tuples(st.from_regex(r"[0-9a-f.:]{1,12}", fullmatch=True), st.dates().map(lambda day: day.isoformat()))
    keys = draw(st.lists(key, min_size=n_rows, max_size=n_rows, unique=True))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows)), dtype=int) if draw(st.booleans()) else None
    return LabeledDataset(X=X.reshape(n_rows, n_cols), y=y, feature_names=tuple(names), row_keys=tuple(keys))


def featurize_day(tmp_path, out: str, labels=None, ablate_distributional: bool = False) -> LabeledDataset:
    """``run_featurize`` on a 2 + 4-host default day; the matrix it wrote."""
    day = tmp_path / "day"
    if not day.exists():
        day.mkdir()
        generate(default_scenario(seed=5, n_c2=2, n_benign=4), day / "flows.csv", day / "labels.csv")
        (day / "internal_space.txt").write_text("10.0.0.0/8\n", encoding="utf-8")
    run_featurize(
        day / "flows.csv", day / "internal_space.txt", tmp_path / out, labels=labels, ablate_distributional=ablate_distributional
    )
    return load_feature_matrix(tmp_path / out / "features.csv")


class TestMatrixIO:
    @settings(max_examples=150, deadline=None)
    @given(data=matrices())
    def test_write_read_round_trip(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("matrix") / "features.csv"
        write_feature_matrix(path, data)
        got = load_feature_matrix(path)
        assert got.X.dtype == np.float64 and got.X.shape == data.X.shape
        assert got.X.tobytes() == data.X.tobytes()  # repr round-trips every finite float, -0.0 and subnormals too
        assert (got.y is None) == (data.y is None)
        if data.y is not None:
            assert got.y.tobytes() == data.y.tobytes()
        assert got.feature_names == data.feature_names and got.row_keys == data.row_keys

    @pytest.mark.parametrize("name", ["label", "a,b", "a\nb", "a\rb", ""])
    def test_unrepresentable_feature_name_refused(self, tmp_path, name):
        data = LabeledDataset(X=np.ones((1, 2)), y=None, feature_names=(name, "x"), row_keys=(("198.18.1.1", "2022-01-10"),))
        with pytest.raises(ValueError, match="cannot be a features.csv column"):
            write_feature_matrix(tmp_path / "features.csv", data)
        assert not (tmp_path / "features.csv").exists()

    def test_drop_block(self, tmp_path):
        full = featurize_day(tmp_path, "full")
        ablated = featurize_day(tmp_path, "ablated", ablate_distributional=True)
        dropped = set(distributional_feature_names(CFG))
        assert len(dropped) == 66
        assert ablated.feature_names == tuple(name for name in full.feature_names if name not in dropped)
        assert not any(n.startswith(("bytes_", "packets_", "bpp_")) for n in ablated.feature_names)
        kept = [full.feature_names.index(name) for name in ablated.feature_names]
        assert ablated.X.tobytes() == full.X[:, kept].tobytes() and ablated.row_keys == full.row_keys

    def test_missing_label_errors(self, tmp_path):
        labeled = featurize_day(tmp_path, "labeled", labels=tmp_path / "day" / "labels.csv")
        truth = read_labels(tmp_path / "day" / "labels.csv")
        assert labeled.y.tolist() == [truth[host] for host, _ in labeled.row_keys]
        last = labeled.row_keys[-1][0]
        lines = (tmp_path / "day" / "labels.csv").read_text(encoding="utf-8").splitlines()
        partial = tmp_path / "partial.csv"
        partial.write_text("".join(f"{line}\n" for line in lines if not line.startswith(f"{last},")), encoding="utf-8")
        with pytest.raises(ValueError, match=f"no label for host {last}"):
            featurize_day(tmp_path, "unlabeled", labels=partial)
        assert not (tmp_path / "unlabeled").exists()


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
