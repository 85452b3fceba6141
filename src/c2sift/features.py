"""Per-host feature engineering: flow-size, beaconing, and distributional blocks.

``featurize_aggregates`` turns the grouped host-days into one feature
matrix, a ``LabeledDataset`` with one row per host-day; the
``features.csv`` codec lives beside that container in ``learners.data``.
Each row is a fixed-width vector of three blocks:

* flow_size: volume totals, rates, bytes-per-packet, initiation fraction,
  and per-port flow fractions for a tracked well-known port list.
* beaconing: inter-arrival gap statistics over successive flow start times.
  Short, routine, near-periodic traffic shows as a small gap spread and a
  high periodicity score.
* distributional: for each per-flow variable (packets, bytes,
  bytes-per-packet) the mean, the sample standard deviation, and n
  nearest-rank quantiles. Quantiles summarize the shape of the per-host
  distribution and stay well-defined even for hosts with very few flows,
  where a standard deviation alone is uninformative.

With the default config (16 tracked ports, n=20 quantiles) the width is
9 + 17 + 5 + 3*(2+20) = 97.
"""
from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .aggregate import HostDays
from .configio import parse_kv_file, read_settings
from .learners.data import LabeledDataset

# Guard for rates and coefficients of variation when a denominator is 0.
EPS_SECONDS = 1e-3

DEFAULT_TRACKED_PORTS = (21, 22, 23, 25, 53, 80, 110, 123, 143, 443, 445, 587, 993, 995, 3389, 8080)

DISTRIBUTION_VARIABLES = ("packets", "bytes", "bpp")


@dataclass(frozen=True)
class FeatureConfig:
    """Featurization knobs; defaults give the 97-wide layout."""

    n_quantiles: int = 20
    tracked_ports: tuple[int, ...] = DEFAULT_TRACKED_PORTS
    beacon_tolerance: float = 0.1

    def __post_init__(self):
        if self.n_quantiles < 1:
            raise ValueError("n_quantiles must be >= 1")
        if len(set(self.tracked_ports)) != len(self.tracked_ports):
            raise ValueError("tracked_ports must be distinct")
        if not 0 <= self.beacon_tolerance:
            raise ValueError("beacon_tolerance must be non-negative")

    @property
    def quantile_levels(self) -> tuple[float, ...]:
        """Strictly increasing levels i/n for i=1..n; last level is 100%."""
        n = self.n_quantiles
        return tuple(i / n for i in range(1, n + 1))

    @classmethod
    def from_file(cls, path: str | Path) -> "FeatureConfig":
        """The config in a ``key = value`` file; ``tracked_ports`` is comma-separated."""
        raw: dict = parse_kv_file(path)
        if "tracked_ports" in raw:
            raw["tracked_ports"] = [port for port in raw["tracked_ports"].split(",") if port.strip()]
        return read_settings(cls, raw, str(path))


def _pct_label(level: float) -> str:
    pct = level * 100.0
    rounded = round(pct)
    if abs(pct - rounded) < 1e-9:
        return str(int(rounded))
    return f"{pct:g}"


def flow_size_feature_names(cfg: FeatureConfig) -> tuple[str, ...]:
    base = (
        "total_bytes",
        "total_packets",
        "total_duration",
        "flow_count",
        "device_count",
        "mean_bpp",
        "byte_rate",
        "packet_rate",
        "host_initiated_fraction",
    )
    ports = tuple(f"port_{p}" for p in cfg.tracked_ports) + ("port_other",)
    return base + ports


def beaconing_feature_names() -> tuple[str, ...]:
    return ("mean_gap", "sd_gap", "cv_gap", "periodicity_score", "sd_packets")


def distributional_feature_names(cfg: FeatureConfig) -> tuple[str, ...]:
    names: list[str] = []
    for var in DISTRIBUTION_VARIABLES:
        names.append(f"{var}_mean")
        names.append(f"{var}_sd")
        names.extend(f"{var}_q{_pct_label(level)}" for level in cfg.quantile_levels)
    return tuple(names)


def feature_names(cfg: FeatureConfig) -> tuple[str, ...]:
    return flow_size_feature_names(cfg) + beaconing_feature_names() + distributional_feature_names(cfg)


def block_ranges(cfg: FeatureConfig) -> dict[str, range]:
    n_fs = len(flow_size_feature_names(cfg))
    n_bc = len(beaconing_feature_names())
    n_di = len(distributional_feature_names(cfg))
    return {
        "flow_size": range(0, n_fs),
        "beaconing": range(n_fs, n_fs + n_bc),
        "distributional": range(n_fs + n_bc, n_fs + n_bc + n_di),
    }


def _sample_sd(values: np.ndarray) -> float:
    """Sample standard deviation (n-1 denominator); singleton sd is 0."""
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def _flow_size_block(
    nbytes: np.ndarray,
    packets: np.ndarray,
    bpp: np.ndarray,
    durations: np.ndarray,
    n_devices: int,
    n_host_initiated: int,
    port_counts: np.ndarray,
) -> np.ndarray:
    """Volume, rate, initiation, and port-fraction features for one host."""
    n = len(nbytes)
    total_bytes = float(nbytes.sum())
    total_packets = float(packets.sum())
    total_duration = float(durations.sum())
    head = np.array(
        [
            total_bytes,
            total_packets,
            total_duration,
            float(n),
            float(n_devices),
            float(np.mean(bpp)),
            total_bytes / max(total_duration, EPS_SECONDS),
            total_packets / max(total_duration, EPS_SECONDS),
            n_host_initiated / n,
        ]
    )
    return np.concatenate([head, port_counts / n])


def _beaconing_block(starts: np.ndarray, packets: np.ndarray, tolerance: float) -> np.ndarray:
    """Gap statistics over successive start times, plus packet-count spread.

    periodicity_score is the fraction of gaps within
    +-tolerance * median_gap of the median gap; hosts with fewer than two
    flows score 0 on every entry.
    """
    if len(starts) < 2:
        return np.zeros(5)
    gaps = np.diff(starts) / 1000.0
    mean_gap = float(np.mean(gaps))
    sd_gap = _sample_sd(gaps)
    cv_gap = sd_gap / max(mean_gap, EPS_SECONDS)
    median_gap = float(np.median(gaps))
    periodicity = float(np.mean(np.abs(gaps - median_gap) <= tolerance * median_gap))
    return np.array([mean_gap, sd_gap, cv_gap, periodicity, _sample_sd(packets)])


def quantile_transform(values: Sequence[float] | np.ndarray, levels: Sequence[float]) -> np.ndarray:
    """Nearest-rank quantiles: level q of m values picks sorted[ceil(q*m)-1].

    The rank index is computed as ceil(q*m - 1e-9); the tolerance snaps
    float noise in q*m back onto exact rank boundaries (e.g. level 0.55 of
    100 values picks rank 55, not 56). Every output is an element of the
    input, the output is non-decreasing across increasing levels, and the
    100% level is the maximum.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("empty distribution")
    m = arr.size
    ranks = np.clip(np.ceil(np.asarray(levels, dtype=float) * m - 1e-9).astype(np.int64), 1, m)
    return np.sort(arr)[ranks - 1]


def _distributional_block(variables: Sequence[np.ndarray], levels: Sequence[float]) -> np.ndarray:
    """[mean, sd, q...] per per-flow variable, concatenated."""
    parts = []
    for values in variables:
        head = np.array([float(np.mean(values)), _sample_sd(values)])
        parts.append(np.concatenate([head, quantile_transform(values, levels)]))
    return np.concatenate(parts)


def featurize_aggregates(host_days: HostDays, cfg: FeatureConfig) -> LabeledDataset:
    """The unlabeled feature matrix of every host-day, rows ordered by (date, numeric host IP).

    Each host-day's blocks are computed from its slice of the shared
    columns; the per-flow float variables are built once for all of them.
    Row keys are (host_ip, ISO date).
    """
    packets = host_days.packets.astype(float)
    nbytes = host_days.bytes.astype(float)
    bpp = nbytes / packets
    durations = (host_days.end_time - host_days.start_time) / 1000.0
    n_ports = len(cfg.tracked_ports)
    port_slots = np.full(len(packets), n_ports)
    for slot, port in enumerate(cfg.tracked_ports):
        port_slots[host_days.device_port == port] = slot
    names = feature_names(cfg)
    levels = cfg.quantile_levels
    order = sorted(
        range(len(host_days)),
        key=lambda i: (host_days.window_date[i].isoformat(), int(ipaddress.ip_address(host_days.host_ip[i]))),
    )
    X = np.empty((len(order), len(names)))
    for row, i in enumerate(order):
        rows = slice(host_days.bounds[i], host_days.bounds[i + 1])
        X[row] = np.concatenate(
            [
                _flow_size_block(
                    nbytes[rows],
                    packets[rows],
                    bpp[rows],
                    durations[rows],
                    len(np.unique(host_days.device[rows])),
                    int(np.count_nonzero(host_days.initiated_by_host[rows])),
                    np.bincount(port_slots[rows], minlength=n_ports + 1),
                ),
                _beaconing_block(host_days.start_time[rows], packets[rows], cfg.beacon_tolerance),
                _distributional_block((packets[rows], nbytes[rows], bpp[rows]), levels),
            ]
        )
    keys = tuple((host_days.host_ip[i], host_days.window_date[i].isoformat()) for i in order)
    return LabeledDataset(X=X, y=None, feature_names=names, row_keys=keys)
