"""Labeled synthetic flow traffic: benign hosts and beaconing C2 hosts.

The generator is the ground truth for end-to-end tests and demos. Each
host gets its own RNG substream keyed by host index, so output files are
bitwise identical for a fixed seed regardless of generation order.

Two presets ship:

* ``default_scenario``: benign hosts emit Poisson-arrival flows with
  diverse log-normal sizes over mixed service ports; C2 hosts emit
  near-periodic, near-constant small flows to many devices on one port.
  Byte means/variances are matched across classes so flow-size statics
  overlap while timing and distribution shape separate the classes.
* ``overlap_scenario``: both classes share the arrival process, packet
  distribution, ports, direction mix, and the first two byte moments.
  Only the byte distribution shape differs (bounded uniform vs matched
  log-normal), so summary statistics carry no signal and separation must
  come from quantiles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
import numpy as np

from .flows import DAY_MS, FlowTable, string_ranks, write_flow_file  # noqa: F401 (DAY_MS is part of this module's API)
from .rng import NS_SYNTH, substream

LABEL_MALICIOUS = "malicious"
LABEL_BENIGN = "benign"


@dataclass(frozen=True)
class ArrivalSpec:
    """Flow start-time process: 'poisson' gaps or jittered 'beacon' gaps.

    ``period_range`` bounds the per-host mean gap (seconds); beacons draw
    gaps from N(period, (jitter_frac*period)^2) clipped at 1 ms.
    """

    kind: str
    period_range: tuple[float, float]
    jitter_frac: float = 0.0

    def __post_init__(self):
        if self.kind not in ("poisson", "beacon"):
            raise ValueError(f"unknown arrival kind {self.kind!r}")
        if self.jitter_frac < 0:
            raise ValueError("jitter_frac must be >= 0")


@dataclass(frozen=True)
class SizeSpec:
    """Per-flow draw: ('lognormal', mu, sigma) or ('uniform_int', lo, hi)."""

    kind: str
    a: float
    b: float

    def __post_init__(self):
        if self.kind not in ("lognormal", "uniform_int"):
            raise ValueError(f"unknown size kind {self.kind!r}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "lognormal":
            return np.maximum(np.rint(rng.lognormal(self.a, self.b, size=n)), 1).astype(np.int64)
        return rng.integers(int(self.a), int(self.b) + 1, size=n)

    def support_contains(self, other: "SizeSpec") -> bool:
        if self.kind == "lognormal":
            return True  # positive support covers any positive range
        if other.kind != "uniform_int":
            return False
        return self.a <= other.a and other.b <= self.b


@dataclass(frozen=True)
class HostProfile:
    bytes_spec: SizeSpec
    packets_spec: SizeSpec
    arrival: ArrivalSpec
    service_ports: tuple[int, ...]
    devices_range: tuple[int, int]
    host_initiated_frac: float = 0.0
    duration_ms_range: tuple[int, int] = (50, 2_000)
    flags: tuple[str, ...] = ("S",)


@dataclass(frozen=True)
class ScenarioConfig:
    """Counts, per-class profiles, day window, and the master seed.

    The C2 byte range must sit inside the benign support: class overlap
    is deliberate, so separation has to come from distribution shape
    rather than plain range.
    """

    n_benign_hosts: int
    n_c2_hosts: int
    benign: HostProfile
    c2: HostProfile
    day_start_ms: int = 1_641_772_800_000  # 2022-01-10T00:00:00Z
    day_length_s: int = 86_400
    seed: int = 0

    def __post_init__(self):
        if self.n_benign_hosts < 1 or self.n_c2_hosts < 1:
            raise ValueError("need at least one host per class")
        if not self.benign.bytes_spec.support_contains(self.c2.bytes_spec):
            raise ValueError("c2 byte range must lie within benign support")


@dataclass
class HostPlan:
    host_ip: str
    label: str
    n_flows: int = 0
    total_bytes: int = 0


@dataclass
class GenerationSummary:
    hosts: dict[str, HostPlan] = field(default_factory=dict)

    @property
    def n_flows(self) -> int:
        return sum(p.n_flows for p in self.hosts.values())


def _host_ip(label: str, idx: int) -> str:
    # benchmarking space 198.18.0.0/15: C2 under 198.18, benign under 198.19
    second = 18 if label == LABEL_MALICIOUS else 19
    return f"198.{second}.{1 + idx // 250}.{1 + idx % 250}"


def _device_ip(device_id: int) -> str:
    return f"10.{1 + device_id // 65536}.{(device_id // 256) % 256}.{device_id % 256}"


def _gaps_ms(arrival: ArrivalSpec, rng: np.random.Generator, horizon_ms: int) -> np.ndarray:
    period = rng.uniform(*arrival.period_range)
    upper = max(8, math.ceil(horizon_ms / max(period * 1000.0, 1.0) * 2) + 8)
    if arrival.kind == "poisson":
        gaps = rng.exponential(period, size=upper)
    else:
        gaps = rng.normal(period, arrival.jitter_frac * period, size=upper)
    return np.maximum(np.rint(gaps * 1000.0), 1).astype(np.int64)


def _host_flows(
    host: int, profile: HostProfile, cfg: ScenarioConfig, rng: np.random.Generator, ips: dict[str, int]
) -> dict[str, np.ndarray]:
    """One host's flows as FlowTable columns; device addresses are interned into ``ips``."""
    horizon = cfg.day_length_s * 1000
    gaps = _gaps_ms(profile.arrival, rng, horizon)
    first = int(rng.integers(0, max(int(gaps[0]), 1)))
    starts_rel = first + np.concatenate([[0], np.cumsum(gaps[:-1])])
    starts_rel = starts_rel[starts_rel < horizon]
    if len(starts_rel) == 0:
        starts_rel = np.array([first % horizon], dtype=np.int64)
    n = len(starts_rel)

    n_devices = int(rng.integers(profile.devices_range[0], profile.devices_range[1] + 1))
    device_ids = rng.choice(100_000, size=n_devices, replace=False)
    device_pick = rng.integers(0, n_devices, size=n)
    packets = profile.packets_spec.sample(rng, n)
    nbytes = np.maximum(profile.bytes_spec.sample(rng, n), packets)
    durations = rng.integers(profile.duration_ms_range[0], profile.duration_ms_range[1] + 1, size=n)
    service_ports = np.asarray(profile.service_ports)
    ports = service_ports[rng.integers(0, len(service_ports), size=n)]
    ephemeral = rng.integers(49_152, 65_536, size=n)
    host_initiated = rng.random(n) < profile.host_initiated_frac
    flags = np.asarray(profile.flags)
    flag_pick = flags[rng.integers(0, len(flags), size=n)]

    used, pick = np.unique(device_ids[device_pick], return_inverse=True)
    device = np.array([ips.setdefault(_device_ip(int(d)), len(ips)) for d in used])[pick]
    start = cfg.day_start_ms + starts_rel
    # the initiator (src) sends from an ephemeral port to the service port
    return {
        "src": np.where(host_initiated, host, device),
        "dst": np.where(host_initiated, device, host),
        "src_port": ephemeral,
        "dst_port": ports,
        "bytes": nbytes,
        "packets": packets,
        "start_time": start,
        "end_time": start + durations,
        "flags": flag_pick,
    }


def generate(
    cfg: ScenarioConfig, flows_path: str | Path, labels_path: str | Path
) -> GenerationSummary:
    """Write the flow file and label file; returns per-host planned totals.

    Deterministic for a fixed seed: per-host substreams plus a stable
    merge order make the output files bitwise reproducible.
    """
    summary = GenerationSummary()
    hosts: list[tuple[str, str, HostProfile]] = []
    for i in range(cfg.n_c2_hosts):
        hosts.append((_host_ip(LABEL_MALICIOUS, i), LABEL_MALICIOUS, cfg.c2))
    for i in range(cfg.n_benign_hosts):
        hosts.append((_host_ip(LABEL_BENIGN, i), LABEL_BENIGN, cfg.benign))

    ips: dict[str, int] = {}
    parts: list[dict[str, np.ndarray]] = []
    for host_index, (host_ip, label, profile) in enumerate(hosts):
        rng = substream(cfg.seed, NS_SYNTH, host_index)
        flows = _host_flows(ips.setdefault(host_ip, len(ips)), profile, cfg, rng, ips)
        summary.hosts[host_ip] = HostPlan(
            host_ip=host_ip, label=label, n_flows=len(flows["bytes"]), total_bytes=int(flows["bytes"].sum())
        )
        parts.append(flows)

    columns = {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
    table_ips = tuple(ips)
    ranks = string_ranks(table_ips)
    order = np.lexsort(
        (columns["dst_port"], columns["src_port"], ranks[columns["dst"]], ranks[columns["src"]], columns["start_time"])
    )
    flags = columns.pop("flags")[order].tolist()
    table = FlowTable(
        ips=table_ips,
        protocol=np.full(len(order), 6, dtype=np.int64),
        flags=tuple(flags),
        **{name: column[order] for name, column in columns.items()},
    )
    write_flow_file(flows_path, table)
    write_labels(labels_path, summary)
    return summary


def write_labels(path: str | Path, summary: GenerationSummary) -> None:
    import ipaddress

    lines = ["host_ip,label"]
    for host_ip in sorted(summary.hosts, key=lambda ip: int(ipaddress.ip_address(ip))):
        lines.append(f"{host_ip},{summary.hosts[host_ip].label}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_labels(path: str | Path) -> dict[str, int]:
    """host_ip -> 1 (malicious) / 0 (benign)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "host_ip,label":
        raise ValueError(f"{path}: expected 'host_ip,label' header")
    out: dict[str, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        host_ip, label = line.split(",", 1)
        if label not in (LABEL_MALICIOUS, LABEL_BENIGN):
            raise ValueError(f"{path}:{lineno}: unknown label {label!r}")
        if host_ip in out:
            raise ValueError(f"{path}:{lineno}: duplicate host {host_ip}")
        out[host_ip] = 1 if label == LABEL_MALICIOUS else 0
    return out


def default_scenario(seed: int = 0, n_c2: int = 50, n_benign: int = 250) -> ScenarioConfig:
    """Beaconing C2 vs diverse Poisson benign traffic.

    C2 bytes are a narrow band around 300; benign bytes are log-normal
    with the same mean, so volume statics overlap while gap regularity
    and byte-distribution shape separate.
    """
    c2 = HostProfile(
        bytes_spec=SizeSpec("uniform_int", 250, 350),
        packets_spec=SizeSpec("uniform_int", 1, 4),
        arrival=ArrivalSpec("beacon", (60.0, 240.0), jitter_frac=0.05),
        service_ports=(443,),
        devices_range=(20, 60),
        host_initiated_frac=0.0,
        duration_ms_range=(50, 1_500),
        flags=("S",),
    )
    # mean 300 at sigma 0.8: mu = ln(300) - 0.8^2/2
    benign = HostProfile(
        bytes_spec=SizeSpec("lognormal", math.log(300.0) - 0.32, 0.8),
        packets_spec=SizeSpec("lognormal", math.log(3.0), 0.7),
        arrival=ArrivalSpec("poisson", (120.0, 1_200.0)),
        service_ports=(80, 443, 53, 123, 22, 25),
        devices_range=(1, 25),
        host_initiated_frac=0.1,
        duration_ms_range=(50, 60_000),
        flags=("S", "SA", "F", ""),
    )
    return ScenarioConfig(n_benign_hosts=n_benign, n_c2_hosts=n_c2, benign=benign, c2=c2, seed=seed)


def overlap_scenario(seed: int = 0, n_c2: int = 50, n_benign: int = 250) -> ScenarioConfig:
    """Static-summary overlap: only byte-distribution shape differs.

    Both classes share jittered arrivals, uniform{1..4} packets, one port,
    device-initiated flows, and device counts. C2 bytes are uniform on
    [150, 450]; benign bytes are log-normal matched to the same mean (300)
    and variance (300^2/12), so per-host means and sds are statistically
    indistinguishable and only the quantile profile separates. Hosts see
    a few dozen flows each, keeping empirical quantiles noisy enough that
    no single feature separates the classes outright.
    """
    c2_width = 300.0
    sigma2 = math.log(1.0 + (c2_width**2 / 12.0) / (300.0**2))
    sigma = math.sqrt(sigma2)
    mu = math.log(300.0) - sigma2 / 2.0
    shared_arrival = ArrivalSpec("beacon", (1_000.0, 2_500.0), jitter_frac=0.35)
    shared_packets = SizeSpec("uniform_int", 1, 4)
    c2 = HostProfile(
        bytes_spec=SizeSpec("uniform_int", 150, 450),
        packets_spec=shared_packets,
        arrival=shared_arrival,
        service_ports=(443,),
        devices_range=(5, 30),
        host_initiated_frac=0.0,
        duration_ms_range=(50, 1_500),
        flags=("S",),
    )
    benign = HostProfile(
        bytes_spec=SizeSpec("lognormal", mu, sigma),
        packets_spec=shared_packets,
        arrival=shared_arrival,
        service_ports=(443,),
        devices_range=(5, 30),
        host_initiated_frac=0.0,
        duration_ms_range=(50, 1_500),
        flags=("S",),
    )
    return ScenarioConfig(n_benign_hosts=n_benign, n_c2_hosts=n_c2, benign=benign, c2=c2, seed=seed)
