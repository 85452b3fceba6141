import datetime as dt
import json
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import pytest

from c2sift.aggregate import HostDays, InternalSpace, group_daily
from c2sift.features import FeatureConfig, featurize_aggregates
from c2sift.flows import INT_FIELDS, FlowTable
from c2sift.learners import LabeledDataset

DAY0_MS = 1_641_772_800_000  # 2022-01-10T00:00:00Z
DAY0 = dt.date(2022, 1, 10)
SPACE = InternalSpace(["10.0.0.0/8"])


def read_manifest(out_dir: Path) -> dict:
    """The run_manifest.json that a staged command wrote into ``out_dir``."""
    return json.loads((Path(out_dir) / "run_manifest.json").read_text(encoding="utf-8"))


def flow_table(rows: Iterable[Sequence]) -> FlowTable:
    """A FlowTable from rows in canonical field order (src_ip, dst_ip, ..., flags)."""
    rows = list(rows)
    ips: dict[str, int] = {}
    codes = [np.array([ips.setdefault(row[i], len(ips)) for row in rows], dtype=np.int64) for i in (0, 1)]
    ints = {name: np.array([row[i] for row in rows], dtype=np.int64) for i, name in enumerate(INT_FIELDS, start=2)}
    return FlowTable(ips=tuple(ips), src=codes[0], dst=codes[1], flags=tuple(row[9] for row in rows), **ints)


def table_rows(table: FlowTable) -> list[tuple]:
    """A FlowTable's rows in canonical field order, addresses as strings."""
    ints = [getattr(table, name).tolist() for name in INT_FIELDS]
    src = [table.ips[code] for code in table.src.tolist()]
    dst = [table.ips[code] for code in table.dst.tolist()]
    return list(zip(src, dst, *ints, table.flags))


def grouped_flows(days: HostDays) -> list[tuple]:
    """Each host-day as (host_ip, window_date, flows), a flow as (device_ip,
    device_port, bytes, packets, start_time, end_time, initiated_by_host)."""
    columns = [days.device_port, days.bytes, days.packets, days.start_time, days.end_time, days.initiated_by_host]
    flows = list(zip([days.ips[code] for code in days.device.tolist()], *(column.tolist() for column in columns)))
    bounds = days.bounds.tolist()
    return [(days.host_ip[i], days.window_date[i], flows[bounds[i] : bounds[i + 1]]) for i in range(len(days))]


class Flow(NamedTuple):
    """One boundary flow seen from its external host."""

    host_ip: str
    device_ip: str
    host_port: int
    device_port: int
    bytes: int
    packets: int
    start_time: int
    end_time: int
    initiated_by_host: bool


def make_flow(
    start_s: float = 0.0,
    *,
    nbytes: int = 300,
    packets: int = 2,
    duration_s: float = 1.0,
    host="198.18.1.1",
    device="10.0.0.5",
    device_port=50000,
    host_port=443,
    initiated_by_host=False,
) -> Flow:
    start = DAY0_MS + round(start_s * 1000)
    return Flow(host, device, host_port, device_port, nbytes, packets, start, start + round(duration_s * 1000), initiated_by_host)


def flow_row(flow: Flow) -> tuple:
    """The canonical row of a boundary flow: the initiator is the source."""
    host, device = (flow.host_ip, flow.host_port), (flow.device_ip, flow.device_port)
    (src_ip, src_port), (dst_ip, dst_port) = (host, device) if flow.initiated_by_host else (device, host)
    return (src_ip, dst_ip, src_port, dst_port, flow.bytes, flow.packets, flow.start_time, flow.end_time, 6, "S")


def host_days(flows: Iterable[Flow]) -> HostDays:
    days, non_boundary = group_daily(flow_table(map(flow_row, flows)), SPACE)
    assert non_boundary == 0
    return days


def feature_row(flows: Iterable[Flow], cfg: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """The one feature row of flows that share a host and a day."""
    (row,) = featurize_aggregates(host_days(flows), cfg).X
    return row


def features_of(flows: Iterable[Flow], cfg: FeatureConfig = FeatureConfig()) -> dict[str, float]:
    data = featurize_aggregates(host_days(flows), cfg)
    (row,) = data.X.tolist()
    return dict(zip(data.feature_names, row))


def random_flows(rng: np.random.Generator, n_flows: int | None = None) -> list[Flow]:
    n = n_flows or int(rng.integers(1, 40))
    starts = np.sort(rng.integers(0, 86_400_000, size=n))
    flows = []
    for i in range(n):
        packets = int(rng.integers(1, 20))
        flows.append(
            Flow(
                host_ip="198.18.1.1",
                device_ip=f"10.0.0.{int(rng.integers(1, 200))}",
                host_port=443,
                device_port=int(rng.choice([443, 80, 50000, 51000])),
                bytes=packets + int(rng.integers(0, 5000)),
                packets=packets,
                start_time=DAY0_MS + int(starts[i]),
                end_time=DAY0_MS + int(starts[i]) + int(rng.integers(0, 120_000)),
                initiated_by_host=bool(rng.random() < 0.3),
            )
        )
    return flows


def make_dataset(
    n: int = 200,
    d: int = 8,
    seed: int = 0,
    coefs: dict[int, float] | None = None,
) -> LabeledDataset:
    """Logistic data with planted coefficients (index -> weight)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    logits = np.zeros(n)
    for j, w in (coefs or {0: 2.0, 1: -1.5}).items():
        logits += w * X[:, j]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(int)
    if y.min() == y.max():  # force both classes for degenerate draws
        y[0] = 1 - y[0]
    return LabeledDataset(
        X=X,
        y=y,
        feature_names=tuple(f"f{i}" for i in range(d)),
        row_keys=tuple((f"198.18.0.{i % 250 + 1}", "2022-01-10") for i in range(n)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
