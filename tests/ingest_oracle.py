"""Reference ingest path: one Python object per flow, from parse to features.

This is the object path that the columnar ``FlowTable`` -> ``HostDays``
-> ``featurize_aggregates`` flow in ``c2sift`` replaced: every row becomes
a ``FlowRecord``, every boundary record a ``DirectedFlow``, every
(host, day) a ``HostAggregate`` holding its flows, and the blocks are
computed per aggregate from lists of those objects. ``write_flow_file``
writes a table one ``csv.writer`` row at a time. Tests compare the
columnar path's ingest stats, columns, host-day keys, row order, feature
values and written bytes with these, bit for bit.
"""
from __future__ import annotations

import csv
import datetime as dt
import ipaddress
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from c2sift.aggregate import InternalSpace, window_day
from c2sift.features import (
    EPS_SECONDS,
    FeatureConfig,
    quantile_transform,
)
from c2sift.flows import (
    CANONICAL_FIELDS,
    INT64_MAX,
    INT64_MIN,
    INT_FIELDS,
    PORTLESS_PROTOCOLS,
    FlowTable,
    IngestStats,
    RowError,
    identity_schema,
)


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One flow: endpoints, ports, volumes, times, protocol, TCP flags."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    bytes: int
    packets: int
    start_time: int
    end_time: int
    protocol: int
    flags: str = ""


def _canonical_ip(text: str) -> str:
    return str(ipaddress.ip_address(text.strip()))


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise RowError("bad-integer") from None


def build_record(values: Mapping[str, str]) -> FlowRecord:
    """Validate one row's field strings and build a FlowRecord."""
    try:
        src_ip = _canonical_ip(values["src_ip"])
        dst_ip = _canonical_ip(values["dst_ip"])
    except ValueError:
        raise RowError("bad-address") from None
    src_port = _parse_int(values["src_port"])
    dst_port = _parse_int(values["dst_port"])
    nbytes = _parse_int(values["bytes"])
    packets = _parse_int(values["packets"])
    start_time = _parse_int(values["start_time"])
    end_time = _parse_int(values["end_time"])
    protocol = _parse_int(values["protocol"])
    flags = values.get("flags", "").strip()

    for port in (src_port, dst_port):
        if not 0 <= port <= 65535:
            raise RowError("port-range")
    if not 0 <= protocol <= 255:
        raise RowError("protocol-range")
    if protocol in PORTLESS_PROTOCOLS and (src_port != 0 or dst_port != 0):
        raise RowError("portless-protocol")
    if nbytes < 0:
        raise RowError("negative-bytes")
    if packets < 1:
        raise RowError("bad-packets")
    if nbytes < packets:
        raise RowError("bytes-lt-packets")
    if end_time < start_time:
        raise RowError("time-order")
    if nbytes > INT64_MAX or end_time > INT64_MAX or start_time < INT64_MIN:
        raise RowError("int64-range")
    return FlowRecord(src_ip, dst_ip, src_port, dst_port, nbytes, packets, start_time, end_time, protocol, flags)


def _read_rows(path: str | Path, schema: Mapping[str, str] | None) -> tuple[list[list[str]], dict[str, int]]:
    """Whole-file read: the non-blank data rows (None for a row whose field
    count differs from the header's) and each canonical field's column.

    Lines are split with ``str.splitlines``, so a quoted field may not hold
    a line break, nor text may hold another character that splits lines.
    """
    schema = dict(schema) if schema is not None else identity_schema()
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file, header row required")
    reader = csv.reader(lines, delimiter="\t" if "\t" in lines[0] else ",")
    header = next(reader)
    column_index = {}
    for name in CANONICAL_FIELDS:
        if schema[name] not in header:
            raise ValueError(f"{path}: header missing mapped column {schema[name]!r} (field {name})")
        column_index[name] = header.index(schema[name])
    return [row if len(row) == len(header) else None for row in reader if row], column_index


def parse_flow_file(path: str | Path, schema: Mapping[str, str] | None = None) -> tuple[list[FlowRecord], IngestStats]:
    """Whole-file parse into one FlowRecord per accepted row."""
    rows, column_index = _read_rows(path, schema)
    records: list[FlowRecord] = []
    stats = IngestStats()
    for row in rows:
        if row is None:
            stats._reject("field-count")
            continue
        try:
            records.append(build_record({name: row[idx] for name, idx in column_index.items()}))
        except RowError as exc:
            stats._reject(exc.reason)
            continue
        stats._accept()
    return records, stats


def address_order(path: str | Path, schema: Mapping[str, str] | None = None) -> list[str]:
    """The file's valid addresses, canonical, in the order a parse first meets
    them: source then destination of every row of the header's width,
    whether or not the row is accepted."""
    rows, column_index = _read_rows(path, schema)
    order: dict[str, None] = {}
    for row in filter(None, rows):
        for name in ("src_ip", "dst_ip"):
            try:
                order.setdefault(_canonical_ip(row[column_index[name]]))
            except ValueError:
                pass
    return list(order)


def write_flow_file(path: str | Path, table: FlowTable) -> int:
    """Write a table with the canonical header through ``csv.writer``, one
    row per call; returns the row count."""
    ips = table.ips
    columns = [getattr(table, name).tolist() for name in INT_FIELDS]
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CANONICAL_FIELDS)
        for src, dst, *ints, flags in zip(table.src.tolist(), table.dst.tolist(), *columns, table.flags):
            writer.writerow([ips[src], ips[dst], *ints, flags])
    return len(table)


def record_to_row(record: FlowRecord) -> list[str]:
    """Serialize a record to canonical column order."""
    return [
        record.src_ip,
        record.dst_ip,
        str(record.src_port),
        str(record.dst_port),
        str(record.bytes),
        str(record.packets),
        str(record.start_time),
        str(record.end_time),
        str(record.protocol),
        record.flags,
    ]


@dataclass(frozen=True, slots=True)
class DirectedFlow:
    """A boundary flow re-keyed as (external host, internal device)."""

    host_ip: str
    device_ip: str
    device_port: int
    bytes: int
    packets: int
    start_time: int
    end_time: int
    initiated_by_host: bool


@dataclass(frozen=True)
class HostAggregate:
    """All flows for one external host within one UTC calendar day.

    ``flows`` is sorted by start_time, ties broken by (device_ip,
    device_port); ``device_count`` is the number of distinct device IPs.
    """

    host_ip: str
    window_date: dt.date
    flows: tuple[DirectedFlow, ...]
    device_count: int

    @classmethod
    def build(cls, host_ip: str, window_date: dt.date, flows: Iterable[DirectedFlow]) -> "HostAggregate":
        ordered = tuple(sorted(flows, key=lambda f: (f.start_time, f.device_ip, f.device_port)))
        if not ordered:
            raise ValueError("aggregate needs at least one flow")
        for flow in ordered:
            if flow.host_ip != host_ip:
                raise ValueError(f"flow host {flow.host_ip} != aggregate host {host_ip}")
            if window_day(flow.start_time) != window_date:
                raise ValueError(f"flow start {flow.start_time} outside window {window_date}")
        return cls(host_ip, window_date, ordered, len({flow.device_ip for flow in ordered}))


def contains(space: InternalSpace, ip: str) -> bool:
    """Whether one address lies in any of the space's networks of its IP version."""
    addr = ipaddress.ip_address(ip)
    return any(addr.version == net.version and addr in net for net in space.networks)


def split_direction(record: FlowRecord, space: InternalSpace) -> DirectedFlow | None:
    """Resolve a flow into host/device roles, or None when non-boundary."""
    src_internal = contains(space, record.src_ip)
    dst_internal = contains(space, record.dst_ip)
    if src_internal == dst_internal:
        return None
    if src_internal:
        return DirectedFlow(
            record.dst_ip, record.src_ip, record.src_port,
            record.bytes, record.packets, record.start_time, record.end_time, False,
        )
    return DirectedFlow(
        record.src_ip, record.dst_ip, record.dst_port,
        record.bytes, record.packets, record.start_time, record.end_time, True,
    )


def group_daily(
    records: Iterable[FlowRecord], space: InternalSpace
) -> tuple[dict[tuple[str, dt.date], HostAggregate], int]:
    """Per-(host, day) aggregates in (date string, host string) order, plus the non-boundary count."""
    buckets: dict[tuple[str, dt.date], list[DirectedFlow]] = {}
    non_boundary = 0
    for record in records:
        directed = split_direction(record, space)
        if directed is None:
            non_boundary += 1
            continue
        buckets.setdefault((directed.host_ip, window_day(directed.start_time)), []).append(directed)
    ordered = sorted(buckets.items(), key=lambda kv: (str(kv[0][1]), kv[0][0]))
    return {key: HostAggregate.build(key[0], key[1], flows) for key, flows in ordered}, non_boundary


def _sample_sd(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def flow_size_features(agg: HostAggregate, cfg: FeatureConfig) -> np.ndarray:
    nbytes = np.array([f.bytes for f in agg.flows], dtype=float)
    packets = np.array([f.packets for f in agg.flows], dtype=float)
    durations = np.array([(f.end_time - f.start_time) / 1000.0 for f in agg.flows])
    n = len(agg.flows)
    total_bytes = float(nbytes.sum())
    total_packets = float(packets.sum())
    total_duration = float(durations.sum())
    mean_bpp = float(np.mean(nbytes / packets))
    byte_rate = total_bytes / max(total_duration, EPS_SECONDS)
    packet_rate = total_packets / max(total_duration, EPS_SECONDS)
    host_initiated = sum(1 for f in agg.flows if f.initiated_by_host) / n
    port_index = {p: i for i, p in enumerate(cfg.tracked_ports)}
    port_fracs = np.zeros(len(cfg.tracked_ports) + 1)
    for f in agg.flows:
        port_fracs[port_index.get(f.device_port, len(cfg.tracked_ports))] += 1.0
    port_fracs /= n
    head = np.array(
        [total_bytes, total_packets, total_duration, float(n), float(agg.device_count), mean_bpp, byte_rate, packet_rate, host_initiated]
    )
    return np.concatenate([head, port_fracs])


def beaconing_features(agg: HostAggregate, cfg: FeatureConfig) -> np.ndarray:
    packets = np.array([f.packets for f in agg.flows], dtype=float)
    if len(agg.flows) < 2:
        return np.zeros(5)
    starts = np.array([f.start_time for f in agg.flows], dtype=np.int64)
    gaps = np.diff(starts) / 1000.0
    mean_gap = float(np.mean(gaps))
    sd_gap = _sample_sd(gaps)
    cv_gap = sd_gap / max(mean_gap, EPS_SECONDS)
    median_gap = float(np.median(gaps))
    tolerance = cfg.beacon_tolerance * median_gap
    periodicity = float(np.mean(np.abs(gaps - median_gap) <= tolerance))
    return np.array([mean_gap, sd_gap, cv_gap, periodicity, _sample_sd(packets)])


@dataclass(frozen=True)
class FlowVariableSample:
    """Per-flow variable vectors for one host: packets, bytes, bytes/packets."""

    packets_per_flow: np.ndarray
    bytes_per_flow: np.ndarray
    bpp_ratio: np.ndarray

    @classmethod
    def from_aggregate(cls, agg: HostAggregate) -> "FlowVariableSample":
        packets = np.array([f.packets for f in agg.flows], dtype=float)
        nbytes = np.array([f.bytes for f in agg.flows], dtype=float)
        return cls(packets_per_flow=packets, bytes_per_flow=nbytes, bpp_ratio=nbytes / packets)


def distributional_features(sample: FlowVariableSample, cfg: FeatureConfig) -> np.ndarray:
    parts = []
    for values in (sample.packets_per_flow, sample.bytes_per_flow, sample.bpp_ratio):
        head = np.array([float(np.mean(values)), _sample_sd(values)])
        parts.append(np.concatenate([head, quantile_transform(values, cfg.quantile_levels)]))
    return np.concatenate(parts)


def feature_row(agg: HostAggregate, cfg: FeatureConfig) -> np.ndarray:
    return np.concatenate(
        [
            flow_size_features(agg, cfg),
            beaconing_features(agg, cfg),
            distributional_features(FlowVariableSample.from_aggregate(agg), cfg),
        ]
    )


def featurize_aggregates(aggregates: Iterable[HostAggregate], cfg: FeatureConfig) -> list[tuple[str, dt.date, np.ndarray]]:
    """(host_ip, window_date, feature row) per aggregate, ordered by (date, numeric host IP)."""
    rows = [(agg.host_ip, agg.window_date, feature_row(agg, cfg)) for agg in aggregates]
    rows.sort(key=lambda row: (row[1].isoformat(), int(ipaddress.ip_address(row[0]))))
    return rows

