"""Flow record schema and delimited-text ingest.

A flow file is UTF-8 delimited text (comma or tab) with a header row. A
schema config maps each canonical field name to the column header used in
the file; files written by this package use the canonical names directly.
Timestamps are epoch milliseconds UTC, kept at millisecond precision
because inter-arrival features depend on it.
"""
from __future__ import annotations

import csv
import ipaddress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .configio import parse_kv_file

CANONICAL_FIELDS = (
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "bytes",
    "packets",
    "start_time",
    "end_time",
    "protocol",
    "flags",
)

# IP protocols with no port concept; rows for these must carry port 0.
PORTLESS_PROTOCOLS = frozenset({1, 58})


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


@dataclass
class IngestStats:
    """Accepted/rejected row counts for one parse (header excluded)."""

    lines_read: int = 0
    records_accepted: int = 0
    records_rejected: int = 0
    reject_reasons: dict[str, int] = field(default_factory=dict)

    def _reject(self, reason: str) -> None:
        self.lines_read += 1
        self.records_rejected += 1
        self.reject_reasons[reason] = self.reject_reasons.get(reason, 0) + 1

    def _accept(self) -> None:
        self.lines_read += 1
        self.records_accepted += 1



class RowError(ValueError):
    """Invalid data row; ``reason`` is a short machine-readable tag."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(detail or reason)
        self.reason = reason


def identity_schema() -> dict[str, str]:
    return {name: name for name in CANONICAL_FIELDS}


def read_schema(path: str | Path) -> dict[str, str]:
    """Load a column-mapping config (canonical field = column header)."""
    raw = parse_kv_file(path)
    unknown = sorted(set(raw) - set(CANONICAL_FIELDS))
    if unknown:
        raise ValueError(f"{path}: unknown schema field(s): {', '.join(unknown)}")
    missing = sorted(set(CANONICAL_FIELDS) - set(raw))
    if missing:
        raise ValueError(f"{path}: schema missing field(s): {', '.join(missing)}")
    return {name: raw[name] for name in CANONICAL_FIELDS}


def _canonical_ip(text: str) -> str:
    return str(ipaddress.ip_address(text.strip()))


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise RowError("bad-integer", f"field {name!r}: not an integer: {text!r}") from None


def build_record(values: Mapping[str, str]) -> FlowRecord:
    """Validate one row's field strings and build a FlowRecord.

    Raises RowError with a reason tag on any invariant violation.
    """
    try:
        src_ip = _canonical_ip(values["src_ip"])
        dst_ip = _canonical_ip(values["dst_ip"])
    except ValueError:
        raise RowError("bad-address") from None
    src_port = _parse_int(values["src_port"], "src_port")
    dst_port = _parse_int(values["dst_port"], "dst_port")
    nbytes = _parse_int(values["bytes"], "bytes")
    packets = _parse_int(values["packets"], "packets")
    start_time = _parse_int(values["start_time"], "start_time")
    end_time = _parse_int(values["end_time"], "end_time")
    protocol = _parse_int(values["protocol"], "protocol")
    flags = values.get("flags", "").strip()

    for port in (src_port, dst_port):
        if not 0 <= port <= 65535:
            raise RowError("port-range", f"port {port} outside 0..65535")
    if not 0 <= protocol <= 255:
        raise RowError("protocol-range", f"protocol {protocol} outside 0..255")
    if protocol in PORTLESS_PROTOCOLS and (src_port != 0 or dst_port != 0):
        raise RowError("portless-protocol", f"protocol {protocol} carries no ports")
    if nbytes < 0:
        raise RowError("negative-bytes")
    if packets < 1:
        raise RowError("bad-packets", f"packets {packets} < 1")
    if nbytes < packets:
        # corrupt collector output should surface, not skew features
        raise RowError("bytes-lt-packets", f"bytes {nbytes} < packets {packets}")
    if end_time < start_time:
        raise RowError("time-order", f"end_time {end_time} < start_time {start_time}")

    return FlowRecord(
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        bytes=nbytes,
        packets=packets,
        start_time=start_time,
        end_time=end_time,
        protocol=protocol,
        flags=flags,
    )


def _sniff_delimiter(header_line: str) -> str:
    return "\t" if "\t" in header_line else ","


def parse_flow_file(
    path: str | Path,
    schema: Mapping[str, str] | None = None,
) -> tuple[list[FlowRecord], IngestStats]:
    """Parse a flow file into validated records plus ingest stats.

    Malformed rows are counted per reason, never silently dropped; a row
    with more or fewer fields than the header is ``field-count``. An
    unreadable file or a header missing a mapped column is fatal.
    Parsing is order-preserving and deterministic.
    """
    schema = dict(schema) if schema is not None else identity_schema()
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read flow file {path}: {exc}") from exc

    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file, header row required")
    delimiter = _sniff_delimiter(lines[0])
    reader = csv.reader(lines, delimiter=delimiter)
    header = next(reader)
    column_index: dict[str, int] = {}
    for name in CANONICAL_FIELDS:
        column = schema[name]
        if column not in header:
            raise ValueError(f"{path}: header missing mapped column {column!r} (field {name})")
        column_index[name] = header.index(column)

    records: list[FlowRecord] = []
    stats = IngestStats()
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            stats._reject("field-count")
            continue
        values = {name: row[idx] for name, idx in column_index.items()}
        try:
            records.append(build_record(values))
        except RowError as exc:
            stats._reject(exc.reason)
            continue
        stats._accept()
    return records, stats


def record_to_row(record: FlowRecord) -> list[str]:
    """Serialize a record to canonical column order; re-parsing round-trips."""
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


def write_flow_file(path: str | Path, records: Iterable[FlowRecord]) -> int:
    """Write records with the canonical header; returns the row count."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CANONICAL_FIELDS)
        for record in records:
            writer.writerow(record_to_row(record))
            count += 1
    return count
