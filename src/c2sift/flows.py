"""Flow record schema, delimited-text ingest and the columnar flow table.

A flow file is UTF-8 delimited text (comma or tab) with a header row. A
schema config maps each canonical field name to the column header used in
the file; files written by this package use the canonical names directly.
Timestamps are epoch milliseconds UTC, kept at millisecond precision
because inter-arrival features depend on it.
"""
from __future__ import annotations

import csv
import ipaddress
import sys
from array import array
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Mapping

import numpy as np

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
# the int64 columns of a FlowTable, in canonical order
INT_FIELDS = CANONICAL_FIELDS[2:9]

# IP protocols with no port concept; rows for these must carry port 0.
PORTLESS_PROTOCOLS = frozenset({1, 58})

INT64_MAX = np.iinfo(np.int64).max
INT64_MIN = np.iinfo(np.int64).min

DAY_MS = 86_400_000


@dataclass(frozen=True)
class FlowTable:
    """Flows as columns, one row per flow.

    ``src`` and ``dst`` are codes into ``ips``, the distinct canonical
    addresses; the other fields are int64 columns except ``flags``.
    """

    ips: tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    bytes: np.ndarray
    packets: np.ndarray
    start_time: np.ndarray
    end_time: np.ndarray
    protocol: np.ndarray
    flags: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.src)


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

    def __init__(self, reason: str):
        super().__init__(reason)
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


class _AddressCodes:
    """Canonicalizes each distinct address string once and interns the result."""

    def __init__(self):
        self.ips: dict[str, int] = {}  # canonical address -> code
        self._memo: dict[str, int | None] = {}  # raw text -> code, None when invalid

    def code(self, text: str) -> int | None:
        try:
            return self._memo[text]
        except KeyError:
            pass
        try:
            canonical = str(ipaddress.ip_address(text.strip()))
        except ValueError:
            code = None
        else:
            code = self.ips.setdefault(canonical, len(self.ips))
        self._memo[text] = code
        return code


def _check_row(row: list[str], index: tuple[int, ...], addresses: _AddressCodes) -> tuple[list[int], str]:
    """Validate one row's fields; returns its int64 values (src and dst
    codes, then INT_FIELDS) and its flags.

    Raises RowError with a reason tag on the first invariant violated.
    """
    src = addresses.code(row[index[0]])
    dst = addresses.code(row[index[1]])
    if src is None or dst is None:
        raise RowError("bad-address")
    try:
        ints = [int(row[i].strip()) for i in index[2:9]]
    except ValueError:
        raise RowError("bad-integer") from None
    src_port, dst_port, nbytes, packets, start_time, end_time, protocol = ints
    if not (0 <= src_port <= 65535 and 0 <= dst_port <= 65535):
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
        # corrupt collector output should surface, not skew features
        raise RowError("bytes-lt-packets")
    if end_time < start_time:
        raise RowError("time-order")
    # the checks above bound every other field by these three
    if nbytes > INT64_MAX or end_time > INT64_MAX or start_time < INT64_MIN:
        raise RowError("int64-range")
    return [src, dst, *ints], row[index[9]].strip()


def parse_flow_file(
    path: str | Path,
    schema: Mapping[str, str] | None = None,
) -> tuple[FlowTable, IngestStats]:
    """Stream a flow file into a FlowTable plus ingest stats.

    Malformed rows are counted per reason, never silently dropped; a row
    with more or fewer fields than the header is ``field-count``. An
    unreadable file or a header missing a mapped column is fatal. Rows
    keep file order and the parse is deterministic.
    """
    schema = dict(schema) if schema is not None else identity_schema()
    path = Path(path)
    try:
        handle = path.open(encoding="utf-8", newline="")
    except OSError as exc:
        raise ValueError(f"cannot read flow file {path}: {exc}") from exc
    with handle:
        first = handle.readline()
        if not first:
            raise ValueError(f"{path}: empty file, header row required")
        reader = csv.reader(chain([first], handle), delimiter="\t" if "\t" in first else ",")
        header = next(reader)
        index = []
        for name in CANONICAL_FIELDS:
            column = schema[name]
            if column not in header:
                raise ValueError(f"{path}: header missing mapped column {column!r} (field {name})")
            index.append(header.index(column))
        index = tuple(index)

        addresses = _AddressCodes()
        names = ("src", "dst") + INT_FIELDS
        columns = [array("q") for _ in names]
        flags: list[str] = []
        stats = IngestStats()
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                stats._reject("field-count")
                continue
            try:
                values, flag = _check_row(row, index, addresses)
            except RowError as exc:
                stats._reject(exc.reason)
                continue
            for column, value in zip(columns, values):
                column.append(value)
            flags.append(sys.intern(flag))
            stats._accept()
    table = FlowTable(
        ips=tuple(addresses.ips),
        flags=tuple(flags),
        **{name: np.frombuffer(column, dtype=np.int64) for name, column in zip(names, columns)},
    )
    return table, stats


def string_ranks(strings: tuple[str, ...]) -> np.ndarray:
    """Position of each string in sorted string order, for lexsort keys on addresses."""
    ranks = np.empty(len(strings), dtype=np.int64)
    ranks[sorted(range(len(strings)), key=strings.__getitem__)] = np.arange(len(strings))
    return ranks


def write_flow_file(path: str | Path, table: FlowTable) -> int:
    """Write a table with the canonical header; returns the row count."""
    ips = table.ips
    columns = [getattr(table, name).tolist() for name in INT_FIELDS]
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CANONICAL_FIELDS)
        for src, dst, *ints, flags in zip(table.src.tolist(), table.dst.tolist(), *columns, table.flags):
            writer.writerow([ips[src], ips[dst], *ints, flags])
    return len(table)
