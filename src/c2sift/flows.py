"""Flow record schema, delimited-text ingest and the columnar flow table.

A flow file is UTF-8 delimited text (comma or tab) with a header row. A
schema config maps each canonical field name to the column header used in
the file; files written by this package use the canonical names directly.
Timestamps are epoch milliseconds UTC, kept at millisecond precision
because inter-arrival features depend on it.

Reads and writes go CHUNK_ROWS = 2048 rows at a time, so memory is the
columns plus one chunk's strings (~1 MB; on a W1 day, 512-row chunks were
slower and 8,192-row ones no faster). ``_read_rows`` states the tokenizer
rule and ``_check_rows`` the check order and the rows ``_check_row``
decides, which keep a row-by-row parse's rows, reasons and address order.
"""
from __future__ import annotations

import csv
import ipaddress
import sys
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from pathlib import Path
from types import SimpleNamespace
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

# rows per read or write: see the module docstring
CHUNK_ROWS = 2048
# a written row: addresses and flags as csv.writer renders them, ints as str() does
ROW_FORMAT = ",".join(["%s"] * 2 + ["%d"] * len(INT_FIELDS) + ["%s"])


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

    def _reject(self, reason: str, count: int = 1) -> None:
        if count:
            self.lines_read += count
            self.records_rejected += count
            self.reject_reasons[reason] = self.reject_reasons.get(reason, 0) + count

    def _accept(self, count: int = 1) -> None:
        self.lines_read += count
        self.records_accepted += count


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
        self._memo: dict[str, int] = {}  # raw text -> code, -1 when invalid

    def code(self, text: str) -> int:
        try:
            return self._memo[text]
        except KeyError:
            pass
        try:
            canonical = str(ipaddress.ip_address(text.strip()))
        except ValueError:
            code = -1
        else:
            code = self.ips.setdefault(canonical, len(self.ips))
        self._memo[text] = code
        return code

    def codes(self, texts: list[str]) -> np.ndarray:
        """``code`` of each text, interning new addresses in list order."""
        codes = np.array(list(map(self._memo.get, texts, repeat(-2))), np.int64)
        for i in np.flatnonzero(codes == -2).tolist():
            codes[i] = self.code(texts[i])
        return codes


def _check_row(row: list[str], index: tuple[int, ...], addresses: _AddressCodes) -> tuple[list[int], str]:
    """Validate one row's fields; returns its int64 values (src and dst
    codes, then INT_FIELDS) and its flags.

    Raises RowError with a reason tag on the first invariant violated.
    """
    src = addresses.code(row[index[0]])
    dst = addresses.code(row[index[1]])
    if src < 0 or dst < 0:
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


def _read_rows(handle, delimiter: str) -> tuple[list[str], np.ndarray] | None:
    """The next CHUNK_ROWS lines' fields, row after row, and each non-blank
    row's field count (None at the end). A line read with ``newline=""``
    ends in its only line end, so with no quote, NUL or line over csv's
    field limit, ``str.split`` is what ``csv.reader`` returns; else
    ``csv.reader`` reads the chunk, and past it while a quote is open."""
    lines = list(islice(handle, CHUNK_ROWS))
    if not lines:
        return None
    rows = list(filter(None, map(str.rstrip, lines, repeat("\r\n"))))
    text = delimiter.join(rows)
    if '"' not in text and "\0" not in text and max(map(len, rows), default=0) <= csv.field_size_limit():
        counts = np.fromiter(map(str.count, rows, repeat(delimiter)), np.int64, len(rows)) + 1
        del lines, rows  # free them before the fields exist
        return text.split(delimiter), counts
    reader = csv.reader(chain(lines, handle), delimiter=delimiter)
    rows = []
    for row in reader:
        if row:
            rows.append(row)
        if reader.line_num >= len(lines):
            break
    return list(chain.from_iterable(rows)), np.fromiter(map(len, rows), np.int64, len(rows))


def _int_column(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``int(text.strip())`` of each field as int64, and where that fails or falls outside int64."""
    try:
        return np.array(list(map(int, map(str.strip, texts))), np.int64), np.zeros(len(texts), bool)
    except (ValueError, OverflowError):
        pass
    values, bad = np.zeros(len(texts), np.int64), np.zeros(len(texts), bool)
    for i, text in enumerate(texts):
        try:
            values[i] = int(text.strip())
        except (ValueError, OverflowError):
            bad[i] = True
    return values, bad


def _check_rows(fields, counts, width, index, addresses, stats, parts, flags) -> None:
    """``_check_row`` on each row of a chunk, as masks: appends the accepted
    rows' values to ``parts`` and their flags to ``flags``, counts the rest."""
    starts = (np.cumsum(counts) - counts)[counts == width]
    stats._reject("field-count", len(counts) - len(starts))
    if not len(starts):
        return
    if len(starts) < len(counts):
        fields = [field for start in starts.tolist() for field in fields[start : start + width]]
    texts = [""] * (2 * len(starts))
    texts[::2], texts[1::2] = fields[index[0] :: width], fields[index[1] :: width]
    codes = addresses.codes(texts)
    src, dst = codes[::2], codes[1::2]
    ints, bad = zip(*(_int_column(fields[i::width]) for i in index[2:9]))
    undecided = np.logical_or.reduce(bad)
    src_port, dst_port, nbytes, packets, start_time, end_time, protocol = ints
    masks = {  # _check_row's order; only it decides bad-integer and int64-range
        "bad-address": (src < 0) | (dst < 0),
        "port-range": (src_port < 0) | (src_port > 65535) | (dst_port < 0) | (dst_port > 65535),
        "protocol-range": (protocol < 0) | (protocol > 255),
        "portless-protocol": np.isin(protocol, list(PORTLESS_PROTOCOLS)) & ((src_port != 0) | (dst_port != 0)),
        "negative-bytes": nbytes < 0,
        "bad-packets": packets < 1,
        "bytes-lt-packets": nbytes < packets,
        "time-order": end_time < start_time,
    }
    reason = np.select(list(masks.values()), range(1, len(masks) + 1), 0)
    reason[undecided] = -1
    for k, name in enumerate(masks, start=1):
        stats._reject(name, int(np.count_nonzero(reason == k)))
    # a field int() refuses is bad-address or bad-integer, and a value
    # outside int64 fails a range check or int64-range: these all raise
    for i in np.flatnonzero(undecided).tolist():
        try:
            _check_row(fields[i * width : (i + 1) * width], index, addresses)
        except RowError as exc:
            stats._reject(exc.reason)
    accepted = reason == 0
    start, end = len(flags), len(flags) + int(np.count_nonzero(accepted))
    stats._accept(end - start)
    for k, column in enumerate((src, dst, *ints)):
        if end > len(parts[k]):  # double, in blocks malloc maps apart from a chunk's temporaries
            parts[k], old = np.empty(max(2 * end, 16 * CHUNK_ROWS), np.int64), parts[k]
            parts[k][:start] = old[:start]
        parts[k][start:end] = column[accepted]
    flags.extend(map(sys.intern, map(str.strip, compress(fields[index[9] :: width], accepted.tolist()))))


def parse_flow_file(
    path: str | Path,
    schema: Mapping[str, str] | None = None,
) -> tuple[FlowTable, IngestStats]:
    """Stream a flow file into a FlowTable plus ingest stats, CHUNK_ROWS lines at a time.

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
        delimiter = "\t" if "\t" in first else ","
        header = next(csv.reader(chain([first], handle), delimiter=delimiter))
        index = []
        for name in CANONICAL_FIELDS:
            column = schema[name]
            if column not in header:
                raise ValueError(f"{path}: header missing mapped column {column!r} (field {name})")
            index.append(header.index(column))
        index = tuple(index)

        addresses = _AddressCodes()
        names = ("src", "dst") + INT_FIELDS
        parts = [np.empty(0, np.int64) for _ in names]
        flags: list[str] = []
        stats = IngestStats()
        while chunk := _read_rows(handle, delimiter):
            _check_rows(*chunk, len(header), index, addresses, stats, parts, flags)
            del chunk  # one chunk's fields in memory at a time
    table = FlowTable(
        ips=tuple(addresses.ips),
        flags=tuple(flags),
        **{name: part[: len(flags)] for name, part in zip(names, parts)},
    )
    return table, stats


def string_ranks(strings: tuple[str, ...]) -> np.ndarray:
    """Position of each string in sorted string order, for lexsort keys on addresses."""
    ranks = np.empty(len(strings), dtype=np.int64)
    ranks[sorted(range(len(strings)), key=strings.__getitem__)] = np.arange(len(strings))
    return ranks


def _csv_fields(strings) -> dict[str, str]:
    """Each string as ``csv.writer`` writes it in a row of two fields (one
    empty field alone is the one case it writes as ``""``)."""
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n").writerows((text, "") for text in strings)
    return {text: line[:-2] for text, line in zip(strings, lines)}


def write_flow_file(path: str | Path, table: FlowTable) -> int:
    """Write a table with the canonical header, CHUNK_ROWS rows per write, as csv.writer would; returns the row count."""
    ips = list(map(_csv_fields(table.ips).__getitem__, table.ips))
    flags = _csv_fields(set(table.flags))
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerow(CANONICAL_FIELDS)
        for lo in range(0, len(table), CHUNK_ROWS):
            chunk = slice(lo, lo + CHUNK_ROWS)
            fields = [map(ips.__getitem__, table.src[chunk].tolist()), map(ips.__getitem__, table.dst[chunk].tolist())]
            fields += [getattr(table, name)[chunk].tolist() for name in INT_FIELDS]
            fields.append(map(flags.__getitem__, table.flags[chunk]))
            handle.write("\n".join(map(ROW_FORMAT.__mod__, zip(*fields))) + "\n")
    return len(table)
