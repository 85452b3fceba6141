"""Host-centric aggregation: group boundary flows per external host and day.

The unit of prediction downstream is (host_ip, window_date). A flow belongs
to the calendar day (UTC) of its start time; flows straddling midnight stay
with the start day. Traffic that does not cross the internal/external
boundary carries no host/device signature and is excluded but counted.
"""
from __future__ import annotations

import datetime as dt
import ipaddress
import socket
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .flows import DAY_MS, FlowTable, string_ranks


class InternalSpace:
    """The set of internal ("device") addresses, defined by CIDR prefixes.

    Prefixes need not be disjoint; membership is any-match.
    """

    def __init__(self, cidrs: Iterable[str]):
        networks = [ipaddress.ip_network(c.strip(), strict=False) for c in cidrs]
        if not networks:
            raise ValueError("internal space needs at least one CIDR prefix")
        self.networks = tuple(networks)

    @classmethod
    def from_file(cls, path: str | Path) -> "InternalSpace":
        """One CIDR per line, ``#`` comments allowed."""
        cidrs = []
        for raw in Path(path).read_text(encoding="utf-8").splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                cidrs.append(line)
        return cls(cidrs)

    def inside(self, ips: Sequence[str]) -> np.ndarray:
        """Whether each address lies in any prefix of its own IP version.

        Addresses are packed into big-endian 32-bit words (one for v4, four
        for v6), and each network is one mask-and-compare over the words of
        every address of its version.
        """
        packed = [_packed(ip) for ip in ips]
        inside = np.zeros(len(packed), dtype=bool)
        for width in (4, 16):
            rows = np.flatnonzero([len(p) == width for p in packed])
            if rows.size == 0:
                continue
            words = np.frombuffer(b"".join(packed[i] for i in rows), dtype=">u4").reshape(rows.size, width // 4)
            for net in self.networks:
                if len(net.network_address.packed) == width:
                    mask = np.frombuffer(net.netmask.packed, dtype=">u4")
                    prefix = np.frombuffer(net.network_address.packed, dtype=">u4")
                    inside[rows] |= ((words & mask) == prefix).all(axis=1)
        return inside


def _packed(ip: str) -> bytes:
    """An address's network-order bytes: 4 for IPv4, 16 for IPv6."""
    try:
        return socket.inet_pton(socket.AF_INET, ip)  # fast path for the usual dotted quad
    except OSError:
        return ipaddress.ip_address(ip).packed


@dataclass(frozen=True)
class HostDays:
    """Boundary flows re-keyed as (external host, internal device), per host-day.

    Flows are sorted by (day, host address string, start_time, device
    address string, device_port), ties kept in input order. Host-day ``i``
    is rows ``bounds[i]:bounds[i + 1]``, for ``host_ip[i]`` on
    ``window_date[i]``; ``device`` codes index ``ips``.
    ``initiated_by_host`` is True exactly when the external endpoint is
    the flow's source.
    """

    ips: tuple[str, ...]
    bounds: np.ndarray
    host_ip: tuple[str, ...]
    window_date: tuple[dt.date, ...]
    device: np.ndarray
    device_port: np.ndarray
    bytes: np.ndarray
    packets: np.ndarray
    start_time: np.ndarray
    end_time: np.ndarray
    initiated_by_host: np.ndarray

    def __len__(self) -> int:
        return len(self.host_ip)


def window_day(start_time_ms: int) -> dt.date:
    """UTC calendar day owning a start timestamp."""
    return dt.datetime.fromtimestamp(start_time_ms // 1000, tz=dt.timezone.utc).date()


def group_daily(table: FlowTable, space: InternalSpace) -> tuple[HostDays, int]:
    """Group a table's boundary flows per (host, day).

    Returns the host-days plus the count of excluded non-boundary flows.
    Output is independent of input ordering except among flows equal in
    every sort key.
    """
    inside = space.inside(table.ips)
    src_inside = inside[table.src]
    boundary = np.flatnonzero(src_inside != inside[table.dst])
    by_host = ~src_inside[boundary]
    src, dst = table.src[boundary], table.dst[boundary]
    host = np.where(by_host, src, dst)
    device = np.where(by_host, dst, src)
    device_port = np.where(by_host, table.dst_port[boundary], table.src_port[boundary])
    start = table.start_time[boundary]
    day = start // DAY_MS
    ranks = string_ranks(table.ips)
    order = np.lexsort((device_port, ranks[device], start, ranks[host], day))
    rows = boundary[order]
    host, day, start = host[order], day[order], start[order]
    firsts = np.flatnonzero(np.r_[True, (np.diff(day) != 0) | (np.diff(host) != 0)])[: len(order)]
    host_days = HostDays(
        ips=table.ips,
        bounds=np.append(firsts, len(order)),
        host_ip=tuple(table.ips[code] for code in host[firsts].tolist()),
        window_date=tuple(window_day(ms) for ms in start[firsts].tolist()),
        device=device[order],
        device_port=device_port[order],
        bytes=table.bytes[rows],
        packets=table.packets[rows],
        start_time=start,
        end_time=table.end_time[rows],
        initiated_by_host=by_host[order],
    )
    return host_days, len(table) - len(boundary)
