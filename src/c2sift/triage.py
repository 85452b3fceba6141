"""Post-model triage: list filtering plus analyst-style rules.

Flagged hosts are checked against curated IP lists first (deny, allow,
CDN/cloud, sinkhole), then the survivors go through rule review. Outcome
precedence is known_malicious > suppressed_* > candidate; a host is a
candidate only when every rule passes. Hosts failing rule review
get the suppressed_rules outcome so every flagged host receives exactly
one decision.
"""
from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .configio import parse_kv_file, read_settings
from .evaluate import check_threshold

LIST_KINDS = ("deny", "allow", "cdn_cloud", "sinkhole")

OUTCOME_KNOWN_MALICIOUS = "known_malicious"
OUTCOME_SUPPRESSED_ALLOW = "suppressed_allowlist"
OUTCOME_SUPPRESSED_CDN = "suppressed_cdn"
OUTCOME_SUPPRESSED_SINKHOLE = "suppressed_sinkhole"
OUTCOME_SUPPRESSED_RULES = "suppressed_rules"
OUTCOME_CANDIDATE = "candidate"

# list kind -> (outcome, precedence position); deny wins over every allow-side list
_SUPPRESS_ORDER = (
    ("deny", OUTCOME_KNOWN_MALICIOUS),
    ("allow", OUTCOME_SUPPRESSED_ALLOW),
    ("cdn_cloud", OUTCOME_SUPPRESSED_CDN),
    ("sinkhole", OUTCOME_SUPPRESSED_SINKHOLE),
)


@dataclass
class IpListSource:
    """A named list of addresses and CIDR blocks of one kind."""

    name: str
    kind: str
    addresses: frozenset[str]
    networks: tuple
    invalid_lines: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in LIST_KINDS:
            raise ValueError(f"unknown list kind {self.kind!r}")

    @property
    def entry_count(self) -> int:
        return len(self.addresses) + len(self.networks)

    def contains(self, ip: str) -> bool:
        addr = ipaddress.ip_address(ip)
        if str(addr) in self.addresses:
            return True
        return any(addr.version == net.version and addr in net for net in self.networks)


def load_ip_list(path: str | Path, kind: str, name: str | None = None) -> IpListSource:
    """One entry per line; ``#`` comments and blanks skipped.

    Invalid lines are kept on the source for reporting, never silently
    dropped; duplicates collapse.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read IP list {path}: {exc}") from exc
    addresses: set[str] = set()
    networks: dict[str, object] = {}
    invalid: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "/" in line:
                net = ipaddress.ip_network(line, strict=False)
                networks[str(net)] = net
            else:
                addresses.add(str(ipaddress.ip_address(line)))
        except ValueError:
            invalid.append(line)
    return IpListSource(
        name=name or path.stem,
        kind=kind,
        addresses=frozenset(addresses),
        networks=tuple(networks[k] for k in sorted(networks)),
        invalid_lines=tuple(invalid),
    )


@dataclass(frozen=True)
class Rule:
    """Pure predicate over (feature row, score); True means "looks like C2"."""

    name: str
    predicate: Callable[[Mapping[str, float], float], bool]


@dataclass(frozen=True)
class TriageConfig:
    threshold: float = 0.5
    min_devices: int = 1
    min_periodicity: float = 0.0

    def __post_init__(self):
        check_threshold(self.threshold)

    @classmethod
    def from_file(cls, path: str | Path) -> "TriageConfig":
        return read_settings(cls, parse_kv_file(path), str(path))


def build_rules(cfg: TriageConfig) -> tuple[Rule, ...]:
    """The shipped review rules, thresholds from config."""
    return (
        Rule("min_score", lambda row, score: score >= cfg.threshold),
        Rule("min_devices", lambda row, score: row["device_count"] >= cfg.min_devices),
        Rule("min_periodicity", lambda row, score: row["periodicity_score"] >= cfg.min_periodicity),
    )


@dataclass(frozen=True)
class TriageDecision:
    """One flagged host-day's outcome; ``decided_by`` indexes the list that decided it."""

    host_ip: str
    window_date: str
    score: float
    outcome: str
    matched_rules: tuple[str, ...] = ()
    decided_by: int | None = None


def _list_outcome(host_ip: str, lists: Sequence[IpListSource]) -> tuple[str, int] | None:
    for kind, outcome in _SUPPRESS_ORDER:
        for i, source in enumerate(lists):
            if source.kind == kind and source.contains(host_ip):
                return outcome, i
    return None


def triage(
    flagged: Iterable[tuple[str, str, float]],
    lists: Sequence[IpListSource],
    rules: Sequence[Rule],
    feature_rows: Mapping[tuple[str, str], Mapping[str, float]],
) -> list[TriageDecision]:
    """Decide each flagged (host_ip, window_date, score) exactly once.

    Rules run only on hosts that survive list suppression; a candidate
    must pass every rule and records the rules it matched.
    """
    decisions: list[TriageDecision] = []
    for host_ip, window_date, score in flagged:
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score {score} for host {host_ip} outside [0, 1]")
        listed = _list_outcome(host_ip, lists)
        if listed is not None:
            decisions.append(TriageDecision(host_ip, window_date, score, listed[0], decided_by=listed[1]))
            continue
        row = feature_rows.get((host_ip, window_date))
        if row is None:
            raise KeyError(f"no feature row for host {host_ip} on {window_date}")
        matched = []
        all_pass = True
        for rule in rules:
            if rule.predicate(row, score):
                matched.append(rule.name)
            else:
                all_pass = False
        outcome = OUTCOME_CANDIDATE if all_pass else OUTCOME_SUPPRESSED_RULES
        decisions.append(TriageDecision(host_ip, window_date, score, outcome, tuple(matched)))
    return decisions


def list_summary(lists: Sequence[IpListSource], decisions: Sequence[TriageDecision]) -> list[dict]:
    """Per list: its entry count, the lines it could not read, and the flagged host-days it decided."""
    return [
        {
            "name": source.name,
            "kind": source.kind,
            "entries": source.entry_count,
            "invalid_lines": list(source.invalid_lines),
            "hits": sum(1 for d in decisions if d.decided_by == i),
        }
        for i, source in enumerate(lists)
    ]


def write_decisions(path: str | Path, decisions: Sequence[TriageDecision]) -> None:
    lines = ["host_ip,window_date,score,outcome,matched_rules"]
    for d in sorted(decisions, key=lambda d: (d.window_date, d.host_ip)):
        lines.append(
            ",".join([d.host_ip, d.window_date, repr(float(d.score)), d.outcome, ";".join(d.matched_rules)])
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
