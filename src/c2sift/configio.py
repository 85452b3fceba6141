"""Shared parsing for the small key=value config files used by the CLI,
and the one reader that turns a mapping into a settings dataclass."""
from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Mapping, TypeVar

T = TypeVar("T")


def parse_kv_file(path: str | Path) -> dict[str, str]:
    """Read a ``key = value`` file, skipping blanks and ``#`` comments.

    Raises ValueError on lines without ``=`` or on duplicate keys.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValueError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _cast(default, value):
    if default is None:
        return value
    if isinstance(default, tuple):  # each item cast like the default's items
        return tuple(_cast(default[0], item) for item in value)
    if isinstance(default, bool) and value in ("true", "false"):
        return value == "true"
    cast = type(default)(value)
    if isinstance(default, bool) != isinstance(value, bool) or (not isinstance(value, str) and cast != value):
        raise ValueError  # a lossy cast: 2.7 or True for an int, 0 or "no" for a bool
    return cast


def read_settings(cls: type[T], values: Mapping, source: str) -> T:
    """The dataclass ``cls`` with ``values`` over its defaults.

    Each value is cast to the type of its field's default; a field whose
    default is None takes the value as is, and a bool field also reads the
    text "true" or "false". An unknown key, a value that does not cast, a
    bool for a non-bool field, a non-text value its cast would change (2.7
    for an int), or a value ``cls`` refuses raises ValueError naming
    ``source`` and the key.
    """
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in values.items():
        if key not in defaults:
            raise ValueError(f"{source}: unknown key {key!r} (known: {', '.join(defaults)})")
        try:
            kwargs[key] = _cast(defaults[key], value)
        except (TypeError, ValueError):
            raise ValueError(f"{source}: {key} = {value!r} is not a valid {type(defaults[key]).__name__}") from None
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
