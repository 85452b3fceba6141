"""The feature matrix: the ``LabeledDataset`` container and its ``features.csv`` codec.

``features.csv`` is comma-delimited text with a header row: host_ip,
window_date, an optional label column, then one column per feature.
Each row is one (host_ip, window_date) key; values are written with
``repr``, so a matrix reads back with the same bits.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with optional binary labels (1 malicious, 0 unknown).

    Rows align with ``row_keys`` of (host_ip, iso window date). ``y`` is
    None for score-only matrices; training entry points require labels
    with both classes present.
    """

    X: np.ndarray
    y: np.ndarray | None
    feature_names: tuple[str, ...]
    row_keys: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if self.X.ndim != 2:
            raise ValueError("X must be 2-D")
        if self.X.shape[1] != len(self.feature_names):
            raise ValueError("feature_names length must match X width")
        if len(self.row_keys) != self.X.shape[0]:
            raise ValueError("row_keys length must match X rows")
        if not np.all(np.isfinite(self.X)):
            row, col = np.argwhere(~np.isfinite(self.X))[0]
            raise ValueError(f"non-finite value at row {row}, column {self.feature_names[col]!r}")
        if self.y is not None:
            if len(self.y) != self.X.shape[0]:
                raise ValueError("y length must match X rows")
            if not np.isin(self.y, (0, 1)).all():
                raise ValueError("labels must be 0/1")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    def require_training_labels(self) -> np.ndarray:
        if self.y is None:
            raise ValueError("dataset has no labels; training requires them")
        if len(np.unique(self.y)) < 2:
            raise ValueError("training requires both classes present")
        return self.y

    def take(self, idx: np.ndarray) -> "LabeledDataset":
        """Row subset (used for folds and resamples)."""
        return LabeledDataset(
            X=self.X[idx],
            y=None if self.y is None else self.y[idx],
            feature_names=self.feature_names,
            row_keys=tuple(self.row_keys[int(i)] for i in idx),
        )


def write_feature_matrix(path: str | Path, data: LabeledDataset) -> None:
    """Write ``data`` as ``features.csv``, with a label column when ``data.y`` is set.

    A feature named ``label``, or one that is empty or holds a comma or a
    line break, would read back as another matrix, so it is refused.
    """
    for name in data.feature_names:
        if name == "label" or "," in name or name.splitlines() != [name]:
            raise ValueError(f"feature name {name!r} cannot be a features.csv column")
    header = ["host_ip", "window_date", *data.feature_names]
    keys = [list(key) for key in data.row_keys]
    if data.y is not None:
        header.insert(2, "label")
        for cells, label in zip(keys, data.y.tolist()):
            cells.append(str(int(label)))
    lines = [",".join(header)] + [",".join([*cells, *map(repr, row)]) for cells, row in zip(keys, data.X.tolist())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_feature_matrix(path: str | Path) -> LabeledDataset:
    """Read a matrix that ``write_feature_matrix`` wrote.

    Expects columns host_ip, window_date, optional label, then features.
    A repeated feature name or a repeated (host_ip, window_date) key is
    refused, naming the column or the line.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty feature matrix")
    header = lines[0].split(",")
    if header[:2] != ["host_ip", "window_date"]:
        raise ValueError(f"{path}: expected leading host_ip, window_date columns")
    has_label = len(header) > 2 and header[2] == "label"
    first_feature = 3 if has_label else 2
    names = tuple(header[first_feature:])
    if not names:
        raise ValueError(f"{path}: no feature columns")
    for column, name in enumerate(names):
        if name in names[:column]:
            raise ValueError(f"{path}: feature column {name!r} appears twice")

    keys: dict[tuple[str, str], int] = {}
    labels: list[int] = []
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} columns, got {len(parts)}")
        key = (parts[0], parts[1])
        if key in keys:
            raise ValueError(f"{path}:{lineno}: host {key[0]} on {key[1]} repeats line {keys[key]}")
        try:
            if has_label:
                labels.append(int(parts[2]))
            rows.append([float(v) for v in parts[first_feature:]])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        keys[key] = lineno

    X = np.array(rows, dtype=float) if rows else np.empty((0, len(names)))
    y = np.array(labels, dtype=int) if has_label else None
    return LabeledDataset(X=X, y=y, feature_names=names, row_keys=tuple(keys))
