"""Labeled feature-matrix container and delimited-text loader."""
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


def load_feature_matrix(path: str | Path) -> LabeledDataset:
    """Read a feature matrix written by the features module.

    Expects columns host_ip, window_date, optional label, then features.
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

    keys: list[tuple[str, str]] = []
    labels: list[int] = []
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} columns, got {len(parts)}")
        try:
            if has_label:
                labels.append(int(parts[2]))
            rows.append([float(v) for v in parts[first_feature:]])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        keys.append((parts[0], parts[1]))

    X = np.array(rows, dtype=float) if rows else np.empty((0, len(names)))
    y = np.array(labels, dtype=int) if has_label else None
    return LabeledDataset(X=X, y=y, feature_names=names, row_keys=tuple(keys))
