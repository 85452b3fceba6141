"""Default hyperparameter grids for cross-validated tuning.

Cells are enumerated in "simplicity" order (fewer trees, shallower depth,
then remaining knobs), so an exact CV-score tie resolves to the simpler
setting by first-wins argmax.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .forest import VARIANCE_RETAINED


def _rf_cells(extra: dict | None = None) -> list[dict]:
    cells = []
    for n_trees in (100, 300):
        for max_depth in (12, None):
            for mtry in ("sqrt", "third"):
                cell = {"n_trees": n_trees, "max_depth": max_depth, "mtry": mtry}
                if extra:
                    cell.update(extra)
                cells.append(cell)
    return cells


def _gbm_cells(second_order: bool) -> list[dict]:
    cells = []
    for n_rounds in (100, 300):
        for max_depth in (3, 5):
            for learning_rate in (0.05, 0.1):
                cell = {"n_rounds": n_rounds, "max_depth": max_depth, "learning_rate": learning_rate}
                if second_order:
                    cell.update({"lam": 1.0, "gamma": 0.0})
                cells.append(cell)
    return cells


@dataclass(frozen=True)
class HyperGrid:
    """Candidate cells per model kind; every kind must stay non-empty."""

    rf: tuple = field(default_factory=lambda: tuple(_rf_cells()))
    pca_rf: tuple = field(default_factory=lambda: tuple(_rf_cells({"variance_retained": VARIANCE_RETAINED})))
    gbm: tuple = field(default_factory=lambda: tuple(_gbm_cells(False)))
    gbm2: tuple = field(default_factory=lambda: tuple(_gbm_cells(True)))
    glm: tuple = ({},)
    lasso: tuple = ({"n_lambdas": 20},)  # train expands it to one cell per penalty (linear.lasso_cells)

    def __post_init__(self):
        for kind in ("rf", "pca_rf", "gbm", "gbm2", "glm", "lasso"):
            if not getattr(self, kind):
                raise ValueError(f"empty grid for kind {kind!r}")

    def cells(self, kind: str) -> list[dict]:
        if not hasattr(self, kind):
            raise ValueError(f"no grid for kind {kind!r}")
        return [dict(cell) for cell in getattr(self, kind)]


def default_grid() -> HyperGrid:
    return HyperGrid()
