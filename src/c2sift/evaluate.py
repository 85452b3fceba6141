"""Evaluation protocol: AUC/sensitivity, bootstrap resampling, stratified
k-fold CV tuning of every kind's grid (the lasso's penalties included),
and percentile-scaled permutation variable importance.

AUC uses the rank-sum (Mann-Whitney) formulation with midranks for ties,
which equals P(score+ > score-) + 0.5 * P(tie) and matches the pairwise
count exactly: midranks are half-integers, so the rank sum is computed
without rounding error at test-set sizes.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .rng import NS_BOOTSTRAP, NS_CV, NS_FOLDS, NS_IMPORTANCE, child_seed, substream
from .tasks import Task, run_tasks


def _midranks(sorted_scores: np.ndarray) -> np.ndarray:
    """1-based ranks of sorted scores, each tie group at its mean rank."""
    # tie groups are runs of equal scores, from position first to last
    first = np.flatnonzero(np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1])))
    last = np.append(first[1:], len(sorted_scores)) - 1
    return np.repeat((first + last + 2) / 2.0, last - first + 1)


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve; both classes must be present."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative")
    order = np.argsort(scores, kind="stable")
    ranks = _midranks(scores[order])
    rank_sum_pos = float(ranks[labels[order] == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def sensitivity(scores: np.ndarray, labels: np.ndarray, threshold: float) -> float:
    """True-positive rate at score >= threshold."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    if n_pos == 0:
        raise ValueError("sensitivity needs at least one positive")
    return float(np.sum(scores[pos] >= threshold)) / n_pos


def stratified_folds(y: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Fold ids 0..k-1 with per-class round-robin after a shuffle.

    Every fold's training part keeps both classes as long as each class
    has at least two members.
    """
    y = np.asarray(y)
    if k < 2:
        raise ValueError("need at least 2 folds")
    if k > len(y):
        raise ValueError(f"cannot make {k} folds from {len(y)} rows")
    folds = np.empty(len(y), dtype=int)
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        if len(idx) < 2:
            raise ValueError(f"class {cls} has fewer than 2 rows; stratification impossible")
        idx = idx[rng.permutation(len(idx))]
        folds[idx] = np.arange(len(idx)) % k
    return folds


def bootstrap_metrics(
    scores: np.ndarray,
    labels: np.ndarray,
    B: int,
    seed: int,
    threshold: float = 0.5,
    _index_hook: Callable[[int], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-resample (AUC, sensitivity) over B class-stratified resamples.

    Each resample draws with replacement within each class so both classes
    are always present. ``_index_hook(b) -> row indices`` overrides the
    resampler, used by tests to force the identity resample.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if B < 1:
        raise ValueError("B must be >= 1")
    pos_idx = np.flatnonzero(labels == 1)
    neg_idx = np.flatnonzero(labels == 0)
    if len(pos_idx) == 0 or len(neg_idx) == 0:
        raise ValueError("bootstrap needs both classes present")
    aucs = np.empty(B)
    sens = np.empty(B)
    for b in range(B):
        if _index_hook is not None:
            idx = np.asarray(_index_hook(b))
        else:
            rng = substream(seed, NS_BOOTSTRAP, b)
            idx = np.concatenate(
                [
                    pos_idx[rng.integers(0, len(pos_idx), size=len(pos_idx))],
                    neg_idx[rng.integers(0, len(neg_idx), size=len(neg_idx))],
                ]
            )
        aucs[b] = auc(scores[idx], labels[idx])
        sens[b] = sensitivity(scores[idx], labels[idx], threshold)
    return aucs, sens


@dataclass
class EvaluationReport:
    model_kind: str
    point_auc: float
    point_sensitivity: float
    threshold: float
    bootstrap_auc: np.ndarray
    bootstrap_sensitivity: np.ndarray
    resamples: int
    seed: int

    def to_jsonable(self) -> dict:
        return {
            "model_kind": self.model_kind,
            "point_auc": self.point_auc,
            "point_sensitivity": self.point_sensitivity,
            "threshold": self.threshold,
            "bootstrap_auc_mean": float(np.mean(self.bootstrap_auc)),
            "bootstrap_sensitivity_mean": float(np.mean(self.bootstrap_sensitivity)),
            "resamples": self.resamples,
            "seed": self.seed,
        }


def evaluate_scores(
    model_kind: str,
    scores: np.ndarray,
    labels: np.ndarray,
    B: int,
    seed: int,
    threshold: float = 0.5,
) -> EvaluationReport:
    aucs, sens = bootstrap_metrics(scores, labels, B, seed, threshold)
    return EvaluationReport(
        model_kind=model_kind,
        point_auc=auc(scores, labels),
        point_sensitivity=sensitivity(scores, labels, threshold),
        threshold=threshold,
        bootstrap_auc=aucs,
        bootstrap_sensitivity=sens,
        resamples=B,
        seed=seed,
    )


@dataclass
class CvResult:
    kind: str
    best_params: dict
    table: list[dict] = field(default_factory=list)  # cell params, fold aucs, mean


def _cv_cell_fold_aucs(data, scorer, cells, seeds, folds: np.ndarray, f: int) -> list[float]:
    """Each cell's AUC on fold f, from ``scorer`` fitted to the other folds.

    ``scorer(train, cells, seeds, X, feature_names)`` fits the cells (one
    share group, so possibly one fit) and returns each cell's scores on X.
    """
    val = folds == f
    train = data.take(np.flatnonzero(~val))
    scores = scorer(train, cells, seeds, data.X[val], data.feature_names)
    return [auc(s, data.y[val]) for s in scores]


def cv_tasks(data, kind: str, grid, k: int = 10, seed: int = 0) -> list:
    """One task per (share group of cells, fold), group-major.

    Cells that differ only in a staged kind's stage parameters share one
    fit per fold (``share_groups``). Cell i's fit on fold f is seeded
    (NS_CV, i, f); a shared fit uses its group leader's seed for every
    cell, the leader being the cell the kind's group scorer fits first:
    the deepest cap, then the most rounds (boosting, which draws no
    random numbers) or trees (forests; no cap is deepest).
    """
    from .learners.artifact import score_cells, share_groups  # lazy: avoids import cycle

    y = data.require_training_labels()
    counts = np.bincount(y, minlength=2)
    if counts.min() < k:
        raise ValueError(f"per-class count {counts.min()} < {k} folds; fold AUC undefined")
    folds = stratified_folds(y, k, substream(seed, NS_FOLDS, 0))
    cells = grid.cells(kind)
    scorer = partial(score_cells, kind)
    tasks = []
    for group in share_groups(kind, cells):
        members = [cells[i] for i in group]
        for f in range(k):
            seeds = [child_seed(seed, NS_CV, i, f) for i in group]
            key = ("cv", kind, k, json.dumps(members, sort_keys=True), tuple(seeds))
            tasks.append(Task(key, _cv_cell_fold_aucs, (data, scorer, members, seeds, folds, f)))
    return tasks


def cv_tune(data, kind: str, grid, k: int = 10, seed: int = 0, pool=None) -> CvResult:
    """Mean out-of-fold AUC per grid cell; first-best cell wins ties.

    Cells evaluate on stratified folds held fixed across cells. Each test
    fold needs both classes for a fold AUC, hence the per-class count must
    reach k. The fold fits run as ``cv_tasks`` on ``pool`` (inline when
    None); results reduce in cell order, so the outcome is independent
    of scheduling.
    """
    from .learners.artifact import share_groups  # lazy: avoids import cycle

    results = iter(run_tasks(pool, cv_tasks(data, kind, grid, k, seed)))
    cells = grid.cells(kind)
    per_cell = [[0.0] * k for _ in cells]
    for group in share_groups(kind, cells):
        for f in range(k):
            for i, fold_auc in zip(group, next(results)):
                per_cell[i][f] = fold_auc

    table: list[dict] = []
    best_mean = -np.inf
    best_params: dict | None = None
    for cell, fold_aucs in zip(cells, per_cell):
        mean_auc = float(np.mean(fold_aucs))
        table.append({"params": dict(cell), "fold_aucs": fold_aucs, "mean_auc": mean_auc})
        if mean_auc > best_mean:
            best_mean = mean_auc
            best_params = dict(cell)
    return CvResult(kind=kind, best_params=best_params, table=table)


@dataclass
class ImportanceReport:
    feature_names: tuple[str, ...]
    raw_importance: np.ndarray
    percentile_importance: np.ndarray

    def top(self, n: int) -> list[tuple[str, float, float]]:
        order = np.argsort(-self.raw_importance, kind="stable")[:n]
        return [
            (self.feature_names[i], float(self.raw_importance[i]), float(self.percentile_importance[i]))
            for i in order
        ]


def permutation_importance(model, data, repeats: int = 5, seed: int = 0) -> ImportanceReport:
    """Mean drop in held-out AUC when one column is shuffled.

    A feature the model never reads leaves predictions unchanged, so its
    raw importance is exactly 0. Percentile scale is 100 * rank / d with
    maximal ranks for ties, so the top feature always scores 100.
    """
    from .learners.artifact import predict_proba  # lazy: avoids import cycle

    y = data.require_training_labels()
    baseline = auc(predict_proba(model, data.X, data.feature_names), y)
    d = data.X.shape[1]
    raw = np.zeros(d)
    X_model = data.X[:, [data.feature_names.index(n) for n in model.feature_names]]
    for j, name in enumerate(model.feature_names):
        drops = []
        for r in range(repeats):
            rng = substream(seed, NS_IMPORTANCE, j, r)
            Xp = X_model.copy()
            Xp[:, j] = Xp[rng.permutation(len(y)), j]
            drops.append(baseline - auc(predict_proba(model, Xp, model.feature_names), y))
        raw[data.feature_names.index(name)] = float(np.mean(drops))
    ranks = np.array([np.sum(raw <= raw[j]) for j in range(d)], dtype=float)
    percentile = 100.0 * ranks / d
    return ImportanceReport(
        feature_names=data.feature_names, raw_importance=raw, percentile_importance=percentile
    )


def write_evaluation(path: str | Path, reports: Sequence[EvaluationReport]) -> None:
    payload = {r.model_kind: r.to_jsonable() for r in reports}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_bootstrap_table(path: str | Path, reports: Sequence[EvaluationReport]) -> None:
    """Flat per-resample table; box plots render from this downstream."""
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["model_kind", "resample", "auc", "sensitivity"])
        for report in reports:
            for b in range(report.resamples):
                writer.writerow(
                    [
                        report.model_kind,
                        b,
                        repr(float(report.bootstrap_auc[b])),
                        repr(float(report.bootstrap_sensitivity[b])),
                    ]
                )


def write_importance(path_csv: str | Path, report: ImportanceReport) -> None:
    order = np.argsort(-report.raw_importance, kind="stable")
    with Path(path_csv).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["feature", "raw_importance", "percentile_importance"])
        for i in order:
            writer.writerow(
                [
                    report.feature_names[i],
                    repr(float(report.raw_importance[i])),
                    repr(float(report.percentile_importance[i])),
                ]
            )


def write_cv_tables(path: str | Path, results: Mapping[str, CvResult]) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["kind", "params", "mean_auc", "chosen", "fold_aucs"])
        for kind in sorted(results):
            result = results[kind]
            for row in result.table:
                writer.writerow(
                    [
                        kind,
                        json.dumps(row["params"], sort_keys=True),
                        repr(row["mean_auc"]),
                        int(row["params"] == result.best_params),
                        ";".join(repr(float(a)) for a in row["fold_aucs"]),
                    ]
                )
