"""Evaluation protocol: AUC/sensitivity, bootstrap resampling, stratified
k-fold CV tuning of every kind's grid (the lasso's penalties included),
and percentile-scaled permutation variable importance.

AUC uses the rank-sum (Mann-Whitney) formulation with midranks for ties,
which equals P(score+ > score-) + 0.5 * P(tie) and matches the pairwise
count exactly: midranks are half-integers, so the rank sum is computed
without rounding error at test-set sizes. ``auc_rows`` scores a block of
rows at once with the bits of one row at a time; ``auc`` is its one-row
case. ``bootstrap_metrics`` draws each resample once, a block at a time,
and scores every model on a block before it draws the next.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .learners.artifact import predict_proba, read_columns, score_cells, share_groups
from .rng import NS_BOOTSTRAP, NS_CV, NS_FOLDS, NS_IMPORTANCE, child_seed, substream
from .tasks import Task, run_tasks


_BLOCK_CELLS = 1 << 13  # score cells per block of rows: bounds the kernels' memory, not their results


def auc_rows(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The AUC of each row of ``scores`` (R, n) against its row of ``labels`` (R, n), or one shared (n,) row.

    A tie run at sorted positions first..last has midrank (first + last + 2) / 2.
    """
    labels = np.broadcast_to(labels, scores.shape)
    n_pos, n_neg = np.sum(labels == 1, axis=1), np.sum(labels == 0, axis=1)
    if not (n_pos.all() and n_neg.all()):
        raise ValueError("AUC needs at least one positive and one negative")
    order = np.argsort(scores, axis=1, kind="stable")
    sorted_scores = np.take_along_axis(scores, order, axis=1)
    starts = np.ones(scores.shape, dtype=bool)
    np.not_equal(sorted_scores[:, 1:], sorted_scores[:, :-1], out=starts[:, 1:])
    ends = np.roll(starts, -1, axis=1)  # a run ends where the next one starts, or at the last position
    at = np.arange(scores.shape[1])
    first = np.maximum.accumulate(np.where(starts, at, 0), axis=1)
    last = np.minimum.accumulate(np.where(ends, at, at[-1])[:, ::-1], axis=1)[:, ::-1]
    twice = np.sum(np.where(np.take_along_axis(labels, order, axis=1) == 1, first + last + 2, 0), axis=1)
    return (twice / 2.0 - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve; both classes must be present."""
    return float(auc_rows(np.asarray(scores, dtype=float)[None], np.asarray(labels)[None])[0])


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


def check_threshold(threshold: float) -> float:
    """``threshold`` itself if it is a probability in [0, 1]; not NaN, which no score reaches."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold = {threshold!r} is not a probability in [0, 1]")
    return threshold


def _resamples(pos_idx: np.ndarray, neg_idx: np.ndarray, seed: int, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, rows) indices of class-stratified resamples lo..hi-1: resample b
    draws the positives, then the negatives, with replacement from substream
    (NS_BOOTSTRAP, b), so both classes are always present."""
    rows = []
    for b in range(lo, hi):
        rng = substream(seed, NS_BOOTSTRAP, b)
        rows.append(np.concatenate([idx[rng.integers(0, len(idx), size=len(idx))] for idx in (pos_idx, neg_idx)]))
    return np.stack(rows)


def bootstrap_metrics(
    scores: np.ndarray,
    labels: np.ndarray,
    B: int,
    seed: int,
    threshold: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-resample (AUC, sensitivity), of shape ``scores.shape[:-1] + (B,)``: the leading
    axes of ``scores`` are the models. Every model is scored on a block of resamples
    before the next block is drawn, so memory is bounded by the block, not by B x rows.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if B < 1:
        raise ValueError("B must be >= 1")
    pos_idx, neg_idx = np.flatnonzero(labels == 1), np.flatnonzero(labels == 0)
    if len(pos_idx) == 0 or len(neg_idx) == 0:
        raise ValueError("bootstrap needs both classes present")
    models = scores.reshape(-1, scores.shape[-1])
    aucs, sens = np.empty((len(models), B)), np.empty((len(models), B))
    step = max(1, _BLOCK_CELLS // (len(pos_idx) + len(neg_idx)))
    for lo in range(0, B, step):
        block = _resamples(pos_idx, neg_idx, seed, lo, min(lo + step, B))
        block_labels = labels[block]
        positives = block_labels == 1
        for m, model_scores in enumerate(models):
            block_scores = model_scores[block]
            aucs[m, lo : lo + step] = auc_rows(block_scores, block_labels)
            sens[m, lo : lo + step] = np.sum(positives & (block_scores >= threshold), axis=1) / np.sum(positives, axis=1)
    return aucs.reshape(scores.shape[:-1] + (B,)), sens.reshape(scores.shape[:-1] + (B,))


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
    scores: Mapping[str, np.ndarray],
    labels: np.ndarray,
    B: int,
    seed: int,
    threshold: float = 0.5,
) -> list[EvaluationReport]:
    """One report per model kind in ``scores``, every model scored on the same B resamples."""
    check_threshold(threshold)
    aucs, sens = bootstrap_metrics(np.stack(list(scores.values())), labels, B, seed, threshold)
    return [
        EvaluationReport(
            model_kind=kind,
            point_auc=auc(scores[kind], labels),
            point_sensitivity=sensitivity(scores[kind], labels, threshold),
            threshold=threshold,
            bootstrap_auc=aucs[m],
            bootstrap_sensitivity=sens[m],
            resamples=B,
            seed=seed,
        )
        for m, kind in enumerate(scores)
    ]


@dataclass
class CvResult:
    kind: str
    best_params: dict
    table: list[dict] = field(default_factory=list)  # cell params, fold aucs, mean


def _cv_cell_fold_aucs(data, kind: str, cells, seeds, folds: np.ndarray, f: int) -> list[float]:
    """Each cell's AUC on fold f, from its fit to the other folds.

    ``cells`` is one share group, so ``score_cells`` may score them all
    from one fit.
    """
    val = folds == f
    train = data.take(np.flatnonzero(~val))
    scores = score_cells(kind, train, cells, seeds, data.X[val], data.feature_names)
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
    y = data.require_training_labels()
    counts = np.bincount(y, minlength=2)
    if counts.min() < k:
        raise ValueError(f"per-class count {counts.min()} < {k} folds; fold AUC undefined")
    folds = stratified_folds(y, k, substream(seed, NS_FOLDS, 0))
    cells = grid.cells(kind)
    tasks = []
    for group in share_groups(kind, cells):
        members = [cells[i] for i in group]
        for f in range(k):
            seeds = [child_seed(seed, NS_CV, i, f) for i in group]
            key = ("cv", kind, k, json.dumps(members, sort_keys=True), tuple(seeds))
            tasks.append(Task(key, _cv_cell_fold_aucs, (data, kind, members, seeds, folds, f)))
    return tasks


def cv_tune(data, kind: str, grid, k: int = 10, seed: int = 0, pool=None) -> CvResult:
    """Mean out-of-fold AUC per grid cell; first-best cell wins ties.

    Cells evaluate on stratified folds held fixed across cells. Each test
    fold needs both classes for a fold AUC, hence the per-class count must
    reach k. The fold fits run as ``cv_tasks`` on ``pool`` (inline when
    None); results reduce in cell order, so the outcome is independent
    of scheduling.
    """
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

    A column the model never reads (``read_columns``) leaves predictions
    unchanged, so its raw importance is exactly 0, set without predicting;
    a read column is shuffled in place and predicted one repeat at a time,
    so memory holds one copy of the model's columns whatever ``repeats``.
    Percentile scale is 100 * rank / d with maximal ranks for ties, so the
    top feature always scores 100.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    y = data.require_training_labels()
    baseline = auc(predict_proba(model, data.X, data.feature_names), y)
    n, d = data.X.shape
    raw = np.zeros(d)
    X_model = data.X[:, [data.feature_names.index(name) for name in model.feature_names]]
    aucs = np.empty(repeats)
    for j in map(int, read_columns(model)):
        column = X_model[:, j].copy()
        for r in range(repeats):
            X_model[:, j] = column[substream(seed, NS_IMPORTANCE, j, r).permutation(n)]
            aucs[r] = auc(predict_proba(model, X_model), y)
        X_model[:, j] = column
        raw[data.feature_names.index(model.feature_names[j])] = float(np.mean(baseline - aucs))
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
