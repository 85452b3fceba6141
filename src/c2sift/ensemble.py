"""GLM stacking over out-of-fold base predictions.

The meta-learner never sees a base prediction produced by a model that was
trained on that row: entry (i, m) of the OOF matrix comes from model m
trained with row i's fold held out. At prediction time the stack scores
with base models fitted once on all training rows, the same models that
train saves as ``<kind>.json``; the stack artifact nests those artifacts
and the meta GLM as they are. Every OOF fit is its own task, so one pool
can run a base's fits as soon as its spec is known.
"""
from __future__ import annotations

import json
from typing import Mapping, Sequence

import numpy as np

from .evaluate import stratified_folds
from .learners.artifact import (
    ModelArtifact,
    fit_model,
    predict_proba,
    read_columns,
    register_kind,
)
from .learners.data import LabeledDataset
from .learners.linear import fit_glm
from .rng import NS_FOLDS, NS_STACK, child_seed, substream
from .tasks import Task, run_tasks

BaseSpec = tuple[str, Mapping]


def _meta_names(base_specs: Sequence[BaseSpec]) -> tuple[str, ...]:
    names = []
    seen: dict[str, int] = {}
    for kind, _ in base_specs:
        count = seen.get(kind, 0)
        names.append(kind if count == 0 else f"{kind}_{count + 1}")
        seen[kind] = count + 1
    return tuple(names)


def _check_oof_feasible(y: np.ndarray, k: int) -> None:
    if k < 2:
        raise ValueError("stacking needs k >= 2 folds")
    counts = np.bincount(y, minlength=2)
    if counts.min() < 2:
        raise ValueError("each class needs at least 2 rows for stratified folds")


def _oof_column(data, kind: str, params, folds: np.ndarray, f: int, seed: int, m: int):
    """Base m fitted on every row outside fold f, scored on fold f's rows (one piece of OOF column m)."""
    val = folds == f
    model = fit_model(kind, data.take(np.flatnonzero(~val)), params, child_seed(seed, NS_STACK, m, f))
    return predict_proba(model, data.X[val], data.feature_names)


def _base_tasks(data, m: int, kind: str, params, folds: np.ndarray, k: int, seed: int) -> list[Task]:
    """One OOF fit of base m per non-empty fold; keys end in (m, fold)."""
    key = ("stack", kind, json.dumps(params, sort_keys=True), seed, folds.tobytes(), m)
    return [
        Task((*key, f), _oof_column, (data, kind, params, folds, f, seed, m))
        for f in range(k)
        if (folds == f).any()
    ]


def _stack_folds(data: LabeledDataset, k: int, seed: int) -> np.ndarray:
    y = data.require_training_labels()
    _check_oof_feasible(y, k)
    return stratified_folds(y, k, substream(seed, NS_FOLDS, 1))


def stack_tasks(data: LabeledDataset, m: int, spec: BaseSpec, k: int, seed: int) -> list[Task]:
    """The tasks ``oof_matrix`` runs for base m: its k OOF fits."""
    kind, params = spec
    return _base_tasks(data, m, kind, params, _stack_folds(data, k, seed), k, seed)


def oof_matrix(
    data: LabeledDataset,
    base_specs: Sequence[BaseSpec],
    k: int,
    seed: int,
    folds: np.ndarray | None = None,
    pool=None,
) -> np.ndarray:
    """(n, n_bases) out-of-fold probabilities, column order = spec order.

    ``folds`` overrides the stratified assignment (tests use this to hold
    folds fixed while perturbing labels). Each (base, fold) fit is a task
    on ``pool`` (inline when None).
    """
    if folds is None:
        folds = _stack_folds(data, k, seed)
    else:
        _check_oof_feasible(data.require_training_labels(), k)
    tasks = [
        task
        for m, (kind, params) in enumerate(base_specs)
        for task in _base_tasks(data, m, kind, params, folds, k, seed)
    ]
    oof = np.empty((data.n_rows, len(base_specs)))
    for task, piece in zip(tasks, run_tasks(pool, tasks)):
        m, f = task.key[-2:]
        oof[folds == f, m] = piece
    return oof


def fit_stack(
    data: LabeledDataset,
    base_specs: Sequence[BaseSpec],
    base_models: Sequence[ModelArtifact],
    k: int = 10,
    seed: int = 0,
    pool=None,
) -> ModelArtifact:
    """The ``stack`` artifact: a meta GLM on the OOF columns of ``base_specs``.

    ``base_models`` are the bases fitted on all rows, one per spec; the
    stack scores new rows with them. The OOF fits are ``stack_tasks`` on
    ``pool`` (inline when None); only the meta GLM runs here.
    """
    if len(base_models) != len(base_specs):
        raise ValueError(f"{len(base_specs)} base specs but {len(base_models)} base models")
    y = data.require_training_labels()
    meta_data = LabeledDataset(
        X=oof_matrix(data, base_specs, k, seed, pool=pool),
        y=y,
        feature_names=_meta_names(base_specs),
        row_keys=data.row_keys,
    )
    meta = fit_glm(meta_data, {}, child_seed(seed, NS_STACK, len(base_specs), 0))
    return ModelArtifact(
        kind="stack",
        parameters={
            "base_specs": [[kind, dict(params)] for kind, params in base_specs],
            "base_models": list(base_models),
            "meta": meta,
            "folds": k,
        },
        seed=seed,
        feature_names=base_models[0].feature_names,
    )


def predict_stack(stack: ModelArtifact, X: np.ndarray) -> np.ndarray:
    """The meta GLM on the bases' scores of X (columns in ``stack.feature_names`` order)."""
    p = stack.parameters
    base = np.column_stack([predict_proba(model, X, stack.feature_names) for model in p["base_models"]])
    return predict_proba(p["meta"], base)


def _stack_columns(stack: ModelArtifact) -> list[int]:
    """The columns that any base reads; the meta GLM reads only the bases' scores."""
    read = {base.feature_names[j] for base in stack.parameters["base_models"] for j in read_columns(base)}
    return [i for i, name in enumerate(stack.feature_names) if name in read]


register_kind("stack", None, predict_stack, {"base_models": ModelArtifact, "meta": ModelArtifact}, reader=_stack_columns)
