"""GLM stacking over out-of-fold base predictions.

The meta-learner never sees a base prediction produced by a model that was
trained on that row: entry (i, m) of the OOF matrix comes from model m
trained with row i's fold held out. After the meta GLM is fit on the OOF
matrix, each base model is refit on the full training data for prediction
time. Every base fit, OOF or refit, is its own task, so one pool can run
a base's fits as soon as its spec is known. Meta inputs are raw base
probabilities by default; a logit-input switch exists but is off.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .evaluate import stratified_folds
from .learners.artifact import (
    ModelArtifact,
    fit_cost,
    fit_model,
    predict_proba,
    register_kind,
)
from .learners.data import LabeledDataset
from .learners.linear import fit_glm
from .rng import NS_FOLDS, NS_STACK, child_seed, substream
from .tasks import Task, run_tasks

BaseSpec = tuple[str, Mapping]


@dataclass
class StackModel:
    base_specs: tuple[BaseSpec, ...]
    base_models: tuple[ModelArtifact, ...]
    meta: ModelArtifact
    folds: int
    seed: int
    logit_inputs: bool = False


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
    """Stack fit f of base m, trained on every row outside fold f.

    Returns its scores on fold f's rows (one piece of OOF column m); fit
    f = k holds no row out and returns the model itself (the refit).
    """
    val = folds == f
    model = fit_model(kind, data.take(np.flatnonzero(~val)), params, child_seed(seed, NS_STACK, m, f))
    if not val.any():
        return model
    return predict_proba(model, data.X[val], data.feature_names)


def _base_tasks(data, m: int, kind: str, params, folds: np.ndarray, seed: int, fits) -> list[Task]:
    cost = fit_cost(kind, params)
    key = ("stack", m, kind, json.dumps(params, sort_keys=True), seed, folds.tobytes())
    return [Task((*key, f), _oof_column, (data, kind, params, folds, f, seed, m), cost) for f in fits]


def _stack_folds(data: LabeledDataset, k: int, seed: int) -> np.ndarray:
    y = data.require_training_labels()
    _check_oof_feasible(y, k)
    return stratified_folds(y, k, substream(seed, NS_FOLDS, 1))


def stack_tasks(data: LabeledDataset, m: int, spec: BaseSpec, k: int, seed: int) -> list[Task]:
    """The tasks ``fit_stack`` runs for base m: its refit, then its k OOF fits."""
    kind, params = spec
    return _base_tasks(data, m, kind, params, _stack_folds(data, k, seed), seed, [k, *range(k)])


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
    on ``pool`` (inline when None); pieces reduce in spec and fold order.
    """
    if folds is None:
        folds = _stack_folds(data, k, seed)
    else:
        _check_oof_feasible(data.require_training_labels(), k)
    fits = [f for f in range(k) if (folds == f).any()]
    tasks = [
        task
        for m, (kind, params) in enumerate(base_specs)
        for task in _base_tasks(data, m, kind, params, folds, seed, fits)
    ]
    pieces = iter(run_tasks(pool, tasks))
    oof = np.empty((data.n_rows, len(base_specs)))
    for m in range(len(base_specs)):
        for f in fits:
            oof[folds == f, m] = next(pieces)
    return oof


def _meta_features(base_probs: np.ndarray, logit_inputs: bool) -> np.ndarray:
    if not logit_inputs:
        return base_probs
    p = np.clip(base_probs, 1e-9, 1.0 - 1e-9)
    return np.log(p / (1.0 - p))


def fit_stack(
    data: LabeledDataset,
    base_specs: Sequence[BaseSpec],
    k: int = 10,
    seed: int = 0,
    logit_inputs: bool = False,
    pool=None,
) -> StackModel:
    """Fit the meta GLM on OOF columns, then refit bases on all rows.

    The OOF fits and the refits are ``stack_tasks`` on ``pool`` (inline
    when None); only the meta GLM runs here.
    """
    y = data.require_training_labels()
    oof = oof_matrix(data, base_specs, k, seed, pool=pool)
    names = _meta_names(base_specs)
    meta_data = LabeledDataset(
        X=_meta_features(oof, logit_inputs),
        y=y,
        feature_names=names,
        row_keys=data.row_keys,
    )
    meta = fit_glm(meta_data, seed=child_seed(seed, NS_STACK, len(base_specs), 0))
    folds = _stack_folds(data, k, seed)
    refits = [
        task
        for m, (kind, params) in enumerate(base_specs)
        for task in _base_tasks(data, m, kind, params, folds, seed, [k])
    ]
    return StackModel(
        base_specs=tuple((kind, dict(params)) for kind, params in base_specs),
        base_models=tuple(run_tasks(pool, refits)),
        meta=meta,
        folds=k,
        seed=seed,
        logit_inputs=logit_inputs,
    )


def predict_stack(
    stack: StackModel, X: np.ndarray, feature_names: tuple[str, ...] | None = None
) -> np.ndarray:
    base = np.column_stack(
        [predict_proba(model, X, feature_names) for model in stack.base_models]
    )
    return predict_proba(stack.meta, _meta_features(base, stack.logit_inputs))


def stack_to_artifact(stack: StackModel) -> ModelArtifact:
    """Nest the bases plus meta in one serializable artifact."""
    return ModelArtifact(
        kind="stack",
        parameters={
            "base_specs": [[kind, dict(params)] for kind, params in stack.base_specs],
            "base_models": [
                {
                    "kind": m.kind,
                    "seed": m.seed,
                    "feature_names": list(m.feature_names),
                    "parameters": m.parameters,
                }
                for m in stack.base_models
            ],
            "meta": {
                "kind": stack.meta.kind,
                "seed": stack.meta.seed,
                "feature_names": list(stack.meta.feature_names),
                "parameters": stack.meta.parameters,
            },
            "folds": stack.folds,
            "logit_inputs": stack.logit_inputs,
        },
        seed=stack.seed,
        feature_names=stack.base_models[0].feature_names,
        training_meta={"folds": stack.folds, "meta_names": list(stack.meta.feature_names)},
    )


def stack_from_artifact(artifact: ModelArtifact) -> StackModel:
    p = artifact.parameters
    bases = tuple(
        ModelArtifact(
            kind=m["kind"],
            parameters=m["parameters"],
            seed=m["seed"],
            feature_names=tuple(m["feature_names"]),
        )
        for m in p["base_models"]
    )
    meta = ModelArtifact(
        kind=p["meta"]["kind"],
        parameters=p["meta"]["parameters"],
        seed=p["meta"]["seed"],
        feature_names=tuple(p["meta"]["feature_names"]),
    )
    return StackModel(
        base_specs=tuple((kind, dict(params)) for kind, params in p["base_specs"]),
        base_models=bases,
        meta=meta,
        folds=int(p["folds"]),
        seed=artifact.seed,
        logit_inputs=bool(p.get("logit_inputs", False)),
    )


def _predict_stack_artifact(artifact: ModelArtifact, X: np.ndarray) -> np.ndarray:
    return predict_stack(stack_from_artifact(artifact), X)


def _revive_stack(parameters: dict) -> dict:
    from .learners.artifact import REVIVERS

    revived_bases = []
    for m in parameters["base_models"]:
        params = m["parameters"]
        if m["kind"] in REVIVERS:
            params = REVIVERS[m["kind"]](params)
        revived_bases.append({**m, "parameters": params})
    meta = parameters["meta"]
    if meta["kind"] in REVIVERS:
        meta = {**meta, "parameters": REVIVERS[meta["kind"]](meta["parameters"])}
    return {**parameters, "base_models": revived_bases, "meta": meta}


register_kind("stack", None, _predict_stack_artifact, _revive_stack)
