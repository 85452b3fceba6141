"""Model artifacts: a uniform container for every classifier kind.

An artifact carries the fitted parameters, the seed it was trained with,
the training-time feature names, and free-form training metadata. Kinds
register fit/predict/revive callables so cross-validation, stacking, and
the CLI can treat all models uniformly (tests may register extra kinds).
A staged kind also registers a tuple of stage parameters and a group
scorer: cells that differ only in those parameters form one group, and
the scorer scores every cell of a group from one fit (the lasso's
longest penalty path; boosting's or a forest's deepest and largest cell,
whose trees the shallower and smaller cells reuse).

Serialization is JSON with a version tag; floats round-trip exactly via
repr, so a reloaded model scores a probe matrix bit-for-bit identically.
An artifact nested in another's parameters (the stack's bases and meta
GLM) is encoded, checked and decoded the same way as a model file.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .data import LabeledDataset

ARTIFACT_VERSION = 1


@dataclass
class ModelArtifact:
    kind: str
    parameters: dict
    seed: int
    feature_names: tuple[str, ...]
    training_meta: dict = field(default_factory=dict)
    version: int = ARTIFACT_VERSION


Fitter = Callable[[LabeledDataset, Mapping, int], ModelArtifact]
Predictor = Callable[[ModelArtifact, np.ndarray], np.ndarray]
Reviver = Callable[[dict], dict]
GroupScorer = Callable[[LabeledDataset, Sequence[Mapping], Sequence[int], np.ndarray, tuple | None], list]

FITTERS: dict[str, Fitter] = {}
PREDICTORS: dict[str, Predictor] = {}
REVIVERS: dict[str, Reviver] = {}
STAGED: dict[str, tuple[tuple[str, ...], GroupScorer]] = {}  # kind -> (stage parameters, group scorer)


def register_kind(
    kind: str,
    fitter: Fitter | None,
    predictor: Predictor,
    reviver: Reviver | None = None,
    staged: tuple[tuple[str, ...], GroupScorer] | None = None,
) -> None:
    if fitter is not None:
        FITTERS[kind] = fitter
    PREDICTORS[kind] = predictor
    if reviver is not None:
        REVIVERS[kind] = reviver
    if staged is not None:
        STAGED[kind] = staged


def fit_model(kind: str, data: LabeledDataset, params: Mapping, seed: int) -> ModelArtifact:
    if kind not in FITTERS:
        raise ValueError(f"unknown model kind {kind!r}")
    return FITTERS[kind](data, params, seed)


def share_groups(kind: str, cells: Sequence[Mapping]) -> list[list[int]]:
    """Cell indices grouped so that one fit scores each group.

    Cells of a staged kind that set any of its stage parameters and agree
    on everything else form one group; every other cell is a group alone.
    Groups come in the order of their first cell.
    """
    params = STAGED[kind][0] if kind in STAGED else ()
    groups: dict = {}
    for i, cell in enumerate(cells):
        rest = {name: value for name, value in cell.items() if name not in params}
        key = json.dumps(rest, sort_keys=True) if any(name in cell for name in params) else i
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def score_cells(
    kind: str,
    data: LabeledDataset,
    cells: Sequence[Mapping],
    seeds: Sequence[int],
    X: np.ndarray,
    feature_names: tuple[str, ...] | None = None,
) -> list[np.ndarray]:
    """``predict_proba`` on X of each cell's model fitted to ``data``.

    ``cells`` is one group of ``share_groups``: the kind's group scorer
    scores a group of several cells from one fit.
    """
    if len(cells) == 1:
        return [predict_proba(fit_model(kind, data, cells[0], seeds[0]), X, feature_names)]
    X = _model_inputs(kind, data.feature_names, X, feature_names)
    return [np.clip(p, 0.0, 1.0) for p in STAGED[kind][1](data, cells, seeds, X, data.feature_names)]


def predict_proba(artifact: ModelArtifact, X: np.ndarray, feature_names: tuple[str, ...] | None = None) -> np.ndarray:
    """Scores in [0, 1]; columns are matched to the model by name.

    Raises with the offending column on a name mismatch and with the
    offending row/column on non-finite input.
    """
    X = _model_inputs(artifact.kind, artifact.feature_names, X, feature_names)
    if artifact.kind not in PREDICTORS:
        raise ValueError(f"no predictor registered for kind {artifact.kind!r}")
    return np.clip(PREDICTORS[artifact.kind](artifact, X), 0.0, 1.0)


def _model_inputs(kind: str, names: tuple[str, ...], X: np.ndarray, feature_names) -> np.ndarray:
    """X as float columns in ``names`` order, matched by name when ``feature_names`` is given, checked finite."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if feature_names is not None:
        index = {name: i for i, name in enumerate(feature_names)}
        missing = [name for name in names if name not in index]
        if missing:
            raise ValueError(f"feature column(s) missing: {', '.join(missing)}")
        X = X[:, [index[name] for name in names]]
    elif X.shape[1] != len(names):
        raise ValueError(
            f"X has {X.shape[1]} columns, model {kind!r} expects {len(names)}; pass feature_names to align by name"
        )
    if not np.all(np.isfinite(X)):
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"non-finite input at row {row}, column {names[col]!r}")
    return X


def _to_jsonable(obj):
    if isinstance(obj, ModelArtifact):
        return encode_model(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if hasattr(obj, "to_jsonable"):
        return _to_jsonable(obj.to_jsonable())
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    return obj


def encode_model(artifact: ModelArtifact) -> dict:
    """The JSON payload of a model file; a model nested in another's parameters is written the same way."""
    return {
        "format": "c2sift-model",
        "version": artifact.version,
        "kind": artifact.kind,
        "seed": artifact.seed,
        "feature_names": list(artifact.feature_names),
        "training_meta": _to_jsonable(artifact.training_meta),
        "parameters": _to_jsonable(artifact.parameters),
    }


def decode_model(payload) -> ModelArtifact:
    """Inverse of ``encode_model``: checks the format and version, then revives the parameters."""
    if not isinstance(payload, dict) or payload.get("format") != "c2sift-model":
        raise ValueError("not a model artifact")
    version = payload.get("version")
    if not isinstance(version, int) or version > ARTIFACT_VERSION:
        raise ValueError(f"artifact version {version!r} is newer than supported version {ARTIFACT_VERSION}")
    kind = payload["kind"]
    parameters = payload["parameters"]
    if kind in REVIVERS:
        parameters = REVIVERS[kind](parameters)
    return ModelArtifact(
        kind=kind,
        parameters=parameters,
        seed=payload["seed"],
        feature_names=tuple(payload["feature_names"]),
        training_meta=payload.get("training_meta", {}),
        version=version,
    )


def save_model(artifact: ModelArtifact, path: str | Path) -> None:
    Path(path).write_text(json.dumps(encode_model(artifact), sort_keys=True), encoding="utf-8")


def load_model(path: str | Path) -> ModelArtifact:
    try:
        return decode_model(json.loads(Path(path).read_text(encoding="utf-8")))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def log_loss(y: np.ndarray, p: np.ndarray) -> float:
    """Mean logistic loss with probability clipping for the log only."""
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
