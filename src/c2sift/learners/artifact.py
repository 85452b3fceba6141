"""Model artifacts: a uniform container for every classifier kind.

An artifact carries the fitted parameters, the seed it was trained with,
the training-time feature names, and free-form training metadata. Kinds
register fit/predict callables so cross-validation, stacking, and
the CLI can treat all models uniformly (tests may register extra kinds).
A staged kind also registers a tuple of stage parameters and a group
scorer: cells that differ only in those parameters form one group, and
the scorer scores every cell of a group from one fit (the lasso's
longest penalty path; boosting's or a forest's deepest and largest cell,
whose trees the shallower and smaller cells reuse). Only group scorers
score prefixes of a fit; a predictor scores the whole saved model. A kind
may also register which of a saved model's columns its predictions read
(``read_columns``), so that permutation importance skips the others.

Serialization is JSON with a version tag; floats round-trip exactly via
repr, so a reloaded model scores a probe matrix bit-for-bit identically.
A file holds the bytes of ``json.dumps(artifact, sort_keys=True,
default=_json_value)``, but written a piece at a time: an artifact, dict,
list or tuple member by member, and anything else (an array, a ``Tree``,
a list of scalars) by one ``json.dumps``, so no Python copy of a whole
model is built. The reader parses with an object hook that turns each
tree payload into a ``Tree`` and each model payload into a
``ModelArtifact`` as soon as the parser finishes it, so no list of every
node value is built either. An artifact nested in another's parameters
(the stack's bases and meta GLM) is written, checked and read the same
way as a model file. A kind registers which of its parameters hold trees
or artifacts (``parts``); loading refuses a file where one of them did
not parse as such, naming the key.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .data import LabeledDataset
from .tree import Tree

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
GroupScorer = Callable[[LabeledDataset, Sequence[Mapping], Sequence[int], np.ndarray], list]
Reader = Callable[[ModelArtifact], Sequence[int]]

FITTERS: dict[str, Fitter] = {}
PREDICTORS: dict[str, Predictor] = {}
PARTS: dict[str, dict[str, type]] = {}  # kind -> {parameter: Tree or ModelArtifact, alone or in a list}
STAGED: dict[str, tuple[tuple[str, ...], GroupScorer]] = {}  # kind -> (stage parameters, group scorer)
READERS: dict[str, Reader] = {}


def register_kind(
    kind: str,
    fitter: Fitter | None,
    predictor: Predictor,
    parts: Mapping[str, type] | None = None,
    staged: tuple[tuple[str, ...], GroupScorer] | None = None,
    reader: Reader | None = None,
) -> None:
    if fitter is not None:
        FITTERS[kind] = fitter
    PREDICTORS[kind] = predictor
    if parts is not None:
        PARTS[kind] = dict(parts)
    if staged is not None:
        STAGED[kind] = staged
    if reader is not None:
        READERS[kind] = reader


def read_columns(artifact: ModelArtifact) -> Sequence[int]:
    """Indices into ``artifact.feature_names`` of the columns its predictions read; all without a reader."""
    reader = READERS.get(artifact.kind)
    return range(len(artifact.feature_names)) if reader is None else reader(artifact)


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
    return [np.clip(p, 0.0, 1.0) for p in STAGED[kind][1](data, cells, seeds, X)]


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


_FORMAT = "c2sift-model"
_TREE_KEYS = frozenset(f.name for f in fields(Tree))


def _json_value(obj):
    """What ``json`` writes for an object it cannot write itself (its ``default``):
    an artifact's model payload, an array's list, a numpy scalar's Python number,
    a tree's ``to_jsonable``."""
    if isinstance(obj, ModelArtifact):
        return {
            "format": _FORMAT,
            "version": obj.version,
            "kind": obj.kind,
            "seed": obj.seed,
            "feature_names": obj.feature_names,
            "training_meta": obj.training_meta,
            "parameters": obj.parameters,
        }
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if hasattr(obj, "to_jsonable"):
        return obj.to_jsonable()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_ENCODER = json.JSONEncoder(sort_keys=True, default=_json_value)  # json.dumps(obj, sort_keys=True, default=_json_value)
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _write(write: Callable[[str], object], obj) -> None:
    """Write ``_ENCODER.encode(obj)`` a piece at a time: an artifact, a dict,
    or a list or tuple that holds more than plain scalars member by member,
    anything else in one piece."""
    if isinstance(obj, ModelArtifact):
        obj = _json_value(obj)
    if isinstance(obj, dict):
        write("{")
        for i, (key, value) in enumerate(sorted(obj.items())):
            # json's own rendering of the key, "<key>": (it also renders int, float, bool and None keys)
            write((", " if i else "") + json.dumps({key: 0})[1:-2])
            _write(write, value)
        write("}")
    elif isinstance(obj, (list, tuple)) and not all(type(value) in _SCALARS for value in obj):
        write("[")
        for i, value in enumerate(obj):
            if i:
                write(", ")
            _write(write, value)
        write("]")
    else:
        write(_ENCODER.encode(obj))


def _revive(obj: dict):
    """The parser's object hook: a model payload as a ``ModelArtifact``, a tree payload as a ``Tree``."""
    if obj.get("format") == _FORMAT:
        return _decode(obj)
    if _TREE_KEYS <= obj.keys():
        return Tree.from_jsonable(obj)
    return obj


def _decode(payload: dict) -> ModelArtifact:
    """A model payload whose nested payloads are already revived: checks the version, the keys and the parts."""
    version = payload.get("version")
    if not isinstance(version, int) or version > ARTIFACT_VERSION:
        raise ValueError(f"artifact version {version!r} is newer than supported version {ARTIFACT_VERSION}")
    for key in ("kind", "seed", "feature_names", "parameters"):
        if key not in payload:
            raise ValueError(f"model payload has no {key!r}")
    kind, parameters = payload["kind"], payload["parameters"]
    for key, part_type in PARTS.get(kind, {}).items():
        if key not in parameters:
            raise ValueError(f"{kind} parameters have no {key!r}")
        value = parameters[key]
        for i, part in enumerate(value if isinstance(value, list) else [value]):
            where = f"{kind} {key}[{i}]" if isinstance(value, list) else f"{kind} {key}"
            if part_type is Tree and isinstance(part, dict):
                missing = ", ".join(repr(name) for name in sorted(_TREE_KEYS - part.keys()))
                raise ValueError(f"{where}: tree payload has no {missing}")
            if not isinstance(part, part_type):
                raise ValueError(f"{where}: not a {'tree' if part_type is Tree else 'model artifact'}")
    return ModelArtifact(
        kind=kind,
        parameters=parameters,
        seed=payload["seed"],
        feature_names=tuple(payload["feature_names"]),
        training_meta=payload.get("training_meta", {}),
        version=version,
    )


def save_model(artifact: ModelArtifact, path: str | Path) -> None:
    """Write ``artifact`` to ``path`` a piece at a time; a failed write leaves ``path`` as it was."""
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "w", encoding="utf-8") as handle:
            _write(handle.write, artifact)
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)


def read_model_file(path: str | Path):
    """The JSON value in ``path``, each model payload in it a ``ModelArtifact`` and each tree payload a ``Tree``."""
    return json.loads(Path(path).read_text(encoding="utf-8"), object_hook=_revive)


def load_model(path: str | Path) -> ModelArtifact:
    try:
        artifact = read_model_file(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(artifact, ModelArtifact):
        raise ValueError(f"{path}: not a model artifact")
    return artifact


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
