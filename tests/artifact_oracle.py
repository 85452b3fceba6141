"""The build-then-dump model encoder: the byte oracle for ``save_model``.

``json.dumps(encode_model(artifact), sort_keys=True)`` is a model file's
text. This copy turns the whole model into nested Python lists and dicts
before dumping it; ``save_model`` must write the same bytes a piece at a
time.
"""
from __future__ import annotations

import numpy as np

from c2sift.learners.artifact import ModelArtifact


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
