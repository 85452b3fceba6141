import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from c2sift.cli import _load_model_dir
from c2sift.ensemble import fit_stack
from c2sift.learners import (
    ARTIFACT_VERSION,
    BASE_KINDS,
    LabeledDataset,
    ModelArtifact,
    fit_glm,
    fit_model,
    load_model,
    predict_proba,
    save_model,
)
from c2sift.learners.tree import Tree

from artifact_oracle import encode_model
from conftest import make_dataset


def leaf_tree(value: float) -> Tree:
    return Tree.from_jsonable(
        {"feature": [-1], "threshold": [None], "left": [-1], "right": [-1], "value": [value], "n_node": [1]}
    )


def test_identical_tree_forest_predicts_their_value():
    model = ModelArtifact(
        kind="rf",
        parameters={"trees": [leaf_tree(0.7)] * 5},
        seed=0,
        feature_names=("a", "b"),
    )
    probs = predict_proba(model, np.zeros((4, 2)), ("a", "b"))
    assert np.all(probs == 0.7)


def test_zero_coefficient_glm_is_half():
    model = ModelArtifact(
        kind="glm",
        parameters={
            "means": [0.0, 0.0],
            "scales": [1.0, 1.0],
            "coef": [0.0, 0.0],
            "intercept": 0.0,
            "coef_original": [0.0, 0.0],
            "intercept_original": 0.0,
        },
        seed=0,
        feature_names=("a", "b"),
    )
    probs = predict_proba(model, np.random.default_rng(0).normal(size=(6, 2)), ("a", "b"))
    assert np.all(probs == 0.5)


def test_column_alignment_by_name():
    data = make_dataset(n=200, d=3, seed=0)
    model = fit_glm(data)
    reordered_names = tuple(reversed(data.feature_names))
    reordered_X = data.X[:, ::-1]
    a = predict_proba(model, data.X, data.feature_names)
    b = predict_proba(model, reordered_X, reordered_names)
    assert np.array_equal(a, b)


def test_missing_column_named_in_error():
    data = make_dataset(n=100, d=3, seed=1)
    model = fit_glm(data)
    with pytest.raises(ValueError, match="f2"):
        predict_proba(model, data.X[:, :2], ("f0", "f1"))


def test_nan_input_names_row_and_column():
    data = make_dataset(n=50, d=3, seed=2)
    model = fit_glm(data)
    X = data.X.copy()
    X[7, 1] = np.nan
    with pytest.raises(ValueError, match=r"row 7.*'f1'"):
        predict_proba(model, X, data.feature_names)


def test_probabilities_bounded():
    data = make_dataset(n=300, d=4, seed=3, coefs={0: 8.0})
    model = fit_glm(data)
    probs = predict_proba(model, data.X * 100, data.feature_names)
    assert np.all(probs >= 0.0) and np.all(probs <= 1.0)


def test_newer_version_rejected(tmp_path):
    data = make_dataset(n=60, d=2, seed=4)
    model = fit_glm(data)
    path = tmp_path / "glm.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    payload["version"] = ARTIFACT_VERSION + 1
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="newer than supported"):
        load_model(path)


def test_not_an_artifact_rejected(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"hello": 1}))
    with pytest.raises(ValueError, match="not a model artifact"):
        load_model(path)


def test_unknown_kind_fit_rejected():
    from c2sift.learners import fit_model

    with pytest.raises(ValueError, match="unknown model kind"):
        fit_model("nope", make_dataset(n=20, d=2), {}, 0)


@pytest.mark.parametrize(
    "kind, params, key",
    [
        ("rf", {"n_tree": 5}, "n_tree"),
        ("pca_rf", {"n_trees": 5, "variance": 0.9}, "variance"),
        ("gbm", {"n_round": 5}, "n_round"),
        ("gbm2", {"lamda": 2.0}, "lamda"),
        ("glm", {"max_iters": 5}, "max_iters"),
        ("lasso", {"lambda_path": [0.1], "n_lambda": 5}, "n_lambda"),
    ],
)
def test_unknown_param_refused_by_name(kind, params, key):
    from c2sift.learners import fit_model

    with pytest.raises(ValueError, match=f"{kind}: unknown key '{key}'"):
        fit_model(kind, make_dataset(n=40, d=3), params, 0)


def test_uncastable_param_refused_by_name():
    from c2sift.learners import fit_model

    with pytest.raises(ValueError, match="gbm: n_rounds = 'many' is not a valid int"):
        fit_model("gbm", make_dataset(n=40, d=3), {"n_rounds": "many"}, 0)


SMALL_PARAMS = {
    "rf": {"n_trees": 4, "max_depth": 3},
    "pca_rf": {"n_trees": 4, "max_depth": 3},
    "gbm": {"n_rounds": 5, "max_depth": 2},
    "gbm2": {"n_rounds": 5, "max_depth": 2},
    "glm": {},
    "lasso": {"lambda_path": [0.05, 0.01]},
}


def oracle_bytes(artifact: ModelArtifact) -> bytes:
    return json.dumps(encode_model(artifact), sort_keys=True).encode("utf-8")


def odd_models() -> list[ModelArtifact]:
    """One model of every base kind and a stack of them, on non-ASCII feature
    names, each with numpy scalars and tuples in its training_meta."""
    data = make_dataset(n=120, d=4, seed=21)
    data = LabeledDataset(data.X, data.y, ("größe", "流量", "f2", "f3"), data.row_keys)
    odd = {"np_float": np.float64(0.1), "np_float32": np.float32(0.3), "np_int": np.int64(-7), "pair": (1, ("a", 2.5))}
    bases = []
    for i, kind in enumerate(BASE_KINDS):
        model = fit_model(kind, data, SMALL_PARAMS[kind], seed=i)
        model.training_meta.update(odd)
        bases.append(model)
    stack = fit_stack(data, [(kind, SMALL_PARAMS[kind]) for kind in BASE_KINDS], bases, k=3, seed=5)
    stack.training_meta.update(odd)
    return [*bases, stack]


def test_save_writes_the_oracle_bytes_and_reloads_to_them(tmp_path):
    models = odd_models()
    assert [model.kind for model in models] == [*BASE_KINDS, "stack"]
    assert all(np.isnan(tree.threshold).any() for tree in models[0].parameters["trees"])  # leaves: NaN thresholds
    for model in models:
        path, again = tmp_path / f"{model.kind}.json", tmp_path / f"{model.kind}_again.json"
        save_model(model, path)
        assert path.read_bytes() == oracle_bytes(model), model.kind
        save_model(load_model(path), again)
        assert again.read_bytes() == path.read_bytes(), model.kind
    assert b"NaN" in (tmp_path / "rf.json").read_bytes() and b"\\u6d41\\u91cf" in (tmp_path / "stack.json").read_bytes()


def test_failed_save_keeps_the_old_file(tmp_path):
    model = fit_glm(make_dataset(n=60, d=2, seed=4))
    path = tmp_path / "glm.json"
    save_model(model, path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        save_model(dataclasses.replace(model, training_meta={"z": object()}), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["glm.json"]


def saved_rf_payload(tmp_path):
    data = make_dataset(n=80, d=3, seed=6)
    path = tmp_path / "rf.json"
    save_model(fit_model("rf", data, {"n_trees": 3, "max_depth": 3}, seed=1), path)
    return path, json.loads(path.read_text(encoding="utf-8"))


MODEL_READERS = {"load_model": load_model, "model_dir": lambda path: _load_model_dir(path.parent)}


@pytest.mark.parametrize("read", MODEL_READERS.values(), ids=MODEL_READERS.keys())
def test_tree_payload_without_a_key_names_the_file_and_key(tmp_path, read):
    path, payload = saved_rf_payload(tmp_path)
    del payload["parameters"]["trees"][1]["n_node"]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: rf trees[1]: tree payload has no 'n_node'")):
        read(path)


@pytest.mark.parametrize("read", MODEL_READERS.values(), ids=MODEL_READERS.keys())
def test_artifact_without_trees_names_the_file_and_key(tmp_path, read):
    path, payload = saved_rf_payload(tmp_path)
    del payload["parameters"]["trees"]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: rf parameters have no 'trees'")):
        read(path)


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_memory_grows_with_a_tree_not_with_the_forest(tmp_path):
    # the build-then-dump writer held every tree's node lists and the whole text: ~1.3 MB at 20 trees, ~6.5 MB at 200
    forest = fit_model("rf", make_dataset(n=400, d=6, seed=3), {"n_trees": 20}, seed=1)
    peaks = {}
    for n_trees in (20, 200):
        model = dataclasses.replace(forest, parameters={"trees": forest.parameters["trees"] * (n_trees // 20)})
        peaks[n_trees] = traced_peak(lambda: save_model(model, tmp_path / f"rf{n_trees}.json"))
    assert peaks[200] <= 1.5 * peaks[20], peaks


def test_load_memory_is_a_fixed_multiple_of_the_file(tmp_path):
    # the text, its bytes while it is decoded, and the trees' arrays; a parse into
    # Python lists of every node value before reviving them took ~4x the file
    forest = fit_model("rf", make_dataset(n=400, d=6, seed=3), {"n_trees": 20}, seed=1)
    path = tmp_path / "rf.json"
    save_model(dataclasses.replace(forest, parameters={"trees": forest.parameters["trees"] * 10}), path)
    peak = traced_peak(lambda: load_model(path))
    assert peak <= 3 * path.stat().st_size, (peak, path.stat().st_size)
