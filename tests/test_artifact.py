import json

import numpy as np
import pytest

from c2sift.learners import (
    ARTIFACT_VERSION,
    ModelArtifact,
    fit_glm,
    load_model,
    predict_proba,
    save_model,
)
from c2sift.learners.tree import Tree

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
