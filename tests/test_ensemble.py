import json

import numpy as np
import pytest

from c2sift.ensemble import fit_stack, oof_matrix, predict_stack, stack_tasks
from c2sift.evaluate import auc, stratified_folds
from c2sift.learners import (
    ARTIFACT_VERSION,
    LabeledDataset,
    ModelArtifact,
    fit_model,
    load_model,
    predict_proba,
    register_kind,
    save_model,
    sigmoid,
)
from c2sift.rng import NS_STACK, child_seed
from c2sift.tasks import TaskPool

from conftest import make_dataset


def _const_fitter(value):
    def fit(data, params, seed):
        return ModelArtifact("const", {"value": value}, seed, data.feature_names)

    return fit


def _const_predictor(artifact, X):
    return np.full(X.shape[0], float(artifact.parameters["value"]))


register_kind("const", _const_fitter(0.5), _const_predictor)


def _feature_predictor(col):
    """Ignores training entirely; predicts sigmoid of one input column."""

    def fit(data, params, seed):
        return ModelArtifact(f"feat{col}", {"col": col}, seed, data.feature_names)

    def predict(artifact, X):
        return sigmoid(X[:, artifact.parameters["col"]])

    return fit, predict


for _c in (0, 1):
    _f, _p = _feature_predictor(_c)
    register_kind(f"feat{_c}", _f, _p)


def stack_of(data, specs, k, seed):
    """fit_stack over bases fitted on all rows, as train fits them (with seeds of their own)."""
    bases = [fit_model(kind, data, params, child_seed(seed, 99, m)) for m, (kind, params) in enumerate(specs)]
    return fit_stack(data, specs, bases, k=k, seed=seed)


def test_constant_base_gives_constant_column():
    data = make_dataset(n=60, d=3, seed=0)
    out = oof_matrix(data, [("const", {})], k=5, seed=1)
    assert np.all(out == 0.5)


def test_oof_matches_independent_fold_loop():
    """Reference: materialize every fold model separately, same seeds."""
    data = make_dataset(n=200, d=5, seed=1)
    specs = [("rf", {"n_trees": 10, "max_depth": 4}), ("glm", {})]
    k, seed = 5, 3
    got = oof_matrix(data, specs, k=k, seed=seed)

    from c2sift.rng import NS_FOLDS, substream

    folds = stratified_folds(data.y, k, substream(seed, NS_FOLDS, 1))
    expect = np.empty((data.n_rows, len(specs)))
    for m, (kind, params) in enumerate(specs):
        for f in range(k):
            val_idx = np.flatnonzero(folds == f)
            train_idx = np.flatnonzero(folds != f)
            model = fit_model(kind, data.take(train_idx), params, child_seed(seed, NS_STACK, m, f))
            expect[val_idx, m] = predict_proba(model, data.X[val_idx], data.feature_names)
    assert np.array_equal(got, expect)


def test_leave_one_out_leakage_probe():
    """Flipping row i's label never moves entry (i, m) when folds are fixed."""
    base_data = make_dataset(n=10, d=3, seed=2)
    y = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
    data = LabeledDataset(base_data.X, y, base_data.feature_names, base_data.row_keys)
    folds = np.arange(10)  # leave-one-out
    specs = [("rf", {"n_trees": 3, "min_leaf": 1})]  # memorizing trees
    base = oof_matrix(data, specs, k=10, seed=0, folds=folds)
    for i in range(10):
        y2 = data.y.copy()
        y2[i] = 1 - y2[i]
        if len(np.unique(y2)) < 2:
            continue
        perturbed = LabeledDataset(data.X, y2, data.feature_names, data.row_keys)
        again = oof_matrix(perturbed, specs, k=10, seed=0, folds=folds)
        assert again[i, 0] == base[i, 0]


def test_stack_dominant_base_gets_weight():
    rng = np.random.default_rng(4)
    n = 200
    X = np.column_stack([rng.normal(size=n), rng.normal(size=n)])
    y = (X[:, 0] > 0).astype(int)  # feat0 base is a perfect scorer
    data = LabeledDataset(X, y, ("a", "b"), tuple((f"h{i}", "2022-01-10") for i in range(n)))
    specs = [("feat0", {}), ("feat1", {}), ("const", {})]
    stack = stack_of(data, specs, k=5, seed=0)
    coefs = np.asarray(stack.parameters["meta"].parameters["coef"])
    assert coefs[0] > 0
    assert coefs[0] > abs(coefs[1]) and coefs[0] > abs(coefs[2])
    oof = oof_matrix(data, specs, k=5, seed=0)
    stack_auc = auc(predict_proba(stack, X, ("a", "b")), y)
    assert stack_auc >= auc(oof[:, 0], y)


def test_identical_bases_keep_base_auc():
    data = make_dataset(n=150, d=4, seed=5)
    specs = [("feat0", {})] * 4
    stack = stack_of(data, specs, k=5, seed=1)
    base_scores = sigmoid(data.X[:, 0])
    stack_scores = predict_proba(stack, data.X, data.feature_names)
    # meta is monotone in the shared base score, so ranks are identical
    assert auc(stack_scores, data.y) == auc(base_scores, data.y)


def test_region_specialists_stack_improves():
    rng = np.random.default_rng(6)
    n = 400
    region = rng.random(n) < 0.5
    signal = rng.normal(size=n)
    X = np.zeros((n, 3))
    X[:, 0] = np.where(region, signal * 3, rng.normal(size=n) * 0.1)
    X[:, 1] = np.where(~region, signal * 3, rng.normal(size=n) * 0.1)
    X[:, 2] = region.astype(float)
    y = (signal > 0).astype(int)
    names = ("left", "right", "which")
    data = LabeledDataset(X, y, names, tuple((f"h{i}", "2022-01-10") for i in range(n)))
    specs = [("feat0", {}), ("feat1", {})]
    stack = stack_of(data, specs, k=5, seed=2)

    probe_region = rng.random(n) < 0.5
    probe_signal = rng.normal(size=n)
    probe = np.zeros((n, 3))
    probe[:, 0] = np.where(probe_region, probe_signal * 3, rng.normal(size=n) * 0.1)
    probe[:, 1] = np.where(~probe_region, probe_signal * 3, rng.normal(size=n) * 0.1)
    probe[:, 2] = probe_region.astype(float)
    probe_y = (probe_signal > 0).astype(int)

    stack_auc = auc(predict_proba(stack, probe, names), probe_y)
    single_aucs = [auc(sigmoid(probe[:, c]), probe_y) for c in (0, 1)]
    assert stack_auc >= max(single_aucs) - 0.01


def test_meta_zero_slopes_constant_output():
    meta = ModelArtifact(
        kind="glm",
        parameters={
            "means": [0.0],
            "scales": [1.0],
            "coef": [0.0],
            "intercept": 0.3,
            "coef_original": [0.0],
            "intercept_original": 0.3,
        },
        seed=0,
        feature_names=("const",),
    )
    base = ModelArtifact("const", {"value": 0.9}, 0, ("a",))
    stack = ModelArtifact(
        kind="stack",
        parameters={"base_specs": [["const", {}]], "base_models": [base], "meta": meta, "folds": 2},
        seed=0,
        feature_names=("a",),
    )
    out = predict_proba(stack, np.zeros((5, 1)), ("a",))
    assert np.allclose(out, sigmoid(np.array([0.3])))
    assert len(set(out.tolist())) == 1


def test_duplicated_row_identical_outputs():
    data = make_dataset(n=120, d=4, seed=7)
    specs = [("rf", {"n_trees": 10}), ("glm", {})]
    stack = stack_of(data, specs, k=5, seed=3)
    row = data.X[3]
    out = predict_proba(stack, np.tile(row, (5, 1)), data.feature_names)
    assert len(set(out.tolist())) == 1


def test_stack_round_trip_bitwise(tmp_path):
    data = make_dataset(n=150, d=5, seed=8)
    specs = [("rf", {"n_trees": 8}), ("gbm", {"n_rounds": 10}), ("glm", {}), ("lasso", {"lambda_path": [0.01]})]
    stack = stack_of(data, specs, k=5, seed=4)
    probe = np.random.default_rng(8).normal(size=(30, 5))
    before = predict_proba(stack, probe, data.feature_names)
    save_model(stack, tmp_path / "stack.json")
    loaded = load_model(tmp_path / "stack.json")
    assert np.array_equal(before, predict_proba(loaded, probe, data.feature_names))
    # the registered predictor on the revived nested models, without predict_proba's checks
    assert np.array_equal(before, predict_stack(loaded, probe))


def test_reloaded_stack_keeps_nested_training_meta(tmp_path):
    data = make_dataset(n=120, d=4, seed=11)
    specs = [("glm", {}), ("lasso", {"lambda_path": [0.02]}), ("rf", {"n_trees": 4})]
    stack = stack_of(data, specs, k=4, seed=6)
    save_model(stack, tmp_path / "stack.json")
    loaded = load_model(tmp_path / "stack.json")
    meta = loaded.parameters["meta"]
    assert set(meta.training_meta) >= {"converged", "separation"}
    assert meta.training_meta == stack.parameters["meta"].training_meta
    assert meta.seed == stack.parameters["meta"].seed
    for before, after in zip(stack.parameters["base_models"], loaded.parameters["base_models"]):
        assert (after.kind, after.seed, after.feature_names) == (before.kind, before.seed, before.feature_names)
        assert after.training_meta == json.loads(json.dumps(before.training_meta))
    glm, lasso, _ = loaded.parameters["base_models"]
    assert isinstance(glm.training_meta["converged"], bool)
    assert lasso.training_meta["path_computed"] == 1


def test_nested_model_version_checked(tmp_path):
    data = make_dataset(n=60, d=3, seed=12)
    specs = [("glm", {}), ("const", {})]
    save_model(stack_of(data, specs, k=3, seed=0), tmp_path / "stack.json")
    payload = json.loads((tmp_path / "stack.json").read_text())
    payload["parameters"]["base_models"][1]["version"] = ARTIFACT_VERSION + 1
    (tmp_path / "stack.json").write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="newer than supported"):
        load_model(tmp_path / "stack.json")


def test_fit_stack_runs_only_the_queued_oof_fits():
    data = make_dataset(n=80, d=3, seed=13)
    specs = [("glm", {}), ("rf", {"n_trees": 3})]
    k, seed = 4, 2
    pool = TaskPool(1)
    for m, spec in enumerate(specs):
        pool.submit(stack_tasks(data, m, spec, k, seed))
    queued = len(pool._futures)
    assert queued == len(specs) * k
    bases = [fit_model(kind, data, params, 0) for kind, params in specs]
    stack = fit_stack(data, specs, bases, k=k, seed=seed, pool=pool)
    assert len(pool._futures) == queued
    assert all(nested is base for nested, base in zip(stack.parameters["base_models"], bases))
    with pytest.raises(ValueError, match="2 base specs but 1 base models"):
        fit_stack(data, specs, bases[:1], k=k, seed=seed)


def test_small_class_rejected():
    data = make_dataset(n=20, d=3, seed=9)
    y = np.zeros(20, int)
    y[3] = 1  # single positive
    bad = LabeledDataset(data.X, y, data.feature_names, data.row_keys)
    with pytest.raises(ValueError):
        oof_matrix(bad, [("const", {})], k=5, seed=0)


def test_meta_names_deduplicate():
    data = make_dataset(n=80, d=3, seed=10)
    stack = stack_of(data, [("const", {}), ("const", {})], k=4, seed=5)
    assert stack.parameters["meta"].feature_names == ("const", "const_2")
