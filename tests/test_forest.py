import numpy as np
import pytest

from c2sift.learners import (
    LabeledDataset,
    fit_pca,
    fit_pca_rf,
    fit_random_forest,
    load_model,
    predict_proba,
    save_model,
)
from c2sift.learners.tree import TreeParams, fit_tree, tree_predict
from c2sift.rng import NS_FOREST, substream

from conftest import make_dataset


def test_single_tree_reduction():
    data = make_dataset(n=80, d=5, seed=1)
    forest = fit_random_forest(data, {"n_trees": 1, "bootstrap": False, "mtry": None}, seed=9)
    lone = fit_tree(data.X, data.y, TreeParams(), substream(9, NS_FOREST, 0))
    assert np.array_equal(predict_proba(forest, data.X, data.feature_names), tree_predict(lone, data.X))


def test_seed_determinism():
    data = make_dataset(n=120, d=6, seed=2)
    probe = np.random.default_rng(0).normal(size=(40, 6))
    a = predict_proba(fit_random_forest(data, {"n_trees": 30}, seed=5), probe)
    b = predict_proba(fit_random_forest(data, {"n_trees": 30}, seed=5), probe)
    assert np.array_equal(a, b)
    c = predict_proba(fit_random_forest(data, {"n_trees": 30}, seed=6), probe)
    assert not np.array_equal(a, c)


def test_two_moons_accuracy():
    rng = np.random.default_rng(7)
    n = 150
    t = rng.uniform(0, np.pi, n)
    upper = np.column_stack([np.cos(t), np.sin(t)]) + rng.normal(0, 0.1, (n, 2))
    lower = np.column_stack([1 - np.cos(t), -np.sin(t) + 0.5]) + rng.normal(0, 0.1, (n, 2))
    X = np.vstack([upper, lower])
    y = np.concatenate([np.zeros(n, int), np.ones(n, int)])
    data = LabeledDataset(X, y, ("x", "y"), tuple((f"h{i}", "2022-01-10") for i in range(2 * n)))
    model = fit_random_forest(data, {"n_trees": 100}, seed=0)
    acc = np.mean((predict_proba(model, X, ("x", "y")) >= 0.5) == y)
    assert acc >= 0.95


def test_forest_probability_in_tree_hull():
    data = make_dataset(n=100, d=4, seed=3)
    model = fit_random_forest(data, {"n_trees": 20, "max_depth": 3}, seed=1)
    probe = np.random.default_rng(1).normal(size=(30, 4))
    per_tree = np.array([tree_predict(t, probe) for t in model.parameters["trees"]])
    mean = predict_proba(model, probe)
    assert np.all(mean >= per_tree.min(axis=0) - 1e-12)
    assert np.all(mean <= per_tree.max(axis=0) + 1e-12)


class TestPca:
    def test_line_data_rank_one(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=100)
        X = np.column_stack([t, 3 * t])
        pca = fit_pca(X, 0.95)
        assert pca.k == 1
        assert pca.eigenvalues[0] == pytest.approx(pca.eigenvalues.sum(), rel=1e-9)

    def test_rotation_orthonormal(self):
        X = np.random.default_rng(1).normal(size=(60, 8))
        pca = fit_pca(X)
        eye = pca.rotation.T @ pca.rotation
        assert np.max(np.abs(eye - np.eye(8))) < 1e-8

    def test_power_iteration_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 10)) @ np.diag(np.linspace(3, 0.5, 10))
        pca = fit_pca(X, 0.99)
        means = X.mean(axis=0)
        scales = np.where(X.std(axis=0, ddof=1) > 0, X.std(axis=0, ddof=1), 1.0)
        Z = (X - means) / scales
        C = Z.T @ Z / (len(X) - 1)
        eigs = []
        for _ in range(10):
            v = np.ones(10) / np.sqrt(10)
            for _ in range(3000):
                v = C @ v
                v /= np.linalg.norm(v)
            lam = float(v @ C @ v)
            eigs.append(lam)
            C = C - lam * np.outer(v, v)
        assert np.allclose(np.sort(eigs)[::-1], pca.eigenvalues, rtol=1e-6)

    def test_full_rank_reconstruction(self):
        X = np.random.default_rng(3).normal(size=(40, 6))
        pca = fit_pca(X)
        assert np.allclose(pca.rotation.T @ pca.rotation, np.eye(6), atol=1e-10)
        back = (pca.transform(X, k=6) @ pca.rotation.T) * pca.scales + pca.means
        assert np.allclose(back, X, atol=1e-6)

    def test_constant_column_scaled_by_one(self):
        X = np.column_stack([np.full(30, 4.2), np.random.default_rng(4).normal(size=30)])
        pca = fit_pca(X)
        assert pca.scales[0] == 1.0

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            fit_pca(np.zeros((1, 3)))


def test_pca_rf_round_trip(tmp_path):
    data = make_dataset(n=120, d=10, seed=4)
    model = fit_pca_rf(data, {"n_trees": 25, "variance_retained": 0.95}, seed=2)
    assert model.training_meta["k"] <= 10
    probe = np.random.default_rng(2).normal(size=(25, 10))
    before = predict_proba(model, probe, data.feature_names)
    save_model(model, tmp_path / "pca_rf.json")
    after = predict_proba(load_model(tmp_path / "pca_rf.json"), probe, data.feature_names)
    assert np.array_equal(before, after)
