import dataclasses

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
from c2sift.evaluate import cv_tune
from c2sift.learners import fit_model, forest
from c2sift.learners.artifact import score_cells, share_groups
from c2sift.learners.grids import HyperGrid
from c2sift.learners.tree import TreeParams, tree_predict

from conftest import make_dataset
from tree_oracle import fit_gini_tree


def test_single_tree_reduction():
    data = make_dataset(n=80, d=5, seed=1)
    forest = fit_random_forest(data, {"n_trees": 1, "bootstrap": False, "mtry": None}, seed=9)
    lone = fit_gini_tree(data.X, data.y, TreeParams())
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


def test_empty_forest_rejected():
    data = make_dataset(n=40, d=3, seed=4)
    for fitter in (fit_random_forest, fit_pca_rf):
        with pytest.raises(ValueError, match="at least one tree"):
            fitter(data, {"n_trees": 0}, seed=1)
        fitted = fitter(data, {"n_trees": 1}, seed=1)
        model = dataclasses.replace(fitted, parameters={**fitted.parameters, "trees": []})
        with pytest.raises(ValueError, match="at least one tree"):
            predict_proba(model, data.X)


@pytest.mark.parametrize("kind", ["rf", "pca_rf"])
@pytest.mark.parametrize(
    "key,value,refusal",
    [
        ("n_trees", 0, "n_trees = 0"),
        ("n_trees", -2, "n_trees = -2"),
        ("mtry", 0, "mtry = 0"),
        ("mtry", -4, "mtry = -4"),
        ("mtry", "half", "mtry = 'half'"),
        ("mtry", True, "mtry = True"),
        ("mtry", 2.5, "mtry = 2.5"),
        ("max_depth", -1, "max_depth = -1"),
        ("min_leaf", 0, "min_leaf = 0"),
    ],
)
def test_invalid_forest_settings_refused_at_read_time(kind, key, value, refusal):
    data = make_dataset(n=40, d=3, seed=4)
    with pytest.raises(ValueError, match=f"^{kind}: {refusal}"):
        fit_model(kind, data, {"n_trees": 2, key: value}, seed=1)


def test_forest_settings_at_their_bounds_are_read():
    rf = forest.RFParams.from_mapping({"n_trees": 1, "mtry": 99, "max_depth": 0, "min_leaf": 1}, 4, "rf")
    assert (rf.n_trees, rf.mtry, rf.max_depth, rf.min_leaf) == (1, 99, 0, 1)  # mtry above d clamps at fit time
    assert forest.RFParams.from_mapping({"mtry": "third"}, 9, "rf").mtry == 3


def recorded(monkeypatch, name, record):
    """Replace ``forest.<name>`` with a wrapper that appends ``record(*args)`` to the returned list."""
    calls = []
    original = getattr(forest, name)

    def wrapper(*args):
        calls.append(record(*args))
        return original(*args)

    monkeypatch.setattr(forest, name, wrapper)
    return calls


class TestForestGroupScorer:
    @pytest.mark.parametrize("kind", ["rf", "pca_rf"])
    def test_each_cell_equals_its_own_fit_under_the_leader_seed(self, monkeypatch, kind):
        data = make_dataset(n=120, d=6, seed=3)
        train, val = data.take(np.arange(80)), data.X[80:]
        extra = {"mtry": 2, **({"variance_retained": 0.9} if kind == "pca_rf" else {})}
        seeds = [11, 12, 13, 14, 15]
        leader = {"n_trees": 8, "max_depth": None, **extra}
        depths = [tree.depth for tree in fit_model(kind, train, leader, 13).parameters["trees"]]
        cap = max(depths)
        # the cap keeps some leader trees and cuts the deepest, which must be refitted
        assert min(depths) < cap
        cells = [
            {"n_trees": 3, "max_depth": 1, **extra},
            {"n_trees": 5, "max_depth": cap, **extra},
            leader,
            {"n_trees": 12, "max_depth": cap, **extra},  # four trees past the leader's eight
            {"n_trees": 4, "max_depth": None, **extra},
        ]
        assert share_groups(kind, cells) == [[0, 1, 2, 3, 4]]
        separate = [fit_model(kind, train, cell, 13) for cell in cells]
        capped = [tree.depth for tree in separate[3].parameters["trees"]]

        batches = recorded(
            monkeypatch, "_forest_trees", lambda X, y, rf, seed, trees: [(b, rf.max_depth, seed) for b in trees]
        )
        pcas = recorded(monkeypatch, "fit_pca", lambda *args: None)
        routed = recorded(monkeypatch, "route_trees", lambda trees, X: trees)
        shared = score_cells(kind, train, cells, seeds, val, data.feature_names)
        fitted = [tree for batch in batches for tree in batch]
        # each distinct tree is routed once, however many caps reuse it
        predicted = [tree for trees in routed for tree in trees]
        assert len(predicted) == len({id(tree) for tree in predicted}) == len(fitted)

        for model, scores in zip(separate, shared):
            assert np.array_equal(scores, predict_proba(model, val, data.feature_names))
        reused = [b for b in range(8) if depths[b] < cap]
        assert 0 < len(reused) < 8
        assert fitted == (
            [(b, None, 13) for b in range(8)]
            + [(b, cap, 13) for b in range(12) if b not in reused]
            + [(b, 1, 13) for b in range(3) if capped[b] >= 1]
        )
        assert len(pcas) == (kind == "pca_rf")

    def test_pca_fitted_once_per_group_and_fold(self, monkeypatch):
        data = make_dataset(n=60, d=4, seed=8)
        cells = tuple(
            {"n_trees": n, "max_depth": cap, "mtry": mtry, "variance_retained": 0.95}
            for n in (3, 5)
            for cap in (2, None)
            for mtry in ("sqrt", "third")
        )
        pcas = recorded(monkeypatch, "fit_pca", lambda *args: None)
        cv_tune(data, "pca_rf", HyperGrid(pca_rf=cells), k=3, seed=5)
        assert len(share_groups("pca_rf", list(cells))) == 2
        assert len(pcas) == 2 * 3

    def test_staged_probabilities_are_prefix_forests(self):
        data = make_dataset(n=80, d=5, seed=6)
        probe = np.random.default_rng(3).normal(size=(20, 5))
        cells = [{"n_trees": n} for n in (9, 2, 5)]
        staged = score_cells("rf", data, cells, [4, 4, 4], probe)
        for cell, scores in zip(cells, staged):
            prefix = fit_random_forest(data, cell, seed=4)
            assert np.array_equal(scores, predict_proba(prefix, probe))


def test_tree_depth_reads_the_deepest_node():
    data = make_dataset(n=80, d=5, seed=2)
    for cap in (0, 1, 3):
        tree = fit_gini_tree(data.X, data.y, TreeParams(max_depth=cap))
        assert tree.depth == cap
    stump = fit_gini_tree(data.X, np.zeros(80), TreeParams())
    assert stump.n_nodes == 1 and stump.depth == 0


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
