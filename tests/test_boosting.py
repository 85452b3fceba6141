import numpy as np
import pytest

from c2sift.learners import (
    LabeledDataset,
    fit_gbm,
    fit_gbm2,
    load_model,
    predict_proba,
    save_model,
)
from c2sift.learners import boosting, fit_model
from c2sift.learners.artifact import score_cells, share_groups
from c2sift.learners.boosting import _predict_boosted_stages
from c2sift.learners.tree import TreeParams

from conftest import make_dataset


def test_zero_rounds_predicts_base_rate():
    data = make_dataset(n=100, d=4, seed=0)
    model = fit_gbm(data, {"n_rounds": 0})
    probs = predict_proba(model, data.X, data.feature_names)
    assert np.allclose(probs, data.y.mean(), atol=1e-12)


def test_training_loss_non_increasing():
    data = make_dataset(n=150, d=6, seed=1)
    model = fit_gbm(data, {"n_rounds": 50, "learning_rate": 0.05, "max_depth": 3})
    path = model.training_meta["loss_path"]
    assert len(path) == 51
    assert all(b <= a + 1e-12 for a, b in zip(path, path[1:]))


def test_separable_data_perfect_training_auc():
    from c2sift.evaluate import auc

    rng = np.random.default_rng(5)
    X = rng.normal(size=(120, 2))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    data = LabeledDataset(X, y, ("a", "b"), tuple((f"h{i}", "2022-01-10") for i in range(120)))
    model = fit_gbm(data, {"n_rounds": 100, "learning_rate": 0.1, "max_depth": 3})
    assert auc(predict_proba(model, X, ("a", "b")), y) == 1.0


def test_gbm2_huge_lambda_collapses_to_base_rate():
    data = make_dataset(n=100, d=4, seed=2)
    model = fit_gbm2(data, {"n_rounds": 20, "lam": 1e12, "gamma": 0.0})
    probs = predict_proba(model, data.X, data.feature_names)
    assert np.allclose(probs, data.y.mean(), atol=1e-9)


def test_gbm2_loss_non_increasing():
    data = make_dataset(n=150, d=6, seed=3)
    model = fit_gbm2(data, {"n_rounds": 50, "learning_rate": 0.05, "max_depth": 3, "lam": 1.0})
    path = model.training_meta["loss_path"]
    assert all(b <= a + 1e-12 for a, b in zip(path, path[1:]))


def test_boosted_round_trip_bitwise(tmp_path):
    data = make_dataset(n=90, d=5, seed=4)
    probe = np.random.default_rng(4).normal(size=(30, 5))
    for fitter, name in ((fit_gbm, "gbm"), (fit_gbm2, "gbm2")):
        model = fitter(data, {"n_rounds": 25, "max_depth": 3})
        before = predict_proba(model, probe, data.feature_names)
        save_model(model, tmp_path / f"{name}.json")
        after = predict_proba(load_model(tmp_path / f"{name}.json"), probe, data.feature_names)
        assert np.array_equal(before, after)


def test_single_class_rejected():
    data = make_dataset(n=40, d=3, seed=5)
    bad = LabeledDataset(data.X, np.zeros(40, int), data.feature_names, data.row_keys)
    with pytest.raises(ValueError, match="both classes"):
        fit_gbm(bad, {"n_rounds": 5})


@pytest.mark.parametrize("fitter", [fit_gbm, fit_gbm2])
def test_staged_probabilities_equal_separate_fits_bitwise(fitter):
    """Round n of one 60-round fit scores exactly like an n-round fit."""
    data = make_dataset(n=120, d=5, seed=6)
    probe = np.random.default_rng(6).normal(size=(40, 5))
    params = {"max_depth": 3, "learning_rate": 0.1}
    stages = [0, 1, 37, 60]
    longest = fitter(data, {**params, "n_rounds": 60})
    cells = [{**params, "n_rounds": n} for n in stages]
    kind = "gbm2" if fitter is fit_gbm2 else "gbm"
    staged = score_cells(kind, data, cells, [0] * len(cells), probe, data.feature_names)
    for n, got in zip(stages, staged):
        alone = fitter(data, {**params, "n_rounds": n})
        assert np.array_equal(got, predict_proba(alone, probe, data.feature_names)), n
    assert np.array_equal(staged[-1], predict_proba(longest, probe, data.feature_names))


def test_stages_beyond_the_fit_rejected():
    data = make_dataset(n=60, d=3, seed=7)
    model = fit_gbm(data, {"n_rounds": 5})
    with pytest.raises(ValueError, match="outside"):
        _predict_boosted_stages(model, data.X, [6])


class TestBoostingGroupScorer:
    @pytest.mark.parametrize("kind", ["gbm", "gbm2"])
    def test_each_cell_equals_its_own_fit(self, monkeypatch, kind):
        data = make_dataset(n=120, d=6, seed=0)
        train, val = data.take(np.arange(80)), data.X[80:]
        extra = {"learning_rate": 0.3, "min_leaf": 8, **({"lam": 1.0, "gamma": 0.0} if kind == "gbm2" else {})}
        cells = [
            {"n_rounds": 4, "max_depth": 2, **extra},
            {"n_rounds": 10, "max_depth": 5, **extra},
            {"n_rounds": 2, "max_depth": 3, **extra},
            {"n_rounds": 12, "max_depth": 3, **extra},  # two rounds past the depth-5 fit's ten
            {"n_rounds": 6, "max_depth": 5, **extra},
            {"n_rounds": 0, "max_depth": 2, **extra},
        ]
        assert share_groups(kind, cells) == [list(range(6))]
        seeds = [21, 22, 23, 24, 25, 26]
        separate = [fit_model(kind, train, cell, seed) for cell, seed in zip(cells, seeds)]
        # a cap shares the deeper fit's rounds up to its first tree deeper than the cap
        deep = [tree.depth for tree in separate[1].parameters["trees"]]
        shared3 = next(t for t, depth in enumerate(deep) if depth > 3)
        assert 0 < shared3 < 10
        mid = [tree.depth for tree in separate[3].parameters["trees"]]
        shared2 = next((t for t, depth in enumerate(mid) if depth > 2), 12)

        one_round = "fit_tree_second_order" if kind == "gbm2" else "fit_tree"
        original = getattr(boosting, one_round)
        fitted = []

        def record(*args, **kwargs):
            fitted.append(next(a for a in args if isinstance(a, TreeParams)).max_depth)
            return original(*args, **kwargs)

        monkeypatch.setattr(boosting, one_round, record)
        shared = score_cells(kind, train, cells, seeds, val, data.feature_names)

        for model, scores in zip(separate, shared):
            assert np.array_equal(scores, predict_proba(model, val, data.feature_names))
        assert fitted == [5] * 10 + [3] * (12 - shared3) + [2] * (4 - min(shared2, 4))
