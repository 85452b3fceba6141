import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import c2sift.evaluate as evaluate
import evaluate_oracle as oracle
from c2sift.evaluate import (
    auc,
    auc_rows,
    bootstrap_metrics,
    cv_tune,
    evaluate_scores,
    permutation_importance,
    sensitivity,
    stratified_folds,
)
from c2sift.learners import fit_glm, fit_model, fit_random_forest, lambda_max, predict_proba
from c2sift.ensemble import fit_stack
from c2sift.learners.artifact import read_columns, score_cells, share_groups
from c2sift.learners.grids import HyperGrid, default_grid
from c2sift.learners.linear import lasso_cells
from c2sift.rng import NS_CV, NS_FOLDS, child_seed, substream
from c2sift.tasks import TaskPool

from conftest import make_dataset


def brute_force_auc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def loop_midranks(sorted_scores):
    """Midranks by walking each tie group: the loop ``auc`` used to run."""
    ranks = np.empty(len(sorted_scores))
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[i : j + 1] = (i + j + 2) / 2.0
        i = j + 1
    return ranks


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_matches_brute_force_exactly(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 50))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.choice([0.1, 0.25, 0.5, 0.75, float(rng.random())], size=n)
            assert auc(scores, labels) == brute_force_auc(scores, labels)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [1, 1])

    @settings(max_examples=200, deadline=None)
    @given(scores=st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.5, 1.0, 3.0]), min_size=1, max_size=60))
    def test_tie_heavy_midranks_match_loop_exactly(self, scores):
        sorted_scores = np.sort(np.asarray(scores, dtype=float))
        assert np.array_equal(oracle.midranks(sorted_scores), loop_midranks(sorted_scores))

    @settings(max_examples=60, deadline=None)
    @given(
        scores=st.lists(st.integers(-40, 40), min_size=2, max_size=40),
        labels=st.data(),
    )
    def test_rank_invariance_under_affine(self, scores, labels):
        y = labels.draw(
            st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)).filter(
                lambda l: 0 < sum(l) < len(l)
            )
        )
        base = np.array(scores, dtype=float) / 16.0  # exact dyadic values
        assert auc(3.0 * base + 1.0, y) == auc(base, y)

    def test_label_complement(self, rng):
        scores = rng.random(30)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        assert auc(scores, 1 - labels) == pytest.approx(1.0 - auc(scores, labels), abs=1e-12)


class TestSensitivity:
    def test_threshold_zero_flags_all(self):
        assert sensitivity([0.1, 0.9, 0.4], [1, 1, 0], 0.0) == 1.0

    def test_threshold_above_max(self):
        assert sensitivity([0.1, 0.9], [1, 1], 0.99) == 0.0

    def test_confusion_matrix_oracle(self, rng):
        scores = rng.random(50)
        labels = rng.integers(0, 2, size=50)
        labels[0] = 1
        tp = sum(1 for s, l in zip(scores, labels) if l == 1 and s >= 0.5)
        fn = sum(1 for s, l in zip(scores, labels) if l == 1 and s < 0.5)
        assert sensitivity(scores, labels, 0.5) == tp / (tp + fn)

    def test_monotone_in_threshold(self, rng):
        scores = rng.random(40)
        labels = rng.integers(0, 2, size=40)
        labels[0] = 1
        values = [sensitivity(scores, labels, t) for t in np.linspace(0, 1, 21)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError):
            sensitivity([0.2], [0], 0.5)


class TestBootstrap:
    def test_identity_hook_equals_point(self, rng, monkeypatch):
        scores = rng.random(40)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        monkeypatch.setattr(evaluate, "_resamples", lambda pos_idx, neg_idx, seed, lo, hi: np.arange(40)[None])
        aucs, sens = bootstrap_metrics(scores, labels, B=1, seed=0, threshold=0.5)
        assert aucs[0] == auc(scores, labels)
        assert sens[0] == sensitivity(scores, labels, 0.5)

    @pytest.mark.parametrize("cells", [None, 7 * 30 + 5])
    def test_blocks_equal_the_per_resample_loop_bitwise(self, rng, monkeypatch, cells):
        # tie-heavy scores of three models; 61 resamples are no whole number of 7-row blocks
        scores = rng.choice([0.0, 0.25, 0.5, 0.5000000000000001, 1.0], size=(3, 30))
        labels = rng.integers(0, 2, size=30)
        labels[:2] = [0, 1]
        if cells is not None:
            monkeypatch.setattr(evaluate, "_BLOCK_CELLS", cells)
        aucs, sens = bootstrap_metrics(scores, labels, B=61, seed=4, threshold=0.5)
        assert aucs.shape == sens.shape == (3, 61)
        indices = evaluate._resamples(np.flatnonzero(labels == 1), np.flatnonzero(labels == 0), 4, 0, 61)
        for row, row_aucs, row_sens in zip(scores, aucs, sens):
            loop_aucs, loop_sens = oracle.bootstrap_metrics(row, labels, B=61, seed=4, threshold=0.5)
            assert row_aucs.tobytes() == loop_aucs.tobytes() and row_sens.tobytes() == loop_sens.tobytes()
            assert all(auc_rows(row[indices], labels[indices]) == row_aucs)
            one_model = bootstrap_metrics(row, labels, B=61, seed=4, threshold=0.5)
            assert one_model[0].tobytes() == row_aucs.tobytes() and one_model[1].tobytes() == row_sens.tobytes()

    def test_memory_grows_with_the_block_not_with_B(self, rng):
        # at 20,000 rows a block is one resample, while a (B, rows) index matrix would take 1 MB at B = 25 and 8 MB at 200
        scores = rng.random(20_000)
        labels = rng.integers(0, 2, size=20_000)
        peaks = {}
        for B in (25, 200):
            tracemalloc.start()
            try:
                bootstrap_metrics(scores, labels, B=B, seed=5)
                peaks[B] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[200] <= 1.5 * peaks[25], peaks

    def test_perfect_separation_invariant(self):
        scores = np.concatenate([np.full(10, 0.9), np.full(30, 0.1)])
        labels = np.concatenate([np.ones(10, int), np.zeros(30, int)])
        aucs, _ = bootstrap_metrics(scores, labels, B=200, seed=1)
        assert np.all(aucs == 1.0)

    def test_deterministic_for_seed(self, rng):
        scores = rng.random(60)
        labels = rng.integers(0, 2, size=60)
        labels[:2] = [0, 1]
        a1 = bootstrap_metrics(scores, labels, B=50, seed=9)
        a2 = bootstrap_metrics(scores, labels, B=50, seed=9)
        assert np.array_equal(a1[0], a2[0]) and np.array_equal(a1[1], a2[1])

    def test_stratified_resamples_always_have_both_classes(self, rng):
        scores = rng.random(30)
        labels = np.zeros(30, int)
        labels[:3] = 1  # rare positives would vanish without stratification
        aucs, sens = bootstrap_metrics(scores, labels, B=300, seed=2)
        assert np.all(np.isfinite(aucs)) and np.all(np.isfinite(sens))

    def test_mean_near_point(self, rng):
        scores = np.clip(rng.normal(0.5, 0.2, size=200) + 0.2 * rng.integers(0, 2, 200), 0, 1)
        labels = rng.integers(0, 2, size=200)
        labels[:2] = [0, 1]
        aucs, _ = bootstrap_metrics(scores, labels, B=500, seed=3)
        assert abs(np.mean(aucs) - auc(scores, labels)) < 0.02


class TestFolds:
    def test_round_robin_stratification(self, rng):
        y = np.array([0] * 30 + [1] * 12)
        folds = stratified_folds(y, 6, rng)
        for f in range(6):
            assert np.sum((folds == f) & (y == 1)) == 2
            assert np.sum((folds == f) & (y == 0)) == 5

    def test_training_parts_keep_both_classes(self, rng):
        y = np.array([0] * 9 + [1] * 2)
        folds = stratified_folds(y, 4, rng)
        for f in range(4):
            train = y[folds != f]
            assert 0 in train and 1 in train

    def test_tiny_class_rejected(self, rng):
        with pytest.raises(ValueError):
            stratified_folds(np.array([0, 0, 0, 1]), 3, rng)


class TestCvTune:
    def test_single_cell(self):
        data = make_dataset(n=80, d=4, seed=1)
        grid = HyperGrid(glm=({},))
        result = cv_tune(data, "glm", grid, k=4, seed=0)
        assert result.best_params == {}
        assert len(result.table) == 1
        assert result.table[0]["mean_auc"] == pytest.approx(np.mean(result.table[0]["fold_aucs"]))

    def test_tie_breaks_to_first_cell(self):
        data = make_dataset(n=80, d=4, seed=2)
        grid = HyperGrid(glm=({"max_iter": 100}, {"max_iter": 101}))  # both converge well within 100 steps
        result = cv_tune(data, "glm", grid, k=4, seed=0)
        assert result.table[0]["fold_aucs"] == result.table[1]["fold_aucs"]
        assert result.best_params == {"max_iter": 100}

    def test_lasso_cells_are_prefixes_of_one_path(self):
        data = make_dataset(n=80, d=4, seed=2)
        cells = lasso_cells(data, {"n_lambdas": 5, "max_outer": 10})
        path = cells[-1]["lambda_path"]
        assert path[0] == lambda_max(data.X, data.y.astype(float))
        assert path[-1] == pytest.approx(path[0] * 1e-3)
        assert cells == [{"max_outer": 10, "lambda_path": path[: s + 1]} for s in range(5)]
        assert HyperGrid(lasso=tuple(cells)).cells("lasso") == cells
        assert share_groups("lasso", cells) == [list(range(5))]
        with pytest.raises(ValueError, match="prefixes"):
            score_cells("lasso", data, [cells[1], {"max_outer": 10, "lambda_path": path[1:3]}], [0, 0], data.X)

    def test_sabotaged_cell_loses(self):
        data = make_dataset(n=100, d=4, seed=3)
        grid = HyperGrid(rf=({"n_trees": 5, "max_depth": 0}, {"n_trees": 5, "max_depth": 4}))
        result = cv_tune(data, "rf", grid, k=4, seed=0)
        assert result.best_params["max_depth"] == 4

    def test_insufficient_class_count_rejected(self):
        data = make_dataset(n=30, d=3, seed=4)
        y = np.zeros(30, int)
        y[:4] = 1
        from c2sift.learners import LabeledDataset

        small = LabeledDataset(data.X, y, data.feature_names, data.row_keys)
        with pytest.raises(ValueError, match="folds"):
            cv_tune(small, "glm", HyperGrid(), k=10, seed=0)


def forest_leaders(cells):
    """Each forest cell's group leader: among the cells equal to it but for
    n_trees and max_depth, the first with the deepest cap (None deepest),
    then the most trees."""

    def rest(cell):
        return {name: value for name, value in cell.items() if name not in ("n_trees", "max_depth")}

    def rank(i):
        cap = cells[i].get("max_depth")
        return (math.inf if cap is None else cap, cells[i].get("n_trees", 300))

    return [max((j for j, other in enumerate(cells) if rest(other) == rest(cell)), key=rank) for cell in cells]


def oracle_cv_tune(data, kind, grid, k, seed):
    """cv_tune as it was before prefix sharing: every cell fitted on every fold.

    A forest cell is fitted under its group leader's seed, the seed its
    shared fit takes; boosting and the lasso draw no random numbers.
    """
    folds = stratified_folds(data.y, k, substream(seed, NS_FOLDS, 0))
    cells = grid.cells(kind)
    seeded = forest_leaders(cells) if kind in ("rf", "pca_rf") else range(len(cells))
    table = []
    best_mean, best_params = -np.inf, None
    for cell, seed_idx in zip(cells, seeded):
        fold_aucs = []
        for f in range(k):
            val = folds == f
            train = data.take(np.flatnonzero(~val))
            model = fit_model(kind, train, cell, child_seed(seed, NS_CV, seed_idx, f))
            scores = predict_proba(model, data.X[val], data.feature_names)
            fold_aucs.append(auc(scores, data.y[val]))
        mean_auc = float(np.mean(fold_aucs))
        table.append({"params": dict(cell), "fold_aucs": fold_aucs, "mean_auc": mean_auc})
        if mean_auc > best_mean:
            best_mean, best_params = mean_auc, dict(cell)
    return best_params, table


class TestPrefixSharedCv:
    def test_default_grids_group_boosting_by_learning_rate_and_forests_by_mtry(self):
        grid = default_grid()
        # gbm and gbm2 cells group by learning rate: n_rounds and max_depth share one fit
        for kind in ("gbm", "gbm2"):
            groups = share_groups(kind, grid.cells(kind))
            assert groups == [[0, 2, 4, 6], [1, 3, 5, 7]]
        # rf and pca_rf cells pair up by mtry: n_trees and max_depth share one forest
        for kind in ("rf", "pca_rf"):
            assert share_groups(kind, grid.cells(kind)) == [[0, 2, 4, 6], [1, 3, 5, 7]]
            assert forest_leaders(grid.cells(kind)) == [6, 7] * 4
        lasso = lasso_cells(make_dataset(n=60, d=4, seed=8), grid.cells("lasso")[0])
        assert share_groups("lasso", lasso) == [list(range(20))]

    @pytest.mark.parametrize("kind", ["gbm", "gbm2", "lasso", "rf", "pca_rf"])
    def test_shared_fits_equal_per_cell_fits(self, kind):
        data = make_dataset(n=60, d=4, seed=8)
        # a short all-rows penalty path: one fold path scores all 8 lasso cells
        grid = dataclasses.replace(default_grid(), lasso=tuple(lasso_cells(data, {"n_lambdas": 8})))
        result = cv_tune(data, kind, grid, k=3, seed=5)
        best_params, table = oracle_cv_tune(data, kind, grid, k=3, seed=5)
        assert result.table == table
        assert result.best_params == best_params
        if kind == "lasso":
            # every fold's path stops early (all four slopes active), so the
            # cells past the stop are scored from the stop-point fit; the
            # scores themselves, not just their AUCs, equal separate fits
            cells = grid.cells("lasso")
            folds = stratified_folds(data.y, 3, substream(5, NS_FOLDS, 0))
            for f in range(3):
                train, val = data.take(np.flatnonzero(folds != f)), data.X[folds == f]
                assert fit_model("lasso", train, cells[-1], 0).training_meta["path_computed"] < 8
                shared = score_cells("lasso", train, cells, [0] * len(cells), val, data.feature_names)
                for cell, scores in zip(cells, shared):
                    assert np.array_equal(scores, predict_proba(fit_model("lasso", train, cell, 0), val, data.feature_names))

    def test_pool_of_two_equals_inline(self):
        data = make_dataset(n=60, d=4, seed=9)
        grid = HyperGrid(gbm=tuple({"n_rounds": n, "max_depth": 2} for n in (3, 7, 12)))
        with TaskPool(2) as pool:
            shared = cv_tune(data, "gbm", grid, k=3, seed=1, pool=pool)
        assert shared.table == cv_tune(data, "gbm", grid, k=3, seed=1).table
        assert shared.table == oracle_cv_tune(data, "gbm", grid, k=3, seed=1)[1]


class TestImportance:
    def test_unused_feature_is_exactly_zero(self):
        data = make_dataset(n=120, d=3, seed=5)
        model = fit_glm(data)
        model.parameters["coef"] = np.array([1.5, 0.0, -0.5])  # silence f1
        report = permutation_importance(model, data, repeats=3, seed=0)
        assert report.raw_importance[1] == 0.0

    def test_label_defining_feature_tops(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(150, 4))
        y = (X[:, 2] > 0).astype(int)
        from c2sift.learners import LabeledDataset

        data = LabeledDataset(X, y, ("a", "b", "c", "d"), tuple((f"h{i}", "2022-01-10") for i in range(150)))
        model = fit_random_forest(data, {"n_trees": 30, "max_depth": 2}, seed=0)
        report = permutation_importance(model, data, repeats=3, seed=0)
        assert report.feature_names[int(np.argmax(report.raw_importance))] == "c"
        assert report.percentile_importance[2] == 100.0

    @pytest.mark.parametrize("kind", ["rf", "pca_rf", "gbm", "gbm2", "glm", "lasso", "stack"])
    def test_skipping_unread_columns_equals_the_per_column_loop(self, kind):
        data = make_dataset(n=90, d=7, seed=11)
        held_out = make_dataset(n=60, d=7, seed=12)
        stumps = {"n_trees": 6, "max_depth": 1, "mtry": 2}
        early_lasso = lasso_cells(data, {"n_lambdas": 8})[2]  # high penalties: most coefficients are 0
        if kind == "stack":
            specs = [("rf", stumps), ("lasso", early_lasso)]
            bases = [fit_model(k, data, params, 3) for k, params in specs]
            model = fit_stack(data, specs, bases, k=3, seed=3)
        else:
            rounds = {"n_rounds": 4, "max_depth": 1}
            params = {"rf": stumps, "pca_rf": stumps, "gbm": rounds, "gbm2": rounds, "glm": {}, "lasso": early_lasso}
            model = fit_model(kind, data, params[kind], 3)
        read = read_columns(model)
        if kind in ("rf", "lasso", "stack"):
            assert 0 < len(read) < 7
        report = permutation_importance(model, held_out, repeats=3, seed=4)
        assert report.raw_importance.tobytes() == oracle.permutation_importance(model, held_out, 3, 4).tobytes()
        assert np.all(np.delete(report.raw_importance, read) == 0.0)

    @pytest.mark.parametrize("kind", ["rf", "gbm"])
    def test_one_repeat_at_a_time_equals_the_block(self, kind):
        data = make_dataset(n=200, d=9, seed=13)
        held_out = make_dataset(n=1500, d=9, seed=14)
        params = {"rf": {"n_trees": 12, "max_depth": 3}, "gbm": {"n_rounds": 8, "max_depth": 2}}
        model = fit_model(kind, data, params[kind], 5)
        report = permutation_importance(model, held_out, repeats=4, seed=6)
        assert report.raw_importance.tobytes() == oracle.permutation_importance_block(model, held_out, 4, 6).tobytes()

    @pytest.mark.parametrize("kind", ["rf", "glm"])
    def test_memory_does_not_grow_with_repeats(self, kind):
        # the (repeats, rows, columns) block took 6 copies of a 20,000-row matrix at repeats 5, against 2 at repeats 1
        model = fit_model(kind, make_dataset(n=200, d=12, seed=15), {"rf": {"n_trees": 6, "max_depth": 2}, "glm": {}}[kind], 5)
        held_out = make_dataset(n=20_000, d=12, seed=16)
        peaks = {}
        for repeats in (1, 5):
            tracemalloc.start()
            try:
                permutation_importance(model, held_out, repeats=repeats, seed=7)
                peaks[repeats] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[5] <= 1.5 * peaks[1], peaks

    def test_percentile_is_monotone_rank_transform(self, rng):
        data = make_dataset(n=100, d=5, seed=7)
        model = fit_random_forest(data, {"n_trees": 20}, seed=1)
        report = permutation_importance(model, data, repeats=2, seed=2)
        raw, pct = report.raw_importance, report.percentile_importance
        assert pct.max() == 100.0
        order = np.argsort(raw)
        assert all(pct[order[i]] <= pct[order[i + 1]] for i in range(len(order) - 1))


def test_evaluate_scores_report(rng):
    scores = {"rf": rng.random(50), "glm": rng.random(50)}
    labels = rng.integers(0, 2, size=50)
    labels[:2] = [0, 1]
    reports = evaluate_scores(scores, labels, B=20, seed=3, threshold=0.4)
    assert [report.model_kind for report in reports] == ["rf", "glm"]
    for report in reports:
        assert report.resamples == 20 and len(report.bootstrap_auc) == 20
        assert report.threshold == 0.4
        assert report.point_auc == auc(scores[report.model_kind], labels)
        alone = bootstrap_metrics(scores[report.model_kind], labels, B=20, seed=3, threshold=0.4)
        assert report.bootstrap_auc.tobytes() == alone[0].tobytes()
        assert report.bootstrap_sensitivity.tobytes() == alone[1].tobytes()


@pytest.mark.parametrize("threshold", [float("nan"), -0.1, 1.5, float("inf")])
def test_threshold_outside_unit_interval_refused(rng, threshold):
    labels = np.array([0, 1] * 5)
    with pytest.raises(ValueError, match=repr(threshold)):
        evaluate_scores({"rf": rng.random(10)}, labels, B=5, seed=1, threshold=threshold)


def test_importance_needs_at_least_one_repeat():
    data = make_dataset(n=40, d=3, seed=5)
    with pytest.raises(ValueError, match="repeats must be at least 1"):
        permutation_importance(fit_glm(data), data, repeats=0, seed=0)
