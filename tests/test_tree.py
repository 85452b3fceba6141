from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import c2sift.learners.boosting as boosting
import c2sift.learners.tree as tree_module
from c2sift.learners import fit_gbm, fit_gbm2
from c2sift.learners.tree import (
    Tree,
    TreeParams,
    fit_gini_trees,
    fit_tree,
    fit_tree_second_order,
    presort,
    route_trees,
    tree_predict,
)

from conftest import make_dataset
from tree_oracle import oracle_fit_tree, oracle_fit_tree_second_order


def exhaustive_stump(X, y, criterion="gini"):
    """Brute-force best (feature, midpoint) by impurity decrease.

    Ties resolve to the lowest feature index, then lowest threshold,
    mirroring the documented rule.
    """
    n, d = X.shape

    def impurity(labels):
        if len(labels) == 0:
            return 0.0
        if criterion == "gini":
            p = labels.mean()
            return 1.0 - p * p - (1 - p) * (1 - p)
        return float(np.var(labels))

    parent = impurity(y) * n
    best = None
    for j in range(d):
        values = np.unique(X[:, j])
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            if threshold >= hi:
                threshold = lo
            left = y[X[:, j] <= threshold]
            right = y[X[:, j] > threshold]
            gain = parent - (impurity(left) * len(left) + impurity(right) * len(right))
            if best is None or gain > best[0] + 1e-9:
                best = (gain, j, threshold)
    return best[1], best[2]


def test_separable_1d():
    X = np.array([[1.0], [2.0], [9.0], [10.0]])
    y = np.array([0, 0, 1, 1])
    tree = fit_tree(X, y, TreeParams())
    assert tree.feature[0] == 0
    assert 2.0 < tree.threshold[0] < 9.0
    probs = tree_predict(tree, X)
    assert probs.tolist() == [0.0, 0.0, 1.0, 1.0]


def test_pure_labels_single_leaf():
    X = np.arange(12, dtype=float).reshape(6, 2)
    tree = fit_tree(X, np.ones(6), TreeParams())
    assert tree.n_nodes == 1
    assert tree.value[0] == 1.0


def test_stump_matches_exhaustive_oracle():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(100, 6))
        y = (rng.random(100) < 0.4).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        tree = fit_tree(X, y, TreeParams(max_depth=1))
        feat, threshold = exhaustive_stump(X, y)
        assert tree.feature[0] == feat
        assert tree.threshold[0] == pytest.approx(threshold)


def test_regression_stump_matches_oracle():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 4))
    t = X[:, 2] * 2 + rng.normal(size=80)
    tree = fit_tree(X, t, TreeParams(max_depth=1), criterion="mse")
    feat, threshold = exhaustive_stump(X, t, criterion="mse")
    assert tree.feature[0] == feat
    assert tree.threshold[0] == pytest.approx(threshold)


def test_max_depth_zero_is_leaf():
    X = np.array([[0.0], [1.0]])
    tree = fit_tree(X, np.array([0, 1]), TreeParams(max_depth=0))
    assert tree.n_nodes == 1
    assert tree.value[0] == 0.5


def test_min_leaf_respected():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] > 0).astype(int)
    tree = fit_tree(X, y, TreeParams(min_leaf=8))
    leaves = tree.feature < 0
    assert np.all(tree.n_node[leaves] >= 8)


def test_empty_input_raises():
    with pytest.raises(ValueError):
        fit_tree(np.empty((0, 2)), np.empty(0), TreeParams())


def test_mtry_requires_rng():
    with pytest.raises(ValueError, match="rng"):
        fit_gini_trees(np.zeros((4, 3)), np.array([0, 1, 0, 1]), [np.arange(4)], [None], TreeParams(), mtry=1)


def test_second_order_closed_form_leaf():
    # g = -0.5 per row, h = 0.25 per row, lam=0: single leaf of value 2
    n = 16
    X = np.random.default_rng(0).normal(size=(n, 3))
    g = np.full(n, -0.5)
    h = np.full(n, 0.25)
    tree = fit_tree_second_order(X, g, h, TreeParams(), lam=0.0, gamma=0.0)
    assert tree.n_nodes == 1
    assert tree.value[0] == pytest.approx(2.0)


def test_second_order_gain_gate():
    # gamma larger than any achievable gain forbids every split
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 4))
    g = rng.normal(size=50)
    h = np.full(50, 0.25)
    tree = fit_tree_second_order(X, g, h, TreeParams(), lam=1.0, gamma=1e9)
    assert tree.n_nodes == 1


def second_order_stump_oracle(X, g, h, lam):
    n, d = X.shape
    G, H = g.sum(), h.sum()
    parent = G * G / (H + lam)
    best = None
    for j in range(d):
        values = np.unique(X[:, j])
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            if threshold >= hi:
                threshold = lo
            mask = X[:, j] <= threshold
            gl, hl = g[mask].sum(), h[mask].sum()
            gr, hr = G - gl, H - hl
            gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
            if best is None or gain > best[0] + 1e-9:
                best = (gain, j, threshold)
    return best


def test_second_order_stump_matches_gain_oracle():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 5))
        p = 1 / (1 + np.exp(-rng.normal(size=60)))
        y = (rng.random(60) < 0.5).astype(float)
        g, h = p - y, p * (1 - p)
        tree = fit_tree_second_order(X, g, h, TreeParams(max_depth=1), lam=1.0, gamma=0.0)
        gain, feat, threshold = second_order_stump_oracle(X, g, h, lam=1.0)
        if gain <= 0:
            assert tree.n_nodes == 1
        else:
            assert tree.feature[0] == feat
            assert tree.threshold[0] == pytest.approx(threshold)


def test_predict_matches_recursive_walk():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(120, 5))
    y = (X[:, 1] + X[:, 3] > 0).astype(int)
    tree = fit_tree(X, y, TreeParams(max_depth=6))

    def walk(i, row):
        while tree.feature[i] >= 0:
            i = tree.left[i] if row[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
        return tree.value[i]

    probe = rng.normal(size=(50, 5))
    slow = np.array([walk(0, row) for row in probe])
    assert np.array_equal(tree_predict(tree, probe), slow)


@settings(max_examples=80, deadline=None)
@given(
    n_trees=st.integers(0, 6),
    rows=st.integers(0, 30),
    d=st.integers(1, 4),
    budget=st.sampled_from([1, 7, 40, 200, tree_module._ROUTE_PAIRS]),
    seed=st.integers(0, 2**16),
)
def test_route_trees_equals_tree_predict_per_tree(n_trees, rows, d, budget, seed):
    rng = np.random.default_rng(seed)
    trees = []
    for t in range(n_trees):
        X = rng.integers(0, 4, size=(20, d)).astype(float)
        y = rng.integers(0, 2, size=20) if t % 3 else np.zeros(20)  # every third tree is a single leaf
        trees.append(fit_tree(X, y, TreeParams(max_depth=int(rng.integers(0, 5)))))
    # probe values sit on the trees' thresholds as well as between them
    thresholds = np.concatenate([np.arange(4.0)] + [tree.threshold[tree.feature >= 0] for tree in trees])
    probe = rng.choice(thresholds, size=(rows, d))
    with mock.patch.object(tree_module, "_ROUTE_PAIRS", budget):  # small budgets split the trees into blocks
        routed = route_trees(trees, probe)
    assert routed.shape == (n_trees, rows)
    for t, tree in enumerate(trees):
        assert routed[t].tobytes() == tree_predict(tree, probe).tobytes()


def test_route_trees_blocks_under_the_default_budget():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(80, 3))
    trees = [fit_tree(X, (X[:, t % 3] > 0.1 * t).astype(int), TreeParams(max_depth=3)) for t in range(5)]
    probe = rng.normal(size=(tree_module._ROUTE_PAIRS // 2 + 1, 3))  # one tree per block
    routed = route_trees(trees, probe)
    assert all(np.array_equal(routed[t], tree_predict(tree, probe)) for t, tree in enumerate(trees))


def test_tree_json_round_trip():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] > 0.2).astype(int)
    tree = fit_tree(X, y, TreeParams())
    again = Tree.from_jsonable(tree.to_jsonable())
    assert np.array_equal(tree_predict(tree, X), tree_predict(again, X))


def tree_bytes(tree):
    return [getattr(tree, f).tobytes() for f in ("feature", "threshold", "left", "right", "value", "n_node")]


tree_params = st.builds(
    TreeParams,
    max_depth=st.sampled_from([None, 1, 2, 4]),
    min_leaf=st.integers(1, 4),
)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    d=st.integers(1, 6),
    levels=st.integers(1, 4),
    params=tree_params,
    subsample=st.booleans(),
)
def test_gini_tie_heavy_matches_oracle(seed, n, d, levels, params, subsample):
    """Few distinct values per column, so most sorted boundaries are ties."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, d)).astype(float)
    y = (rng.random(n) < 0.4).astype(int)
    if subsample:
        mtry = int(rng.integers(1, d + 1))
        [fast] = fit_gini_trees(X, y, [np.arange(n)], [np.random.default_rng(seed)], params, mtry)
        slow = oracle_fit_tree(X, y, params, np.random.default_rng(seed), mtry=mtry)
    else:
        fast = fit_tree(X, y, params)
        slow = oracle_fit_tree(X, y, params)
    assert tree_bytes(fast) == tree_bytes(slow)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 50),
    d=st.integers(1, 6),
    levels=st.integers(1, 4),
    n_trees=st.integers(1, 5),
    max_depth=st.sampled_from([None, 0, 1, 2, 4]),
    min_leaf=st.integers(1, 4),
    bootstrap=st.booleans(),
    budget=st.sampled_from([1, 50, 400, tree_module._SEARCH_CELLS]),
)
def test_gini_trees_grown_together_equal_the_recursive_fits(
    seed, n, d, levels, n_trees, max_depth, min_leaf, bootstrap, budget
):
    """Tree for tree, and Generator state for Generator state, the batched
    grower equals the recursive oracle fit on each tree's own rows."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, d)).astype(float)  # tie-heavy integer columns
    y = (rng.random(n) < 0.4).astype(int)
    mtry = int(rng.integers(1, d + 1))
    params = TreeParams(max_depth=max_depth, min_leaf=min_leaf)

    def draws():
        rngs = [np.random.default_rng([seed, t]) for t in range(n_trees)]
        return rngs, [r.integers(0, n, size=n) if bootstrap else np.arange(n) for r in rngs]

    rngs, rows = draws()
    with mock.patch.object(tree_module, "_SEARCH_CELLS", budget):  # small budgets split a step into chunks
        grown = fit_gini_trees(X, y, rows, rngs, params, mtry)
    oracle_rngs, oracle_rows = draws()
    assert len(grown) == n_trees
    for tree, rng_t, oracle_rng, idx in zip(grown, rngs, oracle_rngs, oracle_rows):
        assert tree_bytes(tree) == tree_bytes(oracle_fit_tree(X[idx], y[idx], params, oracle_rng, mtry=mtry))
        assert rng_t.bit_generator.state == oracle_rng.bit_generator.state


def test_gini_trees_step_spans_several_chunks(monkeypatch):
    rng = np.random.default_rng(5)
    X = rng.integers(0, 6, size=(120, 8)).astype(float)
    y = (X[:, 0] + X[:, 3] + rng.integers(0, 3, size=120) > 7).astype(int)
    rngs = [np.random.default_rng([5, t]) for t in range(12)]
    rows = [r.integers(0, 120, size=120) for r in rngs]
    searched = []
    search = tree_module._gini_search

    def spy(Xt, y_pad, nodes, min_leaf):
        searched.append(len(nodes))
        return search(Xt, y_pad, nodes, min_leaf)

    monkeypatch.setattr(tree_module, "_SEARCH_CELLS", 3 * 3 * 120)  # three roots per chunk
    monkeypatch.setattr(tree_module, "_gini_search", spy)
    grown = fit_gini_trees(X, y, rows, rngs, TreeParams(max_depth=5), 3)
    assert searched[:4] == [3, 3, 3, 3]  # the first step searched the 12 roots in four chunks
    oracle_rngs = [np.random.default_rng([5, t]) for t in range(12)]
    for tree, r in zip(grown, oracle_rngs):
        idx = r.integers(0, 120, size=120)
        assert tree_bytes(tree) == tree_bytes(oracle_fit_tree(X[idx], y[idx], TreeParams(max_depth=5), r, mtry=3))


def test_gini_trees_negative_depth_cap_gives_one_leaf():
    """The grower stops a node at ``depth >= max_depth``, as the recursive fits do."""
    X = np.array([[1.0], [2.0], [9.0], [10.0]])
    y = np.array([0, 0, 1, 1])
    params = TreeParams(max_depth=-1)
    [tree] = fit_gini_trees(X, y, [np.arange(4)], [None], params, 1)
    assert tree.n_nodes == 1 and tree_bytes(tree) == tree_bytes(oracle_fit_tree(X, y, params))
    assert tree_bytes(fit_tree(presort(X), y, params)) == tree_bytes(tree)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60), d=st.integers(1, 6), params=tree_params)
def test_mse_and_second_order_tie_free_match_oracle(seed, n, d, params):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))  # tie-free, so sort order is unique
    t = rng.normal(size=n)
    assert tree_bytes(fit_tree(X, t, params, criterion="mse")) == tree_bytes(
        oracle_fit_tree(X, t, params, criterion="mse")
    )
    g, h = rng.normal(size=n), rng.random(n)
    lam, gamma = float(rng.choice([0.0, 1.0])), float(rng.choice([0.0, 0.1]))
    assert tree_bytes(fit_tree_second_order(X, g, h, params, lam=lam, gamma=gamma)) == tree_bytes(
        oracle_fit_tree_second_order(X, g, h, params, lam=lam, gamma=gamma)
    )


def test_constant_column_never_chosen_and_feature_is_original_index():
    rng = np.random.default_rng(7)
    varying = rng.normal(size=(80, 3))
    X = np.column_stack([np.full(80, 2.0), varying[:, 0], np.zeros(80), varying[:, 1], varying[:, 2], np.ones(80)])
    y = (varying[:, 1] + 0.5 * varying[:, 2] > 0).astype(int)
    assert presort(X).columns.tolist() == [1, 3, 4]
    full = fit_tree(X, y, TreeParams(max_depth=4))
    alone = fit_tree(varying, y, TreeParams(max_depth=4))
    splits = full.feature[full.feature >= 0]
    assert splits.size > 0 and not np.isin(splits, [0, 2, 5]).any()
    assert np.array_equal(full.feature, np.where(alone.feature >= 0, np.array([1, 3, 4])[alone.feature], -1))
    assert tree_bytes(full)[1:] == tree_bytes(alone)[1:]


def test_all_constant_columns_give_one_leaf():
    tree = fit_tree(np.ones((10, 3)), np.arange(10) % 2, TreeParams())
    assert tree.n_nodes == 1 and tree.value[0] == 0.5


@pytest.mark.parametrize("fitter,tree_fn", [(fit_gbm, "fit_tree"), (fit_gbm2, "fit_tree_second_order")])
def test_boosting_shared_presort_equals_fresh_presort(monkeypatch, fitter, tree_fn):
    data = make_dataset(n=120, d=6, seed=11)
    data.X[:, 2] = np.round(data.X[:, 2])  # ties, and one constant column
    data.X[:, 4] = 1.0
    params = {"n_rounds": 30, "max_depth": 4, "min_leaf": 2}
    shared = fitter(data, params)
    one_round = getattr(boosting, tree_fn)
    calls = []

    def fresh_presort(sorted_X, *args, **kwargs):
        calls.append(sorted_X)
        return one_round(presort(sorted_X.X), *args, **kwargs)

    monkeypatch.setattr(boosting, tree_fn, fresh_presort)
    fresh = fitter(data, params)
    assert len(calls) == 30 and len({id(c) for c in calls}) == 1
    for a, b in zip(shared.parameters["trees"], fresh.parameters["trees"], strict=True):
        assert tree_bytes(a) == tree_bytes(b)
