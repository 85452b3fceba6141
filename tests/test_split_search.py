"""The packed split searches of ``c2sift.learners.tree`` against the
searches they replaced (``tree_oracle``), bit for bit.

Boosting's scores come from one complex cumulative sum over both targets;
the oracle sums each target in its own float64 array. Forests sort one
(rank, position) key per cell; the oracle argsorts float values. Scores
and thresholds are compared through their int64 views, so a -0.0 against
a 0.0, or one NaN against another, counts as a difference, and every
call must raise the same RuntimeWarnings as the oracle's.
"""
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from c2sift.learners.tree import _boundary_scores, _gini_search, _pack, _rank_codes, _valid_positions
from tree_oracle import oracle_boundary_scores, oracle_gini_search, oracle_valid_positions

VALUES = np.array([-1.5, -0.0, 0.0, 0.25, 2.0, 3.0])  # few values, so ties; both zeros


def recorded(call):
    """``call()`` and the set of RuntimeWarning messages it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, {str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)}


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    k=st.integers(1, 4),
    min_leaf=st.integers(1, 4),
    criterion=st.sampled_from(["mse", "second_order"]),
    scale=st.sampled_from([1.0, 1e160, 1e300]),  # squares overflow above ~1.3e154, sums near 1.8e308
    lam=st.sampled_from([0.0, 1.0]),
    zero_h=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_boundary_scores_equal_the_two_array_oracle(seed, n, k, min_leaf, criterion, scale, lam, zero_h):
    rng = np.random.default_rng(seed)
    X = rng.choice(VALUES, size=(k, n))
    order = np.argsort(X, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(X, order, axis=1)
    valid = _valid_positions(sorted_vals, min_leaf)
    positions = oracle_valid_positions(sorted_vals, min_leaf)
    assert valid[0].tolist() == positions.tolist()
    assert valid[1].tolist() == (positions // n).tolist()
    assert bits(valid[2]) == bits(positions % n + 1)

    g = rng.normal(size=n) * scale
    g[rng.random(n) < 0.2] = 0.0
    g[rng.random(n) < 0.2] = -0.0
    h = np.where(rng.random(n) < zero_h, 0.0, rng.random(n))  # zero hessians: 0/0 and x/0 with lam = 0
    targets = (g, h) if criterion == "second_order" else (g,)
    fast, fast_warnings = recorded(lambda: _boundary_scores(criterion, _pack(criterion, targets), order, valid, lam))
    slow, slow_warnings = recorded(lambda: oracle_boundary_scores(criterion, targets, order, positions, lam))
    assert fast_warnings == slow_warnings
    assert bits(fast) == bits(slow)


def test_rank_codes_index_the_distinct_values_in_order():
    rng = np.random.default_rng(0)
    X = rng.choice(VALUES, size=(30, 4))
    codes, distinct = _rank_codes(X)
    n = X.shape[0]
    assert np.array_equal(distinct[codes[:, :n]], X.T)
    assert (codes[:, n] == len(distinct)).all()  # the pad row sorts after every row
    for column, values in zip(codes[:, :n], X.T):
        assert np.array_equal(np.sign(column[:, None] - column[None, :]), np.sign(values[:, None] - values[None, :]))


def split_key(split):
    """A split with each child's rows as a sorted multiset: tied rows may
    leave either search in any order, and a child's rows are a set."""
    if split is None:
        return None
    feature, threshold, (left_rows, left_ones), (right_rows, right_ones) = split
    return (
        feature,
        bits(threshold),
        sorted(left_rows.tolist()),
        bits(left_ones),
        sorted(right_rows.tolist()),
        bits(right_ones),
    )


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    d=st.integers(1, 5),
    n_nodes=st.integers(1, 6),
    min_leaf=st.integers(1, 4),
    budget=st.sampled_from([1, 40, 400, 1 << 14]),
)
def test_gini_search_equals_the_argsort_oracle(seed, n, d, n_nodes, min_leaf, budget):
    """Nodes of bootstrap rows (with repeats) on tie-heavy columns holding
    both zeros, searched in the grower's chunks under each budget."""
    rng = np.random.default_rng(seed)
    X = rng.choice(VALUES, size=(n, d))
    y = (rng.random(n) < 0.4).astype(float)
    mtry = int(rng.integers(1, d + 1))
    nodes = []
    for node in range(n_nodes):
        rows = rng.integers(0, n, size=int(rng.integers(2, n + 1)))
        nodes.append((node, node, rows, float(y[rows].sum()), 0, np.sort(rng.choice(d, mtry, replace=False))))
    nodes.sort(key=lambda entry: -len(entry[2]))
    codes, distinct = _rank_codes(X)
    Xt = np.full((d, n + 1), np.inf)
    Xt[:, :n] = X.T
    y_pad = np.append(y, 0.0)
    start = 0
    while start < len(nodes):
        chunk = nodes[start : start + max(1, budget // (mtry * len(nodes[start][2])))]
        start += len(chunk)
        fast, fast_warnings = recorded(lambda: _gini_search(codes, distinct, y_pad, chunk, min_leaf))
        slow, slow_warnings = recorded(lambda: oracle_gini_search(Xt, y_pad, chunk, min_leaf))
        assert fast_warnings == slow_warnings
        assert [split_key(split) for split in fast] == [split_key(split) for split in slow]
