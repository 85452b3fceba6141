"""Reference tree builder: re-sorts the node's columns at every node.

This is the straightforward split search that the presorted search in
``c2sift.learners.tree`` replaced. For each node it gathers the node's
rows, argsorts every candidate column, scans cumulative sums over every
boundary and masks the invalid ones afterwards. With ``mtry`` below the
column count it is also the recursive feature-subsampled fit that the
batched ``fit_gini_trees`` replaced: each searched node draws its columns
from ``rng`` in preorder. Tests compare the trees of ``fit_tree``,
``fit_tree_second_order`` and ``fit_gini_trees`` with these, node for node.
"""
from __future__ import annotations

import numpy as np

from c2sift.learners.tree import Tree, TreeParams, _Builder

_GAIN_EPS = 1e-12


def _scan_gini(sorted_target: np.ndarray) -> np.ndarray:
    n = sorted_target.shape[0]
    ones_left = np.cumsum(sorted_target, axis=0)[:-1]
    n_left = np.arange(1, n, dtype=float)[:, None]
    n_right = n - n_left
    ones_right = ones_left[-1] + sorted_target[-1] - ones_left
    zeros_left = n_left - ones_left
    zeros_right = n_right - ones_right
    score_left = n_left - (ones_left**2 + zeros_left**2) / n_left
    score_right = n_right - (ones_right**2 + zeros_right**2) / n_right
    return score_left + score_right


def _scan_mse(sorted_target: np.ndarray) -> np.ndarray:
    n = sorted_target.shape[0]
    sum_left = np.cumsum(sorted_target, axis=0)[:-1]
    sq_left = np.cumsum(sorted_target**2, axis=0)[:-1]
    total = sum_left[-1] + sorted_target[-1]
    total_sq = sq_left[-1] + sorted_target[-1] ** 2
    n_left = np.arange(1, n, dtype=float)[:, None]
    n_right = n - n_left
    sse_left = sq_left - sum_left**2 / n_left
    sse_right = (total_sq - sq_left) - (total - sum_left) ** 2 / n_right
    return sse_left + sse_right


def _scan_second_order(sorted_g: np.ndarray, sorted_h: np.ndarray, lam: float) -> np.ndarray:
    g_left = np.cumsum(sorted_g, axis=0)[:-1]
    h_left = np.cumsum(sorted_h, axis=0)[:-1]
    g_total = g_left[-1] + sorted_g[-1]
    h_total = h_left[-1] + sorted_h[-1]
    g_right = g_total - g_left
    h_right = h_total - h_left
    return -(g_left**2 / (h_left + lam) + g_right**2 / (h_right + lam))


def _pick_split(n, columns, scores, sorted_vals, min_leaf):
    invalid = sorted_vals[1:] <= sorted_vals[:-1]
    if min_leaf > 1:
        sizes = np.arange(1, n)
        size_bad = (sizes < min_leaf) | (n - sizes < min_leaf)
        invalid |= size_bad[:, None]
    scores = np.where(invalid, np.inf, scores)
    per_col_best = np.argmin(scores, axis=0)
    col_scores = scores[per_col_best, np.arange(scores.shape[1])]
    j = int(np.argmin(col_scores))
    if not np.isfinite(col_scores[j]):
        return None
    boundary = int(per_col_best[j])
    lo = sorted_vals[boundary, j]
    hi = sorted_vals[boundary + 1, j]
    threshold = (lo + hi) / 2.0
    if threshold >= hi:
        threshold = lo
    return int(columns[j]), float(threshold), float(col_scores[j])


def _fit(X, target, params, rng, criterion, lam=0.0, gamma=0.0, mtry=None) -> Tree:
    n, d = X.shape
    builder = _Builder()
    mtry = d if mtry is None else max(1, min(mtry, d))

    def leaf_value(idx):
        if criterion == "second_order":
            g = target[idx, 0].sum()
            h = target[idx, 1].sum()
            denom = h + lam
            return -g / denom if denom > _GAIN_EPS else 0.0
        return float(target[idx].mean())

    def parent_score(idx):
        if criterion == "gini":
            ones = float(target[idx].sum())
            count = len(idx)
            return count - (ones**2 + (count - ones) ** 2) / count
        if criterion == "mse":
            t = target[idx]
            return float(np.sum(t * t) - t.sum() ** 2 / len(t))
        g = target[idx, 0].sum()
        h = target[idx, 1].sum()
        return -(g**2) / (h + lam)

    def build(idx, depth):
        count = len(idx)
        stop = (
            count < 2
            or count < 2 * params.min_leaf
            or (params.max_depth is not None and depth >= params.max_depth)
        )
        if not stop and criterion in ("gini", "mse"):
            t = target[idx]
            stop = bool(np.all(t == t[0]))
        if stop:
            return builder.add(leaf_value(idx), count)

        if mtry < d:
            columns = np.sort(rng.choice(d, size=mtry, replace=False))
        else:
            columns = np.arange(d)
        X_node = X[np.ix_(idx, columns)]
        order = np.argsort(X_node, axis=0)
        sorted_vals = np.take_along_axis(X_node, order, axis=0)

        if criterion == "gini":
            scores = _scan_gini(np.take_along_axis(target[idx][:, None], order, axis=0).astype(float))
        elif criterion == "mse":
            scores = _scan_mse(np.take_along_axis(target[idx][:, None], order, axis=0))
        else:
            scores = _scan_second_order(
                np.take_along_axis(target[idx, 0][:, None], order, axis=0),
                np.take_along_axis(target[idx, 1][:, None], order, axis=0),
                lam,
            )

        pick = _pick_split(count, columns, scores, sorted_vals, params.min_leaf)
        if pick is None:
            return builder.add(leaf_value(idx), count)
        feat, threshold, best_score = pick
        if criterion == "second_order":
            gain = 0.5 * (-best_score + parent_score(idx)) - gamma
            if gain <= 0.0:
                return builder.add(leaf_value(idx), count)
        elif parent_score(idx) - best_score <= _GAIN_EPS:
            return builder.add(leaf_value(idx), count)

        node = builder.add(0.0, count)
        builder.feature[node] = feat
        builder.threshold[node] = threshold
        go_left = X[idx, feat] <= threshold
        builder.left[node] = build(idx[go_left], depth + 1)
        builder.right[node] = build(idx[~go_left], depth + 1)
        return node

    build(np.arange(n), 0)
    return builder.finish()


def oracle_fit_tree(X, y, params: TreeParams, rng=None, criterion="gini", mtry=None) -> Tree:
    return _fit(np.asarray(X, dtype=float), np.asarray(y, dtype=float), params, rng, criterion, mtry=mtry)


def oracle_fit_tree_second_order(X, g, h, params: TreeParams, lam=1.0, gamma=0.0) -> Tree:
    target = np.column_stack([np.asarray(g, dtype=float), np.asarray(h, dtype=float)])
    return _fit(np.asarray(X, dtype=float), target, params, None, "second_order", lam=lam, gamma=gamma)
