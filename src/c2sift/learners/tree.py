"""Axis-aligned binary decision trees (CART-style), fit on numpy arrays.

Three split criteria share one exact split search:

* ``gini``: classification on 0/1 labels, leaves store P(class 1);
* ``mse``: regression by squared-error reduction, leaves store the mean
  target (used for boosting residuals);
* second-order: gain and leaf values from per-row gradient/hessian pairs
  with L2 leaf penalty ``lam`` and split penalty ``gamma`` (leaf value
  -G/(H+lam), splits kept only when gain > 0).

Candidate thresholds are midpoints between consecutive distinct sorted
values. Exact gain ties are broken toward the lowest feature index, then
the lowest threshold, so refits are reproducible.

Presort. A fit that searches every column sorts X once (``presort``):
constant columns are dropped, keeping a map back to the original feature
index, and each remaining column gets a stable argsort, stored as a
contiguous (columns, rows) block with the sorted values beside it.
Boosting builds one ``Presort`` per model and passes it to every round,
since only the targets change between rounds.

Partition. A child's per-column order is the parent's order with the rows
that went the other way removed, so it is still sorted, with ties in row
order, and no node below the root sorts. Each node also keeps its own
rows in row order, so leaf values and parent scores are summed in the
same order whatever the column orders are.

Scoring. At a node, the targets are gathered in each column's order and
summed cumulatively along the contiguous axis. Only valid boundaries are
scored: those between strictly increasing values with at least
``min_leaf`` rows on each side. One flat argmin over (column, boundary)
gives the lowest-feature-then-lowest-threshold tie-break.

Sums at a valid boundary cover the same rows whatever order ties are in,
but floating-point addition is not associative. For 0/1 gini targets the
sums are exact small integers, so scores never depend on tie order. For
mse and second-order targets a different order inside a block of tied
values can change a cumulative sum, and so a score, in the last bit.
The stable presort fixes that order (row order within ties); any other
sort that reorders ties may pick a different split where two scores are
within an ulp.

Feature-subsampled fits (``mtry`` below the column count, as in random
forests) draw a fresh column sample at each node, so they sort just the
sampled columns of the node's rows there and go through the same scorer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class TreeParams:
    max_depth: int | None = None
    min_leaf: int = 1
    mtry: int | None = None


@dataclass
class Tree:
    """Flat-array tree: feature[i] < 0 marks node i as a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_node: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def depth(self) -> int:
        """Depth of the deepest node; the root is at depth 0."""
        level, depth = np.zeros(1, dtype=np.int64), 0
        while True:
            split = level[self.feature[level] >= 0]
            if split.size == 0:
                return depth
            level = np.concatenate([self.left[split], self.right[split]])
            depth += 1

    def to_jsonable(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
            "n_node": self.n_node.tolist(),
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "Tree":
        return cls(
            feature=np.asarray(data["feature"], dtype=np.int32),
            threshold=np.asarray(data["threshold"], dtype=float),
            left=np.asarray(data["left"], dtype=np.int32),
            right=np.asarray(data["right"], dtype=np.int32),
            value=np.asarray(data["value"], dtype=float),
            n_node=np.asarray(data["n_node"], dtype=np.int64),
        )


def revive_trees(parameters: dict) -> dict:
    """A tree ensemble's saved parameters with each of its ``trees`` revived."""
    return {**parameters, "trees": [Tree.from_jsonable(t) for t in parameters["trees"]]}


class _Builder:
    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.n_node: list[int] = []

    def add(self, value: float, n: int) -> int:
        self.feature.append(-1)
        self.threshold.append(np.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(float(value))
        self.n_node.append(int(n))
        return len(self.feature) - 1

    def finish(self) -> Tree:
        return Tree(
            feature=np.asarray(self.feature, dtype=np.int32),
            threshold=np.asarray(self.threshold, dtype=float),
            left=np.asarray(self.left, dtype=np.int32),
            right=np.asarray(self.right, dtype=np.int32),
            value=np.asarray(self.value, dtype=float),
            n_node=np.asarray(self.n_node, dtype=np.int64),
        )


_GAIN_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class Presort:
    """X sorted once per column, shared by every tree fit on the same rows."""

    X: np.ndarray  # (n, d) training matrix
    columns: np.ndarray  # (k,) original index of each non-constant column
    order: np.ndarray  # (k, n) stable argsort of each of those columns
    sorted_vals: np.ndarray  # (k, n) column values in that order
    _root_positions: dict = field(default_factory=dict, repr=False)

    def root_positions(self, min_leaf: int) -> np.ndarray:
        if min_leaf not in self._root_positions:
            self._root_positions[min_leaf] = _valid_positions(self.sorted_vals, min_leaf)
        return self._root_positions[min_leaf]


def presort(X: np.ndarray) -> Presort:
    """Sort every non-constant column of X once, for ``fit_tree*``."""
    X = np.asarray(X, dtype=float)
    columns = np.flatnonzero((X != X[:1]).any(axis=0))
    block = np.ascontiguousarray(X[:, columns].T)
    order = np.argsort(block, axis=1, kind="stable")
    return Presort(X, columns, order, np.take_along_axis(block, order, axis=1))


def _valid_positions(sorted_vals: np.ndarray, min_leaf: int) -> np.ndarray:
    """Flat indices ``j * m + b`` of the boundaries after sorted position b
    of block row j that may split: strictly increasing, min_leaf each side."""
    k, m = sorted_vals.shape
    valid = np.zeros((k, m), dtype=bool)
    np.greater(sorted_vals[:, 1:], sorted_vals[:, :-1], out=valid[:, :-1])
    if min_leaf > 1:
        valid[:, : min_leaf - 1] = False
        valid[:, m - min_leaf :] = False
    return np.flatnonzero(valid)


def _boundary_scores(
    criterion: str,
    targets: tuple[np.ndarray, ...],
    order: np.ndarray,
    positions: np.ndarray,
    lam: float,
) -> np.ndarray:
    """Score to minimize at each valid boundary (flat index into ``order``).

    gini: n_L*gini_L + n_R*gini_R; mse: SSE_L + SSE_R; second-order: the
    negative gain without the parent term and gamma.
    """
    m = order.shape[1]
    block_row = positions // m

    def left_and_total(sorted_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cum = np.cumsum(sorted_t, axis=1)
        total = cum[:, -2] + sorted_t[:, -1]
        return cum.ravel()[positions], total[block_row]

    if criterion == "second_order":
        g_left, g_total = left_and_total(targets[0][order])
        h_left, h_total = left_and_total(targets[1][order])
        g_right = g_total - g_left
        h_right = h_total - h_left
        return -(g_left**2 / (h_left + lam) + g_right**2 / (h_right + lam))

    sorted_t = targets[0][order]
    n_left = (positions - block_row * m + 1).astype(float)
    n_right = m - n_left
    if criterion == "gini":
        ones_left, total = left_and_total(sorted_t)
        ones_right = total - ones_left
        zeros_left = n_left - ones_left
        zeros_right = n_right - ones_right
        score_left = n_left - (ones_left**2 + zeros_left**2) / n_left
        score_right = n_right - (ones_right**2 + zeros_right**2) / n_right
        return score_left + score_right
    sum_left, total = left_and_total(sorted_t)
    sq_left, total_sq = left_and_total(sorted_t**2)
    sse_left = sq_left - sum_left**2 / n_left
    sse_right = (total_sq - sq_left) - (total - sum_left) ** 2 / n_right
    return sse_left + sse_right


def _partition(block: tuple, keep: np.ndarray, count: int, min_leaf: int) -> tuple:
    """The block restricted to the ``count`` rows marked in ``keep``
    (a mask over the block), each column still in sorted order."""
    columns, sorted_vals, order, _ = block
    k = len(columns)
    sorted_vals = sorted_vals[keep].reshape(k, count)
    return columns, sorted_vals, order[keep].reshape(k, count), _valid_positions(sorted_vals, min_leaf)


def _fit(
    X: np.ndarray | Presort,
    targets: tuple[np.ndarray, ...],
    params: TreeParams,
    rng: np.random.Generator | None,
    criterion: str,
    lam: float = 0.0,
    gamma: float = 0.0,
) -> Tree:
    raw = X.X if isinstance(X, Presort) else np.asarray(X, dtype=float)
    n, d = raw.shape
    mtry = params.mtry if params.mtry is not None else d
    mtry = max(1, min(mtry, d))
    if mtry < d and rng is None:
        raise ValueError("feature subsampling requires an rng")
    if n == 0:
        raise ValueError("cannot fit a tree on an empty dataset")
    builder = _Builder()
    min_leaf = params.min_leaf

    # A node's block: (original column of each block row, sorted values,
    # global row ids in that order, valid boundary positions).
    if mtry < d:
        Xt = np.ascontiguousarray(raw.T)

        def sample_block(idx: np.ndarray) -> tuple:
            columns = np.sort(rng.choice(d, size=mtry, replace=False))
            values = Xt[np.ix_(columns, idx)]
            local = np.argsort(values, axis=1)
            sorted_vals = np.take_along_axis(values, local, axis=1)
            return columns, sorted_vals, idx[local], _valid_positions(sorted_vals, min_leaf)

        root_block = None
    else:
        sorted_X = X if isinstance(X, Presort) else presort(raw)
        sample_block = None
        root_block = (sorted_X.columns, sorted_X.sorted_vals, sorted_X.order, sorted_X.root_positions(min_leaf))

    def leaf_value(idx: np.ndarray) -> float:
        if criterion == "second_order":
            g = targets[0][idx].sum()
            h = targets[1][idx].sum()
            denom = h + lam
            return -g / denom if denom > _GAIN_EPS else 0.0
        return float(targets[0][idx].mean())

    def parent_score(idx: np.ndarray) -> float:
        if criterion == "gini":
            ones = float(targets[0][idx].sum())
            count = len(idx)
            return count - (ones**2 + (count - ones) ** 2) / count
        if criterion == "mse":
            t = targets[0][idx]
            return float(np.sum(t * t) - t.sum() ** 2 / len(t))
        g = targets[0][idx].sum()
        h = targets[1][idx].sum()
        return -(g**2) / (h + lam)

    def stops(idx: np.ndarray, depth: int) -> bool:
        count = len(idx)
        if count < 2 or count < 2 * min_leaf or (params.max_depth is not None and depth >= params.max_depth):
            return True
        if criterion in ("gini", "mse"):
            t = targets[0][idx]
            return bool(np.all(t == t[0]))
        return False

    def grow(idx: np.ndarray, depth: int, block: tuple | None) -> int:
        """Grow the subtree on rows ``idx`` (in row order); ``block`` is
        None when the node must sample its own columns."""
        count = len(idx)
        if stops(idx, depth):
            return builder.add(leaf_value(idx), count)
        if block is None:
            block = sample_block(idx)
        columns, sorted_vals, order, positions = block
        if positions.size == 0:
            return builder.add(leaf_value(idx), count)
        scores = _boundary_scores(criterion, targets, order, positions, lam)
        best = int(np.argmin(scores))
        best_score = float(scores[best])
        if not np.isfinite(best_score):
            return builder.add(leaf_value(idx), count)
        if criterion == "second_order":
            if 0.5 * (-best_score + parent_score(idx)) - gamma <= 0.0:
                return builder.add(leaf_value(idx), count)
        elif parent_score(idx) - best_score <= _GAIN_EPS:
            return builder.add(leaf_value(idx), count)

        row, boundary = divmod(int(positions[best]), order.shape[1])
        lo = sorted_vals[row, boundary]
        hi = sorted_vals[row, boundary + 1]
        threshold = (lo + hi) / 2.0
        if threshold >= hi:
            # midpoint rounded up onto the right value; fall back to the left one
            threshold = lo
        node = builder.add(0.0, count)
        builder.feature[node] = int(columns[row])
        builder.threshold[node] = float(threshold)
        # the rows at or before the boundary in the split column go left
        side = np.zeros(n, dtype=bool)
        side[order[row, : boundary + 1]] = True
        go_left = side[idx]
        left_idx, right_idx = idx[go_left], idx[~go_left]
        left_block = right_block = None
        if sample_block is None:
            grow_left = not stops(left_idx, depth + 1)
            grow_right = not stops(right_idx, depth + 1)
            if grow_left or grow_right:
                in_left = side[order]
                if grow_left:
                    left_block = _partition(block, in_left, len(left_idx), min_leaf)
                if grow_right:
                    right_block = _partition(block, ~in_left, len(right_idx), min_leaf)
        builder.left[node] = grow(left_idx, depth + 1, left_block)
        builder.right[node] = grow(right_idx, depth + 1, right_block)
        return node

    grow(np.arange(n), 0, root_block)
    return builder.finish()


def fit_tree(
    X: np.ndarray | Presort,
    y: np.ndarray,
    params: TreeParams,
    rng: np.random.Generator | None = None,
    criterion: str = "gini",
) -> Tree:
    """Fit a classification (gini) or regression (mse) tree.

    X may be a ``presort`` of the training matrix, to share one sort
    between fits on the same rows.
    """
    if criterion not in ("gini", "mse"):
        raise ValueError(f"unknown criterion {criterion!r}")
    return _fit(X, (np.asarray(y, dtype=float),), params, rng, criterion)


def fit_tree_second_order(
    X: np.ndarray | Presort,
    g: np.ndarray,
    h: np.ndarray,
    params: TreeParams,
    lam: float = 1.0,
    gamma: float = 0.0,
) -> Tree:
    """Fit a tree on gradient/hessian pairs with regularized gain.

    X may be a ``presort`` of the training matrix, as in ``fit_tree``.
    """
    targets = (np.asarray(g, dtype=float), np.asarray(h, dtype=float))
    return _fit(X, targets, params, None, "second_order", lam=lam, gamma=gamma)


def tree_predict(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Route all rows simultaneously; returns leaf values."""
    n = X.shape[0]
    pos = np.zeros(n, dtype=np.int64)
    while True:
        feats = tree.feature[pos]
        active = feats >= 0
        if not active.any():
            break
        rows = np.flatnonzero(active)
        at = pos[rows]
        go_left = X[rows, feats[rows]] <= tree.threshold[at]
        pos[rows] = np.where(go_left, tree.left[at], tree.right[at])
    return tree.value[pos]


def prefix_sums(start: np.ndarray, terms: Sequence[np.ndarray], stages: Sequence[int]) -> list[np.ndarray]:
    """``start`` plus the first s of ``terms`` for each s in ``stages``.

    Terms are added one at a time in order, as a whole ensemble sums its
    trees, so the sum at stage s is bit for bit that of the s-tree model.
    """
    sums = [start]
    for term in terms[: max(stages)]:
        sums.append(sums[-1] + term)
    return [sums[s] for s in stages]
