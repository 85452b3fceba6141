"""Axis-aligned binary decision trees (CART-style), fit on numpy arrays.

Three split criteria, each with an exact split search:

* ``gini``: classification on 0/1 labels, leaves store P(class 1); every
  gini tree is grown by ``fit_gini_trees`` (Forests);
* ``mse``: regression by squared-error reduction, leaves store the mean
  target (used for boosting residuals);
* second-order: gain and leaf values from per-row gradient/hessian pairs
  with L2 leaf penalty ``lam`` and split penalty ``gamma`` (leaf value
  -G/(H+lam), splits kept only when gain > 0).

Candidate thresholds are midpoints between consecutive distinct sorted
values. Exact gain ties are broken toward the lowest feature index, then
the lowest threshold, so refits are reproducible.

Presort. mse and second-order trees (``fit_tree`` and
``fit_tree_second_order``) search every column of X, which they sort
once (``presort``): constant columns are dropped, keeping a map back to
the original feature index, and each remaining column gets a stable
argsort, stored as a contiguous (columns, rows) block with the sorted
values and the root's ``_valid_positions`` (per ``min_leaf``) beside it.
Boosting builds one ``Presort`` per model and passes it to every round,
since only the targets change between rounds.

Partition. A child's per-column order is the parent's order with the rows
that went the other way removed, so it is still sorted, with ties in row
order, and no node below the root sorts. One flat index of the kept cells
(``np.flatnonzero``) gathers both the child's values and its order. Each
node also keeps its own rows in row order, so leaf values and parent
scores are summed in the same order whatever the column orders are.

Stop. An mse node with constant targets is a leaf. So is a second-order
node whose rows share one (g, h) pair when no split can pass the gain
gate: every column's cumulative sums and scores are then bit for bit one
constant row's, scored once, from slices of one cumsum, over every
boundary ``min_leaf`` allows. If no score is NaN and the minimum is
refused, the search (over a subset of those boundaries; the gate is
monotone under rounding) would refuse too. Each node sums its targets
once, for both its gain gate and its leaf.

Fitted. mse and second-order fits write each leaf's value at its rows
into ``fitted`` when given. Rows up to a split boundary hold values <= lo
<= threshold, and the others values >= hi > threshold (``_midpoint``), so
``fitted`` is bit for bit ``tree_predict`` on the training rows.

Scoring. A fit packs each row's two summed quantities, (g, h) or
(t, t * t), into one complex number (``_pack``). At a node they are
gathered in each column's order and summed along the contiguous axis by
one complex cumsum; complex addition is componentwise IEEE addition, so
the ``.real`` and ``.imag`` lanes, the scores and their warnings are bit
for bit those of two float64 sums. Only valid boundaries are scored:
those between strictly increasing values with at least ``min_leaf`` rows
on each side. One flat argmin over (column, boundary) gives the
lowest-feature-then-lowest-threshold tie-break.

Sums at a valid boundary cover the same rows whatever order ties are in,
but floating-point addition is not associative. For mse and second-order
targets a different order inside a block of tied values can change a
cumulative sum, and so a score, in the last bit.
The stable presort fixes that order (row order within ties); any other
sort that reorders ties may pick a different split where two scores are
within an ulp.

Forests. ``fit_gini_trees`` grows a list of gini trees together, each on
its own rows (a bootstrap draw, with repeats) and with its own Generator.
Each tree keeps a stack of pending nodes. In one step every unfinished
tree pops nodes in depth-first preorder, making leaves of those that stop,
until it reaches one that must be searched; only that node draws its
``mtry`` columns (all columns when ``mtry`` covers them, with no draw), so
each Generator advances as in a recursive fit. One vectorized search then
scores the step's nodes in chunks of at most ``_SEARCH_CELLS`` (node,
column, row) cells. X is coded once per call as int64 ranks into one
table of its distinct values (``_rank_codes``), codes ordering as values
do within a column; a pad row of target 0 codes above all. A chunk sorts
one key ``code << s | flat (node, row) position`` per cell of its
(nodes, mtry, width) block with ``np.sort``: the low bits give the sorted
rows, the high bits the valid boundaries and each threshold's lo and hi
from the table (one zero stands for both -0.0 and 0.0, which gives the
same midpoint), and one argmin per node runs in (column, boundary)
order. Gini sums are exact integers, so a node's ones, its children's,
its leaf value ``ones / count`` (bit for bit the mean of its 0/1
targets) and every score are those of a recursive fit whatever order
tied rows sort in. A child's rows are gathered into new arrays, so no
chunk outlives its step.

Routing. ``route_trees`` concatenates a block of trees' node arrays,
shifting child indices by each tree's offset, and routes every (tree, row)
pair of the block in one pass; a block holds as many trees as fit a fixed
pair budget, so routing memory does not grow with the number of trees.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class TreeParams:
    max_depth: int | None = None
    min_leaf: int = 1


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

    def root_positions(self, min_leaf: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def _valid_positions(sorted_vals: np.ndarray, min_leaf: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The boundaries after sorted position b of block row j that may split
    (strictly increasing, min_leaf each side): flat indices ``j * m + b``,
    their rows j and their left counts b + 1 (as floats)."""
    k, m = sorted_vals.shape
    valid = np.zeros((k, m), dtype=bool)
    np.greater(sorted_vals[:, 1:], sorted_vals[:, :-1], out=valid[:, :-1])
    if min_leaf > 1:
        valid[:, : min_leaf - 1] = False
        valid[:, m - min_leaf :] = False
    positions = np.flatnonzero(valid)
    row = positions // m
    return positions, row, positions - row * m + 1.0


def _pack(criterion: str, targets: tuple[np.ndarray, ...]) -> np.ndarray:
    """Each row's (g, h) for second order, or (t, t * t) for mse, as one complex number (Scoring)."""
    lanes = targets if criterion == "second_order" else (targets[0], np.square(targets[0]))
    return np.column_stack(lanes).view(complex).ravel()


def _boundary_scores(
    criterion: str,
    packed: np.ndarray,
    order: np.ndarray,
    valid: tuple[np.ndarray, np.ndarray, np.ndarray],
    lam: float,
) -> np.ndarray:
    """Score to minimize at each boundary ``valid`` of the block in ``order``, from ``_pack``ed targets.

    mse: SSE_L + SSE_R; second-order: the negative gain without the parent
    term and gamma.
    """
    positions, block_row, n_left = valid
    cum = np.cumsum(packed[order], axis=1)
    left = cum.ravel()[positions]
    right = cum[:, -1][block_row] - left
    if criterion == "second_order":
        return _second_order_scores(left, right, lam)
    n_right = order.shape[1] - n_left
    return (left.imag - left.real**2 / n_left) + (right.imag - right.real**2 / n_right)


def _second_order_scores(left: np.ndarray, right: np.ndarray, lam: float) -> np.ndarray:
    """The negative gain, without the parent term and gamma, of splits into packed (G, H) sums ``left`` and ``right``."""
    return -(left.real**2 / (left.imag + lam) + right.real**2 / (right.imag + lam))


def _partition(block: tuple, keep: np.ndarray, count: int, min_leaf: int) -> tuple:
    """The block restricted to the ``count`` rows marked in ``keep``
    (a mask over the block), each column still in sorted order."""
    columns, sorted_vals, order, _ = block
    k = len(columns)
    kept = np.flatnonzero(keep)
    sorted_vals = sorted_vals.ravel()[kept].reshape(k, count)
    return columns, sorted_vals, order.ravel()[kept].reshape(k, count), _valid_positions(sorted_vals, min_leaf)


def _midpoint(lo: float, hi: float) -> float:
    """The threshold between sorted values lo < hi: their midpoint, or lo
    where that is not in [lo, hi) (rounded onto hi, or overflowed)."""
    lo, hi = float(lo), float(hi)
    threshold = (lo + hi) / 2.0  # Python floats: an overflow is inf, with no warning
    return threshold if lo <= threshold < hi else lo


def _fit(
    X: np.ndarray | Presort,
    targets: tuple[np.ndarray, ...],
    params: TreeParams,
    criterion: str,
    lam: float = 0.0,
    gamma: float = 0.0,
    fitted: np.ndarray | None = None,
) -> Tree:
    """The recursive builder of mse and second-order trees (boosting's):
    every node searches all columns, partitioning the presort (Partition).
    Each leaf writes its value at its rows of ``fitted``, when given."""
    sorted_X = X if isinstance(X, Presort) else presort(X)
    n = sorted_X.X.shape[0]
    if n == 0:
        raise ValueError("cannot fit a tree on an empty dataset")
    builder = _Builder()
    min_leaf = params.min_leaf
    packed = _pack(criterion, targets)

    # A node's block: (original column of each block row, sorted values,
    # global row ids in that order, its ``_valid_positions``).
    root_block = (sorted_X.columns, sorted_X.sorted_vals, sorted_X.order, sorted_X.root_positions(min_leaf))

    def node_sums(idx: np.ndarray) -> tuple:
        """The node's target sums, (sum g, sum h) or (sum t,): one per node, for its gain gate and its leaf."""
        return tuple(target[idx].sum() for target in targets)

    def leaf(idx: np.ndarray, sums: tuple) -> int:
        if criterion == "second_order":
            denom = sums[1] + lam
            value = -sums[0] / denom if denom > _GAIN_EPS else 0.0
        else:
            value = float(sums[0] / len(idx))  # bit for bit the mean: one sum, one division
        if fitted is not None:
            fitted[idx] = value
        return builder.add(value, len(idx))

    def refused(score: float, idx: np.ndarray, sums: tuple) -> bool:
        """The gain gate: whether a split of score ``score`` is refused at the node of rows ``idx``."""
        if criterion == "mse":
            t = targets[0][idx]
            return float(np.sum(t * t) - sums[0] ** 2 / len(t)) - score <= _GAIN_EPS
        return 0.5 * (-score + -(sums[0] ** 2) / (sums[1] + lam)) - gamma <= 0.0

    def stops(idx: np.ndarray, depth: int, sums: tuple) -> bool:
        count = len(idx)
        if count < 2 or count < 2 * min_leaf or (params.max_depth is not None and depth >= params.max_depth):
            return True
        if not np.all(packed[idx] == packed[idx[0]]):
            return False
        if criterion == "mse":
            return True
        # one (g, h) pair (Stop): a constant row's scores at every min_leaf boundary, quiet as the search may score none
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cum = np.cumsum(np.full(count, packed[idx[0]]))
            left = cum[min_leaf - 1 : count - min_leaf]
            scores = _second_order_scores(left, cum[-1] - left, lam)
            return not np.isnan(scores).any() and refused(float(scores.min()), idx, sums)

    def grow(idx: np.ndarray, depth: int, block: tuple | None, sums: tuple) -> int:
        """Grow the subtree on rows ``idx`` (in row order), whose ``node_sums`` are
        ``sums``; ``block`` is None exactly when the node stops."""
        if block is None:
            return leaf(idx, sums)
        columns, sorted_vals, order, valid = block
        if valid[0].size == 0:
            return leaf(idx, sums)
        scores = _boundary_scores(criterion, packed, order, valid, lam)
        best = int(np.argmin(scores))
        best_score = float(scores[best])
        if not np.isfinite(best_score) or refused(best_score, idx, sums):
            return leaf(idx, sums)

        row, boundary = int(valid[1][best]), int(valid[2][best]) - 1
        node = builder.add(0.0, len(idx))
        builder.feature[node] = int(columns[row])
        builder.threshold[node] = _midpoint(sorted_vals[row, boundary], sorted_vals[row, boundary + 1])
        # the rows at or before the boundary in the split column go left
        side = np.zeros(n, dtype=bool)
        side[order[row, : boundary + 1]] = True
        go_left = side[idx]
        left_idx, right_idx = idx[go_left], idx[~go_left]
        left_sums, right_sums = node_sums(left_idx), node_sums(right_idx)
        left_block = right_block = None
        grow_left = not stops(left_idx, depth + 1, left_sums)
        grow_right = not stops(right_idx, depth + 1, right_sums)
        if grow_left or grow_right:
            in_left = side[order]
            if grow_left:
                left_block = _partition(block, in_left, len(left_idx), min_leaf)
            if grow_right:
                right_block = _partition(block, ~in_left, len(right_idx), min_leaf)
        builder.left[node] = grow(left_idx, depth + 1, left_block, left_sums)
        builder.right[node] = grow(right_idx, depth + 1, right_block, right_sums)
        return node

    every_row = np.arange(n)
    root_sums = node_sums(every_row)
    grow(every_row, 0, None if stops(every_row, 0, root_sums) else root_block, root_sums)
    return builder.finish()


_SEARCH_CELLS = 1 << 14  # (node, column, row) cells per batched gini search: bounds its memory, not its result


def fit_gini_trees(
    X: np.ndarray,
    y: np.ndarray,
    rows: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator | None],
    params: TreeParams,
    mtry: int,
) -> list[Tree]:
    """Gini trees grown together (Forests): tree t on the rows ``rows[t]`` of
    (X, y), drawing ``mtry`` columns per searched node from ``rngs[t]``.

    Tree t is bit for bit the recursive fit on ``X[rows[t]]`` that draws
    ``np.sort(rng.choice(d, mtry, replace=False))`` at each node it
    searches, in preorder, and leaves ``rngs[t]`` in the same state.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    mtry = min(mtry, d)
    if mtry < d and any(rng is None for rng in rngs):
        raise ValueError("feature subsampling requires an rng")
    if any(len(idx) == 0 for idx in rows):
        raise ValueError("cannot fit a tree on an empty dataset")
    y = np.asarray(y, dtype=float)
    codes, distinct = _rank_codes(X)
    y_pad = np.append(y, 0.0)  # row n pads a search block, with target 0
    every_column = np.arange(d)
    depth_cap = np.inf if params.max_depth is None else params.max_depth
    builders = [_Builder() for _ in rows]
    # a pending node: (its rows, its ones, depth, parent node, whether it is the left child)
    stacks = [[(np.asarray(idx), float(y[idx].sum()), 0, -1, True)] for idx in rows]
    live = list(range(len(rows)))
    while live:
        searched = []  # (tree, node, rows, ones, depth, columns) of each node this step searches
        for t in live:
            builder, stack = builders[t], stacks[t]
            while stack:
                idx, ones, depth, parent, is_left = stack.pop()
                count = len(idx)
                node = builder.add(ones / count, count)
                if parent >= 0:
                    (builder.left if is_left else builder.right)[parent] = node
                if count < max(2, 2 * params.min_leaf) or ones in (0, count) or depth >= depth_cap:
                    continue  # a leaf: too few rows, pure, or at the depth cap (no node lies below it)
                columns = np.sort(rngs[t].choice(d, size=mtry, replace=False)) if mtry < d else every_column
                searched.append((t, node, idx, ones, depth, columns))
                break
        searched.sort(key=lambda entry: -len(entry[2]))  # similar widths share a chunk
        start = 0
        while start < len(searched):
            chunk = searched[start : start + max(1, _SEARCH_CELLS // (mtry * len(searched[start][2])))]
            start += len(chunk)
            for (t, node, _, _, depth, _), split in zip(chunk, _gini_search(codes, distinct, y_pad, chunk, params.min_leaf)):
                if split is None:
                    continue
                feature, threshold, left, right = split
                builder = builders[t]
                builder.feature[node], builder.threshold[node], builder.value[node] = feature, threshold, 0.0
                stacks[t].append((*right, depth + 1, node, False))
                stacks[t].append((*left, depth + 1, node, True))
        live = [t for t in live if stacks[t]]
    return [builder.finish() for builder in builders]


def _rank_codes(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, n + 1) int64 codes of X's columns, and the distinct values they index
    (Forests): column j's dense ranks, offset by the distinct values of the
    columns before it; pad column n codes above every value."""
    n, d = X.shape
    order = np.argsort(X.T, axis=1)
    sorted_vals = np.take_along_axis(X.T, order, axis=1)
    new = np.ones((d, n), dtype=bool)
    np.not_equal(sorted_vals[:, 1:], sorted_vals[:, :-1], out=new[:, 1:])
    codes = np.full((d, n + 1), new.sum())
    np.put_along_axis(codes[:, :n], order, np.cumsum(new).reshape(d, n) - 1, axis=1)
    return codes, sorted_vals[new]


def _gini_search(codes: np.ndarray, distinct: np.ndarray, y_pad: np.ndarray, nodes: list, min_leaf: int) -> list:
    """Each node's best gini split, as (feature, threshold, (left rows,
    left ones), (right rows, right ones)), or None when it stays a leaf."""
    k = len(nodes)
    counts = np.array([len(entry[2]) for entry in nodes])
    ones = np.array([entry[3] for entry in nodes])
    columns = np.array([entry[5] for entry in nodes])  # (k, mtry)
    mtry, width = columns.shape[1], int(counts[0])
    block_rows = np.full((k, width), codes.shape[1] - 1)
    for i, entry in enumerate(nodes):
        block_rows[i, : counts[i]] = entry[2]
    shift = (k * width - 1).bit_length()  # a cell's key: its code above its flat (node, row) position
    keys = np.take(codes, columns[:, :, None] * codes.shape[1] + block_rows[:, None, :]) << shift  # (k, mtry, width)
    keys |= np.arange(k * width).reshape(k, 1, width)
    keys.sort(axis=2)
    pos = keys & ((1 << shift) - 1)  # each sorted cell's flat position in block_rows
    keys >>= shift  # the sorted codes
    ones_upto = np.cumsum(np.take(y_pad[block_rows], pos), axis=2)

    # boundary b splits sorted positions 0..b from b+1..: valid between
    # strictly increasing values with min_leaf rows on each side
    step = width - 1
    valid = keys[:, :, 1:] > keys[:, :, :-1]
    boundary = np.arange(step)
    valid &= ((boundary >= min_leaf - 1) & (boundary < (counts - min_leaf)[:, None]))[:, None, :]
    flat = np.flatnonzero(valid)
    cell = flat // step  # node * mtry + column
    at = cell // mtry
    n_left = (flat - cell * step + 1).astype(float)
    n_right = counts[at] - n_left
    ones_left = ones_upto.reshape(-1)[flat + cell]
    ones_right = ones[at] - ones_left
    zeros_left = n_left - ones_left
    zeros_right = n_right - ones_right
    score_left = n_left - (ones_left**2 + zeros_left**2) / n_left
    score_right = n_right - (ones_right**2 + zeros_right**2) / n_right
    scores = np.full((k, mtry * step), np.inf)
    scores.reshape(-1)[flat] = score_left + score_right
    best = scores.argmin(axis=1)
    best_scores = scores[np.arange(k), best]
    parents = counts - (ones**2 + (counts - ones) ** 2) / counts

    splits = []
    for i in range(k):
        if not parents[i] - best_scores[i] > _GAIN_EPS:
            splits.append(None)
            continue
        j, b = divmod(int(best[i]), step)
        threshold = _midpoint(distinct[keys[i, j, b]], distinct[keys[i, j, b + 1]])
        left_ones = ones_upto[i, j, b]
        left = (block_rows.ravel()[pos[i, j, : b + 1]], left_ones)
        right = (block_rows.ravel()[pos[i, j, b + 1 : counts[i]]], ones[i] - left_ones)
        splits.append((int(columns[i, j]), threshold, left, right))
    return splits


def fit_tree(X: np.ndarray | Presort, y: np.ndarray, params: TreeParams, fitted: np.ndarray | None = None) -> Tree:
    """Fit a regression (mse) tree; each training row's leaf value goes into ``fitted``.

    X may be a ``presort`` of the training matrix, to share one sort
    between fits on the same rows.
    """
    return _fit(X, (np.asarray(y, dtype=float),), params, "mse", fitted=fitted)


def fit_tree_second_order(
    X: np.ndarray | Presort,
    g: np.ndarray,
    h: np.ndarray,
    params: TreeParams,
    lam: float = 1.0,
    gamma: float = 0.0,
    fitted: np.ndarray | None = None,
) -> Tree:
    """Fit a tree on gradient/hessian pairs with regularized gain.

    X may be a ``presort`` of the training matrix, and ``fitted`` receives
    each training row's leaf value, as in ``fit_tree``.
    """
    targets = (np.asarray(g, dtype=float), np.asarray(h, dtype=float))
    return _fit(X, targets, params, "second_order", lam=lam, gamma=gamma, fitted=fitted)


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


_ROUTE_PAIRS = 1 << 13  # (tree, row) pairs per routing pass: bounds its memory, not its result


def route_blocks(trees: Sequence[Tree], X: np.ndarray) -> Iterator[np.ndarray]:
    """The rows of ``route_trees(trees, X)``, one block of consecutive trees at a time."""
    n = X.shape[0]
    step = max(1, _ROUTE_PAIRS // max(n, 1))
    for lo in range(0, len(trees), step):
        block = trees[lo : lo + step]
        sizes = [tree.n_nodes for tree in block]
        offsets = np.cumsum([0] + sizes[:-1])
        feature, threshold, left, right, value = (
            np.concatenate([getattr(tree, name) for tree in block])
            for name in ("feature", "threshold", "left", "right", "value")
        )
        left, right = left + np.repeat(offsets, sizes), right + np.repeat(offsets, sizes)
        pos = np.repeat(offsets, n)  # pair p routes row p % n down the block's tree p // n
        pairs = np.flatnonzero(feature[pos] >= 0)
        while pairs.size:
            at = pos[pairs]
            pos[pairs] = to = np.where(X[pairs % n, feature[at]] <= threshold[at], left[at], right[at])
            pairs = pairs[feature[to] >= 0]
        yield value[pos].reshape(len(block), n)


def route_trees(trees: Sequence[Tree], X: np.ndarray) -> np.ndarray:
    """(trees, rows) leaf values; row t is bit for bit ``tree_predict(trees[t], X)``."""
    return np.concatenate([np.empty((0, X.shape[0])), *route_blocks(trees, X)])


def split_columns(model) -> np.ndarray:
    """The columns that a split node of a tree ensemble's ``trees`` reads, ascending."""
    features = np.concatenate([np.empty(0, dtype=np.int32), *(tree.feature for tree in model.parameters["trees"])])
    return np.unique(features[features >= 0])


def prefix_sums(start: np.ndarray, terms: Sequence[np.ndarray], stages: Sequence[int]) -> list[np.ndarray]:
    """``start`` plus the first s of ``terms`` for each s in ``stages``.

    Terms are added one at a time in order, as a whole ensemble sums its
    trees, so the sum at stage s is bit for bit that of the s-tree model.
    """
    sums = [start]
    for term in terms[: max(stages)]:
        sums.append(sums[-1] + term)
    return [sums[s] for s in stages]
