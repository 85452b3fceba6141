"""Random forest and PCA-rotated random forest.

Forest probability is the mean of per-tree leaf probabilities over B
bootstrap-sampled gini trees with per-split feature subsampling. Each tree
draws from its own substream (stream id = tree index), so fits are
reproducible, and a forest's trees are grown together
(``tree.fit_gini_trees``), with the draw order kept.

Because tree b depends only on the seed and b, under one seed a B-tree
forest is the first B trees of any larger one (Breiman 2001), and one
running sum over a forest's trees (``prefix_sums``) scores every prefix
of it. A depth cap c changes tree b only if the uncapped fit grew a node
at depth >= c: a tree whose every node lies above depth c drew all its
columns above the cap, so the capped fit of the same substream is the
same tree. Cross-validation uses both facts to score a grid's
``n_trees`` and ``max_depth`` cells from one forest per fold
(``_score_forest_group``); a saved forest averages all of its trees.
Both route a whole block of trees per pass (``tree.route_trees``).

The PCA front end centers and unit-scales columns (constant columns are
scaled by 1), rotates onto the eigenvectors of the correlation-scale
covariance matrix in decreasing eigenvalue order, and keeps the smallest
number of components reaching the requested variance fraction.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from ..configio import read_settings
from ..rng import NS_FOREST, substream
from .artifact import ModelArtifact, register_kind
from .data import LabeledDataset
from .linear import _standardize
from .tree import Tree, TreeParams, fit_gini_trees, prefix_sums, route_blocks, route_trees, split_columns
from .tree import fit_tree, tree_predict  # noqa: F401  tracer-only: perfbench/tracing.py wraps both in forest by name

VARIANCE_RETAINED = 0.95  # pca_rf's default share of standardized variance kept by its PCA


@dataclass(frozen=True)
class RFParams:
    n_trees: int = 300
    mtry: int | None = None  # from_mapping resolves None and "sqrt" to round(sqrt(d))
    max_depth: int | None = None
    min_leaf: int = 1
    bootstrap: bool = True

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees = {self.n_trees!r}: a forest needs at least one tree")
        if self.mtry is not None and not _is_count(self.mtry, 1):
            raise ValueError(f"mtry = {self.mtry!r} is not None, 'sqrt', 'third' or an int >= 1")
        if self.max_depth is not None and not _is_count(self.max_depth, 0):
            raise ValueError(f"max_depth = {self.max_depth!r} is not None or an int >= 0")
        if self.min_leaf < 1:
            raise ValueError(f"min_leaf = {self.min_leaf!r} is below 1")

    @classmethod
    def from_mapping(cls, params: Mapping, d: int, kind: str) -> "RFParams":
        mtry = params.get("mtry")
        if mtry is None or mtry == "sqrt":
            mtry = max(1, round(d**0.5))
        elif mtry == "third":
            mtry = max(1, d // 3)
        return read_settings(cls, {**params, "mtry": mtry}, kind)


def _is_count(value, least: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _forest_trees(X: np.ndarray, y: np.ndarray, rf: RFParams, seed: int, trees: Sequence[int]) -> list[Tree]:
    """Trees ``trees`` of a forest, grown together: tree b's bootstrap rows
    and then its column draws come from substream (NS_FOREST, b)."""
    rngs = [substream(seed, NS_FOREST, b) for b in trees]
    n = len(y)
    rows = [rng.integers(0, n, size=n) if rf.bootstrap else np.arange(n) for rng in rngs]
    return fit_gini_trees(X, y, rows, rngs, TreeParams(max_depth=rf.max_depth, min_leaf=rf.min_leaf), rf.mtry)


def _fit_forest(data: LabeledDataset, rf: RFParams, seed: int) -> list[Tree]:
    return _forest_trees(data.X, data.require_training_labels(), rf, seed, range(rf.n_trees))


def fit_random_forest(data: LabeledDataset, params: Mapping, seed: int) -> ModelArtifact:
    rf = RFParams.from_mapping(params, data.X.shape[1], "rf")
    return ModelArtifact(
        kind="rf",
        parameters={"trees": _fit_forest(data, rf, seed)},
        seed=seed,
        feature_names=data.feature_names,
        training_meta=asdict(rf),
    )


def _forest_proba(trees, X: np.ndarray) -> np.ndarray:
    """Mean leaf probability over the trees, summed in tree order."""
    if not trees:
        raise ValueError("a forest needs at least one tree")
    return sum((leaf for block in route_blocks(trees, X) for leaf in block), np.zeros(X.shape[0])) / len(trees)


def _predict_rf(artifact: ModelArtifact, X: np.ndarray) -> np.ndarray:
    return _forest_proba(artifact.parameters["trees"], X)


def _deepest_first(cap: int | None) -> float:
    return -math.inf if cap is None else -cap


def _score_forest_group(kind: str, data: LabeledDataset, cells, seeds, X: np.ndarray) -> list[np.ndarray]:
    """Each cell's scores on X, fitted under its group leader's seed, from one forest per depth cap.

    The leader is the first cell with the deepest cap (None is deepest),
    then the most trees. Caps are fitted deepest first, and tree b of a cap
    is tree b of the last deeper cap that grew one when that tree has no
    node at depth >= cap (module docstring); otherwise it is fitted from
    its substream. A cell scores the mean of its cap's first ``n_trees``
    trees; each cap's refitted trees are grown together and routed on X in
    one pass, so each distinct tree is predicted once. pca_rf fits its PCA
    once for the whole group.
    """
    if kind == "pca_rf":
        splits = [_pca_split(cell) for cell in cells]
        pca, data = _pca_inputs(data, splits[0][0])
        X = pca.transform(X)
        cells = [rest for _, rest in splits]
    y = data.require_training_labels()
    rfs = [RFParams.from_mapping(cell, data.X.shape[1], kind) for cell in cells]
    leader = min(range(len(cells)), key=lambda i: (_deepest_first(rfs[i].max_depth), -rfs[i].n_trees))
    latest: dict[int, Tree] = {}  # tree b of the shallowest cap fitted so far that grew one
    leaf_probs: dict[int, np.ndarray] = {}  # latest[b]'s leaf probabilities on X
    scores: list = [None] * len(cells)
    for cap in sorted({rf.max_depth for rf in rfs}, key=_deepest_first):
        members = [i for i, rf in enumerate(rfs) if rf.max_depth == cap]
        n_trees = max(rfs[i].n_trees for i in members)
        refit = [b for b in range(n_trees) if b not in latest or latest[b].depth >= cap]
        latest.update(zip(refit, _forest_trees(data.X, y, rfs[members[0]], seeds[leader], refit)))
        leaf_probs.update(zip(refit, route_trees([latest[b] for b in refit], X)))
        stages = [rfs[i].n_trees for i in members]
        sums = prefix_sums(np.zeros(X.shape[0]), [leaf_probs[b] for b in range(n_trees)], stages)
        for i, total, n in zip(members, sums, stages):
            scores[i] = total / n
    return scores


@dataclass(frozen=True)
class PcaTransform:
    """Standardize-then-rotate transform retaining k leading components."""

    means: np.ndarray
    scales: np.ndarray
    rotation: np.ndarray  # (d, d), columns = eigenvectors, eigenvalue desc
    eigenvalues: np.ndarray
    k: int

    def transform(self, X: np.ndarray, k: int | None = None) -> np.ndarray:
        k = self.k if k is None else k
        Z = (X - self.means) / self.scales
        return Z @ self.rotation[:, :k]


def fit_pca(X: np.ndarray, variance_retained: float = VARIANCE_RETAINED) -> PcaTransform:
    """Eigendecomposition of the standardized covariance matrix.

    k is the smallest component count whose eigenvalue mass reaches
    ``variance_retained``. Eigenvector signs are fixed so the largest
    absolute loading in each column is positive.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] < 2:
        raise ValueError("PCA needs at least two rows")
    Z, means, scales = _standardize(X, ddof=1)
    cov = (Z.T @ Z) / (X.shape[0] - 1)
    eigenvalues, vectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.clip(eigenvalues[order], 0.0, None)
    vectors = vectors[:, order]
    flip = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[flip, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors = vectors * signs

    total = eigenvalues.sum()
    if total <= 0.0:
        k = 1
    else:
        frac = np.cumsum(eigenvalues) / total
        k = int(np.searchsorted(frac, variance_retained - 1e-12) + 1)
        k = min(k, len(eigenvalues))
    return PcaTransform(means=means, scales=scales, rotation=vectors, eigenvalues=eigenvalues, k=k)


def _pca_inputs(data: LabeledDataset, variance_retained: float) -> tuple[PcaTransform, LabeledDataset]:
    """The PCA fitted to ``data``, and ``data`` rotated onto its components."""
    pca = fit_pca(data.X, variance_retained)
    component_names = tuple(f"pc{i + 1}" for i in range(pca.k))
    inner = LabeledDataset(X=pca.transform(data.X), y=data.y, feature_names=component_names, row_keys=data.row_keys)
    return pca, inner


def _pca_split(params: Mapping) -> tuple[float, dict]:
    """pca_rf's ``variance_retained``, and the rest of its params, which are the forest's."""
    rest = dict(params)
    return rest.pop("variance_retained", VARIANCE_RETAINED), rest


def fit_pca_rf(data: LabeledDataset, params: Mapping, seed: int) -> ModelArtifact:
    variance_retained, rest = _pca_split(params)
    pca, inner = _pca_inputs(data, variance_retained)
    rf = RFParams.from_mapping(rest, inner.X.shape[1], "pca_rf")
    return ModelArtifact(
        kind="pca_rf",
        parameters={"pca": asdict(pca), "trees": _fit_forest(inner, rf, seed)},
        seed=seed,
        feature_names=data.feature_names,
        training_meta={**asdict(rf), "variance_retained": variance_retained, "k": pca.k},
    )


def _predict_pca_rf(artifact: ModelArtifact, X: np.ndarray) -> np.ndarray:
    record = artifact.parameters["pca"]  # fit_pca_rf's asdict(pca); a reloaded model's arrays are lists
    arrays = {name: np.asarray(value, dtype=float) for name, value in record.items() if name != "k"}
    pca = PcaTransform(**arrays, k=int(record["k"]))
    return _forest_proba(artifact.parameters["trees"], pca.transform(X))


_STAGES = ("n_trees", "max_depth")
register_kind("rf", fit_random_forest, _predict_rf, {"trees": Tree}, (_STAGES, partial(_score_forest_group, "rf")), split_columns)
register_kind("pca_rf", fit_pca_rf, _predict_pca_rf, {"trees": Tree}, (_STAGES, partial(_score_forest_group, "pca_rf")))
