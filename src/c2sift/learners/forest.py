"""Random forest and PCA-rotated random forest.

Forest probability is the mean of per-tree leaf probabilities over B
bootstrap-sampled gini trees with per-split feature subsampling. Each tree
draws from its own substream (stream id = tree index), so fits are
reproducible and trees could be built in parallel without changing the
result.

Because tree b depends only on the seed and b, under one seed a B-tree
forest is the first B trees of any larger one (Breiman 2001), and one
staged pass over a forest's trees scores every prefix of it. A depth cap
c changes tree b only if the uncapped fit grew a node at depth >= c: a
tree whose every node lies above depth c drew all its columns above the
cap, so the capped fit of the same substream is the same tree. Cross-
validation uses both facts to score a grid's ``n_trees`` and
``max_depth`` cells from one forest per fold (``_score_forest_group``).

The PCA front end centers and unit-scales columns (constant columns are
scaled by 1), rotates onto the eigenvectors of the correlation-scale
covariance matrix in decreasing eigenvalue order, and keeps the smallest
number of components reaching the requested variance fraction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..rng import NS_FOREST, substream
from .artifact import ModelArtifact, register_kind
from .data import LabeledDataset
from .tree import Tree, TreeParams, fit_tree, tree_predict


@dataclass(frozen=True)
class RFParams:
    n_trees: int = 300
    mtry: int | None = None  # from_mapping resolves None and "sqrt" to round(sqrt(d))
    max_depth: int | None = None
    min_leaf: int = 1
    bootstrap: bool = True

    @classmethod
    def from_mapping(cls, params: Mapping, d: int) -> "RFParams":
        mtry = params.get("mtry")
        if mtry is None or mtry == "sqrt":
            mtry = max(1, round(d**0.5))
        elif mtry == "third":
            mtry = max(1, d // 3)
        return cls(
            n_trees=int(params.get("n_trees", 300)),
            mtry=mtry,
            max_depth=params.get("max_depth"),
            min_leaf=int(params.get("min_leaf", 1)),
            bootstrap=bool(params.get("bootstrap", True)),
        )


def _forest_tree(X: np.ndarray, y: np.ndarray, rf: RFParams, seed: int, b: int) -> Tree:
    """Tree b of a forest: its bootstrap rows and column draws come from substream (NS_FOREST, b)."""
    rng = substream(seed, NS_FOREST, b)
    n = len(y)
    idx = rng.integers(0, n, size=n) if rf.bootstrap else np.arange(n)
    tree_params = TreeParams(max_depth=rf.max_depth, min_leaf=rf.min_leaf, mtry=rf.mtry)
    return fit_tree(X[idx], y[idx], tree_params, rng, criterion="gini")


def fit_random_forest(data: LabeledDataset, params: Mapping, seed: int) -> ModelArtifact:
    y = data.require_training_labels()
    rf = RFParams.from_mapping(params, data.X.shape[1])
    trees = [_forest_tree(data.X, y, rf, seed, b) for b in range(rf.n_trees)]
    return ModelArtifact(
        kind="rf",
        parameters={"trees": trees},
        seed=seed,
        feature_names=data.feature_names,
        training_meta={
            "n_trees": rf.n_trees,
            "mtry": rf.mtry,
            "max_depth": rf.max_depth,
            "min_leaf": rf.min_leaf,
            "bootstrap": rf.bootstrap,
        },
    )


def _forest_proba(trees, X: np.ndarray, stages: Sequence[int]) -> list[np.ndarray]:
    """Mean leaf probability over the first s trees for each s in ``stages``, from one pass in tree order."""
    if not all(0 < s <= len(trees) for s in stages):
        raise ValueError(f"stages {list(stages)} outside 1..{len(trees)} trees")
    return _prefix_means((tree_predict(tree, X) for tree in trees[: max(stages)]), X.shape[0], stages)


def _prefix_means(leaf_probs: Iterable[np.ndarray], n_rows: int, stages: Sequence[int]) -> list[np.ndarray]:
    """Mean of the first s of ``leaf_probs`` for each s in ``stages``, summed in order."""
    total = np.zeros(n_rows)
    snapshots = {}
    for t, p in enumerate(leaf_probs, start=1):
        total += p
        if t in stages:
            snapshots[t] = total / t
    return [snapshots[s] for s in stages]


def _predict_rf(artifact: ModelArtifact, X: np.ndarray) -> np.ndarray:
    trees = artifact.parameters["trees"]
    return _forest_proba(trees, X, [len(trees)])[0]


def _deepest_first(cap: int | None) -> float:
    return -math.inf if cap is None else -cap


def _score_forest_group(kind: str, data: LabeledDataset, cells, seeds, X: np.ndarray, feature_names) -> list[np.ndarray]:
    """Each cell's scores on X, fitted under its group leader's seed, from one forest per depth cap.

    The leader is the first cell with the deepest cap (None is deepest),
    then the most trees. Caps are fitted deepest first, and tree b of a cap
    is tree b of the last deeper cap that grew one when that tree has no
    node at depth >= cap (module docstring); otherwise it is fitted from
    its substream. A cell scores the mean of its cap's first ``n_trees``
    trees; each distinct tree is predicted once. pca_rf fits its PCA once
    for the whole group.
    """
    if kind == "pca_rf":
        pca, data = _pca_inputs(data, float(cells[0].get("variance_retained", 0.95)))
        X = pca.transform(X)
    y = data.require_training_labels()
    rfs = [RFParams.from_mapping(cell, data.X.shape[1]) for cell in cells]
    leader = min(range(len(cells)), key=lambda i: (_deepest_first(rfs[i].max_depth), -rfs[i].n_trees))
    latest: dict[int, Tree] = {}  # tree b of the shallowest cap fitted so far that grew one
    leaf_probs: dict[int, np.ndarray] = {}  # tree_predict(latest[b], X)
    scores: list = [None] * len(cells)
    for cap in sorted({rf.max_depth for rf in rfs}, key=_deepest_first):
        members = [i for i, rf in enumerate(rfs) if rf.max_depth == cap]
        n_trees = max(rfs[i].n_trees for i in members)
        for b in range(n_trees):
            if b not in latest or latest[b].depth >= cap:
                latest[b] = _forest_tree(data.X, y, rfs[members[0]], seeds[leader], b)
                leaf_probs[b] = tree_predict(latest[b], X)
        stages = [rfs[i].n_trees for i in members]
        for i, p in zip(members, _prefix_means((leaf_probs[b] for b in range(n_trees)), X.shape[0], stages)):
            scores[i] = p
    return scores


def _revive_rf(parameters: dict) -> dict:
    return {"trees": [Tree.from_jsonable(t) for t in parameters["trees"]]}


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


def fit_pca(X: np.ndarray, variance_retained: float = 0.95) -> PcaTransform:
    """Eigendecomposition of the standardized covariance matrix.

    k is the smallest component count whose eigenvalue mass reaches
    ``variance_retained``. Eigenvector signs are fixed so the largest
    absolute loading in each column is positive.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] < 2:
        raise ValueError("PCA needs at least two rows")
    means = X.mean(axis=0)
    scales = X.std(axis=0, ddof=1)
    # constant columns: float noise can leave a ~1e-15 std, scale those by 1
    scales = np.where(scales > 1e-12 * np.maximum(np.abs(means), 1.0), scales, 1.0)
    Z = (X - means) / scales
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


def fit_pca_rf(data: LabeledDataset, params: Mapping, seed: int) -> ModelArtifact:
    variance_retained = float(params.get("variance_retained", 0.95))
    pca, inner = _pca_inputs(data, variance_retained)
    forest = fit_random_forest(inner, params, seed)
    return ModelArtifact(
        kind="pca_rf",
        parameters={
            "pca": {
                "means": pca.means,
                "scales": pca.scales,
                "rotation": pca.rotation,
                "eigenvalues": pca.eigenvalues,
                "k": pca.k,
            },
            "trees": forest.parameters["trees"],
        },
        seed=seed,
        feature_names=data.feature_names,
        training_meta={**forest.training_meta, "variance_retained": variance_retained, "k": pca.k},
    )


def _predict_pca_rf(artifact: ModelArtifact, X: np.ndarray) -> np.ndarray:
    p = artifact.parameters["pca"]
    pca = PcaTransform(
        means=np.asarray(p["means"], dtype=float),
        scales=np.asarray(p["scales"], dtype=float),
        rotation=np.asarray(p["rotation"], dtype=float),
        eigenvalues=np.asarray(p["eigenvalues"], dtype=float),
        k=int(p["k"]),
    )
    trees = artifact.parameters["trees"]
    return _forest_proba(trees, pca.transform(X), [len(trees)])[0]


def _revive_pca_rf(parameters: dict) -> dict:
    return {
        "pca": parameters["pca"],
        "trees": [Tree.from_jsonable(t) for t in parameters["trees"]],
    }


_STAGES = ("n_trees", "max_depth")
register_kind("rf", fit_random_forest, _predict_rf, _revive_rf, (_STAGES, partial(_score_forest_group, "rf")))
register_kind("pca_rf", fit_pca_rf, _predict_pca_rf, _revive_pca_rf, (_STAGES, partial(_score_forest_group, "pca_rf")))
