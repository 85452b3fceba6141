"""Random forest and PCA-rotated random forest.

Forest probability is the mean of per-tree leaf probabilities over B
bootstrap-sampled gini trees with per-split feature subsampling. Each tree
draws from its own substream (stream id = tree index), so fits are
reproducible and trees could be built in parallel without changing the
result.

The PCA front end centers and unit-scales columns (constant columns are
scaled by 1), rotates onto the eigenvectors of the correlation-scale
covariance matrix in decreasing eigenvalue order, and keeps the smallest
number of components reaching the requested variance fraction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..rng import NS_FOREST, substream
from .artifact import ModelArtifact, register_kind
from .data import LabeledDataset
from .tree import Tree, TreeParams, fit_tree, tree_predict


@dataclass(frozen=True)
class RFParams:
    n_trees: int = 300
    mtry: int | None = None  # None resolves to round(sqrt(d))
    max_depth: int | None = None
    min_leaf: int = 1
    bootstrap: bool = True

    @classmethod
    def from_mapping(cls, params: Mapping, d: int) -> "RFParams":
        mtry = params.get("mtry")
        if mtry == "sqrt":
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


def fit_random_forest(data: LabeledDataset, params: Mapping | RFParams, seed: int) -> ModelArtifact:
    y = data.require_training_labels()
    d = data.X.shape[1]
    rf = params if isinstance(params, RFParams) else RFParams.from_mapping(params, d)
    mtry = rf.mtry if rf.mtry is not None else max(1, round(d**0.5))
    tree_params = TreeParams(max_depth=rf.max_depth, min_leaf=rf.min_leaf, mtry=mtry)
    n = data.n_rows
    trees = []
    for b in range(rf.n_trees):
        rng = substream(seed, NS_FOREST, b)
        if rf.bootstrap:
            idx = rng.integers(0, n, size=n)
        else:
            idx = np.arange(n)
        trees.append(fit_tree(data.X[idx], y[idx], tree_params, rng, criterion="gini"))
    return ModelArtifact(
        kind="rf",
        parameters={"trees": trees},
        seed=seed,
        feature_names=data.feature_names,
        training_meta={
            "n_trees": rf.n_trees,
            "mtry": mtry,
            "max_depth": rf.max_depth,
            "min_leaf": rf.min_leaf,
            "bootstrap": rf.bootstrap,
        },
    )


def _forest_proba(trees, X: np.ndarray) -> np.ndarray:
    total = np.zeros(X.shape[0])
    for tree in trees:
        total += tree_predict(tree, X)
    return total / len(trees)


def _predict_rf(artifact: ModelArtifact, X: np.ndarray) -> np.ndarray:
    return _forest_proba(artifact.parameters["trees"], X)


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


def fit_pca_rf(data: LabeledDataset, params: Mapping, seed: int) -> ModelArtifact:
    variance_retained = float(params.get("variance_retained", 0.95))
    pca = fit_pca(data.X, variance_retained)
    transformed = pca.transform(data.X)
    component_names = tuple(f"pc{i + 1}" for i in range(pca.k))
    inner = LabeledDataset(
        X=transformed, y=data.y, feature_names=component_names, row_keys=data.row_keys
    )
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
    return _forest_proba(artifact.parameters["trees"], pca.transform(X))


def _revive_pca_rf(parameters: dict) -> dict:
    return {
        "pca": parameters["pca"],
        "trees": [Tree.from_jsonable(t) for t in parameters["trees"]],
    }


register_kind("rf", fit_random_forest, _predict_rf, _revive_rf)
register_kind("pca_rf", fit_pca_rf, _predict_pca_rf, _revive_pca_rf)
