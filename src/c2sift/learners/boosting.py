"""Stagewise additive boosting on the log-odds scale.

``gbm`` is first-order boosting: the model starts at the base-rate
log-odds F0 = log(pbar/(1-pbar)); each round fits a squared-error
regression tree to the negative gradient of the logistic loss (the
residuals y - sigmoid(F)) and updates F += eta * tree(x). Training
log-odds come from the fit's own leaves: each fit writes every training
row's leaf value (``fitted``), bit for bit what routing the row gives.

``gbm2`` is second-order regularized boosting: trees are grown on
per-row gradients g = sigmoid(F) - y and hessians h = sigmoid(F) *
(1 - sigmoid(F)); a leaf's value is -sum(g)/(sum(h) + lam) and a split is
kept only when

    gain = 0.5 * [G_L^2/(H_L+lam) + G_R^2/(H_R+lam) - G^2/(H+lam)] - gamma

is positive.

Boosting draws no random numbers, so the first n rounds of a longer fit
are exactly the n-round fit: one running sum over a fit's rounds
(``prefix_sums``) scores every round count up to its own (staged
prediction). Depth caps nest too: given the same F, a tree whose deepest
node is at depth at most c is exactly the tree a fit capped at c grows,
since every node the cap turns into a leaf was a leaf already. So a fit
capped at c shares every round of a deeper fit before that fit's first
tree with depth > c. (Forests cut at >= c: an uncapped forest node at
depth c draws columns from its rng before it becomes a leaf; a boosted
tree draws nothing.) Cross-validation uses both facts to score a grid's
``n_rounds`` and ``max_depth`` cells from one fit per learning rate and
fold (``_score_boosted_group``); a saved model sums all of its rounds,
routing a whole block of rounds per pass (``tree.route_trees``).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping

import numpy as np

from ..configio import read_settings
from .artifact import ModelArtifact, log_loss, register_kind, sigmoid
from .data import LabeledDataset
from .tree import (
    Presort,
    Tree,
    TreeParams,
    fit_tree,
    fit_tree_second_order,
    prefix_sums,
    presort,
    route_blocks,
    route_trees,
    split_columns,
    tree_predict,  # noqa: F401  tracer-only: perfbench/tracing.py wraps boosting.tree_predict by name
)


@dataclass(frozen=True)
class GBMParams:
    n_rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    min_leaf: int = 1
    lam: float = 1.0
    gamma: float = 0.0


def _base_log_odds(y: np.ndarray) -> float:
    pbar = float(np.mean(y))
    return float(np.log(pbar / (1.0 - pbar)))


def _boost(
    sorted_X: Presort, y: np.ndarray, F: np.ndarray, trees: list[Tree], params: GBMParams, second_order: bool,
    loss_path: list[float] | None = None,
) -> None:
    """Append rounds to ``trees`` until it holds ``params.n_rounds``; F is the training log-odds after ``trees``."""
    tree_params = TreeParams(max_depth=params.max_depth, min_leaf=params.min_leaf)
    fitted = np.empty(len(y))  # each round's leaf value at every training row, written by the fit
    while len(trees) < params.n_rounds:
        p = sigmoid(F)
        if second_order:
            tree = fit_tree_second_order(sorted_X, p - y, p * (1.0 - p), tree_params, params.lam, params.gamma, fitted)
        else:
            tree = fit_tree(sorted_X, y - p, tree_params, fitted=fitted)
        F = F + params.learning_rate * fitted
        trees.append(tree)
        if loss_path is not None:
            loss_path.append(log_loss(y, sigmoid(F)))


def _fit_boosted(data: LabeledDataset, params: Mapping, seed: int, second_order: bool) -> ModelArtifact:
    kind = "gbm2" if second_order else "gbm"
    gp = read_settings(GBMParams, params, kind)
    y = data.require_training_labels().astype(float)
    f0 = _base_log_odds(y)
    F = np.full(data.n_rows, f0)
    trees: list[Tree] = []
    loss_path = [log_loss(y, sigmoid(F))]
    # every round searches the same rows; only the targets change
    _boost(presort(data.X), y, F, trees, gp, second_order, loss_path)
    return ModelArtifact(
        kind=kind,
        parameters={"f0": f0, "learning_rate": gp.learning_rate, "trees": trees},
        seed=seed,
        feature_names=data.feature_names,
        training_meta={
            "n_rounds": gp.n_rounds,
            "learning_rate": gp.learning_rate,
            "max_depth": gp.max_depth,
            "min_leaf": gp.min_leaf,
            **({"lam": gp.lam, "gamma": gp.gamma} if second_order else {}),
            "loss_path": loss_path,
        },
    )


def fit_gbm(data: LabeledDataset, params: Mapping, seed: int = 0) -> ModelArtifact:
    return _fit_boosted(data, params, seed, second_order=False)


def fit_gbm2(data: LabeledDataset, params: Mapping, seed: int = 0) -> ModelArtifact:
    return _fit_boosted(data, params, seed, second_order=True)


def _predict_boosted(artifact: ModelArtifact, X: np.ndarray) -> np.ndarray:
    """The sigmoid of f0 plus every round's step, added in round order."""
    eta = float(artifact.parameters["learning_rate"])
    F0 = np.full(X.shape[0], float(artifact.parameters["f0"]))
    leaves = (leaf for block in route_blocks(artifact.parameters["trees"], X) for leaf in block)
    return sigmoid(sum((eta * leaf for leaf in leaves), F0))


def _score_boosted_group(kind: str, data: LabeledDataset, cells, seeds, X: np.ndarray) -> list[np.ndarray]:
    """Each cell's scores on X, from one boosted fit per depth cap that shares a deeper cap's rounds.

    Caps are fitted deepest first. A cap takes the rounds of the last
    deeper cap's fit up to its first tree deeper than the cap (module
    docstring), rebuilds F over them with the fit's own steps, and boosts
    on from there. Each cap's new rounds are routed on X in one pass, and
    each step is kept beside its round; a cell sums its cap's first
    ``n_rounds`` steps. Boosting draws no random numbers, so the seeds
    go unused.
    """
    second_order = kind == "gbm2"
    y = data.require_training_labels().astype(float)
    sorted_X = presort(data.X)
    f0 = _base_log_odds(y)
    gps = [read_settings(GBMParams, cell, kind) for cell in cells]
    trees: list[Tree] = []  # the rounds of the shallowest cap fitted so far
    steps: list[np.ndarray] = []  # learning_rate * trees[t]'s leaf values on X
    scores: list = [None] * len(cells)
    for cap in sorted({gp.max_depth for gp in gps}, reverse=True):
        members = [i for i, gp in enumerate(gps) if gp.max_depth == cap]
        params = replace(gps[members[0]], n_rounds=max(gps[i].n_rounds for i in members))
        shared = next((t for t, tree in enumerate(trees) if tree.depth > cap), len(trees))
        del trees[shared:], steps[shared:]
        if len(trees) < params.n_rounds:
            F = sum(params.learning_rate * route_trees(trees, sorted_X.X), np.full(data.n_rows, f0))
            _boost(sorted_X, y, F, trees, params, second_order)
            steps += list(params.learning_rate * route_trees(trees[shared:], X))
        F0 = np.full(X.shape[0], f0)
        for i, F in zip(members, prefix_sums(F0, steps, [gps[i].n_rounds for i in members])):
            scores[i] = sigmoid(F)
    return scores


_STAGES = ("n_rounds", "max_depth")
register_kind("gbm", fit_gbm, _predict_boosted, {"trees": Tree}, (_STAGES, partial(_score_boosted_group, "gbm")), split_columns)
register_kind("gbm2", fit_gbm2, _predict_boosted, {"trees": Tree}, (_STAGES, partial(_score_boosted_group, "gbm2")), split_columns)
