"""One row at a time: the references for ``c2sift.evaluate``'s block kernels.

``auc`` here sorts one score vector and ranks it with the 1-D
``midranks``; ``bootstrap_metrics`` draws and scores one resample per
substream; ``permutation_importance`` predicts every column and every
repeat separately. These are the loops that the block AUC, the shared
resample draw and the read-column skip replaced, and tests require the
same bits from both.
"""
from __future__ import annotations

import numpy as np

from c2sift.evaluate import sensitivity
from c2sift.learners import predict_proba
from c2sift.rng import NS_BOOTSTRAP, NS_IMPORTANCE, substream


def midranks(sorted_scores: np.ndarray) -> np.ndarray:
    """1-based ranks of sorted scores, each tie group at its mean rank."""
    # tie groups are runs of equal scores, from position first to last
    first = np.flatnonzero(np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1])))
    last = np.append(first[1:], len(sorted_scores)) - 1
    return np.repeat((first + last + 2) / 2.0, last - first + 1)


def auc(scores, labels) -> float:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative")
    order = np.argsort(scores, kind="stable")
    ranks = midranks(scores[order])
    rank_sum_pos = float(ranks[labels[order] == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def bootstrap_metrics(scores, labels, B: int, seed: int, threshold: float = 0.5):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos_idx = np.flatnonzero(labels == 1)
    neg_idx = np.flatnonzero(labels == 0)
    aucs, sens = np.empty(B), np.empty(B)
    for b in range(B):
        rng = substream(seed, NS_BOOTSTRAP, b)
        idx = np.concatenate(
            [
                pos_idx[rng.integers(0, len(pos_idx), size=len(pos_idx))],
                neg_idx[rng.integers(0, len(neg_idx), size=len(neg_idx))],
            ]
        )
        aucs[b] = auc(scores[idx], labels[idx])
        sens[b] = sensitivity(scores[idx], labels[idx], threshold)
    return aucs, sens


def permutation_importance(model, data, repeats: int, seed: int) -> np.ndarray:
    """Raw importances, in ``data.feature_names`` order."""
    y = data.require_training_labels()
    baseline = auc(predict_proba(model, data.X, data.feature_names), y)
    raw = np.zeros(data.X.shape[1])
    X_model = data.X[:, [data.feature_names.index(n) for n in model.feature_names]]
    for j, name in enumerate(model.feature_names):
        drops = []
        for r in range(repeats):
            rng = substream(seed, NS_IMPORTANCE, j, r)
            Xp = X_model.copy()
            Xp[:, j] = Xp[rng.permutation(len(y)), j]
            drops.append(baseline - auc(predict_proba(model, Xp, model.feature_names), y))
        raw[data.feature_names.index(name)] = float(np.mean(drops))
    return raw
