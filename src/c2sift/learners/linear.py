"""Logistic regression by damped Newton, and L1-penalized logistic regression
on the IRLS quadratic: full coordinate-descent sweeps, the KKT check (Tibshirani
et al. 2012), each followed by a direct solve of the active set.

Both models standardize features internally and store the means/scales in
the artifact, so prediction-time inputs are raw features. Coefficients are
kept on the standardized scale alongside their original-scale equivalents.

Perfect separation sends unpenalized logistic coefficients to infinity;
when a coefficient escapes a cap the fit restarts with a tiny L2 ridge
(1e-6) and the artifact is flagged.

The lasso path runs from lambda_max = max_j |x_j'(y - pbar)| / n (the
smallest penalty with every slope exactly zero) down a log-spaced grid,
warm-starting each fit from the previous solution, and a lasso model is
the fit at its path's last penalty. The grid is fixed once from all
training rows (``lasso_cells``); each of its prefixes is one CV cell, and
one path per fold scores them all, so cross-validation tunes the penalty
like any other staged parameter (Friedman, Hastie & Tibshirani 2010).
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from ..configio import read_settings
from .artifact import ModelArtifact, register_kind, sigmoid
from .data import LabeledDataset

_RIDGE_ON_SEPARATION = 1e-6
_BETA_CAP = 30.0
_MIN_WEIGHT = 1e-5


@dataclass(frozen=True)
class GLMParams:
    max_iter: int = 100
    tol: float = 1e-8


@dataclass(frozen=True)
class LassoParams:
    n_lambdas: int = 20
    lambda_min_ratio: float = 1e-3
    max_outer: int = 30
    tol: float = 1e-5


def _standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    means = X.mean(axis=0)
    scales = X.std(axis=0)
    # constant columns: float noise can leave a ~1e-15 std, scale those by 1
    scales = np.where(scales > 1e-12 * np.maximum(np.abs(means), 1.0), scales, 1.0)
    return (X - means) / scales, means, scales


def _newton_fit(
    Z: np.ndarray, y: np.ndarray, ridge: float, max_iter: int, tol: float
) -> tuple[np.ndarray, float, bool, bool]:
    """Damped Newton on the mean negative log-likelihood (+ ridge on slopes).

    Returns (beta, intercept, converged, hit_cap).
    """
    n, d = Z.shape
    beta = np.zeros(d)
    pbar = float(np.mean(y))
    intercept = float(np.log(pbar / (1.0 - pbar)))
    converged = False
    hit_cap = False

    def mean_nll(b, bet):
        eta = b + Z @ bet
        # log(1 + exp(eta)) - y*eta, computed stably
        return float(np.mean(np.logaddexp(0.0, eta) - y * eta) + 0.5 * ridge * np.sum(bet**2))

    loss = mean_nll(intercept, beta)
    for _ in range(max_iter):
        p = sigmoid(intercept + Z @ beta)
        grad_b = float(np.mean(p - y))
        grad = Z.T @ (p - y) / n + ridge * beta
        if max(abs(grad_b), float(np.max(np.abs(grad), initial=0.0))) < tol:
            converged = True
            break
        w = p * (1.0 - p)
        H = np.empty((d + 1, d + 1))
        H[0, 0] = np.mean(w)
        H[0, 1:] = (w @ Z) / n
        H[1:, 0] = H[0, 1:]
        H[1:, 1:] = (Z.T * w) @ Z / n + ridge * np.eye(d)
        full_grad = np.concatenate([[grad_b], grad])
        try:
            step = np.linalg.solve(H + 1e-12 * np.eye(d + 1), full_grad)
        except np.linalg.LinAlgError:
            hit_cap = True
            break
        scale = 1.0
        for _halving in range(30):
            new_b = intercept - scale * step[0]
            new_beta = beta - scale * step[1:]
            new_loss = mean_nll(new_b, new_beta)
            if new_loss <= loss + 1e-15:
                break
            scale *= 0.5
        intercept, beta, loss = new_b, new_beta, new_loss
        if ridge == 0.0 and float(np.max(np.abs(beta), initial=0.0)) > _BETA_CAP:
            # runaway coefficients on standardized features: separation
            hit_cap = True
            break
    return beta, intercept, converged, hit_cap


def _linear_parameters(beta, intercept, means, scales) -> dict:
    coef_original = beta / scales
    return {
        "means": means,
        "scales": scales,
        "coef": beta,
        "intercept": intercept,
        "coef_original": coef_original,
        "intercept_original": float(intercept - np.sum(coef_original * means)),
    }


def fit_glm(data: LabeledDataset, params: Mapping = MappingProxyType({}), seed: int = 0) -> ModelArtifact:
    gp = read_settings(GLMParams, params, "glm")
    y = data.require_training_labels().astype(float)
    Z, means, scales = _standardize(data.X)
    beta, intercept, converged, hit_cap = _newton_fit(Z, y, 0.0, gp.max_iter, gp.tol)
    separation = False
    if hit_cap:
        separation = True
        beta, intercept, converged, _ = _newton_fit(Z, y, _RIDGE_ON_SEPARATION, gp.max_iter, gp.tol)
    return ModelArtifact(
        kind="glm",
        parameters=_linear_parameters(beta, intercept, means, scales),
        seed=seed,
        feature_names=data.feature_names,
        training_meta={"converged": converged, "separation": separation, "tol": gp.tol},
    )


def _predict_linear(artifact: ModelArtifact, X: np.ndarray) -> np.ndarray:
    p = artifact.parameters
    Z = (X - np.asarray(p["means"], dtype=float)) / np.asarray(p["scales"], dtype=float)
    return sigmoid(float(p["intercept"]) + Z @ np.asarray(p["coef"], dtype=float))


def _restricted_step(Z_a, w, wresid, beta_a, lam: float) -> np.ndarray | None:
    """The step to the weighted quadratic's minimum over the intercept (first) and the
    active slopes ``beta_a``, signs held; None if the solve fails or a sign would change."""
    signs = np.sign(beta_a)
    Z1 = np.column_stack([np.ones(len(w)), Z_a])
    rhs = Z1.T @ wresid - len(w) * lam * np.concatenate([[0.0], signs])
    try:
        step = np.linalg.solve((Z1.T * w) @ Z1, rhs)
    except np.linalg.LinAlgError:
        return None
    keeps_signs = np.all(np.isfinite(step)) and np.array_equal(np.sign(beta_a + step[1:]), signs)
    return step if keeps_signs else None


def _cd_quadratic(
    Z: np.ndarray,
    Z_sq: np.ndarray,
    w: np.ndarray,
    wresid: np.ndarray,
    beta: np.ndarray,
    intercept: float,
    lam: float,
    tol: float,
) -> tuple[np.ndarray, float, bool]:
    """The weighted quadratic with L1 penalty, by sweeps and active-set solves.

    ``wresid`` tracks w * (working response - intercept - Z beta); keeping
    the weighted residual avoids a division, so the first sweep from zero
    sees exactly the same float gradients that defined lambda_max and
    slopes at lambda >= lambda_max stay exactly zero. A full sweep is the
    KKT check and the convergence test. Where ``_restricted_step`` refuses,
    up to 200 sweeps over the active set run instead. Returns (beta,
    intercept, converged): converged is False when none of the 50 full
    sweeps moved every coefficient by less than ``tol``.
    """
    n, d = Z.shape
    w_sum = float(w.sum())
    denom = (w @ Z_sq) / n
    wz = Z * w[:, None]

    def sweep(cols) -> float:
        nonlocal intercept, wresid
        delta_b = float(wresid.sum() / w_sum)
        intercept += delta_b
        if delta_b != 0.0:
            wresid -= w * delta_b
        max_delta = abs(delta_b)
        for j in cols:
            old = beta[j]
            rho = float(Z[:, j] @ wresid) / n + denom[j] * old
            if rho > lam:
                new = (rho - lam) / denom[j]
            elif rho < -lam:
                new = (rho + lam) / denom[j]
            else:
                new = 0.0
            if new != old:
                wresid += wz[:, j] * (old - new)
                beta[j] = new
                delta = abs(new - old)
                if delta > max_delta:
                    max_delta = delta
        return max_delta

    for _ in range(50):
        if sweep(range(d)) < tol:
            return beta, intercept, True
        active = np.flatnonzero(beta)
        if not len(active):
            continue
        step = _restricted_step(Z[:, active], w, wresid, beta[active], lam)
        if step is None:
            for _ in range(200):
                if sweep(active) < tol:
                    break
        else:
            beta[active] += step[1:]
            intercept += float(step[0])
            wresid -= w * (step[0] + Z[:, active] @ step[1:])
    return beta, intercept, False


def _lasso_path(
    X: np.ndarray, y: np.ndarray, lambdas: Sequence[float], params: LassoParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, bool]:
    """Warm-started fits along a penalty path on standardized features.

    The path stops early once the training deviance is essentially
    explained (ratio > 0.995) or a coefficient escapes the separation cap;
    later penalties inherit the stop-point solution. Chasing the exact
    solution on quasi-separated data is expensive and never CV-optimal.
    ``converged`` is False when a computed penalty used up ``max_outer``
    IRLS steps without meeting the outer tolerance, or a coordinate-descent
    solve used up its full sweeps without meeting ``tol``.

    Returns (betas (L, d), intercepts (L,), means, scales, n_computed, converged).
    """
    if not lambdas:
        raise ValueError("a lasso path needs at least one penalty")
    Z, means, scales = _standardize(X)
    Z_sq = Z * Z
    n, d = Z.shape
    pbar = float(np.mean(y))
    beta = np.zeros(d)
    intercept = float(np.log(pbar / (1.0 - pbar)))
    outer_tol = max(params.tol * 100.0, 1e-6)
    null_dev = -2.0 * n * (pbar * np.log(pbar) + (1.0 - pbar) * np.log(1.0 - pbar))
    betas = np.empty((len(lambdas), d))
    intercepts = np.empty(len(lambdas))
    computed = len(lambdas)
    converged = True
    for i, lam in enumerate(lambdas):
        capped = False
        for _ in range(params.max_outer):
            p = sigmoid(intercept + Z @ beta)
            w = np.clip(p * (1.0 - p), _MIN_WEIGHT, None)
            wresid = y - p  # w * working residual at the expansion point, exactly
            prev_beta = beta.copy()
            prev_intercept = intercept
            beta, intercept, solved = _cd_quadratic(Z, Z_sq, w, wresid, beta, intercept, lam, params.tol)
            converged = converged and solved
            change = max(
                float(np.max(np.abs(beta - prev_beta), initial=0.0)), abs(intercept - prev_intercept)
            )
            if float(np.max(np.abs(beta), initial=0.0)) > _BETA_CAP:
                capped = True
                break
            if change < outer_tol:
                break
        else:
            converged = False
        betas[i] = beta
        intercepts[i] = intercept
        eta = intercept + Z @ beta
        dev = 2.0 * float(np.sum(np.logaddexp(0.0, eta) - y * eta))
        saturated = null_dev > 0 and 1.0 - dev / null_dev > 0.995
        overfull = np.count_nonzero(beta) > 0.75 * min(n, d)
        if capped or saturated or overfull:
            computed = i + 1
            betas[i + 1 :] = beta
            intercepts[i + 1 :] = intercept
            break
    return betas, intercepts, means, scales, computed, converged


def lambda_max(X: np.ndarray, y: np.ndarray) -> float:
    """Smallest penalty at which every slope is exactly zero.

    This is max_j |z_j'(y - pbar)| / n on standardized features. It is
    computed through the same float expressions the first coordinate-
    descent sweep evaluates (including the intercept pre-update, which
    shifts the residual by ~1e-16), so the zero-slope threshold holds
    exactly in float arithmetic, not just mathematically.
    """
    Z, _, _ = _standardize(X)
    y = np.asarray(y, dtype=float)
    pbar = float(np.mean(y))
    intercept = float(np.log(pbar / (1.0 - pbar)))
    p = sigmoid(np.full(len(y), intercept))
    w = np.clip(p * (1.0 - p), _MIN_WEIGHT, None)
    wresid = y - p
    delta_b = float(wresid.sum() / float(w.sum()))
    if delta_b != 0.0:
        wresid -= w * delta_b
    n = len(y)
    return max(abs(float(Z[:, j] @ wresid)) / n for j in range(Z.shape[1]))


def lasso_cells(data: LabeledDataset, cell: Mapping) -> list[dict]:
    """The grid cells that one lasso cell stands for: each prefix of its penalty path.

    The path is fixed once from all of ``data``'s rows: ``lambda_max``,
    then ``n_lambdas`` log-spaced penalties down to ``lambda_min_ratio``
    times it. Cell s runs the first s + 1 penalties, so one path fit
    scores every cell. The cell's other settings ride along in each one.
    """
    lp = read_settings(LassoParams, cell, "lasso")
    lmax = lambda_max(data.X, data.require_training_labels().astype(float))
    path = [float(l) for l in np.geomspace(lmax, lmax * lp.lambda_min_ratio, lp.n_lambdas)]
    rest = {name: value for name, value in cell.items() if name not in ("n_lambdas", "lambda_min_ratio")}
    return [{**rest, "lambda_path": path[: s + 1]} for s in range(len(path))]


def _score_lambda_path(data: LabeledDataset, cells, seeds, X: np.ndarray) -> list[np.ndarray]:
    """Each cell's scores on X from one warm-started path down the longest cell's penalties.

    A path is deterministic, so its fit at a cell's last penalty is that
    cell's own fit, bit for bit, early stop included.
    """
    paths = [[float(l) for l in cell["lambda_path"]] for cell in cells]
    lp = read_settings(LassoParams, _without_path(cells[0]), "lasso")
    longest = max(paths, key=len)
    if any(path != longest[: len(path)] for path in paths):
        raise ValueError("lasso cells that share a fit must be prefixes of one penalty path")
    y = data.require_training_labels().astype(float)
    betas, intercepts, means, scales, _, _ = _lasso_path(data.X, y, longest, lp)
    Z = (X - means) / scales
    return [sigmoid(intercepts[len(path) - 1] + Z @ betas[len(path) - 1]) for path in paths]


def fit_lasso(
    data: LabeledDataset,
    lambda_path: Sequence[float],
    params: Mapping = MappingProxyType({}),
    seed: int = 0,
) -> ModelArtifact:
    """The lasso at the last penalty of ``lambda_path``, fitted down the path with warm starts."""
    lp = read_settings(LassoParams, params, "lasso")
    y = data.require_training_labels().astype(float)
    lambdas = [float(l) for l in lambda_path]
    betas, intercepts, means, scales, computed, converged = _lasso_path(data.X, y, lambdas, lp)
    beta = betas[-1]
    excluded = [name for name, b in zip(data.feature_names, beta) if b == 0.0]
    return ModelArtifact(
        kind="lasso",
        parameters=_linear_parameters(beta, float(intercepts[-1]), means, scales),
        seed=seed,
        feature_names=data.feature_names,
        training_meta={
            "lambda": lambdas[-1],
            "lambda_path": lambdas,
            "path_computed": computed,
            "converged": converged,
            "n_active": int(np.count_nonzero(beta)),
            "excluded_features": excluded,
        },
    )


def _without_path(cell: Mapping) -> dict:
    return {name: value for name, value in cell.items() if name != "lambda_path"}


def _fit_lasso_registry(data: LabeledDataset, params: Mapping, seed: int) -> ModelArtifact:
    return fit_lasso(data, lambda_path=params["lambda_path"], params=_without_path(params), seed=seed)


register_kind("glm", fit_glm, _predict_linear)
register_kind("lasso", _fit_lasso_registry, _predict_linear, staged=(("lambda_path",), _score_lambda_path))
