"""The lasso's coordinate descent by sweeps alone: the reference for
``linear._cd_quadratic``, which solves the active set directly.

Tests swap this function in for ``linear._cd_quadratic`` to run a whole
penalty path through it.
"""
from __future__ import annotations

import numpy as np


def cd_quadratic(
    Z: np.ndarray,
    Z_sq: np.ndarray,
    w: np.ndarray,
    wresid: np.ndarray,
    beta: np.ndarray,
    intercept: float,
    lam: float,
    tol: float,
) -> tuple[np.ndarray, float, bool]:
    """Cyclic coordinate descent on the weighted quadratic with L1 penalty.

    ``wresid`` tracks w * (working response - intercept - Z beta). Full
    sweeps alternate with up to 200 sweeps over the active set. Returns
    (beta, intercept, converged): converged is False when none of the 50
    full sweeps moved every coefficient by less than ``tol``.
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
        if len(active):
            for _ in range(200):
                if sweep(active) < tol:
                    break
    return beta, intercept, False
