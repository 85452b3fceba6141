import numpy as np
import pytest

import lasso_oracle
from c2sift.cli import run_featurize, run_generate
from c2sift.learners import (
    LabeledDataset,
    fit_glm,
    fit_lasso,
    lambda_max,
    linear,
    load_feature_matrix,
    load_model,
    predict_proba,
    save_model,
    sigmoid,
)
from c2sift.evaluate import auc, cv_tasks, cv_tune, stratified_folds
from c2sift.learners.grids import HyperGrid
from c2sift.learners.linear import LassoParams, _lasso_path, _restricted_step, _standardize, lasso_cells
from c2sift.rng import NS_FOLDS, substream
from c2sift.tasks import TaskPool

from conftest import make_dataset


def logistic_data(n, betas, seed=0, noise_cols=0):
    rng = np.random.default_rng(seed)
    d = len(betas) + noise_cols
    X = rng.normal(size=(n, d))
    logits = X[:, : len(betas)] @ np.asarray(betas)
    y = (rng.random(n) < sigmoid(logits)).astype(int)
    names = tuple(f"f{i}" for i in range(d))
    return LabeledDataset(X, y, names, tuple((f"h{i}", "2022-01-10") for i in range(n)))


class TestGlm:
    def test_null_model(self):
        rng = np.random.default_rng(1)
        data = make_dataset(n=2000, d=4, seed=1)
        shuffled = LabeledDataset(
            data.X, rng.permutation(data.y), data.feature_names, data.row_keys
        )
        model = fit_glm(shuffled)
        coef = np.asarray(model.parameters["coef_original"])
        pbar = shuffled.y.mean()
        assert np.max(np.abs(coef)) < 0.12
        assert model.parameters["intercept"] == pytest.approx(np.log(pbar / (1 - pbar)), abs=0.12)

    def test_planted_coefficient_recovery(self):
        data = logistic_data(10_000, [1.0, -2.0], seed=2)
        model = fit_glm(data)
        coef = np.asarray(model.parameters["coef_original"])
        assert abs(coef[0] - 1.0) <= 0.1
        assert abs(coef[1] + 2.0) <= 0.1
        assert model.training_meta["converged"]

    def test_gradient_at_optimum_below_tol(self):
        data = logistic_data(500, [0.8, -0.5], seed=3)
        model = fit_glm(data, {"tol": 1e-8})
        Z, _, _ = _standardize(data.X)
        p = sigmoid(model.parameters["intercept"] + Z @ np.asarray(model.parameters["coef"]))
        grad = np.concatenate([[np.mean(p - data.y)], Z.T @ (p - data.y) / len(data.y)])
        assert np.max(np.abs(grad)) < 1e-8

    def test_finite_difference_gradient(self):
        rng = np.random.default_rng(4)
        data = logistic_data(200, [1.0, -1.0], seed=4)
        Z, _, _ = _standardize(data.X)
        y = data.y.astype(float)

        def mean_nll(b, beta):
            eta = b + Z @ beta
            return float(np.mean(np.logaddexp(0.0, eta) - y * eta))

        for _ in range(10):
            b = float(rng.normal())
            beta = rng.normal(size=2)
            p = sigmoid(b + Z @ beta)
            analytic = Z.T @ (p - y) / len(y)
            eps = 1e-6
            for j in range(2):
                step = np.zeros(2)
                step[j] = eps
                fd = (mean_nll(b, beta + step) - mean_nll(b, beta - step)) / (2 * eps)
                assert fd == pytest.approx(analytic[j], rel=1e-5, abs=1e-9)

    def test_separation_flagged_and_finite(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(100, 2))
        y = (X[:, 0] > 0).astype(int)
        data = LabeledDataset(X, y, ("a", "b"), tuple((f"h{i}", "2022-01-10") for i in range(100)))
        model = fit_glm(data)
        assert model.training_meta["separation"] is True
        assert np.all(np.isfinite(np.asarray(model.parameters["coef"])))

    def test_round_trip_bitwise(self, tmp_path):
        data = logistic_data(300, [1.0, -1.0, 0.3], seed=6)
        model = fit_glm(data)
        probe = np.random.default_rng(6).normal(size=(40, 3))
        before = predict_proba(model, probe, data.feature_names)
        save_model(model, tmp_path / "glm.json")
        assert np.array_equal(before, predict_proba(load_model(tmp_path / "glm.json"), probe, data.feature_names))


class TestLasso:
    def test_all_zero_at_lambda_max(self):
        data = logistic_data(400, [1.5, -1.0], seed=7, noise_cols=6)
        lmax = lambda_max(data.X, data.y.astype(float))
        for lam in (lmax, lmax * 1.3, lmax * 10):
            model = fit_lasso(data, lambda_path=[lam])
            assert np.all(np.asarray(model.parameters["coef"]) == 0.0)
            assert model.training_meta["n_active"] == 0

    def test_just_below_lambda_max_activates(self):
        data = logistic_data(400, [1.5, -1.0], seed=7, noise_cols=6)
        lmax = lambda_max(data.X, data.y.astype(float))
        model = fit_lasso(data, lambda_path=[lmax * 0.9])
        assert model.training_meta["n_active"] >= 1

    def test_unpenalized_matches_glm(self):
        data = logistic_data(800, [1.0, -2.0], seed=8)
        glm = fit_glm(data)
        lasso = fit_lasso(data, lambda_path=[0.0])
        diff = np.max(np.abs(np.asarray(lasso.parameters["coef"]) - np.asarray(glm.parameters["coef"])))
        assert diff < 1e-4

    def test_informative_feature_recovery(self):
        # informative coefficients sit well above the noise floor, so they
        # enter the path early; the 20-step path spans the decade below
        # lambda_max where that separation lives
        betas = [1.5, -1.5, 1.2, -1.2, 1.0, -1.0, 0.9, -0.9, 0.8, -0.8]
        data = logistic_data(2000, betas, seed=9, noise_cols=40)
        lmax = lambda_max(data.X, data.y.astype(float))
        path = [float(l) for l in np.geomspace(lmax, lmax * 0.1, 20)]
        grid = HyperGrid(lasso=tuple({"lambda_path": path[: s + 1]} for s in range(20)))
        best = cv_tune(data, "lasso", grid, k=10, seed=9).best_params
        model = fit_lasso(data, lambda_path=best["lambda_path"], seed=9)
        coef = np.asarray(model.parameters["coef"])
        informative_kept = int(np.count_nonzero(coef[:10]))
        noise_kept = int(np.count_nonzero(coef[10:]))
        assert informative_kept >= 8
        assert noise_kept <= 5

    def test_warm_path_close_to_cold_fits(self):
        data = logistic_data(300, [1.0, -1.0], seed=10, noise_cols=4)
        lmax = lambda_max(data.X, data.y.astype(float))
        lambdas = [lmax * 0.5, lmax * 0.2, lmax * 0.05]
        params = LassoParams()
        warm, warm_b, _, _, _, _ = _lasso_path(data.X, data.y.astype(float), lambdas, params)
        for i, lam in enumerate(lambdas):
            cold, cold_b, _, _, _, _ = _lasso_path(data.X, data.y.astype(float), [lam], params)
            assert np.max(np.abs(warm[i] - cold[0])) < 1e-3

    def test_excluded_features_reported(self):
        data = logistic_data(500, [2.0], seed=11, noise_cols=3)
        model = fit_lasso(data, lambda_path=lasso_cells(data, {})[-1]["lambda_path"], seed=11)
        excluded = set(model.training_meta["excluded_features"])
        active = {n for n, b in zip(data.feature_names, model.parameters["coef"]) if b != 0.0}
        assert excluded.isdisjoint(active)
        assert excluded | active == set(data.feature_names)

    def test_cv_table_recorded(self):
        data = logistic_data(400, [1.0, -1.0], seed=12, noise_cols=2)
        result = cv_tune(data, "lasso", HyperGrid(lasso=tuple(lasso_cells(data, {}))), k=10, seed=12)
        assert len(result.table) == 20
        assert all(len(row["fold_aucs"]) == 10 for row in result.table)
        model = fit_lasso(data, lambda_path=result.best_params["lambda_path"], seed=12)
        assert model.training_meta["lambda"] in [row["params"]["lambda_path"][-1] for row in result.table]

    def test_converged_flag(self):
        data = logistic_data(300, [1.0, -1.0], seed=15, noise_cols=3)
        path = lasso_cells(data, {"n_lambdas": 5})[-1]["lambda_path"]
        assert fit_lasso(data, lambda_path=path).training_meta["converged"] is True
        # one IRLS step cannot meet the outer tolerance once slopes move
        assert fit_lasso(data, lambda_path=path, params={"max_outer": 1}).training_meta["converged"] is False
        # no coordinate-descent sweep moves every coefficient by less than tol=0, so each
        # solve uses up its full sweeps; above lambda_max only the intercept moves, and the
        # IRLS steps still meet the outer tolerance
        above = [2.0 * lambda_max(data.X, data.y.astype(float))]
        assert fit_lasso(data, lambda_path=above, params={"tol": 0.0}).training_meta["converged"] is False


@pytest.fixture(scope="module")
def cli_features(tmp_path_factory):
    """tests/test_cli.py's training matrix: 40 host-days x 97 features, 8 positives,
    quasi-separated, where sweeps alone creep."""
    out = tmp_path_factory.mktemp("cli_features")
    run_generate(out / "data", seed=3, c2_hosts=8, benign_hosts=32)
    day = out / "data"
    run_featurize(day / "flows.csv", day / "internal_space.txt", out / "features", labels=day / "labels.csv")
    data = load_feature_matrix(out / "features" / "features.csv")
    return data.X, data.y.astype(float)


@pytest.fixture(scope="module")
def nearly_separable():
    data = logistic_data(400, [6.0, -5.0], seed=16, noise_cols=6)
    return data.X, data.y.astype(float)


def full_path(X, y):
    lmax = lambda_max(X, y)
    return [float(l) for l in np.geomspace(lmax, lmax * LassoParams().lambda_min_ratio, LassoParams().n_lambdas)]


def kkt_residual(X, y, lam, beta, intercept):
    """The largest violation of the logistic lasso's optimality conditions at
    (intercept, beta), relative to lam: |z_j'(y-p)/n - lam sign b_j| for active j,
    (|z_j'(y-p)/n| - lam)+ for inactive j, and |mean(y-p)|."""
    Z, _, _ = _standardize(X)
    resid = y - sigmoid(intercept + Z @ beta)
    grad = Z.T @ resid / len(y)
    active = beta != 0.0
    return max(
        float(np.max(np.abs(grad[active] - lam * np.sign(beta[active])), initial=0.0)),
        float(np.max(np.abs(grad[~active]) - lam, initial=0.0)),
        abs(float(np.mean(resid))),
    ) / lam


class TestLassoSolver:
    @pytest.mark.parametrize("dataset", ["cli_features", "nearly_separable"])
    def test_path_matches_the_sweep_oracle(self, dataset, request, monkeypatch):
        X, y = request.getfixturevalue(dataset)
        lambdas = full_path(X, y)
        betas, intercepts, _, _, computed, converged = _lasso_path(X, y, lambdas, LassoParams())
        monkeypatch.setattr(linear, "_cd_quadratic", lasso_oracle.cd_quadratic)
        oracle_betas, oracle_intercepts, _, _, oracle_computed, _ = _lasso_path(X, y, lambdas, LassoParams())
        assert converged
        assert computed == oracle_computed
        for i in range(computed):
            assert np.array_equal(betas[i] != 0.0, oracle_betas[i] != 0.0)
            assert kkt_residual(X, y, lambdas[i], betas[i], intercepts[i]) <= 1e-4
            assert kkt_residual(X, y, lambdas[i], oracle_betas[i], oracle_intercepts[i]) <= 1e-4

    def test_sign_flip_falls_back_to_active_sweeps(self, cli_features, monkeypatch):
        X, y = cli_features
        flips = []

        def spy(Z_a, w, wresid, beta_a, lam):
            step = _restricted_step(Z_a, w, wresid, beta_a, lam)
            if step is None:  # [[sum w, w'Z], [Z'w, Z'WZ]] step = [sum wresid, Z'wresid - n lam sign]
                wz = w @ Z_a
                H = np.block([[np.array([[w.sum()]]), wz[None, :]], [wz[:, None], (Z_a.T * w) @ Z_a]])
                rhs = np.concatenate([[wresid.sum()], Z_a.T @ wresid - len(w) * lam * np.sign(beta_a)])
                free = np.linalg.solve(H, rhs)
                flips.append(not np.array_equal(np.sign(beta_a + free[1:]), np.sign(beta_a)))
            return step

        monkeypatch.setattr(linear, "_restricted_step", spy)
        lambdas = full_path(X, y)
        betas, intercepts, _, _, computed, converged = _lasso_path(X, y, lambdas, LassoParams())
        assert flips and all(flips)
        assert converged
        for i in range(computed):
            assert kkt_residual(X, y, lambdas[i], betas[i], intercepts[i]) <= 1e-4


def serial_lasso(data, k, seed, params=LassoParams()):
    """The lasso's CV and refit as one serial loop: each fold's path scores every penalty."""
    y = data.y.astype(float)
    lmax = lambda_max(data.X, y)
    lambdas = [float(l) for l in np.geomspace(lmax, lmax * params.lambda_min_ratio, params.n_lambdas)]
    folds = stratified_folds(data.y, k, substream(seed, NS_FOLDS, 0))
    fold_aucs = np.zeros((len(lambdas), k))
    for f in range(k):
        val = folds == f
        betas, intercepts, means, scales, _, _ = _lasso_path(data.X[~val], y[~val], lambdas, params)
        Z_val = (data.X[val] - means) / scales
        for i in range(len(lambdas)):
            fold_aucs[i, f] = auc(sigmoid(intercepts[i] + Z_val @ betas[i]), data.y[val])
    table = [
        {"params": {"lambda_path": lambdas[: i + 1]}, "fold_aucs": row.tolist(), "mean_auc": float(np.mean(row.tolist()))}
        for i, row in enumerate(fold_aucs)
    ]
    chosen = int(np.argmax([row["mean_auc"] for row in table]))  # path is descending, first max = largest lambda
    betas, intercepts, _, _, computed, _ = _lasso_path(data.X, y, lambdas, params)
    return table, chosen, betas[chosen], float(intercepts[chosen]), computed


class TestLassoTasks:
    @pytest.mark.parametrize("n_pos", [None, 6])
    def test_fold_tasks_equal_serial_loop(self, n_pos):
        data = logistic_data(200, [1.0, -1.0, 0.5], seed=13, noise_cols=5)
        k = 10
        if n_pos is not None:  # six positives allow six folds at most
            y = np.zeros(data.n_rows, int)
            y[np.random.default_rng(13).choice(data.n_rows, n_pos, replace=False)] = 1
            data = LabeledDataset(data.X, y, data.feature_names, data.row_keys)
            with pytest.raises(ValueError, match="folds"):
                cv_tasks(data, "lasso", HyperGrid(lasso=tuple(lasso_cells(data, {}))), k, 3)
            k = 6
        grid = HyperGrid(lasso=tuple(lasso_cells(data, {})))
        table, chosen, beta, intercept, computed = serial_lasso(data, k, seed=3)
        with TaskPool(2) as pool:
            pooled = cv_tune(data, "lasso", grid, k=k, seed=3, pool=pool)
        for result in (cv_tune(data, "lasso", grid, k=k, seed=3), pooled):
            assert result.table == table
            assert all(len(row["fold_aucs"]) == k for row in result.table)
            assert result.best_params == table[chosen]["params"]
        # the refit of the chosen cell is the all-rows path cut at its penalty
        model = fit_lasso(data, lambda_path=pooled.best_params["lambda_path"], seed=3)
        assert model.training_meta["lambda"] == table[chosen]["params"]["lambda_path"][-1]
        assert model.training_meta["path_computed"] == min(computed, chosen + 1)
        assert np.array_equal(model.parameters["coef"], beta)
        assert model.parameters["intercept"] == intercept

    def test_tasks_are_what_cv_tune_runs(self):
        data = logistic_data(200, [1.0], seed=14, noise_cols=2)
        grid = HyperGrid(lasso=tuple(lasso_cells(data, {})))
        tasks = cv_tasks(data, "lasso", grid, 10, 4)
        assert len(tasks) == 10  # one path per fold scores all 20 penalties
        pool = TaskPool()
        pool.submit(tasks)
        assert pool.submit(cv_tasks(data, "lasso", grid, 10, 4)) == pool.submit(tasks)
        assert cv_tune(data, "lasso", grid, k=10, seed=4, pool=pool).table == cv_tune(data, "lasso", grid, k=10, seed=4).table
