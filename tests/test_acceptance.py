"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (the pass/fail lines are
written straight to the terminal). The two full pipeline runs take a few
minutes and are shared between criteria via session fixtures.
"""
import json
import math
import sys
import time

import numpy as np
import pytest

import c2sift.cli as cli
from c2sift.ensemble import oof_matrix
from c2sift.evaluate import auc, bootstrap_metrics, permutation_importance
from c2sift.features import FeatureConfig, block_ranges, feature_names, quantile_transform
from c2sift.learners import (
    LabeledDataset,
    fit_gbm,
    fit_glm,
    fit_lasso,
    fit_random_forest,
    lambda_max,
    load_feature_matrix,
    predict_proba,
    sigmoid,
)
from c2sift.learners.tree import TreeParams, fit_tree_second_order

from conftest import read_manifest

PIPELINE_SEED = 7
JOBS = 4


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else "")
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def pipeline_runs(tmp_path_factory):
    """Two identical full-scale pipeline runs with --seed 7."""
    base = tmp_path_factory.mktemp("pipeline")
    walls = []
    for run in (1, 2):
        t0 = time.time()
        rc = cli.main(
            [
                "pipeline",
                "--out", str(base / f"run{run}"),
                "--seed", str(PIPELINE_SEED),
                "--jobs", str(JOBS),
            ]
        )
        walls.append(time.time() - t0)
        assert rc == 0, f"pipeline run {run} failed"
    return base / "run1", base / "run2", walls


@pytest.fixture(scope="session")
def overlap_artifacts(tmp_path_factory):
    """Overlap scenario: RF trained with and without the distributional block."""
    base = tmp_path_factory.mktemp("overlap")
    for tag, seed in (("train", 21), ("test", 22)):
        rc = cli.main(
            ["generate", "--out", str(base / f"{tag}_data"), "--seed", str(seed), "--scenario", "overlap"]
        )
        assert rc == 0
        for suffix, extra in (("", []), ("_ablated", ["--ablate-distributional"])):
            rc = cli.main(
                [
                    "featurize",
                    "--flows", str(base / f"{tag}_data" / "flows.csv"),
                    "--internal-space", str(base / f"{tag}_data" / "internal_space.txt"),
                    "--labels", str(base / f"{tag}_data" / "labels.csv"),
                    "--out", str(base / f"features_{tag}{suffix}"),
                ]
                + extra
            )
            assert rc == 0

    out = {}
    for suffix in ("", "_ablated"):
        train = load_feature_matrix(base / f"features_train{suffix}" / "features.csv")
        test = load_feature_matrix(base / f"features_test{suffix}" / "features.csv")
        model = fit_random_forest(train, {"n_trees": 200, "mtry": "sqrt"}, seed=11)
        scores = predict_proba(model, test.X, test.feature_names)
        boot_auc, _ = bootstrap_metrics(scores, test.y, B=1000, seed=13)
        out[suffix or "full"] = {"model": model, "test": test, "boot_auc": boot_auc}
    return out


def test_criterion_1_auc_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.time()
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        pool = np.array([0.1, 0.25, 0.5, 0.75, rng.random()])
        scores = pool[rng.integers(0, len(pool), size=n)]

        wins = 0.0
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        for p in pos:
            for q in neg:
                wins += 1.0 if p > q else (0.5 if p == q else 0.0)
        brute = wins / (len(pos) * len(neg))
        assert auc(scores, labels) == brute
        checked += 1
    elapsed = time.time() - t0
    report("criterion 1: AUC equals pairwise oracle on 100 sets", checked == 100 and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_2_quantile_oracle_equivalence():
    rng = np.random.default_rng(202)
    levels = FeatureConfig().quantile_levels
    t0 = time.time()
    for _ in range(1000):
        m = int(rng.integers(1, 501))
        values = rng.normal(size=m) * float(rng.uniform(0.5, 100))
        got = quantile_transform(values, levels)
        ordered = sorted(values.tolist())
        expect = [ordered[min(max(math.ceil(q * m - 1e-9), 1), m) - 1] for q in levels]
        assert got.tolist() == expect
        assert np.all(np.diff(got) >= 0)
        assert got[-1] == max(values)
        pool = set(values.tolist())
        assert all(v in pool for v in got.tolist())
    elapsed = time.time() - t0
    report("criterion 2: quantiles equal sort-and-index oracle on 1000 samples", elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_3_learner_correctness():
    rng = np.random.default_rng(303)

    # GLM recovers planted (1, -2) within +-0.1 at n=10,000
    X = rng.normal(size=(10_000, 2))
    y = (rng.random(10_000) < sigmoid(X[:, 0] - 2.0 * X[:, 1])).astype(int)
    glm = fit_glm(LabeledDataset(X, y, ("a", "b"), tuple((f"h{i}", "2022-01-10") for i in range(10_000))))
    coef = np.asarray(glm.parameters["coef_original"])
    glm_ok = abs(coef[0] - 1.0) <= 0.1 and abs(coef[1] + 2.0) <= 0.1

    # lasso: exactly zero slopes at lambda >= lambda_max
    Xl = rng.normal(size=(400, 8))
    yl = (rng.random(400) < sigmoid(Xl[:, 0] - Xl[:, 1])).astype(int)
    dl = LabeledDataset(Xl, yl, tuple(f"f{i}" for i in range(8)), tuple((f"h{i}", "2022-01-10") for i in range(400)))
    lmax = lambda_max(Xl, yl.astype(float))
    lasso_ok = all(
        np.all(np.asarray(fit_lasso(dl, lambda_path=[lam]).parameters["coef"]) == 0.0)
        for lam in (lmax, 1.5 * lmax)
    )

    # GBM: training loss non-increasing over 50 rounds at eta = 0.05
    descent_ok = True
    for seed in range(5):
        r = np.random.default_rng(seed)
        Xg = r.normal(size=(150, 5))
        yg = (r.random(150) < sigmoid(1.5 * Xg[:, 0] - Xg[:, 1])).astype(int)
        if yg.min() == yg.max():
            yg[0] = 1 - yg[0]
        dg = LabeledDataset(Xg, yg, tuple(f"f{i}" for i in range(5)), tuple((f"h{i}", "2022-01-10") for i in range(150)))
        path = fit_gbm(dg, {"n_rounds": 50, "learning_rate": 0.05, "max_depth": 3}).training_meta["loss_path"]
        descent_ok &= all(b <= a + 1e-12 for a, b in zip(path, path[1:]))

    # gbm2: depth-1 split matches the exhaustive gain oracle on 20 datasets
    gain_ok = True
    for seed in range(20):
        r = np.random.default_rng(1000 + seed)
        Xs = r.normal(size=(100, 5))
        p = sigmoid(r.normal(size=100))
        ys = (r.random(100) < 0.5).astype(float)
        g, h = p - ys, p * (1 - p)
        tree = fit_tree_second_order(Xs, g, h, TreeParams(max_depth=1), lam=1.0, gamma=0.0)
        G, H = g.sum(), h.sum()
        best = None
        for j in range(5):
            vals = np.unique(Xs[:, j])
            for lo, hi in zip(vals, vals[1:]):
                threshold = (lo + hi) / 2.0
                if threshold >= hi:
                    threshold = lo
                mask = Xs[:, j] <= threshold
                gl, hl = g[mask].sum(), h[mask].sum()
                gr, hr = G - gl, H - hl
                gain = 0.5 * (gl**2 / (hl + 1.0) + gr**2 / (hr + 1.0) - G**2 / (H + 1.0))
                if best is None or gain > best[0] + 1e-9:
                    best = (gain, j, threshold)
        if best[0] <= 0:
            gain_ok &= tree.n_nodes == 1
        else:
            gain_ok &= tree.feature[0] == best[1] and np.isclose(tree.threshold[0], best[2])

    ok = glm_ok and lasso_ok and descent_ok and gain_ok
    report(
        "criterion 3: learner correctness (GLM recovery, lasso zeros, GBM descent, gbm2 gains)",
        ok,
        f"glm={glm_ok} lasso={lasso_ok} descent={descent_ok} gbm2={gain_ok}",
    )


def test_criterion_4_synthetic_end_to_end(pipeline_runs):
    run1, _, walls = pipeline_runs
    evaluation = json.loads((run1 / "evaluation" / "evaluation.json").read_text())
    base_aucs = {k: evaluation[k]["point_auc"] for k in ("rf", "pca_rf", "gbm", "gbm2", "glm", "lasso")}
    stack_auc = evaluation["stack"]["point_auc"]
    strong = all(base_aucs[k] >= 0.95 for k in ("rf", "gbm", "gbm2"))
    stacked = stack_auc >= max(base_aucs.values()) - 0.01
    timed = walls[0] < 600.0
    report(
        "criterion 4: default scenario held-out AUCs (rf/gbm/gbm2 >= 0.95, stack within 0.01 of best)",
        strong and stacked and timed,
        f"rf={base_aucs['rf']:.3f} gbm={base_aucs['gbm']:.3f} gbm2={base_aucs['gbm2']:.3f} "
        f"stack={stack_auc:.3f} wall={walls[0]:.0f}s",
    )


def test_criterion_5_distributional_ablation(overlap_artifacts):
    full = float(np.mean(overlap_artifacts["full"]["boot_auc"]))
    ablated = float(np.mean(overlap_artifacts["_ablated"]["boot_auc"]))
    gap = full - ablated
    report(
        "criterion 5: distributional block lifts RF bootstrap AUC by >= 0.03",
        gap >= 0.03,
        f"full={full:.4f} ablated={ablated:.4f} gap={gap:.4f} (B=1000)",
    )


def test_criterion_6_importance_block_dominance(overlap_artifacts):
    model = overlap_artifacts["full"]["model"]
    test = overlap_artifacts["full"]["test"]
    importance = permutation_importance(model, test, repeats=3, seed=17)
    top20 = importance.top(20)
    cfg = FeatureConfig()
    names = feature_names(cfg)
    dist_names = {names[i] for i in block_ranges(cfg)["distributional"]}
    in_block = sum(1 for name, _, _ in top20 if name in dist_names)

    def is_tail(name):
        if "_q" not in name:
            return False
        pct = float(name.rsplit("_q", 1)[1])
        return pct < 25.0 or pct > 75.0

    tail = sum(1 for name, _, _ in top20 if is_tail(name))
    # tail-quantile dominance is reported, not gated
    report(
        "criterion 6: >= 10 of RF top-20 importances in the distributional block",
        in_block >= 10,
        f"in_block={in_block}/20, tail quantiles outside IQR={tail}/20 (reported)",
    )


def test_criterion_7_no_leakage_stacking():
    rng = np.random.default_rng(707)
    n = 100
    X = rng.normal(size=(n, 5))
    y = (rng.random(n) < sigmoid(2.0 * X[:, 0])).astype(int)
    y[:4] = [0, 1, 0, 1]
    data = LabeledDataset(X, y, tuple(f"f{i}" for i in range(5)), tuple((f"h{i}", "2022-01-10") for i in range(n)))
    specs = [("rf", {"n_trees": 5, "min_leaf": 1}), ("gbm", {"n_rounds": 8, "max_depth": 3}), ("glm", {})]
    k = 10
    folds = np.arange(n) % k
    base = oof_matrix(data, specs, k=k, seed=4, folds=folds)
    influenced = 0
    for f in range(k):
        flipped = data.y.copy()
        flipped[folds == f] = 1 - flipped[folds == f]
        perturbed = LabeledDataset(data.X, flipped, data.feature_names, data.row_keys)
        again = oof_matrix(perturbed, specs, k=k, seed=4, folds=folds)
        rows = folds == f
        influenced += int(np.sum(again[rows] != base[rows]))
    report(
        "criterion 7: label perturbation never moves a row's own OOF entries",
        influenced == 0,
        f"influenced entries={influenced} over {n} rows x {len(specs)} models",
    )


def test_criterion_8_pipeline_determinism(pipeline_runs):
    run1, run2, _ = pipeline_runs
    first = read_manifest(run1)["output_checksums"]
    second = read_manifest(run2)["output_checksums"]
    same = first == second
    report(
        "criterion 8: pipeline --seed 7 twice gives byte-identical output checksums",
        same and len(first) > 10,
        f"{len(first)} files compared",
    )
