"""Per-layer metrics from the spans of one traced pipeline iteration.

``LAYER_METRICS`` names every per-layer metric with its unit, the
direction that is better, and the end-to-end metric (and workload) it
should move, so that performance issues can cite these names. Times
summed over spans from several processes are busy seconds, not wall time.
"""
from __future__ import annotations

import math
from collections import defaultdict

KINDS = ("rf", "pca_rf", "gbm", "gbm2", "glm", "lasso")
CV_KINDS = ("rf", "pca_rf", "gbm", "gbm2", "glm")

# Spans whose self time is reported as self_s.<name>.
SELF_TIME_SPANS = (
    "cli.run_featurize",
    "cli.run_train",
    "cli.run_evaluate",
    "cli.run_predict",
    "cli.run_triage",
    "flows.parse_flow_file",
    "aggregate.group_daily",
    "features.featurize_aggregates",
    "features.write_feature_matrix",
    "learners.data.load_feature_matrix",
    "learners.data.take",
    "evaluate.cv_tune",
    "evaluate.cv_cell",
    "learners.linear.fit_lasso",
    "learners.linear.fit_glm",
    "cli.train.refit",
    "ensemble.fit_stack",
    "ensemble.oof_matrix",
    "ensemble.oof_column",
    "ensemble.fit_model",
    "learners.forest.fit_pca",
    "learners.artifact.fit",
    "learners.artifact.predict",
    "learners.artifact.save_model",
    "learners.tree.fit_tree",
    "learners.tree.tree_predict",
    "evaluate.evaluate_scores",
    "evaluate.bootstrap_metrics",
    "evaluate.auc",
    "evaluate.permutation_importance",
    "triage.triage",
)

_INGEST = "stage.featurize_s, stage.featurize_flows_per_s and peak_rss_mb on pipeline_default; little wall_s on train_overlap"
_TRAIN_BOTH = "train_s on pipeline_default and train_overlap"
_TREE = "train_s on train_overlap, whose trees average 11 nodes; little on pipeline_default, whose trees average 5"
_OVERHEAD = "train_s, mostly on pipeline_default, where near-stump fits leave per-fit overhead a larger share"

# name -> (unit, better, what it should move)
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "flows.parse_s": ("s", "lower", _INGEST),
    "flows.rows": ("count", "higher", "base of flows.rows_per_s and featurize_flows_per_s"),
    "flows.rows_per_s": ("1/s", "higher", _INGEST),
    "flows.rejected": ("count", "lower", "nothing; malformed rows, 0 on generated input"),
    "aggregate.group_s": ("s", "lower", _INGEST),
    "aggregate.host_days": ("count", "higher", "base of the feature rows"),
    "features.featurize_s": ("s", "lower", _INGEST),
    "features.write_s": ("s", "lower", _INGEST),
    "learners.tree.fit_calls": ("count", "lower", _TREE),
    "learners.tree.fit_s": ("s", "lower", _TREE),
    "learners.tree.nodes": ("count", "lower", "base of learners.tree.us_per_node"),
    "learners.tree.us_per_node": ("us", "lower", _TREE),
    "learners.tree.predict_calls": ("count", "lower", "train_s (boosting rounds) on train_overlap; stage.evaluate_s (RF importance) on pipeline_default"),
    "learners.tree.predict_s": ("s", "lower", "train_s (boosting rounds) on train_overlap; stage.evaluate_s (RF importance) on pipeline_default"),
    "learners.linear.lasso_s": ("s", "lower", _TRAIN_BOTH),
    "learners.linear.glm_s": ("s", "lower", _TRAIN_BOTH),
    "learners.forest.pca_s": ("s", "lower", _TRAIN_BOTH),
    **{f"evaluate.cv_tune_s.{kind}": ("s", "lower", _TRAIN_BOTH) for kind in CV_KINDS},
    "ensemble.oof_s": ("s", "lower", _TRAIN_BOTH),
    "ensemble.refit_s": ("s", "lower", _TRAIN_BOTH),
    "cli.train.refit_s": ("s", "lower", _TRAIN_BOTH),
    "cli.train.worker_busy_frac": ("frac", "higher", _TRAIN_BOTH),
    "cli.train.worker_capacity_s": ("s", "lower", "base of cli.train.worker_busy_frac: jobs x train_s"),
    "learners.artifact.fit_calls": ("count", "lower", "base of learners.artifact.fit_dup"),
    **{f"learners.artifact.fit_calls.{kind}": ("count", "lower", _TRAIN_BOTH) for kind in KINDS},
    **{f"learners.artifact.fit_s.{kind}": ("s", "lower", _TRAIN_BOTH) for kind in KINDS},
    "learners.artifact.fit_dup": ("count", "lower", _TRAIN_BOTH),
    "learners.artifact.fit_p50_ms": ("ms", "lower", _TRAIN_BOTH),
    "learners.artifact.fit_tail_ms": ("ms", "lower", _TRAIN_BOTH),
    "learners.artifact.fit_tail_pct": ("%", "higher", "percentile of fit_tail_ms, the highest with >= 10 fits beyond it"),
    "learners.data.load_s": ("s", "lower", _OVERHEAD),
    "learners.data.take_s": ("s", "lower", _OVERHEAD),
    "learners.artifact.predict_s": ("s", "lower", "train_s and stage.evaluate_s on both workloads"),
    "learners.artifact.save_s": ("s", "lower", _OVERHEAD),
    "learners.artifact.model_bytes": ("bytes", "lower", _OVERHEAD),
    "evaluate.auc_calls": ("count", "lower", "stage.evaluate_s on both workloads"),
    "evaluate.auc_s": ("s", "lower", "stage.evaluate_s on both workloads"),
    "evaluate.bootstrap_s": ("s", "lower", "stage.evaluate_s on both workloads"),
    "evaluate.importance_s": ("s", "lower", "stage.evaluate_s on pipeline_default (RF importance)"),
    "triage.triage_s": ("s", "lower", "wall_s, a small share on both workloads"),
    "stage.featurize_s": ("s", "lower", "wall_s: featurize of both days, untraced; ~14% of it on pipeline_default, ~2% on train_overlap"),
    "stage.featurize_flows_per_s": ("1/s", "higher", "accepted flows of both days over stage.featurize_s; moves with the ingest layers"),
    "stage.evaluate_s": ("s", "lower", "wall_s: evaluate, untraced; ~8% of it on pipeline_default (RF importance), ~3% on train_overlap"),
    "trace.spans": ("count", "lower", "base of trace.overhead_s"),
    "trace.untraced_wall_s": ("s", "lower", "base of trace.overhead_s"),
    "trace.overhead_s": ("s", "lower", "traced wall_s minus untraced wall_s; moves nothing"),
    **{f"self_s.{name}": ("s", "lower", "self time: span minus its same-process child spans") for name in SELF_TIME_SPANS},
}


def _nearest_rank(sorted_values: list[float], pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles that leaves at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def summarize(spans: list[list], jobs: int) -> dict[str, float]:
    """Every per-layer metric but the stage.* and trace.* ones (run.py adds those), from one iteration's spans."""
    by_id = {tuple(s[0]): s for s in spans}
    children = defaultdict(float)
    cross_process_parents = set()
    for sid, parent, _name, start, end, _attrs in spans:
        if parent is None:
            continue
        if parent[0] == sid[0]:
            children[tuple(parent)] += end - start
        else:
            cross_process_parents.add(tuple(parent))

    total = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    for sid, _parent, name, start, end, _attrs in spans:
        total[name] += end - start
        calls[name] += 1
        self_time[name] += end - start - children[tuple(sid)]

    def named(name, keep=lambda s: True):
        return [s for s in spans if s[2] == name and keep(s)]

    def dur(selected):
        return sum(s[4] - s[3] for s in selected)

    def attr_sum(name, key):
        return sum(s[5][key] for s in named(name))

    def parent_name(span):
        parent = span[1]
        return by_id[tuple(parent)][2] if parent is not None and tuple(parent) in by_id else None

    def inside_predict(span):
        parent = span[1]
        while parent is not None and tuple(parent) in by_id:
            ancestor = by_id[tuple(parent)]
            if ancestor[2] == "learners.artifact.predict":
                return True
            parent = ancestor[1]
        return False

    metrics: dict[str, float] = {}
    rows = attr_sum("flows.parse_flow_file", "lines")
    metrics["flows.parse_s"] = total["flows.parse_flow_file"]
    metrics["flows.rows"] = rows
    metrics["flows.rows_per_s"] = rows / total["flows.parse_flow_file"]
    metrics["flows.rejected"] = attr_sum("flows.parse_flow_file", "rejected")
    metrics["aggregate.group_s"] = total["aggregate.group_daily"]
    metrics["aggregate.host_days"] = attr_sum("aggregate.group_daily", "host_days")
    metrics["features.featurize_s"] = total["features.featurize_aggregates"]
    metrics["features.write_s"] = total["features.write_feature_matrix"]

    nodes = attr_sum("learners.tree.fit_tree", "nodes")
    metrics["learners.tree.fit_calls"] = calls["learners.tree.fit_tree"]
    metrics["learners.tree.fit_s"] = total["learners.tree.fit_tree"]
    metrics["learners.tree.nodes"] = nodes
    metrics["learners.tree.us_per_node"] = 1e6 * total["learners.tree.fit_tree"] / nodes
    metrics["learners.tree.predict_calls"] = calls["learners.tree.tree_predict"]
    metrics["learners.tree.predict_s"] = total["learners.tree.tree_predict"]

    fits = named("learners.artifact.fit")
    fit_s = {kind: dur([s for s in fits if s[5]["kind"] == kind]) for kind in KINDS}
    metrics["learners.linear.lasso_s"] = total["learners.linear.fit_lasso"]
    metrics["learners.linear.glm_s"] = fit_s["glm"] + total["learners.linear.fit_glm"]
    metrics["learners.forest.pca_s"] = total["learners.forest.fit_pca"]
    cv = named("evaluate.cv_tune")
    for kind in CV_KINDS:
        metrics[f"evaluate.cv_tune_s.{kind}"] = dur([s for s in cv if s[5]["kind"] == kind])
    metrics["ensemble.oof_s"] = total["ensemble.oof_matrix"]
    metrics["ensemble.refit_s"] = dur(named("ensemble.fit_model", lambda s: parent_name(s) == "ensemble.fit_stack"))
    metrics["cli.train.refit_s"] = total["cli.train.refit"]

    # Busy = the traced process's train time outside pool waits, plus every
    # pool task's time in the workers; capacity = jobs x train wall time.
    train_s = total["cli.run_train"]
    pool_wait = sum(by_id[p][4] - by_id[p][3] for p in cross_process_parents if p in by_id)
    tasks = [s for s in spans if s[2] in ("evaluate.cv_cell", "ensemble.oof_column") and s[0][0] != s[1][0]]
    capacity = jobs * train_s
    metrics["cli.train.worker_busy_frac"] = (train_s - pool_wait + dur(tasks)) / capacity
    metrics["cli.train.worker_capacity_s"] = capacity

    durations = sorted(s[4] - s[3] for s in fits)
    keys = [s[5]["key"] for s in fits]
    metrics["learners.artifact.fit_calls"] = len(fits)
    for kind in KINDS:
        metrics[f"learners.artifact.fit_calls.{kind}"] = sum(1 for s in fits if s[5]["kind"] == kind)
        metrics[f"learners.artifact.fit_s.{kind}"] = fit_s[kind]
    metrics["learners.artifact.fit_dup"] = len(keys) - len(set(keys))
    pct = tail_percentile(len(durations))
    metrics["learners.artifact.fit_p50_ms"] = 1e3 * _nearest_rank(durations, 50.0)
    metrics["learners.artifact.fit_tail_ms"] = 1e3 * _nearest_rank(durations, pct)
    metrics["learners.artifact.fit_tail_pct"] = pct

    metrics["learners.data.load_s"] = total["learners.data.load_feature_matrix"]
    metrics["learners.data.take_s"] = total["learners.data.take"]
    metrics["learners.artifact.predict_s"] = dur(
        named("learners.artifact.predict", lambda s: not inside_predict(s))
    )
    metrics["learners.artifact.save_s"] = total["learners.artifact.save_model"]
    metrics["learners.artifact.model_bytes"] = attr_sum("learners.artifact.save_model", "bytes")
    metrics["evaluate.auc_calls"] = calls["evaluate.auc"]
    metrics["evaluate.auc_s"] = total["evaluate.auc"]
    metrics["evaluate.bootstrap_s"] = total["evaluate.bootstrap_metrics"]
    metrics["evaluate.importance_s"] = total["evaluate.permutation_importance"]
    metrics["triage.triage_s"] = total["triage.triage"]
    for name in SELF_TIME_SPANS:
        metrics[f"self_s.{name}"] = self_time[name]
    return metrics
