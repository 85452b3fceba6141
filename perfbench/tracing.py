"""In-memory span tracer that wraps c2sift's functions from outside.

Each wrapped call records one span: (id, parent id, name, start, end,
attrs). Functions are wrapped where the caller looks them up (the module
attribute a caller reads at call time, or a registry entry), so the
program's own files stay untouched. Span ids are (pid, counter) pairs.

The pool workers that ``--jobs`` starts are forked from the traced
process, so they inherit the wrappers. After a fork the child drops the
parent's buffered spans but keeps its open-span stack, so the first span
a worker records names the parent-process span that created the pool.
A worker appends its spans to ``<worker_dir>/<pid>.jsonl`` when each pool
task ends; the traced process keeps its own spans in memory and writes
them out once, when the run ends.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self, worker_dir: Path):
        self.pid = os.getpid()
        self.worker_dir = Path(worker_dir)
        self.spans: list[list] = []
        self.stack: list[list] = []
        self._count = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []

    def wrap(self, fn, name: str, attrs=None, pool_task: bool = False):
        """Return ``fn`` wrapped in a span; ``attrs(args, kwargs, result)`` adds fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count += 1
            sid = [os.getpid(), self._count]
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
            extra = attrs(args, kwargs, result) if attrs is not None else None
            self.spans.append([sid, parent, name, start, end, extra])
            if pool_task and sid[0] != self.pid:
                self._flush_worker()
            return result

        return traced

    def _flush_worker(self) -> None:
        path = self.worker_dir / f"{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def all_spans(self) -> list[list]:
        """Spans of this process plus every worker's, after the workers ended."""
        spans = list(self.spans)
        for path in sorted(self.worker_dir.glob("*.jsonl")):
            with path.open(encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle)
        return spans


def _fit_key(kind):
    def attrs(args, kwargs, result):
        data, params = args[0], args[1]
        digest = hashlib.blake2b(digest_size=16)
        digest.update(kind.encode())
        digest.update(json.dumps(params, sort_keys=True, default=str).encode())
        digest.update(data.X.tobytes())
        digest.update(data.y.tobytes())
        return {"kind": kind, "key": digest.hexdigest()}

    return attrs


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of c2sift in place."""
    import c2sift.cli as cli
    import c2sift.ensemble as ensemble
    import c2sift.evaluate as evaluate
    import c2sift.learners.artifact as artifact
    import c2sift.learners.boosting as boosting
    import c2sift.learners.data as data
    import c2sift.learners.forest as forest
    import c2sift.learners.linear as linear

    def patch(owner, attr, name, attrs=None, pool_task=False):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, attrs, pool_task))

    for stage in ("run_featurize", "run_train", "run_evaluate", "run_predict", "run_triage"):
        patch(cli, stage, f"cli.{stage}")
    patch(
        cli,
        "parse_flow_file",
        "flows.parse_flow_file",
        lambda a, k, r: {"lines": r[1].lines_read, "accepted": r[1].records_accepted, "rejected": r[1].records_rejected},
    )
    patch(cli, "group_daily", "aggregate.group_daily", lambda a, k, r: {"host_days": len(r[0])})
    patch(cli, "featurize_aggregates", "features.featurize_aggregates")
    patch(cli, "write_feature_matrix", "features.write_feature_matrix")
    patch(cli, "load_feature_matrix", "learners.data.load_feature_matrix")
    patch(data.LabeledDataset, "take", "learners.data.take")
    patch(cli, "cv_tune", "evaluate.cv_tune", lambda a, k, r: {"kind": a[1]})
    patch(evaluate, "_cv_cell_fold_aucs", "evaluate.cv_cell", pool_task=True)
    patch(cli, "fit_lasso", "learners.linear.fit_lasso")
    patch(linear, "fit_lasso", "learners.linear.fit_lasso")
    patch(cli, "fit_model", "cli.train.refit")
    patch(cli, "fit_stack", "ensemble.fit_stack")
    patch(ensemble, "oof_matrix", "ensemble.oof_matrix")
    patch(ensemble, "_oof_column", "ensemble.oof_column", pool_task=True)
    patch(ensemble, "fit_model", "ensemble.fit_model")
    patch(ensemble, "fit_glm", "learners.linear.fit_glm")
    patch(forest, "fit_pca", "learners.forest.fit_pca")
    nodes = lambda a, k, r: {"nodes": r.n_nodes}  # noqa: E731
    patch(forest, "fit_tree", "learners.tree.fit_tree", nodes)
    patch(boosting, "fit_tree", "learners.tree.fit_tree", nodes)
    patch(boosting, "fit_tree_second_order", "learners.tree.fit_tree", nodes)
    patch(forest, "tree_predict", "learners.tree.tree_predict")
    patch(boosting, "tree_predict", "learners.tree.tree_predict")
    patch(cli, "save_model", "learners.artifact.save_model", lambda a, k, r: {"bytes": os.path.getsize(a[1])})
    patch(cli, "evaluate_scores", "evaluate.evaluate_scores")
    patch(evaluate, "bootstrap_metrics", "evaluate.bootstrap_metrics")
    patch(evaluate, "auc", "evaluate.auc")
    patch(cli, "permutation_importance", "evaluate.permutation_importance")
    patch(cli, "triage", "triage.triage")
    for kind in list(artifact.FITTERS):
        artifact.FITTERS[kind] = tracer.wrap(artifact.FITTERS[kind], "learners.artifact.fit", _fit_key(kind))
    for kind in list(artifact.PREDICTORS):
        artifact.PREDICTORS[kind] = tracer.wrap(
            artifact.PREDICTORS[kind], "learners.artifact.predict", lambda a, k, r, kind=kind: {"kind": kind}
        )
