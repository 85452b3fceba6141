"""One benchmark iteration in a fresh process. On the train_data and
test_data days under ``--inputs`` it runs featurize on both days, train,
evaluate, predict and triage, each through ``c2sift.cli.run_*``. Then,
while another pass still fits in ``--seconds`` (counted from the start of
the first pass), it runs every stage but train again on the same models
and reports each stage's median time over its passes, so that a burst of
load on the machine moves one sample rather than the figure. Every pass
must write the same outputs as the first.

Usage (from the repository root, normally started by run.py):

    python3 perfbench/stages.py --inputs DIR --out DIR --result FILE \
        --seed N --workload NAME --seconds S [--trace]

The workload's folds and importance model, the training seed, the
bootstrap count and ``--jobs`` come from run.py; ``--seed`` seeds
evaluate. ``--seconds 0`` runs the first pass only.

Writes one JSON object to ``--result``: the median stage wall times, the
number of passes, peak RSS of this process and of its pool workers
over the first pass, any stage errors, the output checksums from each
stage's run_manifest.json, and the ingest and evaluation figures the
checks need; with ``--trace``, also the per-layer metrics (the spans go
to RESULT-spans.json).
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import c2sift.cli as cli  # noqa: E402
from c2sift.rng import NS_PIPELINE, child_seed  # noqa: E402
from run import BOOTSTRAP, JOBS, TRAIN_SEED, WORKLOADS  # noqa: E402

STAGES = ("featurize_train", "featurize_test", "train", "evaluate", "predict", "triage")


def stage_calls(inputs: Path, out: Path, models: Path, seed: int, workload) -> list[tuple[str, Path, callable]]:
    """(stage, output dir, call) for one pass of the pipeline, in order."""
    train_data, test_data = inputs / "train_data", inputs / "test_data"
    features = {split: out / f"features_{split}" for split in ("train", "test")}

    def featurize(data: Path, split: str):
        return lambda: cli.run_featurize(
            flows=data / "flows.csv",
            internal_space=data / "internal_space.txt",
            labels=data / "labels.csv",
            out=features[split],
        )

    return [
        ("featurize_train", features["train"], featurize(train_data, "train")),
        ("featurize_test", features["test"], featurize(test_data, "test")),
        ("train", models, lambda: cli.run_train(
            features["train"] / "features.csv", models, seed=child_seed(TRAIN_SEED, NS_PIPELINE, 2),
            folds=workload.folds, jobs=JOBS,
        )),
        ("evaluate", out / "evaluation", lambda: cli.run_evaluate(
            features["test"] / "features.csv", models, out / "evaluation",
            bootstrap=BOOTSTRAP, seed=seed, importance_kind=workload.importance_kind,
        )),
        ("predict", out / "predictions", lambda: cli.run_predict(
            features["test"] / "features.csv", models, out / "predictions", model_kind="stack"
        )),
        ("triage", out / "triage", lambda: cli.run_triage(
            out / "predictions" / "predictions.csv", features["test"] / "features.csv", out / "triage",
            deny=[test_data / "deny_sample.txt"], allow=[test_data / "allow_sample.txt"],
        )),
    ]


def run_passes(inputs: Path, out: Path, seed: int, workload, seconds: float) -> dict:
    times: dict[str, list[float]] = {}
    errors: dict[str, str] = {}
    checksums: dict[str, dict] = {}
    first = out / "pass0"
    window_start = perf_counter()
    last = k = 0
    while k == 0 or (not errors and perf_counter() - window_start + last <= seconds):
        began = perf_counter()
        for name, stage_dir, call in stage_calls(inputs, out / f"pass{k}", first / "models", seed, workload):
            if name == "train" and k > 0:
                continue
            if errors:
                errors.setdefault(name, "skipped after an earlier stage failed")
                continue
            start = perf_counter()
            try:
                call()
            except Exception:
                errors[name] = traceback.format_exc(limit=3)
                continue
            times.setdefault(name, []).append(perf_counter() - start)
            manifest = stage_dir / "run_manifest.json"
            if not manifest.is_file():
                continue
            sums = json.loads(manifest.read_text(encoding="utf-8"))["output_checksums"]
            if checksums.setdefault(name, sums) != sums:
                errors[name] = f"pass {k} wrote other outputs than pass 0"
        k += 1
        if k == 1:
            # over the first pass only: how many passes follow depends on the machine's speed
            peak_rss_kb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        # a later pass skips train, so pass 0 predicts its length without it
        last = perf_counter() - began if k > 1 else sum(t[0] for name, t in times.items() if name != "train")

    result = {
        "times": {name: statistics.median(t) for name, t in times.items()},
        "passes": k,
        "peak_rss_kb": peak_rss_kb,
        "errors": errors,
        "checksums": checksums,
    }
    if not errors:
        for split in ("train", "test"):
            stats = json.loads((first / f"features_{split}" / "ingest_stats.json").read_text(encoding="utf-8"))
            with (first / f"features_{split}" / "features.csv").open(encoding="utf-8") as handle:
                stats["feature_rows"] = sum(1 for line in handle if line.strip()) - 1
            result[f"ingest_{split}"] = stats
        evaluation = json.loads((first / "evaluation" / "evaluation.json").read_text(encoding="utf-8"))
        result["point_auc"] = {kind: report["point_auc"] for kind, report in evaluation.items()}
    return result


def run(args) -> dict:
    tracer = None
    if args.trace:
        import tracing

        worker_dir = args.out / "trace_workers"
        worker_dir.mkdir(parents=True)
        tracer = tracing.Tracer(worker_dir)
        tracing.install(tracer)

    workload = WORKLOADS[args.workload]
    result = run_passes(args.inputs, args.out, args.seed, workload, args.seconds)

    if tracer is not None and not result["errors"]:
        import layers

        spans = tracer.all_spans()
        args.result.with_name(args.result.stem + "-spans.json").write_text(json.dumps(spans), encoding="utf-8")
        result["layers"] = layers.summarize(spans, JOBS)
        result["layers"]["trace.spans"] = len(spans)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    args.out.mkdir(parents=True)
    args.result.write_text(json.dumps(run(args)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
