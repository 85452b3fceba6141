"""Single entry point: generate -> featurize -> train -> evaluate -> predict -> triage.

Every command writes into a fresh output directory via a staging rename,
so failures never leave partial outputs behind, and drops a
run_manifest.json with sha256 checksums of everything it wrote. All
randomness derives from --seed; rerunning a command with identical inputs
reproduces identical checksums.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

from . import __version__
from .aggregate import InternalSpace, group_daily
from .ensemble import fit_stack, stack_tasks
from .evaluate import (
    CvResult,
    cv_tasks,
    cv_tune,
    evaluate_scores,
    permutation_importance,
    write_bootstrap_table,
    write_cv_tables,
    write_evaluation,
    write_importance,
)
from .features import FeatureConfig, featurize_aggregates, write_feature_matrix
from .flows import identity_schema, parse_flow_file, read_schema
from .learners import (
    BASE_KINDS,
    default_grid,
    fit_lasso,  # noqa: F401  perfbench/tracing.py wraps cli.fit_lasso by name
    fit_model,
    load_feature_matrix,
    load_model,
    predict_proba,
    save_model,
)
from .learners.artifact import fit_cost
from .learners.linear import lasso_cells
from .rng import NS_PIPELINE, child_seed
from .synthgen import (
    DAY_MS,
    LABEL_BENIGN,
    LABEL_MALICIOUS,
    default_scenario,
    generate,
    overlap_scenario,
    read_labels,
)
from .tasks import Task, TaskPool
from .triage import TriageConfig, build_rules, list_summary, load_ip_list, triage, write_decisions

INTERNAL_SPACE_CIDR = "10.0.0.0/8"


class PipelineError(Exception):
    pass


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_manifest(out_dir: Path, command: str, inputs: dict, params: dict, started: str, **extra) -> None:
    """run_manifest.json: what ran on what, and a checksum of every output.

    ``extra`` adds blocks (timings, training signals) that vary from run
    to run or are not outputs; the manifest itself is never checksummed.
    """
    files = sorted(
        p for p in Path(out_dir).rglob("*") if p.is_file() and p.name != "run_manifest.json"
    )
    checksums = {str(p.relative_to(out_dir)): _sha256(p) for p in files}
    manifest = {
        "command": command,
        "tool_version": __version__,
        "inputs": inputs,
        "params": params,
        "started": started,
        "finished": _now(),
        "output_checksums": checksums,
        **extra,
    }
    (Path(out_dir) / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_manifest(out_dir: Path) -> dict:
    return json.loads((Path(out_dir) / "run_manifest.json").read_text(encoding="utf-8"))


@contextmanager
def staged_output(out: Path):
    """Yield a staging dir that is renamed to ``out`` only on success."""
    out = Path(out)
    if out.exists():
        raise PipelineError(f"output path already exists: {out}")
    staging = out.with_name(out.name + ".staging")
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir(parents=True)
    try:
        yield staging
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    os.replace(staging, out)


def _require_file(path, what: str) -> Path:
    path = Path(path)
    if not path.is_file():
        raise PipelineError(f"{what} not found: {path}")
    return path


def run_generate(
    out: Path,
    seed: int,
    scenario: str = "default",
    c2_hosts: int = 50,
    benign_hosts: int = 250,
    known_bad: int = 5,
    known_benign: int = 3,
    day_start_ms: int | None = None,
) -> None:
    started = _now()
    factory = {"default": default_scenario, "overlap": overlap_scenario}.get(scenario)
    if factory is None:
        raise PipelineError(f"unknown scenario {scenario!r} (default, overlap)")
    cfg = factory(seed=seed, n_c2=c2_hosts, n_benign=benign_hosts)
    if day_start_ms is not None:
        cfg = dataclasses.replace(cfg, day_start_ms=day_start_ms)
    with staged_output(out) as tmp:
        summary = generate(cfg, tmp / "flows.csv", tmp / "labels.csv")
        (tmp / "internal_space.txt").write_text(INTERNAL_SPACE_CIDR + "\n", encoding="utf-8")
        malicious = sorted(h for h, p in summary.hosts.items() if p.label == LABEL_MALICIOUS)
        benign = sorted(h for h, p in summary.hosts.items() if p.label == LABEL_BENIGN)
        (tmp / "deny_sample.txt").write_text(
            "# sample of already-known bad hosts\n" + "\n".join(malicious[:known_bad]) + "\n",
            encoding="utf-8",
        )
        (tmp / "allow_sample.txt").write_text(
            "# sample of vetted hosts\n" + "\n".join(benign[:known_benign]) + "\n", encoding="utf-8"
        )
        write_manifest(
            tmp,
            "generate",
            inputs={},
            params={
                "seed": seed,
                "scenario": scenario,
                "c2_hosts": c2_hosts,
                "benign_hosts": benign_hosts,
                "day_start_ms": cfg.day_start_ms,
            },
            started=started,
        )


def run_featurize(
    flows: Path,
    internal_space: Path,
    out: Path,
    labels: Path | None = None,
    feature_config: Path | None = None,
    schema: Path | None = None,
    ablate_distributional: bool = False,
) -> None:
    started = _now()
    flows = _require_file(flows, "flow file")
    internal_space = _require_file(internal_space, "internal-space config")
    schema_map = read_schema(_require_file(schema, "schema config")) if schema else identity_schema()
    cfg = FeatureConfig.from_file(_require_file(feature_config, "feature config")) if feature_config else FeatureConfig()
    label_map = read_labels(_require_file(labels, "label file")) if labels else None

    clock = perf_counter()
    table, stats = parse_flow_file(flows, schema_map)
    parsed = perf_counter()
    space = InternalSpace.from_file(internal_space)
    host_days, non_boundary = group_daily(table, space)
    grouped = perf_counter()
    vectors = featurize_aggregates(host_days, cfg)
    timings = {"parse_s": parsed - clock, "group_s": grouped - parsed, "featurize_s": perf_counter() - grouped}
    with staged_output(out) as tmp:
        write_feature_matrix(
            tmp / "features.csv",
            vectors,
            labels=label_map,
            drop_block="distributional" if ablate_distributional else None,
        )
        (tmp / "ingest_stats.json").write_text(
            json.dumps(
                {
                    "lines_read": stats.lines_read,
                    "records_accepted": stats.records_accepted,
                    "records_rejected": stats.records_rejected,
                    "reject_reasons": stats.reject_reasons,
                    "non_boundary": non_boundary,
                    "host_days": len(vectors),
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        write_manifest(
            tmp,
            "featurize",
            inputs={"flows": str(flows), "internal_space": str(internal_space), "labels": str(labels) if labels else None},
            params={"ablate_distributional": ablate_distributional},
            started=started,
            timings=timings,
        )


def _refit(kind: str, data, params: dict, seed: int):
    """Full-data fit of a kind's chosen cell: the model saved as <kind>.json and nested in stack.json."""
    return fit_model(kind, data, params, seed)


def run_train(features: Path, out: Path, seed: int, folds: int = 10, jobs: int = 1) -> None:
    """Tune and fit the six bases and the stack on one pool of ``jobs`` workers.

    The lasso's grid becomes one cell per penalty of a path fixed from all
    rows. Every kind's CV fits are queued up front, longest first. As
    each kind's CV is in (waited for in a fixed order), its full-data
    refit and its stack OOF fits are queued; only the meta GLM waits for
    all kinds. The stack nests the full-data fits saved as ``<kind>.json``.
    Every fit keeps its own seed and results reduce by key, so the outputs
    are identical for any ``jobs``.
    """
    started = _now()
    clock = perf_counter()
    data = load_feature_matrix(_require_file(features, "feature matrix"))
    data.require_training_labels()
    grid = default_grid()
    grid = dataclasses.replace(grid, lasso=tuple(cell for spec in grid.lasso for cell in lasso_cells(data, spec)))
    cv_seed, refit_seed, stack_seed = (child_seed(seed, NS_PIPELINE, i) for i in (11, 12, 13))
    cv_results: dict[str, CvResult] = {}
    chosen: dict[str, dict] = {}
    artifacts = {}
    refits = {}
    cv_done_s = {}
    with TaskPool(jobs) as pool:
        plan = {kind: cv_tasks(data, kind, grid, folds, cv_seed) for kind in BASE_KINDS}
        queue = sorted((task for tasks in plan.values() for task in tasks), key=lambda task: -task.cost)
        pool.submit(queue)
        # wait for kinds in the order their last task was queued
        position = {task.key: i for i, task in enumerate(queue)}
        for kind in sorted(plan, key=lambda kind: max(position[task.key] for task in plan[kind])):
            cv_results[kind] = cv_tune(data, kind, grid, k=folds, seed=cv_seed, pool=pool)
            chosen[kind] = cv_results[kind].best_params
            refit = Task(("refit", kind), _refit, (kind, data, chosen[kind], refit_seed), fit_cost(kind, chosen[kind]))
            refits[kind] = pool.submit([refit])[0]
            pool.submit(stack_tasks(data, BASE_KINDS.index(kind), (kind, chosen[kind]), folds, stack_seed))
            cv_done_s[kind] = perf_counter() - clock
            print(
                f"c2sift train: {kind} CV done at {cv_done_s[kind]:.1f} s, chose {json.dumps(chosen[kind], sort_keys=True)}",
                file=sys.stderr,
                flush=True,
            )
        for kind, future in refits.items():
            artifacts[kind] = future.result()
        stack = fit_stack(
            data,
            [(kind, chosen[kind]) for kind in BASE_KINDS],
            [artifacts[kind] for kind in BASE_KINDS],
            k=folds,
            seed=stack_seed,
            pool=pool,
        )
        stack_done_s = perf_counter() - clock
    lasso_meta = artifacts["lasso"].training_meta
    signals = {
        "lasso": {
            "converged": lasso_meta["converged"],
            "path_computed": lasso_meta["path_computed"],
            "n_lambdas": len(lasso_meta["lambda_path"]),
        },
        "stack_meta_glm": {key: stack.parameters["meta"].training_meta[key] for key in ("converged", "separation")},
    }
    with staged_output(out) as tmp:
        for kind, artifact in artifacts.items():
            save_model(artifact, tmp / f"{kind}.json")
        save_model(stack, tmp / "stack.json")
        write_cv_tables(tmp / "cv_tables.csv", cv_results)
        write_manifest(
            tmp,
            "train",
            inputs={"features": str(features)},
            params={"seed": seed, "folds": folds, "jobs": jobs, "chosen": chosen},
            started=started,
            signals=signals,
            timings={
                "cv_done_s": cv_done_s,
                "stack_done_s": stack_done_s,
                "total_s": perf_counter() - clock,
            },
        )


def _load_model_dir(model_dir: Path) -> dict:
    model_dir = Path(model_dir)
    if not model_dir.is_dir():
        raise PipelineError(f"model directory not found: {model_dir}")
    models = {}
    for path in sorted(model_dir.glob("*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise PipelineError(f"{path}: not valid JSON: {exc}") from exc
        if isinstance(payload, dict) and payload.get("format") == "c2sift-model":
            artifact = load_model(path)
            models[artifact.kind] = artifact
    if not models:
        raise PipelineError(f"no model artifacts in {model_dir}")
    return models


def run_evaluate(
    features: Path,
    model_dir: Path,
    out: Path,
    bootstrap: int = 1000,
    threshold: float = 0.5,
    seed: int = 0,
    importance_kind: str = "rf",
    importance_repeats: int = 5,
) -> None:
    started = _now()
    data = load_feature_matrix(_require_file(features, "feature matrix"))
    if data.y is None:
        raise PipelineError(f"feature matrix {features} has no label column; evaluation needs labels")
    models = _load_model_dir(model_dir)
    reports = []
    timings = {"bootstrap_s": 0.0, "importance_s": 0.0}
    for kind in sorted(models):
        scores = predict_proba(models[kind], data.X, data.feature_names)
        clock = perf_counter()
        reports.append(
            evaluate_scores(kind, scores, data.y, B=bootstrap, seed=child_seed(seed, NS_PIPELINE, 20), threshold=threshold)
        )
        timings["bootstrap_s"] += perf_counter() - clock
    importance = None
    if importance_kind:
        if importance_kind not in models:
            raise PipelineError(f"importance model {importance_kind!r} not in {model_dir}")
        clock = perf_counter()
        importance = permutation_importance(
            models[importance_kind], data, repeats=importance_repeats, seed=child_seed(seed, NS_PIPELINE, 21)
        )
        timings["importance_s"] = perf_counter() - clock
    with staged_output(out) as tmp:
        write_evaluation(tmp / "evaluation.json", reports)
        write_bootstrap_table(tmp / "bootstrap_metrics.csv", reports)
        if importance is not None:
            write_importance(tmp / f"importance_{importance_kind}.csv", importance)
        write_manifest(
            tmp,
            "evaluate",
            inputs={"features": str(features), "model_dir": str(model_dir)},
            params={
                "bootstrap": bootstrap,
                "threshold": threshold,
                "seed": seed,
                "importance_kind": importance_kind,
                "importance_repeats": importance_repeats,
            },
            started=started,
            timings=timings,
        )


def run_predict(features: Path, model_dir: Path, out: Path, model_kind: str = "stack") -> None:
    started = _now()
    data = load_feature_matrix(_require_file(features, "feature matrix"))
    model_path = _require_file(Path(model_dir) / f"{model_kind}.json", f"model artifact {model_kind}")
    artifact = load_model(model_path)
    try:
        scores = predict_proba(artifact, data.X, data.feature_names)
    except ValueError as exc:
        raise PipelineError(f"predict failed on {features}: {exc}") from exc
    with staged_output(out) as tmp:
        lines = ["host_ip,window_date,score"]
        for (host_ip, window_date), score in zip(data.row_keys, scores):
            lines.append(f"{host_ip},{window_date},{repr(float(score))}")
        (tmp / "predictions.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        write_manifest(
            tmp,
            "predict",
            inputs={"features": str(features), "model": str(model_path)},
            params={"model_kind": model_kind},
            started=started,
        )


def read_predictions(path: Path) -> list[tuple[str, str, float]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "host_ip,window_date,score":
        raise PipelineError(f"{path}: expected 'host_ip,window_date,score' header")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            host_ip, window_date, score = line.split(",")
            out.append((host_ip, window_date, float(score)))
        except ValueError:
            raise PipelineError(f"{path}:{lineno}: expected host_ip,window_date,score, got {line!r}") from None
    return out


def run_triage(
    predictions: Path,
    features: Path,
    out: Path,
    deny: list[Path] = (),
    allow: list[Path] = (),
    cdn: list[Path] = (),
    sinkhole: list[Path] = (),
    triage_config: Path | None = None,
    threshold: float | None = None,
) -> None:
    started = _now()
    flagged = read_predictions(_require_file(predictions, "predictions file"))
    data = load_feature_matrix(_require_file(features, "feature matrix"))
    feature_rows = {
        key: dict(zip(data.feature_names, map(float, row))) for key, row in zip(data.row_keys, data.X)
    }
    cfg = TriageConfig.from_file(triage_config) if triage_config else TriageConfig()
    if threshold is not None:
        cfg = dataclasses.replace(cfg, threshold=threshold)
    lists = []
    for kind, paths in (("deny", deny), ("allow", allow), ("cdn_cloud", cdn), ("sinkhole", sinkhole)):
        for path in paths:
            lists.append(load_ip_list(_require_file(path, f"{kind} list"), kind))
    decisions = triage(flagged, lists, build_rules(cfg), feature_rows)
    counts: dict[str, int] = {}
    for d in decisions:
        counts[d.outcome] = counts.get(d.outcome, 0) + 1
    with staged_output(out) as tmp:
        write_decisions(tmp / "decisions.csv", decisions)
        (tmp / "triage_summary.json").write_text(
            json.dumps(
                {"outcomes": counts, "config": dataclasses.asdict(cfg), "lists": list_summary(lists, decisions)},
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        write_manifest(
            tmp,
            "triage",
            inputs={
                "predictions": str(predictions),
                "features": str(features),
                "lists": [str(p) for group in (deny, allow, cdn, sinkhole) for p in group],
            },
            params={"config": dataclasses.asdict(cfg)},
            started=started,
        )


def run_pipeline(
    out: Path,
    seed: int,
    scenario: str = "default",
    c2_hosts: int = 50,
    benign_hosts: int = 250,
    folds: int = 10,
    bootstrap: int = 1000,
    threshold: float = 0.5,
    jobs: int = 1,
    ablate_distributional: bool = False,
    importance_repeats: int = 5,
) -> None:
    started = _now()
    out = Path(out)
    if out.exists():
        raise PipelineError(f"output path already exists: {out}")
    out.mkdir(parents=True)

    base_day = default_scenario().day_start_ms
    run_generate(
        out / "train_data",
        seed=child_seed(seed, NS_PIPELINE, 0),
        scenario=scenario,
        c2_hosts=c2_hosts,
        benign_hosts=benign_hosts,
        day_start_ms=base_day,
    )
    run_generate(
        out / "test_data",
        seed=child_seed(seed, NS_PIPELINE, 1),
        scenario=scenario,
        c2_hosts=c2_hosts,
        benign_hosts=benign_hosts,
        day_start_ms=base_day + DAY_MS,
    )
    for split in ("train", "test"):
        run_featurize(
            flows=out / f"{split}_data" / "flows.csv",
            internal_space=out / f"{split}_data" / "internal_space.txt",
            labels=out / f"{split}_data" / "labels.csv",
            out=out / f"features_{split}",
            ablate_distributional=ablate_distributional,
        )
    run_train(
        out / "features_train" / "features.csv",
        out / "models",
        seed=child_seed(seed, NS_PIPELINE, 2),
        folds=folds,
        jobs=jobs,
    )
    run_evaluate(
        out / "features_test" / "features.csv",
        out / "models",
        out / "evaluation",
        bootstrap=bootstrap,
        threshold=threshold,
        seed=child_seed(seed, NS_PIPELINE, 3),
        importance_repeats=importance_repeats,
    )
    run_predict(
        out / "features_test" / "features.csv",
        out / "models",
        out / "predictions",
        model_kind="stack",
    )
    run_triage(
        out / "predictions" / "predictions.csv",
        out / "features_test" / "features.csv",
        out / "triage",
        deny=[out / "test_data" / "deny_sample.txt"],
        allow=[out / "test_data" / "allow_sample.txt"],
        threshold=threshold,
    )
    write_manifest(
        out,
        "pipeline",
        inputs={},
        params={
            "seed": seed,
            "scenario": scenario,
            "c2_hosts": c2_hosts,
            "benign_hosts": benign_hosts,
            "folds": folds,
            "bootstrap": bootstrap,
            "threshold": threshold,
            "jobs": jobs,
            "ablate_distributional": ablate_distributional,
        },
        started=started,
    )


def _int_at_least(k: int):
    """An argparse type for integers >= k, so a bad count fails before any stage runs."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < k:
            raise argparse.ArgumentTypeError(f"expected an integer >= {k}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="c2sift", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a labeled synthetic scenario")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scenario", choices=("default", "overlap"), default="default")
    p.add_argument("--c2-hosts", type=int, default=50)
    p.add_argument("--benign-hosts", type=int, default=250)

    p = sub.add_parser("featurize", help="flows -> per-host feature matrix")
    p.add_argument("--flows", required=True, type=Path)
    p.add_argument("--internal-space", required=True, type=Path)
    p.add_argument("--labels", type=Path)
    p.add_argument("--feature-config", type=Path)
    p.add_argument("--schema", type=Path)
    p.add_argument("--ablate-distributional", action="store_true")
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("train", help="tune and fit the six bases plus the stack")
    p.add_argument("--features", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--folds", type=_int_at_least(2), default=10)
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help="worker processes for all of train (default 1)")

    p = sub.add_parser("evaluate", help="bootstrap metrics and importance on held-out data")
    p.add_argument("--features", required=True, type=Path)
    p.add_argument("--model-dir", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--bootstrap", type=_int_at_least(1), default=1000)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--importance-kind", default="rf")
    p.add_argument("--importance-repeats", type=_int_at_least(1), default=5)

    p = sub.add_parser("predict", help="score a feature matrix with a trained model")
    p.add_argument("--features", required=True, type=Path)
    p.add_argument("--model-dir", required=True, type=Path)
    p.add_argument("--model", default="stack")
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("triage", help="filter predictions through lists and rules")
    p.add_argument("--predictions", required=True, type=Path)
    p.add_argument("--features", required=True, type=Path)
    p.add_argument("--deny", type=Path, action="append", default=[])
    p.add_argument("--allow", type=Path, action="append", default=[])
    p.add_argument("--cdn", type=Path, action="append", default=[])
    p.add_argument("--sinkhole", type=Path, action="append", default=[])
    p.add_argument("--triage-config", type=Path)
    p.add_argument("--threshold", type=float)
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("pipeline", help="full synthetic run: generate through triage")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scenario", choices=("default", "overlap"), default="default")
    p.add_argument("--c2-hosts", type=int, default=50)
    p.add_argument("--benign-hosts", type=int, default=250)
    p.add_argument("--folds", type=_int_at_least(2), default=10)
    p.add_argument("--bootstrap", type=_int_at_least(1), default=1000)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help="worker processes for all of train (default 1)")
    p.add_argument("--ablate-distributional", action="store_true")
    p.add_argument("--importance-repeats", type=_int_at_least(1), default=5)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            run_generate(args.out, args.seed, args.scenario, args.c2_hosts, args.benign_hosts)
        elif args.command == "featurize":
            run_featurize(
                args.flows,
                args.internal_space,
                args.out,
                labels=args.labels,
                feature_config=args.feature_config,
                schema=args.schema,
                ablate_distributional=args.ablate_distributional,
            )
        elif args.command == "train":
            run_train(args.features, args.out, args.seed, args.folds, args.jobs)
        elif args.command == "evaluate":
            run_evaluate(
                args.features,
                args.model_dir,
                args.out,
                bootstrap=args.bootstrap,
                threshold=args.threshold,
                seed=args.seed,
                importance_kind=args.importance_kind,
                importance_repeats=args.importance_repeats,
            )
        elif args.command == "predict":
            run_predict(args.features, args.model_dir, args.out, args.model)
        elif args.command == "triage":
            run_triage(
                args.predictions,
                args.features,
                args.out,
                deny=args.deny,
                allow=args.allow,
                cdn=args.cdn,
                sinkhole=args.sinkhole,
                triage_config=args.triage_config,
                threshold=args.threshold,
            )
        elif args.command == "pipeline":
            run_pipeline(
                args.out,
                args.seed,
                scenario=args.scenario,
                c2_hosts=args.c2_hosts,
                benign_hosts=args.benign_hosts,
                folds=args.folds,
                bootstrap=args.bootstrap,
                threshold=args.threshold,
                jobs=args.jobs,
                ablate_distributional=args.ablate_distributional,
                importance_repeats=args.importance_repeats,
            )
    except (PipelineError, ValueError, KeyError, OSError) as exc:
        print(f"c2sift {args.command}: error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
