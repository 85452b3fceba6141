"""Single entry point: generate -> featurize -> train -> evaluate -> predict -> triage.

Every command runs inside ``stage``: it refuses an existing output
directory before reading any input, writes into a staging directory that
is renamed only on success, so failures never leave partial outputs
behind, and drops a run_manifest.json with sha256 checksums of
everything it wrote. All randomness derives from --seed; rerunning a
command with identical inputs reproduces identical checksums.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import sys
from contextlib import contextmanager, suppress
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

from . import __version__
from .aggregate import InternalSpace, group_daily
from .ensemble import fit_stack, stack_tasks
from .evaluate import (
    CvResult,
    bootstrap_indices,
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
from .learners.artifact import decode_model
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
KNOWN_BAD = 5  # hosts in generate's deny_sample.txt
KNOWN_BENIGN = 3  # hosts in generate's allow_sample.txt


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


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


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
    _write_json(Path(out_dir) / "run_manifest.json", manifest)


def read_manifest(out_dir: Path) -> dict:
    return json.loads((Path(out_dir) / "run_manifest.json").read_text(encoding="utf-8"))


@contextmanager
def stage(out: Path, command: str, inputs: dict, params: dict):
    """Run one command's body into ``out``, all or nothing.

    An existing ``out`` is refused before the body runs, so no input is
    read. The body gets a staging directory and an ``extra`` dict of
    manifest blocks to fill (``signals``, ``timings``); ``params`` may
    also be filled in by the body. On success run_manifest.json is
    written, with ``timings.total_s``, and staging is renamed to ``out``;
    on any exception staging, and any parent directory it had to create,
    is removed.
    """
    out = Path(out)
    if out.exists():
        raise PipelineError(f"output path already exists: {out}")
    started, clock = _now(), perf_counter()
    staging = out.with_name(out.name + ".staging")
    if staging.exists():
        shutil.rmtree(staging)
    new_parents = [directory for directory in staging.parents if not directory.exists()]
    staging.mkdir(parents=True)
    extra = {"timings": {}}
    try:
        yield staging, extra
        extra["timings"]["total_s"] = perf_counter() - clock
        write_manifest(staging, command, inputs, params, started, **extra)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        for directory in new_parents:  # innermost first
            with suppress(OSError):  # not empty: something else wrote there meanwhile
                directory.rmdir()
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
    day_start_ms: int | None = None,
) -> None:
    params = {"seed": seed, "scenario": scenario, "c2_hosts": c2_hosts, "benign_hosts": benign_hosts}
    with stage(out, "generate", {}, params) as (tmp, _):
        factory = {"default": default_scenario, "overlap": overlap_scenario}.get(scenario)
        if factory is None:
            raise PipelineError(f"unknown scenario {scenario!r} (default, overlap)")
        cfg = factory(seed=seed, n_c2=c2_hosts, n_benign=benign_hosts)
        if day_start_ms is not None:
            cfg = dataclasses.replace(cfg, day_start_ms=day_start_ms)
        params["day_start_ms"] = cfg.day_start_ms
        summary = generate(cfg, tmp / "flows.csv", tmp / "labels.csv")
        (tmp / "internal_space.txt").write_text(INTERNAL_SPACE_CIDR + "\n", encoding="utf-8")
        malicious = sorted(h for h, p in summary.hosts.items() if p.label == LABEL_MALICIOUS)
        benign = sorted(h for h, p in summary.hosts.items() if p.label == LABEL_BENIGN)
        (tmp / "deny_sample.txt").write_text(
            "# sample of already-known bad hosts\n" + "\n".join(malicious[:KNOWN_BAD]) + "\n",
            encoding="utf-8",
        )
        (tmp / "allow_sample.txt").write_text(
            "# sample of vetted hosts\n" + "\n".join(benign[:KNOWN_BENIGN]) + "\n", encoding="utf-8"
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
    inputs = {
        "flows": str(flows),
        "internal_space": str(internal_space),
        "labels": str(labels) if labels else None,
        "feature_config": str(feature_config) if feature_config else None,
        "schema": str(schema) if schema else None,
    }
    params = {"ablate_distributional": ablate_distributional}
    with stage(out, "featurize", inputs, params) as (tmp, extra):
        flows = _require_file(flows, "flow file")
        internal_space = _require_file(internal_space, "internal-space config")
        schema_map = read_schema(_require_file(schema, "schema config")) if schema else identity_schema()
        cfg = FeatureConfig.from_file(_require_file(feature_config, "feature config")) if feature_config else FeatureConfig()
        params["config"] = dataclasses.asdict(cfg)
        label_map = read_labels(_require_file(labels, "label file")) if labels else None

        clock = perf_counter()
        table, stats = parse_flow_file(flows, schema_map)
        parsed = perf_counter()
        space = InternalSpace.from_file(internal_space)
        host_days, non_boundary = group_daily(table, space)
        grouped = perf_counter()
        vectors = featurize_aggregates(host_days, cfg)
        extra["timings"].update(parse_s=parsed - clock, group_s=grouped - parsed, featurize_s=perf_counter() - grouped)
        write_feature_matrix(
            tmp / "features.csv",
            vectors,
            labels=label_map,
            drop_block="distributional" if ablate_distributional else None,
        )
        _write_json(
            tmp / "ingest_stats.json",
            {
                "lines_read": stats.lines_read,
                "records_accepted": stats.records_accepted,
                "records_rejected": stats.records_rejected,
                "reject_reasons": stats.reject_reasons,
                "non_boundary": non_boundary,
                "host_days": len(vectors),
            },
        )


def _refit(kind: str, data, params: dict, seed: int):
    """Full-data fit of a kind's chosen cell: the model saved as <kind>.json and nested in stack.json."""
    return fit_model(kind, data, params, seed)


def run_train(features: Path, out: Path, seed: int, folds: int = 10, jobs: int = 1) -> None:
    """Tune and fit the six bases and the stack on one pool of ``jobs`` workers.

    The lasso's grid becomes one cell per penalty of a path fixed from all
    rows. Every kind's CV fits are queued up front, in ``BASE_KINDS``
    order, and kinds are waited for in that order. As each kind's CV is
    in, its full-data refit and its stack OOF fits are queued; only the
    meta GLM waits for all kinds. The stack nests the full-data fits saved
    as ``<kind>.json``. Every fit keeps its own seed and results reduce
    by key, so the outputs are identical for any ``jobs``.
    """
    chosen: dict[str, dict] = {}
    params = {"seed": seed, "folds": folds, "jobs": jobs, "chosen": chosen}
    with stage(out, "train", {"features": str(features)}, params) as (tmp, extra):
        clock = perf_counter()
        data = load_feature_matrix(_require_file(features, "feature matrix"))
        data.require_training_labels()
        grid = default_grid()
        grid = dataclasses.replace(grid, lasso=tuple(cell for spec in grid.lasso for cell in lasso_cells(data, spec)))
        cv_seed, refit_seed, stack_seed = (child_seed(seed, NS_PIPELINE, i) for i in (11, 12, 13))
        cv_results: dict[str, CvResult] = {}
        refits = {}
        cv_done_s = {}
        with TaskPool(jobs) as pool:
            for kind in BASE_KINDS:
                pool.submit(cv_tasks(data, kind, grid, folds, cv_seed))
            for kind in BASE_KINDS:
                cv_results[kind] = cv_tune(data, kind, grid, k=folds, seed=cv_seed, pool=pool)
                chosen[kind] = cv_results[kind].best_params
                refits[kind] = pool.submit([Task(("refit", kind), _refit, (kind, data, chosen[kind], refit_seed))])[0]
                pool.submit(stack_tasks(data, BASE_KINDS.index(kind), (kind, chosen[kind]), folds, stack_seed))
                cv_done_s[kind] = perf_counter() - clock
                print(
                    f"c2sift train: {kind} CV done at {cv_done_s[kind]:.1f} s, chose {json.dumps(chosen[kind], sort_keys=True)}",
                    file=sys.stderr,
                    flush=True,
                )
            artifacts = {kind: future.result() for kind, future in refits.items()}
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
        extra["signals"] = {
            "lasso": {
                "converged": lasso_meta["converged"],
                "path_computed": lasso_meta["path_computed"],
                "n_lambdas": len(lasso_meta["lambda_path"]),
            },
            "stack_meta_glm": {key: stack.parameters["meta"].training_meta[key] for key in ("converged", "separation")},
        }
        extra["timings"].update(cv_done_s=cv_done_s, stack_done_s=stack_done_s)
        for kind, artifact in artifacts.items():
            save_model(artifact, tmp / f"{kind}.json")
        save_model(stack, tmp / "stack.json")
        write_cv_tables(tmp / "cv_tables.csv", cv_results)


def _load_model_dir(model_dir: Path) -> dict:
    model_dir = Path(model_dir)
    if not model_dir.is_dir():
        raise PipelineError(f"model directory not found: {model_dir}")
    models, files = {}, {}
    for path in sorted(model_dir.glob("*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise PipelineError(f"{path}: not valid JSON: {exc}") from exc
        if isinstance(payload, dict) and payload.get("format") == "c2sift-model":
            try:
                artifact = decode_model(payload)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
            if artifact.kind in files:
                raise PipelineError(f"two {artifact.kind} models in {model_dir}: {files[artifact.kind].name} and {path.name}")
            models[artifact.kind], files[artifact.kind] = artifact, path
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
    inputs = {"features": str(features), "model_dir": str(model_dir)}
    params = {
        "bootstrap": bootstrap,
        "threshold": threshold,
        "seed": seed,
        "importance_kind": importance_kind,
        "importance_repeats": importance_repeats,
    }
    with stage(out, "evaluate", inputs, params) as (tmp, extra):
        data = load_feature_matrix(_require_file(features, "feature matrix"))
        if data.y is None:
            raise PipelineError(f"feature matrix {features} has no label column; evaluation needs labels")
        models = _load_model_dir(model_dir)
        if importance_kind and importance_kind not in models:
            raise PipelineError(f"importance model {importance_kind!r} not in {model_dir}")
        reports = []
        timings = extra["timings"]
        boot_seed = child_seed(seed, NS_PIPELINE, 20)
        clock = perf_counter()
        resamples = bootstrap_indices(data.y, bootstrap, boot_seed)  # one draw, shared by every model
        timings.update(bootstrap_s=perf_counter() - clock, importance_s=0.0)
        for kind in sorted(models):
            scores = predict_proba(models[kind], data.X, data.feature_names)
            clock = perf_counter()
            reports.append(evaluate_scores(kind, scores, data.y, bootstrap, boot_seed, threshold, resamples))
            timings["bootstrap_s"] += perf_counter() - clock
        del resamples  # free the resample matrix before importance allocates its own blocks
        if importance_kind:
            clock = perf_counter()
            importance = permutation_importance(
                models[importance_kind], data, repeats=importance_repeats, seed=child_seed(seed, NS_PIPELINE, 21)
            )
            timings["importance_s"] = perf_counter() - clock
            write_importance(tmp / f"importance_{importance_kind}.csv", importance)
        write_evaluation(tmp / "evaluation.json", reports)
        write_bootstrap_table(tmp / "bootstrap_metrics.csv", reports)


def run_predict(features: Path, model_dir: Path, out: Path, model_kind: str = "stack") -> None:
    model_path = Path(model_dir) / f"{model_kind}.json"
    inputs = {"features": str(features), "model": str(model_path)}
    with stage(out, "predict", inputs, {"model_kind": model_kind}) as (tmp, _):
        data = load_feature_matrix(_require_file(features, "feature matrix"))
        artifact = load_model(_require_file(model_path, f"model artifact {model_kind}"))
        try:
            scores = predict_proba(artifact, data.X, data.feature_names)
        except ValueError as exc:
            raise PipelineError(f"predict failed on {features}: {exc}") from exc
        lines = ["host_ip,window_date,score"]
        for (host_ip, window_date), score in zip(data.row_keys, scores):
            lines.append(f"{host_ip},{window_date},{repr(float(score))}")
        (tmp / "predictions.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    list_paths = (("deny", deny), ("allow", allow), ("cdn_cloud", cdn), ("sinkhole", sinkhole))
    inputs = {
        "predictions": str(predictions),
        "features": str(features),
        "lists": [str(p) for _, group in list_paths for p in group],
    }
    params = {}
    with stage(out, "triage", inputs, params) as (tmp, _):
        flagged = read_predictions(_require_file(predictions, "predictions file"))
        data = load_feature_matrix(_require_file(features, "feature matrix"))
        feature_rows = {
            key: dict(zip(data.feature_names, map(float, row))) for key, row in zip(data.row_keys, data.X)
        }
        cfg = TriageConfig.from_file(triage_config) if triage_config else TriageConfig()
        if threshold is not None:
            cfg = dataclasses.replace(cfg, threshold=threshold)
        params["config"] = dataclasses.asdict(cfg)
        lists = [load_ip_list(_require_file(path, f"{kind} list"), kind) for kind, group in list_paths for path in group]
        decisions = triage(flagged, lists, build_rules(cfg), feature_rows)
        counts: dict[str, int] = {}
        for d in decisions:
            counts[d.outcome] = counts.get(d.outcome, 0) + 1
        write_decisions(tmp / "decisions.csv", decisions)
        _write_json(
            tmp / "triage_summary.json",
            {"outcomes": counts, "config": params["config"], "lists": list_summary(lists, decisions)},
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
    """Every stage on two synthetic days, each into its own directory under ``out``.

    The pipeline itself is not staged: a staged pipeline would hand its
    stages inputs under ``out``'s staging path, and their manifests would
    record those paths.
    """
    started, clock = _now(), perf_counter()
    out = Path(out)
    if out.exists():
        raise PipelineError(f"output path already exists: {out}")
    out.mkdir(parents=True)

    base_day = default_scenario().day_start_ms
    for day, split in enumerate(("train", "test")):
        day_dir = out / f"{split}_data"
        run_generate(
            day_dir,
            seed=child_seed(seed, NS_PIPELINE, day),
            scenario=scenario,
            c2_hosts=c2_hosts,
            benign_hosts=benign_hosts,
            day_start_ms=base_day + day * DAY_MS,
        )
        run_featurize(
            flows=day_dir / "flows.csv",
            internal_space=day_dir / "internal_space.txt",
            labels=day_dir / "labels.csv",
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
            "importance_repeats": importance_repeats,
        },
        started=started,
        timings={"total_s": perf_counter() - clock},
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
    p.add_argument("--model", dest="model_kind", default="stack")
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


COMMANDS = {
    "generate": run_generate,
    "featurize": run_featurize,
    "train": run_train,
    "evaluate": run_evaluate,
    "predict": run_predict,
    "triage": run_triage,
    "pipeline": run_pipeline,
}


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    try:
        COMMANDS[command](**args)
    except (PipelineError, ValueError, KeyError, OSError) as exc:
        print(f"c2sift {command}: error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
