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
import inspect
import json
import os
import shutil
import sys
import typing
from contextlib import contextmanager, suppress
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

# before numpy loads: BLAS runs single-threaded unless the environment says otherwise (--jobs is the parallelism)
for _threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_threads, "1")

import numpy as np  # noqa: E402

from . import __version__  # noqa: E402
from .aggregate import InternalSpace, group_daily  # noqa: E402
from .ensemble import fit_stack, stack_tasks  # noqa: E402
from .evaluate import (  # noqa: E402
    CvResult,
    check_threshold,
    cv_tasks,
    cv_tune,
    evaluate_scores,
    permutation_importance,
    write_bootstrap_table,
    write_cv_tables,
    write_evaluation,
    write_importance,
)
from .features import FeatureConfig, block_ranges, featurize_aggregates  # noqa: E402
from .flows import identity_schema, parse_flow_file, read_schema  # noqa: E402
from .learners import (  # noqa: E402
    BASE_KINDS,
    default_grid,
    fit_lasso,  # noqa: F401  tracer-only: perfbench/tracing.py wraps cli.fit_lasso by name
    fit_model,
    load_feature_matrix,
    load_model,
    predict_proba,
    save_model,
)
from .learners.data import write_feature_matrix  # noqa: E402
from .learners.linear import lasso_cells  # noqa: E402
from .rng import NS_PIPELINE, child_seed  # noqa: E402
from .synthgen import (  # noqa: E402
    DAY_MS,
    LABEL_BENIGN,
    LABEL_MALICIOUS,
    default_scenario,
    generate,
    overlap_scenario,
    read_labels,
)
from .tasks import Task, TaskPool  # noqa: E402
from .triage import TriageConfig, build_rules, list_summary, load_ip_list, triage, write_decisions  # noqa: E402

INTERNAL_SPACE_CIDR = "10.0.0.0/8"
KNOWN_BAD = 5  # hosts in generate's deny_sample.txt
KNOWN_BENIGN = 3  # hosts in generate's allow_sample.txt
SCENARIOS = {"default": default_scenario, "overlap": overlap_scenario}  # --scenario's choices


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
    """``payload`` as indented JSON; a path in it is written as its string."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=os.fspath) + "\n", encoding="utf-8")


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


def _split_arguments(run, arguments: dict) -> tuple[dict, dict]:
    """``run``'s inputs and params, from its ``locals()`` at entry: the inputs are
    its parameters typed ``Path`` or ``list[Path]`` (or either ``| None``), the
    params all the others; ``out`` is neither."""
    hints = typing.get_type_hints(run)
    inputs, params = {}, {}
    for name in inspect.signature(run).parameters:
        if name != "out":
            (inputs if _bare(hints[name]) in (Path, list[Path]) else params)[name] = arguments[name]
    return inputs, params


@contextmanager
def stage(run, arguments: dict):
    """Run the body of the command ``run`` into its ``out``, all or nothing.

    ``arguments`` is ``run``'s ``locals()`` as its first statement, so it
    holds exactly its parameters. An existing ``out`` is refused first,
    then any given input path that is not a file (``model_dir``: not a
    directory), naming its flag, so no input is read before both checks
    pass. The body gets a staging directory and the manifest's blocks to
    fill: ``params`` (the body may add to them), ``timings`` and any other
    block (``signals``). On success run_manifest.json is written, with
    ``timings.total_s``, and staging is renamed to ``out``; on any
    exception staging, and any parent directory it had to create, is
    removed.
    """
    out = Path(arguments["out"])
    if out.exists():
        raise PipelineError(f"output path already exists: {out}")
    inputs, params = _split_arguments(run, arguments)
    for name, value in inputs.items():
        for path in value if isinstance(value, list) else [value]:
            if path is not None and not (Path(path).is_dir() if name == "model_dir" else Path(path).is_file()):
                raise PipelineError(f"{_flag(name)} not found: {path}")
    started, clock = _now(), perf_counter()
    staging = out.with_name(out.name + ".staging")
    if staging.exists():
        shutil.rmtree(staging)
    new_parents = [directory for directory in staging.parents if not directory.exists()]
    staging.mkdir(parents=True)
    manifest = {"inputs": inputs, "params": params, "timings": {}}
    try:
        yield staging, manifest
        manifest["timings"]["total_s"] = perf_counter() - clock
        write_manifest(staging, run.__name__.removeprefix("run_"), started=started, **manifest)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        for directory in new_parents:  # innermost first
            with suppress(OSError):  # not empty: something else wrote there meanwhile
                directory.rmdir()
        raise
    os.replace(staging, out)


def run_generate(
    out: Path,
    seed: int = 0,
    scenario: str = "default",
    c2_hosts: int = 50,
    benign_hosts: int = 250,
    day_start_ms: int | None = None,
) -> None:
    with stage(run_generate, locals()) as (tmp, manifest):
        factory = SCENARIOS.get(scenario)
        if factory is None:
            raise PipelineError(f"unknown scenario {scenario!r} ({', '.join(SCENARIOS)})")
        cfg = factory(seed=seed, n_c2=c2_hosts, n_benign=benign_hosts)
        if day_start_ms is not None:
            cfg = dataclasses.replace(cfg, day_start_ms=day_start_ms)
        manifest["params"]["day_start_ms"] = cfg.day_start_ms
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
    with stage(run_featurize, locals()) as (tmp, manifest):
        schema_map = read_schema(schema) if schema else identity_schema()
        cfg = FeatureConfig.from_file(feature_config) if feature_config else FeatureConfig()
        manifest["params"]["config"] = dataclasses.asdict(cfg)
        label_map = read_labels(labels) if labels else None

        clock = perf_counter()
        table, stats = parse_flow_file(flows, schema_map)
        parsed = perf_counter()
        space = InternalSpace.from_file(internal_space)
        host_days, non_boundary = group_daily(table, space)
        grouped = perf_counter()
        data = featurize_aggregates(host_days, cfg)
        manifest["timings"].update(parse_s=parsed - clock, group_s=grouped - parsed, featurize_s=perf_counter() - grouped)
        if not data.n_rows:
            raise PipelineError(
                f"no host-days in {flows}: {stats.records_accepted} flows accepted, {non_boundary} of them not boundary flows"
            )
        if label_map is not None:
            unlabeled = next((host for host, _ in data.row_keys if host not in label_map), None)
            if unlabeled is not None:
                raise ValueError(f"no label for host {unlabeled}")
            data = dataclasses.replace(data, y=np.array([label_map[host] for host, _ in data.row_keys]))
        if ablate_distributional:
            dropped = block_ranges(cfg)["distributional"]
            keep = [j for j in range(len(data.feature_names)) if j not in dropped]
            data = dataclasses.replace(data, X=data.X[:, keep], feature_names=tuple(data.feature_names[j] for j in keep))
        write_feature_matrix(tmp / "features.csv", data)
        _write_json(
            tmp / "ingest_stats.json",
            {
                "lines_read": stats.lines_read,
                "records_accepted": stats.records_accepted,
                "records_rejected": stats.records_rejected,
                "reject_reasons": stats.reject_reasons,
                "non_boundary": non_boundary,
                "host_days": data.n_rows,
            },
        )


def _refit(kind: str, data, params: dict, seed: int):
    """Full-data fit of a kind's chosen cell: the model saved as <kind>.json and nested in stack.json."""
    return fit_model(kind, data, params, seed)


def run_train(features: Path, out: Path, seed: int = 0, folds: int = 10, jobs: int = 1) -> None:
    """Tune and fit the six bases and the stack on one pool of ``jobs`` workers.

    The lasso's grid becomes one cell per penalty of a path fixed from all
    rows. Every kind's CV fits are queued up front, in ``BASE_KINDS``
    order, and kinds are waited for in that order. As each kind's CV is
    in, its full-data refit and its stack OOF fits are queued; only the
    meta GLM waits for all kinds. The stack nests the full-data fits saved
    as ``<kind>.json``. Every fit keeps its own seed and results reduce
    by key, so the outputs are identical for any ``jobs``.
    """
    with stage(run_train, locals()) as (tmp, manifest):
        clock = perf_counter()
        chosen = manifest["params"]["chosen"] = {}
        data = load_feature_matrix(features)
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
        manifest["signals"] = {
            "lasso": {
                "converged": lasso_meta["converged"],
                "path_computed": lasso_meta["path_computed"],
                "n_lambdas": len(lasso_meta["lambda_path"]),
            },
            "stack_meta_glm": {key: stack.parameters["meta"].training_meta[key] for key in ("converged", "separation")},
        }
        manifest["timings"].update(cv_done_s=cv_done_s, stack_done_s=stack_done_s)
        for kind, artifact in artifacts.items():
            save_model(artifact, tmp / f"{kind}.json")
        save_model(stack, tmp / "stack.json")
        write_cv_tables(tmp / "cv_tables.csv", cv_results)


def _load_model_dir(model_dir: Path) -> dict:
    """Every model in ``model_dir`` by kind: each ``*.json`` but run_manifest.json must be one model file."""
    models, files = {}, {}
    for path in sorted(Path(model_dir).glob("*.json")):
        if path.name == "run_manifest.json":
            continue
        artifact = load_model(path)
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
    with stage(run_evaluate, locals()) as (tmp, manifest):
        data = load_feature_matrix(features)
        if data.y is None:
            raise PipelineError(f"feature matrix {features} has no label column; evaluation needs labels")
        models = _load_model_dir(model_dir)
        if importance_kind and importance_kind not in models:
            raise PipelineError(f"importance model {importance_kind!r} not in {model_dir}")
        scores = {kind: predict_proba(models[kind], data.X, data.feature_names) for kind in sorted(models)}
        clock = perf_counter()
        reports = evaluate_scores(scores, data.y, bootstrap, child_seed(seed, NS_PIPELINE, 20), threshold)
        manifest["timings"].update(bootstrap_s=perf_counter() - clock, importance_s=0.0)
        if importance_kind:
            clock = perf_counter()
            importance = permutation_importance(
                models[importance_kind], data, repeats=importance_repeats, seed=child_seed(seed, NS_PIPELINE, 21)
            )
            manifest["timings"]["importance_s"] = perf_counter() - clock
            write_importance(tmp / f"importance_{importance_kind}.csv", importance)
        write_evaluation(tmp / "evaluation.json", reports)
        write_bootstrap_table(tmp / "bootstrap_metrics.csv", reports)


def run_predict(features: Path, model_dir: Path, out: Path, model_kind: str = "stack") -> None:
    with stage(run_predict, locals()) as (tmp, _):
        model = Path(model_dir) / f"{model_kind}.json"
        if not model.is_file():
            raise PipelineError(f"--model {model_kind} not found: {model}")
        data = load_feature_matrix(features)
        artifact = load_model(model)
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
    deny: list[Path] | None = None,
    allow: list[Path] | None = None,
    cdn: list[Path] | None = None,
    sinkhole: list[Path] | None = None,
    triage_config: Path | None = None,
    threshold: float | None = None,
) -> None:
    with stage(run_triage, locals()) as (tmp, manifest):
        flagged = read_predictions(predictions)
        data = load_feature_matrix(features)
        feature_rows = {
            key: dict(zip(data.feature_names, map(float, row))) for key, row in zip(data.row_keys, data.X)
        }
        cfg = TriageConfig.from_file(triage_config) if triage_config else TriageConfig()
        if threshold is not None:
            cfg = dataclasses.replace(cfg, threshold=threshold)
        config = manifest["params"]["config"] = dataclasses.asdict(cfg)
        list_paths = (("deny", deny), ("allow", allow), ("cdn_cloud", cdn), ("sinkhole", sinkhole))
        lists = [load_ip_list(path, kind) for kind, group in list_paths for path in group or ()]
        decisions = triage(flagged, lists, build_rules(cfg), feature_rows)
        counts: dict[str, int] = {}
        for d in decisions:
            counts[d.outcome] = counts.get(d.outcome, 0) + 1
        write_decisions(tmp / "decisions.csv", decisions)
        _write_json(
            tmp / "triage_summary.json",
            {"outcomes": counts, "config": config, "lists": list_summary(lists, decisions)},
        )


def run_pipeline(
    out: Path,
    seed: int = 0,
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
    inputs, params = _split_arguments(run_pipeline, locals())
    started, clock = _now(), perf_counter()
    check_threshold(threshold)  # before any stage runs: triage would refuse it only after train
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
        inputs=inputs,
        params=params,
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


def _probability(text: str) -> float:
    """An argparse type for a finite float in [0, 1], the range of a score threshold; NaN and inf fail."""
    try:
        return check_threshold(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a probability in [0, 1], got {text!r}") from None


_HELP = {
    "generate": "write a labeled synthetic scenario",
    "featurize": "flows -> per-host feature matrix",
    "train": "tune and fit the six bases plus the stack",
    "evaluate": "bootstrap metrics and importance on held-out data",
    "predict": "score a feature matrix with a trained model",
    "triage": "filter predictions through lists and rules",
    "pipeline": "full synthetic run: generate through triage",
}
# What a run_* signature cannot say, by parameter name: argparse settings over the derived ones.
_FLAG_OVERRIDES = {
    "scenario": {"choices": tuple(SCENARIOS)},
    "folds": {"type": _int_at_least(2)},
    "jobs": {"type": _int_at_least(1), "help": "worker processes for all of train (default 1)"},
    "bootstrap": {"type": _int_at_least(1)},
    "importance_repeats": {"type": _int_at_least(1)},
    "threshold": {"type": _probability},
}
_FLAG_NAMES = {"model_kind": "--model", "day_start_ms": None}  # None: no flag; pipeline and API callers set it


def _flag(name: str) -> str | None:
    """The flag of a run_* parameter, None for one that has none."""
    return _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))


def _bare(hint):
    """``hint`` less ``| None``: X | None -> X."""
    if type(None) in typing.get_args(hint):
        return next(arg for arg in typing.get_args(hint) if arg is not type(None))
    return hint


def _flag_settings(hint, default) -> dict:
    """add_argument's settings for a parameter of type ``hint``: a parameter with no default is a required flag."""
    settings = {"required": True} if default is inspect.Parameter.empty else {"default": default}
    hint = _bare(hint)
    if hint is bool:
        settings["action"] = "store_true"
    elif typing.get_origin(hint) is list:
        settings.update(action="append", type=typing.get_args(hint)[0])
    elif hint is not str:
        settings["type"] = hint
    return settings


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per ``COMMANDS`` entry, one flag per parameter of its run_* function."""
    parser = argparse.ArgumentParser(prog="c2sift", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in COMMANDS.items():
        p = sub.add_parser(command, help=_HELP[command])
        hints = typing.get_type_hints(run)
        for name, parameter in inspect.signature(run).parameters.items():
            flag = _flag(name)
            if flag is not None:
                settings = _flag_settings(hints[name], parameter.default)
                p.add_argument(flag, dest=name, **{**settings, **_FLAG_OVERRIDES.get(name, {})})
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
