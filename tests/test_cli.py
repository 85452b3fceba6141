import argparse
import csv
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import c2sift.cli as cli
import c2sift.evaluate as evaluate
from c2sift.flows import CANONICAL_FIELDS
from c2sift.learners import fit_model, load_feature_matrix, save_model
from c2sift.learners.grids import HyperGrid
from c2sift.rng import NS_BOOTSTRAP

from conftest import read_manifest


def lasso_cv_rows(models):
    """The lasso's rows of a train run's cv_tables.csv."""
    with (models / "cv_tables.csv").open(encoding="utf-8", newline="") as handle:
        return [row for row in csv.DictReader(handle) if row["kind"] == "lasso"]


TINY_GRID = HyperGrid(
    rf=({"n_trees": 8, "max_depth": 4, "mtry": "sqrt"},),
    pca_rf=({"n_trees": 8, "max_depth": 4, "mtry": "sqrt", "variance_retained": 0.95},),
    gbm=({"n_rounds": 10, "max_depth": 3, "learning_rate": 0.1},),
    gbm2=({"n_rounds": 10, "max_depth": 3, "learning_rate": 0.1, "lam": 1.0, "gamma": 0.0},),
    glm=({},),
    lasso=({"n_lambdas": 5},),
)


@pytest.fixture
def tiny_grid(monkeypatch):
    monkeypatch.setattr(cli, "default_grid", lambda: TINY_GRID)


def run(args):
    return cli.main([str(a) for a in args])


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "data"
    assert run(["generate", "--out", out, "--seed", "3", "--c2-hosts", "8", "--benign-hosts", "32"]) == 0
    return out


@pytest.fixture
def features(tmp_path, dataset):
    out = tmp_path / "features"
    assert (
        run(
            [
                "featurize",
                "--flows", dataset / "flows.csv",
                "--internal-space", dataset / "internal_space.txt",
                "--labels", dataset / "labels.csv",
                "--out", out,
            ]
        )
        == 0
    )
    return out / "features.csv"


def test_generate_outputs_and_manifest(dataset):
    for name in ("flows.csv", "labels.csv", "internal_space.txt", "deny_sample.txt", "allow_sample.txt"):
        assert (dataset / name).is_file()
    manifest = read_manifest(dataset)
    assert manifest["command"] == "generate"
    assert "flows.csv" in manifest["output_checksums"]
    assert manifest["params"]["seed"] == 3


def test_featurize_matrix(features):
    data = load_feature_matrix(features)
    assert data.n_rows == 40
    assert len(data.feature_names) == 97
    assert data.y is not None and 0 < data.y.sum() < 40


def test_featurize_ablation(tmp_path, dataset):
    out = tmp_path / "ablated"
    feature_config = tmp_path / "features.cfg"
    feature_config.write_text("beacon_tolerance = 0.2\n", encoding="utf-8")
    schema = tmp_path / "schema.cfg"
    schema.write_text("".join(f"{name} = {name}\n" for name in CANONICAL_FIELDS), encoding="utf-8")
    assert (
        run(
            [
                "featurize",
                "--flows", dataset / "flows.csv",
                "--internal-space", dataset / "internal_space.txt",
                "--out", out,
                "--ablate-distributional",
                "--feature-config", feature_config,
                "--schema", schema,
            ]
        )
        == 0
    )
    data = load_feature_matrix(out / "features.csv")
    assert len(data.feature_names) == 31
    assert data.y is None
    # the manifest names every input file and the feature config it used
    manifest = read_manifest(out)
    assert manifest["inputs"]["feature_config"] == str(feature_config)
    assert manifest["inputs"]["schema"] == str(schema)
    assert manifest["inputs"]["labels"] is None
    assert manifest["params"]["config"]["beacon_tolerance"] == 0.2
    assert manifest["params"]["ablate_distributional"] is True


def test_existing_output_rejected(tmp_path, dataset, capsys):
    assert run(["generate", "--out", dataset, "--seed", "3"]) == 2
    assert "already exists" in capsys.readouterr().err


def _never(*args, **kwargs):
    raise AssertionError("an input was read before --out was checked")


@pytest.mark.parametrize("command", ["generate", "featurize", "train", "evaluate", "predict", "triage", "pipeline"])
def test_existing_output_refused_before_any_input_is_read(tmp_path, monkeypatch, capsys, command):
    for reader in ("generate", "parse_flow_file", "load_feature_matrix", "load_model", "read_predictions"):
        monkeypatch.setattr(cli, reader, _never)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for name in ("flows.csv", "internal_space.txt", "features.csv", "predictions.csv", "models/stack.json"):
        (inputs / name).parent.mkdir(exist_ok=True)
        (inputs / name).touch()
    required = {
        "featurize": ["--flows", inputs / "flows.csv", "--internal-space", inputs / "internal_space.txt"],
        "train": ["--features", inputs / "features.csv"],
        "evaluate": ["--features", inputs / "features.csv", "--model-dir", inputs / "models"],
        "predict": ["--features", inputs / "features.csv", "--model-dir", inputs / "models"],
        "triage": ["--predictions", inputs / "predictions.csv", "--features", inputs / "features.csv"],
    }
    out = tmp_path / "out"
    out.mkdir()
    assert run([command, *required.get(command, []), "--out", out]) == 2
    assert "already exists" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["inputs", "out"]
    assert not any(out.iterdir())


def test_each_subcommand_is_its_run_function():
    """main() passes the parsed flags straight through as keyword arguments."""
    parser = cli.build_parser()
    subcommands = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    assert set(subcommands.choices) == set(cli.COMMANDS)
    api_only = {"generate": {"day_start_ms"}}  # set by pipeline and callers of run_generate, no flag
    for command, sub in subcommands.choices.items():
        dests = {action.dest for action in sub._actions if action.dest != "help"}
        parameters = inspect.signature(cli.COMMANDS[command]).parameters
        assert dests == set(parameters) - api_only.get(command, set()), command
        assert all(parameters[name].default is not inspect.Parameter.empty for name in api_only.get(command, ()))


def test_each_flag_default_is_its_run_function_default():
    """Leaving out a flag and leaving out its keyword argument mean the same
    (predict's --model is the keyword model_kind); a required flag is a
    parameter with no default."""
    parser = cli.build_parser()
    subcommands = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    for command, sub in subcommands.choices.items():
        parameters = inspect.signature(cli.COMMANDS[command]).parameters
        for action in sub._actions:
            if action.dest == "help":
                continue
            default = parameters[action.dest].default
            assert action.required == (default is inspect.Parameter.empty), (command, action.dest)
            if not action.required:
                assert action.default == default and type(action.default) is type(default), (command, action.dest)


def test_missing_input_fails_without_partial_output(tmp_path, capsys):
    out = tmp_path / "runs" / "nope"
    assert run(["featurize", "--flows", tmp_path / "absent.csv", "--internal-space", tmp_path / "x", "--out", out]) == 2
    assert "not found" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.iterdir())  # nor the staging dir, nor the parent made for it


def test_failure_inside_staging_leaves_nothing(tmp_path, dataset, capsys):
    out = tmp_path / "feat"
    bad_labels = tmp_path / "labels.csv"
    bad_labels.write_text("host_ip,label\n198.18.1.1,malicious\n", encoding="utf-8")
    rc = run(
        [
            "featurize",
            "--flows", dataset / "flows.csv",
            "--internal-space", dataset / "internal_space.txt",
            "--labels", bad_labels,
            "--out", out,
        ]
    )
    assert rc == 2
    assert "no label for host" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob("*.staging"))


def test_featurize_refuses_a_day_without_host_days(tmp_path, capsys):
    flows = tmp_path / "flows.csv"
    flows.write_text(",".join(CANONICAL_FIELDS) + "\n10.0.0.5,10.0.0.6,50000,443,300,2,1000,2000,6,S\n", encoding="utf-8")
    space = tmp_path / "internal_space.txt"
    space.write_text("10.0.0.0/8\n", encoding="utf-8")
    assert run(["featurize", "--flows", flows, "--internal-space", space, "--out", tmp_path / "feat"]) == 2
    assert "no host-days in" in capsys.readouterr().err
    assert not (tmp_path / "feat").exists()


@pytest.mark.parametrize(
    "text, named",
    [("n_quantiles = x\n", "n_quantiles = 'x'"), ("n_quantile = 4\n", "unknown key 'n_quantile'")],
)
def test_bad_feature_config_names_file_and_key(tmp_path, dataset, capsys, text, named):
    config = tmp_path / "features.cfg"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "feat"
    args = ["--flows", dataset / "flows.csv", "--internal-space", dataset / "internal_space.txt"]
    assert run(["featurize", *args, "--feature-config", config, "--out", out]) == 2
    assert f"{config}: {named}" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob("*.staging"))


@pytest.mark.parametrize(
    "text, named",
    [
        ("min_devices = two\n", "min_devices = 'two'"),
        ("treshold = 0.7\n", "unknown key 'treshold'"),
        ("threshold = nan\n", "threshold = nan"),
        ("threshold = 1.5\n", "threshold = 1.5"),
    ],
)
def test_bad_triage_config_names_file_and_key(tmp_path, dataset, features, capsys, text, named):
    config = tmp_path / "triage.cfg"
    config.write_text(text, encoding="utf-8")
    predictions = tmp_path / "predictions.csv"
    data = load_feature_matrix(features)
    rows = [f"{host},{day},0.9" for host, day in data.row_keys]
    predictions.write_text("\n".join(["host_ip,window_date,score", *rows]) + "\n", encoding="utf-8")
    out = tmp_path / "triage"
    args = ["--predictions", predictions, "--features", features, "--triage-config", config, "--out", out]
    assert run(["triage", *args]) == 2
    assert f"{config}: {named}" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob("*.staging"))


def test_train_evaluate_predict_triage(tmp_path, dataset, features, tiny_grid):
    models = tmp_path / "models"
    assert run(["train", "--features", features, "--out", models, "--seed", "5", "--folds", "4"]) == 0
    for kind in ("rf", "pca_rf", "gbm", "gbm2", "glm", "lasso", "stack"):
        assert (models / f"{kind}.json").is_file()
    assert (models / "cv_tables.csv").is_file()

    evaluation = tmp_path / "eval"
    assert (
        run(
            [
                "evaluate",
                "--features", features,
                "--model-dir", models,
                "--out", evaluation,
                "--bootstrap", "25",
                "--seed", "5",
                "--importance-repeats", "1",
            ]
        )
        == 0
    )
    report = json.loads((evaluation / "evaluation.json").read_text())
    assert set(report) == {"rf", "pca_rf", "gbm", "gbm2", "glm", "lasso", "stack"}
    assert all(0.0 <= r["point_auc"] <= 1.0 for r in report.values())
    assert (evaluation / "bootstrap_metrics.csv").is_file()
    assert (evaluation / "importance_rf.csv").is_file()

    predictions = tmp_path / "preds"
    assert run(["predict", "--features", features, "--model-dir", models, "--out", predictions]) == 0
    scored = cli.read_predictions(predictions / "predictions.csv")
    assert len(scored) == 40

    decisions_dir = tmp_path / "triage"
    assert (
        run(
            [
                "triage",
                "--predictions", predictions / "predictions.csv",
                "--features", features,
                "--deny", dataset / "deny_sample.txt",
                "--allow", dataset / "allow_sample.txt",
                "--out", decisions_dir,
            ]
        )
        == 0
    )
    lines = (decisions_dir / "decisions.csv").read_text().splitlines()
    assert len(lines) == 41
    summary = json.loads((decisions_dir / "triage_summary.json").read_text())
    assert sum(summary["outcomes"].values()) == 40


def test_predict_missing_column_names_it(tmp_path, dataset, features, tiny_grid, capsys):
    models = tmp_path / "models"
    assert run(["train", "--features", features, "--out", models, "--seed", "5", "--folds", "4"]) == 0

    lines = features.read_text().splitlines()
    header = lines[0].split(",")
    drop = header.index("bytes_q95")
    pruned = [",".join(v for i, v in enumerate(line.split(",")) if i != drop) for line in lines]
    crippled = tmp_path / "missing.csv"
    crippled.write_text("\n".join(pruned) + "\n", encoding="utf-8")

    rc = run(["predict", "--features", crippled, "--model-dir", models, "--out", tmp_path / "p2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bytes_q95" in err


def test_truncated_model_file_named(tmp_path, features, capsys):
    data = load_feature_matrix(features)
    models = tmp_path / "models"
    models.mkdir()
    save_model(fit_model("glm", data, {}, seed=1), models / "glm.json")
    save_model(fit_model("rf", data, {"n_trees": 4, "max_depth": 3, "mtry": "sqrt"}, seed=1), models / "rf.json")
    text = (models / "rf.json").read_text()
    (models / "rf.json").write_text(text[: len(text) // 2])
    args = ["evaluate", "--features", features, "--model-dir", models, "--out", tmp_path / "eval", "--bootstrap", "5"]
    rc = run(args + ["--importance-kind", "glm", "--importance-repeats", "1"])
    assert rc == 2
    assert "rf.json" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


def test_model_dir_refuses_two_models_of_one_kind(tmp_path, features, capsys):
    data = load_feature_matrix(features)
    models = tmp_path / "models"
    models.mkdir()
    glm = fit_model("glm", data, {}, seed=1)
    save_model(glm, models / "glm.json")
    save_model(glm, models / "glm_old.json")
    args = ["evaluate", "--features", features, "--model-dir", models, "--out", tmp_path / "eval", "--bootstrap", "5"]
    args += ["--importance-kind", "glm", "--importance-repeats", "1"]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert "glm.json" in err and "glm_old.json" in err
    # a model file it cannot decode is named too
    payload = json.loads((models / "glm_old.json").read_text())
    (models / "glm_old.json").write_text(json.dumps({**payload, "version": 99}))
    assert run(args) == 2
    assert "glm_old.json: artifact version 99" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


def small_model_dir(tmp_path, features):
    data = load_feature_matrix(features)
    models = tmp_path / "models"
    models.mkdir()
    save_model(fit_model("glm", data, {}, seed=1), models / "glm.json")
    save_model(fit_model("rf", data, {"n_trees": 4, "max_depth": 3, "mtry": "sqrt"}, seed=1), models / "rf.json")
    save_model(fit_model("gbm", data, {"n_rounds": 3, "max_depth": 2}, seed=1), models / "gbm.json")
    return models


def test_unknown_importance_kind_fails_before_any_prediction(tmp_path, features, monkeypatch, capsys):
    models = small_model_dir(tmp_path, features)

    def never(*args, **kwargs):
        raise AssertionError("called before the importance kind was checked")

    monkeypatch.setattr(cli, "predict_proba", never)
    monkeypatch.setattr(evaluate, "bootstrap_metrics", never)
    args = ["evaluate", "--features", features, "--model-dir", models, "--out", tmp_path / "eval", "--bootstrap", "5"]
    assert run(args + ["--importance-kind", "lasso"]) == 2
    assert "importance model 'lasso'" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


def test_evaluate_draws_each_resample_once_for_all_models(tmp_path, features, monkeypatch):
    models = small_model_dir(tmp_path, features)
    keys = []
    original = evaluate.substream

    def counting(seed, *key):
        keys.append(key)
        return original(seed, *key)

    monkeypatch.setattr(evaluate, "substream", counting)
    args = ["evaluate", "--features", features, "--model-dir", models, "--out", tmp_path / "eval", "--bootstrap", "9"]
    assert run(args + ["--importance-kind", "glm", "--importance-repeats", "1"]) == 0
    assert [key for key in keys if key[0] == NS_BOOTSTRAP] == [(NS_BOOTSTRAP, b) for b in range(9)]
    with (tmp_path / "eval" / "bootstrap_metrics.csv").open(encoding="utf-8") as handle:
        assert sum(1 for _ in handle) == 1 + 3 * 9


@pytest.mark.parametrize("cells", [("1", "0.5", "abc"), ("yes", "0.5", "0.25")], ids=["feature", "label"])
def test_bad_feature_matrix_cell_named(tmp_path, capsys, cells):
    path = tmp_path / "features.csv"
    path.write_text(
        "host_ip,window_date,label,f0,f1\n198.18.1.1,2022-01-10,0,0.5,0.25\n198.18.1.2,2022-01-10," + ",".join(cells) + "\n",
        encoding="utf-8",
    )
    assert run(["train", "--features", path, "--out", tmp_path / "models"]) == 2
    assert f"{path}:3:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lines, named",
    [
        (["host_ip,window_date,label,a,b,a", "198.18.1.1,2022-01-10,0,0.5,0.25,1", "198.18.1.2,2022-01-10,1,1,2,3"], "feature column 'a' appears twice"),
        (
            ["host_ip,window_date,label,a,b", "198.18.1.1,2022-01-10,0,0.5,0.25", "198.18.1.2,2022-01-10,1,1,2", "198.18.1.1,2022-01-10,1,3,4"],
            ":4: host 198.18.1.1 on 2022-01-10 repeats line 2",
        ),
    ],
    ids=["column", "row"],
)
def test_repeated_feature_or_row_refused(tmp_path, capsys, lines, named):
    path = tmp_path / "features.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["train", "--features", path, "--out", tmp_path / "models"]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "models").exists()


def test_pipeline_determinism(tmp_path, tiny_grid):
    args = [
        "pipeline",
        "--seed", "7",
        "--c2-hosts", "6",
        "--benign-hosts", "24",
        "--folds", "3",
        "--bootstrap", "10",
        "--importance-repeats", "1",
    ]
    assert run(args + ["--out", tmp_path / "run1"]) == 0
    assert run(args + ["--out", tmp_path / "run2"]) == 0
    first = read_manifest(tmp_path / "run1")["output_checksums"]
    second = read_manifest(tmp_path / "run2")["output_checksums"]
    assert first == second
    assert len(first) > 10
    # timings sit in every manifest, outside the checksums
    stage_timings = {
        "": {"total_s"},
        "train_data": {"total_s"},
        "test_data": {"total_s"},
        "features_train": {"parse_s", "group_s", "featurize_s", "total_s"},
        "features_test": {"parse_s", "group_s", "featurize_s", "total_s"},
        "models": {"cv_done_s", "stack_done_s", "total_s"},
        "evaluation": {"bootstrap_s", "importance_s", "total_s"},
        "predictions": {"total_s"},
        "triage": {"total_s"},
    }
    for stage, keys in stage_timings.items():
        manifest = read_manifest(tmp_path / "run1" / stage)
        assert set(manifest["timings"]) == keys
        assert manifest["timings"]["total_s"] >= 0.0
        assert all(seconds >= 0.0 for seconds in manifest["timings"].values() if isinstance(seconds, float))
        assert not any(path.endswith("run_manifest.json") for path in manifest["output_checksums"])


def test_pipeline_dirs_have_one_manifest_each(tmp_path, tiny_grid):
    out = tmp_path / "pipe"
    assert (
        run(
            [
                "pipeline",
                "--out", out,
                "--seed", "1",
                "--c2-hosts", "6",
                "--benign-hosts", "24",
                "--folds", "3",
                "--bootstrap", "5",
                "--importance-repeats", "1",
            ]
        )
        == 0
    )
    for sub in ("train_data", "test_data", "features_train", "features_test", "models", "evaluation", "predictions", "triage"):
        assert (out / sub / "run_manifest.json").is_file()
    assert (out / "run_manifest.json").is_file()
    top = read_manifest(out)
    assert not any(path.endswith("run_manifest.json") for path in top["output_checksums"])
    # every pipeline setting is recorded
    assert set(top["params"]) == set(inspect.signature(cli.run_pipeline).parameters) - {"out"}
    assert top["params"]["importance_repeats"] == 1


def test_jobs_flag_matches_serial(tmp_path, features, tiny_grid):
    m1 = tmp_path / "m1"
    m2 = tmp_path / "m2"
    assert run(["train", "--features", features, "--out", m1, "--seed", "5", "--folds", "4", "--jobs", "1"]) == 0
    assert run(["train", "--features", features, "--out", m2, "--seed", "5", "--folds", "4", "--jobs", "2"]) == 0
    c1 = read_manifest(m1)["output_checksums"]
    c2 = read_manifest(m2)["output_checksums"]
    assert c1 == c2



def test_stack_nests_the_saved_base_models(tmp_path, features, tiny_grid):
    out = tmp_path / "models"
    assert run(["train", "--features", features, "--out", out, "--seed", "5", "--folds", "4", "--jobs", "2"]) == 0
    stack = json.loads((out / "stack.json").read_text())
    kinds = ["rf", "pca_rf", "gbm", "gbm2", "glm", "lasso"]
    assert [kind for kind, _ in stack["parameters"]["base_specs"]] == kinds
    for kind, nested in zip(kinds, stack["parameters"]["base_models"]):
        assert nested == json.loads((out / f"{kind}.json").read_text()), kind
    meta = stack["parameters"]["meta"]
    assert meta["kind"] == "glm" and meta["feature_names"] == kinds
    assert read_manifest(out)["signals"]["stack_meta_glm"] == {
        key: meta["training_meta"][key] for key in ("converged", "separation")
    }
    # the grid's lasso cell becomes one CV cell per penalty, tuned on --folds folds;
    # the chosen cell's path is the nested (and saved) lasso's
    lasso_cv = lasso_cv_rows(out)
    assert len(lasso_cv) == 5
    assert all(len(row["fold_aucs"].split(";")) == 4 for row in lasso_cv)
    chosen = [json.loads(row["params"]) for row in lasso_cv if row["chosen"] == "1"]
    assert chosen == [{"lambda_path": stack["parameters"]["base_models"][5]["training_meta"]["lambda_path"]}]


PAIR_GRID = HyperGrid(
    rf=tuple({"n_trees": n, "max_depth": d, "mtry": "sqrt"} for n in (4, 8) for d in (2, None)),
    pca_rf=tuple({"n_trees": n, "max_depth": d, "mtry": "sqrt", "variance_retained": 0.95} for n in (4, 8) for d in (2, None)),
    gbm=tuple({"n_rounds": n, "max_depth": d, "learning_rate": 0.1} for n in (4, 9) for d in (2, 3)),
    gbm2=tuple({"n_rounds": n, "max_depth": d, "learning_rate": 0.1, "lam": 1.0, "gamma": 0.0} for n in (4, 9) for d in (2, 3)),
    glm=({},),
)


COUNT_FLAGS = {  # each subcommand's count flags; --folds needs 2, the others 1
    "train": ("--jobs", "--folds"),
    "evaluate": ("--bootstrap", "--importance-repeats"),
    "pipeline": ("--jobs", "--folds", "--bootstrap", "--importance-repeats"),
}


@pytest.mark.parametrize("value", ["0", "-1"])
def test_jobs_below_one_rejected_at_the_edge(tmp_path, capsys, value):
    required = {
        "train": ["--features", tmp_path / "x.csv"],
        "evaluate": ["--features", tmp_path / "x.csv", "--model-dir", tmp_path / "models"],
        "pipeline": [],
    }
    for command, flags in COUNT_FLAGS.items():
        for flag in flags:
            for bad in (value, "1") if flag == "--folds" else (value,):
                with pytest.raises(SystemExit) as exc:
                    run([command, *required[command], "--out", tmp_path / "never", flag, bad])
                assert exc.value.code == 2
                assert flag in capsys.readouterr().err
    assert not (tmp_path / "never").exists()
    args = cli.build_parser().parse_args(["pipeline", "--out", "x", "--folds", "2", "--bootstrap", "1", "--importance-repeats", "1"])
    assert (args.folds, args.bootstrap, args.importance_repeats, args.jobs) == (2, 1, 1, 1)


@pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "1.5"])
@pytest.mark.parametrize("command", ["evaluate", "triage", "pipeline"])
def test_threshold_outside_unit_interval_rejected_at_the_edge(tmp_path, capsys, command, value):
    required = {
        "evaluate": ["--features", tmp_path / "x.csv", "--model-dir", tmp_path / "models"],
        "triage": ["--predictions", tmp_path / "p.csv", "--features", tmp_path / "x.csv"],
        "pipeline": [],
    }
    with pytest.raises(SystemExit) as exc:
        run([command, *required[command], "--out", tmp_path / "never", "--threshold", value])
    assert exc.value.code == 2
    assert "--threshold" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()
    for edge in ("0", "1"):  # both ends of [0, 1] are probabilities
        args = cli.build_parser().parse_args([command, *map(str, required[command]), "--out", "x", "--threshold", edge])
        assert args.threshold == float(edge)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.1, 1.5])
def test_pipeline_refuses_a_bad_threshold_before_any_stage(tmp_path, monkeypatch, value):
    def never(*args, **kwargs):
        raise AssertionError("a stage ran before the threshold was checked")

    monkeypatch.setattr(cli, "run_generate", never)
    with pytest.raises(ValueError, match=repr(value)):
        cli.run_pipeline(tmp_path / "never", threshold=value)
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize(
    "argv, parsed",
    [
        (["generate", "--out", "o", "--scenario", "overlap"], {"scenario": "overlap"}),
        (["pipeline", "--out", "o", "--scenario", "default"], {"scenario": "default"}),
        (["generate", "--out", "o", "--scenario", "bogus"], None),
        (["predict", "--features", "f", "--model-dir", "m", "--out", "o", "--model", "gbm"], {"model_kind": "gbm"}),
        (["triage", "--predictions", "p", "--features", "f", "--out", "o", "--deny", "a", "--deny", "b"], {"deny": [Path("a"), Path("b")]}),
        (["featurize", "--flows", "f", "--internal-space", "s", "--ablate-distributional", "--out", "o"], {"ablate_distributional": True}),
        (["pipeline", "--ablate-distributional", "--out", "o"], {"ablate_distributional": True}),
        (["generate", "--out", "o", "--day-start-ms", "0"], None),
    ],
)
def test_what_the_parser_adds_beyond_the_signature(capsys, argv, parsed):
    """The override table and the derived flag kinds: --scenario's choices are
    SCENARIOS' keys, --model is model_kind, list parameters append, bools are
    bare switches, and generate's day_start_ms has no flag."""
    parser = cli.build_parser()
    if "--scenario" in argv:
        subcommands = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
        scenario = next(action for action in subcommands.choices[argv[0]]._actions if action.dest == "scenario")
        assert list(scenario.choices) == list(cli.SCENARIOS)
    if parsed is None:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err
    else:
        args = vars(parser.parse_args(argv))
        assert {dest: args[dest] for dest in parsed} == parsed


def test_run_generate_refuses_an_unknown_scenario(tmp_path):
    """Callers of run_generate bypass --scenario's choices; the function checks the name itself."""
    with pytest.raises(cli.PipelineError, match=r"unknown scenario 'bogus' \(default, overlap\)"):
        cli.run_generate(tmp_path / "data", scenario="bogus")
    assert not list(tmp_path.iterdir())


def test_shared_pool_matches_serial_with_n_rounds_pairs(tmp_path, features, monkeypatch, capsys):
    """gbm/gbm2 cells sharing one boosted fit per (n_rounds, max_depth) group,
    rf/pca_rf cells sharing one forest per (n_trees, max_depth) group and
    train's 20-penalty lasso, on 1 and 2 workers."""
    monkeypatch.setattr(cli, "default_grid", lambda: PAIR_GRID)
    sums = []
    for jobs in ("1", "2"):
        out = tmp_path / f"m{jobs}"
        assert run(["train", "--features", features, "--out", out, "--seed", "6", "--folds", "3", "--jobs", jobs]) == 0
        sums.append(read_manifest(out)["output_checksums"])
        lasso_cv = [row for row in (out / "cv_tables.csv").read_text().splitlines() if row.startswith("lasso,")]
        assert len(lasso_cv) == 20
    assert sums[0] == sums[1]
    progress = [line for line in capsys.readouterr().err.splitlines() if line.startswith("c2sift train: ")]
    assert sorted(line.split()[2] for line in progress) == sorted(2 * ["rf", "pca_rf", "gbm", "gbm2", "glm", "lasso"])


def test_train_manifest_signals_and_timings(tmp_path, features, tiny_grid):
    out = tmp_path / "models"
    assert run(["train", "--features", features, "--out", out, "--seed", "2", "--folds", "3"]) == 0
    manifest = read_manifest(out)
    lasso = json.loads((out / "lasso.json").read_text())["training_meta"]
    signals = manifest["signals"]
    # the lasso is tuned on --folds folds, like every kind
    lasso_cv = lasso_cv_rows(out)
    assert len(lasso_cv) == 5
    assert all(len(row["fold_aucs"].split(";")) == 3 for row in lasso_cv)
    assert signals["lasso"]["converged"] is lasso["converged"]
    assert isinstance(lasso["converged"], bool)
    assert signals["lasso"]["path_computed"] == lasso["path_computed"]
    assert signals["lasso"]["n_lambdas"] == len(lasso["lambda_path"])
    assert set(signals["stack_meta_glm"]) == {"converged", "separation"}
    assert all(isinstance(flag, bool) for flag in signals["stack_meta_glm"].values())
    timings = manifest["timings"]
    assert set(timings["cv_done_s"]) == {"rf", "pca_rf", "gbm", "gbm2", "glm", "lasso"}
    assert max(timings["cv_done_s"].values()) <= timings["stack_done_s"] <= timings["total_s"]
    assert "run_manifest.json" not in manifest["output_checksums"]


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")])
def test_cli_runs_blas_single_threaded_unless_preset(preset, expected):
    """Importing the CLI, in a fresh process, defaults each BLAS thread count
    to 1 before numpy loads, and keeps a value the environment already set."""
    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREADS}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    if preset is not None:
        env.update(dict.fromkeys(BLAS_THREADS, preset))
    code = "import os, sys, c2sift.cli; print(*(os.environ[name] for name in sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *BLAS_THREADS], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [expected] * len(BLAS_THREADS)
