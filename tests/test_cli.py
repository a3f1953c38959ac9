"""CLI subcommands: artifacts, determinism, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from readmit import cli
from readmit.model import ModelConfig
from readmit.training import TrainConfig


def run_cli(*args, env=None, cwd=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "readmit.cli", *[str(a) for a in args]],
        capture_output=True, text=True, env=full_env, cwd=cwd,
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared tiny dataset + selection + trained model for the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.jsonl"
    r = run_cli("synth", "--out", data, "--patients", 80, "--positive-rate", 0.3,
                "--seed", 11)
    assert r.returncode == 0, r.stderr
    sel = root / "sel.json"
    r = run_cli("select-features", "--data", data, "--out", sel, "--top-k", 10,
                "--trees", 30, "--seed", 11)
    assert r.returncode == 0, r.stderr
    run_dir = root / "run"
    r = run_cli("train", "--data", data, "--out", run_dir, "--selection", sel,
                "--epochs", 2, "--seed", 11)
    assert r.returncode == 0, r.stderr
    return {"root": root, "data": data, "sel": sel, "run": run_dir}


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_file_and_meta(workspace):
    data = workspace["data"]
    assert data.exists()
    meta = json.loads((workspace["root"] / "data.jsonl.meta.json").read_text())
    assert len(meta["informative_ehr_columns"]) == 5
    assert len(meta["informative_tokens"]) == 5
    assert "bias" in meta and "w_ehr" in meta


def test_synth_patient_count(workspace):
    lines = workspace["data"].read_text().strip().splitlines()
    patients = {json.loads(l)["patient_id"] for l in lines}
    assert len(patients) == 80


def test_synth_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        r = run_cli("synth", "--out", out, "--patients", 15, "--seed", 4)
        assert r.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.jsonl.meta.json").read_bytes() == \
           (tmp_path / "b.jsonl.meta.json").read_bytes()


def test_synth_without_flags_writes_the_synth_config_default_bytes(tmp_path):
    """Every synth flag defaults to SynthConfig's field, so the output is the
    dataset and metadata that test_data pins for SynthConfig()."""
    out = tmp_path / "d.jsonl"
    r = run_cli("synth", "--out", out, env={"PT_SEED": "0"})
    assert r.returncode == 0, r.stderr
    digest = hashlib.sha256(out.read_bytes())
    meta = json.loads((tmp_path / "d.jsonl.meta.json").read_text())
    digest.update(json.dumps(meta, sort_keys=True).encode())
    assert digest.hexdigest() == \
        "89c1c8016f8d537d858783420fb3accc11395f8be7da77346df669d968e8aeef"


@pytest.mark.parametrize("admissions, named", [
    ("1", "admissions_per_patient"), ("3,1", "admissions_per_patient"),
    ("0,0", "admissions_per_patient"), ("1,x", "--admissions"),
])
def test_synth_bad_admissions_is_a_config_error(tmp_path, admissions, named):
    out = tmp_path / "d.jsonl"
    r = run_cli("synth", "--out", out, "--patients", 3, "--admissions", admissions)
    assert r.returncode == 2, r.stderr
    assert named in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("flags, named", [
    (["--informative-ehr", -1], "n_informative_ehr"),
    (["--informative-tokens", -2], "n_informative_tokens"),
    (["--vocab-size", 0, "--informative-tokens", 0], "vocab"),
    (["--d-ehr", -1, "--informative-ehr", 0], "d_ehr must"),
])
def test_synth_bad_count_is_a_config_error_naming_the_field(tmp_path, flags, named):
    out = tmp_path / "d.jsonl"
    r = run_cli("synth", "--out", out, "--patients", 3, *flags)
    assert r.returncode == 2, r.stderr
    assert named in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


def test_synth_positive_rate(tmp_path):
    out = tmp_path / "r.jsonl"
    r = run_cli("synth", "--out", out, "--patients", 300, "--positive-rate", 0.17,
                "--seed", 2)
    assert r.returncode == 0
    labels = [json.loads(l)["label"] for l in out.read_text().strip().splitlines()]
    assert 0.14 <= np.mean(labels) <= 0.20


# ---------------------------------------------------------------------------
# select-features


def test_selection_schema(workspace):
    sel = json.loads(workspace["sel"].read_text())
    assert sel["k"] == 10 and len(sel["indices"]) == 10
    assert len(sel["importances"]) == 50
    assert abs(sum(sel["importances"]) - 1.0) < 1e-9


def test_selection_recovers_planted_columns(workspace):
    sel = json.loads(workspace["sel"].read_text())
    meta = json.loads((workspace["root"] / "data.jsonl.meta.json").read_text())
    planted = set(meta["informative_ehr_columns"])
    assert len(planted & set(sel["indices"])) >= 4  # >= 80% of 5


def test_selection_top_k_too_large_fails_fast(workspace):
    r = run_cli("select-features", "--data", workspace["data"],
                "--out", workspace["root"] / "bad.json", "--top-k", 51)
    assert r.returncode == 2
    assert "top-k" in r.stderr


def test_selection_bytes_are_pinned(tmp_path, workspace):
    """The workspace's sel.json keeps the bytes it had while the forest still
    stored each tree's node table, and --jobs 2 writes the same bytes."""
    pinned = workspace["sel"].read_bytes()
    assert hashlib.sha256(pinned).hexdigest() == \
        "951d96f4838b7da800644c99d30ada96e7919659a44b31322a63652786037c32"
    out = tmp_path / "sel.json"
    r = run_cli("select-features", "--data", workspace["data"], "--out", out, "--top-k", 10,
                "--trees", 30, "--seed", 11, "--jobs", 2)
    assert r.returncode == 0, r.stderr
    assert out.read_bytes() == pinned


@pytest.mark.parametrize("top_k", [None, 10], ids=["default", "top-k-10"])
def test_selection_says_when_it_keeps_every_column(tmp_path, workspace, capsys, top_k):
    """Without --top-k, 50-column data keeps min(k_ehr, 50) = 50 columns: the
    output says that nothing is dropped and names --top-k."""
    out = tmp_path / "sel.json"
    flags = [] if top_k is None else ["--top-k", str(top_k)]
    code = cli.main(["select-features", "--data", str(workspace["data"]), "--out", str(out),
                     "--trees", "5", "--seed", "11", *flags])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    if top_k is None:
        assert printed == (f"wrote {out}: top 50 of 50 features, so every column is kept "
                           "and the selection only reorders them; --top-k keeps fewer")
    else:
        assert printed == f"wrote {out}: top 10 of 50 features"


# ---------------------------------------------------------------------------
# train


def test_train_artifacts(workspace):
    run_dir = workspace["run"]
    for name in ("model.json", "history.csv", "splits.json", "report.json", "roc.csv"):
        assert (run_dir / name).exists(), name
    header, *rows = (run_dir / "history.csv").read_text().strip().splitlines()
    assert header == "epoch,train_loss,val_auc,lr,noise_ratio"
    assert len(rows) == 2


def test_history_val_auc_cells_are_numbers(workspace):
    header, *rows = (workspace["run"] / "history.csv").read_text().strip().splitlines()
    column = header.split(",").index("val_auc")
    for row in rows:
        float(row.split(",")[column])


def test_train_single_epoch_history(tmp_path, workspace):
    out = tmp_path / "one"
    r = run_cli("train", "--data", workspace["data"], "--out", out,
                "--no-select", "--epochs", 1, "--seed", 1)
    assert r.returncode == 0, r.stderr
    rows = (out / "history.csv").read_text().strip().splitlines()
    assert len(rows) == 2  # header + 1 epoch


def test_train_deterministic_artifacts(tmp_path, workspace):
    outs = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        r = run_cli("train", "--data", workspace["data"], "--out", out,
                    "--selection", workspace["sel"], "--epochs", 2, "--seed", 9)
        assert r.returncode == 0, r.stderr
        outs.append(out)
    assert (outs[0] / "model.json").read_bytes() == (outs[1] / "model.json").read_bytes()
    assert (outs[0] / "history.csv").read_bytes() == (outs[1] / "history.csv").read_bytes()


# A model small enough that a one-epoch run takes about a second.
TINY = ("--d-model", 8, "--heads", 1, "--ehr-layers", 1, "--cxr-layers", 1,
        "--notes-layers", 1, "--d-ff", 8, "--epochs", 1)


def _train_tiny(tmp_path, patients, *flags):
    """Data of ``patients`` synth patients and a --no-select TINY run on it
    under ``flags``; returns (data path, run directory)."""
    data = tmp_path / "d.jsonl"
    r = run_cli("synth", "--out", data, "--patients", patients, "--positive-rate", 0.3,
                "--seed", 5)
    assert r.returncode == 0, r.stderr
    run = tmp_path / "run"
    r = run_cli("train", "--data", data, "--out", run, "--no-select", *TINY, *flags)
    assert r.returncode == 0, r.stderr
    return data, run


@pytest.mark.parametrize("flags", [(), ("--split-seed", "5")], ids=["default", "split-seed-5"])
def test_splits_json_is_the_split_train_ran_with(tmp_path, flags):
    """splits.json partitions the data's patients into the split_by_patient
    split of the split settings train resolved."""
    from readmit.data import load_dataset, split_by_patient

    data, run = _train_tiny(tmp_path, 40, *flags)
    recorded = json.loads((run / "splits.json").read_text())
    args = cli.build_parser().parse_args(["train", "--data", "d", "--out", "o", *flags])
    fractions, seed = cli._split_spec(cli.resolve_settings(args, {}))
    ds = load_dataset(data)
    parts = split_by_patient(ds, fractions, seed=seed)
    for name, part in zip(("train", "val", "test"), parts):
        assert recorded[f"{name}_patients"] == sorted({r.patient_id for r in part.records})
    lists = [recorded[f"{name}_patients"] for name in ("train", "val", "test")]
    assert sorted(sum(lists, [])) == sorted({r.patient_id for r in ds.records})


def test_train_requires_selection_or_no_select(workspace, tmp_path):
    r = run_cli("train", "--data", workspace["data"], "--out", tmp_path / "x",
                "--epochs", 1)
    assert r.returncode == 2
    assert "no-select" in r.stderr


@pytest.mark.parametrize("text,cause", [
    ("{", "JSONDecodeError"),
    ('{"k": 1, "importances": [1.0]}', "indices"),
    ('{"k": 1, "indices": [0]}', "importances"),
    ('{"k": 2, "indices": [0, 0], "importances": [1.0]}', "repeated selection indices: [0, 0]"),
], ids=["not-json", "no-indices", "no-importances", "repeated-index"])
def test_malformed_selection_file_is_a_data_error(tmp_path, workspace, text, cause):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "o"
    r = run_cli("train", "--data", workspace["data"], "--out", out, "--selection", bad,
                "--epochs", 1)
    assert r.returncode == 3
    assert str(bad) in r.stderr and cause in r.stderr
    assert "Traceback" not in r.stderr
    assert not out.exists()


def test_train_alpha_zero_rejected(tmp_path, workspace):
    r = run_cli("train", "--data", workspace["data"], "--out", tmp_path / "a0",
                "--selection", workspace["sel"], "--epochs", 1, "--alpha", 0)
    assert r.returncode == 2
    assert "alpha must be positive" in r.stderr


def test_train_single_modality(tmp_path, workspace):
    out = tmp_path / "ehr_only"
    r = run_cli("train", "--data", workspace["data"], "--out", out, "--no-select",
                "--modalities", "ehr", "--epochs", 1, "--seed", 1)
    assert r.returncode == 0, r.stderr
    model = json.loads((out / "model.json").read_text())
    assert model["config"]["modalities"] == ["ehr"]


def test_train_missing_data_file(tmp_path):
    r = run_cli("train", "--data", tmp_path / "nope.jsonl", "--out", tmp_path / "o",
                "--no-select")
    assert r.returncode == 3


def test_train_config_file(tmp_path, workspace):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[train]\nepochs = 1\n\n[noise]\nkind = sinusoidal\n")
    out = tmp_path / "cfgrun"
    r = run_cli("train", "--data", workspace["data"], "--out", out, "--no-select",
                "--config", cfg, "--seed", 1)
    assert r.returncode == 0, r.stderr
    rows = (out / "history.csv").read_text().strip().splitlines()
    assert len(rows) == 2


def test_config_file_unknown_key_rejected(tmp_path, workspace):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[train]\nepohcs = 1\n")
    r = run_cli("train", "--data", workspace["data"], "--out", tmp_path / "o",
                "--no-select", "--config", cfg)
    assert r.returncode == 2
    assert "epohcs" in r.stderr


@pytest.mark.parametrize("text", [
    "d_model = 8\n", "[train]\nepochs = 1\n[train]\nepochs = 2\n", "[train]\nlr_max = 5%\n",
], ids=["no-section-header", "repeated-section", "bad-interpolation"])
def test_config_file_that_is_not_ini_is_a_config_error_naming_it(tmp_path, workspace, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    out = tmp_path / "o"
    r = run_cli("train", "--data", workspace["data"], "--out", out, "--no-select",
                "--config", cfg)
    assert r.returncode == 2
    assert f"config error: {cfg}: not a valid config file" in r.stderr
    assert "Traceback" not in r.stderr
    assert not out.exists()


def test_train_unknown_modality_rejected(tmp_path, workspace):
    r = run_cli("train", "--data", workspace["data"], "--out", tmp_path / "o",
                "--no-select", "--epochs", 1, "--modalities", "ehr,nots")
    assert r.returncode == 2
    assert "nots" in r.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag,value,field", [
    ("--heads", 0, "n_heads"), ("--d-model", 0, "d_model"), ("--dropout", 1.5, "dropout"),
])
def test_train_bad_shape_flag_rejected(tmp_path, workspace, flag, value, field):
    r = run_cli("train", "--data", workspace["data"], "--out", tmp_path / "o",
                "--no-select", "--epochs", 1, flag, value)
    assert r.returncode == 2
    assert field in r.stderr
    assert "Traceback" not in r.stderr


def test_config_file_loss_reduction_rejected(tmp_path, workspace):
    cfg = tmp_path / "red.ini"
    cfg.write_text("[loss]\nreduction = none\n")
    r = run_cli("train", "--data", workspace["data"], "--out", tmp_path / "o",
                "--no-select", "--config", cfg, "--epochs", 1)
    assert r.returncode == 2
    assert "reduction" in r.stderr


@pytest.mark.parametrize("command,source,k", [
    ("train", "--selection", 10), ("train", "--no-select", 50), ("kfold", "--selection", 10),
])
def test_configured_k_ehr_that_differs_is_rejected(tmp_path, workspace, command, source, k):
    cfg = tmp_path / "k.ini"
    cfg.write_text("[model]\nk_ehr = 20\n")
    source_args = [source, workspace["sel"]] if source == "--selection" else [source]
    out = tmp_path / "o"
    r = run_cli(command, "--data", workspace["data"], "--out", out, "--config", cfg,
                "--epochs", 1, *source_args)
    assert r.returncode == 2
    assert "k_ehr = 20" in r.stderr and f"{k} EHR features" in r.stderr
    assert not out.exists()


def test_train_takes_selection_or_no_select_not_both(tmp_path, workspace, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as info:
        cli.main(["train", "--data", str(workspace["data"]), "--out", str(out), "--epochs", "1",
                  "--selection", str(workspace["sel"]), "--no-select"])
    assert info.value.code == 2
    assert "--no-select: not allowed with argument --selection" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, member", [("train", "model.json"),
                                             ("kfold", "member_00.json")])
def test_selection_without_ehr_leaves_the_configured_k_ehr(tmp_path, workspace, command,
                                                           member):
    """train and kfold share one rule: a selection sets k_ehr only when ehr is
    active, so without ehr a configured k_ehr stands."""
    cfg = tmp_path / "k.ini"
    cfg.write_text("[model]\nk_ehr = 20\n")
    out = tmp_path / "o"
    extra = ["--k", "2", "--trees", "5"] if command == "kfold" else []
    code = cli.main([command, "--data", str(workspace["data"]), "--out", str(out), "--config",
                     str(cfg), "--epochs", "1", "--modalities", "notes", "--selection",
                     str(workspace["sel"])] + extra)
    assert code == 0
    assert json.loads((out / member).read_text())["config"]["k_ehr"] == 20


def test_configured_k_ehr_that_matches_the_selection_is_kept(tmp_path, workspace):
    cfg = tmp_path / "k.ini"
    cfg.write_text("[model]\nk_ehr = 10\n")
    out = tmp_path / "o"
    r = run_cli("train", "--data", workspace["data"], "--out", out, "--config", cfg,
                "--epochs", 1, "--selection", workspace["sel"])
    assert r.returncode == 0, r.stderr
    assert json.loads((out / "model.json").read_text())["config"]["k_ehr"] == 10


def test_pt_seed_env_fallback(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    r = run_cli("synth", "--out", a, "--patients", 10, "--seed", 77)
    assert r.returncode == 0
    r = run_cli("synth", "--out", b, "--patients", 10, env={"PT_SEED": "77"})
    assert r.returncode == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# configuration table

# A file value and a flag value (None: no flag) for every SETTINGS key, each
# valid with every other setting at its default and none of them a default.
SETTING_VALUES = {
    "d_model": (48, 24), "n_heads": (4, 2), "ehr_layers": (1, 3),
    "cxr_layers": (1, 3), "notes_layers": (1, 2), "d_ff": (64, 32),
    "dropout": (0.2, 0.3), "k_ehr": (20, None),
    "modalities": (("ehr", "cxr"), ("notes",)), "encoder": ("gru", "lstm"),
    "dtype": ("float32", "float64"), "max_days": (10, None),
    "max_images": (4, None), "max_notes": (5, None),
    "epochs": (3, 7), "lr_max": (0.01, 0.02), "lr_min": (0.0001, 0.0002),
    "batch_size": (8, 16), "grad_clip": (2.0, 3.0), "weight_decay": (0.1, 0.2),
    "seed": (3, 4),
    "alpha": (0.5, 0.75), "gamma": (1.0, 3.0), "smooth": (0.2, 0.05),
    "kind": ("sinusoidal", "none"), "r_initial": (0.02, 0.03), "r_final": (0.2, 0.3),
    "warmup": (5, 6), "amplitude": (0.1, 0.2), "period": (20.0, 30.0),
    "intercept": (0.01, 0.02),
    "split_fractions": ((0.5, 0.25, 0.25), (0.6, 0.2, 0.2)), "split_seed": (3, 4),
}


def _text(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _resolved(argv, file_cfg):
    """Every resolved value of a train run, keyed by (section, key)."""
    args = cli.build_parser().parse_args(["train", "--data", "d", "--out", "o", *argv])
    settings = cli.resolve_settings(args, file_cfg)
    model_cfg, train_cfg = cli._run_configs(settings)
    fractions, split_seed = cli._split_spec(settings)
    objs = {"model": model_cfg, "train": train_cfg, "loss": train_cfg.loss,
            "noise": train_cfg.noise}
    out = {(s, k): getattr(obj, k) for s, obj in objs.items() for k in vars(obj)}
    out["data", "split_fractions"] = fractions
    out["data", "split_seed"] = split_seed
    return out


def test_setting_values_cover_the_table():
    assert sorted(k for _, k, _ in cli.SETTINGS) == sorted(SETTING_VALUES)


@pytest.mark.parametrize("section,key,flag", cli.SETTINGS,
                         ids=[f"{s}.{k}" for s, k, _ in cli.SETTINGS])
def test_setting_reaches_its_field_and_its_flag_wins(monkeypatch, section, key, flag):
    monkeypatch.delenv("PT_SEED", raising=False)
    file_value, flag_value = SETTING_VALUES[key]
    file_cfg = {(section, key): _text(file_value)}
    assert _resolved([], file_cfg)[section, key] == file_value
    if flag is not None:
        assert _resolved([flag, _text(flag_value)], file_cfg)[section, key] == flag_value
    if key == "seed":
        assert _resolved([], file_cfg)["model", "seed"] == file_value


def test_unset_settings_take_dataclass_defaults(monkeypatch):
    monkeypatch.delenv("PT_SEED", raising=False)
    args = cli.build_parser().parse_args(["train", "--data", "d", "--out", "o"])
    assert cli._run_configs(cli.resolve_settings(args, {})) == (ModelConfig(), TrainConfig())


def test_pt_seed_fills_only_an_unset_seed(monkeypatch):
    monkeypatch.setenv("PT_SEED", "9")
    assert _resolved([], {})["train", "seed"] == 9
    assert _resolved([], {})["data", "split_seed"] == 9
    assert _resolved([], {("train", "seed"): "3"})["train", "seed"] == 3
    assert _resolved(["--seed", "4"], {("train", "seed"): "3"})["model", "seed"] == 4


def test_config_file_bad_value_names_the_key(tmp_path, workspace):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[noise]\nwarmup = soon\n")
    r = run_cli("train", "--data", workspace["data"], "--out", tmp_path / "o",
                "--no-select", "--config", cfg)
    assert r.returncode == 2
    assert "noise.warmup" in r.stderr


# ---------------------------------------------------------------------------
# kfold


def test_kfold_members_and_report(tmp_path, workspace):
    out = tmp_path / "kf"
    r = run_cli("kfold", "--data", workspace["data"], "--out", out, "--k", 3,
                "--epochs", 1, "--seed", 11, "--trees", 20,
                "--holdout", workspace["data"])
    assert r.returncode == 0, r.stderr
    members = sorted(out.glob("member_*.json"))
    assert len(members) == 3
    report = json.loads((out / "ensemble.json").read_text())
    assert report["k"] == 3
    assert len(report["fold_val_aucs"]) == 3
    assert report["runtime_seconds"] > 0
    assert "ensemble_holdout_auc" in report
    # k_ehr unset: the forest keeps min(100, width) = 50 columns
    assert json.loads(members[0].read_text())["config"]["k_ehr"] == 50
    # the holdout AUC is the one eval reports for the member directory
    r = run_cli("eval", "--model", out, "--data", workspace["data"], "--out", tmp_path / "ev")
    assert r.returncode == 0, r.stderr
    ev = json.loads((tmp_path / "ev" / "report.json").read_text())
    assert report["ensemble_holdout_auc"] == ev["auc"]


def _negatives_only(workspace, tmp_path):
    """The workspace dataset's label-0 admissions as a file of their own."""
    lines = [line for line in workspace["data"].read_text().splitlines()
             if json.loads(line)["label"] == 0]
    path = tmp_path / "neg.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path, len(lines)


@pytest.mark.parametrize("holdout,cause", [("empty.jsonl", "dataset is empty"),
                                           ("missing.jsonl", "does not exist"),
                                           ("neg.jsonl", "AUC needs both classes, got 0 positive")],
                         ids=["empty", "missing", "one-class"])
def test_kfold_holdout_is_checked_before_any_fold_trains(tmp_path, workspace, holdout, cause):
    holdout = tmp_path / holdout
    if holdout.name == "empty.jsonl":
        holdout.write_text("")
    elif holdout.name == "neg.jsonl":
        holdout, n_neg = _negatives_only(workspace, tmp_path)
        cause += f" and {n_neg} negative admissions"
    out = tmp_path / "kf"
    r = run_cli("kfold", "--data", workspace["data"], "--out", out, "--k", 2,
                "--epochs", 1, "--trees", 5, "--holdout", holdout)
    assert r.returncode == 3
    assert str(holdout) in r.stderr and cause in r.stderr
    assert not out.exists()


def test_kfold_holdout_of_another_ehr_width_is_rejected_before_any_fold_trains(tmp_path,
                                                                               workspace):
    holdout = tmp_path / "narrow.jsonl"
    r = run_cli("synth", "--out", holdout, "--patients", 12, "--d-ehr", 8,
                "--positive-rate", 0.5, "--seed", 3)
    assert r.returncode == 0, r.stderr
    out = tmp_path / "kf"
    r = run_cli("kfold", "--data", workspace["data"], "--out", out, "--k", 2,
                "--epochs", 1, "--trees", 5, "--holdout", holdout)
    assert r.returncode == 3
    assert (f"holdout {holdout} has 8 EHR columns, but {workspace['data']} has 50"
            in r.stderr)
    assert not list(tmp_path.glob("**/member_*.json"))


@pytest.mark.parametrize("split", [None, "test"])
def test_eval_single_class_data_is_a_data_error_naming_the_file(tmp_path, workspace, split):
    data, _ = _negatives_only(workspace, tmp_path)
    model = workspace["run"] / "model.json"
    if split:
        # the workspace run, with a splits.json that records the one-class file
        model = tmp_path / "run" / "model.json"
        model.parent.mkdir()
        model.write_bytes((workspace["run"] / "model.json").read_bytes())
        splits = json.loads((workspace["run"] / "splits.json").read_text())
        splits["data_sha256"] = hashlib.sha256(data.read_bytes()).hexdigest()
        (model.parent / "splits.json").write_text(json.dumps(splits))
    out = tmp_path / "ev"
    r = run_cli("eval", "--model", model, "--data", data,
                "--out", out, *(["--split", split] if split else []))
    assert r.returncode == 3
    source = f"{data} ({split} split)" if split else str(data)
    assert f"data error: {source}: AUC needs both classes, got 0 positive and " in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["kfold", "eval"])
def test_empty_input_is_reported_once(tmp_path, workspace, command):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    if command == "kfold":
        args = ["kfold", "--data", workspace["data"], "--holdout", empty, "--k", 2]
    else:
        args = ["eval", "--model", workspace["run"] / "model.json", "--data", empty]
    r = run_cli(*args, "--out", tmp_path / "out")
    assert r.returncode == 3
    assert "UserWarning" not in r.stderr
    assert r.stderr.splitlines() == [f"data error: {empty}: dataset is empty"]


def _fold_training_records(data, k, seed):
    """Per fold, the records ``kfold --k k --seed seed`` trains that fold on."""
    from readmit.data import load_dataset
    from readmit.training import patient_folds

    records = load_dataset(data).records
    folds = patient_folds(records, k, seed=seed)
    return records, folds, [[r for r, f in zip(records, folds) if f != fold]
                            for fold in range(k)]


def test_kfold_fits_each_fold_pipeline_without_that_folds_patients(tmp_path, workspace,
                                                                    monkeypatch):
    """Without --selection, fold i's forest and TF-IDF are fit on fold i's
    training records, so they never see a patient of fold i."""
    from readmit import features

    forests, corpora = [], []
    forest, fit_tfidf = features.train_random_forest, features.fit_tfidf

    def forest_spy(X, y, **kwargs):
        forests.append(X)
        return forest(X, y, **kwargs)

    def tfidf_spy(corpus, *args, **kwargs):
        corpora.append(list(corpus))
        return fit_tfidf(corpus, *args, **kwargs)

    for module in (features, cli):
        monkeypatch.setattr(module, "train_random_forest", forest_spy, raising=False)
        monkeypatch.setattr(module, "fit_tfidf", tfidf_spy, raising=False)
    code = cli.main(["kfold", "--data", str(workspace["data"]), "--out", str(tmp_path / "kf"),
                     "--k", "3", "--epochs", "1", "--seed", "11", "--trees", "10"])
    assert code == 0
    records, folds, training = _fold_training_records(workspace["data"], 3, 11)
    patient_of = {r.ehr.mean(axis=0).tobytes(): r.patient_id for r in records}
    seen = [{patient_of[row.tobytes()] for row in X} for X in forests]
    held_out = [{r.patient_id for r, f in zip(records, folds) if f == fold}
                for fold in range(3)]
    assert [s & h for s, h in zip(seen, held_out)] == [set()] * 3
    assert seen == [{r.patient_id for r in recs} for recs in training]
    assert corpora == [[n for r in recs for n in r.notes] for recs in training]


def test_kfold_member_pipeline_is_the_library_fit_on_its_training_fold(tmp_path, workspace):
    from readmit.features import forest_selection, notes_tfidf

    out = tmp_path / "kf"
    r = run_cli("kfold", "--data", workspace["data"], "--out", out, "--k", 3,
                "--epochs", 1, "--seed", 11, "--trees", 10)
    assert r.returncode == 0, r.stderr
    _, _, training = _fold_training_records(workspace["data"], 3, 11)
    for i, recs in enumerate(training):
        member = json.loads((out / f"member_{i:02d}.json").read_text())
        assert member["selection"] == forest_selection(recs, 50, trees=10, seed=11).to_json()
        assert member["tfidf"] == notes_tfidf(recs, ("ehr", "notes")).to_json()
    assert member["selection"] != json.loads((out / "member_00.json").read_text())["selection"]


def test_kfold_configured_k_ehr_above_the_dataset_width_is_rejected(tmp_path, workspace):
    cfg = tmp_path / "k.ini"
    cfg.write_text("[model]\nk_ehr = 200\n")
    out = tmp_path / "kf"
    r = run_cli("kfold", "--data", workspace["data"], "--out", out, "--config", cfg,
                "--k", 2, "--epochs", 1, "--trees", 5)
    assert r.returncode == 2
    assert "k_ehr = 200" in r.stderr and "50 EHR features" in r.stderr
    assert not out.exists()


def test_kfold_configured_k_ehr_within_the_dataset_width_is_kept(tmp_path, workspace):
    cfg = tmp_path / "k.ini"
    cfg.write_text("[model]\nk_ehr = 20\n")
    out = tmp_path / "kf"
    r = run_cli("kfold", "--data", workspace["data"], "--out", out, "--config", cfg,
                "--k", 2, "--epochs", 1, "--trees", 5)
    assert r.returncode == 0, r.stderr
    assert json.loads((out / "member_00.json").read_text())["config"]["k_ehr"] == 20


@pytest.mark.parametrize("setting", [["--split-fractions", "0.1,0.1,0.8"],
                                     ["--split-seed", "3"], "[data]\nsplit_seed = 3\n"],
                         ids=["split-fractions", "split-seed", "data-section"])
def test_kfold_rejects_split_settings(tmp_path, workspace, setting):
    if isinstance(setting, str):
        cfg = tmp_path / "split.ini"
        cfg.write_text(setting)
        setting = ["--config", cfg]
    out = tmp_path / "kf"
    r = run_cli("kfold", "--data", workspace["data"], "--out", out, "--k", 2,
                "--epochs", 1, *setting)
    assert r.returncode == 2
    assert ("split" if "--config" not in setting else "[data]") in r.stderr
    assert not out.exists()


def test_split_default_is_one_constant():
    import inspect

    from readmit import data

    assert cli.SPLIT_DEFAULT is data.SPLIT_FRACTIONS == (0.7, 0.15, 0.15)
    default = inspect.signature(data.split_by_patient).parameters["fractions"].default
    assert default is data.SPLIT_FRACTIONS


def test_forest_size_default_is_one_constant():
    import inspect

    from readmit import features, training

    assert features.FOREST_TREES == 100
    assert inspect.signature(features.train_random_forest).parameters["n_trees"].default \
        is features.FOREST_TREES
    assert inspect.signature(training.kfold_train).parameters["trees"].default \
        is features.FOREST_TREES
    parser = cli.build_parser()
    for command in ("select-features", "kfold"):
        args = parser.parse_args([command, "--data", "d", "--out", "o"])
        assert args.trees is features.FOREST_TREES


def test_fold_count_default_is_one_constant():
    import inspect

    from readmit import training

    assert training.FOLDS == 10
    assert inspect.signature(training.kfold_train).parameters["k"].default is training.FOLDS
    args = cli.build_parser().parse_args(["kfold", "--data", "d", "--out", "o"])
    assert args.k is training.FOLDS


def test_optimizer_defaults_are_the_train_config_fields():
    """AdamW's defaults name TrainConfig's fields instead of restating them
    (equal float literals share one object, so ``is`` cannot tell)."""
    import ast
    import inspect
    import textwrap

    from readmit import training

    init = ast.parse(textwrap.dedent(inspect.getsource(training.AdamW.__init__))).body[0]
    assert [ast.unparse(d) for d in init.args.defaults] == ["TrainConfig.lr_max",
                                                            "TrainConfig.weight_decay"]
    params = inspect.signature(training.AdamW).parameters
    assert (params["lr"].default, params["weight_decay"].default) == (1e-3, 0.01)


def test_scoring_batch_default_is_one_constant():
    import inspect

    from readmit import training

    assert training.SCORE_BATCH == 256
    for fn in (training.predict_logits, training.predict_proba):
        assert inspect.signature(fn).parameters["batch_size"].default is training.SCORE_BATCH


def test_kfold_k1_rejected(tmp_path, workspace):
    out = tmp_path / "kf1"
    r = run_cli("kfold", "--data", workspace["data"], "--out", out, "--k", 1, "--epochs", 1)
    assert r.returncode == 2
    assert "K must be >= 2, got 1" in r.stderr
    assert not out.exists()


def test_kfold_jobs_deterministic_members(tmp_path, workspace):
    outs = []
    for name, jobs in (("j1", 1), ("j2", 2)):
        out = tmp_path / name
        r = run_cli("kfold", "--data", workspace["data"], "--out", out, "--k", 2,
                    "--epochs", 1, "--seed", 11, "--trees", 10, "--jobs", jobs)
        assert r.returncode == 0, r.stderr
        outs.append(out)
    for i in range(2):
        assert (outs[0] / f"member_{i:02d}.json").read_bytes() == \
               (outs[1] / f"member_{i:02d}.json").read_bytes()


@pytest.mark.parametrize("command,extra", [
    ("select-features", ("--top-k", 5)), ("kfold", ("--k", 2, "--epochs", 1)),
])
@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_is_a_config_error(tmp_path, workspace, pool_sizes, capsys,
                                          command, extra, jobs):
    out = tmp_path / "out"
    code = cli.main([command, "--data", str(workspace["data"]), "--out", str(out),
                     "--jobs", str(jobs), *map(str, extra)])
    assert code == 2
    assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists() and pool_sizes == []


def test_kfold_starts_no_more_workers_than_folds(tmp_path, workspace, pool_sizes):
    with pytest.warns(RuntimeWarning, match="2 folds sequentially"):
        code = cli.main(["kfold", "--data", str(workspace["data"]), "--out", str(tmp_path / "kf"),
                         "--k", "2", "--epochs", "1", "--seed", "11", "--trees", "5",
                         "--jobs", "8"])
    assert code == 0
    assert pool_sizes == [2]


@pytest.mark.parametrize("command,extra", [
    ("train", ("--no-select",)), ("kfold", ("--k", 2, "--trees", 5)),
])
def test_fingerprint_follows_the_training_config(tmp_path, workspace, command, extra):
    prints = []
    for epochs in (1, 2):
        out = tmp_path / f"e{epochs}"
        r = run_cli(command, "--data", workspace["data"], "--out", out, "--epochs", epochs,
                    "--seed", 11, *extra)
        assert r.returncode == 0, r.stderr
        model = out / ("model.json" if command == "train" else "member_00.json")
        prints.append(json.loads(model.read_text())["fingerprint"])
    assert prints[0] != prints[1]


def test_fingerprint_follows_the_data_bytes_not_the_path(tmp_path, workspace):
    """One dataset copied into two directories trains byte-identical models;
    other data written to the same path changes the fingerprint."""
    def train_on(data, out):
        r = run_cli("train", "--data", data, "--out", out, "--no-select", "--epochs", 1,
                    "--seed", 11)
        assert r.returncode == 0, r.stderr
        return (out / "model.json").read_bytes()

    copies = [tmp_path / name / "d.jsonl" for name in ("a", "b")]
    for data in copies:
        data.parent.mkdir()
        data.write_bytes(workspace["data"].read_bytes())
    models = [train_on(data, tmp_path / f"run_{data.parent.name}") for data in copies]
    assert models[0] == models[1]

    r = run_cli("synth", "--out", copies[1], "--patients", 80, "--positive-rate", 0.3,
                "--seed", 12)
    assert r.returncode == 0, r.stderr
    regenerated = train_on(copies[1], tmp_path / "run_regenerated")
    assert json.loads(regenerated)["fingerprint"] != json.loads(models[0])["fingerprint"]


def test_train_noise_warmup_zero_rejected_before_any_output(tmp_path, workspace):
    out = tmp_path / "o"
    r = run_cli("train", "--data", workspace["data"], "--out", out, "--no-select",
                "--epochs", 1, "--noise-warmup", 0)
    assert r.returncode == 2
    assert "warmup" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("command, setting, field", [
    ("train", "--lr-max=nan", "lr_max"), ("train", "--lr-max=inf", "lr_max"),
    ("train", "--lr-min=nan", "lr_min"), ("train", "--grad-clip=nan", "grad_clip"),
    ("train", "--weight-decay=nan", "weight_decay"), ("train", "--alpha=nan", "alpha"),
    ("train", "--gamma=inf", "gamma"), ("train", "--noise-initial=nan", "r_initial"),
    ("train", "--noise-final=nan", "r_final"), ("train", "--noise-amplitude=inf", "amplitude"),
    ("train", "--noise-period=inf", "period"), ("train", "--noise-intercept=-inf", "intercept"),
    ("kfold", "--grad-clip=nan", "grad_clip"),
])
def test_non_finite_setting_is_a_config_error_naming_the_field(tmp_path, workspace, capsys,
                                                              command, setting, field):
    out = tmp_path / "o"
    code = cli.main([command, "--data", str(workspace["data"]), "--out", str(out),
                     "--epochs", "1", setting] + (["--no-select"] if command == "train" else []))
    assert code == 2
    value = setting.split("=")[1]
    assert f"config error: {field} must be finite, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_kfold_runtime_nondecreasing_in_k(tmp_path, workspace):
    runtimes = []
    for k in (2, 8):
        out = tmp_path / f"k{k}"
        r = run_cli("kfold", "--data", workspace["data"], "--out", out, "--k", k,
                    "--epochs", 1, "--seed", 11, "--trees", 10)
        assert r.returncode == 0, r.stderr
        runtimes.append(json.loads((out / "ensemble.json").read_text())["runtime_seconds"])
    assert runtimes[1] >= runtimes[0]


# ---------------------------------------------------------------------------
# eval


def test_eval_on_split_completes(tmp_path, workspace):
    out = tmp_path / "ev"
    r = run_cli("eval", "--model", workspace["run"] / "model.json",
                "--data", workspace["data"], "--out", out, "--split", "train")
    assert r.returncode == 0, r.stderr
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["auc"] <= 1.0
    assert (out / "roc.csv").read_text().startswith("fpr,tpr")


@pytest.mark.parametrize("patients", [40, 80])
def test_eval_split_scores_the_patients_train_recorded(tmp_path, patients):
    """After train --split-seed 5, eval --split test scores exactly the test
    patients of splits.json: the same report as eval on a file of only them."""
    data, run = _train_tiny(tmp_path, patients, "--split-seed", 5)
    test_ids = set(json.loads((run / "splits.json").read_text())["test_patients"])
    lines = [line for line in data.read_text().splitlines()
             if json.loads(line)["patient_id"] in test_ids]
    only = tmp_path / "test.jsonl"
    only.write_text("\n".join(lines) + "\n")
    outs = []
    for name, source, split in (("split", data, ["--split", "test"]), ("file", only, [])):
        outs.append(tmp_path / name)
        r = run_cli("eval", "--model", run / "model.json", "--data", source,
                    "--out", outs[-1], *split)
        assert r.returncode == 0, r.stderr
    report = json.loads((outs[0] / "report.json").read_text())
    assert report["n_pos"] + report["n_neg"] == len(lines)
    for name in ("report.json", "roc.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("flag,value", [("--split-seed", 5), ("--split-fractions", "0.5,0.25,0.25")])
def test_eval_takes_no_split_settings(tmp_path, workspace, flag, value):
    r = run_cli("eval", "--model", workspace["run"] / "model.json", "--data", workspace["data"],
                "--out", tmp_path / "ev", "--split", "test", flag, value)
    assert r.returncode == 2
    assert f"unrecognized arguments: {flag}" in r.stderr


@pytest.mark.parametrize("splits,cause", [
    (None, "splits file does not exist"),
    ("{", "JSONDecodeError"),
    ('{"train_patients": []}', "KeyError('test_patients')"),
    ('{"test_patients": 3}', "TypeError"),
    ('{"test_patients": "P00001"}', "test_patients must be a list of strings"),
], ids=["kfold-directory", "not-json", "no-test-list", "not-a-list", "a-string"])
def test_eval_split_without_a_readable_splits_json_is_a_data_error(tmp_path, workspace,
                                                                   splits, cause):
    """A K-fold directory records no split: eval --split names the splits.json
    it looked for, as it does a malformed one, and writes no report."""
    run = tmp_path / "run"
    run.mkdir()
    if splits is None:
        (run / "member_00.json").write_bytes((workspace["run"] / "model.json").read_bytes())
        model = run
    else:
        model = run / "model.json"
        model.write_bytes((workspace["run"] / "model.json").read_bytes())
        (run / "splits.json").write_text(splits)
    out = tmp_path / "ev"
    r = run_cli("eval", "--model", model, "--data", workspace["data"], "--out", out,
                "--split", "test")
    assert r.returncode == 3
    assert str(run / "splits.json") in r.stderr and cause in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("case", ["other-data", "no-data-hash"])
def test_eval_split_of_other_data_is_a_data_error(tmp_path, case):
    """splits.json records the sha256 of the data train split: eval --split
    on another file, or with a splits.json that records no sha256, names both
    files and writes no report."""
    data = tmp_path / "d.jsonl"
    r = run_cli("synth", "--out", data, "--patients", 80, "--seed", 3)
    assert r.returncode == 0, r.stderr
    run = tmp_path / "run"
    r = run_cli("train", "--data", data, "--out", run, "--no-select", *TINY)
    assert r.returncode == 0, r.stderr
    splits = json.loads((run / "splits.json").read_text())
    assert splits["data_sha256"] == hashlib.sha256(data.read_bytes()).hexdigest()
    if case == "other-data":
        data = tmp_path / "h.jsonl"
        r = run_cli("synth", "--out", data, "--patients", 30, "--seed", 4)
        assert r.returncode == 0, r.stderr
    else:
        del splits["data_sha256"]
        (run / "splits.json").write_text(json.dumps(splits))
    out = tmp_path / "ev"
    r = run_cli("eval", "--model", run / "model.json", "--data", data, "--out", out,
                "--split", "test")
    assert r.returncode == 3
    assert (f"data error: {run / 'splits.json'} records the split of other data than {data}"
            in r.stderr)
    assert not out.exists()


def test_eval_single_member_ensemble_equals_model(tmp_path, workspace):
    ens_dir = tmp_path / "ens1"
    ens_dir.mkdir()
    (ens_dir / "member_00.json").write_bytes(
        (workspace["run"] / "model.json").read_bytes())
    out_a, out_b = tmp_path / "ev_m", tmp_path / "ev_e"
    for model, out in ((workspace["run"] / "model.json", out_a), (ens_dir, out_b)):
        r = run_cli("eval", "--model", model, "--data", workspace["data"], "--out", out)
        assert r.returncode == 0, r.stderr
    auc_a = json.loads((out_a / "report.json").read_text())["auc"]
    auc_b = json.loads((out_b / "report.json").read_text())["auc"]
    assert auc_a == auc_b


def _reverse_selection(obj):
    obj["selection"]["indices"].reverse()


def _double_first_idf(obj):
    obj["tfidf"]["idf"][0] *= 2


@pytest.mark.parametrize("edit,own_inputs", [
    (_reverse_selection, True), (_double_first_idf, True),
    (lambda obj: obj["config"].update(max_days=3), True),
    (lambda obj: obj["config"].update(seed=obj["config"]["seed"] + 1), False),
], ids=["selection", "tfidf", "config", "seed-only"])
def test_eval_scores_each_member_through_its_own_pipeline(tmp_path, workspace, edit,
                                                          own_inputs):
    """Members that differ in selection, TF-IDF or caps are each scored on
    inputs built with their own, and eval reports the AUC of the mean."""
    from readmit.data import load_dataset
    from readmit.evaluation import auc
    from readmit.features import prepare_bundles
    from readmit.training import predict_proba

    model = json.loads((workspace["run"] / "model.json").read_text())
    ens_dir = tmp_path / "mixed"
    ens_dir.mkdir()
    (ens_dir / "member_00.json").write_text(json.dumps(model))
    edit(model)
    (ens_dir / "member_01.json").write_text(json.dumps(model))
    r = run_cli("eval", "--model", ens_dir, "--data", workspace["data"],
                "--out", tmp_path / "ev")
    assert r.returncode == 0, r.stderr

    records = load_dataset(workspace["data"]).records
    files = [ens_dir / "member_00.json", ens_dir / "member_01.json"]
    own = [cli._load_predictor(f)[0].predict_records(records) for f in files]
    mixed = cli._load_predictor(ens_dir)[0]
    assert mixed.predict_records(records).tobytes() == np.mean(own, axis=0).tobytes()
    report = json.loads((tmp_path / "ev" / "report.json").read_text())
    assert report["auc"] == auc(np.mean(own, axis=0), [r.label for r in records])
    # member 1 on member 0's inputs scores otherwise, unless only the seed differs
    (m0, m1), ((sel0, tf0), _) = mixed.members, mixed.pipelines
    borrowed = predict_proba(m1, prepare_bundles(records, m0.config.modalities, sel0, tf0,
                                                 **m0.config.caps())[0])
    assert np.array_equal(borrowed, own[1]) != own_inputs


@pytest.mark.parametrize("command", ["select-features", "train", "kfold", "eval"])
def test_empty_dataset_is_a_data_error(tmp_path, workspace, command):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    args = {"select-features": ["--out", tmp_path / "sel.json"],
            "train": ["--out", tmp_path / "run", "--no-select"],
            "kfold": ["--out", tmp_path / "kf"],
            "eval": ["--out", tmp_path / "ev", "--model", workspace["run"] / "model.json"]}
    r = run_cli(command, "--data", empty, *args[command])
    assert r.returncode == 3
    assert str(empty) in r.stderr and "dataset is empty" in r.stderr


@pytest.fixture(scope="module")
def no_ehr_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("no_ehr") / "data.jsonl"
    r = run_cli("synth", "--out", data, "--patients", 30, "--positive-rate", 0.3,
                "--d-ehr", 0, "--informative-ehr", 0, "--seed", 5)
    assert r.returncode == 0, r.stderr
    return data


@pytest.mark.parametrize("command, flags", [
    ("select-features", []), ("train", ["--no-select"]), ("kfold", ["--k", 2]),
])
def test_ehr_on_a_file_without_ehr_columns_is_a_data_error(tmp_path, no_ehr_data,
                                                          command, flags):
    out = tmp_path / "out"
    r = run_cli(command, "--data", no_ehr_data, "--out", out, *flags)
    assert r.returncode == 3, r.stderr
    assert f"{no_ehr_data} has no EHR columns" in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


def test_notes_only_runs_on_a_file_without_ehr_columns(tmp_path, no_ehr_data):
    for command, flags in (("train", ["--no-select"]), ("kfold", ["--k", 2])):
        r = run_cli(command, "--data", no_ehr_data, "--out", tmp_path / command,
                    "--modalities", "notes", "--epochs", 1, *flags)
        assert r.returncode == 0, r.stderr
    for model in (tmp_path / "train" / "model.json", tmp_path / "kfold"):
        r = run_cli("eval", "--model", model, "--data", no_ehr_data,
                    "--out", tmp_path / "ev" / model.name)
        assert r.returncode == 0, r.stderr


def test_eval_tampered_model_clean_error(tmp_path, workspace):
    bad = tmp_path / "bad.json"
    blob = (workspace["run"] / "model.json").read_bytes()
    bad.write_bytes(blob[: len(blob) // 3])
    r = run_cli("eval", "--model", bad, "--data", workspace["data"],
                "--out", tmp_path / "ev")
    assert r.returncode == 3
    assert "model" in r.stderr


def _vector_notes_model(tmp_path):
    """A notes-only model trained on precomputed note vectors: it carries no
    TF-IDF vocabulary."""
    from dataclasses import replace

    from readmit.data import SynthConfig, generate_synthetic, save_dataset

    ds, _ = generate_synthetic(SynthConfig(n_patients=12, positive_rate=0.4, seed=3))
    rng = np.random.default_rng(3)
    ds.records = [replace(r, notes=rng.normal(size=(1, 1024)).round(2), notes_kind="vector")
                  for r in ds.records]
    data = tmp_path / "vectors.jsonl"
    save_dataset(ds, data)
    out = tmp_path / "vec"
    r = run_cli("train", "--data", data, "--out", out, "--no-select", "--modalities", "notes",
                "--d-model", 4, "--heads", 1, "--notes-layers", 1, "--d-ff", 4,
                "--epochs", 1)
    assert r.returncode == 0, r.stderr
    return out / "model.json"


@pytest.mark.parametrize("cause", ["selection", "width", "tfidf"])
def test_eval_names_an_input_the_model_cannot_read(tmp_path, workspace, cause):
    """Eval runs no checks of its own: the library's data error names the
    cause, exit is 3, and no report directory is written."""
    data = tmp_path / "narrow.jsonl"
    r = run_cli("synth", "--out", data, "--patients", 12, "--d-ehr", 8,
                "--informative-ehr", 2, "--positive-rate", 0.4, "--seed", 0)
    assert r.returncode == 0, r.stderr
    if cause == "selection":
        model = workspace["run"] / "model.json"
        bad = [i for i in json.loads(workspace["sel"].read_text())["indices"] if i >= 8]
        assert bad
        expected = f"selection indices {bad} out of range for 8 EHR columns"
    elif cause == "width":
        model = tmp_path / "wide" / "model.json"
        r = run_cli("train", "--data", workspace["data"], "--out", model.parent,
                    "--no-select", "--modalities", "ehr", "--d-model", 4, "--heads", 1,
                    "--ehr-layers", 1, "--d-ff", 4, "--epochs", 1)
        assert r.returncode == 0, r.stderr
        expected = "ehr inputs have 8 columns; the model takes 50"
    else:
        model = _vector_notes_model(tmp_path)
        data = workspace["data"]
        expected = "notes are raw text but no fitted TF-IDF model was given"
    out = tmp_path / "ev"
    r = run_cli("eval", "--model", model, "--data", data, "--out", out)
    assert r.returncode == 3, r.stderr
    assert expected in r.stderr
    assert "fingerprint" not in r.stderr
    assert not out.exists()


# ---------------------------------------------------------------------------
# exit codes


def test_io_error_exit_code(tmp_path):
    r = run_cli("synth", "--out", "/dev/null/nope/d.jsonl", "--patients", 5)
    assert r.returncode == 5


def test_numeric_error_exit_code(monkeypatch, tmp_path):
    import contextlib
    import io

    from readmit.errors import NumericError

    def boom(cfg):
        raise NumericError("non-finite training loss at epoch 0, batch 0")

    monkeypatch.setattr(cli, "generate_synthetic", boom)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["synth", "--out", str(tmp_path / "x.jsonl"), "--patients", "5"])
    assert code == 4
    assert "numeric failure" in err.getvalue()


# ---------------------------------------------------------------------------
# help


@pytest.mark.parametrize("sub", ["synth", "select-features", "train", "kfold", "eval"])
def test_help_exits_zero(sub):
    r = run_cli(sub, "--help")
    assert r.returncode == 0
    assert "--" in r.stdout


TRAIN_OPTIONS = [
    "--alpha", "--batch-size", "--config", "--cxr-layers", "--d-ff", "--d-model",
    "--data", "--dropout", "--dtype", "--ehr-layers", "--encoder", "--epochs",
    "--gamma", "--grad-clip", "--heads", "--help", "--lr-max", "--lr-min",
    "--modalities", "--noise", "--noise-amplitude", "--noise-final",
    "--noise-initial", "--noise-intercept", "--noise-period", "--noise-warmup",
    "--notes-layers", "--out", "--seed", "--selection", "--smooth",
    "--split-fractions", "--split-seed", "--weight-decay", "-h",
]
KFOLD_ONLY = ["--holdout", "--jobs", "--k", "--trees"]
EVAL_OPTIONS = ["--data", "--help", "--model", "--out", "--split", "-h"]


@pytest.mark.parametrize("sub,expected", [
    ("train", sorted(TRAIN_OPTIONS + ["--no-select"])),
    ("kfold", sorted([o for o in TRAIN_OPTIONS if not o.startswith("--split-")] + KFOLD_ONLY)),
    ("eval", EVAL_OPTIONS),
])
def test_train_and_kfold_offer_exactly_the_pinned_options(sub, expected):
    r = run_cli(sub, "--help")
    assert r.returncode == 0
    offered = sorted(set(re.findall(r"(?:^|[\s\[])(--?[a-z][a-z-]*)", r.stdout)))
    assert offered == expected


def test_every_flag_is_read_by_its_command():
    """A flag that is not a SETTINGS key (those go through resolve_settings)
    must be read as ``args.<dest>`` by its subcommand's function."""
    import argparse
    import inspect

    settings = {key for _, key, _ in cli.SETTINGS}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    unread = []
    for name, sub in subparsers.choices.items():
        source = inspect.getsource(sub.get_default("func"))
        unread += [f"{name} {action.option_strings[0]}" for action in sub._actions
                   if not isinstance(action, argparse._HelpAction)
                   and action.dest not in settings and f"args.{action.dest}" not in source]
    assert unread == []


def test_top_level_help():
    r = run_cli("--help")
    assert r.returncode == 0
    for sub in ("synth", "select-features", "train", "kfold", "eval"):
        assert sub in r.stdout
