"""Tests of the benchmark itself: its checks fire, and a traced run reports
every per-layer metric named in BENCHMARK.json."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import readmit.training
from perfbench import checks, runner, tracing
from perfbench.workloads import WORKLOADS, PassResult, Sizes
from readmit import evaluation
from readmit import tensor as T

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Tiny cohorts whose holdouts hold both classes for this seed.
TINY_SEED = 3
TINY = {
    "train_short": Sizes(n_patients=60, epochs=1, trees=5),
    "score_long": Sizes(n_patients=24, epochs=1, trees=5),
    "kfold_gru": Sizes(n_patients=40, epochs=1, trees=5, folds=2),
}


def tiny(name):
    """The workload at tiny sizes, without the quality checks tiny models fail."""
    w = WORKLOADS[name]
    members = TINY[name].folds if w.expects_members > 1 else 1
    return dataclasses.replace(w, sizes=TINY[name], auc_floor=0.0, recall_floor=0.0,
                               expects_members=members)


def result(**overrides):
    labels = np.array([0, 0, 1, 1, 0, 1])
    fields = dict(stages={"setup": 1.0, "select": 1.0, "train": 1.0, "score": 1.0},
                  epochs_trained=1, probs=np.array([0.1, 0.2, 0.8, 0.7, 0.3, 0.9]),
                  labels=labels, holdout_auc=1.0, oracle_auc=1.0, select_recall=1.0,
                  counts={"holdout": 6})
    fields.update(overrides)
    return PassResult(**fields)


def test_good_pass_passes_every_check():
    for w in WORKLOADS.values():
        members = w.expects_members
        assert checks.check_pass(w, result(members=members)) == []


def test_constant_scorer_fails_the_auc_floor():
    probs = np.full(6, 0.5)
    constant = result(probs=probs, holdout_auc=evaluation.auc(probs, result().labels))
    for name in ("train_short", "score_long"):
        failures = checks.check_pass(WORKLOADS[name], constant)
        assert any("below floor" in f for f in failures), failures


@pytest.mark.parametrize("probs", [[0.1, 0.2, 0.8, 0.7, 0.3, np.nan],
                                   [0.1, 0.2, 0.8, 1.5, 0.3, 0.9],
                                   [0.1, 0.2, 0.8, 0.7, 0.3]])
def test_bad_probabilities_fail(probs):
    failures = checks.check_pass(WORKLOADS["train_short"], result(probs=np.array(probs)))
    assert failures


def test_auc_that_disagrees_with_the_rank_statistic_fails():
    failures = checks.check_pass(WORKLOADS["train_short"], result(holdout_auc=0.9))
    assert any("rank AUC" in f for f in failures)


def test_two_missed_planted_columns_fail_only_where_recall_is_checked():
    assert checks.check_pass(WORKLOADS["train_short"], result(select_recall=0.8)) == []
    assert checks.check_pass(WORKLOADS["train_short"], result(select_recall=0.6))
    assert checks.check_pass(WORKLOADS["score_long"], result(select_recall=0.6)) == []


def test_ensemble_with_wrong_member_count_fails():
    failures = checks.check_pass(WORKLOADS["kfold_gru"], result(members=9))
    assert any("members" in f for f in failures)


def test_output_that_changes_between_passes_fails():
    assert checks.check_repeat(result(), result()) == []
    assert checks.check_repeat(result(), result(counts={"holdout": 7}))
    moved = result(probs=np.array([0.1, 0.2, 0.8, 0.7, 0.3, 0.91]))
    assert checks.check_repeat(result(), moved)


def test_missing_metric_fails_the_run():
    spec = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec}
    assert checks.validate_metrics(metrics, spec) == []
    dropped = dict(metrics)
    del dropped["epoch_s"]
    assert checks.validate_metrics(dropped, spec) == ["metric epoch_s missing"]
    wrong_unit = dict(metrics, epoch_s={"value": 1.0, "unit": "ms"})
    assert checks.validate_metrics(wrong_unit, spec)
    not_finite = dict(metrics, epoch_s={"value": float("nan"), "unit": "s"})
    assert checks.validate_metrics(not_finite, spec)


def test_workloads_match_benchmark_json():
    assert set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


# Per workload, metrics of layers that the workload exercises in this process.
EXERCISED = {
    "train_short": ["tensor.backward_s", "tensor.graph_nodes_per_step", "training.steps",
                    "model.forward_train_s", "training.adamw_s", "training.val_predict_s"],
    "score_long": ["model.load_model_s", "data.load_adm_per_s", "evaluation.evaluate_s",
                   "tensor.score_graph_nodes_per_batch", "model.forward_eval_s"],
    "kfold_gru": ["training.kfold_train_s", "training.ensemble_predict_s",
                  "features.trees_per_s"],
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    original_train = readmit.training.train
    bench = runner.Run(tiny(name), TINY_SEED, tmp_path)
    spans_path = tmp_path / "spans.jsonl"
    values = runner.measure_traced(bench, 0, spans_path)

    assert bench.failed == 0, bench.failures    # tracing left the outputs unchanged
    assert set(values) - {"spans"} == {m["name"] for m in SPEC["per_layer"]}
    for metric in EXERCISED[name]:
        assert values[metric] > 0, metric
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    traces = {}
    for s in spans:
        traces.setdefault(s["trace"], set()).add(s["span"])
    assert len(traces) == runner.MIN_PAIRS         # one trace id per traced pass
    assert all(s["parent"] is None or s["parent"] in traces[s["trace"]] for s in spans)
    assert readmit.training.train is original_train


def test_graph_nodes_counts_shared_parents_once():
    a = T.Tensor(np.ones(3), requires_grad=True)
    assert tracing.graph_nodes(T.add(T.mul(a, a), a)) == 3


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_short",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
