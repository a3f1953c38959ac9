"""Correctness checks on a pass's outputs and on the run's reported metrics.

Each check returns a list of failure messages; an empty list means it
passed. A pass with any failure counts as one failed operation.
"""

import math

import numpy as np

from readmit import evaluation


def check_pass(workload, result):
    """Checks that hold for every pass of ``workload``."""
    failures = []
    probs = np.asarray(result.probs, dtype=float)
    if probs.shape != (len(result.labels),):
        failures.append(f"{probs.size} probabilities for {len(result.labels)} admissions")
    elif not (np.isfinite(probs).all() and (probs >= 0).all() and (probs <= 1).all()):
        failures.append("probabilities not all finite and in [0, 1]")
    else:
        # The rank-statistic route is independent of the trapezoid AUC the
        # pass reported.
        rank_auc = evaluation.auc_mann_whitney(probs, result.labels)
        if abs(rank_auc - result.holdout_auc) > 1e-9:
            failures.append(f"holdout_auc {result.holdout_auc} != rank AUC {rank_auc}")
    if not result.holdout_auc >= workload.auc_floor:
        failures.append(f"holdout_auc {result.holdout_auc:.4f} below floor "
                        f"{workload.auc_floor}")
    if result.select_recall < workload.recall_floor:
        failures.append(f"select_recall {result.select_recall} below floor "
                        f"{workload.recall_floor}")
    if result.members != workload.expects_members:
        failures.append(f"ensemble has {result.members} members, "
                        f"expected {workload.expects_members}")
    return failures


def check_repeat(first, result):
    """Deterministic outputs of a pass must equal those of the run's first pass."""
    a, b = first.deterministic(), result.deterministic()
    failures = []
    for key in a:
        if a[key] != b.get(key):
            shown = "" if key == "probs" else f": {a[key]!r} -> {b.get(key)!r}"
            failures.append(f"{key} changed between passes of one seed{shown}")
    return failures


def validate_metrics(metrics, spec):
    """Every metric named in ``spec`` is present, finite and in its unit."""
    failures = []
    for entry in spec:
        got = metrics.get(entry["name"])
        if got is None:
            failures.append(f"metric {entry['name']} missing")
        elif got["unit"] != entry["unit"]:
            failures.append(f"metric {entry['name']} in {got['unit']}, "
                            f"expected {entry['unit']}")
        elif not math.isfinite(got["value"]):
            failures.append(f"metric {entry['name']} is not finite: {got['value']}")
    return failures
