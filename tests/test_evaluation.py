"""ROC/AUC: trapezoid vs Mann-Whitney cross-checks and report assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readmit.data import SynthConfig, generate_synthetic, synth_logit
from readmit.errors import DataError
from readmit.evaluation import (EvalReport, auc, auc_mann_whitney, evaluate,
                                roc_curve, save_report)


def test_roc_hand_case():
    points = roc_curve([0.8, 0.6, 0.4, 0.2], [1, 0, 1, 0])
    expected = [(0.0, 0.0), (0.0, 0.5), (0.5, 0.5), (0.5, 1.0), (1.0, 1.0)]
    assert points == expected


def test_roc_perfect_separation_passes_corner():
    points = roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert (0.0, 1.0) in points


def test_roc_all_tied_is_diagonal():
    points = roc_curve([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
    assert points == [(0.0, 0.0), (1.0, 1.0)]


def test_roc_monotone_from_origin_to_corner():
    rng = np.random.default_rng(0)
    scores = rng.random(50).round(1)  # plenty of ties
    labels = rng.integers(0, 2, size=50)
    points = roc_curve(scores, labels)
    assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)
    fpr = [p[0] for p in points]
    tpr = [p[1] for p in points]
    assert all(a <= b for a, b in zip(fpr[:-1], fpr[1:]))
    assert all(a <= b for a, b in zip(tpr[:-1], tpr[1:]))


def test_roc_single_class_errors():
    with pytest.raises(DataError, match="^labels: AUC needs both classes, got 2 positive "
                                        "and 0 negative admissions$"):
        roc_curve([0.1, 0.9], [1, 1])


def test_auc_hand_case_pair_count():
    # 3 of 4 positive-negative pairs concordant, 0 ties -> 0.75
    assert auc([0.8, 0.6, 0.4, 0.2], [1, 0, 1, 0]) == 0.75
    assert auc_mann_whitney([0.8, 0.6, 0.4, 0.2], [1, 0, 1, 0]) == 0.75


def test_auc_is_a_python_float():
    """history.csv writes val_auc with repr, which must read as a number."""
    value = auc([0.8, 0.6, 0.4, 0.2], [1, 0, 1, 0])
    assert type(value) is float
    assert float(repr(value)) == value


def test_auc_perfect_and_tied():
    assert auc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0
    assert auc([0.5, 0.5, 0.5], [1, 0, 1]) == 0.5


def test_trapezoid_equals_mann_whitney_with_ties():
    rng = np.random.default_rng(1)
    for trial in range(1000):
        n = int(rng.integers(2, 200))
        scores = rng.integers(0, max(2, n // 3), size=n).astype(float)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        a = auc(scores, labels)
        b = auc_mann_whitney(scores, labels)
        assert abs(a - b) < 1e-12, f"trial {trial}: {a} vs {b}"


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    scale=st.floats(0.1, 10.0),
    shift=st.floats(-5.0, 5.0),
)
def test_auc_invariant_under_monotone_transform(seed, scale, shift):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=30)
    labels = np.concatenate([np.ones(10, dtype=int), np.zeros(20, dtype=int)])
    base = auc(scores, labels)
    for transform in (lambda s: scale * s + shift,
                      lambda s: np.exp(s),
                      lambda s: np.tanh(s) * scale):
        assert auc(transform(scores), labels) == pytest.approx(base, abs=1e-12)


def test_auc_symmetry_without_ties():
    rng = np.random.default_rng(2)
    scores = rng.permutation(np.linspace(0, 1, 40))
    labels = rng.integers(0, 2, size=40)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_oracle_predictor_beats_090():
    ds, meta = generate_synthetic(SynthConfig(n_patients=400, seed=3))
    holdout = ds.records[-250:]

    def oracle(records):
        return np.array([synth_logit(r, meta) for r in records])

    report = evaluate(oracle, holdout, params=0, fingerprint="oracle")
    assert report.auc >= 0.90
    assert report.n_pos + report.n_neg == len(holdout)


def test_evaluate_random_predictor_is_null():
    ds, _ = generate_synthetic(SynthConfig(n_patients=350, seed=4))
    rng = np.random.default_rng(5)

    def noise(records):
        return rng.random(len(records))

    # a fresh generator each call; the null band is wide enough for one draw
    report = evaluate(lambda recs: np.random.default_rng(6).random(len(recs)),
                      ds.records)
    assert 0.4 <= report.auc <= 0.6


def test_evaluate_is_pure():
    ds, meta = generate_synthetic(SynthConfig(n_patients=60, seed=7))

    def oracle(records):
        return np.array([synth_logit(r, meta) for r in records])

    a = evaluate(oracle, ds.records)
    b = evaluate(oracle, ds.records)
    assert a.auc == b.auc and a.roc_points == b.roc_points


def test_evaluate_empty_errors():
    with pytest.raises(DataError):
        evaluate(lambda recs: np.array([]), [])


def test_report_io(tmp_path):
    report = EvalReport(auc=0.75, n_pos=2, n_neg=2,
                        roc_points=[(0.0, 0.0), (0.5, 1.0), (1.0, 1.0)],
                        params=123, seconds_per_epoch=0.5, fingerprint="fp")
    save_report(report, tmp_path)
    import json

    back = json.loads((tmp_path / "report.json").read_text())
    assert back["auc"] == 0.75 and back["params"] == 123
    lines = (tmp_path / "roc.csv").read_text().strip().splitlines()
    assert lines[0] == "fpr,tpr" and len(lines) == 4
