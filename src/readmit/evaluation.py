"""ROC/AUC computation and experiment reports.

Two independent AUC routes are kept side by side: the trapezoid integral of
the tie-grouped ROC curve, and the Mann-Whitney rank statistic (tied pairs
get half credit).  They agree to floating-point precision and cross-check
each other in the test suite.
"""

import csv
import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError


def check_classes(labels, source="labels"):
    """``labels`` as ints with their positive and negative counts.  An AUC
    needs both classes: labels of one class are a DataError that names
    ``source`` and both counts."""
    labels = np.asarray(labels, dtype=int)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError(f"{source}: AUC needs both classes, got {n_pos} positive and "
                        f"{n_neg} negative admissions")
    return labels, n_pos, n_neg


def roc_curve(scores, labels):
    """ROC points from (0,0) to (1,1), thresholds at distinct scores descending.

    Equal scores cross the threshold together, so ties contribute diagonal
    segments rather than separate steps.
    """
    scores = np.asarray(scores, dtype=float)
    labels, n_pos, n_neg = check_classes(labels)
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    y = labels[order]
    boundary = np.nonzero(np.diff(s))[0]
    cuts = np.concatenate([boundary, [s.size - 1]])
    tp = np.cumsum(y)[cuts]
    fp = cuts + 1 - tp
    points = [(0.0, 0.0)]
    points.extend((f / n_neg, t / n_pos) for f, t in zip(fp, tp))
    return points


def roc_area(points):
    """Area under ROC points by the trapezoidal rule."""
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points[:-1], points[1:]):
        area += (x1 - x0) * 0.5 * (y0 + y1)
    return float(area)


def auc(scores, labels):
    """Area under the ROC curve (trapezoidal rule over tie-grouped points)."""
    return roc_area(roc_curve(scores, labels))


def auc_mann_whitney(scores, labels):
    """AUC as (concordant pairs + half ties) / (n_pos * n_neg), via average ranks."""
    labels, n_pos, n_neg = check_classes(labels)
    # a group of c tied scores ending at 1-based rank e shares rank e - (c - 1) / 2
    _, group, counts = np.unique(np.asarray(scores, dtype=float), return_inverse=True,
                                 return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[group]
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@dataclass
class EvalReport:
    auc: float
    n_pos: int
    n_neg: int
    roc_points: list
    params: int = None
    seconds_per_epoch: float = None
    fingerprint: str = None


def evaluate(score_fn, records, params=None, seconds_per_epoch=None, fingerprint=None):
    """Score records in their given order and assemble an EvalReport.

    ``score_fn`` maps a list of records to an array of scores; it is called
    once, so repeated evaluation of a deterministic scorer is reproducible.
    """
    if not records:
        raise DataError("cannot evaluate on an empty record list")
    scores = np.asarray(score_fn(records), dtype=float)
    labels = np.array([r.label for r in records], dtype=int)
    points = roc_curve(scores, labels)
    return EvalReport(
        auc=roc_area(points),
        n_pos=int(labels.sum()),
        n_neg=int(labels.size - labels.sum()),
        roc_points=points,
        params=params,
        seconds_per_epoch=seconds_per_epoch,
        fingerprint=fingerprint,
    )


def save_report(report, out_dir):
    """Write report.json and roc.csv under ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(report), fh, sort_keys=True, indent=2)
    with open(out_dir / "roc.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr"])
        for f, t in report.roc_points:
            writer.writerow([repr(float(f)), repr(float(t))])
