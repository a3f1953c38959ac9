"""The three benchmark workloads, each a closed loop of pipeline stages.

One pass runs a workload's set-up and then its measured phase back to back,
as a desk user would, and times every stage from outside the package. All
inputs come from the workload seed; the program sees only generated data.
A pass calls readmit through module attributes (``features.fit_tfidf``, not
an imported name), so the tracer's wrappers see every call.

Why these three:

* ``train_short`` is the paper's headline task (acceptance criterion 6):
  short stays, so per-op overhead, the d x d projections, backward,
  gradient copies and AdamW dominate; attention's S^2 part does little.
* ``score_long`` mirrors ``readmit eval`` on long three-modality stays:
  forward-only, JSONL parsing and TF-IDF transform, where memory peaks.
  Backward, AdamW and the forest run only in its set-up.
* ``kfold_gru`` runs the recurrent baseline through ``kfold_train`` with two
  worker processes: many tiny serial ops, no attention, and the only
  process-parallel path. The slowest fold of each round of two sets the
  wall time.
"""

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from readmit import data, evaluation, features, model, training

EHR_NOTES = ("ehr", "notes")
ALL_MODALITIES = ("ehr", "cxr", "notes")


@dataclass(frozen=True)
class Sizes:
    n_patients: int
    epochs: int
    trees: int = 100
    top_k: int = 50
    folds: int = 10
    jobs: int = 2
    score_reps: int = 1
    setup_reps: int = 1


@dataclass
class PassResult:
    """Stage times of one pass plus the outputs the checks look at."""

    stages: dict                    # stage name -> seconds
    epochs_trained: int             # epochs behind stages["train"]
    probs: np.ndarray               # holdout probabilities
    labels: np.ndarray              # holdout labels
    holdout_auc: float
    oracle_auc: float               # AUC of the generator's true logit
    select_recall: float            # planted columns found in the top 5
    members: int = 1                # models behind the probabilities
    counts: dict = field(default_factory=dict)

    def deterministic(self):
        """Outputs that must repeat exactly for a given seed."""
        return {
            "holdout_auc": self.holdout_auc,
            "oracle_auc_gap": self.oracle_auc - self.holdout_auc,
            "select_recall": self.select_recall,
            "members": self.members,
            "probs": self.probs.tobytes().hex(),
            **self.counts,
        }


@contextmanager
def timed(stages, name):
    started = time.perf_counter()
    try:
        yield
    finally:
        stages[name] = stages.get(name, 0.0) + time.perf_counter() - started


def _select(ds, meta, sizes, seed, stages):
    with timed(stages, "select"):
        X, y = features.patient_mean_features(ds)
        forest = features.train_random_forest(X, y, n_trees=sizes.trees, seed=seed)
        selection = features.select_top_k(features.feature_importances(forest), sizes.top_k)
    planted = set(meta["informative_ehr_columns"])
    recall = len(set(selection.indices[:5]) & planted) / len(planted)
    return selection, recall


def _fit_tfidf(ds, stages):
    with timed(stages, "tfidf"):
        return features.fit_tfidf([n for r in ds.records for n in r.notes])


def _repeat(fn, reps, pick):
    """Call ``fn`` ``reps`` times, each from a collected heap, as a fresh
    process would start; returns its last result and ``pick`` of the times."""
    times = []
    for _ in range(reps):
        gc.collect()
        started = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - started)
    return out, float(pick(times))


def _oracle_auc(records, meta, labels):
    return evaluation.auc([data.synth_logit(r, meta) for r in records], labels)


def train_short(seed, sizes, workdir):
    stages = {}

    def setup():
        cohort, meta = data.generate_synthetic(
            data.SynthConfig(n_patients=sizes.n_patients, seed=seed))
        return cohort, meta, data.split_by_patient(cohort, (0.7, 0.15, 0.15), seed=seed)

    # The set-up is short, so it is timed several times per pass.
    (cohort, meta, (tr, va, te)), stages["setup"] = _repeat(setup, sizes.setup_reps,
                                                            np.median)
    selection, recall = _select(tr, meta, sizes, seed, stages)
    tfidf = _fit_tfidf(tr, stages)
    mods = EHR_NOTES
    with timed(stages, "bundles"):
        tb, tl = features.prepare_bundles(tr.records, mods, selection, tfidf)
        vb, vl = features.prepare_bundles(va.records, mods, selection, tfidf)
    cfg = model.ModelConfig(k_ehr=selection.k, modalities=mods, seed=seed)
    tcfg = training.TrainConfig(epochs=sizes.epochs, batch_size=32, seed=seed)
    with timed(stages, "train"):
        result = training.train(model.ReadmissionModel(cfg), tb, tl, vb, vl, tcfg)

    def score():
        hb, hl = features.prepare_bundles(te.records, mods, selection, tfidf)
        probs = training.predict_proba(result.model, hb, batch_size=256)
        return probs, hl, evaluation.auc(probs, hl)

    (probs, hl, holdout_auc), stages["score"] = _repeat(score, sizes.score_reps, min)
    return PassResult(
        stages=stages, epochs_trained=sizes.epochs, probs=probs, labels=hl,
        holdout_auc=holdout_auc, oracle_auc=_oracle_auc(te.records, meta, hl),
        select_recall=recall,
        counts={"admissions": cohort.n_admissions, "train": len(tb),
                "val": len(vb), "holdout": len(hl)},
    )


def score_long(seed, sizes, workdir):
    """Set-up trains briefly and saves; the measured phase is ``readmit eval``."""
    stages = {}
    holdout_path = workdir / "holdout.jsonl"
    model_path = workdir / "model.json"
    mods = ALL_MODALITIES
    with timed(stages, "setup"):
        cohort, meta = data.generate_synthetic(data.SynthConfig(
            n_patients=sizes.n_patients, seed=seed,
            day_range=(32, 64), image_range=(1, 8), note_range=(16, 32)))
        tr, va, te = data.split_by_patient(cohort, (0.5, 0.15, 0.35), seed=seed)
        data.save_dataset(te, holdout_path)
        selection, recall = _select(tr, meta, sizes, seed, stages)
        tfidf = _fit_tfidf(tr, stages)
        with timed(stages, "bundles"):
            tb, tl = features.prepare_bundles(tr.records, mods, selection, tfidf)
            vb, vl = features.prepare_bundles(va.records, mods, selection, tfidf)
        cfg = model.ModelConfig(k_ehr=selection.k, modalities=mods, seed=seed)
        tcfg = training.TrainConfig(epochs=sizes.epochs, batch_size=32, seed=seed)
        with timed(stages, "train"):
            result = training.train(model.ReadmissionModel(cfg), tb, tl, vb, vl, tcfg)
        model.save_model(model_path, result.model, selection, tfidf)
        del result, tb, vb

    def score():
        loaded, sel, tf, _fp = model.load_model(model_path)
        holdout = data.load_dataset(holdout_path)
        c = loaded.config
        caps = dict(max_days=c.max_days, max_images=c.max_images, max_notes=c.max_notes)
        scored = {}

        def score_fn(records):
            bundles, _ = features.prepare_bundles(records, c.modalities, sel, tf, **caps)
            scored["probs"] = training.predict_proba(loaded, bundles, batch_size=256)
            return scored["probs"]

        report = evaluation.evaluate(score_fn, holdout.records)
        return scored["probs"], np.array([r.label for r in holdout.records]), report.auc

    (probs, labels, holdout_auc), stages["score"] = _repeat(score, sizes.score_reps, min)
    return PassResult(
        stages=stages, epochs_trained=sizes.epochs, probs=probs, labels=labels,
        holdout_auc=holdout_auc, oracle_auc=_oracle_auc(te.records, meta, labels),
        select_recall=recall,
        counts={"admissions": cohort.n_admissions, "train": len(tl),
                "val": len(vl), "holdout": len(labels)},
    )


def kfold_gru(seed, sizes, workdir):
    stages = {}
    mods = EHR_NOTES
    with timed(stages, "setup"):
        cohort, meta = data.generate_synthetic(
            data.SynthConfig(n_patients=sizes.n_patients, seed=seed))
        dev_tr, dev_va, hold = data.split_by_patient(cohort, (0.6, 0.15, 0.25), seed=seed)
        dev = data.Dataset(records=dev_tr.records + dev_va.records,
                           ehr_feature_names=cohort.ehr_feature_names)
        selection, recall = _select(dev, meta, sizes, seed, stages)
        tfidf = _fit_tfidf(dev, stages)
    cfg = model.ModelConfig(k_ehr=selection.k, modalities=mods, encoder="gru", seed=seed)
    tcfg = training.TrainConfig(epochs=sizes.epochs, batch_size=32, seed=seed)
    with timed(stages, "train"):
        ensemble = training.kfold_train(dev.records, cfg, tcfg, k=sizes.folds,
                                        fold_seed=seed, selection=selection,
                                        tfidf=tfidf, jobs=sizes.jobs)

    def score():
        hb, hl = features.prepare_bundles(hold.records, mods, selection, tfidf)
        probs = ensemble.predict_bundles(hb)
        return probs, hl, evaluation.auc(probs, hl)

    (probs, hl, holdout_auc), stages["score"] = _repeat(score, sizes.score_reps, min)
    return PassResult(
        stages=stages, epochs_trained=sizes.folds * sizes.epochs, probs=probs,
        labels=hl, holdout_auc=holdout_auc,
        oracle_auc=_oracle_auc(hold.records, meta, hl), select_recall=recall,
        members=len(ensemble.members),
        counts={"admissions": cohort.n_admissions, "dev": len(dev.records),
                "holdout": len(hl)},
    )


@dataclass(frozen=True)
class Workload:
    name: str
    run_pass: object                # (seed, sizes, workdir) -> PassResult
    sizes: Sizes
    processes: int                  # busy processes, for the thread pin
    auc_floor: float
    expects_members: int = 1
    recall_floor: float = 0.0       # least share of planted columns in the top 5


WORKLOADS = {
    w.name: w for w in (
        Workload(name="train_short", run_pass=train_short,
                 sizes=Sizes(n_patients=500, epochs=3, score_reps=10, setup_reps=5),
                 processes=1, auc_floor=0.55, recall_floor=0.8),
        Workload(name="score_long", run_pass=score_long,
                 sizes=Sizes(n_patients=120, epochs=3, score_reps=5),
                 processes=1, auc_floor=0.51),
        Workload(name="kfold_gru", run_pass=kfold_gru,
                 sizes=Sizes(n_patients=200, epochs=2, score_reps=3),
                 processes=2, auc_floor=0.55, expects_members=10),
    )
}


def end_to_end(passes):
    """End-to-end metrics over passes; every workload defines each one.

    ``setup_s`` is the median set-up time. The other times are those of the
    fastest pass: the machine is shared, and other load only ever slows a
    pass down. ``time_to_model_s`` sums the stages from cohort to scored
    holdout; ``epoch_s`` is training wall time over the epochs trained (all
    folds for K-fold); ``score_adm_per_s`` is holdout admissions over the
    score stage.
    """
    model_stages = ("select", "tfidf", "bundles", "train", "score")
    return {
        "setup_s": float(np.median([p.stages["setup"] for p in passes])),
        "time_to_model_s": min(sum(p.stages.get(s, 0.0) for s in model_stages)
                               for p in passes),
        "epoch_s": min(p.stages["train"] / p.epochs_trained for p in passes),
        "select_s": min(p.stages["select"] for p in passes),
        "score_adm_per_s": max(len(p.labels) / p.stages["score"] for p in passes),
    }
