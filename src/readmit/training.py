"""Training machinery: focal loss, noise schedules, AdamW, the loop, K-fold.

The loss smooths targets, computes stable BCE from logits, and reweights by
alpha * (1 - exp(-BCE))^gamma; gradients flow through the focusing factor.
Feature noise is Gaussian with per-column std proportional to the column's
range over the current batch and is applied to training batches only.
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from . import tensor as T
from .errors import ConfigError, DataError, NumericError
from .evaluation import auc
from .features import (FOREST_TREES, forest_selection, has_note_text, notes_tfidf,
                       prepare_bundles, process_map)
from .model import ReadmissionModel, collate


def _check_finite(cfg, *names):
    """ConfigError naming the first of ``cfg``'s fields ``names`` that is NaN
    or infinite: such a setting would fail later, or quietly do nothing,
    without naming itself."""
    for name in names:
        value = getattr(cfg, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


@dataclass
class LossConfig:
    alpha: float = 0.25
    gamma: float = 2.0
    smooth: float = 0.1

    def __post_init__(self):
        _check_finite(self, "alpha", "gamma")
        if self.alpha <= 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be >= 0, got {self.gamma}")
        if not 0.0 <= self.smooth < 1.0:
            raise ConfigError(f"smooth must be in [0, 1), got {self.smooth}")


def label_smooth(t, smooth):
    """t' = (1 - smooth) * t + smooth / 2."""
    return (1.0 - smooth) * np.asarray(t, dtype=float) + 0.5 * smooth


def focal_loss(logits, targets, cfg):
    """Label-smoothing focal loss over a batch of logits.

    Steps: smooth the 0/1 targets, take elementwise BCE-with-logits,
    set p_t = exp(-BCE), weight by alpha * (1 - p_t)^gamma, then average
    over the batch.  Differentiable with respect to the logits.  At gamma 0
    ``pow_const`` gives a factor of exactly one that passes no gradient, so
    the loss and its gradient are alpha-scaled BCE's bit for bit.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.shape != logits.shape:
        raise ConfigError(
            f"logits shape {logits.shape} != targets shape {targets.shape}"
        )
    if targets.size < 1:
        raise ConfigError("focal_loss needs at least one element")
    smoothed = label_smooth(targets, cfg.smooth)
    bce = T.bce_with_logits(logits, smoothed)
    p_t = T.texp(T.mul_const(bce, -1.0))
    focus = T.pow_const(T.add_const(T.mul_const(p_t, -1.0), 1.0), cfg.gamma)
    return T.mul_const(T.mul(focus, bce), cfg.alpha).mean()


# ---------------------------------------------------------------------------
# schedules


NOISE_KINDS = ("linear", "sinusoidal", "none")


@dataclass
class NoiseSchedule:
    kind: str = "linear"            # one of NOISE_KINDS
    r_initial: float = 0.01
    r_final: float = 0.1
    warmup: int = None              # None -> total epochs
    amplitude: float = 0.05
    period: float = 40.0
    intercept: float = 0.0

    def __post_init__(self):
        _check_finite(self, "r_initial", "r_final", "amplitude", "period", "intercept")
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise schedule kind {self.kind!r}")
        if self.kind == "linear" and (self.r_initial < 0 or self.r_final < 0):
            raise ConfigError("noise ratios must be >= 0")
        self.ratio(0, 1)                # the closed forms check warmup and period

    def ratio(self, epoch, total_epochs):
        if self.kind == "none":
            return 0.0
        if self.kind == "linear":
            w = self.warmup if self.warmup is not None else total_epochs
            return noise_ratio_linear(epoch, w, self.r_initial, self.r_final)
        return noise_ratio_sinusoidal(epoch, self.amplitude, self.period, self.intercept)


def noise_ratio_linear(epoch, warmup, r_initial, r_final):
    """Linear ramp from r_initial to r_final over ``warmup`` epochs, then flat."""
    if warmup < 1:
        raise ConfigError(f"warmup must be >= 1, got {warmup}")
    if epoch >= warmup:
        return r_final
    frac = epoch / warmup
    return r_initial * (1.0 - frac) + r_final * frac


def noise_ratio_sinusoidal(epoch, amplitude, period, intercept):
    """amplitude * sin(2*pi*epoch/period) + intercept, clamped at 0."""
    if period <= 0:
        raise ConfigError(f"period must be positive, got {period}")
    r = amplitude * math.sin(2.0 * math.pi * epoch / period) + intercept
    return max(r, 0.0)


def inject_noise(features, ratio, rng):
    """Add Gaussian noise with per-column std (max - min) * ratio over the batch.

    Constant columns get zero noise; ratio 0 returns an unchanged copy.
    """
    if ratio < 0:
        raise ValueError(f"noise ratio must be >= 0, got {ratio}")
    features = np.asarray(features, dtype=float)
    if ratio == 0 or features.size == 0:
        return features.copy()
    std = (features.max(axis=0) - features.min(axis=0)) * ratio
    return features + rng.standard_normal(features.shape) * std


def cosine_lr(epoch, lr_max, lr_min, total):
    """Cosine annealing from lr_max (epoch 0) to lr_min (epoch == total)."""
    if not 0 <= epoch <= total:
        raise ValueError(f"epoch {epoch} outside [0, {total}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * epoch / total))


# ---------------------------------------------------------------------------
# training configuration


@dataclass
class TrainConfig:
    epochs: int = 100
    lr_max: float = 1e-3
    lr_min: float = 5e-4
    batch_size: int = 32
    loss: LossConfig = field(default_factory=LossConfig)
    noise: NoiseSchedule = field(default_factory=NoiseSchedule)
    grad_clip: float = 1.0
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self):
        _check_finite(self, "lr_max", "lr_min", "grad_clip", "weight_decay")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr_min > self.lr_max:
            raise ConfigError(f"lr_min {self.lr_min} exceeds lr_max {self.lr_max}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


# ---------------------------------------------------------------------------
# optimizer


class AdamW:
    """Adam with decoupled weight decay and bias correction."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr=TrainConfig.lr_max, weight_decay=TrainConfig.weight_decay):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def step(self, lr=None):
        lr = self.lr if lr is None else lr
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ValueError(f"{name}: grad shape {g.shape} != param {p.data.shape}")
            if self.weight_decay:
                p.data -= lr * self.weight_decay * p.data
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def clip_gradients(params, max_norm):
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= factor
    return norm


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    model: ReadmissionModel
    history: list                   # dicts: epoch, train_loss, val_auc, lr, noise_ratio
    best_epoch: int
    best_val_auc: float
    seconds_per_epoch: float


# Bundles per forward pass when scoring.
SCORE_BATCH = 256


def predict_logits(model, bundles, batch_size=SCORE_BATCH):
    """Eval-mode logits for a list of bundles (no dropout, no noise, no graph)."""
    dt = model.config.np_dtype()
    frozen = model.frozen()
    out = np.empty(len(bundles))
    for lo in range(0, len(bundles), batch_size):
        chunk = bundles[lo:lo + batch_size]
        batch = collate(chunk, model.config.modalities, dtype=dt)
        out[lo:lo + len(chunk)] = frozen.forward_batch(batch).data
    return out


def predict_proba(model, bundles, batch_size=SCORE_BATCH):
    return expit(predict_logits(model, bundles, batch_size))


def _train_step(model, opt, batch, labels, cfg, lr, rng):
    """Forward, focal loss, backward, clipping and an AdamW step on one batch.

    Returns the loss; a non-finite loss is returned before any gradient is
    taken.  The step's graph is local, so it is freed on return and never
    lives beside the next step's.
    """
    loss = focal_loss(model.forward_batch(batch, training=True, rng=rng), labels, cfg.loss)
    loss_val = float(loss.data)
    if np.isfinite(loss_val):
        model.zero_grad()
        loss.backward()
        clip_gradients(model.params, cfg.grad_clip)
        opt.step(lr=lr)
    return loss_val


def train(model, train_bundles, train_labels, val_bundles, val_labels, cfg):
    """Run the full training loop; returns the best-validation-AUC snapshot.

    Per epoch: seeded shuffle, per-batch feature noise, forward, focal loss,
    backward, gradient clipping, AdamW step at the cosine-annealed rate.
    Aborts with NumericError on a non-finite loss.
    """
    n = len(train_bundles)
    if n == 0 or len(val_bundles) == 0:
        raise DataError("training and validation sets must be non-empty")
    rng = np.random.default_rng(cfg.seed)
    opt = AdamW(model.params, lr=cfg.lr_max, weight_decay=cfg.weight_decay)
    modalities = model.config.modalities
    dt = model.config.np_dtype()
    lr_total = max(cfg.epochs - 1, 1)

    history = []
    best_auc = -np.inf
    best_state = None
    best_epoch = -1
    total_seconds = 0.0
    val_labels = np.asarray(val_labels, dtype=int)
    single_class_val = val_labels.min() == val_labels.max()

    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        lr = cosine_lr(epoch, cfg.lr_max, cfg.lr_min, lr_total)
        ratio = cfg.noise.ratio(epoch, cfg.epochs)
        order = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            # Noise goes on the batch's rows in float64 before the cast, so a
            # float32 run draws a float64 run's noise.
            batch = collate([train_bundles[i] for i in idx], modalities, dtype=np.float64)
            for mod, arr in batch.arrays.items():
                if ratio:
                    arr = inject_noise(arr, ratio, rng)
                batch.arrays[mod] = arr.astype(dt, copy=False)
            loss_val = _train_step(model, opt, batch, train_labels[idx], cfg, lr, rng)
            if not np.isfinite(loss_val):
                raise NumericError(
                    f"non-finite training loss at epoch {epoch}, batch {lo // cfg.batch_size}"
                )
            epoch_loss += loss_val * len(idx)

        if single_class_val:
            val_auc = float("nan")
        else:
            val_auc = auc(predict_proba(model, val_bundles), val_labels)
        total_seconds += time.perf_counter() - started
        history.append({
            "epoch": epoch,
            "train_loss": epoch_loss / n,
            "val_auc": val_auc,
            "lr": lr,
            "noise_ratio": ratio,
        })
        if not math.isnan(val_auc) and val_auc > best_auc:
            best_auc = val_auc
            best_state = model.get_state()
            best_epoch = epoch

    if best_state is not None:
        model.set_state(best_state)
    return TrainResult(
        model=model,
        history=history,
        best_epoch=best_epoch,
        best_val_auc=float(best_auc) if best_state is not None else float("nan"),
        seconds_per_epoch=total_seconds / cfg.epochs,
    )


def write_history_csv(history, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("epoch,train_loss,val_auc,lr,noise_ratio\n")
        for row in history:
            fh.write(
                f"{row['epoch']},{row['train_loss']!r},{row['val_auc']!r},"
                f"{row['lr']!r},{row['noise_ratio']!r}\n"
            )


# ---------------------------------------------------------------------------
# K-fold ensembling


@dataclass
class Ensemble:
    members: list                   # ReadmissionModel
    fold_val_aucs: list
    pipelines: list                 # (selection, tfidf) per member

    def __post_init__(self):
        if not self.members:
            raise ConfigError("ensemble has no members")
        if len(self.pipelines) != len(self.members):
            raise ConfigError(f"ensemble has {len(self.members)} members but "
                              f"{len(self.pipelines)} pipelines")

    def predict_bundles(self, bundles):
        """Arithmetic mean of member probabilities, one per bundle."""
        return np.mean([predict_proba(m, bundles) for m in self.members], axis=0)

    def predict_records(self, records):
        """Mean member probabilities for raw records.  Each member scores
        bundles built with its own selection, TF-IDF, modalities and caps.
        A one-member ensemble gives its model's bits."""
        return np.mean([
            predict_proba(m, prepare_bundles(records, m.config.modalities, sel, tfidf,
                                             **m.config.caps())[0])
            for m, (sel, tfidf) in zip(self.members, self.pipelines)], axis=0)


def patient_folds(records, k, seed=0):
    """Assign patients to k disjoint folds; returns a fold index per record."""
    if k < 2:
        raise ConfigError(f"K must be >= 2, got {k}")
    patients = sorted({r.patient_id for r in records})
    if len(patients) < k:
        raise DataError(f"need at least {k} patients for {k}-fold, got {len(patients)}")
    rng = np.random.default_rng(seed)
    shuffled = [patients[i] for i in rng.permutation(len(patients))]
    fold_of = {pid: i % k for i, pid in enumerate(shuffled)}
    return np.array([fold_of[r.patient_id] for r in records], dtype=int)


def _train_fold(shared, fold):
    """Fold ``fold``'s trained member (no gradient buffers), validation AUC and
    (selection, tfidf).  ``shared`` carries the bundles and labels of every
    record when the caller gave the whole pipeline; otherwise the fold fits
    the selection or TF-IDF not given on its training records and builds
    every record's bundle with them."""
    records, fold_ids, model_cfg, train_cfg, selection, tfidf, trees, prepared = shared
    cfg = replace(model_cfg, seed=model_cfg.seed + fold)
    train_idx = np.flatnonzero(fold_ids != fold)
    val_idx = np.flatnonzero(fold_ids == fold)
    if prepared is None:
        train_recs = [records[i] for i in train_idx]
        if selection is None and "ehr" in cfg.modalities:
            selection = forest_selection(train_recs, cfg.k_ehr, trees, train_cfg.seed)
        if tfidf is None:
            tfidf = notes_tfidf(train_recs, cfg.modalities)
        prepared = prepare_bundles(records, cfg.modalities, selection, tfidf, **cfg.caps())
    bundles, labels = prepared
    result = train(ReadmissionModel(cfg), [bundles[i] for i in train_idx], labels[train_idx],
                   [bundles[i] for i in val_idx], labels[val_idx],
                   replace(train_cfg, seed=train_cfg.seed + fold))
    result.model.zero_grad()
    return result.model, result.best_val_auc, (selection, tfidf)


# Folds of a K-fold ensemble when the caller names no K.
FOLDS = 10


def kfold_train(records, model_cfg, train_cfg, k=FOLDS, fold_seed=0,
                selection=None, tfidf=None, jobs=1, trees=FOREST_TREES):
    """Train K patient-grouped fold models and return them as an Ensemble.

    Fold i trains on all other folds and validates on fold i; per-fold RNG
    seeds are the base seeds plus the fold index, so folds are reproducible
    independently of execution order or parallelism.  A fold given no
    ``selection`` keeps the top ``model_cfg.k_ehr`` columns of a ``trees``-tree
    forest seeded with ``train_cfg.seed``.
    """
    fold_ids = patient_folds(records, k, seed=fold_seed)
    mods = model_cfg.modalities
    prepared = None
    if ((selection is not None or "ehr" not in mods)
            and (tfidf is not None or not has_note_text(records, mods))):
        prepared = prepare_bundles(records, mods, selection, tfidf, **model_cfg.caps())
    shared = (records, fold_ids, model_cfg, train_cfg, selection, tfidf, trees, prepared)
    results = process_map(_train_fold, range(k), jobs, f"{k} folds", shared=shared)
    members, aucs, pipelines = (list(col) for col in zip(*results))
    return Ensemble(members=members, fold_val_aucs=aucs, pipelines=pipelines)
