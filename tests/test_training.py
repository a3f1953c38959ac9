"""Loss, schedules, optimizer, training loop, K-fold ensembling."""

import gc
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readmit import tensor as T
from readmit.errors import ConfigError, DataError, NumericError
from readmit.features import FeatureBundle
from readmit.model import ModelConfig, ReadmissionModel, collate
from readmit.tensor import Tensor, grad_check
from readmit.training import (AdamW, Ensemble, LossConfig, NoiseSchedule,
                              TrainConfig, clip_gradients, cosine_lr,
                              focal_loss, inject_noise,
                              kfold_train, label_smooth, noise_ratio_linear,
                              noise_ratio_sinusoidal, patient_folds,
                              predict_logits, predict_proba, train,
                              write_history_csv)


def logits_of(values):
    t = Tensor(np.asarray(values, dtype=float))
    t.requires_grad = True
    return t


# ---------------------------------------------------------------------------
# label smoothing


def test_label_smooth_values():
    assert label_smooth(1, 0.1) == pytest.approx(0.95, abs=1e-15)
    assert label_smooth(0, 0.1) == pytest.approx(0.05, abs=1e-15)


def test_label_smooth_identity():
    assert label_smooth(1, 0.0) == 1.0
    assert label_smooth(0, 0.0) == 0.0


# ---------------------------------------------------------------------------
# focal loss


def stable_bce(z, t):
    return np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))


def test_focal_worked_scalar_case():
    # z=0, t=1, alpha=1, gamma=2: BCE=ln2, p_t=0.5, loss = 0.25*ln2
    cfg = LossConfig(alpha=1.0, gamma=2.0, smooth=0.0)
    loss = focal_loss(logits_of([0.0]), [1.0], cfg)
    assert float(loss.data) == pytest.approx(0.25 * math.log(2.0), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    z=st.lists(st.floats(-20, 20), min_size=1, max_size=16),
    seed=st.integers(0, 10_000),
)
def test_focal_reduces_to_bce(z, seed):
    z = np.array(z)
    t = np.random.default_rng(seed).integers(0, 2, size=z.size).astype(float)
    cfg = LossConfig(alpha=1.0, gamma=0.0, smooth=0.0)
    loss = focal_loss(logits_of(z), t, cfg)
    assert abs(float(loss.data) - stable_bce(z, t).mean()) < 1e-12


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("smooth", [0.0, 0.1])
def test_focal_gamma_zero_gradient_is_scaled_bce_bit_for_bit(dtype, smooth):
    """With gamma 0 the focusing factor is exactly one and passes no gradient,
    so the general path gives alpha-scaled BCE's loss and logit gradient."""
    rng = np.random.default_rng(4)
    z = np.concatenate([[0.0, 40.0, -40.0, 800.0], rng.normal(size=12) * 6]).astype(dtype)
    t = np.concatenate([[1.0, 1.0, 0.0, 1.0], rng.integers(0, 2, size=12)])
    cfg = LossConfig(alpha=0.25, gamma=0.0, smooth=smooth)
    focal = Tensor(z, requires_grad=True)
    loss = focal_loss(focal, t, cfg)
    loss.backward()
    ref = Tensor(z, requires_grad=True)
    ref_loss = T.mul_const(T.bce_with_logits(ref, label_smooth(t, smooth)), cfg.alpha).mean()
    ref_loss.backward()
    assert loss.data.tobytes() == ref_loss.data.tobytes()
    assert focal.grad.dtype == dtype and focal.grad.tobytes() == ref.grad.tobytes()


def test_focal_gradient_random_batch():
    rng = np.random.default_rng(0)
    t = rng.integers(0, 2, size=12).astype(float)
    z = logits_of(rng.normal(size=12) * 2)
    cfg = LossConfig(alpha=0.25, gamma=2.0, smooth=0.1)
    assert grad_check(lambda u: focal_loss(u, t, cfg), z) < 1e-6


def test_focal_monotone_decreasing_unsmoothed():
    cfg = LossConfig(alpha=0.5, gamma=2.0, smooth=0.0)
    zs = np.linspace(-8, 8, 200)
    losses = [float(focal_loss(logits_of([z]), [1.0], cfg).data) for z in zs]
    assert all(a > b for a, b in zip(losses[:-1], losses[1:]))


def test_focal_monotone_decreasing_smoothed_below_crossover():
    # with smoothing the BCE minimum sits at z = logit(1 - smooth/2); the loss
    # is decreasing for t=1 everywhere below it
    smooth = 0.1
    cfg = LossConfig(alpha=1.0, gamma=2.0, smooth=smooth)
    crossover = math.log(0.95 / 0.05)
    zs = np.linspace(-8, crossover - 0.05, 200)
    losses = [float(focal_loss(logits_of([z]), [1.0], cfg).data) for z in zs]
    assert all(a > b for a, b in zip(losses[:-1], losses[1:]))


def test_focal_is_the_mean_of_one_element_losses():
    z = np.array([0.3, -1.2, 0.7])
    t = np.array([1.0, 0.0, 1.0])
    cfg = LossConfig()
    batch = focal_loss(logits_of(z), t, cfg).data
    assert batch.shape == ()
    each = [float(focal_loss(logits_of([zi]), [ti], cfg).data) for zi, ti in zip(z, t)]
    assert float(batch) == pytest.approx(np.mean(each), abs=1e-12)


def test_focal_shape_mismatch():
    with pytest.raises(ConfigError):
        focal_loss(logits_of([0.0, 1.0]), [1.0], LossConfig())


# ---------------------------------------------------------------------------
# schedules


def test_linear_noise_endpoints_and_midpoint():
    assert noise_ratio_linear(0, 100, 0.01, 0.1) == pytest.approx(0.01, abs=1e-15)
    assert noise_ratio_linear(100, 100, 0.01, 0.1) == 0.1
    assert noise_ratio_linear(250, 100, 0.01, 0.1) == 0.1
    assert noise_ratio_linear(50, 100, 0.01, 0.1) == pytest.approx(0.055, abs=1e-12)


def test_sinusoidal_noise_values():
    assert noise_ratio_sinusoidal(0, 0.05, 40, 0.02) == pytest.approx(0.02, abs=1e-15)
    assert noise_ratio_sinusoidal(10, 0.05, 40, 0.0) == pytest.approx(0.05, abs=1e-12)
    assert noise_ratio_sinusoidal(20, 0.05, 40, 0.0) == pytest.approx(0.0, abs=1e-12)
    # negative lobe clamps to zero
    assert noise_ratio_sinusoidal(30, 0.05, 40, 0.0) == 0.0


def test_schedule_dispatch():
    sched = NoiseSchedule(kind="none")
    assert sched.ratio(5, 100) == 0.0
    sched = NoiseSchedule(kind="linear", r_initial=0.0, r_final=0.2, warmup=None)
    assert sched.ratio(50, 100) == pytest.approx(0.1)
    with pytest.raises(ConfigError):
        NoiseSchedule(kind="quadratic")


def test_linear_schedule_rejects_warmup_below_one_when_built():
    with pytest.raises(ConfigError, match="warmup must be >= 1, got 0"):
        NoiseSchedule(kind="linear", warmup=0)
    assert NoiseSchedule(kind="sinusoidal", warmup=0).ratio(10, 100) > 0


def test_cosine_lr_endpoints():
    assert cosine_lr(0, 1e-3, 5e-4, 100) == pytest.approx(1e-3, abs=1e-18)
    assert cosine_lr(100, 1e-3, 5e-4, 100) == pytest.approx(5e-4, abs=1e-18)
    assert cosine_lr(50, 1e-3, 5e-4, 100) == pytest.approx(7.5e-4, abs=1e-18)


def test_cosine_lr_domain():
    with pytest.raises(ValueError):
        cosine_lr(101, 1e-3, 5e-4, 100)


# ---------------------------------------------------------------------------
# noise injection


def test_inject_noise_zero_ratio_unchanged():
    rng = np.random.default_rng(1)
    F = rng.normal(size=(10, 4))
    out = inject_noise(F, 0.0, rng)
    np.testing.assert_array_equal(out, F)
    assert out is not F


def test_inject_noise_constant_column_unchanged():
    rng = np.random.default_rng(2)
    F = rng.normal(size=(20, 3))
    F[:, 1] = 5.0
    out = inject_noise(F, 0.3, rng)
    np.testing.assert_array_equal(out[:, 1], F[:, 1])
    assert not np.array_equal(out[:, 0], F[:, 0])


def test_inject_noise_monte_carlo_std():
    """Column with range 10 at ratio 0.1 -> noise std 1.0 +- 0.02 over 1e5 draws."""
    rng = np.random.default_rng(3)
    F = np.array([[0.0], [10.0]])
    draws = np.concatenate([inject_noise(F, 0.1, rng) - F for _ in range(50_000)])
    assert draws.std() == pytest.approx(1.0, abs=0.02)


def test_inject_noise_rejects_negative_ratio():
    with pytest.raises(ValueError):
        inject_noise(np.zeros((2, 2)), -0.1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# optimizer


def make_param(values):
    p = Tensor(np.asarray(values, dtype=float))
    p.requires_grad = True
    return p


def test_adamw_zero_grad_zero_decay_is_identity():
    w = make_param([1.0, -2.0])
    opt = AdamW({"w": w}, lr=0.1, weight_decay=0.0)
    w.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(w.data, [1.0, -2.0])


def test_adamw_descends_quadratic():
    w = make_param([1.0])
    opt = AdamW({"w": w}, lr=0.01, weight_decay=0.0)
    w.grad = w.data.copy()     # f(w) = w^2/2
    opt.step()
    assert 0.0 < w.data[0] < 1.0


def test_adamw_converges_on_2d_quadratic():
    w = make_param([1.0, -0.7])
    opt = AdamW({"w": w}, lr=0.1, weight_decay=0.0)
    for _ in range(200):
        w.grad = w.data.copy()
        opt.step()
    assert np.abs(w.data).max() < 1e-3


def test_adamw_shape_mismatch():
    w = make_param([1.0, 2.0])
    opt = AdamW({"w": w}, lr=0.1)
    w.grad = np.zeros(3)
    with pytest.raises(ValueError):
        opt.step()


def test_clip_gradients():
    a = make_param([3.0])
    b = make_param([4.0])
    a.grad = np.array([3.0])
    b.grad = np.array([4.0])
    norm = clip_gradients({"a": a, "b": b}, 1.0)
    assert norm == pytest.approx(5.0)
    clipped = math.sqrt(float(a.grad[0] ** 2 + b.grad[0] ** 2))
    assert clipped == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# training loop


def tiny_setup(n=16, seed=0, d=8):
    rng = np.random.default_rng(seed)
    bundles = [FeatureBundle(ehr=rng.normal(size=(int(rng.integers(1, 5)), d)))
               for _ in range(n)]
    labels = rng.integers(0, 2, size=n)
    cfg = ModelConfig(d_model=16, n_heads=2, ehr_layers=1, d_ff=32, dropout=0.0,
                      k_ehr=d, modalities=("ehr",), seed=seed, dtype="float64")
    return bundles, labels, cfg


def quick_train_cfg(**kwargs):
    defaults = dict(epochs=5, lr_max=3e-3, lr_min=1e-3, batch_size=8,
                    loss=LossConfig(smooth=0.0), noise=NoiseSchedule(kind="none"),
                    grad_clip=5.0, weight_decay=0.0, seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def test_training_step_leaves_no_cyclic_garbage():
    """A dropped graph is freed by reference counting, without the cyclic GC."""
    bundles, labels, _ = tiny_setup(n=8)
    cfg = ModelConfig(d_model=12, n_heads=3, ehr_layers=1, d_ff=16, k_ehr=8,
                      modalities=("ehr",))
    model = ReadmissionModel(cfg)
    opt = AdamW(model.params)
    rng = np.random.default_rng(0)
    gc.collect()
    gc.disable()
    try:
        logits = model.forward_batch(collate(bundles, cfg.modalities), training=True, rng=rng)
        loss = focal_loss(logits, labels, LossConfig())
        model.zero_grad()
        loss.backward()
        clip_gradients(model.params, 1.0)
        opt.step()
        del logits, loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_predict_logits_builds_no_graph(monkeypatch):
    bundles, _, cfg = tiny_setup(n=6)
    model = ReadmissionModel(cfg)
    expected = model.forward_batch(collate(bundles, cfg.modalities)).data
    outputs = []
    forward_batch = ReadmissionModel.forward_batch

    def recording_forward(self, batch, training=False, rng=None):
        outputs.append(forward_batch(self, batch, training, rng))
        return outputs[-1]

    monkeypatch.setattr(ReadmissionModel, "forward_batch", recording_forward)
    assert predict_logits(model, bundles).tobytes() == expected.tobytes()
    assert [out._parents for out in outputs] == [()]
    assert all(p.requires_grad for p in model.params.values())


def test_predict_logits_equals_forward_batch_in_float32():
    bundles, _, cfg = tiny_setup(n=6)
    model = ReadmissionModel(replace(cfg, dtype="float32"))
    expected = model.forward_batch(collate(bundles, cfg.modalities, dtype=np.float32)).data
    assert expected.dtype == np.float32
    assert predict_logits(model, bundles).tobytes() == expected.astype(np.float64).tobytes()


def test_training_holds_one_step_graph_at_a_time(monkeypatch):
    """No training output, and so no graph, outlives its step: each is dead
    by the next forward pass, training or validation, by reference counting
    alone."""
    bundles, labels, cfg = tiny_setup(n=16)
    outputs = []            # weak references to the data of training outputs
    calls = []
    forward_batch = ReadmissionModel.forward_batch

    def watching_forward(self, batch, training=False, rng=None):
        alive = [i for i, ref in enumerate(outputs) if ref() is not None]
        assert not alive, f"training outputs {alive} alive at forward call {len(calls)}"
        calls.append(training)
        out = forward_batch(self, batch, training, rng)
        if training:
            outputs.append(weakref.ref(out.data))   # dies with its Tensor
        return out

    monkeypatch.setattr(ReadmissionModel, "forward_batch", watching_forward)
    gc.collect()
    gc.disable()
    try:
        train(ReadmissionModel(cfg), bundles, labels, bundles, labels,
              quick_train_cfg(epochs=2, batch_size=4))
    finally:
        gc.enable()
    assert calls == ([True] * 4 + [False]) * 2


# Bytes one training step's graph holds after forward and loss at the config
# of test_training_step_graph_bytes_stay_under_bound: ~2.59 MB when dropout
# kept float64 multipliers, attention a zero-padded q|k|v copy and the
# residual projections their linear and dropout outputs; 1,803,006 while GELU
# and the FFN dropout were nodes of their own, each keeping its output;
# 1,681,744 with both folded into the FFN's first `linear` node.
STEP_GRAPH_BYTES_BOUND = 1_750_000


def test_training_step_graph_bytes_stay_under_bound():
    rng = np.random.default_rng(5)
    bundles = [FeatureBundle(ehr=rng.normal(size=(days, 8)), notes=rng.normal(size=(notes, 1024)))
               for days, notes in zip([12, 3, 9, 1, 7, 12, 5, 2], [4, 1, 6, 2, 3, 6, 1, 5])]
    cfg = ModelConfig(d_model=48, n_heads=3, ehr_layers=2, notes_layers=2, d_ff=96,
                      dropout=0.1, k_ehr=8, modalities=("ehr", "notes"))
    model = ReadmissionModel(cfg)
    batch = collate(bundles, cfg.modalities)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = focal_loss(model.forward_batch(batch, training=True, rng=np.random.default_rng(0)),
                          np.array([1, 0] * 4), LossConfig())
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss.data)
    assert held < STEP_GRAPH_BYTES_BOUND, held


def test_memorization_capacity():
    """16 records memorized to loss < 0.05 within 200 epochs."""
    bundles, labels, cfg = tiny_setup()
    model = ReadmissionModel(cfg)
    result = train(model, bundles, labels, bundles, labels,
                   quick_train_cfg(epochs=200))
    assert min(h["train_loss"] for h in result.history) < 0.05


def test_train_deterministic_history():
    bundles, labels, cfg = tiny_setup(seed=3)
    cfg_a = ModelConfig(**{**cfg.to_json(), "modalities": cfg.modalities})
    run_a = train(ReadmissionModel(cfg_a), bundles, labels, bundles, labels,
                  quick_train_cfg(seed=7))
    run_b = train(ReadmissionModel(cfg_a), bundles, labels, bundles, labels,
                  quick_train_cfg(seed=7))
    assert run_a.history == run_b.history
    for name in run_a.model.params:
        np.testing.assert_array_equal(run_a.model.params[name].data,
                                      run_b.model.params[name].data)


def test_train_history_columns(tmp_path):
    bundles, labels, cfg = tiny_setup(seed=4)
    result = train(ReadmissionModel(cfg), bundles, labels, bundles, labels,
                   quick_train_cfg(epochs=3))
    assert len(result.history) == 3
    assert set(result.history[0]) == {"epoch", "train_loss", "val_auc", "lr", "noise_ratio"}
    path = tmp_path / "history.csv"
    write_history_csv(result.history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_auc,lr,noise_ratio"
    assert len(lines) == 4


def test_train_noise_is_train_only():
    """Eval predictions are identical across calls even with noise enabled."""
    bundles, labels, cfg = tiny_setup(seed=5)
    result = train(ReadmissionModel(cfg), bundles, labels, bundles, labels,
                   quick_train_cfg(epochs=2, noise=NoiseSchedule(kind="linear")))
    a = predict_proba(result.model, bundles)
    b = predict_proba(result.model, bundles)
    np.testing.assert_array_equal(a, b)


def _reference_noisy_batch(bundles, modalities, ratio, rng):
    """The loop's former path: noise the concatenated valid rows of each
    modality, rebuild the bundles, then collate them in the model dtype."""
    if ratio == 0:
        return bundles
    stacked = {}
    for mod in modalities:
        rows = np.concatenate([np.asarray(b.get(mod)) for b in bundles], axis=0)
        stacked[mod] = inject_noise(rows, ratio, rng)
    out = []
    offsets = {mod: 0 for mod in modalities}
    for b in bundles:
        nb = FeatureBundle()
        for mod in modalities:
            lo, size = offsets[mod], np.asarray(b.get(mod)).shape[0]
            setattr(nb, mod, stacked[mod][lo:lo + size])
            offsets[mod] += size
        out.append(nb)
    return out


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("ratio", [0.0, 0.05])
def test_training_batches_match_the_reference_batch_path(monkeypatch, dtype, ratio):
    """Each training batch, noised in float64 on its valid rows and then cast,
    has the bytes of the former noise-bundles-then-collate path, and leaves
    the generator in the same state."""
    from readmit import training

    rng = np.random.default_rng(4)
    bundles = [FeatureBundle(ehr=rng.normal(size=(int(rng.integers(1, 6)), 3)),
                             notes=rng.normal(size=(int(rng.integers(1, 4)), 1024)))
               for _ in range(11)]
    labels = np.arange(11) % 2
    cfg = ModelConfig(d_model=4, n_heads=2, ehr_layers=1, notes_layers=1, d_ff=6,
                      dropout=0.0, k_ehr=3, modalities=("ehr", "notes"), dtype=dtype)
    noise = NoiseSchedule(kind="linear", r_initial=ratio, r_final=ratio)
    tcfg = quick_train_cfg(epochs=2, batch_size=4, noise=noise, seed=9)
    seen = []
    monkeypatch.setattr(training, "_train_step", lambda model, opt, batch, labels, cfg, lr, rng:
                        seen.append((batch, rng.bit_generator.state)) or 0.0)
    train(ReadmissionModel(cfg), bundles, labels, bundles, labels, tcfg)

    ref_rng = np.random.default_rng(tcfg.seed)
    expected = []
    for epoch in range(tcfg.epochs):
        order = ref_rng.permutation(len(bundles))
        for lo in range(0, len(bundles), tcfg.batch_size):
            chunk = [bundles[i] for i in order[lo:lo + tcfg.batch_size]]
            noisy = _reference_noisy_batch(chunk, cfg.modalities,
                                           noise.ratio(epoch, tcfg.epochs), ref_rng)
            expected.append((collate(noisy, cfg.modalities, dtype=cfg.np_dtype()),
                             ref_rng.bit_generator.state))
    assert len(seen) == len(expected) == 6
    for (batch, state), (ref, ref_state) in zip(seen, expected):
        assert state == ref_state
        for mod in cfg.modalities:
            assert batch.arrays[mod].dtype == ref.arrays[mod].dtype == np.dtype(dtype)
            assert batch.arrays[mod].tobytes() == ref.arrays[mod].tobytes()
            np.testing.assert_array_equal(batch.masks[mod], ref.masks[mod])


def test_default_config_training_step_stays_float32(monkeypatch):
    """One step of the default dtype on a ragged, noised ehr+notes batch:
    every node of the loss graph and every parameter gradient is float32
    (a stray float64 scalar or array would promote the step to float64)."""
    from readmit import training

    rng = np.random.default_rng(13)
    bundles = [FeatureBundle(ehr=rng.normal(size=(days, 3)), notes=rng.normal(size=(notes, 1024)))
               for days, notes in zip([7, 2, 5, 1, 3], [1, 4, 2, 3, 1])]
    labels = np.array([1, 0, 0, 1, 0])
    cfg = ModelConfig(d_model=6, n_heads=3, ehr_layers=2, notes_layers=1, d_ff=8,
                      dropout=0.1, k_ehr=3, modalities=("ehr", "notes"))
    losses, grads = [], []
    monkeypatch.setattr(training, "focal_loss", lambda *args: losses.append(focal_loss(*args))
                        or losses[-1])
    monkeypatch.setattr(training, "clip_gradients", lambda params, max_norm: grads.append(
        {name: p.grad.dtype for name, p in params.items()}) or clip_gradients(params, max_norm))
    train(ReadmissionModel(cfg), bundles, labels, bundles, labels,
          TrainConfig(epochs=1, batch_size=len(bundles), seed=3))

    assert cfg.dtype == "float32" and len(losses) == len(grads) == 1
    nodes, stack, seen = [], [losses[0]], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    assert len(nodes) > 50
    assert {n.data.dtype for n in nodes} == {np.dtype(np.float32)}
    assert set(grads[0].values()) == {np.dtype(np.float32)}


def test_train_nan_aborts_with_diagnostic():
    bundles, labels, cfg = tiny_setup(seed=6)
    model = ReadmissionModel(cfg)
    model.params["fusion.w2"].data[...] = np.nan
    with pytest.raises(NumericError, match="epoch 0"):
        train(model, bundles, labels, bundles, labels, quick_train_cfg())


def test_train_empty_dataset_errors():
    bundles, labels, cfg = tiny_setup()
    with pytest.raises(DataError):
        train(ReadmissionModel(cfg), [], np.array([]), bundles, labels, quick_train_cfg())


def test_train_restores_best_epoch_snapshot():
    bundles, labels, cfg = tiny_setup(seed=8)
    result = train(ReadmissionModel(cfg), bundles, labels, bundles, labels,
                   quick_train_cfg(epochs=8))
    best = max(h["val_auc"] for h in result.history)
    assert result.best_val_auc == best
    from readmit.evaluation import auc

    restored = auc(predict_proba(result.model, bundles), labels)
    assert restored == pytest.approx(best, abs=1e-12)


def test_trained_model_confident_on_strong_signal_positives():
    """Records with a strong planted signal get probability > 0.5 after training."""
    from readmit.data import SynthConfig, generate_synthetic, split_by_patient, synth_logit
    from readmit.features import (feature_importances, fit_tfidf,
                                  patient_mean_features, prepare_bundles,
                                  select_top_k, train_random_forest)

    seed = 1
    ds, meta = generate_synthetic(SynthConfig(n_patients=200, seed=seed))
    tr, _, _ = split_by_patient(ds, (0.7, 0.15, 0.15), seed=seed)
    X, y = patient_mean_features(tr)
    sel = select_top_k(feature_importances(
        train_random_forest(X, y, n_trees=50, seed=seed)), 50)
    tfidf = fit_tfidf([n for r in tr.records for n in r.notes])
    mods = ("ehr", "notes")
    tb, tl = prepare_bundles(tr.records, mods, sel, tfidf)
    cfg = ModelConfig(k_ehr=50, seed=seed)
    # validating on the training set makes the best snapshot track fit, which
    # is what this confidence property is about
    result = train(ReadmissionModel(cfg), tb, tl, tb, tl,
                   TrainConfig(epochs=15, seed=seed))

    strong = [r for r in tr.records if r.label == 1 and synth_logit(r, meta) >= 1.0]
    assert len(strong) >= 10
    sb, _ = prepare_bundles(strong, mods, sel, tfidf)
    probs = predict_proba(result.model, sb)
    assert (probs > 0.5).mean() >= 0.8


# ---------------------------------------------------------------------------
# K-fold and ensembling


def synth_records(n_patients=12, seed=0):
    from readmit.data import SynthConfig, generate_synthetic

    ds, _ = generate_synthetic(SynthConfig(n_patients=n_patients, seed=seed))
    return ds.records


def test_patient_folds_partition():
    records = synth_records(12)
    folds = patient_folds(records, 4, seed=1)
    assert set(folds) == {0, 1, 2, 3}
    by_patient = {}
    for rec, f in zip(records, folds):
        by_patient.setdefault(rec.patient_id, set()).add(f)
    assert all(len(v) == 1 for v in by_patient.values())


def test_patient_folds_k_validation():
    records = synth_records(5)
    with pytest.raises(ConfigError):
        patient_folds(records, 1, seed=0)
    with pytest.raises(DataError):
        patient_folds(records, 10, seed=0)


def test_kfold_trains_k_members():
    records = synth_records(12, seed=2)
    model_cfg = ModelConfig(d_model=8, n_heads=2, ehr_layers=1, d_ff=12,
                            dropout=0.0, k_ehr=50, modalities=("ehr",), seed=0)
    ensemble = kfold_train(records, model_cfg, quick_train_cfg(epochs=2), k=3)
    assert len(ensemble.members) == 3
    assert len(ensemble.fold_val_aucs) == 3
    seeds = [m.config.seed for m in ensemble.members]
    assert seeds == [0, 1, 2]
    assert all(p.grad is None for m in ensemble.members for p in m.params.values())


def test_kfold_initializes_each_member_once(monkeypatch):
    from readmit import model

    seeds = []
    build = model.build_parameters
    monkeypatch.setattr(model, "build_parameters",
                        lambda cfg: seeds.append(cfg.seed) or build(cfg))
    model_cfg = ModelConfig(d_model=4, n_heads=2, ehr_layers=1, d_ff=6,
                            dropout=0.0, k_ehr=50, modalities=("ehr",), seed=5)
    ensemble = kfold_train(synth_records(12, seed=2), model_cfg,
                           quick_train_cfg(epochs=1), k=3, jobs=1)
    assert seeds == [5, 6, 7]
    assert [m.config.seed for m in ensemble.members] == [5, 6, 7]


def test_kfold_pool_failure_warns_and_trains_sequentially(monkeypatch):
    import concurrent.futures

    from readmit import training

    def failing_pool(*args, **kwargs):
        raise OSError("process support unavailable")

    records = synth_records(12, seed=2)
    model_cfg = ModelConfig(d_model=4, n_heads=2, ehr_layers=1, d_ff=6,
                            dropout=0.0, k_ehr=50, modalities=("ehr",), seed=5)
    seq = training.kfold_train(records, model_cfg, quick_train_cfg(epochs=1), k=3, jobs=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", failing_pool)
    with pytest.warns(RuntimeWarning, match="OSError.*3 folds sequentially"):
        par = training.kfold_train(records, model_cfg, quick_train_cfg(epochs=1), k=3, jobs=2)
    np.testing.assert_array_equal(par.fold_val_aucs, seq.fold_val_aucs)
    for a, b in zip(seq.members, par.members, strict=True):
        assert all(a.params[n].data.tobytes() == b.params[n].data.tobytes() for n in a.params)


@pytest.mark.parametrize("given", [True, False])
@pytest.mark.parametrize("encoder", ["transformer", "gru"])
def test_kfold_bundles_match_per_fold_bundles_and_are_built_once_when_given(
        monkeypatch, encoder, given):
    """Given the selection and the TF-IDF, kfold_train builds every record's
    bundle once; otherwise once per fold.  Either way its members are the
    bytes of a loop that builds each fold's train and val bundles apart."""
    from readmit import features, training

    records = synth_records(12, seed=2)
    mods = ("ehr", "notes")
    k, trees = 3, 5
    model_cfg = ModelConfig(d_model=4, n_heads=2, ehr_layers=1, notes_layers=1, d_ff=6,
                            k_ehr=4, modalities=mods, encoder=encoder, seed=5)
    train_cfg = quick_train_cfg(epochs=2, noise=NoiseSchedule())
    selection = features.forest_selection(records, 4, trees, seed=1) if given else None
    tfidf = features.notes_tfidf(records, mods) if given else None
    calls = []
    build = training.prepare_bundles
    monkeypatch.setattr(training, "prepare_bundles",
                        lambda *a, **kw: calls.append(len(a[0])) or build(*a, **kw))
    ensemble = kfold_train(records, model_cfg, train_cfg, k=k, fold_seed=1,
                           selection=selection, tfidf=tfidf, jobs=1, trees=trees)
    assert calls == [len(records)] * (1 if given else k)

    fold_ids = patient_folds(records, k, seed=1)
    for fold, member in enumerate(ensemble.members):
        train_recs = [r for r, f in zip(records, fold_ids) if f != fold]
        val_recs = [r for r, f in zip(records, fold_ids) if f == fold]
        sel = selection or features.forest_selection(train_recs, 4, trees, train_cfg.seed)
        tf = tfidf or features.notes_tfidf(train_recs, mods)
        cfg = replace(model_cfg, seed=model_cfg.seed + fold)
        tb, tl = build(train_recs, mods, sel, tf, **cfg.caps())
        vb, vl = build(val_recs, mods, sel, tf, **cfg.caps())
        ref = train(ReadmissionModel(cfg), tb, tl, vb, vl,
                    replace(train_cfg, seed=train_cfg.seed + fold))
        np.testing.assert_array_equal(ensemble.fold_val_aucs[fold], ref.best_val_auc)
        assert ensemble.pipelines[fold][0].indices == sel.indices
        for name, p in ref.model.params.items():
            assert member.params[name].data.tobytes() == p.data.tobytes(), name


def tiny_ehr_models(*seeds):
    cfg = dict(d_model=4, n_heads=2, ehr_layers=1, d_ff=6, dropout=0.0, k_ehr=3,
               modalities=("ehr",))
    return [ReadmissionModel(ModelConfig(seed=seed, **cfg)) for seed in seeds]


def ehr_bundles(n=5):
    rng = np.random.default_rng(3)
    return [FeatureBundle(ehr=rng.normal(size=(1 + i % 3, 3))) for i in range(n)]


def test_ensemble_mean_of_probabilities():
    members = tiny_ehr_models(1, 2)
    bundles = ehr_bundles()
    p1, p2 = (predict_proba(m, bundles) for m in members)
    assert not np.allclose(p1, p2)
    ens = Ensemble(members=members, fold_val_aucs=[], pipelines=[(None, None)] * 2)
    np.testing.assert_allclose(ens.predict_bundles(bundles), (p1 + p2) / 2,
                               rtol=0, atol=1e-12)


def test_ensemble_single_member_equals_model():
    (member,) = tiny_ehr_models(4)
    bundles = ehr_bundles()
    ens = Ensemble(members=[member], fold_val_aucs=[], pipelines=[(None, None)])
    np.testing.assert_allclose(ens.predict_bundles(bundles), predict_proba(member, bundles),
                               rtol=0, atol=1e-12)


def test_ensemble_predict_records_uses_its_pipeline_and_the_member_caps():
    """A one-member ensemble scores raw records with the bits of
    predict_proba on bundles built from its selection, TF-IDF and caps."""
    from readmit.features import fit_tfidf, prepare_bundles, select_top_k

    records = synth_records(10, seed=3)
    sel = select_top_k(np.linspace(1.0, 0.0, 50), 4)
    tfidf = fit_tfidf([n for r in records for n in r.notes])
    cfg = ModelConfig(d_model=4, n_heads=2, ehr_layers=1, notes_layers=1, d_ff=6,
                      dropout=0.0, k_ehr=4, modalities=("ehr", "notes"), max_days=2, seed=1)
    member = ReadmissionModel(cfg)
    got = Ensemble([member], [], [(sel, tfidf)]).predict_records(records)
    bundles, _ = prepare_bundles(records, cfg.modalities, sel, tfidf, **cfg.caps())
    assert got.tobytes() == predict_proba(member, bundles).tobytes()
    uncapped, _ = prepare_bundles(records, cfg.modalities, sel, tfidf)
    assert not np.array_equal(got, predict_proba(member, uncapped))


def test_ensemble_predict_records_scores_each_member_through_its_own_pipeline(monkeypatch):
    """Members score bundles of their own selection and caps, one build per
    member, and the result is the mean of the members' own probabilities."""
    from readmit import training
    from readmit.features import prepare_bundles, select_top_k

    records = synth_records(10, seed=3)
    cfg = ModelConfig(d_model=4, n_heads=2, ehr_layers=1, d_ff=6, dropout=0.0, k_ehr=4,
                      modalities=("ehr",), seed=1)
    members = [ReadmissionModel(replace(cfg, seed=s, max_days=d))
               for s, d in ((1, 64), (2, 64), (3, 2))]
    order = np.linspace(1.0, 0.0, 50)
    pipelines = [(select_top_k(order, 4), None), (select_top_k(order, 4), None),
                 (select_top_k(order[::-1], 4), None)]
    builds = []
    build = training.prepare_bundles
    monkeypatch.setattr(training, "prepare_bundles",
                        lambda *a, **kw: builds.append(a[2]) or build(*a, **kw))
    got = Ensemble(members, [], pipelines).predict_records(records)
    assert len(builds) == 3
    own = [predict_proba(m, prepare_bundles(records, ("ehr",), sel, **m.config.caps())[0])
           for m, (sel, _) in zip(members, pipelines)]
    assert got.tobytes() == np.mean(own, axis=0).tobytes()
    shared = prepare_bundles(records, ("ehr",), pipelines[0][0])[0]
    assert not np.allclose(own[2], predict_proba(members[2], shared))


def test_ensemble_empty_errors():
    with pytest.raises(ConfigError):
        Ensemble([], [], []).predict_bundles(ehr_bundles())
    with pytest.raises(ConfigError):
        Ensemble([], [], []).predict_records(synth_records(2))


@pytest.mark.parametrize("pipelines", [[], [(None, None)]])
def test_ensemble_pipelines_must_match_its_members(pipelines):
    """An ensemble whose pipelines do not pair off with its members is
    rejected when it is built, not inside zip or np.mean."""
    with pytest.raises(ConfigError,
                       match=f"ensemble has 2 members but {len(pipelines)} pipelines"):
        Ensemble(tiny_ehr_models(1, 2), [], pipelines)


@pytest.mark.parametrize("cause", ["selection", "width", "tfidf"])
def test_ensemble_names_inputs_a_member_cannot_read(cause):
    """The library, not the CLI, rejects records a member cannot read, with
    a data error naming the cause."""
    from readmit.data import SynthConfig, generate_synthetic
    from readmit.features import FeatureSelection

    ds, _ = generate_synthetic(SynthConfig(n_patients=3, d_ehr=8, n_informative_ehr=2,
                                           seed=5))
    small = dict(d_model=4, n_heads=2, ehr_layers=1, notes_layers=1, d_ff=6, dropout=0.0)
    pipeline = (None, None)
    if cause == "selection":
        cfg = ModelConfig(k_ehr=3, modalities=("ehr",), **small)
        pipeline = (FeatureSelection(importances=np.ones(12) / 12, indices=[1, 9, 11]), None)
        cause_text = r"selection indices \[9, 11\] out of range for 8 EHR columns"
    elif cause == "width":
        cfg = ModelConfig(k_ehr=50, modalities=("ehr",), **small)
        cause_text = "ehr inputs have 8 columns; the model takes 50"
    else:
        cfg = ModelConfig(modalities=("notes",), **small)
        cause_text = "notes are raw text but no fitted TF-IDF model was given"
    with pytest.raises(DataError, match=cause_text):
        Ensemble([ReadmissionModel(cfg)], [], [pipeline]).predict_records(ds.records)
