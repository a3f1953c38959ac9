"""Architecture: positional encoding, encoders, pooling, fusion, baselines."""

import json
import math
import re

import numpy as np
import pytest

from readmit import tensor as T
from readmit.data import SynthConfig, generate_synthetic
from readmit.errors import ConfigError, DataError
from readmit.features import fit_tfidf, prepare_bundles
from readmit.model import (ENCODERS, Batch, ModelConfig, ReadmissionModel, attention_pool,
                           build_parameters, collate, encode_modality,
                           fuse_and_predict, load_model, param_spec,
                           positional_encoding, save_model, _gru_layer, _lstm_layer)
from readmit.tensor import Tensor, grad_check
from readmit.training import LossConfig, focal_loss, predict_logits


def tiny_config(**kwargs):
    defaults = dict(d_model=4, n_heads=2, ehr_layers=1, notes_layers=1,
                    cxr_layers=1, d_ff=6, dropout=0.0, k_ehr=3,
                    modalities=("ehr",), seed=0, dtype="float64")
    defaults.update(kwargs)
    return ModelConfig(**defaults)


def ehr_bundles(n=4, k=3, seed=0, lengths=None):
    from readmit.features import FeatureBundle

    rng = np.random.default_rng(seed)
    lengths = lengths or [int(rng.integers(1, 5)) for _ in range(n)]
    return [FeatureBundle(ehr=rng.normal(size=(s, k))) for s in lengths]


# ---------------------------------------------------------------------------
# positional encoding


def test_pe_position_zero():
    pe = positional_encoding(3, 8)
    np.testing.assert_array_equal(pe[0, 0::2], np.zeros(4))
    np.testing.assert_array_equal(pe[0, 1::2], np.ones(4))


def test_pe_bounded():
    pe = positional_encoding(50, 96)
    assert (np.abs(pe) <= 1.0).all()


def test_pe_first_dim_is_sin_of_position():
    pe = positional_encoding(2, 6)
    assert pe[1, 0] == pytest.approx(math.sin(1.0), abs=1e-12)
    assert pe[1, 0] == pytest.approx(0.84147, abs=1e-5)


def test_pe_rejects_zero_length():
    with pytest.raises(ValueError):
        positional_encoding(0, 8)


# ---------------------------------------------------------------------------
# encoder


def test_encode_singleton_sequence_runs():
    cfg = tiny_config()
    params = build_parameters(cfg)
    out = encode_modality(np.ones((1, 1, 3)), np.ones((1, 1), dtype=bool),
                          params, "ehr", cfg)
    assert out.shape == (1, 1, 4)
    assert np.isfinite(out.data).all()


def test_encode_all_masked_errors():
    cfg = tiny_config()
    params = build_parameters(cfg)
    with pytest.raises(DataError, match="unmasked"):
        encode_modality(np.ones((1, 2, 3)), np.zeros((1, 2), dtype=bool),
                        params, "ehr", cfg)


def test_encoder_padding_invariance():
    """Appending masked rows never changes the valid positions' encodings."""
    cfg = tiny_config()
    params = build_parameters(cfg)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 3, 3))
    mask = np.ones((1, 3), dtype=bool)
    base = encode_modality(x, mask, params, "ehr", cfg).data

    padded = np.concatenate([x, np.zeros((1, 2, 3))], axis=1)
    pmask = np.concatenate([mask, np.zeros((1, 2), dtype=bool)], axis=1)
    out = encode_modality(padded, pmask, params, "ehr", cfg).data
    np.testing.assert_allclose(out[:, :3], base, atol=1e-6)


def test_encoder_gradient_two_layers():
    cfg = tiny_config(ehr_layers=2)
    params = build_parameters(cfg)
    mask = np.ones((1, 4), dtype=bool)
    x = Tensor(np.random.default_rng(2).normal(size=(1, 4, 3)))

    def fn(t):
        h = encode_modality(t, mask, params, "ehr", cfg)
        return T.mul(h, h).mean()

    assert grad_check(fn, x) < 1e-4


# ---------------------------------------------------------------------------
# attention pooling


def test_pool_singleton_returns_row():
    rng = np.random.default_rng(3)
    h = Tensor(rng.normal(size=(1, 1, 4)))
    q = Tensor(rng.normal(size=(4, 1)))
    out = attention_pool(h, np.ones((1, 1), dtype=bool), q)
    np.testing.assert_allclose(out.data[0], h.data[0, 0], atol=1e-12)


def test_pool_identical_rows_returns_common_row():
    row = np.array([1.0, -2.0, 0.5, 3.0])
    h = Tensor(np.tile(row, (1, 5, 1)))
    q = Tensor(np.random.default_rng(4).normal(size=(4, 1)))
    out = attention_pool(h, np.ones((1, 5), dtype=bool), q)
    np.testing.assert_allclose(out.data[0], row, atol=1e-12)


def test_pool_large_query_approaches_argmax():
    h = Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
    q = Tensor(np.array([[1000.0], [0.0]]))
    out = attention_pool(h, np.ones((1, 2), dtype=bool), q)
    np.testing.assert_allclose(out.data[0], [1.0, 0.0], atol=1e-12)


def test_pool_all_masked_errors():
    h = Tensor(np.zeros((1, 2, 4)))
    q = Tensor(np.zeros((4, 1)))
    with pytest.raises(DataError):
        attention_pool(h, np.zeros((1, 2), dtype=bool), q)


# ---------------------------------------------------------------------------
# fusion


def test_fusion_zero_weights_gives_half_probability():
    cfg = tiny_config()
    params = build_parameters(cfg)
    for name in ("fusion.w1", "fusion.b1", "fusion.w2", "fusion.b2"):
        params[name].data[...] = 0.0
    logit = fuse_and_predict([Tensor(np.ones((2, 4)))], params)
    np.testing.assert_array_equal(logit.data, [0.0, 0.0])


def test_fusion_wrong_width_errors():
    cfg = tiny_config()
    params = build_parameters(cfg)
    with pytest.raises(ConfigError):
        fuse_and_predict([Tensor(np.ones((1, 4))), Tensor(np.ones((1, 4)))], params)


def test_fusion_gradient():
    cfg = tiny_config()
    params = build_parameters(cfg)
    x = Tensor(np.random.default_rng(5).normal(size=(3, 4)))
    assert grad_check(lambda t: fuse_and_predict([t], params).sum(), x) < 1e-4


# ---------------------------------------------------------------------------
# full forward


def test_forward_eval_deterministic():
    cfg = tiny_config()
    model = ReadmissionModel(cfg)
    bundle = ehr_bundles(1)[0]
    assert predict_logits(model, [bundle])[0] == predict_logits(model, [bundle])[0]


def test_forward_sensitive_to_row_order():
    from readmit.features import FeatureBundle

    cfg = tiny_config()
    model = ReadmissionModel(cfg)
    rng = np.random.default_rng(6)
    mat = rng.normal(size=(4, 3))
    a = predict_logits(model, [FeatureBundle(ehr=mat)])[0]
    b = predict_logits(model, [FeatureBundle(ehr=mat[::-1].copy())])[0]
    assert a != b


def test_forward_missing_modality_errors():
    cfg = tiny_config(modalities=("ehr", "notes"))
    model = ReadmissionModel(cfg)
    with pytest.raises(DataError, match="notes"):
        predict_logits(model, ehr_bundles(1))


def test_forward_batch_matches_single_records():
    """Batch padding must not change any record's logit."""
    cfg = tiny_config()
    model = ReadmissionModel(cfg)
    bundles = ehr_bundles(5, lengths=[1, 4, 2, 3, 1])
    batch_logits = model.forward_batch(collate(bundles, cfg.modalities)).data
    solo = np.array([predict_logits(model, [b])[0] for b in bundles])
    np.testing.assert_allclose(batch_logits, solo, atol=1e-9)


def test_forward_batch_matches_single_records_in_float32():
    cfg = tiny_config(dtype="float32")
    model = ReadmissionModel(cfg)
    bundles = ehr_bundles(5, lengths=[1, 4, 2, 3, 1])
    batch_logits = model.forward_batch(collate(bundles, cfg.modalities, dtype=np.float32)).data
    solo = np.array([predict_logits(model, [b])[0] for b in bundles])
    assert batch_logits.dtype == np.float32
    np.testing.assert_allclose(batch_logits, solo, rtol=1e-5)


def test_modality_ablations_run():
    ds, _ = generate_synthetic(SynthConfig(n_patients=3, seed=0))
    corpus = [n for r in ds.records for n in r.notes]
    tfidf = fit_tfidf(corpus)
    for mods in (("ehr",), ("notes",), ("ehr", "notes"), ("ehr", "cxr", "notes")):
        cfg = ModelConfig(d_model=8, n_heads=2, ehr_layers=1, notes_layers=1,
                          cxr_layers=1, d_ff=12, dropout=0.0, k_ehr=50,
                          modalities=mods, seed=0)
        model = ReadmissionModel(cfg)
        bundles, _ = prepare_bundles(ds.records, mods, None, tfidf)
        logits = model.forward_batch(collate(bundles, mods)).data
        assert np.isfinite(logits).all()
        probs = 1.0 / (1.0 + np.exp(-logits))
        assert ((probs > 0) & (probs < 1)).all()


# ---------------------------------------------------------------------------
# packed transformer encoder


def _reference_attention_block(h, key_bias, params, prefix, cfg, training, rng):
    """The padded per-head composition the packed encoder replaces."""
    d = cfg.d_model
    dh = d // cfg.n_heads
    x = T.layer_norm(h, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    q = T.add(T.matmul(x, params[f"{prefix}.attn.wq"]), params[f"{prefix}.attn.bq"])
    k = T.add(T.matmul(x, params[f"{prefix}.attn.wk"]), params[f"{prefix}.attn.bk"])
    v = T.add(T.matmul(x, params[f"{prefix}.attn.wv"]), params[f"{prefix}.attn.bv"])
    heads = []
    for i in range(cfg.n_heads):
        qi = T.slice_last(q, i * dh, (i + 1) * dh)
        ki = T.slice_last(k, i * dh, (i + 1) * dh)
        vi = T.slice_last(v, i * dh, (i + 1) * dh)
        scores = T.mul_const(T.matmul(qi, T.transpose_last2(ki)), 1.0 / math.sqrt(dh))
        scores = T.add_const(scores, key_bias)
        heads.append(T.matmul(T.softmax(scores, axis=-1), vi))
    att = T.concat(heads, axis=-1)
    att = T.add(T.matmul(att, params[f"{prefix}.attn.wo"]), params[f"{prefix}.attn.bo"])
    if training and cfg.dropout > 0:
        att = T.dropout(att, cfg.dropout, rng)
    h = T.add(h, att)

    x2 = T.layer_norm(h, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])
    f = T.gelu(T.add(T.matmul(x2, params[f"{prefix}.ffn.w1"]), params[f"{prefix}.ffn.b1"]))
    if training and cfg.dropout > 0:
        f = T.dropout(f, cfg.dropout, rng)
    f = T.add(T.matmul(f, params[f"{prefix}.ffn.w2"]), params[f"{prefix}.ffn.b2"])
    return T.add(h, f)


def _reference_encode(x, mask, params, modality, cfg, training, rng):
    """The padded transformer encoder the packed one replaces."""
    steps = mask.shape[1]
    dt = cfg.np_dtype()
    h = T.add(T.matmul(x, params[f"{modality}.embed.w"]), params[f"{modality}.embed.b"])
    h = T.add_const(h, positional_encoding(steps, cfg.d_model).astype(dt)[None, :, :])
    key_bias = np.where(mask, 0.0, T.MASK_NEG).astype(dt)[:, None, :]
    for l in range(cfg.layers(modality)):
        h = _reference_attention_block(h, key_bias, params, f"{modality}.l{l}", cfg,
                                       training, rng)
    return T.layer_norm(h, params[f"{modality}.norm.g"], params[f"{modality}.norm.b"])


def _ragged_ehr_notes_batch(dtype, seed=12):
    from readmit.features import FeatureBundle

    rng = np.random.default_rng(seed)
    ehr_lengths, notes_lengths = [7, 2, 5, 1, 3], [1, 4, 2, 3, 1]
    bundles = [FeatureBundle(ehr=rng.normal(size=(e, 3)),
                             notes=rng.normal(size=(n, 1024)) * (rng.random((n, 1024)) < 0.05))
               for e, n in zip(ehr_lengths, notes_lengths)]
    return collate(bundles, ("ehr", "notes"), dtype=dtype)


@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_packed_encoder_matches_padded_per_head_reference(dtype, dropout):
    cfg = tiny_config(d_model=6, n_heads=3, ehr_layers=2, notes_layers=1, d_ff=8,
                      dropout=dropout, modalities=("ehr", "notes"), dtype=dtype, seed=4)
    batch = _ragged_ehr_notes_batch(cfg.np_dtype())
    labels = np.array([1.0, 0.0, 0.0, 1.0, 0.0])

    def run(encode):
        model = ReadmissionModel(cfg)
        rng = np.random.default_rng(5)
        pooled = []
        for mod in cfg.modalities:
            h = encode(Tensor(batch.arrays[mod]), batch.masks[mod], model.params, mod, cfg,
                       True, rng)
            pooled.append(attention_pool(h, batch.masks[mod], model.params[f"{mod}.pool.q"]))
        logits = fuse_and_predict(pooled, model.params)
        focal_loss(logits, labels, LossConfig()).backward()
        return logits.data, {name: p.grad for name, p in model.params.items()}

    logits, grads = run(encode_modality)
    ref_logits, ref_grads = run(_reference_encode)
    dt = cfg.np_dtype()
    rtol, gtol = (1e-12, 1e-12) if dtype == "float64" else (1e-5, 1e-5)
    assert logits.dtype == dt
    np.testing.assert_allclose(logits, ref_logits, rtol=rtol)
    assert set(grads) == set(ref_grads) == set(param_spec(cfg))
    largest = max(np.abs(g).max() for g in ref_grads.values())
    for name, g in grads.items():
        assert g.dtype == dt, name
        assert np.abs(g - ref_grads[name]).max() <= gtol * largest, name


def test_transformer_linear_ops_see_only_valid_rows(monkeypatch):
    cfg = tiny_config(d_model=6, n_heads=3, ehr_layers=2, notes_layers=1, d_ff=8,
                      modalities=("ehr", "notes"))
    batch = _ragged_ehr_notes_batch(np.float64)
    params = build_parameters(cfg)
    seen = []
    linear = T.linear

    def spy(x, w, b, *residual_and_drop):
        seen.append(x.shape[0])
        return linear(x, w, b, *residual_and_drop)

    monkeypatch.setattr(T, "linear", spy)
    # per layer: q|k|v, attn.wo, ffn.w1 and ffn.w2
    for mod, n_linear in (("ehr", 1 + 2 * 4), ("notes", 1 + 1 * 4)):
        seen.clear()
        mask = batch.masks[mod]
        out = encode_modality(batch.arrays[mod], mask, params, mod, cfg)
        assert seen == [mask.sum()] * n_linear
        assert out.shape == mask.shape + (6,) and (out.data[~mask] == 0).all()


def test_transformer_training_graph_does_not_grow_with_heads():
    bundles = ehr_bundles(3, lengths=[4, 2, 1])
    counts = []
    for heads in (1, 6):
        model = ReadmissionModel(tiny_config(d_model=6, n_heads=heads, ehr_layers=2))
        loss = focal_loss(model.forward_batch(collate(bundles, ("ehr",)), training=True,
                                              rng=np.random.default_rng(0)),
                          np.array([1.0, 0.0, 1.0]), LossConfig())
        counts.append(_graph_nodes(loss))
    assert counts[0] == counts[1]


def test_training_graph_backward_twice_adds_exactly_twice():
    """The fused dropout, residual and attention nodes rebuild what they do
    not keep on every backward pass, so a second pass adds the same bits."""
    cfg = tiny_config(d_model=6, n_heads=3, ehr_layers=2, notes_layers=1, d_ff=8,
                      dropout=0.3, modalities=("ehr", "notes"))
    model = ReadmissionModel(cfg)
    loss = focal_loss(model.forward_batch(_ragged_ehr_notes_batch(np.float64), training=True,
                                          rng=np.random.default_rng(6)),
                      np.array([1.0, 0.0, 0.0, 1.0, 0.0]), LossConfig())
    loss.backward()
    once = {name: p.grad.copy() for name, p in model.params.items()}
    loss.backward()
    for name, p in model.params.items():
        assert p.grad.tobytes() == (2 * once[name]).tobytes(), name


# ---------------------------------------------------------------------------
# parameter counting


def linear_params(a, b):
    return a * b + b


def test_count_single_linear_layer():
    cfg = tiny_config()
    model = ReadmissionModel(cfg)
    w = model.params["fusion.w1"]
    assert w.data.size + model.params["fusion.b1"].data.size == linear_params(4, 4)


def test_count_default_config_closed_form():
    cfg = ModelConfig()  # ehr+notes, d_model 96, d_ff 192, k_ehr 100
    model = ReadmissionModel(cfg)
    d, ff = 96, 192
    per_layer = 4 * linear_params(d, d) + 2 * d + linear_params(d, ff) + linear_params(ff, d) + 2 * d
    expected = (
        linear_params(100, d) + linear_params(1024, d)      # embeddings
        + 2 * per_layer + 3 * per_layer                     # encoder stacks
        + 2 * (2 * d)                                       # final norms
        + 2 * d                                             # pool queries
        + linear_params(2 * d, d) + linear_params(d, 1)     # fusion
    )
    assert model.count_parameters() == expected
    assert 400_000 <= model.count_parameters() <= 600_000


def test_count_decreases_without_notes():
    full = ReadmissionModel(ModelConfig())
    ehr_only = ReadmissionModel(ModelConfig(modalities=("ehr",)))
    assert ehr_only.count_parameters() < full.count_parameters()


# ---------------------------------------------------------------------------
# recurrent baselines


def test_gru_zero_input_zero_params_gives_zero_states():
    cfg = tiny_config(encoder="gru")
    params = build_parameters(cfg)
    for name, p in params.items():
        if ".l0." in name:
            p.data[...] = 0.0
    h = _gru_layer(Tensor(np.zeros((1, 3, 4))), params, "ehr.l0")
    np.testing.assert_array_equal(h.data, np.zeros((1, 3, 4)))


def test_lstm_single_step_hand_evaluation():
    cfg = tiny_config(encoder="lstm")
    params = build_parameters(cfg)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 1, 4))
    h = _lstm_layer(Tensor(x), params, "ehr.l0")

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    xv = x[0, 0]
    gates = {}
    for gate in ("i", "f", "g", "o"):
        pre = xv @ params[f"ehr.l0.w{gate}"].data + params[f"ehr.l0.b{gate}"].data
        gates[gate] = np.tanh(pre) if gate == "g" else sig(pre)
    c1 = gates["i"] * gates["g"]
    expected = gates["o"] * np.tanh(c1)
    np.testing.assert_allclose(h.data[0, 0], expected, atol=1e-12)


def test_gru_gradient_three_steps():
    cfg = tiny_config(encoder="gru")
    params = build_parameters(cfg)
    x = Tensor(np.random.default_rng(8).normal(size=(1, 3, 4)))

    def fn(t):
        h = _gru_layer(t, params, "ehr.l0")
        return T.mul(h, h).mean()

    assert grad_check(fn, x) < 1e-4


def _reference_gru(h_seq, params, prefix, batch, d, dtype):
    """The per-step graph composition the fused ``T.gru`` replaces."""
    steps = h_seq.shape[-2]
    state = Tensor(np.zeros((batch, d), dtype=dtype))
    outputs = []
    wr, wz, wn = params[f"{prefix}.wr"], params[f"{prefix}.wz"], params[f"{prefix}.wn"]
    ur, uz, un = params[f"{prefix}.ur"], params[f"{prefix}.uz"], params[f"{prefix}.un"]
    br, bz, bn = params[f"{prefix}.br"], params[f"{prefix}.bz"], params[f"{prefix}.bn"]
    for t in range(steps):
        x = T.reshape(T.slice_steps(h_seq, t, t + 1), (batch, d))
        r = T.sigmoid(T.add(T.add(T.matmul(x, wr), T.matmul(state, ur)), br))
        z = T.sigmoid(T.add(T.add(T.matmul(x, wz), T.matmul(state, uz)), bz))
        n = T.tanh(T.add(T.add(T.matmul(x, wn), T.mul(r, T.matmul(state, un))), bn))
        keep = T.mul(z, state)
        state = T.add(keep, T.mul(T.add_const(T.mul_const(z, -1.0), 1.0), n))
        outputs.append(T.reshape(state, (batch, 1, d)))
    return T.concat(outputs, axis=-2)


def _reference_lstm(h_seq, params, prefix, batch, d, dtype):
    """The per-step graph composition the fused ``T.lstm`` replaces."""
    steps = h_seq.shape[-2]
    h = Tensor(np.zeros((batch, d), dtype=dtype))
    c = Tensor(np.zeros((batch, d), dtype=dtype))
    outputs = []
    for t in range(steps):
        x = T.reshape(T.slice_steps(h_seq, t, t + 1), (batch, d))
        gates = {}
        for gate in ("i", "f", "g", "o"):
            pre = T.add(
                T.add(T.matmul(x, params[f"{prefix}.w{gate}"]),
                      T.matmul(h, params[f"{prefix}.u{gate}"])),
                params[f"{prefix}.b{gate}"],
            )
            gates[gate] = T.tanh(pre) if gate == "g" else T.sigmoid(pre)
        c = T.add(T.mul(gates["f"], c), T.mul(gates["i"], gates["g"]))
        h = T.mul(gates["o"], T.tanh(c))
        outputs.append(T.reshape(h, (batch, 1, d)))
    return T.concat(outputs, axis=-2)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("steps", [1, 7])
@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_fused_recurrent_layer_matches_per_step_reference(kind, steps, dtype):
    cfg = tiny_config(encoder=kind, dtype=dtype)
    dt = cfg.np_dtype()
    rng = np.random.default_rng(11)
    layer = {name: rng.normal(scale=0.6, size=p.shape).astype(dt)
             for name, p in build_parameters(cfg).items() if name.startswith("ehr.l0.")}
    x = rng.normal(size=(3, steps, 4)).astype(dt)
    for row, length in enumerate([steps, max(1, steps - 3), 1]):
        x[row, length:] = 0.0                        # ragged, zero-padded
    weights = rng.normal(size=(3, steps, 4)).astype(dt)

    def run(fn):
        params = {name: Tensor(v.copy(), requires_grad=True) for name, v in layer.items()}
        inp = Tensor(x.copy(), requires_grad=True)
        h = fn(inp, params)
        T.mul_const(h, weights).sum().backward()
        return h.data, inp.grad, {name: p.grad for name, p in params.items()}

    fused_layer = _gru_layer if kind == "gru" else _lstm_layer
    ref_layer = _reference_gru if kind == "gru" else _reference_lstm
    fused = run(lambda inp, params: fused_layer(inp, params, "ehr.l0"))
    ref = run(lambda inp, params: ref_layer(inp, params, "ehr.l0", 3, 4, dt))
    tol = dict(rtol=1e-10, atol=1e-12) if dtype == "float64" else dict(rtol=1e-4, atol=1e-5)
    assert fused[0].dtype == dt and fused[1].dtype == dt
    np.testing.assert_allclose(fused[0], ref[0], **tol)
    np.testing.assert_allclose(fused[1], ref[1], **tol)
    assert set(fused[2]) == set(ref[2]) and len(ref[2]) == len(layer)
    for name in ref[2]:
        assert fused[2][name].dtype == dt, name
        np.testing.assert_allclose(fused[2][name], ref[2][name], err_msg=name, **tol)


def _graph_nodes(root):
    """Tensors reachable from ``root`` through the autodiff graph, root
    included: the count perfbench reports as graph nodes per step."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_recurrent_training_graph_does_not_grow_with_steps(kind):
    model = ReadmissionModel(tiny_config(encoder=kind, ehr_layers=2))
    counts = []
    for steps in (2, 10):
        batch = collate(ehr_bundles(3, lengths=[steps, steps, 1]), ("ehr",))
        loss = focal_loss(model.forward_batch(batch, training=True),
                          np.array([1.0, 0.0, 1.0]), LossConfig())
        counts.append(_graph_nodes(loss))
    assert counts[0] == counts[1]


def test_recurrent_models_forward():
    bundles = ehr_bundles(3)
    for kind in ("gru", "lstm"):
        model = ReadmissionModel(tiny_config(encoder=kind))
        logits = model.forward_batch(collate(bundles, ("ehr",))).data
        assert logits.shape == (3,) and np.isfinite(logits).all()


# ---------------------------------------------------------------------------
# end-to-end gradient and serialization


def test_full_forward_plus_loss_gradient_all_parameters():
    """Every parameter of a small EHR-only model passes the FD check."""
    cfg = tiny_config(ehr_layers=1)
    model = ReadmissionModel(cfg)
    bundles = ehr_bundles(2, lengths=[3, 2], seed=9)
    labels = np.array([1.0, 0.0])
    batch = collate(bundles, cfg.modalities)
    loss_cfg = LossConfig(alpha=0.5, gamma=2.0, smooth=0.1)

    def loss_fn(_):
        return focal_loss(model.forward_batch(batch), labels, loss_cfg)

    for name, p in model.params.items():
        model.zero_grad()
        if name.endswith(".attn.bk"):
            # a uniform key shift adds the same constant to every score in a
            # row, which softmax cancels: the gradient is identically zero
            loss_fn(None).backward()
            assert np.abs(p.grad).max() < 1e-12, name
            continue
        err = grad_check(loss_fn, p)
        assert err < 1e-4, f"{name}: rel err {err}"


def test_full_gradient_notes_model_selected_parameters():
    cfg = tiny_config(modalities=("ehr", "notes"), notes_layers=1)
    model = ReadmissionModel(cfg)
    rng = np.random.default_rng(10)
    from readmit.features import FeatureBundle

    bundles = [FeatureBundle(ehr=rng.normal(size=(2, 3)), notes=rng.normal(size=(2, 1024))),
               FeatureBundle(ehr=rng.normal(size=(1, 3)), notes=rng.normal(size=(3, 1024)))]
    labels = np.array([0.0, 1.0])
    batch = collate(bundles, cfg.modalities)
    loss_cfg = LossConfig()

    def loss_fn(_):
        return focal_loss(model.forward_batch(batch), labels, loss_cfg)

    for name in ("notes.embed.b", "notes.l0.attn.wq", "notes.l0.ffn.w1",
                 "notes.norm.g", "notes.pool.q", "fusion.w1", "ehr.embed.w"):
        model.zero_grad()
        err = grad_check(loss_fn, model.params[name])
        assert err < 1e-4, f"{name}: rel err {err}"


def test_save_load_roundtrip_bit_exact(tmp_path):
    from readmit.features import FeatureSelection, TfidfModel

    cfg = tiny_config(modalities=("ehr", "notes"))
    model = ReadmissionModel(cfg)
    sel = FeatureSelection(importances=np.array([0.5, 0.3, 0.2]), indices=[0, 1, 2])
    tfidf = TfidfModel(vocabulary=["a", "b"], idf=np.array([1.0, 1.3]), n_docs_fitted=2)
    path = tmp_path / "model.json"
    save_model(path, model, selection=sel, tfidf=tfidf, fingerprint="abc123")

    loaded, sel2, tfidf2, fp = load_model(path)
    assert fp == "abc123"
    assert loaded.config == cfg
    for name, p in model.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, p.data)
        assert loaded.params[name].data.dtype == p.data.dtype
    assert sel2.indices == sel.indices
    np.testing.assert_array_equal(sel2.importances, sel.importances)
    assert tfidf2.vocabulary == tfidf.vocabulary
    np.testing.assert_array_equal(tfidf2.idf, tfidf.idf)
    assert tfidf2.n_docs_fitted == 2

    bundle = ehr_bundles(1)[0]
    from readmit.features import FeatureBundle

    full = FeatureBundle(ehr=bundle.ehr, notes=np.random.default_rng(11).normal(size=(2, 1024)))
    assert predict_logits(loaded, [full])[0] == predict_logits(model, [full])[0]


def test_load_truncated_file_is_clean_error(tmp_path):
    cfg = tiny_config()
    model = ReadmissionModel(cfg)
    path = tmp_path / "model.json"
    save_model(path, model)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(DataError, match="model"):
        load_model(path)


def test_param_spec_matches_build_parameters():
    for encoder in ("transformer", "gru", "lstm"):
        cfg = tiny_config(encoder=encoder, modalities=("ehr", "cxr", "notes"))
        params = build_parameters(cfg)
        assert [(n, p.shape) for n, p in params.items()] == list(param_spec(cfg).items())


def test_load_rejects_wrong_parameter_shape(tmp_path):
    model = ReadmissionModel(tiny_config())
    model.params["fusion.w1"] = Tensor(np.zeros((5, 4)))     # the config needs 4x4
    path = tmp_path / "model.json"
    save_model(path, model)
    with pytest.raises(DataError, match="fusion.w1 has shape"):
        load_model(path)


def test_load_rejects_params_that_are_not_a_mapping(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, ReadmissionModel(tiny_config()))
    obj = json.loads(path.read_text())
    obj["params"] = []
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError, match="corrupt model payload"):
        load_model(path)


@pytest.mark.parametrize("part,key", [("selection", "importances"), ("tfidf", "vocabulary"),
                                      ("selection", "repeated")])
def test_load_rejects_a_corrupt_selection_or_tfidf(tmp_path, part, key):
    from readmit.features import FeatureSelection, TfidfModel

    path = tmp_path / "model.json"
    save_model(path, ReadmissionModel(tiny_config(modalities=("ehr", "notes"))),
               selection=FeatureSelection(importances=np.array([0.6, 0.4]), indices=[0, 1]),
               tfidf=TfidfModel(vocabulary=["a"], idf=np.array([1.0]), n_docs_fitted=1))
    obj = json.loads(path.read_text())
    if key == "repeated":
        obj["selection"]["indices"] = [0, 0]
    else:
        del obj[part][key]
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: corrupt model payload"):
        load_model(path)


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"hello": "world"}')
    with pytest.raises(DataError):
        load_model(path)


def test_float32_mode_runs_and_roundtrips(tmp_path):
    cfg = tiny_config(dtype="float32")
    model = ReadmissionModel(cfg)
    assert model.params["fusion.w1"].data.dtype == np.float32
    bundles = ehr_bundles(3)
    batch = collate(bundles, cfg.modalities, dtype=np.float32)
    logits = model.forward_batch(batch).data
    assert logits.dtype == np.float32 and np.isfinite(logits).all()

    path = tmp_path / "m32.json"
    save_model(path, model)
    loaded, _, _, _ = load_model(path)
    assert loaded.params["fusion.w1"].data.dtype == np.float32
    np.testing.assert_array_equal(loaded.params["fusion.w1"].data,
                                  model.params["fusion.w1"].data)


@pytest.mark.parametrize("encoder", ENCODERS)
def test_grad_check_is_float64_on_the_float32_parameters_of_a_default_config_model(encoder):
    """The default dtype is float32; grad_check still meets the float64 bound
    on every parameter, on a batch collated in that dtype, and hands each one
    back as the same float32 array."""
    cfg = ModelConfig(d_model=4, n_heads=2, ehr_layers=1, d_ff=6, dropout=0.0,
                      k_ehr=3, modalities=("ehr",), encoder=encoder, seed=0)
    model = ReadmissionModel(cfg)
    batch = collate(ehr_bundles(2, lengths=[3, 2]), cfg.modalities, dtype=cfg.np_dtype())
    labels = np.array([1.0, 0.0])

    def loss_fn(_):
        return focal_loss(model.forward_batch(batch), labels, LossConfig())

    for name, p in model.params.items():
        if name.endswith(".attn.bk"):       # softmax cancels key shifts: gradient 0
            continue
        data = p.data
        before = data.tobytes()
        assert data.dtype == np.float32, name
        model.zero_grad()
        assert grad_check(loss_fn, p) < 1e-4, name
        assert p.data is data and p.data.dtype == np.float32 and data.tobytes() == before, name


def test_vector_notes_forward():
    """Precomputed note vectors skip TF-IDF and feed the encoder directly."""
    from readmit.data import AdmissionRecord

    rng = np.random.default_rng(12)
    rec = AdmissionRecord(
        patient_id="P1", admission_id="A1",
        ehr=rng.normal(size=(2, 3)),
        cxr=np.zeros((0, 1024)),
        notes=rng.normal(size=(3, 1024)),
        notes_kind="vector",
        label=1,
    )
    bundles, labels = prepare_bundles([rec], ("ehr", "notes"), None, None,
                                      max_days=64, max_images=16, max_notes=32)
    np.testing.assert_array_equal(bundles[0].notes, rec.notes)
    cfg = tiny_config(modalities=("ehr", "notes"))
    model = ReadmissionModel(cfg)
    assert np.isfinite(predict_logits(model, [bundles[0]])[0])


# ---------------------------------------------------------------------------
# config validation


def test_unknown_modality_rejected():
    with pytest.raises(ConfigError, match="nots"):
        ModelConfig(modalities=("ehr", "nots"))


def test_modalities_put_in_fixed_order():
    assert ModelConfig(modalities=("notes", "ehr")).modalities == ("ehr", "notes")


@pytest.mark.parametrize("field,value", [
    ("d_model", 0), ("n_heads", 0), ("ehr_layers", -1), ("cxr_layers", -1),
    ("notes_layers", -1), ("dropout", 1.5), ("dropout", 1.0), ("dropout", -0.1),
])
def test_bad_shape_setting_rejected(field, value):
    with pytest.raises(ConfigError, match=field):
        ModelConfig(**{field: value})
