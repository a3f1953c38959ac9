"""Numeric core: op contracts and finite-difference gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readmit import tensor as T
from readmit.tensor import ShapeError, Tensor, grad_check


def leaf(data):
    t = Tensor(np.asarray(data, dtype=float))
    t.requires_grad = True
    return t


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    m = np.array([[2.0, -1.0], [0.5, 3.0]])
    out = T.matmul(Tensor(np.eye(2)), Tensor(m))
    np.testing.assert_array_equal(out.data, m)


def test_matmul_forced_case():
    out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[2.0], [4.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match="3x4.*5x2"):
        T.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 2))))


def test_matmul_gradient_finite_difference():
    rng = np.random.default_rng(0)
    b_data = rng.normal(size=(4, 2))

    a = leaf(rng.normal(size=(3, 4)))
    err_a = grad_check(lambda x: T.matmul(x, Tensor(b_data)).sum(), a)
    assert err_a < 1e-6

    b = leaf(b_data)
    a_data = rng.normal(size=(3, 4))
    err_b = grad_check(lambda x: T.matmul(Tensor(a_data), x).sum(), b)
    assert err_b < 1e-6


def test_matmul_batched_gradients():
    rng = np.random.default_rng(1)
    w = leaf(rng.normal(size=(4, 3)))
    x_data = rng.normal(size=(2, 5, 4))
    # shared weight over a batched left operand: gradient sums over the batch
    assert grad_check(lambda p: T.matmul(Tensor(x_data), p).sum(), w) < 1e-6
    x = leaf(x_data)
    y_data = rng.normal(size=(2, 4, 3))
    assert grad_check(lambda p: T.matmul(p, Tensor(y_data)).sum(), x) < 1e-6


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    out = T.softmax(Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_analytic_case():
    out = T.softmax(Tensor([math.log(1.0), math.log(2.0)]))
    np.testing.assert_allclose(out.data, [1.0 / 3.0, 2.0 / 3.0], atol=1e-14)


@settings(max_examples=50)
@given(
    vals=st.lists(st.floats(-30, 30), min_size=1, max_size=8),
    shift=st.floats(-100, 100),
)
def test_softmax_shift_invariance(vals, shift):
    v = np.array(vals)
    a = T.softmax(Tensor(v)).data
    b = T.softmax(Tensor(v + shift)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    out = T.softmax(Tensor(rng.normal(size=(5, 7)) * 10), axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-12)
    assert (out.data >= 0).all()


def test_softmax_empty_axis_errors():
    with pytest.raises(ShapeError):
        T.softmax(Tensor(np.zeros((3, 0))))


def test_softmax_gradient():
    x = leaf(np.random.default_rng(3).normal(size=(2, 5)))
    weights = np.random.default_rng(4).normal(size=(2, 5))
    fn = lambda t: T.mul_const(T.softmax(t, axis=-1), weights).sum()
    assert grad_check(fn, x) < 1e-6


# ---------------------------------------------------------------------------
# sigmoid


def test_sigmoid_zero():
    assert T.sigmoid(Tensor([0.0])).data[0] == 0.5


def test_sigmoid_ln3():
    np.testing.assert_allclose(T.sigmoid(Tensor([math.log(3.0)])).data[0], 0.75, atol=1e-15)


def test_sigmoid_saturation_no_nan():
    val = T.sigmoid(Tensor([-100.0])).data[0]
    assert 0.0 < val <= 1e-30
    assert np.isfinite(T.sigmoid(Tensor([1000.0, -1000.0])).data).all()


def test_sigmoid_range_and_gradient():
    rng = np.random.default_rng(5)
    x = leaf(rng.normal(size=12) * 3)
    out = T.sigmoid(Tensor(x.data))
    assert ((out.data > 0) & (out.data < 1)).all()
    assert grad_check(lambda t: T.sigmoid(t).sum(), x) < 1e-6


def _two_branch_sigmoid(x):
    """The stable sigmoid written out: exp of a non-positive value on each side."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_saturates_and_matches_two_branch_formula():
    ends = T.sigmoid(Tensor([-1000.0, 1000.0])).data
    assert np.isfinite(ends).all() and ((ends >= 0.0) & (ends <= 1.0)).all()
    grid = np.linspace(-50.0, 50.0, 20001)
    assert np.abs(T.sigmoid(Tensor(grid)).data - _two_branch_sigmoid(grid)).max() <= 4e-16


# ---------------------------------------------------------------------------
# layer_norm


def test_layer_norm_constant_row():
    g = leaf(np.ones(3))
    b = leaf(np.zeros(3))
    out = T.layer_norm(Tensor([[5.0, 5.0, 5.0]]), g, b)
    np.testing.assert_allclose(out.data, [[0.0, 0.0, 0.0]], atol=1e-12)


def test_layer_norm_already_normalized():
    g = leaf(np.ones(2))
    b = leaf(np.zeros(2))
    out = T.layer_norm(Tensor([[1.0, -1.0]]), g, b, eps=1e-12)
    np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-6)


def test_layer_norm_empty_axis_errors():
    g = leaf(np.ones(3))
    with pytest.raises(ShapeError):
        T.layer_norm(Tensor(np.zeros((2, 0))), g, g)


def test_layer_norm_gradient():
    rng = np.random.default_rng(6)
    gain = Tensor(rng.normal(size=5))
    bias = Tensor(rng.normal(size=5))
    weights = rng.normal(size=(3, 5))
    x = leaf(rng.normal(size=(3, 5)))
    fn = lambda t: T.mul_const(T.layer_norm(t, gain, bias), weights).sum()
    assert grad_check(fn, x) < 1e-5

    g = leaf(rng.normal(size=5))
    x_const = Tensor(rng.normal(size=(3, 5)))
    fn_g = lambda t: T.mul_const(T.layer_norm(x_const, t, bias), weights).sum()
    assert grad_check(fn_g, g) < 1e-5


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_sum_gives_ones():
    x = leaf([1.0, 2.0, 3.0])
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_elementwise_square():
    x = leaf([1.0, 2.0])
    T.mul(x, x).sum().backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-15)


def test_backward_requires_scalar():
    x = leaf([[1.0, 2.0]])
    with pytest.raises(ValueError, match="scalar"):
        x.backward()


def test_backward_accumulates_without_reset():
    x = leaf([1.0, 2.0])
    x.sum().backward()
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])
    x.zero_grad()
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, [1.0, 1.0])


def test_backward_twice_on_one_graph_adds_exactly_twice():
    x = leaf([1.0, 2.0])
    loss = T.sum_all(T.mul(x, x))
    loss.backward()
    loss.backward()
    np.testing.assert_array_equal(x.grad, [4.0, 8.0])


def test_backward_releases_non_leaf_grads():
    x = leaf([1.0, 2.0])
    y = T.mul(x, x)
    loss = T.sum_all(y)
    loss.backward()
    assert y.grad is None and loss.grad is None
    assert y._parents == (x, x)          # the graph itself stays walkable
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_no_graph_without_grad_operands():
    out = T.sum_all(T.mul(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])))
    assert out._parents == () and out._backward is None and not out.requires_grad


# Every op whose node has one parent, applied to a (2, 3) operand of positive
# values.  Their backward closures accumulate without testing requires_grad.
SINGLE_PARENT = {
    "add_const": lambda a: T.add_const(a, 1.0),
    "mul_const": lambda a: T.mul_const(a, np.array([1.0, 2.0, 3.0])),
    "texp": T.texp,
    "tlog": T.tlog,
    "tanh": T.tanh,
    "relu": T.relu,
    "sigmoid": T.sigmoid,
    "gelu": T.gelu,
    "pow_const": lambda a: T.pow_const(a, 3.0),
    "pow_const_zero": lambda a: T.pow_const(a, 0.0),
    "sum_all": T.sum_all,
    "mean_all": T.mean_all,
    "reshape": lambda a: T.reshape(a, (3, 2)),
    "transpose_last2": T.transpose_last2,
    "slice_last": lambda a: T.slice_last(a, 1, 3),
    "slice_steps": lambda a: T.slice_steps(a, 1, 2),
    "softmax": T.softmax,
    "bce_with_logits": lambda a: T.bce_with_logits(a, np.full((2, 3), 0.3)),
    "dropout": lambda a: T.dropout(a, 0.5, np.random.default_rng(3)),
    "pack_rows": lambda a: T.pack_rows(a, np.array([1])),
    "unpack_rows": lambda a: T.unpack_rows(a, np.array([0, 2]), (2, 2, 3)),
    "multi_head_attention": lambda a: T.multi_head_attention(
        a, np.array([0, 1]), np.zeros((1, 1, 2)), 1),
}


@pytest.mark.parametrize("op", sorted(SINGLE_PARENT))
def test_single_parent_op_has_a_closure_only_for_a_grad_operand(op):
    fn = SINGLE_PARENT[op]
    values = np.array([[0.5, 1.5, 2.0], [0.25, 1.0, 3.0]])
    out = fn(Tensor(values))
    assert out._parents == () and out._backward is None and not out.requires_grad

    x = leaf(values)
    out = fn(x)
    assert out._parents == (x,) and out._backward is not None
    T.sum_all(out).backward()
    first = x.grad.copy()
    assert first.shape == x.shape
    T.sum_all(fn(x)).backward()
    np.testing.assert_array_equal(x.grad, 2.0 * first)


def test_add_same_operand_twice():
    x = leaf([1.0, -2.0])
    T.sum_all(T.add(x, x)).backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def test_concat_same_operand_twice():
    x = leaf([[1.0, -2.0]])
    T.sum_all(T.mul_const(T.concat([x, x]), np.array([1.0, 2.0, 3.0, 4.0]))).backward()
    np.testing.assert_array_equal(x.grad, [[4.0, 6.0]])


PASS_THROUGH = {
    "add": lambda x, w: T.add(x, w),
    "add_b_side": lambda x, w: T.add(w, x),
    "sub": lambda x, w: T.add(T.sub(x, Tensor(np.zeros(2))), w),
    "add_const": lambda x, w: T.add(T.add_const(x, 1.0), w),
    "reshape": lambda x, w: T.add(T.reshape(T.reshape(x, (1, 2)), (2,)), w),
    "transpose": lambda x, w: T.add(T.reshape(T.transpose_last2(T.reshape(x, (2, 1))), (2,)), w),
    "concat": lambda x, w: T.add(T.reshape(T.concat([T.reshape(x, (1, 2))], axis=-2), (2,)), w),
}


@pytest.mark.parametrize("square_first", [True, False])
@pytest.mark.parametrize("op", sorted(PASS_THROUGH))
def test_parent_shared_by_two_ops_keeps_its_own_grad(op, square_first):
    """x feeds a pass-through op and a square; neither gradient may leak into w's."""
    x = leaf([1.0, 2.0])
    w = leaf([5.0, 7.0])
    passed = T.sum_all(PASS_THROUGH[op](x, w))
    squared = T.sum_all(T.mul(x, x))
    loss = T.add(squared, passed) if square_first else T.add(passed, squared)
    loss.backward()
    np.testing.assert_array_equal(x.grad, [3.0, 5.0])
    np.testing.assert_array_equal(w.grad, [1.0, 1.0])
    assert not np.shares_memory(x.grad, w.grad)


def test_backward_composite_attention_layer():
    """Scalar loss through a hand-built single-head attention block."""
    rng = np.random.default_rng(7)
    d = 4
    wq, wk, wv = (Tensor(rng.normal(size=(d, d))) for _ in range(3))

    def attention_loss(x):
        q = T.matmul(x, wq)
        k = T.matmul(x, wk)
        v = T.matmul(x, wv)
        scores = T.mul_const(T.matmul(q, T.transpose_last2(k)), 1.0 / math.sqrt(d))
        att = T.matmul(T.softmax(scores, axis=-1), v)
        return T.mul(att, att).mean()

    x = leaf(rng.normal(size=(5, d)))
    assert grad_check(attention_loss, x) < 1e-4


# ---------------------------------------------------------------------------
# grad_check itself


def test_grad_check_linear_is_exact():
    w = np.array([0.3, -1.2, 2.0])
    x = leaf([1.0, 1.0, 1.0])
    err = grad_check(lambda t: T.mul_const(t, w).sum(), x)
    assert err < 1e-8


def test_grad_check_sigmoid_dot():
    rng = np.random.default_rng(8)
    w = rng.normal(size=6)
    x = leaf(rng.normal(size=6))
    err = grad_check(lambda t: T.sigmoid(T.mul_const(t, w).sum()), x)
    assert err < 1e-6


def test_grad_check_rejects_bad_eps():
    with pytest.raises(ValueError):
        grad_check(lambda t: t.sum(), leaf([1.0]), eps=0.0)


def test_grad_check_runs_in_float64_on_a_float32_leaf():
    """A float32 leaf is checked on a float64 copy (near 2, float32 rounds an
    eps step of 1e-5 by up to ~1%) and gets its own array back untouched."""
    data = (np.random.default_rng(9).normal(size=8) + 2.0).astype(np.float32)
    before = data.tobytes()
    x = Tensor(data, requires_grad=True)
    seen = []

    def fn(t):
        seen.append(t.data.dtype)
        return T.tanh(t).sum()

    assert grad_check(fn, x) < 1e-6
    assert set(seen) == {np.dtype(np.float64)}
    assert x.data is data and x.data.dtype == np.float32 and data.tobytes() == before
    assert x.grad.dtype == np.float32


# ---------------------------------------------------------------------------
# remaining ops


def test_elementwise_gradients():
    rng = np.random.default_rng(9)
    for fn in (T.texp, T.tanh, T.gelu, T.relu, lambda t: T.pow_const(t, 3.0)):
        x = leaf(rng.normal(size=7) + 2.5)  # keep relu away from the kink
        assert grad_check(lambda t: fn(t).sum(), x) < 1e-6


def test_log_gradient():
    x = leaf(np.array([0.5, 1.5, 4.0]))
    assert grad_check(lambda t: T.tlog(t).sum(), x) < 1e-6


def test_add_bias_broadcast_over_rows():
    b = leaf(np.array([1.0, 2.0]))
    x = Tensor(np.zeros((3, 2)))
    out = T.add(x, b)
    np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0], (3, 1)))
    assert grad_check(lambda t: T.add(x, t).sum(), b) < 1e-8


def test_add_rejects_general_broadcast():
    with pytest.raises(ShapeError):
        T.add(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 1))))


def test_slice_and_concat_roundtrip():
    rng = np.random.default_rng(10)
    x = leaf(rng.normal(size=(2, 3, 6)))
    w = rng.normal(size=(2, 3, 6))

    def fn(t):
        parts = [T.slice_last(t, 0, 2), T.slice_last(t, 2, 6)]
        return T.mul_const(T.concat(parts, axis=-1), w).sum()

    assert grad_check(fn, x) < 1e-6


def test_slice_steps_gradient():
    rng = np.random.default_rng(11)
    x = leaf(rng.normal(size=(2, 4, 3)))
    fn = lambda t: T.slice_steps(t, 1, 3).sum()
    assert grad_check(fn, x) < 1e-8


def test_transpose_and_reshape_gradient():
    rng = np.random.default_rng(12)
    x = leaf(rng.normal(size=(2, 3, 4)))
    w = rng.normal(size=(2, 4, 3))
    fn = lambda t: T.mul_const(T.transpose_last2(t), w).sum()
    assert grad_check(fn, x) < 1e-8


def test_bce_with_logits_matches_naive_formula():
    rng = np.random.default_rng(13)
    z = rng.normal(size=50) * 3
    t = rng.random(50)
    out = T.bce_with_logits(Tensor(z), t)
    p = 1.0 / (1.0 + np.exp(-z))
    naive = -(t * np.log(p) + (1 - t) * np.log(1 - p))
    np.testing.assert_allclose(out.data, naive, atol=1e-12)


def test_bce_with_logits_gradient():
    rng = np.random.default_rng(14)
    t = rng.integers(0, 2, size=10).astype(float)
    z = leaf(rng.normal(size=10))
    assert grad_check(lambda u: T.bce_with_logits(u, t).mean(), z) < 1e-6


def test_dropout_eval_identity_and_scaling():
    rng = np.random.default_rng(15)
    x = Tensor(np.ones((200, 50)))
    out = T.dropout(x, 0.5, rng)
    kept = out.data[out.data > 0]
    assert np.allclose(kept, 2.0)           # inverted scaling
    assert abs(out.data.mean() - 1.0) < 0.05
    same = T.dropout(x, 0.0, rng)
    assert same is x


def test_forward_deterministic():
    rng = np.random.default_rng(16)
    x = Tensor(rng.normal(size=(4, 4)))
    a = T.softmax(T.matmul(x, x), axis=-1).data
    b = T.softmax(T.matmul(x, x), axis=-1).data
    np.testing.assert_array_equal(a, b)


def test_forward_outputs_finite_on_finite_inputs():
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(3, 8)) * 50)
    g = Tensor(np.ones(8))
    b = Tensor(np.zeros(8))
    for out in (T.softmax(x, axis=-1), T.sigmoid(x), T.layer_norm(x, g, b),
                T.gelu(x), T.add_const(x, np.full((3, 8), T.MASK_NEG))):
        assert np.isfinite(out.data).all()


# ---------------------------------------------------------------------------
# fused recurrent layers

RECURRENT_OPERANDS = {
    "gru": ("x", "wr", "wz", "wn", "ur", "uz", "un", "br", "bz", "bn"),
    "lstm": ("x", "wi", "wf", "wg", "wo", "ui", "uf", "ug", "uo", "bi", "bf", "bg", "bo"),
}


def recurrent_operands(kind, batch=2, steps=3, d_in=2, d=3, seed=0):
    rng = np.random.default_rng(seed)
    shapes = {"x": (batch, steps, d_in), "w": (d_in, d), "u": (d, d), "b": (d,)}
    return [rng.normal(scale=0.7, size=shapes[name[0]]) for name in RECURRENT_OPERANDS[kind]]


@pytest.mark.parametrize("kind,index", [(kind, i) for kind, names in RECURRENT_OPERANDS.items()
                                        for i in range(len(names))],
                         ids=[f"{kind}-{name}" for kind, names in RECURRENT_OPERANDS.items()
                              for name in names])
def test_recurrent_op_gradient(kind, index):
    op = getattr(T, kind)
    values = recurrent_operands(kind)
    weights = np.random.default_rng(1).normal(size=(2, 3, 3))

    def fn(t):
        operands = [Tensor(v) for v in values]
        operands[index] = t
        return T.mul_const(op(*operands), weights).sum()

    assert grad_check(fn, leaf(values[index])) < 1e-4


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_recurrent_op_rejects_mismatched_shapes(kind):
    op = getattr(T, kind)
    values = recurrent_operands(kind)
    values[1] = values[1][:, :2]
    with pytest.raises(ShapeError, match=kind):
        op(*[Tensor(v) for v in values])
    with pytest.raises(ShapeError, match="input"):
        op(*[Tensor(v) for v in [values[0][0]] + recurrent_operands(kind)[1:]])


# ---------------------------------------------------------------------------
# fused dense and attention ops, row packing

def ragged_rows(lengths, steps):
    """Flat (batch * steps) indices of the valid positions and the key bias
    of a batch whose sequence i has ``lengths[i]`` valid steps."""
    mask = np.arange(steps)[None, :] < np.asarray(lengths)[:, None]
    key_bias = np.where(mask, 0.0, T.MASK_NEG)[:, None, :]
    return np.flatnonzero(mask), key_bias


@pytest.mark.parametrize("index", [0, 1, 2], ids=["x", "w", "b"])
@pytest.mark.parametrize("x_shape", [(5, 4), (2, 3, 4)], ids=["2d", "3d"])
def test_linear_gradient(x_shape, index):
    rng = np.random.default_rng(20)
    values = [rng.normal(size=x_shape), rng.normal(size=(4, 3)), rng.normal(size=3)]
    weights = rng.normal(size=x_shape[:-1] + (3,))

    def fn(t):
        operands = [Tensor(v) for v in values]
        operands[index] = t
        return T.mul_const(T.linear(*operands), weights).sum()

    assert grad_check(fn, leaf(values[index])) < 1e-4


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("x_shape", [(7, 5), (3, 4, 5)], ids=["2d", "3d"])
def test_linear_equals_matmul_plus_bias_bit_for_bit(x_shape, dtype):
    rng = np.random.default_rng(21)
    values = [rng.normal(size=x_shape).astype(dtype), rng.normal(size=(5, 6)).astype(dtype),
              rng.normal(size=6).astype(dtype)]
    weights = rng.normal(size=x_shape[:-1] + (6,)).astype(dtype)

    def run(fn):
        x, w, b = (Tensor(v.copy(), requires_grad=True) for v in values)
        out = fn(x, w, b)
        T.mul_const(out, weights).sum().backward()
        return [out.data, x.grad, w.grad, b.grad]

    fused = run(T.linear)
    composed = run(lambda x, w, b: T.add(T.matmul(x, w), b))
    for got, want in zip(fused, composed):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)


def test_linear_rejects_mismatched_shapes():
    x, w, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(4))
    for args in ((x, Tensor(np.zeros((2, 4))), b), (x, w, Tensor(np.zeros(3))),
                 (Tensor(np.zeros(3)), w, b)):
        with pytest.raises(ShapeError, match="linear"):
            T.linear(*args)


def test_pack_and_unpack_rows_roundtrip_and_gradients():
    rng = np.random.default_rng(22)
    rows, _ = ragged_rows([3, 1, 2], 3)
    padded = rng.normal(size=(3, 3, 2))
    packed = T.pack_rows(Tensor(padded), rows)
    np.testing.assert_array_equal(packed.data, padded.reshape(9, 2)[rows])
    back = T.unpack_rows(packed, rows, (3, 3, 2)).data
    valid = np.isin(np.arange(9), rows).reshape(3, 3)
    np.testing.assert_array_equal(back[valid], padded[valid])
    assert (back[~valid] == 0).all()

    w_packed = rng.normal(size=(len(rows), 2))
    w_padded = rng.normal(size=(3, 3, 2))
    assert grad_check(lambda t: T.mul_const(T.pack_rows(t, rows), w_packed).sum(),
                      leaf(padded)) < 1e-4
    assert grad_check(lambda t: T.mul_const(T.unpack_rows(t, rows, (3, 3, 2)),
                                            w_padded).sum(),
                      leaf(packed.data)) < 1e-4
    with pytest.raises(ShapeError, match="unpack_rows"):
        T.unpack_rows(packed, rows[:-1], (3, 3, 2))


@pytest.mark.parametrize("n_heads", [1, 3])
def test_multi_head_attention_gradient(n_heads):
    rng = np.random.default_rng(23)
    rows, key_bias = ragged_rows([4, 1, 3], 4)
    qkv = rng.normal(size=(len(rows), 3 * 6))
    weights = rng.normal(size=(len(rows), 6))

    def fn(t):
        return T.mul_const(T.multi_head_attention(t, rows, key_bias, n_heads), weights).sum()

    assert grad_check(fn, leaf(qkv)) < 1e-4


def test_multi_head_attention_matches_per_head_softmax():
    rng = np.random.default_rng(24)
    lengths, steps, heads, dh = [3, 1, 2], 3, 2, 2
    rows, key_bias = ragged_rows(lengths, steps)
    qkv = rng.normal(size=(len(rows), 3 * heads * dh))
    out = T.multi_head_attention(Tensor(qkv), rows, key_bias, heads).data
    at = 0
    for length in lengths:
        q, k, v = (qkv[at:at + length, i * heads * dh:(i + 1) * heads * dh] for i in range(3))
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            s = q[:, cols] @ k[:, cols].T / math.sqrt(dh)
            p = np.exp(s - s.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(out[at:at + length, cols], p @ v[:, cols], rtol=1e-12)
        at += length


def test_multi_head_attention_rejects_mismatched_shapes():
    rows, key_bias = ragged_rows([2, 1], 2)
    with pytest.raises(ShapeError, match="multi_head_attention"):
        T.multi_head_attention(Tensor(np.zeros((3, 8))), rows, key_bias, 2)
    with pytest.raises(ShapeError, match="multi_head_attention"):
        T.multi_head_attention(Tensor(np.zeros((2, 12))), rows, key_bias, 2)


def test_dropout_on_packed_rows_keeps_the_padded_random_stream():
    rows, _ = ragged_rows([3, 1, 2], 3)
    padded = Tensor(np.random.default_rng(25).normal(size=(3, 3, 4)))
    rng_a, rng_b = np.random.default_rng(26), np.random.default_rng(26)
    full = T.dropout(padded, 0.3, rng_a).data.reshape(9, 4)[rows]
    packed = T.dropout(T.pack_rows(padded, rows), 0.3, rng_b, rows, 9).data
    np.testing.assert_array_equal(packed, full)
    assert rng_a.random() == rng_b.random()


# ---------------------------------------------------------------------------
# what a node keeps: boolean dropout masks, the fused residual, attention

def _float_mask_dropout(a, p, rng, rows=None, padded_rows=None):
    """Dropout as a multiply by a stored float keep array: the composition
    the boolean-mask ``T.dropout`` replaces."""
    if rows is None:
        draw = rng.random(a.shape)
    else:
        draw = rng.random((padded_rows, a.shape[-1]))[rows]
    return T.mul_const(a, (draw >= p).astype(a.data.dtype) / (1.0 - p))


def _closure_arrays(fn):
    """Every array a backward closure can reach through its cells, nested
    functions' cells included, together with each array's ``base`` chain."""
    found, stack = [], [fn]
    while stack:
        for cell in stack.pop().__closure__ or ():
            value = cell.cell_contents
            if callable(value) and hasattr(value, "__closure__"):
                stack.append(value)
            while isinstance(value, np.ndarray):
                found.append(value)
                value = value.base
    return found


@pytest.mark.parametrize("packed", [False, True], ids=["padded", "packed"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_bool_mask_dropout_matches_float_mask_dropout(dtype, packed):
    rows, _ = ragged_rows([3, 1, 2], 3)
    rows, padded_rows = (rows, 9) if packed else (None, None)
    values = np.random.default_rng(27).normal(size=(6 if packed else 9, 4)).astype(dtype)
    weights = np.random.default_rng(28).normal(size=values.shape).astype(dtype)

    def run(op):
        rng = np.random.default_rng(29)
        a = Tensor(values.copy(), requires_grad=True)
        out = op(a, 0.3, rng, rows, padded_rows)
        T.mul_const(out, weights).sum().backward()
        return out, a.grad, rng.bit_generator.state

    out, grad, state = run(T.dropout)
    ref_out, ref_grad, ref_state = run(_float_mask_dropout)
    assert out.dtype == grad.dtype == dtype
    assert out.data.tobytes() == ref_out.data.tobytes()
    assert grad.tobytes() == ref_grad.tobytes()
    assert state == ref_state
    kept = _closure_arrays(out._backward)
    assert kept and all(arr.dtype == bool for arr in kept)


RESIDUAL_DROP = {"no_dropout": (), "dropout": (0.3,), "dropout_packed": (0.3, "rows")}


def _residual_operands(dtype=np.float64):
    """h (N, 3), x (N, 4), w (4, 3) and b (3,) for N packed rows of a padded
    (9, ·) layout."""
    rows, _ = ragged_rows([3, 1, 2], 3)
    rng = np.random.default_rng(30)
    n = len(rows)
    values = [rng.normal(size=(n, 3)), rng.normal(size=(n, 4)), rng.normal(size=(4, 3)),
              rng.normal(size=3)]
    return [v.astype(dtype) for v in values], rows, rng.normal(size=(n, 3)).astype(dtype)


def _residual_linear(h, x, w, b, *drop):
    """``linear`` with the residual first, the operand order of
    ``_residual_operands``."""
    return T.linear(x, w, b, h, *drop)


def _drop_args(drop, rows):
    """``dropout``'s trailing arguments for one RESIDUAL_DROP case, with a
    fresh generator so every call draws the same mask."""
    if not drop:
        return ()
    rng = np.random.default_rng(31)
    return (drop[0], rng) + ((rows, 9) if len(drop) > 1 else ())


@pytest.mark.parametrize("index", [0, 1, 2, 3], ids=["h", "x", "w", "b"])
@pytest.mark.parametrize("drop", list(RESIDUAL_DROP.values()), ids=list(RESIDUAL_DROP))
def test_residual_linear_gradient(drop, index):
    values, rows, weights = _residual_operands()

    def fn(t):
        operands = [Tensor(v) for v in values]
        operands[index] = t
        return T.mul_const(_residual_linear(*operands, *_drop_args(drop, rows)), weights).sum()

    assert grad_check(fn, leaf(values[index])) < 1e-4


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("drop", list(RESIDUAL_DROP.values()), ids=list(RESIDUAL_DROP))
def test_residual_linear_equals_add_dropout_linear_bit_for_bit(drop, dtype):
    values, rows, weights = _residual_operands(dtype)

    def composed(h, x, w, b, *args):
        y = T.linear(x, w, b)
        return T.add(h, T.dropout(y, *args) if args else y)

    def run(op):
        operands = [Tensor(v.copy(), requires_grad=True) for v in values]
        args = _drop_args(drop, rows)
        out = op(*operands, *args)
        T.mul_const(out, weights).sum().backward()
        state = args[1].bit_generator.state if args else None
        return [out.data] + [t.grad for t in operands], state

    fused, fused_state = run(_residual_linear)
    ref, ref_state = run(composed)
    assert fused_state == ref_state
    for got, want in zip(fused, ref):
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()


def test_residual_linear_keeps_neither_linear_nor_dropout_output():
    values, rows, _ = _residual_operands()
    h, x, w, b = (Tensor(v, requires_grad=True) for v in values)
    out = T.linear(x, w, b, h, 0.3, np.random.default_rng(31), rows, 9)
    assert out._parents == (h, x, w, b)
    kept = [arr for arr in _closure_arrays(out._backward) if arr.dtype != bool]
    assert all(np.shares_memory(arr, x.data) or np.shares_memory(arr, w.data)
               or np.shares_memory(arr, b.data) for arr in kept)


def test_residual_linear_rejects_mismatched_shapes():
    h, x = Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 3)))
    w, b = Tensor(np.zeros((3, 4))), Tensor(np.zeros(4))
    with pytest.raises(ShapeError, match="residual of the output's shape"):
        T.linear(x, w, b, Tensor(np.zeros((3, 4))))
    with pytest.raises(ShapeError, match="linear"):
        T.linear(x, Tensor(np.zeros((2, 4))), b, h)
    with pytest.raises(ValueError, match="dropout rate"):
        T.linear(x, w, b, h, 1.0, np.random.default_rng(0))


def test_multi_head_attention_keeps_no_padded_qkv():
    batch, steps, d = 3, 5, 6
    rows, key_bias = ragged_rows([5, 2, 4], steps)
    qkv = leaf(np.random.default_rng(32).normal(size=(len(rows), 3 * d)))
    out = T.multi_head_attention(qkv, rows, key_bias, 2)
    padded_size = batch * steps * 3 * d
    sizes = [arr.size for arr in _closure_arrays(out._backward)]
    assert sizes and padded_size not in sizes
