"""Dense tensors with reverse-mode automatic differentiation.

A small numpy-backed engine: every operation on an operand that requires
grad builds a node that remembers its parents and a backward closure.
Calling ``Tensor.backward()`` on a scalar output walks the graph in reverse
topological order and accumulates gradients into every tensor created with
``requires_grad=True``.

Conventions:
  * arrays are float64 by default (float32 is kept if passed in);
  * graphs are acyclic: a backward closure receives the upstream gradient
    as its argument and never refers to its own output, so a graph is freed
    by reference counting as soon as its root is dropped;
  * inference builds no graph: an op whose operands all have
    ``requires_grad=False`` records neither parents nor a closure.  A
    closure thus exists only when a parent requires grad, so a
    single-parent closure accumulates unconditionally and a multi-parent
    one checks each operand, forming only the gradients that are needed;
  * ``backward()`` releases every non-leaf ``grad`` once that node's
    closure has run, so calling it twice on one graph adds exactly twice
    the gradient into leaf ``grad`` buffers, which keep accumulating
    until ``zero_grad()`` is called;
  * a node keeps only what its backward pass reads: ``dropout`` keeps a
    one-byte keep mask and rebuilds the 0 or 1/(1-p) multiplier where it
    multiplies; ``linear`` keeps ``x``, the mask and, with the GELU, the
    GELU's input and CDF, but neither the GELU's nor the dropout's output;
    and ``multi_head_attention`` keeps its packed q|k|v parent and the
    softmax weights, and rebuilds the zero-padded q|k|v array in its backward;
  * broadcasting is deliberately restricted: learnable operands broadcast
    only as 1-D bias vectors over rows; arbitrary broadcasting is allowed
    only for non-learnable constants (``add_const`` / ``mul_const``);
  * the fused recurrent ops ``gru`` and ``lstm`` run a whole layer over a
    (B, S, d) sequence as one graph node: the forward pass keeps every
    step's gates and states, and the hand-written backward pass runs
    through time in reverse, then forms each weight, bias and input
    gradient with one GEMM or one sum over all steps;
  * the transformer's fused ops: ``linear`` is ``h + dropout(gelu(x @ w + b))``
    as one node, with ``h``, the exact GELU and the dropout optional (one
    GEMM each for the forward and the input and weight gradients), and
    ``multi_head_attention`` runs every head as one node with an analytic
    backward; all work on packed rows, the (N, w) True positions of a (B, S)
    boolean mask, which ``collate`` concatenates and ``unpack_rows`` pads.
"""

import math

import numpy as np
from scipy.special import erf, expit

# Finite stand-in for -inf in attention masks: exp(MASK_NEG - max) underflows
# to exactly 0 while keeping every forward value finite.
MASK_NEG = -1e30

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


def _fmt(shape):
    return "x".join(str(d) for d in shape) if shape else "scalar"


class Tensor:
    """A dense array plus optional gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def sum(self):
        return sum_all(self)

    def mean(self):
        return mean_all(self)

    def backward(self):
        """Reverse-mode gradient accumulation from a scalar output.

        Leaf gradients add into existing ``grad`` buffers, so repeated calls
        without ``zero_grad()`` accumulate.  Each non-leaf node's ``grad`` is
        released once its backward has run.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward() requires a scalar output, got shape {_fmt(self.shape)}"
            )
        order = _toposort(self)
        _accumulate(self, np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None

    def __repr__(self):
        return f"Tensor(shape={_fmt(self.shape)}, requires_grad={self.requires_grad})"


def _toposort(root):
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _accumulate(t, g, alias=False):
    """Add ``g`` into ``t.grad``.

    A first write keeps ``g`` itself when the op has just allocated it;
    ``alias=True`` marks an upstream gradient or a view of one, which is
    copied so that no two tensors share a gradient buffer.
    """
    if t.grad is None:
        t.grad = (np.array if alias else np.asarray)(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _result(data, parents, backward):
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# binary operations


def matmul(a, b):
    """Matrix product. Supports (m,k)@(k,n), (B,m,k)@(k,n) and (B,m,k)@(B,k,n)."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(
            f"matmul needs 2-D or 3-D operands, got {_fmt(a.shape)} and {_fmt(b.shape)}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {_fmt(a.shape)} @ {_fmt(b.shape)}"
        )
    if a.data.ndim == 2 and b.data.ndim == 3:
        raise ShapeError(
            f"matmul does not broadcast a 2-D left operand over a batched right "
            f"operand: {_fmt(a.shape)} @ {_fmt(b.shape)}"
        )
    batched_times_shared = a.data.ndim == 3 and b.data.ndim == 2
    if batched_times_shared:
        # one flat GEMM instead of a batched matmul plus reduction
        B, m, k = a.data.shape
        out_data = (a.data.reshape(B * m, k) @ b.data).reshape(B, m, -1)
    else:
        out_data = a.data @ b.data

    def backward(g):
        if batched_times_shared:
            B, m, k = a.data.shape
            n = b.data.shape[1]
            gf = g.reshape(B * m, n)
            if a.requires_grad:
                _accumulate(a, (gf @ b.data.T).reshape(B, m, k))
            if b.requires_grad:
                _accumulate(b, a.data.reshape(B * m, k).T @ gf)
            return
        if a.requires_grad:
            _accumulate(a, g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            _accumulate(b, np.swapaxes(a.data, -1, -2) @ g)

    return _result(out_data, (a, b), backward)


def add(a, b):
    """Elementwise sum; ``b`` may be a 1-D bias broadcast over rows."""
    if a.shape == b.shape:
        bias = False
    elif b.data.ndim == 1 and a.data.ndim >= 1 and a.shape[-1] == b.shape[0]:
        bias = True
    else:
        raise ShapeError(f"add shapes incompatible: {_fmt(a.shape)} + {_fmt(b.shape)}")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g, alias=True)
        if b.requires_grad:
            if bias:
                _accumulate(b, g.reshape(-1, b.shape[0]).sum(axis=0))
            else:
                _accumulate(b, g, alias=True)

    return _result(a.data + b.data, (a, b), backward)


def sub(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"sub shapes differ: {_fmt(a.shape)} - {_fmt(b.shape)}")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g, alias=True)
        if b.requires_grad:
            _accumulate(b, -g)

    return _result(a.data - b.data, (a, b), backward)


def mul(a, b):
    """Elementwise product of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {_fmt(a.shape)} * {_fmt(b.shape)}")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _result(a.data * b.data, (a, b), backward)


def add_const(a, c):
    """Add a non-learnable constant; numpy broadcasting onto ``a`` allowed."""
    c = np.asarray(c, dtype=a.data.dtype)
    if np.broadcast_shapes(a.shape, c.shape) != a.shape:
        raise ShapeError(
            f"constant of shape {_fmt(c.shape)} does not broadcast onto {_fmt(a.shape)}"
        )

    def backward(g):
        _accumulate(a, g, alias=True)

    return _result(a.data + c, (a,), backward)


def mul_const(a, c):
    """Multiply by a non-learnable constant; broadcasting onto ``a`` allowed."""
    c = np.asarray(c, dtype=a.data.dtype)
    if np.broadcast_shapes(a.shape, c.shape) != a.shape:
        raise ShapeError(
            f"constant of shape {_fmt(c.shape)} does not broadcast onto {_fmt(a.shape)}"
        )

    def backward(g):
        _accumulate(a, g * c)

    return _result(a.data * c, (a,), backward)


# ---------------------------------------------------------------------------
# elementwise operations


def texp(a):
    out_data = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * out_data)

    return _result(out_data, (a,), backward)


def tlog(a):
    def backward(g):
        _accumulate(a, g / a.data)

    return _result(np.log(a.data), (a,), backward)


def tanh(a):
    out_data = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - out_data * out_data))

    return _result(out_data, (a,), backward)


def relu(a):
    def backward(g):
        _accumulate(a, g * (a.data > 0))

    return _result(np.maximum(a.data, 0.0), (a,), backward)


def sigmoid(a):
    """Elementwise logistic function, stable for large |input|."""
    out_data = expit(a.data)

    def backward(g):
        _accumulate(a, g * out_data * (1.0 - out_data))

    return _result(out_data, (a,), backward)


def _gelu_cdf(x):
    """Phi(x), the standard normal CDF: exact GELU is ``x * _gelu_cdf(x)``."""
    return 0.5 * (1.0 + erf(x * _INV_SQRT2))


def _gelu_slope(x, cdf):
    """d/dx of ``x * cdf`` with ``cdf = _gelu_cdf(x)``: Phi(x) + x phi(x)."""
    return cdf + x * (_INV_SQRT2PI * np.exp(-0.5 * x * x))


def gelu(a):
    """Exact (erf-based) GELU."""
    x = a.data
    cdf = _gelu_cdf(x)

    def backward(g):
        _accumulate(a, g * _gelu_slope(x, cdf))

    return _result(x * cdf, (a,), backward)


def pow_const(a, p):
    """Elementwise power with a constant exponent; p == 0 yields ones."""
    p = float(p)
    if p == 0.0:
        out_data = np.ones_like(a.data)

        def backward(g):
            _accumulate(a, np.zeros_like(a.data))

    else:
        out_data = np.power(a.data, p)

        def backward(g):
            _accumulate(a, g * p * np.power(a.data, p - 1.0))

    return _result(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# reductions and structural operations


def sum_all(a):
    def backward(g):
        _accumulate(a, np.full_like(a.data, float(g)))

    return _result(np.asarray(a.data.sum()), (a,), backward)


def mean_all(a):
    n = a.data.size

    def backward(g):
        _accumulate(a, np.full_like(a.data, float(g) / n))

    return _result(np.asarray(a.data.mean()), (a,), backward)


def reshape(a, shape):
    def backward(g):
        _accumulate(a, g.reshape(a.shape), alias=True)

    return _result(a.data.reshape(shape), (a,), backward)


def transpose_last2(a):
    if a.data.ndim < 2:
        raise ShapeError(f"transpose_last2 needs ndim >= 2, got {_fmt(a.shape)}")

    def backward(g):
        _accumulate(a, np.swapaxes(g, -1, -2), alias=True)

    return _result(np.swapaxes(a.data, -1, -2), (a,), backward)


def slice_last(a, lo, hi):
    """Slice along the last axis; gradient scatters back with zero padding."""
    def backward(g):
        full = np.zeros_like(a.data)
        full[..., lo:hi] = g
        _accumulate(a, full)

    return _result(a.data[..., lo:hi], (a,), backward)


def slice_steps(a, lo, hi):
    """Slice along the second-to-last axis (sequence steps)."""
    if a.data.ndim < 2:
        raise ShapeError(f"slice_steps needs ndim >= 2, got {_fmt(a.shape)}")

    def backward(g):
        full = np.zeros_like(a.data)
        full[..., lo:hi, :] = g
        _accumulate(a, full)

    return _result(a.data[..., lo:hi, :], (a,), backward)


def concat(tensors, axis=-1):
    """Concatenate along the last or second-to-last axis."""
    if axis not in (-1, -2):
        raise ShapeError(f"concat supports axis -1 or -2, got {axis}")
    tensors = list(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                if axis == -1:
                    _accumulate(t, g[..., lo:hi], alias=True)
                else:
                    _accumulate(t, g[..., lo:hi, :], alias=True)

    return _result(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def softmax(a, axis=-1):
    """Softmax along ``axis``; max-subtraction keeps it stable."""
    if a.data.ndim == 0 or a.data.shape[axis] == 0:
        raise ShapeError(f"softmax over empty axis {axis} of shape {_fmt(a.shape)}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        _accumulate(a, (g - dot) * out_data)

    return _result(out_data, (a,), backward)


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    d = x.data.shape[-1] if x.data.ndim else 0
    if d == 0:
        raise ShapeError("layer_norm over an empty last axis")
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({d},), got "
            f"{_fmt(gain.shape)} and {_fmt(bias.shape)}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gy = g * gain.data
            m1 = gy.mean(axis=-1, keepdims=True)
            m2 = (gy * xhat).mean(axis=-1, keepdims=True)
            _accumulate(x, inv * (gy - m1 - xhat * m2))

    return _result(out_data, (x, gain, bias), backward)


def bce_with_logits(logits, targets):
    """Per-element binary cross-entropy from raw logits (log-sum-exp form).

    ``targets`` is a plain array (already label-smoothed if desired); the
    gradient flows to the logits only: d/dz = sigmoid(z) - t.
    """
    t = np.asarray(targets, dtype=logits.data.dtype)
    if t.shape != logits.shape:
        raise ShapeError(
            f"bce_with_logits shapes differ: {_fmt(logits.shape)} vs {_fmt(t.shape)}"
        )
    z = logits.data
    out_data = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))

    def backward(g):
        _accumulate(logits, g * (expit(z) - t))

    return _result(out_data, (logits,), backward)


def _keep_mask(shape, p, rng, mask=None):
    """Boolean keep mask of ``shape``, True where a uniform draw is >= p; the
    draw for packed rows is the one ``dropout`` describes."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    draw = rng.random(shape) if mask is None else rng.random(mask.shape + shape[-1:])[mask]
    return draw >= p


def _keep_scale(keep, p, dtype):
    """The inverted-dropout multiplier of a boolean keep mask: 0 or 1/(1-p)."""
    return keep.astype(dtype) / (1.0 - p)


def dropout(a, p, rng, mask=None):
    """Inverted dropout with an explicit generator; caller skips it in eval mode.

    When ``a`` holds the (N, width) packed rows of a (B, S) boolean ``mask``,
    the keep mask is drawn for the padded (B, S, width) shape and gathered at
    ``mask``, so ``rng`` advances as it would on the padded array.
    The node keeps only the boolean mask and rebuilds the multiplier where it
    multiplies.
    """
    if p == 0.0:
        return a
    keep = _keep_mask(a.shape, p, rng, mask)
    dt = a.data.dtype

    def backward(g):
        _accumulate(a, g * _keep_scale(keep, p, dt))

    return _result(a.data * _keep_scale(keep, p, dt), (a,), backward)


# ---------------------------------------------------------------------------
# fused dense and attention ops
#
# A transformer batch runs its position-wise steps on packed rows: the N
# True positions of a (B, S) boolean mask, in row-major order, as an (N, w)
# array, which ``collate`` builds by concatenating the bundles.  The mask is
# the only layout argument; attention and the dropout draw need the padded
# layout and build it from the mask inside.


def _promoted(arr, *others):
    """``arr`` cast up to the dtype numpy's promotion gives it beside
    ``others``, so a float32 product that a float64 operand is added into in
    place becomes float64, as it would under ``+``; no copy otherwise."""
    return arr.astype(np.result_type(arr, *others), copy=False)


def linear(x, w, b, residual=None, p=0.0, rng=None, mask=None, gelu=False):
    """``residual + dropout(gelu(x @ w + b))`` as one node: one GEMM, then the
    bias and, each optional, the GELU, the dropout multiplier and the residual.

    ``x`` is (..., k), ``w`` (k, n) and ``b`` (n,); the leading axes of ``x``
    are flattened into the GEMM's rows.  ``residual`` (None for none) has the
    output's shape; ``p == 0`` means no dropout, and ``p``, ``rng`` and
    ``mask`` are those of ``dropout``; ``gelu`` applies the exact GELU.  The
    parents are (residual, x, w, b), or (x, w, b), and the node keeps only
    ``x``, the keep mask and, with the GELU, ``x @ w + b`` and its CDF.  The values and
    random draws equal ``add(residual, dropout(gelu(add(matmul(x, w), b)), p,
    rng, mask))`` bit for bit, forward and backward.
    """
    k, n = w.shape if w.data.ndim == 2 else (0, 0)
    shape = x.shape[:-1] + (n,)
    if (x.data.ndim < 2 or w.data.ndim != 2 or x.shape[-1] != k or b.shape != (n,)
            or residual is not None and residual.shape != shape):
        raise ShapeError(
            f"linear needs x (..., k), w (k, n), b (n,) and a residual of the output's "
            f"shape, got {_fmt(x.shape)}, {_fmt(w.shape)}, {_fmt(b.shape)} and "
            f"{'none' if residual is None else _fmt(residual.shape)}"
        )
    xf = x.data.reshape(-1, k)
    out = _promoted(xf @ w.data, b.data)
    out += b.data
    dt = out.dtype
    pre = cdf = None
    if gelu:
        pre, cdf = out, _gelu_cdf(out)
        out = pre * cdf
    keep = None
    if p != 0.0:
        keep = _keep_mask(shape, p, rng, mask).reshape(-1, n)
        out *= _keep_scale(keep, p, dt)
    parents = (x, w, b)
    if residual is not None:
        out += residual.data.reshape(-1, n)
        parents = (residual,) + parents

    def backward(g):
        if residual is not None and residual.requires_grad:
            _accumulate(residual, g, alias=True)
        gf = g.reshape(-1, n)
        if keep is not None:
            gf = gf * _keep_scale(keep, p, dt)
        if gelu:
            gf = gf * _gelu_slope(pre, cdf)
        if x.requires_grad:
            _accumulate(x, (gf @ w.data.T).reshape(x.shape))
        if w.requires_grad:
            _accumulate(w, xf.T @ gf)
        if b.requires_grad:
            _accumulate(b, gf.sum(axis=0))

    return _result(out.reshape(shape), parents, backward)


def unpack_rows(a, mask):
    """Scatter the (N, w) rows of ``a`` to the N True positions of the (B, S)
    boolean ``mask`` in a zero (B, S, w) array; the gradient gathers them."""
    n = np.count_nonzero(mask)
    if a.data.ndim != 2 or a.shape[0] != n:
        raise ShapeError(f"unpack_rows needs {n} rows, got {_fmt(a.shape)}")
    out = np.zeros(mask.shape + a.shape[1:], dtype=a.data.dtype)
    out[mask] = a.data

    def backward(g):
        _accumulate(a, g[mask])

    return _result(out, (a,), backward)


def multi_head_attention(qkv, mask, n_heads):
    """Scaled dot-product attention of all heads as one node.

    ``qkv`` holds the packed q | k | v rows (N, 3d) of the N True positions
    of the (B, S) boolean ``mask``.  Each head's scores are q kᵀ, then scaled
    by 1/sqrt(d / n_heads), then shifted by MASK_NEG at the keys ``mask``
    leaves out, then softmaxed with the row maximum subtracted.  Returns the
    heads' outputs side by side, packed like the input: (N, d).
    """
    n = np.count_nonzero(mask)
    N, width = qkv.shape if qkv.data.ndim == 2 else (0, 0)
    if mask.ndim != 2 or N != n or width == 0 or width % (3 * n_heads):
        raise ShapeError(
            f"multi_head_attention needs {n} packed q|k|v rows with a width divisible "
            f"by 3 x {n_heads} heads and a (batch, steps) mask, got {_fmt(qkv.shape)} "
            f"and a {_fmt(mask.shape)} mask"
        )
    B, S = mask.shape
    d = width // 3
    dh = d // n_heads
    dt = qkv.data.dtype
    scale = 1.0 / math.sqrt(dh)

    def padded_heads():
        """Q, K and V as (B, H, S, dh) views of one zero-padded (B, S, 3d) array."""
        X = np.zeros((B, S, width), dtype=dt)
        X[mask] = qkv.data
        return X.reshape(B, S, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)

    Q, K, V = padded_heads()
    P = Q @ np.swapaxes(K, -1, -2)
    P *= scale
    P += np.where(mask, 0.0, MASK_NEG).astype(dt)[:, None, None, :]
    P -= P.max(axis=-1, keepdims=True)
    np.exp(P, out=P)
    P /= P.sum(axis=-1, keepdims=True)
    O = np.empty((B, S, n_heads, dh), dtype=dt)
    np.matmul(P, V, out=O.transpose(0, 2, 1, 3))

    def backward(g):
        Q, K, V = padded_heads()        # rebuilt: the node keeps only qkv, mask and P
        gO = np.zeros((B, S, d), dtype=dt)
        gO[mask] = g
        gO = gO.reshape(B, S, n_heads, dh).transpose(0, 2, 1, 3)
        dX = np.empty((B, S, 3, n_heads, dh), dtype=dt)
        dQ, dK, dV = dX.transpose(2, 0, 3, 1, 4)
        np.matmul(np.swapaxes(P, -1, -2), gO, out=dV)
        dS = gO @ np.swapaxes(V, -1, -2)
        dS -= (dS * P).sum(axis=-1, keepdims=True)
        dS *= P
        dS *= scale
        np.matmul(dS, K, out=dQ)
        np.matmul(np.swapaxes(dS, -1, -2), Q, out=dK)
        _accumulate(qkv, dX.reshape(B, S, width)[mask])

    return _result(O.reshape(B, S, d)[mask], (qkv,), backward)


# ---------------------------------------------------------------------------
# fused recurrent layers
#
# Both ops work time-major inside: step t of every sequence is the
# contiguous (B, d) block [t] of an (S, B, .) array.  Gate weights are
# concatenated along columns at call time, so each step makes one recurrent
# GEMM, and the input projections of all steps are one GEMM before the loop.


def _recurrent_weights(op, x, ws, us, bs):
    """Column-concatenated input weights, recurrent weights and biases."""
    if x.data.ndim != 3:
        raise ShapeError(f"{op} needs a (batch, steps, features) input, got {_fmt(x.shape)}")
    d_in = x.shape[2]
    d = bs[0].shape[0] if bs[0].data.ndim == 1 else 0
    for group, shape in ((ws, (d_in, d)), (us, (d, d)), (bs, (d,))):
        for t in group:
            if t.shape != shape or d == 0:
                raise ShapeError(
                    f"{op} with input {_fmt(x.shape)} needs weights {_fmt((d_in, d))}, "
                    f"recurrent weights {_fmt((d, d))} and biases {_fmt((d,))}, "
                    f"got {_fmt(t.shape)}"
                )
    return tuple(np.concatenate([t.data for t in group], axis=-1) for group in (ws, us, bs))


def _input_projection(x, W, b, U):
    """Time-major (S·B, d_in) input rows and their (S, B, k·d) projections,
    in the dtype of the steps' arithmetic, which adds ``h @ U`` to them."""
    B, S, d_in = x.shape
    xt = np.swapaxes(x.data, 0, 1).reshape(S * B, d_in)
    return xt, _promoted(xt @ W + b, U).reshape(S, B, -1)


def _split_accumulate(tensors, g):
    """Accumulate equal blocks of ``g``'s last axis into ``tensors``, in order."""
    width = g.shape[-1] // len(tensors)
    for i, t in enumerate(tensors):
        if t.requires_grad:
            _accumulate(t, g[..., i * width:(i + 1) * width], alias=True)


def _recurrent_grads(x, xt, H, W, DA, DHP, ws, us, bs):
    """Weight, bias and input gradients from the per-step gate gradients.

    ``DA`` holds the gradients of the input-side pre-activations and ``DHP``
    those of ``h @ U``, both (S, B, k·d); ``H[:-1]`` are the states each step
    started from.
    """
    S, B, k = DA.shape
    da = DA.reshape(S * B, k)
    _split_accumulate(ws, xt.T @ da)
    _split_accumulate(us, H[:-1].reshape(S * B, -1).T @ DHP.reshape(S * B, k))
    _split_accumulate(bs, da.sum(axis=0))
    if x.requires_grad:
        _accumulate(x, np.swapaxes((da @ W.T).reshape(S, B, -1), 0, 1))


def gru(x, wr, wz, wn, ur, uz, un, br, bz, bn):
    """One GRU layer over a (B, S, d_in) input; returns all (B, S, d) states.

    From h = 0, each step computes r = sigmoid(x wr + h ur + br),
    z = sigmoid(x wz + h uz + bz), n = tanh(x wn + r * (h un) + bn) and
    h = z * h + (1 - z) * n.  Padded steps are not masked.  The whole layer
    is one graph node; its backward runs through time.
    """
    ws, us, bs = (wr, wz, wn), (ur, uz, un), (br, bz, bn)
    W, U, b = _recurrent_weights("gru", x, ws, us, bs)
    xt, XP = _input_projection(x, W, b, U)
    S, B, _ = XP.shape
    d = U.shape[0]
    H = np.zeros((S + 1, B, d), dtype=XP.dtype)
    HP = np.empty_like(XP)                           # h @ U per step
    RZ = np.empty((S, B, 2 * d), dtype=XP.dtype)     # gates r | z
    N = np.empty((S, B, d), dtype=XP.dtype)
    for t in range(S):
        hp = np.matmul(H[t], U, out=HP[t])
        rz = expit(np.add(XP[t, :, :2 * d], hp[:, :2 * d], out=RZ[t]), out=RZ[t])
        n = np.add(XP[t, :, 2 * d:], rz[:, :d] * hp[:, 2 * d:], out=N[t])
        np.tanh(n, out=n)
        z = rz[:, d:]
        H[t + 1] = z * H[t] + (1.0 - z) * n

    def backward(g):
        G = np.swapaxes(g, 0, 1)
        R, Z = RZ[..., :d], RZ[..., d:]
        dsig = RZ * (1.0 - RZ)
        dn_pre = (1.0 - Z) * (1.0 - N * N)          # d h_t / d(n's pre-activation)
        h_minus_n = H[:-1] - N
        UT = U.T
        DA = np.empty_like(HP)
        DHP = np.empty_like(HP)
        dh = np.zeros((B, d), dtype=H.dtype)
        for t in reversed(range(S)):
            dh = dh + G[t]
            da_n = np.multiply(dh, dn_pre[t], out=DA[t, :, 2 * d:])
            dhp = DHP[t]
            np.multiply(da_n, HP[t, :, 2 * d:], out=dhp[:, :d])
            np.multiply(dh, h_minus_n[t], out=dhp[:, d:2 * d])
            dhp[:, :2 * d] *= dsig[t]
            np.multiply(da_n, R[t], out=dhp[:, 2 * d:])
            dh = dh * Z[t] + dhp @ UT
        DA[..., :2 * d] = DHP[..., :2 * d]
        _recurrent_grads(x, xt, H, W, DA, DHP, ws, us, bs)

    return _result(np.swapaxes(H[1:], 0, 1), (x,) + ws + us + bs, backward)


def lstm(x, wi, wf, wg, wo, ui, uf, ug, uo, bi, bf, bg, bo):
    """One LSTM layer over a (B, S, d_in) input; returns all (B, S, d) states.

    From h = c = 0, each step computes the gates i, f, o = sigmoid(x w + h u
    + b) and g = tanh(x wg + h ug + bg), then c = f * c + i * g and
    h = o * tanh(c).  Padded steps are not masked.  The whole layer is one
    graph node; its backward runs through time.
    """
    # inside, the gates are ordered i, f, o, g so the sigmoids are one block
    ws, us, bs = (wi, wf, wo, wg), (ui, uf, uo, ug), (bi, bf, bo, bg)
    W, U, b = _recurrent_weights("lstm", x, ws, us, bs)
    xt, XP = _input_projection(x, W, b, U)
    S, B, _ = XP.shape
    d = U.shape[0]
    H = np.zeros((S + 1, B, d), dtype=XP.dtype)
    C = np.zeros((S + 1, B, d), dtype=XP.dtype)
    TC = np.empty((S, B, d), dtype=XP.dtype)         # tanh(c) per step
    GA = np.empty_like(XP)                           # gate activations i | f | o | g
    for t in range(S):
        a = np.add(XP[t], H[t] @ U, out=GA[t])
        expit(a[:, :3 * d], out=a[:, :3 * d])
        np.tanh(a[:, 3 * d:], out=a[:, 3 * d:])
        C[t + 1] = a[:, d:2 * d] * C[t] + a[:, :d] * a[:, 3 * d:]
        np.multiply(a[:, 2 * d:3 * d], np.tanh(C[t + 1], out=TC[t]), out=H[t + 1])

    def backward(g):
        G = np.swapaxes(g, 0, 1)
        sig = GA[..., :3 * d]
        dact = np.concatenate([sig * (1.0 - sig), 1.0 - GA[..., 3 * d:] ** 2], axis=-1)
        dc_dh = GA[..., 2 * d:3 * d] * (1.0 - TC * TC)
        UT = U.T
        DA = np.empty_like(GA)
        dh = np.zeros((B, d), dtype=H.dtype)
        dc = np.zeros((B, d), dtype=H.dtype)
        for t in reversed(range(S)):
            dh = dh + G[t]
            dc = dc + dh * dc_dh[t]
            ga, da = GA[t], DA[t]
            np.multiply(dc, ga[:, 3 * d:], out=da[:, :d])
            np.multiply(dc, C[t], out=da[:, d:2 * d])
            np.multiply(dh, TC[t], out=da[:, 2 * d:3 * d])
            np.multiply(dc, ga[:, :d], out=da[:, 3 * d:])
            da *= dact[t]
            dc = dc * ga[:, d:2 * d]
            dh = da @ UT
        _recurrent_grads(x, xt, H, W, DA, DA, ws, us, bs)

    return _result(np.swapaxes(H[1:], 0, 1), (x,) + ws + us + bs, backward)


# ---------------------------------------------------------------------------
# gradient verification


def grad_check(fn, x, eps=1e-5):
    """Compare analytic gradients of a scalar-valued ``fn`` against central differences.

    Returns the max over elements of |a - n| / max(|a|, |n|, 1e-8).  ``fn``
    must rebuild its graph on every call (it is re-evaluated 2 * x.size times).

    The check runs in float64 whatever ``x``'s dtype, so an eps step is not
    lost to float32 rounding: ``x`` holds a float64 copy of its array while
    ``fn`` runs, and on return holds its own array object again, untouched,
    with the analytic gradient in ``x.grad`` cast to its dtype.
    """
    if eps <= 0:
        raise ValueError("grad_check eps must be positive")
    data = x.data
    x.data = data.astype(np.float64)
    x.requires_grad = True
    x.zero_grad()
    try:
        out = fn(x)
        out.backward()
        analytic = x.grad.copy()

        flat = x.data.reshape(-1)
        numeric = np.zeros(flat.size, dtype=np.float64)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(fn(x).data)
            flat[i] = orig - eps
            fm = float(fn(x).data)
            flat[i] = orig
            numeric[i] = (fp - fm) / (2.0 * eps)
    finally:
        x.data = data
        if x.grad is not None:
            x.grad = x.grad.astype(data.dtype, copy=False)
    numeric = numeric.reshape(data.shape)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
