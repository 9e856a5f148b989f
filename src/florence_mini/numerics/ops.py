"""Differentiable primitives over Tensor: the ops the two towers, the
probe and the losses run, and no others.

Each op computes its forward value and wraps it through one of two
helpers: ``_result`` snaps the value to the binary16 grid in half-emulated
mode, ``_record`` never does. Ops that compute values use ``_result``;
ops that only move values (``transpose``, ``embedding``) and the three
numerically fragile normalizations (layer norm, softmax, L2
normalization) use ``_record``, and so do ``linear``, ``conv`` and the
fused sublayers ``attention`` and ``mlp``, which snap inside, wherever
the ops they fuse snapped. When recording, a TapeNode is attached whose
backward rule returns one gradient per input. Arrays needed by a backward
rule are passed through the node's ``saved`` tuple, never captured in
closures, and no closure holds an input Tensor, so the activation meter
sees every retained scalar and the tape keeps no forward value a rule did
not save. The meter does not see a backward rule's temporaries, so the
rules that make large ones (``attention`` and ``mlp``) free each at its
last use and update fresh ones in place, without changing a byte of their
results.

The fused ops replaced compositions of smaller ops (``matmul``, ``gelu``,
``unfold``, ``reshape``) that no program path runs any more. Those live
with the tests as primitives, built on the private kernels defined here
(``_unfolding``, the gelu helpers), and each fused op must equal its
composition byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from .precision import current_snap
from .tensor import Tensor
from .tensor import record as _record

_GELU_K0 = math.sqrt(2.0 / math.pi)
_GELU_K1 = 0.044715
# scalars per row tile of ``mlp``'s gelu chain: 256 KiB of float64, so a
# tile and its few temporaries stay in a core's L2
_GELU_TILE = 1 << 15


def _check_same_dtype(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.dtype != b.data.dtype:
        raise TypeError(f"dtype mismatch in {op}: {a.data.dtype} vs {b.data.dtype}")


def _result(op: str, out: np.ndarray, inputs, saved, backward_fn) -> Tensor:
    """Record an output that snaps to the binary16 grid in half-emulated mode."""
    return _record(op, current_snap()(out), inputs, saved, backward_fn)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b, "add")
    sa, sb = a.shape, b.shape

    def backward(g, saved):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _result("add", a.data + b.data, (a, b), (), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b, "mul")
    sa, sb = a.shape, b.shape

    def backward(g, saved):
        av, bv = saved
        return _unbroadcast(g * bv, sa), _unbroadcast(g * av, sb)

    return _result("mul", a.data * b.data, (a, b), (a.data, b.data), backward)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a Python scalar, preserving dtype in both directions."""
    c = a.data.dtype.type(c)

    def backward(g, saved):
        return (g * c,)

    return _result("scale", a.data * c, (a,), (), backward)


def log(a: Tensor) -> Tensor:
    def backward(g, saved):
        (x,) = saved
        return (g / x,)

    return _result("log", np.log(a.data), (a,), (a.data,), backward)


# gelu's kernels, which ``mlp`` runs in row tiles
def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(K0 * (x + K1 * x³)), computed in one fresh array."""
    t = x * x
    t *= x
    t *= _GELU_K1
    np.add(x, t, out=t)
    t *= _GELU_K0
    np.tanh(t, out=t)
    return t


def _gelu_value(x: np.ndarray, tp1: np.ndarray) -> np.ndarray:
    """(x * 0.5) * (t + 1) from ``tp1`` = t + 1, before any snap."""
    out = x * 0.5
    out *= tp1
    return out


def _gelu_tanh_term(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """0.5 * x * (1 - t * t) * K0 * (1 + 3 * K1 * x * x), the tanh's part of
    gelu's slope, built in ``t``'s buffer, which it overwrites."""
    np.multiply(t, t, out=t)
    np.subtract(1.0, t, out=t)
    np.multiply(x * 0.5, t, out=t)
    inner = x * (3.0 * _GELU_K1)
    inner *= x
    inner += 1.0
    inner *= _GELU_K0
    t *= inner
    return t


# ---------------------------------------------------------------------------
# shape: transpose moves values without producing any, so it never snaps
# ---------------------------------------------------------------------------


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def backward(g, saved):
        return (g.transpose(inv),)

    return _record("transpose", a.data.transpose(axes), (a,), (), backward)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def tensor_sum(a: Tensor, axis=None) -> Tensor:
    shape = a.shape
    norm_axis = axis if axis is None else (tuple(axis) if isinstance(axis, (tuple, list)) else (axis,))

    def backward(g, saved):
        if norm_axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, norm_axis), shape).copy(),)

    return _result("sum", a.data.sum(axis=norm_axis), (a,), (), backward)


def mean(a: Tensor, axis=None) -> Tensor:
    shape = a.shape
    if axis is None:
        n = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        n = 1
        for ax in axes:
            n *= shape[ax]
    return scale(tensor_sum(a, axis=axis), 1.0 / n)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def _dense(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, snap) -> np.ndarray:
    """``linear``'s value: the product snaps under ``snap`` (the forward's
    ``current_snap()``), then the bias sum, added in place, snaps again."""
    cin, cout = w.shape
    if x.size == cin:
        # numpy hands a one-row product to BLAS gemv, whose sums can differ
        # from gemm's in the last bit; a duplicated row stays on gemm, so no
        # row's output depends on how many rows share its forward
        pair = np.repeat(x.reshape(1, cin), 2, axis=0)
        out = np.matmul(pair, w)[0].reshape(x.shape[:-1] + (cout,))
    else:
        out = np.matmul(x, w)
    out = snap(out)
    if b is not None:
        out += b
        out = snap(out)
    return out


def _dense_input_grad(g2: np.ndarray, w: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``linear``'s gradient with respect to an input of ``shape``, from
    the output gradient flattened to (-1, Cout)."""
    return (g2 @ w.T).reshape(shape)


def _dense_grads(
    g: np.ndarray, x: np.ndarray, w: np.ndarray, bias: bool, input_grad: bool = True
) -> tuple[np.ndarray | None, ...]:
    """``linear``'s input (None unless ``input_grad``), weight and (when
    ``bias``) bias gradients."""
    cin, cout = w.shape
    g2 = g.reshape(-1, cout)
    grads = (_dense_input_grad(g2, w, x.shape) if input_grad else None, x.reshape(-1, cin).T @ g2)
    return grads + (g2.sum(axis=0),) if bias else grads


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Dense layer x (..., Cin) @ w (Cin, Cout), plus b (Cout,) when given.

    The backward flattens x and the output gradient to (-1, C), so the
    input and weight gradients are one GEMM each and the bias gradient one
    column sum, at any rank of x. The forward keeps numpy's stacked matmul,
    which runs faster than one flattened GEMM for these narrow layers. The
    product and the bias sum each snap, as the matmul and add this op fuses
    did. An input that is off the tape (the patch embed's pixels, a
    probe's frozen features) gets no input gradient, so its GEMM is skipped.
    """
    _check_same_dtype(x, w, "linear")
    if w.data.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ValueError(f"linear needs w ({x.shape[-1]}, Cout) for x {x.shape}, got w {w.shape}")
    inputs = (x, w)
    if b is not None:
        _check_same_dtype(x, b, "linear")
        if b.shape != (w.shape[1],):
            raise ValueError(f"linear bias must have shape ({w.shape[1]},), got {b.shape}")
        inputs = (x, w, b)

    x_live, has_bias = x.requires_grad or x.node is not None, b is not None

    def backward(g, saved):
        return _dense_grads(g, *saved, has_bias, input_grad=x_live)

    out = _dense(x.data, w.data, None if b is None else b.data, current_snap())
    return _record("linear", out, inputs, (x.data, w.data), backward)


# ---------------------------------------------------------------------------
# normalization / softmax: numerically fragile, so they never snap
# ---------------------------------------------------------------------------


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)`` from elementwise ``np.maximum``
    calls: halvings of the last axis (an odd row folds its last entry into
    the first), or one column at a time for rows narrower than 8.

    numpy's reduce costs more per element over short rows than the whole
    rest of a softmax. A maximum is exact in any order, so the values are
    the reduce's, with NaN in the same places; only the sign of a zero tied
    with a zero of the other sign can differ, and ``x - m`` followed by
    ``exp`` cannot see it. Rows of length 1 return ``x`` itself. A column
    slice is one strided pass, where a halving's 2-wide slices pay numpy's
    per-row cost again (3x the time at 5 columns).
    """
    m, n = x, x.shape[-1]
    if 1 < n < 8:
        m = np.maximum(x[..., :1], x[..., 1:2])
        for j in range(2, n):
            np.maximum(m, x[..., j : j + 1], out=m)
        return m
    while n > 1:
        h = n // 2
        half = np.maximum(m[..., :h], m[..., h : 2 * h])
        if n % 2:
            np.maximum(half[..., :1], m[..., 2 * h :], out=half[..., :1])
        m, n = half, h
    return m


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """exp(x - max) / sum over the last axis, in one fresh array.

    Below 8 terms numpy sums a contiguous row in sequence, first to last, so
    there the denominator is a running sum over column slices, which skips
    the reduce's per-row cost (the few-shot heads' rows are 5 classes wide)
    and keeps its bytes. From 8 terms on numpy sums in 8 interleaved lanes,
    so wider rows keep the reduce.
    """
    e = x - _row_max(x)
    np.exp(e, out=e)
    n = x.shape[-1]
    if n < 8:
        total = e[..., :1].copy()
        for j in range(1, n):
            total += e[..., j : j + 1]
    else:
        total = e.sum(axis=-1, keepdims=True)
    e /= total
    return e


def softmax(a: Tensor) -> Tensor:
    """Row-stabilized softmax over the last axis.

    The max subtraction and denominator accumulation run at the tensor's
    full storage precision, and the output never snaps to the binary16
    grid.
    """
    out = _softmax_rows(a.data)

    def backward(g, saved):
        (y,) = saved
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return _record("softmax", out, (a,), (out,), backward)


def _ln_affine(xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """xhat * gamma + beta, into ``out`` when given."""
    out = np.multiply(xhat, gamma, out=out)
    out += beta
    return out


def _ln_forward(xv: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """Layer norm over the last axis, eps 1e-5: (output, xhat, inv_std).

    The centred input is computed once and scaled in place into ``xhat``;
    the squares' buffer takes the affine output.
    """
    xhat = xv - xv.mean(axis=-1, keepdims=True)
    out = xhat * xhat
    inv_std = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + 1e-5)
    xhat *= inv_std
    return _ln_affine(xhat, gamma, beta, out), xhat, inv_std


def _ln_grads(g: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray, gamma: np.ndarray):
    """Layer norm's input, gamma and beta gradients.

    dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = g * gamma
    """
    dx = g * gamma
    t = dx * xhat
    m_xh = t.mean(axis=-1, keepdims=True)
    dx -= dx.mean(axis=-1, keepdims=True)
    np.multiply(xhat, m_xh, out=t)
    dx -= t
    dx *= inv_std
    lead = tuple(range(g.ndim - 1))
    return dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis; affine parameters broadcast from 1-D.

    Both directions update only temporaries of their own in place; no
    input, saved array or incoming gradient is written.
    """
    _check_same_dtype(x, gamma, "layer_norm")
    _check_same_dtype(x, beta, "layer_norm")
    out, xhat, inv_std = _ln_forward(x.data, gamma.data, beta.data)

    def backward(g, saved):
        return _ln_grads(g, *saved)

    return _record("layer_norm", out, (x, gamma, beta), (xhat, inv_std, gamma.data), backward)


def l2_normalize(a: Tensor) -> Tensor:
    """Scale rows (last axis) to unit Euclidean norm; 1e-12 is added to the
    squared norm."""
    x = a.data
    n = np.sqrt((x * x).sum(axis=-1, keepdims=True) + 1e-12)
    out = x / n

    def backward(g, saved):
        y, nv = saved
        return ((g - y * (g * y).sum(axis=-1, keepdims=True)) / nv,)

    return _record("l2_normalize", out, (a,), (out, n), backward)


# ---------------------------------------------------------------------------
# transformer sublayers: one tape node for each pre-norm residual branch
# ---------------------------------------------------------------------------


def _partition(a: np.ndarray, window: int | None) -> np.ndarray:
    """(..., H, W, C) -> (N*nWin, window*window, C) for non-overlapping
    windows, N being the product of the leading axes; ``a`` itself when
    ``window`` is None."""
    if window is None:
        return a
    h, w, c = a.shape[-3:]
    t = a.reshape(-1, h // window, window, w // window, window, c).transpose(0, 1, 3, 2, 4, 5)
    return t.reshape(-1, window * window, c)


def _merge(a: np.ndarray, window: int | None, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of ``_partition`` back to the map ``shape`` (..., H, W, C)."""
    if window is None:
        return a
    h, w, c = shape[-3:]
    t = a.reshape(-1, h // window, w // window, window, window, c).transpose(0, 1, 3, 2, 4, 5)
    return t.reshape(shape)


def _merged_heads(a: np.ndarray, b: np.ndarray, split: tuple[int, int, int, int]) -> np.ndarray:
    """``a @ b`` over (windows, heads) stacks, written straight into a fresh
    (windows, tokens, C) array with heads merged, as
    ``transpose(0, 2, 1, 3).reshape`` would merge them, without that copy.
    Each head's product is the same GEMM with a wider output stride, so its
    bytes are the copy's."""
    bsz, n, heads, dh = split
    out = np.empty((bsz, n, heads * dh), dtype=np.result_type(a, b))
    np.matmul(a, b, out=out.reshape(split).transpose(0, 2, 1, 3))
    return out


def attention(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    wq: Tensor,
    bq: Tensor,
    wk: Tensor,
    wv: Tensor,
    bv: Tensor,
    wo: Tensor,
    bo: Tensor,
    bias: Tensor,
    heads: int,
    window: int | None = None,
) -> Tensor:
    """Pre-norm multi-head self-attention, one tape node.

    ``x`` is a (B, N, C) token stack when ``window`` is None, or an
    (..., H, W, C) map whose tokens attend within non-overlapping
    window x window windows. ``bias`` broadcasts onto the (windows, heads,
    N, N) scores before the softmax. The forward runs the composition this
    op replaces, in its order: ``layer_norm`` with ``gamma`` and ``beta``,
    the window partition (two reshapes and a transpose), ``linear`` q, k
    and v, a head split, ``matmul(q, kᵀ)``, a scale by 1/√dh, the bias sum,
    ``softmax``, ``matmul`` with v, a head merge, ``linear`` o and the
    window merge. It snaps where those ops snapped (never the norm or the
    softmax), and its backward replays their backward rules in the order
    the tape ran them, so values and gradients are byte-equal to the
    composition. It saves the normalized input ``xhat`` and the
    probabilities once each, with the weights and the q and v biases. k is
    projected with no bias: a key bias b adds q · b to every score of a
    query row, a shift the softmax cancels. Its backward builds the
    layer-norm output's window partition once, and from it rebuilds v, k
    and q one at a time, each freed at its last use (v for the merged heads
    and the probabilities' gradient, k for q's gradient, q for k's), with
    the forward's own operations under the forward's precision mode; the
    three weight gradients read the same partition. The backward's transient peak comes at its end, where the
    partition is live for those gradients anyway, so building it once costs
    no memory. The rebuilds repeat three dense-layer products per block; on
    the 32 px gradient-cache benchmark they cut the peak of saved scalars
    by 29% for 4% more time per step. The four products whose heads merge
    back to (windows, tokens, C), the forward's probabilities @ v, the
    backward's rebuild of it, and v's and q's gradients, write straight
    into that layout (``_merged_heads``), and a snap runs after its write;
    the snap is elementwise, so no strided merge copy is made and no byte
    moves. A bias off the tape (the text PAD mask) gets no gradient.
    Nothing it is given or has saved is written.
    """
    for t in (gamma, beta, wq, bq, wk, wv, bv, wo, bo, bias):
        _check_same_dtype(x, t, "attention")
    c = x.shape[-1]
    if c % heads:
        raise ValueError(f"attention width {c} not divisible by {heads} heads")
    if window is not None and (x.shape[-3] % window or x.shape[-2] % window):
        raise ValueError(f"spatial extent {x.shape[-3]}x{x.shape[-2]} not divisible by window {window}")
    snap = current_snap()
    normed, xhat, inv_std = _ln_forward(x.data, gamma.data, beta.data)
    xw = _partition(normed, window)
    del normed
    bsz, n, _ = xw.shape
    split = (bsz, n, heads, c // heads)
    c_scale = x.data.dtype.type(1.0 / np.sqrt(c // heads))
    q, k, v = (_dense(xw, w.data, b, snap) for w, b in ((wq, bq.data), (wk, None), (wv, bv.data)))
    del xw
    q4, k4, v4 = (t.reshape(split).transpose(0, 2, 1, 3) for t in (q, k, v))
    scores = snap(np.matmul(q4, k4.transpose(0, 1, 3, 2)))
    scores *= c_scale
    scores = snap(scores)
    scores += bias.data
    probs = _softmax_rows(snap(scores))
    del scores, q4, k4, q, k
    ctx = snap(_merged_heads(probs, v4, split))
    out = _merge(_dense(ctx, wo.data, bo.data, snap), window, x.shape)
    bias_shape, bias_live = bias.shape, bias.requires_grad or bias.node is not None

    def backward(g, saved):
        xh, istd, gam, bet, wqv, bqv, wkv, wvv, bvv, wov, p = saved

        # the normed partition every rebuild and weight gradient reads,
        # built once: the transient peak comes at the end, where it is live
        xv = _partition(_ln_affine(xh, gam, bet), window)

        def heads(w, b):
            # one projection as the forward computed it, freed at its last use
            return _dense(xv, w, b, snap).reshape(split).transpose(0, 2, 1, 3)

        v4 = heads(wvv, bvv)
        ctx_v = snap(_merged_heads(p, v4, split))
        d_ctx, dwo, dbo = _dense_grads(_partition(g, window), ctx_v, wov, True)
        del ctx_v
        d_ctx = d_ctx.reshape(split).transpose(0, 2, 1, 3)
        d_p = np.matmul(d_ctx, v4.swapaxes(-1, -2))
        del v4
        dv = _merged_heads(p.swapaxes(-1, -2), d_ctx, split)
        del d_ctx
        # softmax's backward, in d_p's buffer
        d_p -= (d_p * p).sum(axis=-1, keepdims=True)
        d_scores = np.multiply(p, d_p, out=d_p)
        del d_p
        d_bias = _unbroadcast(d_scores, bias_shape) if bias_live else None
        if d_bias is d_scores:  # a bias of the scores' own shape, whose gradient is unscaled
            d_scores = d_scores * c_scale
        else:
            d_scores *= c_scale
        dq = _merged_heads(d_scores, heads(wkv, None), split)
        dk4 = np.matmul(heads(wqv, bqv).swapaxes(-1, -2), d_scores).transpose(0, 1, 3, 2)
        del d_scores
        dxv, dwv, dbv = _dense_grads(dv, xv, wvv, True)
        del dv
        dxk, dwk = _dense_grads(dk4.transpose(0, 2, 1, 3).reshape(xv.shape), xv, wkv, False)
        del dk4
        # the tape ran v's linear first, then k's, then q's: (dxv + dxk) + dxq
        dxv += dxk
        del dxk
        dxq, dwq, dbq = _dense_grads(dq, xv, wqv, True)
        del dq, xv
        dxv += dxq
        del dxq
        dn = _merge(dxv, window, xh.shape)
        del dxv
        dx, dgamma, dbeta = _ln_grads(dn, xh, istd, gam)
        return dx, dgamma, dbeta, dwq, dbq, dwk, dwv, dbv, dwo, dbo, d_bias

    saved = (xhat, inv_std, gamma.data, beta.data, wq.data, bq.data, wk.data, wv.data, bv.data, wo.data, probs)
    inputs = (x, gamma, beta, wq, bq, wk, wv, bv, wo, bo, bias)
    return _record("attention", out, inputs, saved, backward)


def _gelu_slope_and_value(h: np.ndarray, snap) -> tuple[np.ndarray, np.ndarray]:
    """gelu's slope at ``h``, 0.5 * (1 + t) plus ``_gelu_tanh_term``, and
    its value under ``snap``. t + 1 serves both; the slope is built in the
    tanh's buffer."""
    t = _gelu_tanh(h)
    tp1 = t + 1.0
    slope = _gelu_tanh_term(h, t)
    value = snap(_gelu_value(h, tp1))
    tp1 *= 0.5
    slope += tp1
    return slope, value


def _row_tiles(rows: np.ndarray) -> list[slice]:
    """Slices of ``rows`` (-1, C) covering about ``_GELU_TILE`` scalars
    each, at least one row; an array that fits is one tile."""
    step = max(1, _GELU_TILE // rows.shape[1])
    return [slice(i, i + step) for i in range(0, len(rows), step)]


def mlp(x: Tensor, gamma: Tensor, beta: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Pre-norm MLP, one tape node: ``layer_norm``, ``linear``, ``gelu``,
    ``linear``, computed and snapped as those ops are.

    It saves the normalized input ``xhat`` and the pre-gelu ``h``, and its
    backward rebuilds the layer norm's output, the tanh and the gelu output
    from them with the forward's own operations (under the forward's
    precision mode), so values and gradients are byte-equal to the
    composition. Both directions run the gelu chain in row tiles of about
    ``_GELU_TILE`` scalars, each tile's passes in L2 where the whole array's
    would stream from further out: at the 64 px benchmark's first stage ``h``
    is 64 x 256 x 64 float64 scalars (8 MiB), and on a core with 2 MiB of
    L2 the forward's gelu fell from 5.8 to 3.1 ms and the backward's slope
    and gelu value from 10.7 to 6.7 ms. Each tile runs the whole array's
    operations in their order, so every element's bytes are unchanged.
    Nothing it is given or has saved is written.
    """
    for t in (gamma, beta, w1, b1, w2, b2):
        _check_same_dtype(x, t, "mlp")
    snap = current_snap()
    normed, xhat, inv_std = _ln_forward(x.data, gamma.data, beta.data)
    h = _dense(normed, w1.data, b1.data, snap)
    del normed
    rows = h.reshape(-1, h.shape[-1])
    act = np.empty_like(rows)
    for s in _row_tiles(rows):
        act[s] = snap(_gelu_value(rows[s], _gelu_tanh(rows[s]) + 1.0))
    out = _dense(act.reshape(h.shape), w2.data, b2.data, snap)

    def backward(g, saved):
        xh, istd, gam, bet, hv, w1v, w2v = saved
        rows = hv.reshape(-1, hv.shape[-1])
        # only the gelu's slope and its value are live at the second
        # linear's weight product
        dh, a = np.empty_like(rows), np.empty_like(rows)
        for s in _row_tiles(rows):
            dh[s], a[s] = _gelu_slope_and_value(rows[s], snap)
        dh, a = dh.reshape(hv.shape), a.reshape(hv.shape)
        # the second linear's weight gradient first, so the gelu value is
        # freed before its input gradient is formed: two hidden-width
        # buffers are live at the peak, not three
        g2 = g.reshape(-1, g.shape[-1])
        _, dw2, db2 = _dense_grads(g2, a, w2v, True, input_grad=False)
        del a
        dh *= _dense_input_grad(g2, w2v, hv.shape)
        del g2
        dn, dw1, db1 = _dense_grads(dh, _ln_affine(xh, gam, bet), w1v, True)
        del dh
        dx, dgamma, dbeta = _ln_grads(dn, xh, istd, gam)
        return dx, dgamma, dbeta, dw1, db1, dw2, db2

    saved = (xhat, inv_std, gamma.data, beta.data, h, w1.data, w2.data)
    return _record("mlp", out, (x, gamma, beta, w1, b1, w2, b2), saved, backward)


# ---------------------------------------------------------------------------
# gather: like transpose, embedding only moves values, so it never snaps
# ---------------------------------------------------------------------------


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather: out[..., :] = table[ids[...]]; scatter-add backward."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise TypeError("embedding ids must be integers")
    tshape = table.shape

    def backward(g, saved):
        (idx,) = saved
        gt = np.zeros(tshape, dtype=g.dtype)
        np.add.at(gt, idx.reshape(-1), g.reshape(-1, tshape[-1]))
        return (gt,)

    return _record("embedding", table.data[ids], (table,), (ids,), backward)


# ---------------------------------------------------------------------------
# convolution: conv snaps inside, as the linear it fuses did, and never
# where it only unfolds
# ---------------------------------------------------------------------------


def _unfolding(shape: tuple[int, ...], kernel, stride):
    """An unfold's two directions for an input of ``shape`` (B, *S, C):
    ``to_cols(x)`` builds the patches (B, *So, prod(kernel)*C) in a fresh
    array, and ``fold(g)`` sums a patch gradient back to ``shape``.

    Patch slots run row-major over kernel offsets, channel innermost. When
    the patches tile the input exactly (``kernel == stride`` and every
    extent divides), as in the patch embed, the merges and a kt = 1 video
    tower, both directions are one blocked reshape and transpose. Otherwise
    (the overlapping temporal merges of kt >= 2 towers) each kernel offset
    is one strided slice, and the fold scatter-adds them into zeros.
    Neither function keeps an array: each holds only shapes and slices.
    """
    kernel, stride = tuple(kernel), tuple(stride)
    extents = shape[1:-1]
    if not len(kernel) == len(stride) == len(extents):
        raise ValueError(
            f"kernel {kernel} and stride {stride} must match the input's {len(extents)} middle axes"
        )
    out = tuple((n - k) // s + 1 for n, k, s in zip(extents, kernel, stride))
    if min(out) < 1:
        raise ValueError(f"kernel {kernel} larger than input {extents}")
    c = shape[-1]
    cols_shape = (shape[0], *out, math.prod(kernel) * c)
    if kernel == stride and all(n % k == 0 for n, k in zip(extents, kernel)):
        # (B, o1, k1, o2, k2, ..., C) <-> (B, o1, o2, ..., k1, k2, ..., C)
        d = len(kernel)
        blocked = (shape[0], *(m for pair in zip(out, kernel) for m in pair), c)
        perm = (0, *range(1, 2 * d, 2), *range(2, 2 * d + 1, 2), 2 * d + 1)
        patches = (shape[0], *out, *kernel, c)

        def to_cols(x):
            cols = np.empty(cols_shape, dtype=x.dtype)
            cols.reshape(patches)[...] = x.reshape(blocked).transpose(perm)
            return cols

        def fold(g):
            gx = np.empty(shape, dtype=g.dtype)
            # + 0.0 turns a -0.0 gradient into +0.0, as a sum into zeros does
            np.add(g.reshape(patches).transpose(np.argsort(perm)), 0.0, out=gx.reshape(blocked))
            return gx

        return to_cols, fold

    views = [
        (slice(None),) + tuple(slice(o, o + s * n, s) for o, s, n in zip(offset, stride, out))
        for offset in np.ndindex(*kernel)
    ]

    def to_cols(x):
        cols = np.empty(cols_shape, dtype=x.dtype)
        for slot, view in enumerate(views):
            cols[..., slot * c : (slot + 1) * c] = x[view]
        return cols

    def fold(g):
        gx = np.zeros(shape, dtype=g.dtype)
        for slot, view in enumerate(views):
            gx[view] += g[..., slot * c : (slot + 1) * c]
        return gx

    return to_cols, fold


def conv(x: Tensor, w: Tensor, b: Tensor, stride) -> Tensor:
    """Strided convolution over the middle axes of x (B, *S, C);
    w (*kernel, C, Cout), b (Cout,). One tape node.

    Its value and gradients are byte-equal to an unfold (``_unfolding``'s
    patches), a reshape of w to (prod(kernel)*C, Cout) and ``linear``, the
    composition it replaces. It saves
    ``x`` and ``w`` as they are, not the unfolded columns: where the kernel
    tiles its input the columns hold the same scalars permuted (at the patch
    embed, a copy of pixels the caller holds anyway), and where kernels
    overlap (a kt >= 2 clip's temporal merges) they hold more. The backward
    rebuilds the columns from ``x`` for the weight gradient and folds the
    columns' gradient back to ``x``; an input off the tape (the patch
    embed's pixels) gets no input gradient.
    """
    *kernel, cin, cout = w.shape
    if x.shape[-1] != cin:
        raise ValueError(f"conv channel mismatch: input {x.shape[-1]}, kernel {cin}")
    for t in (w, b):
        _check_same_dtype(x, t, "conv")
    if b.shape != (cout,):
        raise ValueError(f"conv bias must have shape ({cout},), got {b.shape}")
    to_cols, fold = _unfolding(x.shape, kernel, stride)
    flat = (math.prod(kernel) * cin, cout)
    x_live = x.requires_grad or x.node is not None

    def backward(g, saved):
        xv, wv = saved
        dcols, dw, db = _dense_grads(g, to_cols(xv), wv.reshape(flat), True, input_grad=x_live)
        return (fold(dcols) if x_live else None), dw.reshape(wv.shape), db

    out = _dense(to_cols(x.data), w.data.reshape(flat), b.data, current_snap())
    return _record("conv", out, (x, w, b), (x.data, w.data), backward)
