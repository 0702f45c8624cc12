"""Float64 tensors with taped reverse-mode differentiation.

Execution is eager. While a ``Tape`` is active, every differentiable operation
appends one record; because records are appended in execution order they are
already topologically sorted, so ``backward`` performs a single reverse sweep
and accumulates gradients additively into shared inputs. A record holds no
tensor of the graph: per input it keeps only a gradient route (the record
that produced the input, or the input itself when it is a leaf that needs a
gradient) and the input's shape, plus its backward rule and a slot for its
output's gradient. Each rule captures at forward time the arrays it reads,
so an intermediate array lives only while the forward code or a rule holds
it. A tape is swept once: the sweep drops each record's output gradient as
soon as the record has consumed it, and when it ends it clears every
record's routes and rule and empties the tape, so only leaf gradients
outlive it. With no active tape the same operations run as plain numpy math,
which is how inference mode works: an untaped op builds no backward rule and
no record, only the output tensor.

``branches`` runs independent pieces of a forward pass concurrently. Each
records onto a sub-tape of its own, and the caller's tape gets one fork
record that the sweep follows into the sub-tapes.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .cpus import BUDGET
from .errors import ConfigError, NumericError, ShapeError

Array = np.ndarray

_new_tensor = object.__new__


class _TapeStack(threading.local):
    def __init__(self) -> None:
        self.stack: list[Tape] = []


_TAPES = _TapeStack()


class Tape:
    """Execution-ordered log of differentiable operations.

    The active-tape stack is thread-local so concurrent workers can train
    independent models without interleaving each other's records.
    """

    def __init__(self) -> None:
        self.records: list[_Record] = []

    def __enter__(self) -> "Tape":
        _TAPES.stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPES.stack.pop()


class _Record:
    """One taped op, holding no tensor of the graph.

    ``routes`` has one entry per input: the record that produced it, the
    input itself when it is a leaf that needs a gradient, or ``None``.
    ``shapes`` are the inputs' shapes, ``backward`` is the rule that maps
    the output's gradient to one gradient (or ``None``) per input, and
    ``grad`` accumulates the output's gradient during the sweep.
    """

    __slots__ = ("routes", "shapes", "backward", "grad")

    def __init__(self, routes: tuple, shapes: tuple, backward: Callable) -> None:
        self.routes = routes
        self.shapes = shapes
        self.backward = backward
        self.grad: Array | None = None


class _Fork(_Record):
    """The record of one ``branches`` call on the caller's tape: the
    branches' sub-tapes, in call order, and whether their sweeps may go to
    helper threads. It has no inputs, rule or gradient of its own."""

    __slots__ = ("tapes", "spread")

    def __init__(self, tapes: list, spread: bool) -> None:
        super().__init__((), (), None)
        self.tapes = tapes
        self.spread = spread


def _recording(*inputs: "Tensor") -> bool:
    """Whether a tape is active and some input needs a gradient."""
    if _TAPES.stack:
        for t in inputs:
            if t.requires_grad:
                return True
    return False


class Tensor:
    """A dense float64 array plus an accumulated-gradient slot. A taped
    op's output points to its record through ``producer``; a leaf has
    none."""

    __slots__ = ("data", "requires_grad", "grad", "producer")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self.producer: _Record | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)


def _make(data) -> Tensor:
    """Wrap an op result as an untracked tensor, without a copy or a dtype
    cast: the result is float64 because every operand is. Numpy returns
    scalars from full reductions and 0-d arithmetic; those become 0-d
    arrays."""
    out = _new_tensor(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data, dtype=np.float64)
    out.requires_grad = False
    out.grad = None
    out.producer = None
    return out


def _record(inputs: tuple[Tensor, ...], output: Tensor, backward) -> None:
    """Mark ``output`` as needing a gradient, point it to a new record of
    ``backward`` and append that record to the active tape. The record
    keeps each input's gradient route and shape, not the input: ``backward``
    must capture at forward time whatever it reads, and never a non-leaf
    tensor."""
    routes = tuple([t.producer if t.producer is not None
                    else (t if t.requires_grad else None) for t in inputs])
    rec = _Record(routes, tuple([t.data.shape for t in inputs]), backward)
    output.requires_grad = True
    output.producer = rec
    _TAPES.stack[-1].records.append(rec)


class Parameter(Tensor):
    """A trainable leaf tensor. ``init`` tags the initialisation
    policy and ``fan`` overrides the fan-in that it scales by."""

    __slots__ = ("init", "fan")

    def __init__(self, data, init: str = "fanin_uniform", fan: int | None = None) -> None:
        super().__init__(data, requires_grad=True)
        self.init = init
        self.fan = fan


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting, gradients unbroadcast back)
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _make(a.data + b.data)
    if _recording(a, b):
        sa, sb = a.data.shape, b.data.shape
        _record((a, b), out, lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    out = _make(ad * bd)
    if _recording(a, b):
        _record((a, b), out, lambda g: (_unbroadcast(g * bd, ad.shape),
                                        _unbroadcast(g * ad, bd.shape)))
    return out


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    out = _make(ad / bd)
    if _recording(a, b):
        _record((a, b), out, lambda g: (
            _unbroadcast(g / bd, ad.shape),
            _unbroadcast(-g * ad / (bd * bd), bd.shape),
        ))
    return out


# ---------------------------------------------------------------------------
# linear algebra and convolution
# ---------------------------------------------------------------------------

def linear(x, w, b) -> Tensor:
    """``x @ w + b`` over the last axis of ``x`` (any leading shape), one record.

    ``w`` is ``[in, out]`` and ``b`` is ``[out]``.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    xd, wd, bd = x.data, w.data, b.data
    if wd.ndim != 2 or xd.shape[-1:] != wd.shape[:1] or bd.shape != wd.shape[1:]:
        raise ShapeError(f"linear shapes do not fit: {xd.shape} @ {wd.shape} + {bd.shape}")
    flat = xd.ndim != 2
    x2 = xd.reshape(-1, wd.shape[0]) if flat else xd
    # ndarray.dot: the same GEMM as @ with a third of its call overhead; the
    # bias is added in place, so no second [rows, out] array is allocated
    y = x2.dot(wd)
    y += bd
    out = _make(y.reshape(xd.shape[:-1] + wd.shape[1:]) if flat else y)
    if _recording(x, w, b):
        input_grad = x.requires_grad  # a raw-data input needs none

        def backward(g: Array):
            g2 = g.reshape(-1, wd.shape[1]) if flat else g
            gx = (g2 @ wd.T).reshape(xd.shape) if input_grad else None
            return (gx, x2.T @ g2, g2.sum(axis=0))

        _record((x, w, b), out, backward)
    return out


def conv1d_same(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Same-padded stride-1 convolution over time. x: [T,Ci] or [B,T,Ci]."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if w.ndim != 3:
        raise ShapeError(f"conv kernels must be [Co,Ci,k], got {w.shape}")
    k = w.shape[2]
    if k % 2 == 0:
        raise ConfigError(f"conv kernel width must be odd for same padding, got {k}")
    squeeze = x.ndim == 2
    if squeeze:
        x3 = x.data[None, :, :]
    elif x.ndim == 3:
        x3 = x.data
    else:
        raise ShapeError(f"conv input must be [T,Ci] or [B,T,Ci], got {x.shape}")
    if x3.shape[2] != w.shape[1]:
        raise ShapeError(f"conv channel mismatch: input {x3.shape[2]}, kernels {w.shape[1]}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"conv bias must be [Co]={w.shape[0]}, got {b.shape}")

    wd = w.data
    y = kernels.conv1d_forward(x3, wd, b.data)
    out = _make(y[0] if squeeze else y)
    if _recording(x, w, b):
        input_grad = x.requires_grad  # a raw-data input needs none

        def backward(g: Array):
            g3 = g[None, :, :] if squeeze else g
            gx = None
            if input_grad:
                gx = kernels.conv1d_grad_input(g3, wd)
                gx = gx[0] if squeeze else gx
            gw = kernels.conv1d_grad_kernel(x3, g3, k)
            gb = g3.sum(axis=(0, 1))
            return (gx, gw, gb)

        _record((x, w, b), out, backward)
    return out


# ---------------------------------------------------------------------------
# recurrent sequences
# ---------------------------------------------------------------------------

def _sigmoid(x: Array) -> Array:
    """Logistic function, 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, so
    exp never overflows. Both branches come out of one exp: with
    e = e^-|x|, the numerator max(e, sign(x)) is exactly 1 for x >= 0 and
    e^x below, and the denominator is 1 + e. ``min(x, -x)`` stands for -|x|
    because it keeps a NaN's sign, so the bits equal the two-exp form's
    (``tests/reference.py``) for every input. ``sign(x)`` rather than the
    mask ``x >= 0`` keeps the maximum float-only: a bool operand costs a
    cast loop that made the function slower than the two-exp form on small
    blocks."""
    e = np.exp(np.minimum(x, -x))
    out = np.sign(x, out=np.empty(x.shape))  # an array even when x is 0-d
    np.maximum(e, out, out=out)
    e += 1.0
    out /= e
    return out


def _accumulate(total: Array | None, term: Array) -> Array:
    return term if total is None else total + term


def _recurrent_operands(x, w_in, w_hid, b_in, b_hid, gates: int):
    """Validate a recurrent op's operands; return them as tensors plus
    ``(batch, steps, hidden)``."""
    x, w_in, w_hid = as_tensor(x), as_tensor(w_in), as_tensor(w_hid)
    b_in, b_hid = as_tensor(b_in), as_tensor(b_hid)
    if x.data.ndim != 3:
        raise ShapeError(f"recurrent input must be [B, T, D], got {x.data.shape}")
    batch, steps, width = x.data.shape
    if steps < 1:
        raise ShapeError(f"recurrent input needs at least one time step, got {x.data.shape}")
    hidden = w_hid.data.shape[0] if w_hid.data.ndim == 2 else -1
    fused = gates * hidden
    if (w_in.data.shape != (width, fused) or w_hid.data.shape != (hidden, fused)
            or b_in.data.shape != (fused,) or b_hid.data.shape != (fused,)):
        raise ShapeError(
            f"recurrent weights {w_in.shape}, {w_hid.shape}, {b_in.shape}, "
            f"{b_hid.shape} do not fit {gates} gates over input width {width}")
    return (x, w_in, w_hid, b_in, b_hid), (batch, steps, hidden)


def _input_projection(x: Array, w_in: Array, b_in: Array) -> tuple[Array, Array]:
    """Time-major ``[T, B, D]`` form of ``x`` and every step's input-side
    pre-activation ``x_t @ w_in + b_in``, ``[T, B, G]``, so the time loop
    reads contiguous blocks. The output of a recurrent op is already a
    transposed view of its time-major state buffer, so for a stacked layer
    ``xs`` is that buffer itself, not a copy. One batched matmul makes each
    step's product the same BLAS call as ``x_t @ w_in`` alone (a single
    ``[T*B, D]`` GEMM is not at B=1, where that call is a GEMV); the bias is
    added in place."""
    xs = np.ascontiguousarray(x.transpose(1, 0, 2))
    gi = xs @ w_in
    gi += b_in
    return xs, gi


def gru_sequence(x, w_in, w_hid, b_in, b_hid) -> Tensor:
    """GRU recurrence over ``x [B, T, D]`` from a zero state as one record;
    returns the hidden states ``[B, T, H]``.

    Gate blocks are ordered (z, r, n), each with an input-side and a
    hidden-side bias: with ``gi = x_t @ w_in + b_in`` and
    ``gh = h @ w_hid + b_hid``, ``z, r = sigmoid(gi + gh)``,
    ``n = tanh(gi_n + r * gh_n)`` and the new state is
    ``(1 - z) * n + z * h``. The input projections of all steps are one
    batched matmul outside the time loop, and ``backward`` runs backpropagation
    through time by hand, accumulating weight gradients from the last step
    to the first. Each gate is evaluated only on its own block, and a step
    saves only the arrays that ``backward`` reads.

    The states live in one time-major buffer ``[T+1, B, H]`` (row 0 the
    zero state), written in place step by step; the output is its
    transposed view ``[B, T, H]``, and ``backward`` reads each previous state
    from the same buffer, so every state is held once.
    """
    inputs, (batch, steps, hidden) = _recurrent_operands(
        x, w_in, w_hid, b_in, b_hid, gates=3)
    x, w_in, w_hid, b_in, b_hid = inputs
    taping = _recording(*inputs)
    input_grad = x.requires_grad
    two = 2 * hidden
    wi, wh, bh = w_in.data, w_hid.data, b_hid.data
    xs, gi = _input_projection(x.data, wi, b_in.data)
    hst = np.empty((steps + 1, batch, hidden))
    hst[0] = 0.0
    saved = []
    for t in range(steps):
        h = hst[t]
        gh = h.dot(wh)
        gh += bh
        zr = _sigmoid(gi[t, :, :two] + gh[:, :two])
        z = zr[:, :hidden]
        gh_n = gh[:, two:]
        n = np.tanh(gi[t, :, two:] + zr[:, hidden:] * gh_n)
        if taping:
            saved.append((zr, n, gh_n.copy()))
        np.add((1.0 - z) * n, z * h, out=hst[t + 1])
    out = _make(hst[1:].transpose(1, 0, 2))
    if not taping:
        return out

    # Terms are added in the order a step-by-step graph of elementary ops
    # accumulates them, so the gradients are bit-identical to that graph's
    # (lstm_sequence likewise).
    def backward(g: Array):
        dxs = np.empty(xs.shape) if input_grad else None
        dw_in = dw_hid = db_in = db_hid = None
        via_z = via_w = None  # gradient reaching h_{t-1} through z*h and h@w_hid
        for t in range(steps - 1, -1, -1):
            zr, n, gh_n = saved[t]
            h_prev = hst[t]
            z, r = zr[:, :hidden], zr[:, hidden:]
            dh = g[:, t]
            if via_z is not None:
                dh = dh + via_z + via_w
            via_z = dh * z
            dn = dh * (1.0 - z) * (1.0 - n * n)
            dzr = np.concatenate((dh * h_prev - dh * n, dn * gh_n), axis=1)
            dzr = dzr * zr * (1.0 - zr)
            dgi = np.concatenate((dzr, dn), axis=1)
            dgh = np.concatenate((dzr, dn * r), axis=1)
            via_w = dgh @ wh.T
            dw_hid = _accumulate(dw_hid, h_prev.T @ dgh)
            db_hid = _accumulate(db_hid, dgh.sum(axis=0))
            dw_in = _accumulate(dw_in, xs[t].T @ dgi)
            db_in = _accumulate(db_in, dgi.sum(axis=0))
            if dxs is not None:
                dxs[t] = dgi @ wi.T
        return (None if dxs is None else dxs.transpose(1, 0, 2),
                dw_in, dw_hid, db_in, db_hid)

    _record(inputs, out, backward)
    return out


def lstm_sequence(x, w_in, w_hid, b_in, b_hid) -> Tensor:
    """LSTM recurrence over ``x [B, T, D]`` from a zero state as one record;
    returns the hidden states ``[B, T, H]``.

    Gate blocks are ordered (i, f, g, o): with ``s = x_t @ w_in + b_in +
    h @ w_hid + b_hid``, ``i, f, o = sigmoid(s)``, ``g = tanh(s_g)``,
    ``c = f * c + i * g`` and ``h = o * tanh(c)``. The cell states are
    internal: they reach the output only through ``h``. As in
    ``gru_sequence``, the input projection is one batched matmul, each gate is
    evaluated only on its own blocks, the hidden states live in one
    time-major buffer whose transposed view is the output, and ``backward``
    is hand-written backpropagation through time. A step keeps its cell
    state ``c_t``, which is also the next step's ``c_{t-1}``; ``backward``
    recomputes ``tanh(c_t)`` from it instead of keeping a copy, with the same
    bits.
    """
    inputs, (batch, steps, hidden) = _recurrent_operands(
        x, w_in, w_hid, b_in, b_hid, gates=4)
    x, w_in, w_hid, b_in, b_hid = inputs
    taping = _recording(*inputs)
    input_grad = x.requires_grad
    two, three = 2 * hidden, 3 * hidden
    wi, wh, bh = w_in.data, w_hid.data, b_hid.data
    xs, gi = _input_projection(x.data, wi, b_in.data)
    hst = np.empty((steps + 1, batch, hidden))
    hst[0] = 0.0
    c = np.zeros((batch, hidden))
    cells = [c]  # c_0 ... c_T, kept while taping
    saved = []
    for t in range(steps):
        s = hst[t].dot(wh)
        s += bh
        np.add(gi[t], s, out=s)
        ifo = _sigmoid(np.concatenate((s[:, :two], s[:, three:]), axis=1))
        cand = np.tanh(s[:, two:three])
        c = ifo[:, hidden:two] * c + ifo[:, :hidden] * cand
        np.multiply(ifo[:, two:], np.tanh(c), out=hst[t + 1])
        if taping:
            saved.append((ifo, cand))
            cells.append(c)
    out = _make(hst[1:].transpose(1, 0, 2))
    if not taping:
        return out

    def backward(g: Array):
        dxs = np.empty(xs.shape) if input_grad else None
        dw_in = dw_hid = db = None
        via_h = via_c = None  # gradients reaching h_{t-1} and c_{t-1}
        for t in range(steps - 1, -1, -1):
            ifo, cand = saved[t]
            h_prev, c_prev = hst[t], cells[t]
            tc = np.tanh(cells[t + 1])
            i, f, o = ifo[:, :hidden], ifo[:, hidden:two], ifo[:, two:]
            dh = g[:, t] if via_h is None else g[:, t] + via_h
            dc = dh * o * (1.0 - tc * tc)
            if via_c is not None:
                dc = via_c + dc
            difo = np.concatenate((dc * cand, dc * c_prev, dh * tc), axis=1)
            difo = difo * ifo * (1.0 - ifo)
            ds = np.concatenate(
                (difo[:, :two], dc * i * (1.0 - cand * cand), difo[:, two:]), axis=1)
            via_c = dc * f
            via_h = ds @ wh.T
            dw_hid = _accumulate(dw_hid, h_prev.T @ ds)
            db = _accumulate(db, ds.sum(axis=0))
            dw_in = _accumulate(dw_in, xs[t].T @ ds)
            if dxs is not None:
                dxs[t] = ds @ wi.T
        return (None if dxs is None else dxs.transpose(1, 0, 2),
                dw_in, dw_hid, db, db.copy())

    _record(inputs, out, backward)
    return out


# ---------------------------------------------------------------------------
# attention pooling
# ---------------------------------------------------------------------------

class _Scratch(threading.local):
    def __init__(self) -> None:
        self.buf = np.empty(0)


_SCRATCH = _Scratch()


def _scratch_mul(a: Array, b: Array, full: Array) -> Array:
    """``a * b``, whose broadcast shape is ``full``'s, written C-ordered into
    this thread's scratch buffer, which grows to the largest product seen.
    The result is valid only until the next call on this thread, so the
    caller reduces it at once and never returns it."""
    size = full.size
    if _SCRATCH.buf.size < size:
        _SCRATCH.buf = np.empty(size)
    return np.multiply(a, b, out=_SCRATCH.buf[:size].reshape(full.shape))


def attention_pool(query, keys, values, key_dim: int) -> tuple[Tensor, Tensor]:
    """Scaled dot-product pooling over the time axis as one record.

    ``keys`` is ``[B, T, H, key_dim]``, ``query`` is ``[B, 1, H, key_dim]``
    or ``[1, 1, H, key_dim]`` and ``values`` is ``[B, T, H, W]``. Returns
    pooled ``[B, H, W]`` and the weights ``[B, T, H]``, a softmax over T of
    ``keys . query / sqrt(key_dim)``. The weights are an untracked tensor.

    The record keeps no broadcast product for ``backward``. Forward and
    backward make the numpy calls of the elementary graph (mul, reduce_sum,
    scale, softmax, mul, reduce_sum) on the same operand layouts, so outputs
    and gradients are bit-identical to that graph's. A loop over time would
    not be: numpy may sum the time axis pairwise.

    The four broadcast products that are reduced at once (``k * q`` and
    ``w * v`` forward, ``g * v`` and ``d * k`` backward) are written into
    one buffer per thread, grown to the largest product seen, instead of
    freshly mapped memory that the kernel must fault in on every call. No
    output or gradient is a view of that buffer. The buffer holds them
    C-ordered, the layout of a fresh product of C-contiguous keys and
    values, which is what the encoders pass: a product of another layout
    could be reduced in another order.
    """
    query, keys, values = as_tensor(query), as_tensor(keys), as_tensor(values)
    q, k, v = query.data, keys.data, values.data
    if k.ndim != 4 or k.shape[3] != key_dim:
        raise ShapeError(f"attention keys must be [B, T, H, {key_dim}], got {k.shape}")
    batch, steps, heads = k.shape[:3]
    if q.shape not in ((batch, 1, heads, key_dim), (1, 1, heads, key_dim)):
        raise ShapeError(f"attention query must be [{batch} or 1, 1, {heads}, "
                         f"{key_dim}], got {q.shape}")
    if v.ndim != 4 or v.shape[:3] != (batch, steps, heads):
        raise ShapeError(f"attention values must be [{batch}, {steps}, {heads}, W], "
                         f"got {v.shape}")
    scale = 1.0 / np.sqrt(key_dim)
    w = _softmax(np.add.reduce(_scratch_mul(k, q, k), axis=3) * scale, 1)
    pooled = _make(np.add.reduce(_scratch_mul(w[..., None], v, v), axis=1))
    if _recording(query, keys, values):
        def backward(g: Array):
            g = g[:, None]
            d = (_softmax_grad(np.add.reduce(_scratch_mul(g, v, v), axis=3), w, 1)
                 * scale)[..., None]
            dq = _unbroadcast(_scratch_mul(d, k, k), q.shape)
            if q.shape == k.shape:  # nothing was summed: dq is the scratch
                dq = dq.copy()
            return (dq, d * q, g * w[..., None])

        _record((query, keys, values), pooled, backward)
    return pooled, _make(w)


# ---------------------------------------------------------------------------
# activations and softmax
# ---------------------------------------------------------------------------

def relu(x) -> Tensor:
    x = as_tensor(x)
    mask = x.data > 0.0
    out = _make(np.where(mask, x.data, 0.0))
    if _recording(x):
        _record((x,), out, lambda g: (g * mask,))
    return out


def _softmax(x: Array, axis: int) -> Array:
    e = np.exp(x - np.maximum.reduce(x, axis=axis, keepdims=True))
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def _softmax_grad(g: Array, y: Array, axis: int) -> Array:
    """Gradient of the softmax input, given output ``y`` and its gradient."""
    return (g - (g * y).sum(axis=axis, keepdims=True)) * y


def softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    y = _softmax(x.data, axis)
    out = _make(y)
    if _recording(x):
        _record((x,), out, lambda g: (_softmax_grad(g, y, axis),))
    return out


# log-argument floor of the loss
_NLL_FLOOR = 1e-12


def weighted_nll_sum(p: Array, labels: Array, weights: Array) -> float:
    """``-sum over rows of weights[y] * log(max(p[row, y], 1e-12))`` on
    plain arrays: the summed loss of ``weighted_nll``.

    ``p`` is ``[B, K]``; ``labels`` are integer class indices in ``[0, K)``
    and ``weights`` is ``[K]``, both validated by the caller. The label
    column is gathered directly.
    """
    picked = p[np.arange(p.shape[0]), labels]
    return -np.add.reduce(np.log(np.maximum(picked, _NLL_FLOOR)) * weights[labels])


def weighted_nll(probabilities, labels: Array, weights: Array) -> Tensor:
    """``weighted_nll_sum`` divided by the batch size, as one record; the
    gradient reaches only the gathered label entries."""
    p = as_tensor(probabilities)
    pd = p.data
    batch = float(pd.shape[0])
    out = _make(weighted_nll_sum(pd, labels, weights) / batch)
    if _recording(p):
        def backward(g: Array):
            rows = np.arange(pd.shape[0])
            picked = pd[rows, labels]
            gp = np.zeros(pd.shape)
            gp[rows, labels] = (-(g / batch * weights[labels]) * (picked > _NLL_FLOOR)
                                / np.maximum(picked, _NLL_FLOOR))
            return (gp,)

        _record((p,), out, backward)
    return out


# ---------------------------------------------------------------------------
# shape and reduction ops
# ---------------------------------------------------------------------------

def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    out = _make(x.data.reshape(shape))
    if _recording(x):
        sx = x.data.shape
        _record((x,), out, lambda g: (g.reshape(sx),))
    return out


def broadcast_to(x, shape) -> Tensor:
    x = as_tensor(x)
    out = _make(np.ascontiguousarray(np.broadcast_to(x.data, tuple(shape))))
    if _recording(x):
        sx = x.data.shape
        _record((x,), out, lambda g: (_unbroadcast(g, sx),))
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = tuple([as_tensor(t) for t in tensors])
    if not ts:
        raise ShapeError("concat of zero tensors")
    out = _make(np.concatenate([t.data for t in ts], axis=axis))
    if _recording(*ts):
        offsets = np.cumsum([t.shape[axis] for t in ts])[:-1]

        def backward(g: Array):
            return [np.ascontiguousarray(piece) for piece in np.split(g, offsets, axis=axis)]

        _record(ts, out, backward)
    return out


def narrow(x, start: int, stop: int, axis: int = 0) -> Tensor:
    """Contiguous slice along one axis; backward scatters into zeros."""
    x = as_tensor(x)
    index = (slice(None),) * (axis % x.data.ndim) + (slice(start, stop),)
    out = _make(x.data[index].copy())
    if _recording(x):
        sx = x.data.shape

        def backward(g: Array):
            gx = np.zeros(sx)
            gx[index] = g
            return (gx,)

        _record((x,), out, backward)
    return out


def _reduce_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


def _spread(g: Array, shape: tuple[int, ...], axes: tuple[int, ...],
            keepdims: bool) -> Array:
    """Broadcast a reduction's gradient back over the reduced axes."""
    if not keepdims:
        g = g.reshape([1 if i in axes else s for i, s in enumerate(shape)])
    return np.ascontiguousarray(np.broadcast_to(g, shape))


def reduce_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    axes = _reduce_axes(axis, x.ndim)
    out = _make(np.add.reduce(x.data, axis=axes[0] if len(axes) == 1 else axes,
                              keepdims=keepdims))
    if _recording(x):
        sx = x.data.shape
        _record((x,), out, lambda g: (_spread(g, sx, axes, keepdims),))
    return out


def reduce_mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    axes = _reduce_axes(axis, x.ndim)
    count = 1.0
    for a in axes:
        count *= x.data.shape[a]
    out = _make(np.add.reduce(x.data, axis=axes[0] if len(axes) == 1 else axes,
                              keepdims=keepdims) / count)
    if _recording(x):
        sx = x.data.shape
        _record((x,), out, lambda g: (_spread(g, sx, axes, keepdims) / count,))
    return out


# ---------------------------------------------------------------------------
# normalisation and dropout
# ---------------------------------------------------------------------------

# the epsilon inside every normaliser's square root
NORM_EPS = 1e-5


def _normalise(x: Tensor, scale: Tensor, shift: Tensor, axis,
               keepdims: bool, count: float, param_axes):
    """``scale * (x - mean) / sqrt(var + NORM_EPS) + shift`` with the
    statistics taken over ``axis`` (``count`` entries each): the shared
    forward and backward of ``batch_norm_train`` and ``layer_norm``. Biased
    variance, epsilon inside the square root. ``keepdims`` keeps the reduced
    axes in the returned statistics, and ``param_axes`` are the axes that the
    scale and shift gradients sum over. Returns ``(out, mean, var)``.
    """
    xd = x.data
    # ndarray.mean/var arithmetic without their Python wrappers
    mean = np.add.reduce(xd, axis=axis, keepdims=keepdims) / count
    centred = xd - mean
    var = np.add.reduce(centred * centred, axis=axis, keepdims=keepdims) / count
    ivar = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = centred * ivar
    sd = scale.data
    out = _make(sd * xhat + shift.data)
    if _recording(x, scale, shift):
        input_grad = x.requires_grad  # a raw-data input needs none

        def backward(g: Array):
            dx = None
            if input_grad:
                dxhat = g * sd
                m1 = np.add.reduce(dxhat, axis=axis, keepdims=True) / count
                m2 = np.add.reduce(dxhat * xhat, axis=axis, keepdims=True) / count
                dx = ivar * (dxhat - m1 - xhat * m2)
            return (dx, (g * xhat).sum(axis=param_axes), g.sum(axis=param_axes))

        _record((x, scale, shift), out, backward)
    return out, mean, var


def batch_norm_train(x: Tensor, gamma: Tensor, beta: Tensor):
    """Normalise over all axes but the last using batch statistics.

    Returns ``(out, batch_mean, batch_var)``, the statistics ``[C]``. The
    caller owns the running buffers.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    xd = x.data
    if xd.ndim < 2:
        raise ShapeError(f"batch norm input must be at least 2-d, got {xd.shape}")
    if xd.shape[0] < 2:
        raise ShapeError("batch norm in train mode needs a batch of at least 2")
    # numpy handles an int axis and a float divisor faster than a tuple and
    # an int; the arithmetic is the same
    axes = 0 if xd.ndim == 2 else tuple(range(xd.ndim - 1))
    return _normalise(x, gamma, beta, axes, False,
                      float(xd.size // xd.shape[-1]), axes)


def batch_norm_infer(x: Tensor, gamma: Tensor, beta: Tensor,
                     running_mean: Array, running_var: Array) -> Tensor:
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    ivar = 1.0 / np.sqrt(running_var + NORM_EPS)
    xhat = (x.data - running_mean) * ivar
    gd = gamma.data
    out = _make(gd * xhat + beta.data)
    if _recording(x, gamma, beta):
        axes = tuple(range(x.ndim - 1))
        _record((x, gamma, beta), out, lambda g: (
            g * gd * ivar, (g * xhat).sum(axis=axes), g.sum(axis=axes)))
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalise each row over the last axis, then scale and shift."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    if x.shape[-1] != gain.shape[-1]:
        raise ShapeError(f"layer norm width mismatch: {x.shape} vs gain {gain.shape}")
    return _normalise(x, gain, bias, -1, True, float(x.shape[-1]),
                      tuple(range(x.ndim - 1)))[0]


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None, mode: str) -> Tensor:
    """Inverted dropout: train mode scales kept units by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    x = as_tensor(x)
    if mode == "infer" or rate == 0.0:
        return x
    if mode != "train":
        raise ConfigError(f"unknown mode {mode!r}")
    if rng is None:
        raise ConfigError("dropout in train mode needs a random generator")
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    out = _make(x.data * keep)
    if _recording(x):
        _record((x,), out, lambda g: (g * keep,))
    return out


# ---------------------------------------------------------------------------
# backward sweep and gradient checking
# ---------------------------------------------------------------------------

def branches(calls: Sequence[Callable[[], object]], spread: bool) -> list:
    """Run independent calls, each on a helper thread when ``spread`` is
    true and a CPU is idle, else inline; returns their results in call
    order. A call that raises is re-raised once any calls running on
    helpers have finished (see ``cpus.CpuBudget.run``).

    The calls must not depend on one another or on the order in which they
    run: they share no tensor that needs a gradient and draw no random
    numbers. Under an active tape each call records onto a sub-tape of its
    own, on whichever thread runs it, and the caller's tape gets one fork
    record holding the sub-tapes. ``backward`` sweeps them when it reaches
    the fork, under the same rule; every consumer of a branch's output comes
    later on the caller's tape, so by then each sub-tape's output gradients
    are complete. Within a branch the records keep their order, so every
    gradient receives its terms in the order of a serial forward.
    """
    if not _TAPES.stack:
        return BUDGET.run(calls, spread)
    tapes = [Tape() for _ in calls]
    try:
        results = BUDGET.run([partial(_on_tape, tape, call)
                              for tape, call in zip(tapes, calls)], spread)
    except BaseException:
        for tape in tapes:
            _release(tape.records)
        raise
    if any(tape.records for tape in tapes):
        _TAPES.stack[-1].records.append(_Fork(tapes, spread))
    return results


def _on_tape(tape: Tape, call: Callable[[], object]):
    with tape:
        return call()


def _sweep(records: list) -> None:
    """Reverse pass over one tape's records; a fork sweeps its sub-tapes."""
    for rec in reversed(records):
        if type(rec) is _Fork:
            BUDGET.run([partial(_sweep, tape.records) for tape in rec.tapes],
                       rec.spread)
            continue
        g = rec.grad
        if g is None:
            continue
        rec.grad = None
        grads = rec.backward(g)
        for route, shape, gi in zip(rec.routes, rec.shapes, grads):
            if gi is None or route is None:
                continue
            gi = np.asarray(gi, dtype=np.float64).reshape(shape)
            route.grad = gi if route.grad is None else route.grad + gi


def _release(records: list) -> None:
    """Clear every record's routes, rule and gradient, a fork's sub-tapes
    included, and empty the list."""
    for rec in records:
        if type(rec) is _Fork:
            for tape in rec.tapes:
                _release(tape.records)
        rec.routes = rec.backward = rec.grad = None
    records.clear()


def backward(loss: Tensor, tape: Tape) -> None:
    """Reverse sweep over the tape, accumulating leaf gradients into their
    ``.grad`` slots.

    The sweep seeds the loss's record with a gradient of ones (a leaf loss
    gets ``loss.grad = 1`` and nothing else). A record whose output received
    no gradient is skipped. Each rule's gradients follow the record's
    routes: into the producing record's ``grad`` slot, or into a leaf's
    ``.grad``. Every consumer of a record's output comes later on the tape,
    so once the record's rule has run its output gradient is complete and
    is dropped. A fork record sweeps its sub-tapes (see ``branches``). A
    tape is swept once: when the sweep ends, on every return path, each
    record's routes, rule and gradient are cleared, sub-tapes included, and
    the tape is emptied, which releases the saved arrays; a tensor that the
    caller still holds keeps its ``.data`` but no graph.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    try:
        if not loss.requires_grad:
            return
        seed = np.ones_like(loss.data)
        if loss.producer is None:
            loss.grad = seed
            return
        loss.producer.grad = seed
        _sweep(tape.records)
    finally:
        _release(tape.records)


@dataclass
class GradCheckResult:
    max_rel_err: float
    ok: bool


def grad_check(
    f: Callable[[Tensor], Tensor], x, step: float = 1e-5, tol: float = 1e-4
) -> GradCheckResult:
    """Compare analytic gradients of scalar ``f`` against central differences.

    The relative error denominator is floored at 1e-6 so exactly-zero
    gradients compare against finite-difference noise sanely.
    """
    base = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64).copy()
    leaf = Tensor(base.copy(), requires_grad=True)
    with Tape() as tape:
        y = f(leaf)
    if y.size != 1:
        raise ShapeError("grad_check target must produce a scalar")
    if not np.isfinite(y.data).all():
        raise NumericError("non-finite value in grad_check forward pass")
    backward(y, tape)
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(base)

    numeric = np.zeros_like(base)
    flat = base.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(Tensor(base.copy())).data
        flat[i] = orig - step
        lo = f(Tensor(base.copy())).data
        flat[i] = orig
        if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
            raise NumericError("non-finite value in grad_check probe")
        num_flat[i] = (float(hi) - float(lo)) / (2.0 * step)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    max_rel = float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0
    return GradCheckResult(max_rel_err=max_rel, ok=max_rel < tol)
