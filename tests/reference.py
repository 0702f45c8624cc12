"""Reference code that the test suite compares the package against.

Tape ops that no ``train``/``grid``/``search`` protocol calls, kept here as
building blocks of the elementary graphs that the fused ops must match bit
for bit and as cases of the finite-difference suite, plus closed-form
oracles and ``resample_monthly``, a data helper that no protocol calls. Each
op records on the active tape exactly as a package op does, through
``mvcrop.tensor``'s private helpers. ``sub(1.0, z)`` and ``neg(x)``
stand for the operator forms ``1.0 - z`` and ``-x``, which ``Tensor`` does
not define.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from mvcrop.errors import ConfigError, NumericError, ShapeError
from mvcrop.tensor import (
    Tensor,
    _make,
    _record,
    _recording,
    _reduce_axes,
    _sigmoid,
    _unbroadcast,
    as_tensor,
    concat,
    narrow,
    reshape,
)


# ---------------------------------------------------------------------------
# tape ops
# ---------------------------------------------------------------------------

def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = _make(a.data - b.data)
    if _recording(a, b):
        _record((a, b), out,
                lambda g: (_unbroadcast(g, a.shape), -_unbroadcast(g, b.shape)))
    return out


def neg(a) -> Tensor:
    a = as_tensor(a)
    out = _make(-a.data)
    if _recording(a):
        _record((a,), out, lambda g: (-g,))
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    out = _make(a.data @ b.data)
    if _recording(a, b):
        _record((a, b), out, lambda g: (g @ b.data.T, a.data.T @ g))
    return out


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    y = _sigmoid(x.data)
    out = _make(y)
    if _recording(x):
        _record((x,), out, lambda g: (g * y * (1.0 - y),))
    return out


def tanh(x) -> Tensor:
    x = as_tensor(x)
    y = np.tanh(x.data)
    out = _make(y)
    if _recording(x):
        _record((x,), out, lambda g: (g * (1.0 - y * y),))
    return out


def safe_log(x, floor: float = 1e-12) -> Tensor:
    """log(max(x, floor)); gradient is zero on the clamped region."""
    if floor <= 0:
        raise ConfigError("safe_log floor must be positive")
    x = as_tensor(x)
    clamped = np.maximum(x.data, floor)
    out = _make(np.log(clamped))
    if _recording(x):
        mask = x.data > floor
        _record((x,), out, lambda g: (g * mask / clamped,))
    return out


def flatten(x) -> Tensor:
    x = as_tensor(x)
    return reshape(x, (x.size,))


def split(x, sizes: Iterable[int], axis: int = 0) -> list[Tensor]:
    sizes = list(sizes)
    x = as_tensor(x)
    if sum(sizes) != x.shape[axis]:
        raise ShapeError(f"split sizes {sizes} do not cover axis {axis} of {x.shape}")
    out, off = [], 0
    for s in sizes:
        out.append(narrow(x, off, off + s, axis))
        off += s
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    expanded = [reshape(t, t.shape[:axis] + (1,) + t.shape[axis:]) for t in ts]
    return concat(expanded, axis=axis)


def reduce_max(x, axis=None, keepdims: bool = False) -> Tensor:
    """Max reduction; the subgradient routes to the first argmax position."""
    x = as_tensor(x)
    axes = _reduce_axes(axis, x.ndim)
    if len(axes) != x.ndim and len(axes) != 1:
        raise ShapeError("reduce_max supports a single axis or full reduction")
    out = _make(x.data.max(axis=axes if len(axes) > 1 else axes[0], keepdims=keepdims))
    if _recording(x):
        def backward(g):
            gx = np.zeros(x.shape)
            if len(axes) == x.ndim:
                idx = np.unravel_index(np.argmax(x.data), x.shape)
                gx[idx] = np.asarray(g).reshape(())
            else:
                a = axes[0]
                idx = np.expand_dims(np.argmax(x.data, axis=a), a)
                gg = g if keepdims else np.expand_dims(g, a)
                np.put_along_axis(gx, idx, gg, axis=a)
            return (gx,)

        _record((x,), out, backward)
    return out


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------

def formula_count(strategy: str, n_encoder: int, n_head: int, views: int) -> int:
    """Closed-form parameter totals for width-preserving merges."""
    if strategy == "Input":
        return n_encoder + n_head
    if strategy == "Feature":
        return views * n_encoder + n_head
    if strategy in ("Decision", "Ensemble"):
        return views * (n_encoder + n_head)
    if strategy == "Hybrid":
        return views * (n_encoder + n_head) + n_head
    raise ConfigError(f"unknown strategy {strategy!r}")


def kappa_binary_closed_form(tp: int, fn: int, fp: int, tn: int) -> float:
    """Binary kappa as 2(TP*TN - FN*FP) / ((TP+FP)(FP+TN) + (TP+FN)(FN+TN))."""
    denominator = (tp + fp) * (fp + tn) + (tp + fn) * (fn + tn)
    if denominator == 0:
        raise NumericError("kappa undefined: chance agreement is 1")
    return 2 * (tp * tn - fn * fp) / denominator


def sigmoid_two_exp(x: np.ndarray) -> np.ndarray:
    """The logistic function as ``_sigmoid`` computed it before it took one
    exp: ``e^min(x, 0) / (1 + e^-|x|)``, with -|x| as ``copysign(x, -1)``."""
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(np.copysign(x, -1.0)))


def average_ranks_loop(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with tied values sharing their average rank, one run
    of equal sorted scores at a time."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.shape[0], dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


# ---------------------------------------------------------------------------
# monthly resampling
# ---------------------------------------------------------------------------

# cumulative last day-of-year per month (non-leap); day 366 folds into December
_MONTH_END_DAY = np.array([31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334, 365])


def resample_monthly(series, days) -> np.ndarray:
    """Aggregate an irregular ``[T, D]`` series to ``[12, D]`` monthly means.

    Empty months are filled by linear interpolation between the nearest
    observed months; leading/trailing empty months copy the nearest value.
    """
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"series must be [T, D], got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ShapeError("empty series: no observations to resample")
    day = np.asarray(days, dtype=np.float64)
    if day.shape != (arr.shape[0],):
        raise ShapeError(
            f"days must have shape ({arr.shape[0]},), got {day.shape}"
        )
    if np.any(day < 1) or np.any(day > 366):
        raise ConfigError("day-of-year values must lie in [1, 366]")
    month = np.minimum(np.searchsorted(_MONTH_END_DAY, day, side="left"), 11)

    known_months = []
    known_means = []
    for m in range(12):
        mask = month == m
        if np.any(mask):
            known_months.append(m)
            known_means.append(arr[mask].mean(axis=0))
    means = np.asarray(known_means)
    out = np.empty((12, arr.shape[1]), dtype=np.float64)
    grid = np.arange(12, dtype=np.float64)
    for d in range(arr.shape[1]):
        out[:, d] = np.interp(grid, np.asarray(known_months, dtype=np.float64), means[:, d])
    return out
