"""Hot numeric kernels: same-padded 1-d convolution forward/backward.

Each kernel is a stride-tricks window view contracted with ``np.einsum``.
The kernels take float64 arrays and are deterministic. They return the
einsum's result as it is laid out, not C-contiguous: a forward output of
shape ``[128, 12, 64]`` has strides ``(96, 8, 12288)``, channels outermost.
Reductions downstream take their summation order from that layout, so a
copy into C order could change their bits.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


def _windows(x: np.ndarray, k: int) -> np.ndarray:
    """Read-only ``[B, T, C, k]`` view of the k-wide time windows of ``x``
    zero padded by ``k // 2`` on both ends (what ``np.pad`` followed by
    ``sliding_window_view`` gives, without their per-call overhead)."""
    bs, t_len, chans = x.shape
    pad = k // 2
    xp = np.zeros((bs, t_len + 2 * pad, chans))
    xp[:, pad:pad + t_len] = x
    s_b, s_t, s_c = xp.strides
    return as_strided(xp, (bs, t_len, chans, k), (s_b, s_t, s_c, s_t), writeable=False)


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x: [B,T,Ci], w: [Co,Ci,k], b: [Co] -> y: [B,T,Co] (zero padded, stride 1)."""
    return np.einsum("btcj,ocj->bto", _windows(x, w.shape[2]), w, optimize=True) + b


def conv1d_grad_input(gy: np.ndarray, w: np.ndarray) -> np.ndarray:
    """gy: [B,T,Co], w: [Co,Ci,k] -> gx: [B,T,Ci]."""
    windows = _windows(gy, w.shape[2])  # [B,T,Co,k]
    return np.einsum("btoj,ocj->btc", windows, w[:, :, ::-1], optimize=True)


def conv1d_grad_kernel(x: np.ndarray, gy: np.ndarray, k: int) -> np.ndarray:
    """x: [B,T,Ci], gy: [B,T,Co] -> gw: [Co,Ci,k]."""
    return np.einsum("bto,btcj->ocj", gy, _windows(x, k), optimize=True)


def active_backend() -> str:
    """Name of the conv kernel path, recorded in every run manifest."""
    return "numpy"
