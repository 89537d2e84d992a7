"""Minimal conv/affine layers with hand-derived backward passes.

Layout convention: 1-D convolutions act over time with channels first,
weights (c_out, c_in, k), zero padding so the frame count is preserved.
"""

from __future__ import annotations

import numpy as np


def _zero_padded(x: np.ndarray, pad: int) -> np.ndarray:
    """x with pad zero columns on each side, as np.pad would give it."""
    xp = np.zeros((x.shape[0], x.shape[1] + 2 * pad), dtype=x.dtype)
    xp[:, pad:pad + x.shape[1]] = x
    return xp


def conv1d(w: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x: (c_in, T) -> (c_out, T)."""
    k = w.shape[2]
    t = x.shape[1]
    xp = _zero_padded(x, k // 2)
    y = np.empty((b.shape[0], t), dtype=b.dtype)
    y[...] = b[:, None]
    for j in range(k):
        y += w[:, :, j] @ xp[:, j:j + t]
    return y


def conv1d_backward(w: np.ndarray, x: np.ndarray, dy: np.ndarray):
    """Gradients (dw, db, dx) of conv1d given upstream dy."""
    k = w.shape[2]
    pad = k // 2
    t = x.shape[1]
    xp = _zero_padded(x, pad)
    dw = np.empty_like(w)
    dxp = np.zeros_like(xp)
    for j in range(k):
        dw[:, :, j] = dy @ xp[:, j:j + t].T
        dxp[:, j:j + t] += w[:, :, j].T @ dy
    return dw, dy.sum(axis=1), dxp[:, pad:pad + t]


def affine(w: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    return w @ x + b


def affine_backward(w: np.ndarray, x: np.ndarray, dy: np.ndarray):
    return np.outer(dy, x), dy, w.T @ dy


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    return np.where(x > 0, dy, 0.0)


def tanh_backward(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    # y is the tanh output, not its input.
    return (1.0 - y * y) * dy
