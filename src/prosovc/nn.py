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


def conv1d_param_grads(w: np.ndarray, x: np.ndarray, dy: np.ndarray):
    """Weight and bias gradients (dw, db) of conv1d given upstream dy."""
    k = w.shape[2]
    t = x.shape[1]
    xp = _zero_padded(x, k // 2)
    dw = np.empty_like(w)
    for j in range(k):
        dw[:, :, j] = dy @ xp[:, j:j + t].T
    return dw, dy.sum(axis=1)


def conv1d_input_grad(w: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Input gradient dx of conv1d given upstream dy.

    w may be a slice w[:, lo:hi] of the weights; dx then covers only input
    channels lo:hi.
    """
    k = w.shape[2]
    pad = k // 2
    t = dy.shape[1]
    dxp = np.zeros((w.shape[1], t + 2 * pad), dtype=dy.dtype)
    for j in range(k):
        dxp[:, j:j + t] += w[:, :, j].T @ dy
    return dxp[:, pad:pad + t]


def conv1d_backward(w: np.ndarray, x: np.ndarray, dy: np.ndarray):
    """Gradients (dw, db, dx) of conv1d given upstream dy."""
    return (*conv1d_param_grads(w, x, dy), conv1d_input_grad(w, dy))


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
