"""Minimal conv/affine layers with hand-derived backward passes.

Layout convention: 1-D convolutions act over time with channels first,
weights (c_out, c_in, k), zero padding so the frame count is preserved.
A convolution reads its input already zero-padded: (c_in, T + 2 (k // 2))
columns, made by conv_input and filled in place through its interior view,
so that the forward pass and the weight gradient read the same array and
neither copies it.
"""

from __future__ import annotations

import numpy as np


def conv_input(w: np.ndarray, n_frames: int) -> tuple[np.ndarray, np.ndarray]:
    """(xp, x): an input for conv1d with weights w over n_frames, in w's dtype, whose pad
    columns are zero, and x, the view of its n_frames interior columns, for the caller to fill."""
    pad = w.shape[2] // 2
    xp = np.empty((w.shape[1], n_frames + 2 * pad), dtype=w.dtype)
    xp[:, :pad] = 0.0
    xp[:, pad + n_frames:] = 0.0
    return xp, xp[:, pad:pad + n_frames]


def conv1d(w: np.ndarray, b: np.ndarray, xp: np.ndarray) -> np.ndarray:
    """xp: zero-padded (c_in, T + 2 (k // 2)) -> (c_out, T)."""
    k = w.shape[2]
    t = xp.shape[1] - 2 * (k // 2)
    y = np.empty((b.shape[0], t), dtype=b.dtype)
    y[...] = b[:, None]
    for j in range(k):
        y += w[:, :, j] @ xp[:, j:j + t]
    return y


def conv1d_param_grads(w: np.ndarray, xp: np.ndarray, dy: np.ndarray):
    """Weight and bias gradients (dw, db) of conv1d over the zero-padded input xp given upstream dy."""
    k = w.shape[2]
    t = dy.shape[1]
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


def affine(w: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    return w @ x + b


def affine_backward(w: np.ndarray, x: np.ndarray, dy: np.ndarray):
    return np.outer(dy, x), dy, w.T @ dy


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def relu_backward(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    return np.where(x > 0, dy, 0.0)


def tanh_backward(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    # y is the tanh output, not its input.
    return (1.0 - y * y) * dy
