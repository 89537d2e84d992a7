"""Time-varying decoder conditioning from prosody, speaker, and diffusion step.

The speaker embedding and sinusoidal step embedding fuse into a style
vector; the merge network is a two-layer time convolution over
[logF0, log energy, broadcast style] emitting one condition channel per
mel band (MelConfig.n_mels).  Log energy is rescaled by fixed constants
so its numeric range matches the other inputs.

The style rows repeat one column in every frame, so the first merge layer
never builds them: it convolves the two prosody rows and adds, per kernel
tap, that tap's style weights times the style vector to the frames where
the tap reads signal rather than zero padding.  The backward pass mirrors
this and forms no merge1 input gradient: a tap's style weight gradient is
the outer product of its frame-summed upstream gradient with the style
vector, and the style gradient sums each tap's weights times that sum.
Both equal the convolution over the broadcast input up to rounding.

The prosody rows and the hidden activation h are built zero-padded
(nn.conv_input); the forward pass convolves them and cond_backward reads
the same arrays from the cache for the merge1 and merge2 weight gradients.

Each function reads the cond.* arrays of the decoder's weights dict
(DecoderParams.weights) and computes in their dtype: float64 in training,
float32 when pipeline.decode passes its float32 copy of the dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadDim, DimMismatch
from .nn import (
    affine,
    affine_backward,
    conv1d,
    conv1d_input_grad,
    conv1d_param_grads,
    conv_input,
    relu,
    relu_backward,
    tanh_backward,
)
from .prosody import ProsodyTrack

STEP_FREQ_MAX = 1e4

# Fixed input scaling for log energy (range roughly [-23, 3] for PCM audio).
ENERGY_SHIFT = 10.0
ENERGY_SCALE = 10.0


@dataclass(frozen=True)
class ModelDims:
    """Channel sizes of the conditioning and decoder stacks; the band count is MelConfig.n_mels."""

    speaker_dim: int = 64
    t_embed_dim: int = 64
    style_dim: int = 64
    cond_hidden: int = 64
    dec_hidden: int = 64

    def __post_init__(self):
        for name in ("speaker_dim", "t_embed_dim", "style_dim", "cond_hidden", "dec_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.t_embed_dim % 2:
            raise ValueError("t_embed_dim must be even")


def cond_shapes(dims: ModelDims, n_mels: int) -> dict[str, tuple]:
    """Checkpoint name -> shape of the style projection and the two merge convolutions."""
    return {
        "cond.style_w": (dims.style_dim, dims.speaker_dim + dims.t_embed_dim), "cond.style_b": (dims.style_dim,),
        "cond.merge1_w": (dims.cond_hidden, 2 + dims.style_dim, 3), "cond.merge1_b": (dims.cond_hidden,),
        "cond.merge2_w": (n_mels, dims.cond_hidden, 3), "cond.merge2_b": (n_mels,),
    }


def he_normal(shapes: dict[str, tuple], rng: np.random.Generator) -> dict[str, np.ndarray]:
    """He-normal weights (fan-in: all axes but the first) and zero rank-1 biases, drawn in table order."""
    return {name: np.zeros(shape) if len(shape) == 1
            else rng.standard_normal(shape) * np.sqrt(2.0 / int(np.prod(shape[1:])))
            for name, shape in shapes.items()}


@lru_cache(maxsize=4)
def _step_frequencies(n: int) -> np.ndarray:
    omega = np.geomspace(1.0, STEP_FREQ_MAX, n)
    omega.flags.writeable = False  # every caller shares the cached array
    return omega


def step_embedding(t: float, dim: int) -> np.ndarray:
    """Sinusoidal embedding of a diffusion step t in [0, 1]."""
    if dim < 2 or dim % 2:
        raise BadDim(f"embedding dim must be even and >= 2, got {dim}")
    omega = _step_frequencies(dim // 2)
    return np.concatenate([np.sin(t * omega), np.cos(t * omega)])


def build_style(speaker: np.ndarray, t: float, weights: dict[str, np.ndarray],
                cache: dict | None = None) -> np.ndarray:
    """tanh(affine(concat(speaker, step_embedding(t)))) in the dtype of cond.style_w;
    a given cache receives s_in and style."""
    style_w = weights["cond.style_w"]
    t_dim = style_w.shape[1] - len(speaker)
    if t_dim < 2:
        raise DimMismatch(f"speaker dim {len(speaker)} incompatible with style projection")
    s_in = np.concatenate([speaker, step_embedding(t, t_dim)], dtype=style_w.dtype)
    style = np.tanh(affine(style_w, weights["cond.style_b"], s_in))
    if cache is not None:
        cache.update(s_in=s_in, style=style)
    return style


def _prosody_rows(track: ProsodyTrack, w: np.ndarray) -> np.ndarray:
    """[logF0, scaled log energy] as the zero-padded input of conv weights w."""
    xp, x = conv_input(w, track.n_frames)
    x[0] = track.log_f0
    x[1] = (track.log_energy + ENERGY_SHIFT) / ENERGY_SCALE
    return xp


def _tap_frames(j: int, k: int, n_frames: int) -> slice:
    """Output frames whose tap j of a kernel-k conv1d reads signal rather than padding."""
    pad = k // 2
    return slice(max(pad - j, 0), min(n_frames + pad - j, n_frames))


def build_condition(track: ProsodyTrack, style: np.ndarray, weights: dict[str, np.ndarray],
                    cache: dict | None = None) -> np.ndarray:
    """Condition tensor (T, n_mels) from prosody and a style vector.

    A given cache receives the zero-padded prosody rows, pre1 and the
    zero-padded h.
    """
    m1w = weights["cond.merge1_w"]
    if len(style) != m1w.shape[1] - 2:
        raise DimMismatch(f"style dim {len(style)} does not match the merge network")
    prosody = _prosody_rows(track, m1w[:, :2])
    pre1 = conv1d(m1w[:, :2], weights["cond.merge1_b"], prosody)
    k = m1w.shape[2]
    for j in range(k):
        pre1[:, _tap_frames(j, k, track.n_frames)] += (m1w[:, 2:, j] @ style)[:, None]
    m2w = weights["cond.merge2_w"]
    h, h_frames = conv_input(m2w, track.n_frames)
    relu(pre1, out=h_frames)
    if cache is not None:
        cache.update(prosody=prosody, pre1=pre1, h=h)
    return conv1d(m2w, weights["cond.merge2_b"], h).T


def cond_forward_cache(track: ProsodyTrack, speaker: np.ndarray, t: float, weights: dict[str, np.ndarray]):
    """Forward pass retaining intermediates for backprop; returns (cond, cache)."""
    cache = {}
    cond = build_condition(track, build_style(speaker, t, weights, cache), weights, cache)
    return cond, cache


def cond_backward(d_cond: np.ndarray, cache, weights: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Gradients of every cond.* weight given d(condition) of shape (T, n_mels)."""
    m2w = weights["cond.merge2_w"]
    dm2w, dm2b = conv1d_param_grads(m2w, cache["h"], d_cond.T)
    dpre1 = relu_backward(cache["pre1"], conv1d_input_grad(m2w, d_cond.T))
    m1w = weights["cond.merge1_w"]
    k = m1w.shape[2]
    dm1w = np.empty_like(m1w)
    dm1w[:, :2], dm1b = conv1d_param_grads(m1w[:, :2], cache["prosody"], dpre1)
    dstyle = np.zeros(m1w.shape[1] - 2)
    for j in range(k):
        tap_sum = dpre1[:, _tap_frames(j, k, dpre1.shape[1])].sum(axis=1)
        dm1w[:, 2:, j] = np.outer(tap_sum, cache["style"])
        dstyle += m1w[:, 2:, j].T @ tap_sum
    ds_lin = tanh_backward(cache["style"], dstyle)
    dsw, dsb, _ = affine_backward(weights["cond.style_w"], cache["s_in"], ds_lin)
    return {"cond.style_w": dsw, "cond.style_b": dsb, "cond.merge1_w": dm1w, "cond.merge1_b": dm1b,
            "cond.merge2_w": dm2w, "cond.merge2_b": dm2b}
