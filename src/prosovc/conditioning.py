"""Time-varying decoder conditioning from prosody, speaker, and diffusion step.

The speaker embedding and sinusoidal step embedding fuse into a style
vector; the merge network is a two-layer time convolution over
[logF0, log energy, broadcast style] emitting one condition channel per
mel band.  Log energy is rescaled by fixed constants so its numeric range
matches the other inputs.

The style rows repeat one column in every frame, so the first merge layer
never builds them: it convolves the two prosody rows and adds, per kernel
tap, that tap's style weights times the style vector to the frames where
the tap reads signal rather than zero padding.  The backward pass mirrors
this and forms no merge1 input gradient: a tap's style weight gradient is
the outer product of its frame-summed upstream gradient with the style
vector, and the style gradient sums each tap's weights times that sum.
Both equal the convolution over the broadcast input up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDim, DimMismatch
from .nn import (
    affine,
    affine_backward,
    conv1d,
    conv1d_backward,
    conv1d_param_grads,
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
    """Channel sizes of the conditioning and decoder stacks."""

    n_mels: int = 80
    speaker_dim: int = 64
    t_embed_dim: int = 64
    style_dim: int = 64
    cond_hidden: int = 64
    dec_hidden: int = 64

    def __post_init__(self):
        for name in ("n_mels", "speaker_dim", "t_embed_dim", "style_dim", "cond_hidden", "dec_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.t_embed_dim % 2:
            raise ValueError("t_embed_dim must be even")


@dataclass
class CondParams:
    """Weights of the style projection and the two merge convolutions, shaped by cond_shapes."""

    style_w: np.ndarray
    style_b: np.ndarray
    merge1_w: np.ndarray
    merge1_b: np.ndarray
    merge2_w: np.ndarray
    merge2_b: np.ndarray


def cond_shapes(dims: ModelDims) -> dict[str, tuple]:
    """CondParams field -> array shape, in field order."""
    return {
        "style_w": (dims.style_dim, dims.speaker_dim + dims.t_embed_dim), "style_b": (dims.style_dim,),
        "merge1_w": (dims.cond_hidden, 2 + dims.style_dim, 3), "merge1_b": (dims.cond_hidden,),
        "merge2_w": (dims.n_mels, dims.cond_hidden, 3), "merge2_b": (dims.n_mels,),
    }


def he_normal(shapes: dict[str, tuple], rng: np.random.Generator) -> dict[str, np.ndarray]:
    """He-normal weights (fan-in: all axes but the first) and zero rank-1 biases, drawn in table order."""
    return {name: np.zeros(shape) if len(shape) == 1
            else rng.standard_normal(shape) * np.sqrt(2.0 / int(np.prod(shape[1:])))
            for name, shape in shapes.items()}


def init_cond_params(dims: ModelDims, rng: np.random.Generator) -> CondParams:
    return CondParams(**he_normal(cond_shapes(dims), rng))


def step_embedding(t: float, dim: int) -> np.ndarray:
    """Sinusoidal embedding of a diffusion step t in [0, 1]."""
    if dim < 2 or dim % 2:
        raise BadDim(f"embedding dim must be even and >= 2, got {dim}")
    half = dim // 2
    omega = np.geomspace(1.0, STEP_FREQ_MAX, half) if half > 1 else np.ones(1)
    return np.concatenate([np.sin(t * omega), np.cos(t * omega)])


def build_style(speaker: np.ndarray, t: float, params: CondParams,
                cache: dict | None = None) -> np.ndarray:
    """tanh(affine(concat(speaker, step_embedding(t)))); a given cache receives s_in and style."""
    speaker = np.asarray(speaker, dtype=np.float64)
    t_dim = params.style_w.shape[1] - len(speaker)
    if t_dim < 2:
        raise DimMismatch(f"speaker dim {len(speaker)} incompatible with style projection")
    s_in = np.concatenate([speaker, step_embedding(t, t_dim)])
    style = np.tanh(affine(params.style_w, params.style_b, s_in))
    if cache is not None:
        cache.update(s_in=s_in, style=style)
    return style


def _prosody_rows(track: ProsodyTrack) -> np.ndarray:
    x = np.empty((2, track.n_frames))
    x[0] = track.log_f0
    x[1] = (track.log_energy + ENERGY_SHIFT) / ENERGY_SCALE
    return x


def _tap_frames(j: int, k: int, n_frames: int) -> slice:
    """Output frames whose tap j of a kernel-k conv1d reads signal rather than padding."""
    pad = k // 2
    return slice(max(pad - j, 0), min(n_frames + pad - j, n_frames))


def build_condition(track: ProsodyTrack, style: np.ndarray, params: CondParams,
                    cache: dict | None = None) -> np.ndarray:
    """Condition tensor (T, n_mels) from prosody and a style vector.

    A given cache receives the prosody rows, pre1 and h.
    """
    if len(style) != params.merge1_w.shape[1] - 2:
        raise DimMismatch(f"style dim {len(style)} does not match the merge network")
    prosody = _prosody_rows(track)
    pre1 = conv1d(params.merge1_w[:, :2], params.merge1_b, prosody)
    k = params.merge1_w.shape[2]
    for j in range(k):
        pre1[:, _tap_frames(j, k, track.n_frames)] += (params.merge1_w[:, 2:, j] @ style)[:, None]
    h = relu(pre1)
    if cache is not None:
        cache.update(prosody=prosody, pre1=pre1, h=h)
    return conv1d(params.merge2_w, params.merge2_b, h).T


def cond_forward_cache(track: ProsodyTrack, speaker: np.ndarray, t: float, params: CondParams):
    """Forward pass retaining intermediates for backprop; returns (cond, cache)."""
    cache = {}
    cond = build_condition(track, build_style(speaker, t, params, cache), params, cache)
    return cond, cache


def cond_backward(d_cond: np.ndarray, cache, params: CondParams):
    """Gradients of all CondParams given d(condition) of shape (T, n_mels)."""
    dy = d_cond.T
    dm2w, dm2b, dh = conv1d_backward(params.merge2_w, cache["h"], dy)
    dpre1 = relu_backward(cache["pre1"], dh)
    m1w = params.merge1_w
    k = m1w.shape[2]
    dm1w = np.empty_like(m1w)
    dm1w[:, :2], dm1b = conv1d_param_grads(m1w[:, :2], cache["prosody"], dpre1)
    dstyle = np.zeros(m1w.shape[1] - 2)
    for j in range(k):
        tap_sum = dpre1[:, _tap_frames(j, k, dpre1.shape[1])].sum(axis=1)
        dm1w[:, 2:, j] = np.outer(tap_sum, cache["style"])
        dstyle += m1w[:, 2:, j].T @ tap_sum
    ds_lin = tanh_backward(cache["style"], dstyle)
    dsw, dsb, _ = affine_backward(params.style_w, cache["s_in"], ds_lin)
    return {
        "style_w": dsw,
        "style_b": dsb,
        "merge1_w": dm1w,
        "merge1_b": dm1b,
        "merge2_w": dm2w,
        "merge2_b": dm2b,
    }
