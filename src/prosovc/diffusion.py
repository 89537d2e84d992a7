"""Toy diffusion decoder: VP noising toward an average-mel prior, a 3-layer
time-convolution noise predictor, plain-SGD training with hand-derived
gradients, and grid-based reverse sampling.

The continuous-time schedule uses a linear beta(t); its integral has the
closed form t*beta_min + t^2*(beta_max - beta_min)/2, giving
alpha(t) = exp(-integral/2) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditioning import (
    CondParams,
    ModelDims,
    cond_backward,
    cond_forward_cache,
    cond_shapes,
    he_normal,
)
from .errors import BadSchedule, NonFiniteLoss, NonFiniteSample, ShapeMismatch
from .nn import conv1d, conv1d_backward, conv1d_input_grad, conv1d_param_grads, relu, relu_backward
from .prosody import ProsodyTrack

_F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class NoiseSchedule:
    n_steps: int
    beta_min: float
    beta_max: float

    def alpha(self, t: float) -> float:
        integral = t * self.beta_min + 0.5 * t * t * (self.beta_max - self.beta_min)
        return math.exp(-0.5 * integral)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_steps + 1)


def make_schedule(n_steps: int = 30, beta_min: float = 0.05, beta_max: float = 20.0) -> NoiseSchedule:
    if n_steps < 1:
        raise BadSchedule(f"n_steps must be >= 1, got {n_steps}")
    if not 0 < beta_min < beta_max:
        raise BadSchedule(f"need 0 < beta_min < beta_max, got [{beta_min}, {beta_max}]")
    sched = NoiseSchedule(n_steps, float(beta_min), float(beta_max))
    if sched.alpha(1.0) > 0.01:
        raise BadSchedule(f"terminal alpha {sched.alpha(1.0):.4f} > 0.01; noise too weak")
    return sched


@dataclass
class DecoderParams:
    """Conv-stack weights plus the embedded conditioning parameters, shaped by param_shapes.

    input_shift/input_scale standardize the decoder's view of the mel state
    (set from corpus statistics at training time; they are not trained).
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    cond: CondParams
    dims: ModelDims
    input_shift: float = 0.0
    input_scale: float = 1.0


def param_shapes(dims: ModelDims) -> dict[str, tuple]:
    """Checkpoint name -> shape of every trainable array: the one table of the parameter set."""
    shapes = {
        "dec.w1": (dims.dec_hidden, 2 * dims.n_mels, 3), "dec.b1": (dims.dec_hidden,),
        "dec.w2": (dims.dec_hidden, dims.dec_hidden, 3), "dec.b2": (dims.dec_hidden,),
        "dec.w3": (dims.n_mels, dims.dec_hidden, 3), "dec.b3": (dims.n_mels,),
    }
    shapes.update({f"cond.{name}": shape for name, shape in cond_shapes(dims).items()})
    return shapes


def params_from_named(named: dict[str, np.ndarray], dims: ModelDims,
                      input_shift: float, input_scale: float) -> DecoderParams:
    """Inverse of named_parameters: the arrays named in param_shapes(dims), as DecoderParams."""
    groups = {"dec": {}, "cond": {}}
    for name in param_shapes(dims):
        group, field = name.split(".")
        groups[group][field] = named[name]
    return DecoderParams(cond=CondParams(**groups["cond"]), dims=dims,
                         input_shift=input_shift, input_scale=input_scale, **groups["dec"])


def init_decoder_params(dims: ModelDims, rng: np.random.Generator,
                        input_shift: float = 0.0, input_scale: float = 1.0) -> DecoderParams:
    return params_from_named(he_normal(param_shapes(dims), rng), dims, input_shift, input_scale)


def named_parameters(params: DecoderParams) -> dict[str, np.ndarray]:
    """Name -> array view of every trainable parameter, in param_shapes order."""
    out = {}
    for name in param_shapes(params.dims):
        group, field = name.split(".")
        out[name] = getattr(params if group == "dec" else params.cond, field)
    return out


# -- forward/reverse process ------------------------------------------------------

def forward_diffuse(x0: np.ndarray, prior: np.ndarray, t: float, eps: np.ndarray,
                    sched: NoiseSchedule) -> np.ndarray:
    """x_t = alpha*x0 + (1-alpha)*prior + sqrt(1-alpha^2)*eps."""
    if x0.shape != prior.shape or x0.shape != eps.shape:
        raise ShapeMismatch(f"x0 {x0.shape}, prior {prior.shape}, eps {eps.shape} must match")
    a = sched.alpha(t)
    return a * x0 + (1.0 - a) * prior + math.sqrt(max(1.0 - a * a, 0.0)) * eps


def _decoder_input(x_t: np.ndarray, condition: np.ndarray, params: DecoderParams) -> np.ndarray:
    xn = (x_t - params.input_shift) / params.input_scale
    return np.concatenate([xn.T, condition.T], axis=0)


def predict_noise(x_t: np.ndarray, condition: np.ndarray, params: DecoderParams,
                  cache: dict | None = None) -> np.ndarray:
    """Estimated noise, same shape as x_t (T, n_mels); a given cache receives the layer intermediates."""
    if x_t.shape != condition.shape:
        raise ShapeMismatch(f"x_t {x_t.shape} != condition {condition.shape}")
    d_in = _decoder_input(x_t, condition, params)
    pre1 = conv1d(params.w1, params.b1, d_in)
    a1 = relu(pre1)
    pre2 = conv1d(params.w2, params.b2, a1)
    a2 = relu(pre2)
    if cache is not None:
        cache.update(d_in=d_in, pre1=pre1, a1=a1, pre2=pre2, a2=a2)
    return conv1d(params.w3, params.b3, a2).T


def noise_loss(eps_hat: np.ndarray, eps: np.ndarray) -> float:
    """Mean squared error between estimated and true noise."""
    if eps_hat.shape != eps.shape:
        raise ShapeMismatch(f"{eps_hat.shape} != {eps.shape}")
    diff = eps_hat - eps
    return float(np.mean(diff * diff))


# -- training ----------------------------------------------------------------------

@dataclass
class TrainBatch:
    """One training example: target mel, its prior, prosody, and speaker vector."""

    x0: np.ndarray
    prior: np.ndarray
    prosody: ProsodyTrack
    speaker: np.ndarray


def _forward_backward(params: DecoderParams, batch: TrainBatch, x_t: np.ndarray,
                      t: float, eps: np.ndarray):
    """Loss and gradients of noise_loss w.r.t. every parameter."""
    cond, ccache = cond_forward_cache(batch.prosody, batch.speaker, t, params.cond)
    cache = {}
    eps_hat = predict_noise(x_t, cond, params, cache)

    diff = eps_hat - eps
    loss = float(np.mean(diff * diff))
    if not math.isfinite(loss):
        raise NonFiniteLoss(f"loss became {loss}")

    d_eps_hat = (2.0 / diff.size) * diff
    dw3, db3, da2 = conv1d_backward(params.w3, cache["a2"], d_eps_hat.T)
    dpre2 = relu_backward(cache["pre2"], da2)
    dw2, db2, da1 = conv1d_backward(params.w2, cache["a1"], dpre2)
    dpre1 = relu_backward(cache["pre1"], da1)
    # layer 1 reads x_t, which has no parameter behind it: only the condition rows need an input gradient
    dw1, db1 = conv1d_param_grads(params.w1, cache["d_in"], dpre1)
    d_cond = conv1d_input_grad(params.w1[:, params.dims.n_mels:], dpre1).T
    cgrads = cond_backward(d_cond, ccache, params.cond)

    grads = {"dec.w1": dw1, "dec.b1": db1, "dec.w2": dw2, "dec.b2": db2,
             "dec.w3": dw3, "dec.b3": db3}
    grads.update({f"cond.{k}": v for k, v in cgrads.items()})
    return loss, grads


def train_step(batch: TrainBatch, params: DecoderParams, lr: float,
               rng: np.random.Generator, sched: NoiseSchedule):
    """One SGD update over all decoder and conditioning parameters.

    Samples t uniformly from the positive schedule grid and eps from rng;
    returns (updated params, loss).  The input params are left untouched.
    A non-finite loss, or an update that leaves any parameter beyond the
    float32 range a checkpoint stores, raises NonFiniteLoss.
    """
    if batch.x0.shape != batch.prior.shape:
        raise ShapeMismatch(f"x0 {batch.x0.shape} != prior {batch.prior.shape}")
    i = int(rng.integers(1, sched.n_steps + 1))
    t = i / sched.n_steps
    eps = rng.standard_normal(batch.x0.shape)
    x_t = forward_diffuse(batch.x0, batch.prior, t, eps, sched)
    # an overflow shows up as a non-finite loss, reported once as NonFiniteLoss
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grads = _forward_backward(params, batch, x_t, t, eps)
        updated = {name: arr - lr * grads[name] for name, arr in named_parameters(params).items()}
    # a finite loss can still drive a weight past what a checkpoint can store; stop at that step
    for name, arr in updated.items():
        if not np.abs(arr).max() <= _F32_MAX:
            raise NonFiniteLoss(f"parameter {name} left the float32 range")
    return params_from_named(updated, params.dims, params.input_shift, params.input_scale), loss


def eval_loss(params: DecoderParams, batch: TrainBatch, sched: NoiseSchedule,
              pairs: list[tuple[float, np.ndarray]]) -> float:
    """Mean noise loss over fixed (t, eps) pairs; deterministic validation."""
    total = 0.0
    for t, eps in pairs:
        x_t = forward_diffuse(batch.x0, batch.prior, t, eps, sched)
        cond, _ = cond_forward_cache(batch.prosody, batch.speaker, t, params.cond)
        total += noise_loss(predict_noise(x_t, cond, params), eps)
    return total / len(pairs)


# -- sampling -----------------------------------------------------------------------

def reverse_sample(prior: np.ndarray, denoise_fn, sched: NoiseSchedule,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Iterative denoising from the prior over the schedule grid.

    denoise_fn(x_t, t) must return the estimated noise for state x_t at
    grid time t.  Without an rng the sampler is deterministic (zero
    injected noise).  A step that leaves the state non-finite raises
    NonFiniteSample naming that step.
    """
    def noise():
        return rng.standard_normal(prior.shape) if rng is not None else 0.0

    grid = sched.grid
    x = prior + noise()
    # an overflow shows up as a non-finite state, reported once below
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(sched.n_steps, 0, -1):
            t = float(grid[i])
            a = sched.alpha(t)
            eps_hat = denoise_fn(x, t)
            if np.shape(eps_hat) != x.shape:
                raise ShapeMismatch(f"denoiser returned {np.shape(eps_hat)}, expected {x.shape}")
            x0_hat = (x - (1.0 - a) * prior - math.sqrt(max(1.0 - a * a, 0.0)) * eps_hat) / a
            t_next = float(grid[i - 1])
            if i - 1 == 0:
                x = x0_hat
            else:
                a_next = sched.alpha(t_next)
                x = a_next * x0_hat + (1.0 - a_next) * prior \
                    + math.sqrt(max(1.0 - a_next * a_next, 0.0)) * noise()
            if not np.isfinite(x).all():
                raise NonFiniteSample(f"decoder state is non-finite after step "
                                      f"{sched.n_steps - i + 1} of {sched.n_steps} (t={t:g})")
    return x


# -- verification --------------------------------------------------------------------

def gradient_check(params: DecoderParams, batch: TrainBatch, sched: NoiseSchedule,
                   h: float = 1e-4, t: float = 0.5, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Evaluates the full decoder+conditioning stack at a fixed (t, eps), so
    the result is deterministic.  Intended for tiny parameterizations.
    """
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(batch.x0.shape)
    x_t = forward_diffuse(batch.x0, batch.prior, t, eps, sched)
    _, grads = _forward_backward(params, batch, x_t, t, eps)

    def loss_at(p: DecoderParams) -> float:
        cond, _ = cond_forward_cache(batch.prosody, batch.speaker, t, p.cond)
        return noise_loss(predict_noise(x_t, cond, p), eps)

    worst = 0.0
    named = {name: arr.copy() for name, arr in named_parameters(params).items()}
    probe = params_from_named(named, params.dims, params.input_shift, params.input_scale)
    for name, arr in named.items():
        flat = arr.reshape(-1)
        g = grads[name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_at(probe)
            flat[idx] = orig - h
            down = loss_at(probe)
            flat[idx] = orig
            fd = (up - down) / (2.0 * h)
            denom = max(abs(g[idx]) + abs(fd), 1e-8)
            worst = max(worst, abs(g[idx] - fd) / denom)
    return worst
