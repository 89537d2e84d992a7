"""Toy diffusion decoder: VP noising toward an average-mel prior, a 3-layer
time-convolution noise predictor, plain-SGD training with hand-derived
gradients, and grid-based reverse sampling.

The noise schedule is DiffVC's and fixed: a linear beta(t) from BETA_MIN
to BETA_MAX over N_STEPS grid steps. Its integral has the closed form
t*BETA_MIN + t^2*(BETA_MAX - BETA_MIN)/2, giving alpha(t) = exp(-integral/2)
exactly.

DecoderParams holds the input norm and every trainable array, keyed and
ordered as param_shapes(dims, MelConfig.n_mels): the conv stack's dec.*
arrays, then the conditioning's cond.* arrays.  Init, SGD, gradients
and checkpoints all use that dict.

A training example is a TrainBatch. train_step, eval_loss and
gradient_check score it at (t, eps) through one forward pass, _forward:
it noises x0 toward the prior, runs the conditioning and the noise
predictor, and keeps their caches for _forward_backward's backprop.
_scored is the one place the objective is written: it forms the residual
eps_hat - eps once, and returns the loss with it for the backprop to
read; noise_loss is that loss alone, the one eval_loss takes.

Every convolution input (the stacked [x, condition] rows and both ReLU
outputs) is built zero-padded in predict_noise (nn.conv_input), and the
cache keeps those padded arrays for the weight gradients. train_step
writes each parameter's update over that step's own gradient array.

train_step may be given a one-worker pool (train_toy opens one on 2 or
more CPUs); without one, each job below runs inline on the calling thread,
through the same code. In _forward the worker draws eps from the step's
rng and forms x_t while the calling thread runs cond_forward_cache, which
never reads the rng, so the draw order is unchanged. In the backward pass
each decoder layer's weight gradient is a job started as soon as its
upstream gradient exists, while the calling thread runs the
input-gradient chain (layer 3, layer 2, layer 1's condition rows, then
cond_backward); it joins the jobs before the update. Every matrix product
is computed whole, with the same operands, on one thread, so the step is
the same bit for bit on either path. A job runs under the calling
thread's np.errstate, which is context-local: a worker thread would start
with numpy's defaults and warn of an overflow the step means to catch as
NonFiniteLoss. No function the benchmark's span tracer wraps runs on the
worker.

The noise predictor, its backward pass and the SGD update compute in the
dtype of the weights they are given: predict_noise casts the state it is
given to that dtype before normalising it, and the backward pass casts the
upstream gradient (2/size)(eps_hat - eps) to it. eps is drawn, x_t formed
and the loss summed in float64 either way. pipeline.train_toy and decode
pass float32 copies of the weights; eval_loss and gradient_check run in
float64 when given float64 weights, through the same code. reverse_sample
draws no noise: it keeps its state in float64, promoting each float32
noise estimate in its update.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor, Future
from dataclasses import dataclass, replace

import numpy as np

from .conditioning import ModelDims, cond_backward, cond_forward_cache, cond_shapes, he_normal
from .errors import NonFiniteLoss, NonFiniteSample, ShapeMismatch
from .nn import conv1d, conv1d_input_grad, conv1d_param_grads, conv_input, relu, relu_backward
from .prosody import ProsodyTrack

_F32_MAX = float(np.finfo(np.float32).max)


N_STEPS = 30
BETA_MIN = 0.05
BETA_MAX = 20.0
GRID = np.linspace(0.0, 1.0, N_STEPS + 1)
GRID.flags.writeable = False


def alpha(t: float) -> float:
    integral = t * BETA_MIN + 0.5 * t * t * (BETA_MAX - BETA_MIN)
    return math.exp(-0.5 * integral)


@dataclass
class DecoderParams:
    """Every trainable array by checkpoint name, in param_shapes order.

    input_shift/input_scale standardize the decoder's view of the mel state
    (set from corpus statistics at training time; they are not trained).
    """

    weights: dict[str, np.ndarray]
    input_shift: float
    input_scale: float


def param_shapes(dims: ModelDims, n_mels: int) -> dict[str, tuple]:
    """Checkpoint name -> shape of every trainable array: the one table of the parameter set."""
    return {
        "dec.w1": (dims.dec_hidden, 2 * n_mels, 3), "dec.b1": (dims.dec_hidden,),
        "dec.w2": (dims.dec_hidden, dims.dec_hidden, 3), "dec.b2": (dims.dec_hidden,),
        "dec.w3": (n_mels, dims.dec_hidden, 3), "dec.b3": (n_mels,),
    } | cond_shapes(dims, n_mels)


def init_decoder_params(dims: ModelDims, n_mels: int, rng: np.random.Generator,
                        input_shift: float = 0.0, input_scale: float = 1.0) -> DecoderParams:
    return DecoderParams(he_normal(param_shapes(dims, n_mels), rng), input_shift, input_scale)


# -- forward/reverse process ------------------------------------------------------

def forward_diffuse(x0: np.ndarray, prior: np.ndarray, t: float, eps: np.ndarray) -> np.ndarray:
    """x_t = alpha*x0 + (1-alpha)*prior + sqrt(1-alpha^2)*eps."""
    if x0.shape != prior.shape or x0.shape != eps.shape:
        raise ShapeMismatch(f"x0 {x0.shape}, prior {prior.shape}, eps {eps.shape} must match")
    a = alpha(t)
    return a * x0 + (1.0 - a) * prior + math.sqrt(max(1.0 - a * a, 0.0)) * eps


def predict_noise(x_t: np.ndarray, condition: np.ndarray, params: DecoderParams,
                  cache: dict | None = None) -> np.ndarray:
    """Estimated noise, same shape as x_t (T, n_mels), in the dtype of dec.w1, to which
    x_t is cast before it is normalised; a given cache receives the layer intermediates,
    each layer's input zero-padded."""
    if x_t.shape != condition.shape:
        raise ShapeMismatch(f"x_t {x_t.shape} != condition {condition.shape}")
    w = params.weights
    n_frames, n_mels = x_t.shape
    d_in, rows = conv_input(w["dec.w1"], n_frames)
    rows[:n_mels] = ((x_t.astype(d_in.dtype) - params.input_shift) / params.input_scale).T
    rows[n_mels:] = condition.T
    pre1 = conv1d(w["dec.w1"], w["dec.b1"], d_in)
    a1, rows = conv_input(w["dec.w2"], n_frames)
    relu(pre1, out=rows)
    pre2 = conv1d(w["dec.w2"], w["dec.b2"], a1)
    a2, rows = conv_input(w["dec.w3"], n_frames)
    relu(pre2, out=rows)
    if cache is not None:
        cache.update(d_in=d_in, pre1=pre1, a1=a1, pre2=pre2, a2=a2)
    return conv1d(w["dec.w3"], w["dec.b3"], a2).T


def noise_loss(eps_hat: np.ndarray, eps: np.ndarray) -> float:
    """Mean squared error between estimated and true noise."""
    return _scored(eps_hat, eps)[0]


def _scored(eps_hat: np.ndarray, eps: np.ndarray) -> tuple[float, np.ndarray]:
    """(noise_loss, residual eps_hat - eps): the objective, and the residual its gradient reads."""
    if eps_hat.shape != eps.shape:
        raise ShapeMismatch(f"{eps_hat.shape} != {eps.shape}")
    residual = eps_hat - eps
    return float(np.mean(residual * residual)), residual


# -- training ----------------------------------------------------------------------

@dataclass
class TrainBatch:
    """One training example: target mel, its prior, prosody, and speaker vector."""

    x0: np.ndarray
    prior: np.ndarray
    prosody: ProsodyTrack
    speaker: np.ndarray


def _job(pool: Executor | None, fn, *args) -> Future:
    """fn(*args) as a job: on pool's worker under the calling thread's
    floating-point error settings, or at once on the calling thread when
    pool is None. Either way its exception is raised by result()."""
    if pool is not None:
        # np.errstate is context-local: a worker thread starts with numpy's defaults
        return pool.submit(_under_errstate, np.geterr(), fn, *args)
    future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


def _under_errstate(settings: dict, fn, *args):
    with np.errstate(**settings):
        return fn(*args)


def _noised(batch: TrainBatch, t: float, noise) -> tuple[np.ndarray, np.ndarray]:
    """(eps, x_t): eps = noise, or a standard normal draw from it if it is a
    Generator, and batch's x0 noised by eps at time t."""
    eps = noise.standard_normal(batch.x0.shape) if isinstance(noise, np.random.Generator) else noise
    return eps, forward_diffuse(batch.x0, batch.prior, t, eps)


def _forward(params: DecoderParams, batch: TrainBatch, t: float, noise, pool: Executor | None = None):
    """(eps_hat, eps, decoder cache, conditioning cache) of batch noised at time t by eps,
    given as noise or drawn from it (`_noised`) by a job while the calling thread runs the
    conditioning."""
    noised = _job(pool, _noised, batch, t, noise)
    cond, ccache = cond_forward_cache(batch.prosody, batch.speaker, t, params.weights)
    eps, x_t = noised.result()
    cache = {}
    return predict_noise(x_t, cond, params, cache), eps, cache, ccache


def _forward_backward(params: DecoderParams, batch: TrainBatch, t: float, noise, pool: Executor | None = None):
    """Loss and gradients of noise_loss w.r.t. every parameter; the decoder's
    weight gradients are jobs, joined at the end."""
    w = params.weights
    eps_hat, eps, cache, ccache = _forward(params, batch, t, noise, pool)
    loss, residual = _scored(eps_hat, eps)
    if not math.isfinite(loss):
        raise NonFiniteLoss(f"loss became {loss}")

    dy = ((2.0 / residual.size) * residual).T.astype(w["dec.w3"].dtype, copy=False)
    jobs = {"3": _job(pool, conv1d_param_grads, w["dec.w3"], cache["a2"], dy)}
    dy = relu_backward(cache["pre2"], conv1d_input_grad(w["dec.w3"], dy))
    jobs["2"] = _job(pool, conv1d_param_grads, w["dec.w2"], cache["a1"], dy)
    dy = relu_backward(cache["pre1"], conv1d_input_grad(w["dec.w2"], dy))
    jobs["1"] = _job(pool, conv1d_param_grads, w["dec.w1"], cache["d_in"], dy)
    # layer 1 reads x_t, which has no parameter behind it: only the condition rows need an input gradient
    d_cond = conv1d_input_grad(w["dec.w1"][:, residual.shape[1]:], dy).T
    grads = cond_backward(d_cond, ccache, w)
    for layer, job in jobs.items():
        grads[f"dec.w{layer}"], grads[f"dec.b{layer}"] = job.result()
    return loss, grads


def train_step(batch: TrainBatch, params: DecoderParams, lr: float, rng: np.random.Generator,
               pool: Executor | None = None):
    """One SGD update over all decoder and conditioning parameters.

    Samples t uniformly from the positive schedule grid and eps from rng;
    returns (updated params, loss).  The input params are left untouched:
    each updated array is written over the step's own gradient array.
    A non-finite loss, or an update that leaves any parameter beyond the
    float32 range the decoder runs in, raises NonFiniteLoss.  Given a
    pool, the noise draw and the decoder's weight gradients run on its
    worker; the result is the same bit for bit.
    """
    i = int(rng.integers(1, N_STEPS + 1))
    t = i / N_STEPS
    updated = {}
    # an overflow shows up as a non-finite loss, reported once as NonFiniteLoss
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grads = _forward_backward(params, batch, t, rng, pool)
        for name, arr in params.weights.items():
            step = grads[name]
            step *= lr
            updated[name] = np.subtract(arr, step, out=step)
    # a finite loss can still drive a weight past what decode's float32 copy can hold; stop at that
    # step (a NaN fails both comparisons)
    for name, arr in updated.items():
        if not (arr.max() <= _F32_MAX and arr.min() >= -_F32_MAX):
            raise NonFiniteLoss(f"parameter {name} left the float32 range")
    return replace(params, weights=updated), loss


def eval_loss(params: DecoderParams, batch: TrainBatch, pairs: list[tuple[float, np.ndarray]]) -> float:
    """Mean noise loss over fixed (t, eps) pairs; deterministic validation."""
    return sum(noise_loss(*_forward(params, batch, t, eps)[:2]) for t, eps in pairs) / len(pairs)


# -- sampling -----------------------------------------------------------------------

def reverse_sample(prior: np.ndarray, denoise_fn) -> np.ndarray:
    """Deterministic denoising from the prior over the schedule grid.

    denoise_fn(x_t, t) must return the estimated noise for state x_t at
    grid time t.  Each step estimates x0 and re-projects it to the next
    grid time with no injected noise; alpha(0) is exactly 1, so the last
    step returns the x0 estimate.  A step that leaves the state non-finite
    raises NonFiniteSample naming that step.
    """
    x = prior
    # an overflow shows up as a non-finite state, reported once below
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(N_STEPS, 0, -1):
            t = float(GRID[i])
            a = alpha(t)
            eps_hat = denoise_fn(x, t)
            if np.shape(eps_hat) != x.shape:
                raise ShapeMismatch(f"denoiser returned {np.shape(eps_hat)}, expected {x.shape}")
            x0_hat = (x - (1.0 - a) * prior - math.sqrt(max(1.0 - a * a, 0.0)) * eps_hat) / a
            a_next = alpha(float(GRID[i - 1]))
            x = a_next * x0_hat + (1.0 - a_next) * prior
            if not np.isfinite(x).all():
                raise NonFiniteSample(f"decoder state is non-finite after step "
                                      f"{N_STEPS - i + 1} of {N_STEPS} (t={t:g})")
    return x


# -- verification --------------------------------------------------------------------

def gradient_check(params: DecoderParams, batch: TrainBatch, h: float = 1e-4, t: float = 0.5,
                   seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Evaluates the full decoder+conditioning stack at a fixed (t, eps), so
    the result is deterministic.  Intended for tiny parameterizations.
    """
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(batch.x0.shape)
    _, grads = _forward_backward(params, batch, t, eps)
    pair = [(t, eps)]
    worst = 0.0
    probe = replace(params, weights={name: arr.copy() for name, arr in params.weights.items()})
    for name, arr in probe.weights.items():
        flat = arr.reshape(-1)
        g = grads[name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = eval_loss(probe, batch, pair)
            flat[idx] = orig - h
            down = eval_loss(probe, batch, pair)
            flat[idx] = orig
            fd = (up - down) / (2.0 * h)
            denom = max(abs(g[idx]) + abs(fd), 1e-8)
            worst = max(worst, abs(g[idx] - fd) / denom)
    return worst
