import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    TINY_N_MELS,
    assert_close_to_oracle,
    conv1d_backward,
    make_track,
    oracle_build_condition,
    oracle_cond_backward,
    record_network_dtypes,
)
from prosovc import diffusion
from prosovc.conditioning import ModelDims, build_condition, build_style
from prosovc.diffusion import (
    GRID,
    N_STEPS,
    TrainBatch,
    alpha,
    eval_loss,
    forward_diffuse,
    gradient_check,
    init_decoder_params,
    noise_loss,
    param_shapes,
    predict_noise,
    reverse_sample,
    train_step,
)
from prosovc.errors import NonFiniteLoss, NonFiniteSample, ShapeMismatch
from prosovc.nn import affine, affine_backward, relu_backward
from prosovc.signal_core import MelConfig


def make_batch(rng, dims, n_mels, n_frames=12):
    return TrainBatch(
        x0=rng.standard_normal((n_frames, n_mels)),
        prior=0.3 * rng.standard_normal((n_frames, n_mels)),
        prosody=make_track(rng, n_frames=n_frames),
        speaker=rng.standard_normal(dims.speaker_dim),
    )


# -- schedule ------------------------------------------------------------------

def test_alpha_boundaries():
    assert alpha(0.0) == 1.0
    expected = math.exp(-(0.05 + 19.95 / 2) / 2)
    assert abs(alpha(1.0) - expected) < 1e-9
    assert expected == pytest.approx(0.00665, abs=5e-5)
    assert alpha(1.0) <= 0.01  # the noise is strong enough to reach the prior


def test_alpha_midpoint():
    expected = math.exp(-(0.025 + 2.49375) / 2)
    assert alpha(0.5) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.2839, abs=1e-4)


def test_alpha_strictly_decreasing():
    alphas = [alpha(t) for t in GRID]
    assert all(a > b for a, b in zip(alphas, alphas[1:]))
    assert alphas[-1] <= 0.01


# -- forward diffusion -----------------------------------------------------------

def test_forward_identity_at_t0():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((6, 4))
    prior = rng.standard_normal((6, 4))
    out = forward_diffuse(x0, prior, 0.0, np.zeros_like(x0))
    assert np.allclose(out, x0, atol=1e-9)


def test_forward_terminal_reaches_prior():
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((6, 4))
    prior = rng.standard_normal((6, 4))
    out = forward_diffuse(x0, prior, 1.0, np.zeros_like(x0))
    gap = np.linalg.norm(x0 - prior)
    assert np.linalg.norm(out - prior) <= 0.007 * gap


def test_forward_midpoint_closed_form():
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((3, 5))
    prior = rng.standard_normal((3, 5))
    a = math.exp(-(0.025 + 2.49375) / 2)
    out = forward_diffuse(x0, prior, 0.5, np.zeros_like(x0))
    assert np.allclose(out, a * x0 + (1 - a) * prior, atol=1e-12)


def test_forward_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        forward_diffuse(np.zeros((3, 4)), np.zeros((4, 3)), 0.5, np.zeros((3, 4)))


def test_variance_preservation_monte_carlo():
    rng = np.random.default_rng(3)
    n = 10_000
    prior = rng.standard_normal(n)
    x0 = prior + rng.standard_normal(n)  # unit variance around the prior
    for t in (0.2, 0.5, 0.9):
        a = alpha(t)
        x_t = forward_diffuse(x0, prior, t, rng.standard_normal(n))
        var = np.var(x_t - prior)
        expected = a * a + (1 - a * a)
        assert abs(var - expected) / expected < 0.05


# -- noise loss ---------------------------------------------------------------------

def test_noise_loss_zero():
    x = np.random.default_rng(0).standard_normal((4, 4))
    assert noise_loss(x, x) == 0.0


def test_noise_loss_constant_offset():
    x = np.zeros((5, 5))
    assert noise_loss(x + 0.3, x) == pytest.approx(0.09)


def test_noise_loss_brute_force_oracle():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 4))
    b = rng.standard_normal((5, 4))
    total = 0.0
    for i in range(5):
        for j in range(4):
            total += (a[i, j] - b[i, j]) ** 2
    assert abs(noise_loss(a, b) - total / 20) < 1e-12


def test_noise_loss_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        noise_loss(np.zeros((2, 3)), np.zeros((3, 2)))


# -- noise predictor -------------------------------------------------------------------

@pytest.mark.parametrize("default_dims", [True, False], ids=["default-dims", "tiny-dims"])
def test_param_shapes_lists_every_parameter_in_order(tiny_dims, default_dims):
    dims, n_mels = (ModelDims(), MelConfig().n_mels) if default_dims else (tiny_dims, TINY_N_MELS)
    weights = init_decoder_params(dims, n_mels, np.random.default_rng(0)).weights
    assert list(param_shapes(dims, n_mels).items()) == [(name, arr.shape) for name, arr in weights.items()]


def test_predict_noise_zero_params(tiny_dims):
    params = init_decoder_params(tiny_dims, TINY_N_MELS, np.random.default_rng(0))
    for arr in params.weights.values():
        arr[...] = 0.0
    x = np.random.default_rng(1).standard_normal((9, TINY_N_MELS))
    out = predict_noise(x, np.ones_like(x), params)
    assert np.array_equal(out, np.zeros_like(x))


@pytest.mark.parametrize("n_frames", [1, 50])
def test_predict_noise_shape(n_frames, tiny_dims):
    params = init_decoder_params(tiny_dims, TINY_N_MELS, np.random.default_rng(2))
    x = np.random.default_rng(3).standard_normal((n_frames, TINY_N_MELS))
    assert predict_noise(x, np.zeros_like(x), params).shape == x.shape


def test_predict_noise_cache_does_not_change_output(tiny_dims):
    params = init_decoder_params(tiny_dims, TINY_N_MELS, np.random.default_rng(6))
    rng = np.random.default_rng(7)
    x = rng.standard_normal((10, TINY_N_MELS))
    c = rng.standard_normal(x.shape)
    cache = {}
    assert np.array_equal(predict_noise(x, c, params, cache), predict_noise(x, c, params))
    assert set(cache) == {"d_in", "pre1", "a1", "pre2", "a2"}


def test_predict_noise_sensitive_to_condition(tiny_dims):
    params = init_decoder_params(tiny_dims, TINY_N_MELS, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    x = rng.standard_normal((8, TINY_N_MELS))
    c1 = rng.standard_normal(x.shape)
    c2 = c1 + 0.5
    assert np.linalg.norm(predict_noise(x, c1, params) - predict_noise(x, c2, params)) > 0


# -- training ----------------------------------------------------------------------------

def test_train_step_zero_lr_is_identity(tiny_dims):
    rng = np.random.default_rng(6)
    params = init_decoder_params(tiny_dims, TINY_N_MELS, rng)
    batch = make_batch(rng, tiny_dims, TINY_N_MELS)
    updated, loss = train_step(batch, params, 0.0, np.random.default_rng(0))
    assert math.isfinite(loss)
    for name, arr in params.weights.items():
        assert np.array_equal(updated.weights[name], arr)


def test_train_step_deterministic(tiny_dims):
    rng = np.random.default_rng(7)
    params = init_decoder_params(tiny_dims, TINY_N_MELS, rng)
    batch = make_batch(rng, tiny_dims, TINY_N_MELS)
    out1, loss1 = train_step(batch, params, 1e-3, np.random.default_rng(11))
    out2, loss2 = train_step(batch, params, 1e-3, np.random.default_rng(11))
    assert loss1 == loss2
    for name in out1.weights:
        assert np.array_equal(out1.weights[name], out2.weights[name])


def test_train_step_does_not_mutate_input(tiny_dims):
    rng = np.random.default_rng(8)
    params = init_decoder_params(tiny_dims, TINY_N_MELS, rng)
    before = {k: v.copy() for k, v in params.weights.items()}
    batch = make_batch(rng, tiny_dims, TINY_N_MELS)
    train_step(batch, params, 1e-2, np.random.default_rng(0))
    for name, arr in params.weights.items():
        assert np.array_equal(arr, before[name])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_step_rejects_nonfinite(tiny_dims):
    rng = np.random.default_rng(9)
    params = init_decoder_params(tiny_dims, TINY_N_MELS, rng)
    batch = make_batch(rng, tiny_dims, TINY_N_MELS)
    batch.x0[0, 0] = np.inf
    with pytest.raises((NonFiniteLoss, ShapeMismatch, FloatingPointError)):
        train_step(batch, params, 1e-3, np.random.default_rng(0))


def test_train_step_stops_at_a_parameter_beyond_float32(tiny_dims):
    rng = np.random.default_rng(12)
    params = init_decoder_params(tiny_dims, TINY_N_MELS, rng)
    batch = make_batch(rng, tiny_dims, TINY_N_MELS)
    f32_max = float(np.finfo(np.float32).max)
    params.weights["dec.b3"][0] = f32_max  # the loss stays finite in float64
    train_step(batch, params, 0.0, np.random.default_rng(0))
    params.weights["dec.b3"][0] = np.nextafter(f32_max, np.inf)
    with pytest.raises(NonFiniteLoss, match=r"^parameter dec\.b3 left the float32 range$"):
        train_step(batch, params, 0.0, np.random.default_rng(0))


def test_single_sample_overfit_halves_loss():
    dims = ModelDims(speaker_dim=16, t_embed_dim=16, style_dim=16, cond_hidden=24, dec_hidden=24)
    rng = np.random.default_rng(11)
    params = init_decoder_params(dims, 20, rng)
    batch = make_batch(rng, dims, 20, n_frames=24)
    val_rng = np.random.default_rng(99)
    pairs = [((i % N_STEPS + 1) / N_STEPS,
              val_rng.standard_normal(batch.x0.shape)) for i in range(16)]
    before = eval_loss(params, batch, pairs)
    for _ in range(200):
        params, _ = train_step(batch, params, 1e-3, rng)
    after = eval_loss(params, batch, pairs)
    assert after <= 0.5 * before


# -- reverse sampling ---------------------------------------------------------------------

def test_reverse_single_step_zero_denoiser_returns_prior():
    # a zero denoiser leaves the state at the prior after every step
    prior = np.random.default_rng(0).standard_normal((7, 3))
    out = reverse_sample(prior, lambda x, t: np.zeros_like(x))
    assert np.allclose(out, prior, atol=1e-9)


def test_reverse_output_shape(tiny_dims):
    params = init_decoder_params(tiny_dims, TINY_N_MELS, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    track = make_track(rng, n_frames=15)
    spk = rng.standard_normal(tiny_dims.speaker_dim)
    prior = rng.standard_normal((15, TINY_N_MELS))

    def denoise(x, t):
        cond = build_condition(track, build_style(spk, t, params.weights), params.weights)
        return predict_noise(x, cond, params)

    out = reverse_sample(prior, denoise)
    assert out.shape == prior.shape


def test_reverse_analytic_posterior_oracle():
    # data are x0 = prior + constant offset; the exact noise predictor is
    # eps = (x - prior - alpha * offset) / sqrt(1 - alpha^2), so the first step's
    # x0 estimate is x0 itself and every later step keeps it
    rng = np.random.default_rng(5)
    prior = rng.standard_normal((6, 4))
    offset = 0.8
    x0_true = prior + offset

    def oracle(x, t):
        a = alpha(t)
        return (x - prior - a * offset) / math.sqrt(1 - a * a)

    out = reverse_sample(prior, oracle)
    # rounding only: at most 4.4e-16 measured over 50 seeded priors
    assert np.max(np.abs(out - x0_true)) < 1e-13


def test_reverse_rejects_bad_denoiser_shape():
    prior = np.zeros((4, 4))
    with pytest.raises(ShapeMismatch):
        reverse_sample(prior, lambda x, t: np.zeros((2, 2)))


# the sampler draws no noise; rng only draws a non-zero prior, so the step is
# named the same way from a zero prior and from a random one
@pytest.mark.parametrize("rng", [None, np.random.default_rng(0)])
def test_reverse_names_the_step_that_turns_non_finite(rng):
    prior = np.zeros((4, 4)) if rng is None else rng.standard_normal((4, 4))
    calls = []

    def denoise(x, t):
        calls.append(t)
        eps = np.zeros_like(x)
        if len(calls) == 7:
            eps[1, 2] = np.inf
        return eps

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSample, match=r"after step 7 of 30 \(t="):
            reverse_sample(prior, denoise)
    assert len(calls) == 7


# -- gradient verification ---------------------------------------------------------------

def test_gradient_check_tiny_stack(tiny_dims):
    rng = np.random.default_rng(3)
    params = init_decoder_params(tiny_dims, TINY_N_MELS, rng)
    n_params = sum(a.size for a in params.weights.values())
    assert n_params <= 2000
    batch = make_batch(rng, tiny_dims, TINY_N_MELS, n_frames=6)
    assert gradient_check(params, batch, h=1e-4) < 1e-3


def test_training_and_the_gradient_check_run_the_network_in_float64(monkeypatch):
    seen = record_network_dtypes(monkeypatch, diffusion)
    dims = ModelDims(speaker_dim=2, t_embed_dim=2, style_dim=2, cond_hidden=2, dec_hidden=2)
    rng = np.random.default_rng(8)
    params = init_decoder_params(dims, 2, rng)
    batch = make_batch(rng, dims, 2, n_frames=4)
    train_step(batch, params, 1e-3, rng)
    assert seen == {np.dtype(np.float64)}
    seen.clear()
    gradient_check(params, batch)
    assert seen == {np.dtype(np.float64)}


def oracle_forward_backward(params, batch, x_t, t, eps):
    """(condition, loss, gradients) with merge1 over the broadcast style and layer 1's full input gradient."""
    w = params.weights
    ccache = {}
    cond = oracle_build_condition(batch.prosody, build_style(batch.speaker, t, w, ccache), w, ccache)
    cache = {}
    diff = predict_noise(x_t, cond, params, cache) - eps
    dw3, db3, da2 = conv1d_backward(w["dec.w3"], cache["a2"], (2.0 / diff.size) * diff.T)
    dpre2 = relu_backward(cache["pre2"], da2)
    dw2, db2, da1 = conv1d_backward(w["dec.w2"], cache["a1"], dpre2)
    dpre1 = relu_backward(cache["pre1"], da1)
    dw1, db1, dd_in = conv1d_backward(w["dec.w1"], cache["d_in"], dpre1)
    grads = {"dec.w1": dw1, "dec.b1": db1, "dec.w2": dw2, "dec.b2": db2, "dec.w3": dw3, "dec.b3": db3}
    cgrads = oracle_cond_backward(dd_in[x_t.shape[1]:].T, ccache, w)
    return cond, float(np.mean(diff * diff)), grads | cgrads


@settings(max_examples=30, deadline=None)
@given(n_frames=st.sampled_from([1, 2, 3, 40]), n_mels=st.integers(1, 4), style_dim=st.integers(1, 4),
       hidden=st.integers(1, 4), t=st.sampled_from([1 / 30, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_gradients_equal_full_input_gradient_oracle(n_frames, n_mels, style_dim, hidden, t, seed):
    dims = ModelDims(speaker_dim=3, t_embed_dim=2, style_dim=style_dim, cond_hidden=hidden, dec_hidden=hidden)
    rng = np.random.default_rng(seed)
    params = init_decoder_params(dims, n_mels, rng, input_shift=0.1, input_scale=1.5)
    batch = make_batch(rng, dims, n_mels, n_frames=n_frames)
    eps = rng.standard_normal(batch.x0.shape)
    x_t = forward_diffuse(batch.x0, batch.prior, t, eps)

    oracle_cond, oracle_loss, oracle_grads = oracle_forward_backward(params, batch, x_t, t, eps)
    cond, _ = diffusion.cond_forward_cache(batch.prosody, batch.speaker, t, params.weights)
    assert_close_to_oracle(cond, oracle_cond)
    loss, grads = diffusion._forward_backward(params, batch, t, eps)
    assert loss == pytest.approx(oracle_loss, rel=1e-12)
    assert grads.keys() == oracle_grads.keys() == param_shapes(dims, n_mels).keys()
    for name, grad in grads.items():
        assert_close_to_oracle(grad, oracle_grads[name])


@pytest.mark.parametrize("t", [1 / N_STEPS, 0.5, 1.0])
def test_eval_loss_is_the_training_loss_bit_for_bit(tiny_dims, t):
    # validation and training score an example through the same forward pass
    rng = np.random.default_rng(21)
    params = init_decoder_params(tiny_dims, TINY_N_MELS, rng, input_shift=0.1, input_scale=1.5)
    batch = make_batch(rng, tiny_dims, TINY_N_MELS, n_frames=9)
    eps = rng.standard_normal(batch.x0.shape)
    assert eval_loss(params, batch, [(t, eps)]) == diffusion._forward_backward(params, batch, t, eps)[0]


def test_affine_gradient_closed_form():
    # single affine layer, quadratic loss: dL/dW = 2(Wx+b-y) x^T exactly
    rng = np.random.default_rng(6)
    w = rng.standard_normal((3, 4))
    b = rng.standard_normal(3)
    x = rng.standard_normal(4)
    y = rng.standard_normal(3)
    out = affine(w, b, x)
    dout = 2.0 * (out - y)
    dw, db, _ = affine_backward(w, x, dout)
    h = 1e-6
    for i in range(3):
        for j in range(4):
            w[i, j] += h
            up = float(np.sum((affine(w, b, x) - y) ** 2))
            w[i, j] -= 2 * h
            down = float(np.sum((affine(w, b, x) - y) ** 2))
            w[i, j] += h
            fd = (up - down) / (2 * h)
            assert abs(fd - dw[i, j]) < 1e-6
    assert np.allclose(db, dout)


def test_gradient_check_detects_corruption(tiny_dims, monkeypatch):
    rng = np.random.default_rng(3)
    params = init_decoder_params(tiny_dims, TINY_N_MELS, rng)
    batch = make_batch(rng, tiny_dims, TINY_N_MELS, n_frames=6)
    real = diffusion._forward_backward

    def corrupted(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        grads["dec.w2"] = grads["dec.w2"] * 10.0 + 1.0
        return loss, grads

    monkeypatch.setattr(diffusion, "_forward_backward", corrupted)
    assert gradient_check(params, batch, h=1e-4) > 1e-1
