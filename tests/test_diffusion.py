import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_close_to_oracle, make_track, oracle_build_condition, oracle_cond_backward
from prosovc import diffusion
from prosovc.conditioning import ModelDims, build_condition, build_style
from prosovc.diffusion import (
    TrainBatch,
    eval_loss,
    forward_diffuse,
    gradient_check,
    init_decoder_params,
    make_schedule,
    named_parameters,
    noise_loss,
    param_shapes,
    predict_noise,
    reverse_sample,
    train_step,
)
from prosovc.errors import BadSchedule, NonFiniteLoss, NonFiniteSample, ShapeMismatch
from prosovc.nn import affine, affine_backward, conv1d_backward, relu_backward


@pytest.fixture(scope="module")
def sched():
    return make_schedule(30, 0.05, 20.0)


def make_batch(rng, dims, n_frames=12):
    return TrainBatch(
        x0=rng.standard_normal((n_frames, dims.n_mels)),
        prior=0.3 * rng.standard_normal((n_frames, dims.n_mels)),
        prosody=make_track(rng, n_frames=n_frames),
        speaker=rng.standard_normal(dims.speaker_dim),
    )


# -- schedule ------------------------------------------------------------------

def test_alpha_boundaries(sched):
    assert sched.alpha(0.0) == 1.0
    expected = math.exp(-(0.05 + 19.95 / 2) / 2)
    assert abs(sched.alpha(1.0) - expected) < 1e-9
    assert expected == pytest.approx(0.00665, abs=5e-5)


def test_alpha_midpoint(sched):
    expected = math.exp(-(0.025 + 2.49375) / 2)
    assert sched.alpha(0.5) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.2839, abs=1e-4)


def test_alpha_strictly_decreasing(sched):
    alphas = [sched.alpha(t) for t in sched.grid]
    assert all(a > b for a, b in zip(alphas, alphas[1:]))
    assert alphas[-1] <= 0.01


def test_bad_schedules():
    with pytest.raises(BadSchedule):
        make_schedule(0, 0.05, 20.0)
    with pytest.raises(BadSchedule):
        make_schedule(30, 20.0, 0.05)
    with pytest.raises(BadSchedule):
        make_schedule(30, 0.0, 20.0)
    with pytest.raises(BadSchedule):
        make_schedule(30, 0.01, 0.1)  # terminal alpha would stay near 1


# -- forward diffusion -----------------------------------------------------------

def test_forward_identity_at_t0(sched):
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((6, 4))
    prior = rng.standard_normal((6, 4))
    out = forward_diffuse(x0, prior, 0.0, np.zeros_like(x0), sched)
    assert np.allclose(out, x0, atol=1e-9)


def test_forward_terminal_reaches_prior(sched):
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((6, 4))
    prior = rng.standard_normal((6, 4))
    out = forward_diffuse(x0, prior, 1.0, np.zeros_like(x0), sched)
    gap = np.linalg.norm(x0 - prior)
    assert np.linalg.norm(out - prior) <= 0.007 * gap


def test_forward_midpoint_closed_form(sched):
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((3, 5))
    prior = rng.standard_normal((3, 5))
    a = math.exp(-(0.025 + 2.49375) / 2)
    out = forward_diffuse(x0, prior, 0.5, np.zeros_like(x0), sched)
    assert np.allclose(out, a * x0 + (1 - a) * prior, atol=1e-12)


def test_forward_shape_mismatch(sched):
    with pytest.raises(ShapeMismatch):
        forward_diffuse(np.zeros((3, 4)), np.zeros((4, 3)), 0.5, np.zeros((3, 4)), sched)


def test_variance_preservation_monte_carlo(sched):
    rng = np.random.default_rng(3)
    n = 10_000
    prior = rng.standard_normal(n)
    x0 = prior + rng.standard_normal(n)  # unit variance around the prior
    for t in (0.2, 0.5, 0.9):
        a = sched.alpha(t)
        x_t = forward_diffuse(x0, prior, t, rng.standard_normal(n), sched)
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
    dims = ModelDims() if default_dims else tiny_dims
    named = named_parameters(init_decoder_params(dims, np.random.default_rng(0)))
    assert list(param_shapes(dims).items()) == [(name, arr.shape) for name, arr in named.items()]


def test_predict_noise_zero_params(tiny_dims):
    params = init_decoder_params(tiny_dims, np.random.default_rng(0))
    for arr in named_parameters(params).values():
        arr[...] = 0.0
    x = np.random.default_rng(1).standard_normal((9, tiny_dims.n_mels))
    out = predict_noise(x, np.ones_like(x), params)
    assert np.array_equal(out, np.zeros_like(x))


@pytest.mark.parametrize("n_frames", [1, 50])
def test_predict_noise_shape(n_frames, tiny_dims):
    params = init_decoder_params(tiny_dims, np.random.default_rng(2))
    x = np.random.default_rng(3).standard_normal((n_frames, tiny_dims.n_mels))
    assert predict_noise(x, np.zeros_like(x), params).shape == x.shape


def test_predict_noise_cache_does_not_change_output(tiny_dims):
    params = init_decoder_params(tiny_dims, np.random.default_rng(6))
    rng = np.random.default_rng(7)
    x = rng.standard_normal((10, tiny_dims.n_mels))
    c = rng.standard_normal(x.shape)
    cache = {}
    assert np.array_equal(predict_noise(x, c, params, cache), predict_noise(x, c, params))
    assert set(cache) == {"d_in", "pre1", "a1", "pre2", "a2"}


def test_predict_noise_sensitive_to_condition(tiny_dims):
    params = init_decoder_params(tiny_dims, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    x = rng.standard_normal((8, tiny_dims.n_mels))
    c1 = rng.standard_normal(x.shape)
    c2 = c1 + 0.5
    assert np.linalg.norm(predict_noise(x, c1, params) - predict_noise(x, c2, params)) > 0


# -- training ----------------------------------------------------------------------------

def test_train_step_zero_lr_is_identity(tiny_dims, sched):
    rng = np.random.default_rng(6)
    params = init_decoder_params(tiny_dims, rng)
    batch = make_batch(rng, tiny_dims)
    updated, loss = train_step(batch, params, 0.0, np.random.default_rng(0), sched)
    assert math.isfinite(loss)
    for name, arr in named_parameters(params).items():
        assert np.array_equal(named_parameters(updated)[name], arr)


def test_train_step_deterministic(tiny_dims, sched):
    rng = np.random.default_rng(7)
    params = init_decoder_params(tiny_dims, rng)
    batch = make_batch(rng, tiny_dims)
    out1, loss1 = train_step(batch, params, 1e-3, np.random.default_rng(11), sched)
    out2, loss2 = train_step(batch, params, 1e-3, np.random.default_rng(11), sched)
    assert loss1 == loss2
    for name in named_parameters(out1):
        assert np.array_equal(named_parameters(out1)[name], named_parameters(out2)[name])


def test_train_step_does_not_mutate_input(tiny_dims, sched):
    rng = np.random.default_rng(8)
    params = init_decoder_params(tiny_dims, rng)
    before = {k: v.copy() for k, v in named_parameters(params).items()}
    batch = make_batch(rng, tiny_dims)
    train_step(batch, params, 1e-2, np.random.default_rng(0), sched)
    for name, arr in named_parameters(params).items():
        assert np.array_equal(arr, before[name])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_step_rejects_nonfinite(tiny_dims, sched):
    rng = np.random.default_rng(9)
    params = init_decoder_params(tiny_dims, rng)
    batch = make_batch(rng, tiny_dims)
    batch.x0[0, 0] = np.inf
    with pytest.raises((NonFiniteLoss, ShapeMismatch, FloatingPointError)):
        train_step(batch, params, 1e-3, np.random.default_rng(0), sched)


def test_train_step_stops_at_a_parameter_beyond_float32(tiny_dims, sched):
    rng = np.random.default_rng(12)
    params = init_decoder_params(tiny_dims, rng)
    batch = make_batch(rng, tiny_dims)
    f32_max = float(np.finfo(np.float32).max)
    params.b3[0] = f32_max  # the loss stays finite in float64
    train_step(batch, params, 0.0, np.random.default_rng(0), sched)
    params.b3[0] = np.nextafter(f32_max, np.inf)
    with pytest.raises(NonFiniteLoss, match=r"^parameter dec\.b3 left the float32 range$"):
        train_step(batch, params, 0.0, np.random.default_rng(0), sched)


def test_single_sample_overfit_halves_loss(sched):
    dims = ModelDims(n_mels=20, speaker_dim=16, t_embed_dim=16, style_dim=16,
                     cond_hidden=24, dec_hidden=24)
    rng = np.random.default_rng(11)
    params = init_decoder_params(dims, rng)
    batch = make_batch(rng, dims, n_frames=24)
    val_rng = np.random.default_rng(99)
    pairs = [((i % sched.n_steps + 1) / sched.n_steps,
              val_rng.standard_normal(batch.x0.shape)) for i in range(16)]
    before = eval_loss(params, batch, sched, pairs)
    for _ in range(200):
        params, _ = train_step(batch, params, 1e-3, rng, sched)
    after = eval_loss(params, batch, sched, pairs)
    assert after <= 0.5 * before


# -- reverse sampling ---------------------------------------------------------------------

def test_reverse_single_step_zero_denoiser_returns_prior():
    sched1 = make_schedule(1, 0.05, 20.0)
    prior = np.random.default_rng(0).standard_normal((7, 3))
    out = reverse_sample(prior, lambda x, t: np.zeros_like(x), sched1, rng=None)
    assert np.allclose(out, prior, atol=1e-9)


def test_reverse_output_shape(sched, tiny_dims):
    params = init_decoder_params(tiny_dims, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    track = make_track(rng, n_frames=15)
    spk = rng.standard_normal(tiny_dims.speaker_dim)
    prior = rng.standard_normal((15, tiny_dims.n_mels))

    def denoise(x, t):
        cond = build_condition(track, build_style(spk, t, params.cond), params.cond)
        return predict_noise(x, cond, params)

    out = reverse_sample(prior, denoise, sched, np.random.default_rng(3))
    assert out.shape == prior.shape


def test_reverse_analytic_posterior_oracle(sched):
    # data are x0 = prior + constant offset; the exact noise predictor is
    # eps = (x - prior - alpha * offset) / sqrt(1 - alpha^2)
    rng = np.random.default_rng(5)
    prior = rng.standard_normal((6, 4))
    offset = 0.8
    x0_true = prior + offset

    def oracle(x, t):
        a = sched.alpha(t)
        return (x - prior - a * offset) / math.sqrt(1 - a * a)

    outs = [reverse_sample(prior, oracle, sched, np.random.default_rng(run))
            for run in range(100)]
    mean_out = np.mean(outs, axis=0)
    assert np.max(np.abs(mean_out - x0_true)) < 0.05


def test_reverse_rejects_bad_denoiser_shape(sched):
    prior = np.zeros((4, 4))
    with pytest.raises(ShapeMismatch):
        reverse_sample(prior, lambda x, t: np.zeros((2, 2)), sched)


@pytest.mark.parametrize("rng", [None, np.random.default_rng(0)])
def test_reverse_names_the_step_that_turns_non_finite(sched, rng):
    prior = np.zeros((4, 4))
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
            reverse_sample(prior, denoise, sched, rng)
    assert len(calls) == 7


# -- gradient verification ---------------------------------------------------------------

def test_gradient_check_tiny_stack(tiny_dims, sched):
    rng = np.random.default_rng(3)
    params = init_decoder_params(tiny_dims, rng)
    n_params = sum(a.size for a in named_parameters(params).values())
    assert n_params <= 2000
    batch = make_batch(rng, tiny_dims, n_frames=6)
    assert gradient_check(params, batch, sched, h=1e-4) < 1e-3


def oracle_forward_backward(params, batch, x_t, t, eps):
    """(condition, loss, gradients) with merge1 over the broadcast style and layer 1's full input gradient."""
    ccache = {}
    cond = oracle_build_condition(batch.prosody, build_style(batch.speaker, t, params.cond, ccache),
                                  params.cond, ccache)
    cache = {}
    diff = predict_noise(x_t, cond, params, cache) - eps
    dw3, db3, da2 = conv1d_backward(params.w3, cache["a2"], (2.0 / diff.size) * diff.T)
    dpre2 = relu_backward(cache["pre2"], da2)
    dw2, db2, da1 = conv1d_backward(params.w2, cache["a1"], dpre2)
    dpre1 = relu_backward(cache["pre1"], da1)
    dw1, db1, dd_in = conv1d_backward(params.w1, cache["d_in"], dpre1)
    grads = {"dec.w1": dw1, "dec.b1": db1, "dec.w2": dw2, "dec.b2": db2, "dec.w3": dw3, "dec.b3": db3}
    cgrads = oracle_cond_backward(dd_in[params.dims.n_mels:].T, ccache, params.cond)
    grads.update({f"cond.{k}": v for k, v in cgrads.items()})
    return cond, float(np.mean(diff * diff)), grads


@settings(max_examples=30, deadline=None)
@given(n_frames=st.sampled_from([1, 2, 3, 40]), n_mels=st.integers(1, 4), style_dim=st.integers(1, 4),
       hidden=st.integers(1, 4), t=st.sampled_from([1 / 30, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_gradients_equal_full_input_gradient_oracle(sched, n_frames, n_mels, style_dim, hidden, t, seed):
    dims = ModelDims(n_mels=n_mels, speaker_dim=3, t_embed_dim=2, style_dim=style_dim,
                     cond_hidden=hidden, dec_hidden=hidden)
    rng = np.random.default_rng(seed)
    params = init_decoder_params(dims, rng, input_shift=0.1, input_scale=1.5)
    batch = make_batch(rng, dims, n_frames=n_frames)
    eps = rng.standard_normal(batch.x0.shape)
    x_t = forward_diffuse(batch.x0, batch.prior, t, eps, sched)

    oracle_cond, oracle_loss, oracle_grads = oracle_forward_backward(params, batch, x_t, t, eps)
    cond, _ = diffusion.cond_forward_cache(batch.prosody, batch.speaker, t, params.cond)
    assert_close_to_oracle(cond, oracle_cond)
    loss, grads = diffusion._forward_backward(params, batch, x_t, t, eps)
    assert loss == pytest.approx(oracle_loss, rel=1e-12)
    assert grads.keys() == oracle_grads.keys() == param_shapes(dims).keys()
    for name, grad in grads.items():
        assert_close_to_oracle(grad, oracle_grads[name])


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


def test_gradient_check_detects_corruption(tiny_dims, sched, monkeypatch):
    rng = np.random.default_rng(3)
    params = init_decoder_params(tiny_dims, rng)
    batch = make_batch(rng, tiny_dims, n_frames=6)
    real = diffusion._forward_backward

    def corrupted(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        grads["dec.w2"] = grads["dec.w2"] * 10.0 + 1.0
        return loss, grads

    monkeypatch.setattr(diffusion, "_forward_backward", corrupted)
    assert gradient_check(params, batch, sched, h=1e-4) > 1e-1
