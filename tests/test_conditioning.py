import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_close_to_oracle, make_track, oracle_build_condition, oracle_cond_backward
from prosovc.conditioning import (
    ModelDims,
    build_condition,
    build_style,
    cond_backward,
    cond_forward_cache,
    init_cond_params,
    step_embedding,
)
from prosovc.errors import BadDim, DimMismatch
from prosovc.prosody import ProsodyTrack


@pytest.fixture
def dims():
    return ModelDims(n_mels=8, speaker_dim=6, t_embed_dim=6, style_dim=6,
                     cond_hidden=10, dec_hidden=10)


@pytest.fixture
def params(dims):
    return init_cond_params(dims, np.random.default_rng(7))


def zero_params(dims):
    p = init_cond_params(dims, np.random.default_rng(0))
    for arr in (p.style_w, p.style_b, p.merge1_w, p.merge1_b, p.merge2_w, p.merge2_b):
        arr[...] = 0.0
    return p


def constant_track(n_frames, lf0=5.3, energy=-4.0):
    return ProsodyTrack(np.full(n_frames, lf0), np.ones(n_frames, dtype=bool),
                        np.full(n_frames, energy))


# -- step embedding --------------------------------------------------------------

def test_step_embedding_at_zero():
    emb = step_embedding(0.0, 8)
    assert np.array_equal(emb[:4], np.zeros(4))
    assert np.array_equal(emb[4:], np.ones(4))


def test_step_embedding_distinguishes_t():
    a = step_embedding(0.0, 16)
    b = step_embedding(1.0, 16)
    assert np.linalg.norm(a - b) > 0.1


def test_step_embedding_odd_dim_rejected():
    with pytest.raises(BadDim):
        step_embedding(0.5, 3)


def test_step_embedding_frequency_range():
    emb = step_embedding(1e-4, 8)
    # lowest frequency is 1, highest 1e4: sin(1e-4 * 1e4) = sin(1)
    assert emb[0] == pytest.approx(np.sin(1e-4))
    assert emb[3] == pytest.approx(np.sin(1.0))


# -- style ------------------------------------------------------------------------

def test_style_zero_params(dims):
    style = build_style(np.ones(dims.speaker_dim), 0.3, zero_params(dims))
    assert np.array_equal(style, np.zeros(dims.style_dim))


def test_style_deterministic_and_shaped(dims, params):
    spk = np.random.default_rng(1).standard_normal(dims.speaker_dim)
    a = build_style(spk, 0.5, params)
    b = build_style(spk, 0.5, params)
    assert a.shape == (dims.style_dim,)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 1.0)  # tanh range


def test_style_dim_mismatch(dims, params):
    with pytest.raises(DimMismatch):
        build_style(np.ones(dims.speaker_dim + 40), 0.5, params)


# -- condition tensor ------------------------------------------------------------------

@pytest.mark.parametrize("n_frames", [1, 7, 100])
def test_condition_preserves_frame_count(n_frames, dims, params):
    track = make_track(np.random.default_rng(n_frames), n_frames=n_frames)
    style = build_style(np.ones(dims.speaker_dim), 0.5, params)
    cond = build_condition(track, style, params)
    assert cond.shape == (n_frames, dims.n_mels)


def test_condition_interior_frames_constant(dims, params):
    # two stacked kernel-3 convs -> frames at distance >= 2 from the edges
    # share identical receptive fields
    track = constant_track(30)
    style = build_style(0.3 * np.ones(dims.speaker_dim), 0.4, params)
    cond = build_condition(track, style, params)
    interior = cond[2:-2]
    assert np.allclose(interior, interior[0], atol=1e-12)
    assert not np.allclose(cond[0], interior[0], atol=1e-12)  # edges differ


def test_condition_zero_params_zero_output(dims):
    track = make_track(np.random.default_rng(2), n_frames=12)
    cond = build_condition(track, np.zeros(dims.style_dim), zero_params(dims))
    assert np.array_equal(cond, np.zeros((12, dims.n_mels)))


def test_condition_time_equivariance(dims, params):
    rng = np.random.default_rng(8)
    base = make_track(rng, n_frames=40)
    k = 5
    shifted = ProsodyTrack(np.roll(base.log_f0, k), np.roll(base.voiced, k),
                           np.roll(base.log_energy, k))
    style = build_style(np.ones(dims.speaker_dim), 0.5, params)
    a = build_condition(base, style, params)
    b = build_condition(shifted, style, params)
    # interior frames shift with the input (away from both zero-padded edges)
    assert np.allclose(b[k + 2:38], a[2:38 - k], atol=1e-12)


def test_condition_style_broadcast_uniform(dims, params):
    track = constant_track(20)
    s1 = build_style(np.ones(dims.speaker_dim), 0.2, params)
    s2 = build_style(-np.ones(dims.speaker_dim), 0.2, params)
    c1 = build_condition(track, s1, params)
    c2 = build_condition(track, s2, params)
    delta = c2[2:-2] - c1[2:-2]
    assert np.allclose(delta, delta[0], atol=1e-12)
    assert np.linalg.norm(delta[0]) > 0


def test_condition_depends_on_t(dims, params):
    track = make_track(np.random.default_rng(4), n_frames=16)
    spk = np.ones(dims.speaker_dim)
    c1 = build_condition(track, build_style(spk, 0.1, params), params)
    c2 = build_condition(track, build_style(spk, 0.9, params), params)
    assert np.linalg.norm(c1 - c2) > 0


def test_condition_style_dim_mismatch(dims, params):
    track = constant_track(5)
    with pytest.raises(DimMismatch):
        build_condition(track, np.zeros(dims.style_dim + 3), params)


def test_cond_forward_cache_is_the_inference_forward(dims, params):
    # training and inference share one forward pass, so the condition agrees bit for bit
    track = make_track(np.random.default_rng(5), n_frames=16)
    spk = np.random.default_rng(6).standard_normal(dims.speaker_dim)
    cond, cache = cond_forward_cache(track, spk, 0.3, params)
    assert np.array_equal(cond, build_condition(track, build_style(spk, 0.3, params), params))
    assert set(cache) == {"s_in", "style", "prosody", "pre1", "h"}


# -- merge1's style rows as per-tap sums, against the broadcast-style oracle ---------------

@settings(max_examples=40, deadline=None)
@given(n_frames=st.sampled_from([1, 2, 3, 40]), n_mels=st.integers(1, 4), speaker_dim=st.integers(1, 4),
       t_embed_dim=st.sampled_from([2, 4]), style_dim=st.integers(1, 4), cond_hidden=st.integers(1, 4),
       t=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_condition_and_gradients_equal_broadcast_style_oracle(n_frames, n_mels, speaker_dim, t_embed_dim,
                                                              style_dim, cond_hidden, t, seed):
    # at n_frames 1 and 2 an edge tap of merge1 reads signal in one frame or in none
    dims = ModelDims(n_mels=n_mels, speaker_dim=speaker_dim, t_embed_dim=t_embed_dim,
                     style_dim=style_dim, cond_hidden=cond_hidden, dec_hidden=1)
    rng = np.random.default_rng(seed)
    params = init_cond_params(dims, rng)
    for arr in (params.style_b, params.merge1_b, params.merge2_b):
        arr[...] = rng.standard_normal(arr.shape)
    track = make_track(rng, n_frames=n_frames)
    speaker = rng.standard_normal(speaker_dim)
    d_cond = rng.standard_normal((n_frames, n_mels))

    cond, cache = cond_forward_cache(track, speaker, t, params)
    oracle_cache = {}
    oracle = oracle_build_condition(track, build_style(speaker, t, params, oracle_cache), params, oracle_cache)
    assert_close_to_oracle(cond, oracle)

    grads = cond_backward(d_cond, cache, params)
    oracle_grads = oracle_cond_backward(d_cond, oracle_cache, params)
    assert grads.keys() == oracle_grads.keys()
    for name, grad in grads.items():
        assert_close_to_oracle(grad, oracle_grads[name])
