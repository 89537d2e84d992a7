import math
import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import TINY_N_MELS, force_runs, make_track, record_network_dtypes
from prosovc.conditioning import ModelDims, build_condition, build_style
from prosovc import diffusion
from prosovc.diffusion import (
    N_STEPS,
    DecoderParams,
    TrainBatch,
    init_decoder_params,
    param_shapes,
    predict_noise,
    reverse_sample,
    train_step,
)
from prosovc.encoders import average_mel_target, speaker_embedding
from prosovc.errors import NonFiniteLoss, NonFiniteSample, ShapeMismatch, UnreadableFile
from prosovc.formats import read_pfck, write_pfck
from prosovc import pipeline
from prosovc.pipeline import ModelBundle, load_bundle, save_bundle
from prosovc.prosody import Codebook, F0Config
from prosovc.signal_core import MelConfig
from prosovc.synth import toy_utterance
from prosovc.transform import ModulationSpec

# Non-default values of every config.
DIMS = ModelDims(speaker_dim=6, t_embed_dim=4, style_dim=5, cond_hidden=3, dec_hidden=7)
MEL_CFG = MelConfig(sample_rate=16000, fft_size=512, hop=128, window=400, n_mels=40,
                    fmin=62.5, fmax=7000.0, log_floor=2.0 ** -30)
F0_CFG = F0Config(f0_min=62.5, f0_max=500.0, yin_threshold=0.125, rms_floor=2.0 ** -12)
CODEBOOK = Codebook(np.arange(80.0).reshape(2, 40) / 8.0)


@pytest.fixture
def ckpt_path(tmp_path):
    params = init_decoder_params(DIMS, MEL_CFG.n_mels, np.random.default_rng(0), input_shift=-4.5, input_scale=2.25)
    bundle = ModelBundle(params, DIMS, MEL_CFG, F0_CFG, CODEBOOK)
    path = tmp_path / "b.pfck"
    save_bundle(path, bundle)
    return path


def test_bundle_config_roundtrip(ckpt_path):
    loaded = load_bundle(ckpt_path)
    expected = (DIMS, MEL_CFG, F0_CFG)
    for got, want in zip((loaded.dims, loaded.mel_cfg, loaded.f0_cfg), expected):
        assert got == want
        # int fields come back as int, not numpy scalars
        assert [type(v) for v in vars(got).values()] == [type(v) for v in vars(want).values()]
    assert (loaded.params.input_shift, loaded.params.input_scale) == (-4.5, 2.25)


def test_bundle_params_roundtrip_bitwise(tmp_path):
    # any float64 weights and configs come back bit for bit, float32-representable or not,
    # at the 40 bands of MEL_CFG and at 8 bands with tiny dims
    rng = np.random.default_rng(3)
    tiny = ModelDims(speaker_dim=2, t_embed_dim=2, style_dim=3, cond_hidden=2, dec_hidden=3)
    for dims, n_mels in ((DIMS, MEL_CFG.n_mels), (tiny, 8)):
        named = {name: rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
                 for name, shape in param_shapes(dims, n_mels).items()}
        params = DecoderParams(named, input_shift=0.1, input_scale=1e300)
        mel_cfg = replace(MEL_CFG, n_mels=n_mels, fmin=0.1, fmax=7000.3, log_floor=1e-10)
        f0_cfg = F0Config(f0_min=60.1, f0_max=500.7, yin_threshold=0.1, rms_floor=1e-45)
        codebook = Codebook(rng.standard_normal((3, n_mels)) / 3.0)
        path = tmp_path / f"b{n_mels}.pfck"
        save_bundle(path, ModelBundle(params, dims, mel_cfg, f0_cfg, codebook))
        loaded = load_bundle(path)
        reloaded = loaded.params.weights
        assert list(reloaded) == list(named)
        for name, arr in named.items():
            assert reloaded[name].dtype == arr.dtype and reloaded[name].shape == arr.shape
            assert reloaded[name].tobytes() == arr.tobytes()
        assert (loaded.params.input_shift, loaded.params.input_scale) == (0.1, 1e300)
        assert (loaded.dims, loaded.mel_cfg, loaded.f0_cfg) == (dims, mel_cfg, f0_cfg)
        assert loaded.codebook.centroids.tobytes() == codebook.centroids.tobytes()


def test_a_reloaded_trained_bundle_converts_bit_for_bit(trained_bundle, conversion_pair, tmp_path):
    path = tmp_path / "b.pfck"
    save_bundle(path, trained_bundle)
    src, src_align, trg = conversion_pair
    results = [pipeline.convert(src, trg, src_align, bundle, gl_iters=2)
               for bundle in (trained_bundle, load_bundle(path))]
    assert results[0].wave.samples.tobytes() == results[1].wave.samples.tobytes()
    assert results[0].mel.values.tobytes() == results[1].mel.values.tobytes()


def test_meta_blocks_follow_field_order(ckpt_path):
    blocks = read_pfck(ckpt_path)
    assert blocks["meta.dims"].tolist() == [6, 4, 5, 3, 7]
    assert blocks["meta.melcfg"].tolist() == [16000, 512, 128, 400, 40, 62.5, 7000.0, 2.0 ** -30]
    assert blocks["meta.f0cfg"].tolist() == [62.5, 500.0, 0.125, 2.0 ** -12]


def _drop(blocks, name):
    del blocks[name]


def _shorten(blocks, name):
    blocks[name] = blocks[name][:-1]


def _flatten(blocks, name):
    blocks[name] = blocks[name].reshape(-1)


def _narrow(blocks, name):
    blocks[name] = blocks[name][:, :-1]


def _prepend_n_mels(blocks, name):
    # the layout that stored n_mels first in meta.dims as well as in meta.melcfg
    blocks[name] = np.concatenate([[MEL_CFG.n_mels], blocks[name]])


def _zero_scale(blocks, name):
    blocks[name] = np.array([blocks[name][0], 0.0])


def _set_first(value):
    def mutate(blocks, name):
        blocks[name] = blocks[name].copy()
        blocks[name][0] = value
    return mutate


@pytest.mark.parametrize("block, mutate", [
    ("meta.melcfg", _drop),
    ("meta.input_norm", _drop),
    ("meta.f0cfg", _shorten),
    ("meta.dims", _prepend_n_mels),
    ("meta.dims", _set_first(0.0)),
    ("meta.melcfg", _set_first(np.nan)),
    ("meta.dims", _set_first(np.inf)),
    ("param.dec.w1", _drop),
    ("param.cond.merge1_w", _shorten),
    ("param.dec.w3", _set_first(np.nan)),
    ("codebook.centroids", _flatten),
    ("codebook.centroids", _set_first(np.nan)),
    ("codebook.centroids", _narrow),
    ("meta.input_norm", _zero_scale),
    ("codebook.centroids", _drop),
], ids=["missing", "missing-norm", "wrong-length", "n_mels-in-dims", "rejected-value",
        "nan-int", "inf-int", "missing-param", "misshaped-param", "nan-param",
        "1d-centroids", "nan-centroids", "narrow-centroids", "zero-scale", "missing-centroids"])
def test_malformed_meta_block_is_unreadable(ckpt_path, block, mutate):
    blocks = read_pfck(ckpt_path)
    mutate(blocks, block)
    write_pfck(ckpt_path, blocks)
    with pytest.raises(UnreadableFile, match=f"checkpoint block {block}"):
        load_bundle(ckpt_path)


# (block, position, name) of every int field of every meta block
INT_FIELDS = [(block, i, f.name) for block, (_, cls) in pipeline._META.items()
              for i, f in enumerate(fields(cls)) if f.type == "int"]


@pytest.mark.parametrize("block, index, field", INT_FIELDS, ids=[f"{b}.{f}" for b, _, f in INT_FIELDS])
def test_a_non_integral_int_field_is_unreadable(ckpt_path, block, index, field):
    blocks = read_pfck(ckpt_path)
    blocks[block] = blocks[block].copy()
    blocks[block][index] += 0.5
    write_pfck(ckpt_path, blocks)
    message = rf"^checkpoint block {block} is invalid: {field} \d+\.5 is not an integer$"
    with pytest.raises(UnreadableFile, match=message):
        load_bundle(ckpt_path)


def test_dims_and_melcfg_disagreeing_on_n_mels_is_unreadable(tmp_path):
    # the codebook matches meta.melcfg; only the weights are shaped for the other band count
    mel_cfg = MelConfig()
    params = init_decoder_params(DIMS, mel_cfg.n_mels // 2, np.random.default_rng(0),
                                 input_shift=-4.5, input_scale=2.25)
    path = tmp_path / "b.pfck"
    save_bundle(path, ModelBundle(params, DIMS, mel_cfg, F0_CFG, Codebook(np.zeros((2, mel_cfg.n_mels)))))
    with pytest.raises(UnreadableFile, match=r"^checkpoint block param\.dec\.w1 is missing or not of shape "
                                             r"\(7, 160, 3\)$"):
        load_bundle(path)


@pytest.mark.parametrize("extra", ["param.dec.w4", "meta.sigma"])
def test_a_block_outside_the_schema_is_unreadable(ckpt_path, extra):
    # save_bundle never writes one; a file of another schema must not load with the block ignored
    blocks = read_pfck(ckpt_path)
    blocks[extra] = np.ones(3)
    write_pfck(ckpt_path, blocks)
    with pytest.raises(UnreadableFile) as exc:
        load_bundle(ckpt_path)
    assert str(exc.value) == f"checkpoint block {extra} is not part of the schema"


@pytest.mark.parametrize("block", pipeline._META)
def test_every_meta_field_is_annotated_int_or_float(block):
    # _cast reads a field annotated "float" as float and any other as int
    _, cls = pipeline._META[block]
    assert {f.name: f.type for f in fields(cls) if f.type not in ("int", "float")} == {}


def analysis_reached(*args, **kwargs):
    raise AssertionError("the inputs were analysed before the arguments were checked")


def test_convert_rejects_negative_gl_iters_before_any_work(trained_bundle, conversion_pair, monkeypatch):
    monkeypatch.setattr(pipeline, "extract_features", analysis_reached)
    src, src_align, trg = conversion_pair
    with pytest.raises(ValueError, match="gl_iters"):
        pipeline.convert(src, trg, src_align, trained_bundle, gl_iters=-1)


@pytest.mark.parametrize("lr", [math.nan, math.inf, 0.0, -1.0])
def test_train_toy_rejects_a_bad_lr_before_any_work(demo_corpus, lr, monkeypatch):
    monkeypatch.setattr(pipeline, "extract_features", analysis_reached)
    _, items = demo_corpus
    with pytest.raises(ValueError, match="lr must be finite and > 0"):
        pipeline.train_toy(items, epochs=1, seed=0, lr=lr)


def test_train_toy_steps_on_each_utterance_with_a_same_speaker_vector(demo_corpus, monkeypatch):
    # each step's example is its own utterance's mel, prior and prosody, with the speaker
    # vector of an utterance by the same speaker, itself included
    _, items = demo_corpus
    mel_cfg, f0_cfg, speaker_dim = MelConfig(), F0Config(), ModelDims().speaker_dim
    own = []
    for item in items:
        mel, track = pipeline.extract_features(item.wave, mel_cfg, f0_cfg)
        own.append((mel.values, average_mel_target(mel, item.align).values, track,
                    speaker_embedding(mel, speaker_dim)))
    batches = []
    real_step = pipeline.train_step

    def recording(batch, *args):
        batches.append(batch)
        return real_step(batch, *args)

    monkeypatch.setattr(pipeline, "train_step", recording)
    epochs = 2
    pipeline.train_toy(items, epochs=epochs, seed=4, kmeans_k=8)
    assert len(batches) == epochs * len(items)
    seen = []
    for batch in batches:
        [idx] = [i for i, (x0, *_) in enumerate(own) if np.array_equal(batch.x0, x0)]
        seen.append(idx)
        _, prior, track, _ = own[idx]
        assert np.array_equal(batch.prior, prior)
        for name in ("log_f0", "voiced", "log_energy"):
            assert np.array_equal(getattr(batch.prosody, name), getattr(track, name))
        mates = [i for i, item in enumerate(items) if item.speaker == items[idx].speaker]
        assert any(np.array_equal(batch.speaker, own[i][3]) for i in mates)
    assert sorted(seen) == sorted(list(range(len(items))) * epochs)


@pytest.fixture(params=[None, 1e-6], ids=["default-switch", "switch-often"])
def switch_interval(request):
    # at 1e-6 s, threads switch as often as the interpreter allows, to shake out
    # any ordering between the calling thread and the training worker
    before = sys.getswitchinterval()
    sys.setswitchinterval(request.param or before)
    yield
    sys.setswitchinterval(before)


def trained_bytes(items, tmp_path, name):
    bundle, losses = pipeline.train_toy(items, epochs=2, seed=4, kmeans_k=8)
    save_bundle(tmp_path / name, bundle)
    return losses, (tmp_path / name).read_bytes()


def test_train_toy_is_bit_for_bit_on_one_and_two_cpus(demo_corpus, tmp_path, monkeypatch, switch_interval):
    _, items = demo_corpus
    force_runs(monkeypatch, 1)
    one_cpu = trained_bytes(items, tmp_path, "one.pfck")
    force_runs(monkeypatch, 2)
    threads = set()
    real_noised = diffusion._noised

    def recording(*args):
        threads.add(threading.current_thread())
        return real_noised(*args)

    monkeypatch.setattr(diffusion, "_noised", recording)
    assert trained_bytes(items, tmp_path, "two.pfck") == one_cpu
    # the noise was drawn on the training worker, not inline
    assert len(threads) == 1 and threading.main_thread() not in threads


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_weight_gradient_overflow_ends_as_on_one_cpu(tiny_dims, monkeypatch, cpus):
    # the loss is finite, but dec.w1's gradient, a job of the training worker on 2 CPUs,
    # overflows: the job runs under train_step's errstate, so it warns of nothing
    rng = np.random.default_rng(12)
    n_frames = 12
    batch = TrainBatch(rng.standard_normal((n_frames, TINY_N_MELS)), rng.standard_normal((n_frames, TINY_N_MELS)),
                       make_track(rng, n_frames=n_frames), rng.standard_normal(tiny_dims.speaker_dim))
    params = init_decoder_params(tiny_dims, TINY_N_MELS, rng, input_scale=1e-300)
    params.weights["dec.w1"][:, :TINY_N_MELS] *= 1e-300  # the layer's state rows read 1e300-sized inputs
    params.weights["dec.b3"][:] = 1e11  # a 1e22 loss, and a large upstream gradient
    force_runs(monkeypatch, cpus)
    with pipeline._training_pool() as pool:
        with pytest.raises(NonFiniteLoss, match=r"^parameter dec\.w1 left the float32 range$"):
            train_step(batch, params, 1e-3, np.random.default_rng(0), pool)


def test_a_failed_noise_job_raises_its_error_on_one_and_two_cpus(tiny_dims, monkeypatch):
    # the noise job fails in forward_diffuse: inline on one CPU, on the training worker on two
    rng = np.random.default_rng(13)
    batch = TrainBatch(rng.standard_normal((12, TINY_N_MELS)), rng.standard_normal((13, TINY_N_MELS)),
                       make_track(rng, n_frames=12), rng.standard_normal(tiny_dims.speaker_dim))
    params = init_decoder_params(tiny_dims, TINY_N_MELS, rng)
    states = []
    for cpus in (1, 2):
        force_runs(monkeypatch, cpus)
        step_rng = np.random.default_rng(0)
        with pipeline._training_pool() as pool:
            with pytest.raises(ShapeMismatch, match=r"^x0 \(12, 4\), prior \(13, 4\), eps \(12, 4\) must match$"):
                train_step(batch, params, 1e-3, step_rng, pool)
        states.append(step_rng.bit_generator.state)
    assert states[0] == states[1]


# -- decoder precision: float32 network at inference, float64 in training -------------

@pytest.fixture(scope="module")
def conversion_plan(trained_bundle, conversion_pair):
    src, src_align, trg = conversion_pair
    src_features, trg_features = (pipeline.extract_features(wave, trained_bundle.mel_cfg, trained_bundle.f0_cfg)
                                  for wave in (src, trg))
    return pipeline.plan_synthesis(src_features, trg_features, src_align, trained_bundle, [ModulationSpec()])


def float64_decode(plan, bundle):
    """decode with the network on the bundle's float64 weights: the oracle of the float32 decoder."""
    params = bundle.params

    def denoise(x_t, t):
        cond = build_condition(plan.requested[0], build_style(plan.speaker, t, params.weights), params.weights)
        return predict_noise(x_t, cond, params)

    sampled = reverse_sample(plan.prior.values, denoise)
    return np.clip(sampled, np.log(bundle.mel_cfg.log_floor), pipeline.MEL_LOG_CEIL)


def test_decode_runs_the_network_in_float32_and_training_keeps_float64(trained_bundle, conversion_plan,
                                                                       monkeypatch):
    seen = record_network_dtypes(monkeypatch, pipeline)
    mel = pipeline.decode(conversion_plan, conversion_plan.requested[0], trained_bundle)
    assert seen == {np.dtype(np.float32)}
    assert mel.values.dtype == np.float64
    assert {arr.dtype for arr in trained_bundle.params.weights.values()} == {np.dtype(np.float64)}


def test_float32_decode_stays_near_the_float64_oracle(trained_bundle, conversion_plan):
    decoded = pipeline.decode(conversion_plan, conversion_plan.requested[0], trained_bundle)
    drift = np.abs(decoded.values - float64_decode(conversion_plan, trained_bundle)).max()
    # measured 7.1e-4 at these 173 frames (3-epoch toy bundle)
    assert 0 < drift < 2e-3


def test_convert_seed_does_not_reach_the_decoded_mel(trained_bundle, conversion_pair):
    # the sampler draws no noise: the seed reaches only Griffin-Lim's start phase
    src, src_align, trg = conversion_pair
    mels = [pipeline.convert(src, trg, src_align, trained_bundle, seed=seed, gl_iters=0).mel.values
            for seed in (0, 1)]
    assert np.array_equal(*mels)


@pytest.mark.parametrize("base_f0", [140.0, 230.0])
def test_no_voiced_frame_reads_far_above_the_base_f0(mel_cfg, base_f0):
    # onset frames after a pause have a near-silent head, where YIN's difference
    # function is rounding noise: they must read unvoiced, not at a random F0
    for seed in range(8):
        wave, _ = toy_utterance(seed, base_f0=base_f0, duration=3.0)
        track = pipeline.analyse_prosody(wave, mel_cfg, F0Config())
        assert track.voiced.any()
        assert np.exp(track.log_f0[track.voiced]).max() < 1.25 * base_f0


def test_a_float32_only_overflow_ends_as_non_finite_sample_at_its_step(trained_bundle, conversion_plan,
                                                                      tmp_path, monkeypatch):
    # relu is positively homogeneous, so w2 and b2 scaled up by 1e38 and w3 down by as much leave the
    # exact network unchanged; float32 overflows in layer 2, float64 does not
    weights = trained_bundle.params.weights
    scaled = replace(trained_bundle.params, weights=weights | {"dec.w2": weights["dec.w2"] * 1e38,
                                                               "dec.b2": weights["dec.b2"] * 1e38,
                                                               "dec.w3": weights["dec.w3"] / 1e38})
    path = tmp_path / "scaled.pfck"
    save_bundle(path, replace(trained_bundle, params=scaled))
    bundle = load_bundle(path)
    assert np.isfinite(float64_decode(conversion_plan, bundle)).all()

    finite_steps = []
    real = pipeline.predict_noise

    def recording(x_t, condition, params, cache=None):
        eps_hat = real(x_t, condition, params, cache)
        finite_steps.append(bool(np.isfinite(eps_hat).all()))
        return eps_hat

    monkeypatch.setattr(pipeline, "predict_noise", recording)
    with pytest.raises(NonFiniteSample) as info:
        pipeline.decode(conversion_plan, conversion_plan.requested[0], bundle)
    step = finite_steps.index(False) + 1
    assert len(finite_steps) == step
    assert f"after step {step} of {N_STEPS} " in str(info.value)
