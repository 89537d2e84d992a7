import numpy as np
import pytest

from prosovc.conditioning import ModelDims
from prosovc.diffusion import (
    NoiseSchedule,
    init_decoder_params,
    named_parameters,
    param_shapes,
    params_from_named,
)
from prosovc.errors import UnreadableFile
from prosovc.formats import read_pfck, write_pfck
from prosovc import pipeline
from prosovc.pipeline import ModelBundle, load_bundle, save_bundle
from prosovc.prosody import Codebook, F0Config
from prosovc.signal_core import MelConfig

# Non-default values that float32 storage represents exactly.
DIMS = ModelDims(n_mels=40, speaker_dim=6, t_embed_dim=4, style_dim=5, cond_hidden=3, dec_hidden=7)
MEL_CFG = MelConfig(sample_rate=16000, fft_size=512, hop=128, window=400, n_mels=40,
                    fmin=62.5, fmax=7000.0, log_floor=2.0 ** -30)
F0_CFG = F0Config(f0_min=62.5, f0_max=500.0, yin_threshold=0.125, rms_floor=2.0 ** -12)
CODEBOOK = Codebook(np.arange(80.0).reshape(2, 40) / 8.0)


@pytest.fixture
def ckpt_path(tmp_path):
    params = init_decoder_params(DIMS, np.random.default_rng(0), input_shift=-4.5, input_scale=2.25)
    bundle = ModelBundle(params, NoiseSchedule(12, 0.125, 24.0), MEL_CFG, F0_CFG, CODEBOOK)
    path = tmp_path / "b.pfck"
    save_bundle(path, bundle)
    return path


def test_bundle_config_roundtrip(ckpt_path):
    loaded = load_bundle(ckpt_path)
    expected = (DIMS, MEL_CFG, F0_CFG, NoiseSchedule(12, 0.125, 24.0))
    for got, want in zip((loaded.dims, loaded.mel_cfg, loaded.f0_cfg, loaded.sched), expected):
        assert got == want
        # int fields come back as int, not numpy scalars
        assert [type(v) for v in vars(got).values()] == [type(v) for v in vars(want).values()]
    assert (loaded.params.input_shift, loaded.params.input_scale) == (-4.5, 2.25)


def test_bundle_params_roundtrip_bitwise(tmp_path):
    # weights that float32 represents exactly come back bit for bit
    rng = np.random.default_rng(3)
    named = {name: rng.standard_normal(shape).astype(np.float32).astype(np.float64)
             for name, shape in param_shapes(DIMS).items()}
    params = params_from_named(named, DIMS, input_shift=-4.5, input_scale=2.25)
    path = tmp_path / "b.pfck"
    save_bundle(path, ModelBundle(params, NoiseSchedule(12, 0.125, 24.0), MEL_CFG, F0_CFG, CODEBOOK))
    loaded = load_bundle(path).params
    reloaded = named_parameters(loaded)
    assert list(reloaded) == list(named)
    for name, arr in named.items():
        assert reloaded[name].dtype == arr.dtype and reloaded[name].shape == arr.shape
        assert reloaded[name].tobytes() == arr.tobytes()
    assert (loaded.input_shift, loaded.input_scale) == (-4.5, 2.25)


def test_meta_blocks_follow_field_order(ckpt_path):
    blocks = read_pfck(ckpt_path)
    assert blocks["meta.dims"].tolist() == [40, 6, 4, 5, 3, 7]
    assert blocks["meta.schedule"].tolist() == [12, 0.125, 24.0]
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
    ("meta.dims", _set_first(0.0)),
    ("meta.schedule", _set_first(0.0)),
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
], ids=["missing", "missing-norm", "wrong-length", "rejected-value", "rejected-schedule",
        "nan-int", "inf-int", "missing-param", "misshaped-param", "nan-param",
        "1d-centroids", "nan-centroids", "narrow-centroids", "zero-scale", "missing-centroids"])
def test_malformed_meta_block_is_unreadable(ckpt_path, block, mutate):
    blocks = read_pfck(ckpt_path)
    mutate(blocks, block)
    write_pfck(ckpt_path, blocks)
    with pytest.raises(UnreadableFile, match=f"checkpoint block {block}"):
        load_bundle(ckpt_path)


def test_dims_and_melcfg_disagreeing_on_n_mels_is_unreadable(tmp_path):
    # the codebook matches meta.melcfg; only meta.dims holds the other band count
    params = init_decoder_params(DIMS, np.random.default_rng(0), input_shift=-4.5, input_scale=2.25)
    path = tmp_path / "b.pfck"
    save_bundle(path, ModelBundle(params, NoiseSchedule(), MelConfig(), F0_CFG,
                                  Codebook(np.zeros((2, MelConfig().n_mels)))))
    with pytest.raises(UnreadableFile, match="checkpoint block meta.dims has n_mels 40, meta.melcfg has 80"):
        load_bundle(path)


def test_convert_rejects_negative_gl_iters_before_any_work(trained_bundle, conversion_pair, monkeypatch):
    def analysis_reached(*args, **kwargs):
        raise AssertionError("convert analysed its inputs before checking gl_iters")

    monkeypatch.setattr(pipeline, "extract_features", analysis_reached)
    src, src_align, trg = conversion_pair
    with pytest.raises(ValueError, match="gl_iters"):
        pipeline.convert(src, trg, src_align, trained_bundle, gl_iters=-1)
