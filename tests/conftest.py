import numpy as np
import pytest

from prosovc.conditioning import ENERGY_SCALE, ENERGY_SHIFT, ModelDims
from prosovc.nn import affine_backward, conv1d, conv1d_backward, relu, relu_backward, tanh_backward
from prosovc.pipeline import CorpusItem, train_toy
from prosovc.prosody import ProsodyTrack
from prosovc.signal_core import MelConfig
from prosovc.synth import toy_utterance, write_alignment

SR = 22050


@pytest.fixture(scope="session")
def mel_cfg():
    return MelConfig()


@pytest.fixture(scope="session")
def tiny_dims():
    # small enough for exhaustive gradient checking (<2k parameters)
    return ModelDims(n_mels=4, speaker_dim=6, t_embed_dim=6, style_dim=6,
                     cond_hidden=6, dec_hidden=6)


def make_track(rng, n_frames=32, base_log_f0=5.3, voiced_prob=0.7):
    voiced = rng.random(n_frames) < voiced_prob
    if not voiced.any():
        voiced[0] = True
    log_f0 = np.where(voiced, base_log_f0 + 0.2 * rng.standard_normal(n_frames), 0.0)
    log_energy = -4.0 + rng.standard_normal(n_frames)
    return ProsodyTrack(log_f0, voiced, log_energy)


@pytest.fixture(scope="session")
def demo_corpus(tmp_path_factory):
    """Four synthetic utterances (2 speakers) written as wav + alignment files."""
    root = tmp_path_factory.mktemp("corpus")
    from prosovc.signal_core import save_wav

    items = []
    for spk, (f0, tilt) in enumerate([(140.0, 0.0), (210.0, 0.5)]):
        for utt in range(2):
            wave, align = toy_utterance(seed=10 * spk + utt, base_f0=f0, duration=2.0, tilt=tilt)
            name = f"spk{spk}_utt{utt}"
            save_wav(wave, root / f"{name}.wav")
            write_alignment(align, root / f"{name}.tsv")
            items.append(CorpusItem(name, f"spk{spk}", wave, align))
    return root, items


@pytest.fixture(scope="session")
def trained_bundle(demo_corpus):
    _, items = demo_corpus
    bundle, losses = train_toy(items, epochs=3, seed=1)
    return bundle


@pytest.fixture(scope="session")
def conversion_pair():
    src, src_align = toy_utterance(seed=100, base_f0=150.0, duration=2.0)
    trg, _ = toy_utterance(seed=200, base_f0=220.0, duration=2.0, tilt=0.4)
    return src, src_align, trg


# -- oracles: merge1 as one conv1d over the style broadcast to every frame ----------

def oracle_build_condition(track, style, params, cache=None):
    """build_condition with merge1 convolving [logF0, energy, style repeated per frame]."""
    x = np.empty((2 + len(style), track.n_frames))
    x[0] = track.log_f0
    x[1] = (track.log_energy + ENERGY_SHIFT) / ENERGY_SCALE
    x[2:] = style[:, None]
    pre1 = conv1d(params.merge1_w, params.merge1_b, x)
    h = relu(pre1)
    if cache is not None:
        cache.update(x=x, pre1=pre1, h=h)
    return conv1d(params.merge2_w, params.merge2_b, h).T


def oracle_cond_backward(d_cond, cache, params):
    """cond_backward through merge1's full input gradient, summed over the style rows."""
    dm2w, dm2b, dh = conv1d_backward(params.merge2_w, cache["h"], d_cond.T)
    dpre1 = relu_backward(cache["pre1"], dh)
    dm1w, dm1b, dx = conv1d_backward(params.merge1_w, cache["x"], dpre1)
    ds_lin = tanh_backward(cache["style"], dx[2:].sum(axis=1))
    dsw, dsb, _ = affine_backward(params.style_w, cache["s_in"], ds_lin)
    return {"style_w": dsw, "style_b": dsb, "merge1_w": dm1w, "merge1_b": dm1b,
            "merge2_w": dm2w, "merge2_b": dm2b}


def assert_close_to_oracle(ours, oracle, rtol=1e-12):
    """Equal up to rounding: within rtol, with an absolute floor of rtol * max|oracle| near zero."""
    assert ours.shape == oracle.shape
    np.testing.assert_allclose(ours, oracle, rtol=rtol, atol=rtol * float(np.abs(oracle).max()))
