import math

import numpy as np
import pytest

from prosovc import vocoder
from prosovc.conditioning import ENERGY_SCALE, ENERGY_SHIFT, ModelDims, cond_shapes, he_normal
from prosovc.nn import (
    affine_backward,
    conv1d,
    conv1d_input_grad,
    conv1d_param_grads,
    relu,
    relu_backward,
    tanh_backward,
)
from prosovc.pipeline import CorpusItem, train_toy
from prosovc.prosody import F0Config, ProsodyTrack
from prosovc.signal_core import FRAME_BLOCK, MelConfig, Waveform, frame_signal
from prosovc.synth import toy_utterance, write_alignment
from prosovc.vocoder import _project

SR = 22050

# frame counts that fill one block, or cross one or two block edges
BLOCK_EDGE_FRAMES = [1, 2, FRAME_BLOCK - 1, FRAME_BLOCK, FRAME_BLOCK + 1, 2 * FRAME_BLOCK + 5]
# a hop above fft_size / 2, so that reflect-padded framing takes inputs of 1 and 2 frames
WIDE_HOP = MelConfig(hop=640)


def wide_hop_noise(n_frames: int) -> Waveform:
    """Noise of n_frames WIDE_HOP frames."""
    rng = np.random.default_rng(n_frames)
    return Waveform(0.3 * rng.standard_normal((n_frames - 1) * WIDE_HOP.hop + 600), WIDE_HOP.sample_rate)


@pytest.fixture(scope="session")
def mel_cfg():
    return MelConfig()


# the band count that goes with tiny_dims
TINY_N_MELS = 4


@pytest.fixture(scope="session")
def tiny_dims():
    # with TINY_N_MELS bands, small enough for exhaustive gradient checking (<2k parameters)
    return ModelDims(speaker_dim=6, t_embed_dim=6, style_dim=6, cond_hidden=6, dec_hidden=6)


# -- test signals and parameters -------------------------------------------------

def force_runs(monkeypatch, count: int) -> None:
    """Make `_wola_pass` cut its signal rows into `count` runs where there are
    frames enough, past MAX_RUNS too, so the split is tested for more runs than it uses."""
    monkeypatch.setattr(vocoder, "_cpu_count", lambda: count)
    monkeypatch.setattr(vocoder, "MAX_RUNS", count)


def sine_wave(freq: float, duration: float, sample_rate: int = 22050, amplitude: float = 0.5) -> Waveform:
    t = np.arange(int(round(duration * sample_rate))) / sample_rate
    return Waveform(amplitude * np.sin(2.0 * np.pi * freq * t), sample_rate)


def sawtooth_wave(freq: float, duration: float, sample_rate: int = 22050, amplitude: float = 0.5) -> Waveform:
    t = np.arange(int(round(duration * sample_rate))) / sample_rate
    return Waveform(amplitude * (2.0 * ((freq * t) % 1.0) - 1.0), sample_rate)


def white_noise(duration: float, sample_rate: int = 22050, seed: int = 0, amplitude: float = 0.3) -> Waveform:
    rng = np.random.default_rng(seed)
    return Waveform(amplitude * rng.standard_normal(int(round(duration * sample_rate))), sample_rate)


def silence(duration: float, sample_rate: int = 22050) -> Waveform:
    return Waveform(np.zeros(int(round(duration * sample_rate))), sample_rate)


def init_cond_weights(dims: ModelDims, n_mels: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    return he_normal(cond_shapes(dims, n_mels), rng)


def record_network_dtypes(monkeypatch, module) -> set:
    """Patch module.predict_noise to collect the dtypes of the state, condition and weights it is given."""
    seen = set()
    real = module.predict_noise

    def recording(x_t, condition, params, cache=None):
        seen.update(arr.dtype for arr in (x_t, condition, *params.weights.values()))
        return real(x_t, condition, params, cache)

    monkeypatch.setattr(module, "predict_noise", recording)
    return seen


def project_magnitude(rebuilt: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """vocoder._project with fresh buffers."""
    return _project(rebuilt, mag, np.empty(rebuilt.shape))


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

def pad_frames(x, w):
    """x with the zero columns conv1d with weights w reads on each side, by np.pad."""
    pad = w.shape[2] // 2
    return np.pad(x, ((0, 0), (pad, pad)))


def conv1d_backward(w, xp, dy):
    """Gradients (dw, db, dx) of conv1d over the zero-padded input xp given upstream dy."""
    return (*conv1d_param_grads(w, xp, dy), conv1d_input_grad(w, dy))


def oracle_build_condition(track, style, weights, cache=None):
    """build_condition with merge1 convolving [logF0, energy, style repeated per frame]."""
    x = np.empty((2 + len(style), track.n_frames))
    x[0] = track.log_f0
    x[1] = (track.log_energy + ENERGY_SHIFT) / ENERGY_SCALE
    x[2:] = style[:, None]
    x = pad_frames(x, weights["cond.merge1_w"])
    pre1 = conv1d(weights["cond.merge1_w"], weights["cond.merge1_b"], x)
    h = pad_frames(relu(pre1), weights["cond.merge2_w"])
    if cache is not None:
        cache.update(x=x, pre1=pre1, h=h)
    return conv1d(weights["cond.merge2_w"], weights["cond.merge2_b"], h).T


def oracle_cond_backward(d_cond, cache, weights):
    """cond_backward through merge1's full input gradient, summed over the style rows."""
    dm2w, dm2b, dh = conv1d_backward(weights["cond.merge2_w"], cache["h"], d_cond.T)
    dpre1 = relu_backward(cache["pre1"], dh)
    dm1w, dm1b, dx = conv1d_backward(weights["cond.merge1_w"], cache["x"], dpre1)
    ds_lin = tanh_backward(cache["style"], dx[2:].sum(axis=1))
    dsw, dsb, _ = affine_backward(weights["cond.style_w"], cache["s_in"], ds_lin)
    return {"cond.style_w": dsw, "cond.style_b": dsb, "cond.merge1_w": dm1w, "cond.merge1_b": dm1b,
            "cond.merge2_w": dm2w, "cond.merge2_b": dm2b}


def assert_close_to_oracle(ours, oracle, rtol=1e-12):
    """Equal up to rounding: within rtol, with an absolute floor of rtol * max|oracle| near zero."""
    assert ours.shape == oracle.shape
    np.testing.assert_allclose(ours, oracle, rtol=rtol, atol=rtol * float(np.abs(oracle).max()))


# -- oracle: YIN over the whole utterance as one batch of frames -------------------

def reference_extract_f0(wave, mel_cfg, f0_cfg=F0Config()):
    """extract_f0 with the difference function of every frame computed at once
    and the lag of each frame picked by a per-frame loop."""
    n = len(wave)
    sr = wave.sample_rate
    tau_min = max(2, int(math.ceil(sr / f0_cfg.f0_max)))
    tau_max = int(math.floor(sr / f0_cfg.f0_min))

    w = tau_max
    seg_len = 2 * tau_max
    n_frames = mel_cfg.frame_count(n)
    frames = frame_signal(wave.samples, seg_len, mel_cfg.hop, "constant")

    sq = np.concatenate([np.zeros((n_frames, 1)), np.cumsum(frames**2, axis=1)], axis=1)
    energy = sq[:, w:w + tau_max + 1] - sq[:, :tau_max + 1]
    rms = np.sqrt(sq[:, -1] / seg_len)
    head_rms = np.sqrt(energy[:, 0] / w)

    fft_n = 1 << int(math.ceil(math.log2(2 * tau_max)))
    head = np.zeros_like(frames)
    head[:, :w] = frames[:, :w]
    corr = np.fft.irfft(np.conj(np.fft.rfft(head, fft_n)) * np.fft.rfft(frames, fft_n), fft_n)
    corr = corr[:, :tau_max + 1]

    diff = np.maximum(energy[:, :1] + energy - 2.0 * corr, 0.0)
    cums = np.cumsum(diff[:, 1:], axis=1)
    taus = np.arange(1, tau_max + 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        cmndf = np.where(cums > 0, diff[:, 1:] * taus / cums, 1.0)
    cmndf = np.concatenate([np.ones((n_frames, 1)), cmndf], axis=1)

    f0 = np.zeros(n_frames)
    voiced = np.zeros(n_frames, dtype=bool)
    lag_lo, lag_hi = sr / f0_cfg.f0_max, sr / f0_cfg.f0_min
    for i in range(n_frames):
        if rms[i] <= f0_cfg.rms_floor or head_rms[i] <= f0_cfg.rms_floor:
            continue
        row = cmndf[i]
        below = row[tau_min:tau_max + 1] < f0_cfg.yin_threshold
        if not below.any():
            continue
        tau = tau_min + int(np.argmax(below))
        while tau + 1 <= tau_max and row[tau + 1] < row[tau]:
            tau += 1
        lag = float(tau)
        if tau_min < tau < tau_max:
            dm, d0, dp = row[tau - 1], row[tau], row[tau + 1]
            denom = dm - 2.0 * d0 + dp
            if denom > 0:
                shift = 0.5 * (dm - dp) / denom
                if abs(shift) <= 1.0:
                    lag += shift
        lag = min(max(lag, lag_lo), lag_hi)
        f0[i] = sr / lag
        voiced[i] = True
    return f0, voiced
