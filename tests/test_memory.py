"""Traced peak memory of the stages whose temporaries grow with input length.

Each bound holds at 20 s of 22.05 kHz audio (1723 frames at the default hop);
Griffin-Lim's peak is bounded at 2 s (173 frames) too, and the unit codebook's
k-means on the 2072 frames of eight 3 s utterances.
tracemalloc sees numpy's array allocations, so a whole-utterance temporary
that returns shows up here as a bound exceeded.
"""

import tracemalloc

import numpy as np

from prosovc.conditioning import ModelDims
from prosovc.diffusion import init_decoder_params
from prosovc.pipeline import ModelBundle, convert, load_bundle, save_bundle
from prosovc.prosody import Codebook, F0Config, extract_f0, extract_prosody, train_unit_codebook, unitize
from prosovc.signal_core import MelSpectrogram, Waveform, highpass_filter, mel_spectrogram
from prosovc.synth import toy_utterance
from prosovc.vocoder import griffin_lim, istft, mel_to_linear

MIB = 2**20
N_FRAMES = 1723  # frames of 20 s at 22.05 kHz and hop 256


def traced_peak(fn, *args):
    """Peak bytes allocated while fn(*args) runs, above what was allocated before."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


def test_highpass_filter_peak_on_20s():
    wave, _ = toy_utterance(seed=3, duration=20.0)
    # measured 3.9 MiB: the output (3.4 MiB) and one run's temporaries; a
    # whole-utterance temporary adds 3.4 MiB
    assert traced_peak(highpass_filter, wave, 50.0) < 4.2 * MIB


def test_waveform_check_peak_on_20s():
    samples = np.random.default_rng(0).standard_normal(20 * 22050)
    # the finiteness check keeps no whole-utterance temporary; np.isfinite's
    # bool mask was samples.nbytes / 8
    assert traced_peak(Waveform, samples, 22050) < samples.nbytes / 16


def test_extract_f0_peak_on_20s(mel_cfg):
    wave, _ = toy_utterance(seed=3, duration=20.0)
    assert mel_cfg.frame_count(len(wave)) == N_FRAMES
    # measured 6.8 MiB, most of it the padded signal; 256-frame FFT batches took
    # 16.6 MiB, and whole-utterance (1723, 2048) FFT arrays would take 86 MiB
    assert traced_peak(extract_f0, wave, mel_cfg) < 7.1 * MIB


def test_extract_prosody_peak_on_20s(mel_cfg):
    wave, _ = toy_utterance(seed=3, duration=20.0)
    # measured 6.8 MiB; the whole-utterance frames**2 of log energy took 16.9 MiB
    assert traced_peak(extract_prosody, wave, mel_cfg) < 7.1 * MIB


def test_mel_spectrogram_peak_on_20s(mel_cfg):
    wave, _ = toy_utterance(seed=3, duration=20.0)
    # measured 5.87 MiB: the padded signal (3.4 MiB), the (1723, 80) output (1.1 MiB),
    # one block's frames and the filterbank built on a first call; a whole (1723, 513)
    # power array took 13.7 MiB, and whole-utterance windowed frames and stft 30.3 MiB
    assert traced_peak(mel_spectrogram, wave, mel_cfg) < 6.5 * MIB


def test_train_unit_codebook_peak_on_8x3s(toy_corpus_mels):
    # measured 1.67 MiB: the pooled (2072, 80) frames (1.3 MiB) and one block's
    # distances; np.unique(axis=0)'s sorted copy and whole (2072, 100) distance
    # matrices took 7.2 MiB, and 8.3 MiB on a process's first call
    assert traced_peak(train_unit_codebook, toy_corpus_mels, 100, 0) < 1.9 * MIB


def test_unitize_peak_on_20s(mel_cfg):
    wave, _ = toy_utterance(seed=3, duration=20.0)
    mel = mel_spectrogram(wave, mel_cfg)
    codebook = Codebook(np.random.default_rng(1).standard_normal((100, mel_cfg.n_mels)))
    # measured 0.16 MiB: the labels, one block's distances and the run pairs; a
    # whole (1723, 100) distance matrix and its temporaries took 2.71 MiB
    assert traced_peak(unitize, mel, codebook) < 0.25 * MIB


def test_griffin_lim_peak_on_20s(mel_cfg):
    mag = np.random.default_rng(0).random((N_FRAMES, mel_cfg.n_bins))
    # measured 7.2 MiB on 2 CPUs: the one signal buffer (3.4 MiB) and each run's
    # buffers for 96 frames, magnitudes held in the frame buffer; two signal
    # buffers and 32-frame runs took 8.4 MiB, and a whole (1723, 513) spectrum 18.1 MiB
    assert traced_peak(griffin_lim, mag, mel_cfg, 2) < 7.5 * MIB


def test_istft_peak_on_20s(mel_cfg):
    spec = np.random.default_rng(0).random((N_FRAMES, mel_cfg.n_bins)) * np.exp(1j)
    # measured 4.52 MiB: the signal buffer (3.4 MiB) and one 96-frame block's frame
    # and staging buffers; an unwritten complex spectrum buffer per run took 5.28 MiB
    assert traced_peak(istft, spec, mel_cfg) < 4.7 * MIB


def test_griffin_lim_peak_on_2s(mel_cfg):
    mag = np.random.default_rng(0).random((173, mel_cfg.n_bins))
    # measured 3.74 MiB on 2 CPUs: each run's frame, spectrum and staging buffers
    # for its 88 frames, and the signal buffer; 32-frame runs with two signal
    # buffers took 2.38 MiB
    assert traced_peak(griffin_lim, mag, mel_cfg, 2) < 3.9 * MIB


def test_convert_peak_on_20s(trained_bundle):
    src, src_align = toy_utterance(seed=5, base_f0=150.0, duration=20.0)
    trg, _ = toy_utterance(seed=6, base_f0=220.0, duration=20.0)
    # measured 16.3 MiB on 2 CPUs, set inside griffin_lim (17.6 MiB with two signal
    # buffers); 31.4 MiB with whole-utterance analysis
    assert traced_peak(lambda: convert(src, trg, src_align, trained_bundle, gl_iters=1)) < 17.1 * MIB


def test_mel_to_linear_peak_on_20s(mel_cfg):
    values = np.random.default_rng(0).uniform(-8.0, 2.0, (N_FRAMES, mel_cfg.n_mels))
    mel = MelSpectrogram(values, mel_cfg)
    # clamping into a second (1723, 513) array: 13 MiB
    assert traced_peak(mel_to_linear, mel) < 10 * MIB


def default_bundle(mel_cfg):
    """A bundle of the default dims with a 100-unit codebook: an 825 KB checkpoint."""
    dims = ModelDims()
    params = init_decoder_params(dims, mel_cfg.n_mels, np.random.default_rng(0))
    codebook = Codebook(np.random.default_rng(1).standard_normal((100, mel_cfg.n_mels)))
    return ModelBundle(params, dims, mel_cfg, F0Config(), codebook)


def test_save_bundle_holds_the_checkpoint_once(mel_cfg, tmp_path):
    path = tmp_path / "model.pfck"
    peak = traced_peak(save_bundle, path, default_bundle(mel_cfg))
    # measured 837 KB for an 825 KB file: the block bytes once; joining them
    # into one buffer before the write held them twice (1.67 MB)
    assert peak <= 1.25 * path.stat().st_size


def test_load_bundle_holds_the_checkpoint_once(mel_cfg, tmp_path):
    path = tmp_path / "model.pfck"
    save_bundle(path, default_bundle(mel_cfg))
    peak = traced_peak(load_bundle, path)
    # measured 863 KB for an 825 KB file: the blocks once; reading the whole
    # file before copying each block out of it held the checkpoint twice (1.66 MB)
    assert peak <= 1.25 * path.stat().st_size


def test_traced_peak_sees_a_numpy_temporary():
    # the bounds above rest on tracemalloc seeing numpy's buffers
    assert traced_peak(lambda: np.ones(MIB).sum()) >= 8 * MIB
