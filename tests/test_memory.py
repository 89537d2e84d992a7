"""Traced peak memory of the stages whose temporaries grow with input length.

Each bound holds at 20 s of 22.05 kHz audio (1723 frames at the default hop).
tracemalloc sees numpy's array allocations, so a whole-utterance temporary
that returns shows up here as a bound exceeded.
"""

import tracemalloc

import numpy as np

from prosovc.prosody import extract_f0
from prosovc.signal_core import MelSpectrogram
from prosovc.synth import toy_utterance
from prosovc.vocoder import griffin_lim, mel_to_linear

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


def test_extract_f0_peak_on_20s(mel_cfg):
    wave, _ = toy_utterance(seed=3, duration=20.0)
    assert mel_cfg.frame_count(len(wave)) == N_FRAMES
    # whole-utterance (1723, 2048) FFT arrays would take 86 MiB
    assert traced_peak(extract_f0, wave, mel_cfg) < 30 * MIB


def test_griffin_lim_peak_on_20s(mel_cfg):
    mag = np.random.default_rng(0).random((N_FRAMES, mel_cfg.n_bins))
    # measured 18.1 MiB: the spectrum (13.5 MiB), the signal blocks (3.4 MiB) and
    # one block of frames; whole-utterance frame, amplitude and mask arrays took 41.7 MiB
    assert traced_peak(griffin_lim, mag, mel_cfg, 2) < 19 * MIB


def test_mel_to_linear_peak_on_20s(mel_cfg):
    values = np.random.default_rng(0).uniform(-8.0, 2.0, (N_FRAMES, mel_cfg.n_mels))
    mel = MelSpectrogram(values, mel_cfg)
    # clamping into a second (1723, 513) array: 13 MiB
    assert traced_peak(mel_to_linear, mel) < 10 * MIB


def test_traced_peak_sees_a_numpy_temporary():
    # the bounds above rest on tracemalloc seeing numpy's buffers
    assert traced_peak(lambda: np.ones(MIB).sum()) >= 8 * MIB
