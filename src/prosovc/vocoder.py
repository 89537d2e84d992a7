"""Audible output path: mel inversion plus Griffin-Lim phase reconstruction.

Replaces a neural vocoder with a fully self-contained pipeline: the log-mel
is exponentiated, mapped through the pseudo-inverse of the mel filterbank
(clamped at zero), and phase is estimated by iterative STFT projections.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigMismatch
from .signal_core import MelConfig, MelSpectrogram, Waveform, istft, mel_filterbank, stft


@lru_cache(maxsize=8)
def _mel_pinv(cfg: MelConfig) -> np.ndarray:
    return np.linalg.pinv(mel_filterbank(cfg))


def mel_to_linear(mel: MelSpectrogram) -> np.ndarray:
    """Non-negative linear-frequency magnitudes, shape (T, fft_size/2 + 1)."""
    if mel.values.shape[1] != mel.config.n_mels:
        raise ConfigMismatch("mel band count does not match its config")
    linear = np.exp(mel.values) @ _mel_pinv(mel.config).T
    return np.maximum(linear, 0.0)


def project_magnitude(rebuilt: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """Give `mag` the phase of `rebuilt`, in place on `rebuilt`, and return it.

    Computes rebuilt * (mag / |rebuilt|), which is mag * exp(1j * angle(rebuilt))
    without atan2, cos and sin. Exact-zero bins take phase 0, as angle(0) == 0.
    """
    amp = np.abs(rebuilt)
    zero = amp == 0.0
    rebuilt[zero] = 1.0
    amp[zero] = 1.0
    np.divide(mag, amp, out=amp)
    rebuilt *= amp
    return rebuilt


def griffin_lim(mag: np.ndarray, cfg: MelConfig, n_iters: int = 60, seed: int = 0) -> Waveform:
    """Iterative phase reconstruction from linear magnitudes.

    Starts from random phase drawn from `seed`, alternates ISTFT/STFT
    projections n_iters times, and returns (T-1)*hop samples.
    """
    if mag.ndim != 2 or mag.shape[1] != cfg.n_bins:
        raise ConfigMismatch(f"magnitude shape {mag.shape} does not match {cfg.n_bins} bins")
    if n_iters < 0:
        raise ValueError(f"n_iters must be >= 0, got {n_iters}")
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0.0, 2.0 * np.pi, mag.shape)
    spec = mag * np.exp(1j * phase)
    for _ in range(n_iters):
        wave = istft(spec, cfg)
        spec = project_magnitude(stft(wave, cfg, pad_mode="constant"), mag)
    return Waveform(istft(spec, cfg), cfg.sample_rate)
