"""Audible output path: mel inversion plus Griffin-Lim phase reconstruction.

Replaces a neural vocoder with a fully self-contained pipeline: the log-mel
is exponentiated, mapped through the pseudo-inverse of the mel filterbank
(clamped at zero), and phase is estimated by iterative STFT projections.

`griffin_lim` runs as one buffered loop over `signal_core`'s private
framing helpers, the same ones `istft` and `stft` wrap. It builds the start
spectrum in place from the seeded phase draw (times 1j, exp, times the
magnitude), so no phase array stays alive through the loop. Its buffers (the
frames, the overlap-add blocks, the spectrum, its magnitude and the mask of
its zero bins) and the ISTFT normaliser are made once per call. Each
iteration inverse-FFTs the spectrum into the frame buffer and overlap-adds
it into the blocks. It then zeroes the blocks' two half-frame margins, so
that they hold the zero-padded signal `stft(..., pad_mode="constant")`
would frame, windows a framing view of the blocks back into the frame
buffer, FFTs that into the spectrum buffer and projects the magnitude in
place. The output equals alternating `istft` and `stft` calls bit for bit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigMismatch
# stft and istft stay importable here: the traced benchmark replaces vocoder.stft
# and vocoder.istft, although griffin_lim calls the helpers they wrap, so those two
# trace rows read 0. Both imports go when stage spans replace the wrapped sites
# (ROADMAP item 3).
from .signal_core import (
    MelConfig,
    MelSpectrogram,
    Waveform,
    _frame_view,
    _wola,
    _wola_buffers,
    _windowed_rfft,
    istft,
    mel_filterbank,
    stft,
)


@lru_cache(maxsize=8)
def _mel_pinv(cfg: MelConfig) -> np.ndarray:
    return np.linalg.pinv(mel_filterbank(cfg))


def mel_to_linear(mel: MelSpectrogram) -> np.ndarray:
    """Non-negative linear-frequency magnitudes, shape (T, fft_size/2 + 1)."""
    linear = np.exp(mel.values) @ _mel_pinv(mel.config).T
    return np.maximum(linear, 0.0, out=linear)


def _project(rebuilt: np.ndarray, mag: np.ndarray, amp: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """Give `mag` the phase of `rebuilt`, in place on `rebuilt`, and return it.

    Computes rebuilt * (mag / |rebuilt|), which is mag * exp(1j * angle(rebuilt))
    without atan2, cos and sin. Exact-zero bins take phase 0, as angle(0) == 0.
    `amp` and `zero` are buffers for |rebuilt| and its zero mask.
    """
    np.abs(rebuilt, out=amp)
    np.equal(amp, 0.0, out=zero)
    np.copyto(rebuilt, 1.0, where=zero)
    np.copyto(amp, 1.0, where=zero)
    np.divide(mag, amp, out=amp)
    rebuilt *= amp
    return rebuilt


def griffin_lim(mag: np.ndarray, cfg: MelConfig, n_iters: int, seed: int = 0) -> Waveform:
    """Iterative phase reconstruction from linear magnitudes.

    Starts from random phase drawn from `seed`, alternates ISTFT/STFT
    projections n_iters times, and returns (T-1)*hop samples.
    """
    if mag.ndim != 2 or mag.shape[1] != cfg.n_bins:
        raise ConfigMismatch(f"magnitude shape {mag.shape} does not match {cfg.n_bins} bins")
    if n_iters < 0:
        raise ValueError(f"n_iters must be >= 0, got {n_iters}")
    rng = np.random.default_rng(seed)
    spec = 1j * rng.uniform(0.0, 2.0 * np.pi, mag.shape)
    np.exp(spec, out=spec)
    spec *= mag
    n_frames = mag.shape[0]
    frames, blocks, divisor = _wola_buffers(cfg, n_frames)
    amp = np.empty(mag.shape)
    zero = np.empty(mag.shape, dtype=bool)
    half = cfg.fft_size // 2
    end = (n_frames - 1) * cfg.hop + cfg.fft_size
    padded = blocks.reshape(-1)[:end]
    view = _frame_view(padded, cfg.fft_size, cfg.hop, n_frames)
    for _ in range(n_iters):
        _wola(spec, cfg, frames, blocks, divisor)
        # now the signal istft would return, zero-padded as stft's "constant" mode pads it
        padded[:half] = 0.0
        padded[end - half:] = 0.0
        _windowed_rfft(view, cfg, frames, spec)
        _project(spec, mag, amp, zero)
    return Waveform(_wola(spec, cfg, frames, blocks, divisor)[half:end - half], cfg.sample_rate)
