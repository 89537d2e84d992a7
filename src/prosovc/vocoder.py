"""Audible output path: mel inversion plus Griffin-Lim phase reconstruction.

Replaces a neural vocoder with a fully self-contained pipeline: the log-mel
is exponentiated, mapped through the pseudo-inverse of the mel filterbank
(clamped at zero), and phase is estimated by iterative STFT projections.

`griffin_lim` runs each iteration as one wavefront pass over frame blocks
of GL_BLOCK frames, `signal_core._wola_pass`, the same pass `istft` makes.
The pass inverse-FFTs a block's spectrum rows, windows them and
overlap-adds them into the (T + k - 1, hop) signal blocks, k =
ceil(fft_size / hop). A signal block that has all its frames is divided by
the compact normaliser and has its share of the two half-frame margins
zeroed, so it holds the zero-padded signal `stft(..., pad_mode="constant")`
would frame. Each frame whose k signal blocks are final is then windowed
and FFT'd back into its spectrum rows, and `_project` gives those rows the
target magnitude in place, while the pass moves on. Only the spectrum and the
signal blocks are whole-utterance arrays; the frames and the buffers of
`_project` hold one block, so a pass stays in cache. The start spectrum is
built block by block from one seeded phase stream, which draws the same
numbers as one whole (T, n_bins) draw. The output equals alternating
`istft` and `stft` calls bit for bit.
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
    GL_BLOCK,
    _frame_view,
    _wola_buffers,
    _wola_pass,
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
    n_frames = mag.shape[0]
    spec = np.empty(mag.shape, dtype=complex)
    for lo in range(0, n_frames, GL_BLOCK):
        rows = spec[lo:lo + GL_BLOCK]
        np.multiply(1j, rng.uniform(0.0, 2.0 * np.pi, rows.shape), out=rows)
        np.exp(rows, out=rows)
        rows *= mag[lo:lo + GL_BLOCK]
    frames, blocks, divisor = _wola_buffers(cfg, n_frames)
    amp = np.empty((len(frames), cfg.n_bins))
    zero = np.empty(amp.shape, dtype=bool)
    view = _frame_view(blocks.reshape(-1), cfg.fft_size, cfg.hop, n_frames)

    def analyse(lo: int, hi: int) -> None:
        rows = _windowed_rfft(view[lo:hi], cfg, frames[:hi - lo], spec[lo:hi])
        _project(rows, mag[lo:hi], amp[:hi - lo], zero[:hi - lo])

    for _ in range(n_iters):
        _wola_pass(spec, cfg, frames, blocks, divisor, analyse)
    return Waveform(_wola_pass(spec, cfg, frames, blocks, divisor), cfg.sample_rate)
