"""Audible output path: mel inversion plus Griffin-Lim phase reconstruction.

Replaces a neural vocoder with a fully self-contained pipeline: the log-mel
is exponentiated, mapped through the pseudo-inverse of the mel filterbank
(clamped at zero) and square-rooted from power to magnitude, and phase is
estimated by iterative STFT projections.

`griffin_lim` iterates from signal to signal (Griffin & Lim, 1984): an
iteration needs only the previous signal. Two (T + k - 1, hop) signal-block
buffers, k = ceil(fft_size / hop), take turns as source and target of
`signal_core._wola_pass`, the overlap-add pass of `istft`. The pass cuts
the target's signal rows into contiguous runs, one per CPU the process may
use (at most `signal_core.MAX_RUNS`), and works each run on its own
thread, whose buffers for frames, spectrum rows, magnitudes and zero mask
hold one block of the frames that reach the run's rows. For each block it
windows and FFTs the source frames, gives them the target magnitude
(`_project`) and overlap-adds their windowed inverse FFT into the run's
rows. The start signal is the same pass over random-phase rows as one run
on the calling thread, drawn block by block from one seeded stream. The
worker threads live for one call. Only the two buffers grow with T; no
(T, n_bins) spectrum exists. The output equals alternating `istft` and
`stft` calls bit for bit, for any number of CPUs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np

from .errors import ConfigMismatch
# stft and istft stay importable here: the traced benchmark replaces vocoder.stft
# and vocoder.istft, although griffin_lim calls the helpers they wrap, so those two
# trace rows read 0. Both imports go when stage spans replace the wrapped sites
# (ROADMAP item "Stage spans in the package, and runs that explain themselves").
from .signal_core import (
    MelConfig,
    MelSpectrogram,
    Waveform,
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
    pinv = np.linalg.pinv(mel_filterbank(cfg))
    pinv.flags.writeable = False  # every caller shares the cached array
    return pinv


def mel_to_linear(mel: MelSpectrogram) -> np.ndarray:
    """Non-negative linear-frequency magnitudes, shape (T, fft_size/2 + 1): roots of the inverted mel power."""
    linear = np.exp(mel.values) @ _mel_pinv(mel.config).T
    return np.sqrt(np.maximum(linear, 0.0, out=linear), out=linear)


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
    n_frames = mag.shape[0]
    runs, blocks, divisor = _wola_buffers(cfg, n_frames)
    spec = [np.empty((len(run.frames), cfg.n_bins), dtype=complex) for run in runs]
    amp = [np.empty(rows.shape) for rows in spec]
    zero = [np.empty(rows.shape, dtype=bool) for rows in spec]
    rng = np.random.default_rng(seed)

    def random_phase(r: int, lo: int, hi: int) -> np.ndarray:
        rows = spec[r][:hi - lo]
        np.multiply(1j, rng.uniform(0.0, 2.0 * np.pi, rows.shape), out=rows)
        np.exp(rows, out=rows)
        rows *= mag[lo:hi]
        return rows

    def projected(r: int, lo: int, hi: int) -> np.ndarray:
        n = hi - lo
        rows = _windowed_rfft(source[lo:hi], cfg, runs[r].frames[:n], spec[r][:n])
        return _project(rows, mag[lo:hi], amp[r][:n], zero[r][:n])

    with ThreadPoolExecutor(max(len(runs) - 1, 1)) as pool:
        # one run over all rows, so the phases come from one stream in block order
        signal = _wola_pass(random_phase, [runs[0]._replace(lo=0, hi=len(blocks))], cfg, blocks, divisor, pool)
        previous = np.empty_like(blocks)
        for _ in range(n_iters):
            blocks, previous = previous, blocks
            source = _frame_view(previous.reshape(-1), cfg.fft_size, cfg.hop, n_frames)
            signal = _wola_pass(projected, runs, cfg, blocks, divisor, pool)
    return Waveform(signal, cfg.sample_rate)
