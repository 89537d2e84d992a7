"""Audible output path: mel inversion plus Griffin-Lim phase reconstruction.

Replaces a neural vocoder with a fully self-contained pipeline: the log-mel
is exponentiated, mapped through the pseudo-inverse of the mel filterbank
(clamped at zero) and square-rooted from power to magnitude, and phase is
estimated by iterative STFT projections.

`griffin_lim` iterates from signal to signal (Griffin & Lim, 1984): an
iteration needs only the previous signal, and overwrites it. One
(T + k - 1, hop) signal buffer, k = ceil(fft_size / hop), holds it, and
`signal_core._wola_pass`, the overlap-add pass of `istft`, runs every pass.
The pass cuts the signal rows into contiguous runs, one per CPU the process
may use (at most `signal_core.MAX_RUNS`), and works each run on its own
thread. A run's buffers hold one block of at most `signal_core.RUN_BLOCK`
frames: frames, spectrum rows and the old signal rows those frames read.
The block's magnitudes, and the start pass's phases, live in its frame
buffer, which is free between the forward FFT and the inverse FFT that
refills it. Before each iteration's pass the calling thread copies every
run's halos, the k - 1 old rows on either side of it that its neighbours
overwrite. A block's frames read the old rows from the run's staging copy:
k - 1 rows carry over from the previous block, and the rest are copied
before the run zeroes them. For each block the run windows and FFTs those
frames, gives them the target magnitude (`_project`), overlap-adds their
windowed inverse FFT into its own rows, and divides each row by the
normaliser once its last frame is in. The start pass splits over the same
runs: each run draws its random phases from `default_rng(seed)`'s PCG64
advanced to its first frame (`_phase_stream`), so every frame gets its rows
of one seeded (T, n_bins) uniform draw. The worker threads live for one
call. Only the signal buffer grows with T; no (T, n_bins) spectrum exists.
The output equals alternating `istft` and `stft` calls bit for bit, for any
number of CPUs.
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


def _project(rebuilt: np.ndarray, mag: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """Give `mag` the phase of `rebuilt`, in place on `rebuilt`, and return it.

    Computes rebuilt * (mag / |rebuilt|), which is mag * exp(1j * angle(rebuilt))
    without atan2, cos and sin. Exact-zero bins take phase 0, as angle(0) == 0;
    their mask is built only when |rebuilt| has one. `amp` is a buffer for
    |rebuilt|.
    """
    np.abs(rebuilt, out=amp)
    if not amp.all():
        zero = amp == 0.0
        np.copyto(rebuilt, 1.0, where=zero)
        np.copyto(amp, 1.0, where=zero)
    np.divide(mag, amp, out=amp)
    rebuilt *= amp
    return rebuilt


def _phase_stream(seed: int, first: int, n_bins: int) -> np.random.Generator:
    """default_rng(seed)'s PCG64 advanced by first * n_bins draws: its random()
    values times 2 pi are rows first.. of default_rng(seed).uniform(0, 2 pi, (T, n_bins))."""
    return np.random.Generator(np.random.default_rng(seed).bit_generator.advance(first * n_bins))


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
    runs, signal, divisor = _wola_buffers(cfg, n_frames)
    spec = [np.empty((len(run.frames), cfg.n_bins), dtype=complex) for run in runs]
    # |spectrum| and the start phases fill the frame buffer between the rfft and the irfft
    amp = [run.frames.reshape(-1)[:rows.size].reshape(rows.shape) for run, rows in zip(runs, spec)]
    old = [_frame_view(run.stage.reshape(-1), cfg.fft_size, cfg.hop, len(run.frames)) for run in runs]
    streams = [_phase_stream(seed, run.first, cfg.n_bins) for run in runs]

    def random_phase(r: int, lo: int, hi: int) -> np.ndarray:
        n = hi - lo
        phase = streams[r].random(out=amp[r][:n])
        phase *= 2.0 * np.pi  # uniform(0, 2 pi) bit for bit
        rows = np.multiply(1j, phase, out=spec[r][:n])
        np.exp(rows, out=rows)
        rows *= mag[lo:hi]
        return rows

    def projected(r: int, lo: int, hi: int) -> np.ndarray:
        n = hi - lo
        rows = _windowed_rfft(old[r][:n], cfg, runs[r].frames[:n], spec[r][:n])
        return _project(rows, mag[lo:hi], amp[r][:n])

    with ThreadPoolExecutor(max(len(runs) - 1, 1)) as pool:
        out = _wola_pass(random_phase, runs, cfg, signal, divisor, pool)
        for _ in range(n_iters):
            out = _wola_pass(projected, runs, cfg, signal, divisor, pool)
    return Waveform(out, cfg.sample_rate)
