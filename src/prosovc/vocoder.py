"""Audible output path: mel inversion plus Griffin-Lim phase reconstruction.

Replaces a neural vocoder with a fully self-contained pipeline: the log-mel
is exponentiated, mapped through the pseudo-inverse of the mel filterbank
(clamped at zero) and square-rooted from power to magnitude, and phase is
estimated by iterative STFT projections.

`griffin_lim` iterates from signal to signal (Griffin & Lim, 1984): an
iteration needs only the previous signal, and overwrites it in the one
(T + k - 1, hop) signal buffer, k = ceil(fft_size / hop). Each of its passes,
and `istft`, is the weighted overlap-add pass `_wola_pass`, which cuts the
signal rows into contiguous runs, one per CPU the process may use up to
MAX_RUNS (`istft`: one run, on the calling thread). Each run (`_Run`) works,
on its own thread and in buffers of its own, every frame that reaches its
rows, RUN_BLOCK frames at a time, and writes those rows alone: it sums each
row's frames in increasing frame order, then divides the row by the
normaliser and zeroes its margin samples, so the output is the same bit for
bit for any CPU count and no serial work follows the runs. The pass runs in
place: the calling thread first copies each run's halos, the k - 1 old rows
on either side that its neighbours overwrite, and the run stages a block's
old rows (k - 1 carried from its previous block) before it zeroes them. In
an iteration each block's frames of the old signal are windowed, FFT'd and
given the target magnitude (`_project`); the magnitudes, and the start
pass's phases, live in the run's frame buffer, free between the forward and
the inverse FFT. The start pass draws each block's phases from
`default_rng(seed)`'s PCG64 advanced to the block's first frame
(`_phase_stream`): its rows of one seeded (T, n_bins) uniform draw. The
worker threads live for one call, and only the signal buffer grows with T.
The output equals alternating `istft` and `stft` calls bit for bit, for any
number of CPUs.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigMismatch, TooShort
# stft stays importable here for the traced benchmark, which replaces vocoder.stft
# although griffin_lim calls the helper it wraps, so that row reads 0, until stage
# spans replace the wrapped sites (ROADMAP item "Stage spans in the package").
from .signal_core import (
    MelConfig,
    MelSpectrogram,
    Waveform,
    _frame_view,
    _padded_window,
    _windowed_rfft,
    frame_blocks,
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


# -- the weighted overlap-add pass ---------------------------------------------------

def _overlap_add(frames: np.ndarray, hop: int, blocks: np.ndarray, start: int = 0,
                 stop: int | None = None) -> np.ndarray:
    """Add frame i into the (n_frames + k - 1, hop) `blocks` from block i on,
    touching only blocks start..stop-1 (default: all of them).

    The frames are cut into k = ceil(width / hop) columns of hop samples, the
    last one possibly narrower; column j of every frame lands on block i + j.
    Adding the columns last-first makes each block sum its frames in
    increasing frame order, so the result equals a per-frame loop bit for
    bit. `frames` may be a broadcast view.
    """
    n_frames = frames.shape[0]
    stop = blocks.shape[0] if stop is None else stop
    for j in range(blocks.shape[0] - n_frames, -1, -1):
        lo, hi = max(start - j, 0), min(stop - j, n_frames)
        if lo < hi:
            cols = frames[lo:hi, j * hop:(j + 1) * hop]
            blocks[j + lo:j + hi, :cols.shape[1]] += cols
    return blocks


# Frames per block of each run of an overlap-add pass. Every run has buffers
# of its own, so at 2 s (88 signal rows per run on 2 CPUs) a run works its
# frames as one block: fewer, larger numpy calls, which serialise less on
# the GIL than many short ones.
RUN_BLOCK = 96


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # Linux: the affinity mask, which taskset narrows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _columns(cfg: MelConfig) -> int:
    """k = ceil(fft_size / hop): the hop-wide signal rows one frame spans."""
    return -(-cfg.fft_size // cfg.hop)


# The most runs of one overlap-add pass: the gain of 2 runs was measured on
# 2-CPU hosts, and more runs have not been benchmarked on a host with more
# CPUs. The short numpy calls around each block serialise on the GIL, so
# more runs need not gain more.
MAX_RUNS = 2


def frame_runs(n_frames: int, k: int) -> list[tuple[int, int]]:
    """(lo, hi) of the near-equal contiguous runs of the n_frames + k - 1
    signal rows of `_wola_pass`: at most one per CPU this process may run on
    and MAX_RUNS in all, and none shorter than the k - 1 frames before it
    that a run also works."""
    count = max(min(_cpu_count(), MAX_RUNS, n_frames // max(k - 1, 1)), 1)
    n = n_frames + k - 1
    return [(i * n // count, (i + 1) * n // count) for i in range(count)]


class _Run(NamedTuple):
    """Signal rows lo..hi-1 of an overlap-add pass, worked on one thread, and
    the buffers for its blocks of frames first..last-1, the frames that reach
    those rows, at most len(frames) frames each: `frames`, with `amp` a view
    of it shaped like their spectrum rows, and `spec`, a buffer for those
    rows that only `griffin_lim` builds (None in `istft`); `stage`,
    the block + k - 1 old signal rows they read, and `old`, its frames; and
    `upper`, the old rows from hi on that the next run overwrites: k - 1 of
    them, or fewer at the signal's end.
    """

    lo: int
    hi: int
    first: int
    last: int
    frames: np.ndarray
    spec: np.ndarray | None
    amp: np.ndarray
    stage: np.ndarray
    old: np.ndarray
    upper: np.ndarray


def _wola_buffers(cfg: MelConfig, n_frames: int, spans: list[tuple[int, int]] | None = None):
    """(runs, signal, divisor) for `_wola_pass` over n_frames frames.

    `runs` are the `_Run`s of the row `spans` (default: `frame_runs`), each
    with buffers for a block of at most RUN_BLOCK frames. `signal` holds the
    (n_frames + k - 1, hop) signal rows, k = ceil(fft_size / hop). The
    divisor is the overlap-added squared window, with 1 wherever that sum is
    not above 1e-11. Every row from k - 1 to n_frames - 1 sums the same k
    frame columns, so it is kept compact: k - 1 head rows, one interior row
    and k - 1 tail rows, taken from the overlap-add of min(n_frames, 2k - 1)
    frames.
    """
    if n_frames < 1:
        raise TooShort("cannot overlap-add a spectrum with no frames")
    k = _columns(cfg)
    n = min(n_frames, 2 * k - 1)
    w = _padded_window(cfg.window, cfg.fft_size)
    norm = _overlap_add(np.broadcast_to(w * w, (n, cfg.fft_size)), cfg.hop, np.zeros((n + k - 1, cfg.hop)))
    norm = np.concatenate([norm[:k], norm[n:]])
    runs = []
    for lo, hi in spans or frame_runs(n_frames, k):
        first, last = max(lo - k + 1, 0), min(hi, n_frames)
        size = min(last - first, RUN_BLOCK)
        frames, stage = np.empty((size, cfg.fft_size)), np.empty((size + k - 1, cfg.hop))
        amp = frames.reshape(-1)[:size * cfg.n_bins].reshape(size, cfg.n_bins)
        old = _frame_view(stage.reshape(-1), cfg.fft_size, cfg.hop, size)
        runs.append(_Run(lo, hi, first, last, frames, None, amp, stage, old,
                         np.empty((min(k - 1, n_frames + k - 1 - hi), cfg.hop))))
    signal = np.empty((n_frames + k - 1, cfg.hop))
    return runs, signal, np.where(norm > 1e-11, norm, 1.0)


def _normalise(signal: np.ndarray, divisor: np.ndarray, n_frames: int, lo: int, hi: int) -> None:
    """Divide rows lo..hi-1 of the signal of n_frames frames by their rows of the compact divisor."""
    k = (len(divisor) + 1) // 2
    head, tail = min(k - 1, n_frames), max(lo, n_frames)
    if lo < min(hi, head):
        signal[lo:min(hi, head)] /= divisor[lo:min(hi, head)]
    if max(lo, head) < min(hi, n_frames):
        signal[max(lo, head):min(hi, n_frames)] /= divisor[k - 1]
    if tail < hi:
        signal[tail:hi] /= divisor[k + tail - n_frames:k + hi - n_frames]


def _wola_run(rows, run: _Run, cfg: MelConfig, signal: np.ndarray, divisor: np.ndarray) -> None:
    """Overlap-add every frame that reaches the signal rows of `run`, one
    block at a time, into those rows and no others, and finish each row as
    soon as all its frames are in: divide it by the normaliser and zero the
    samples of the two half-frame margins in it.

    Each block first stages in `run.stage` the old rows its
    frames read: the k - 1 rows the previous block also read carry over
    (before the first block `_wola_pass` put the lower halo there), the
    run's own rows are copied before the run zeroes them, and rows from
    run.hi on come from `run.upper`.

    A worker thread runs this, so it calls nothing that the benchmark's span
    tracer wraps: that tracer keeps one span stack for all threads.
    """
    k = _columns(cfg)
    n_frames = len(signal) - k + 1
    half, end = cfg.fft_size // 2, (n_frames - 1) * cfg.hop + cfg.fft_size
    flat = signal.reshape(-1)
    window = _padded_window(cfg.window, cfg.fft_size)
    done = run.lo  # the rows of the run below it are finished
    n = 0  # frames in the previous block
    for lo, hi in frame_blocks(run.last - run.first, len(run.frames)):
        lo, hi = run.first + lo, run.first + hi
        top = hi + k - 1  # the block's frames reach rows lo..top-1
        # the run's rows fresh..stop-1 are the ones no earlier frame of it reached
        fresh, stop = lo + k - 1 if n else run.lo, min(top, run.hi)
        if n:
            run.stage[:k - 1] = run.stage[n:n + k - 1]
        run.stage[fresh - lo:stop - lo] = signal[fresh:stop]
        above = max(fresh, run.hi)
        if above < top:
            run.stage[above - lo:top - lo] = run.upper[above - run.hi:top - run.hi]
        n = hi - lo
        block = np.fft.irfft(rows(run, lo, hi), n=cfg.fft_size, axis=1, out=run.frames[:n])
        block *= window
        signal[fresh:stop] = 0.0
        _overlap_add(block, cfg.hop, signal[lo:top], start=run.lo - lo, stop=run.hi - lo)
        # rows below hi have all their frames in, and after the last block every row has
        finished = run.hi if hi == run.last else max(hi, done)
        _normalise(signal, divisor, n_frames, done, finished)
        flat[done * cfg.hop:min(finished * cfg.hop, half)] = 0.0
        flat[max(done * cfg.hop, end - half):finished * cfg.hop] = 0.0
        done = finished


def _wola_pass(rows, runs: list[_Run], cfg: MelConfig, signal: np.ndarray, divisor: np.ndarray,
               pool: ThreadPoolExecutor | None) -> np.ndarray:
    """Weighted overlap-add of the spectrum rows of all frames into `signal`,
    whose rows `runs` cut among them.

    The calling thread works the first run and `pool`, of len(runs) - 1
    workers, the others, each with `_wola_run` (a one-run pass submits
    nothing, so its pool may be None): `rows(run, lo, hi)` gives the
    rows of frames lo..hi-1 for `run`, one block of them at a time, and
    must use only that run's buffers. They are inverse-FFT'd into the run's
    frame buffer, windowed and added into the run's own signal rows; each
    row is then divided by the normaliser and its margin samples zeroed, so
    the rows hold the zero-padded signal `stft(..., pad_mode="constant")`
    would frame. Every row sums its frames in increasing frame order on one
    thread, so the result is the same bit for bit for any number of runs.

    The pass overwrites the signal its frames read, so a `rows` that reads
    the old frames lo..hi-1 finds them in `run.old[:hi - lo]`. Before any
    run starts, the calling thread copies each run's halos, the k - 1 old
    rows below its first row (into the head of its stage) and from its last
    (into `upper`), which the neighbouring runs overwrite. Returns the
    (T - 1) * hop samples between the margins, a view of `signal`.
    """
    k = _columns(cfg)
    for run in runs:
        run.stage[:run.lo - run.first] = signal[run.first:run.lo]
        run.upper[:] = signal[run.hi:run.hi + len(run.upper)]
    futures = [pool.submit(_wola_run, rows, run, cfg, signal, divisor) for run in runs[1:]]
    try:
        _wola_run(rows, runs[0], cfg, signal, divisor)
    finally:
        wait(futures)
    for future in futures:
        future.result()
    half = cfg.fft_size // 2
    end = (len(signal) - k) * cfg.hop + cfg.fft_size
    return signal.reshape(-1)[half:end - half]


def istft(spec: np.ndarray, cfg: MelConfig) -> np.ndarray:
    """Least-squares inverse of `stft`: weighted overlap-add, center-trimmed.

    Output length is (T - 1) * hop.
    """
    n_frames = spec.shape[0]
    # one run over all rows, on the calling thread
    runs, signal, divisor = _wola_buffers(cfg, n_frames, [(0, n_frames + _columns(cfg) - 1)])
    return _wola_pass(lambda run, lo, hi: spec[lo:hi], runs, cfg, signal, divisor, None)


# -- Griffin-Lim -----------------------------------------------------------------

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
    runs, signal, divisor = _wola_buffers(cfg, mag.shape[0])
    runs = [run._replace(spec=np.empty(run.amp.shape, dtype=complex)) for run in runs]

    def random_phase(run: _Run, lo: int, hi: int) -> np.ndarray:
        n = hi - lo
        phase = _phase_stream(seed, lo, cfg.n_bins).random(out=run.amp[:n])
        phase *= 2.0 * np.pi  # uniform(0, 2 pi) bit for bit
        rows = np.multiply(1j, phase, out=run.spec[:n])
        np.exp(rows, out=rows)
        rows *= mag[lo:hi]
        return rows

    def projected(run: _Run, lo: int, hi: int) -> np.ndarray:
        n = hi - lo
        rows = _windowed_rfft(run.old[:n], cfg, run.frames[:n], run.spec[:n])
        return _project(rows, mag[lo:hi], run.amp[:n])

    with ThreadPoolExecutor(max(len(runs) - 1, 1)) as pool:
        out = _wola_pass(random_phase, runs, cfg, signal, divisor, pool)
        for _ in range(n_iters):
            out = _wola_pass(projected, runs, cfg, signal, divisor, pool)
    return Waveform(out, cfg.sample_rate)
