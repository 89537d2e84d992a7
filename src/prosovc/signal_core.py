"""Audio primitives: file opening, WAV I/O, Butterworth high-pass filtering, STFT and mel analysis.

Everything here is a pure function over value types; the mel geometry is
carried explicitly in :class:`MelConfig` so every downstream track (F0,
energy, units) lands on the same frame grid. The high-pass runs its
recursion as one matrix product per block of samples, so it matches a
per-sample loop to rounding, not bit for bit.

The analysis loops (mel power, log energy, YIN) work FRAME_BLOCK frames at
a time. The overlap-add pass behind every Griffin-Lim iteration cuts its
signal rows into contiguous runs, one per CPU the process may use up to
MAX_RUNS. Each run's thread works every frame that reaches its rows,
RUN_BLOCK frames at a time, and writes those rows alone: it sums each row's
frames in increasing frame order, then divides the row by the normaliser and
zeroes its margin samples, so the output is the same bit for bit for any CPU
count and no serial work follows the runs. A pass runs in place, over the
signal its frames read: the calling thread first copies each run's halos,
the k - 1 old rows on either side that the neighbouring runs overwrite, and
each run stages a block's old rows (k - 1 carried from its previous block)
before it zeroes them. `istft` runs the pass as one run on the calling
thread.
"""

from __future__ import annotations

import io
import math
import os
import wave as _wave
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigMismatch,
    InvalidCutoff,
    TooShort,
    UnreadableFile,
    UnsupportedFormat,
    UnwritableFile,
)

PCM_SCALE = 32768.0


@dataclass(frozen=True)
class Waveform:
    """Mono audio samples in [-1, 1] with their sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("waveform must be 1-D mono")
        # min and max propagate NaN, and need no whole-utterance bool mask
        if samples.size and not (np.isfinite(samples.min()) and np.isfinite(samples.max())):
            raise ValueError("waveform contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class MelConfig:
    """Frame geometry and filterbank layout for mel analysis."""

    sample_rate: int = 22050
    fft_size: int = 1024
    hop: int = 256
    window: int = 1024
    n_mels: int = 80
    fmin: float = 0.0
    fmax: float = 8000.0
    log_floor: float = 1e-10

    def __post_init__(self):
        if not (0 < self.hop <= self.window <= self.fft_size):
            raise ValueError("need 0 < hop <= window <= fft_size")
        if not (0 <= self.fmin < self.fmax <= self.sample_rate / 2):
            raise ValueError("need 0 <= fmin < fmax <= sample_rate/2")
        if self.n_mels < 1:
            raise ValueError("n_mels must be >= 1")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1

    def frame_count(self, n_samples: int) -> int:
        return n_samples // self.hop + 1


@dataclass(frozen=True)
class MelSpectrogram:
    """Log-mel magnitudes, frames along axis 0, bands along axis 1."""

    values: np.ndarray
    config: MelConfig

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1:
            raise ValueError("mel values must be a T x n_mels matrix with T >= 1")
        if values.shape[1] != self.config.n_mels:
            raise ValueError("band count does not match config.n_mels")
        if not np.all(np.isfinite(values)):
            raise ValueError("mel values contain non-finite entries")
        object.__setattr__(self, "values", values)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


# -- file and WAV I/O ---------------------------------------------------------------

@contextmanager
def open_file(path, mode: str = "r", **kwargs):
    """The built-in open as a context manager; an OSError while the file is open
    becomes "<path>: <reason>" as UnreadableFile (read modes) or UnwritableFile."""
    error = UnreadableFile if mode.startswith("r") else UnwritableFile
    try:
        with open(path, mode, **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise error(f"{path}: {exc}") from exc


def read_text_lines(path, error=UnreadableFile) -> list[tuple[int, str]]:
    """(line number, line) for each non-blank line of a UTF-8 text file, numbered
    before blank lines are skipped; text that is not UTF-8 raises `error`."""
    try:
        with open_file(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from exc
    return [(lineno, line) for lineno, line in enumerate(lines, start=1) if line.strip()]


# The format tag of WAVE_FORMAT_EXTENSIBLE, which the wave module reads from
# Python 3.12 on and refuses before: load_wav refuses it on every version.
WAVE_FORMAT_EXTENSIBLE = 0xFFFE


def _format_tag(fh) -> int | None:
    """The format tag of the `fmt ` chunk of the RIFF/WAVE file open in `fh`,
    or None if the chunks before it do not parse; leaves fh at its start."""
    tag = None
    head = fh.read(12)
    if head[:4] == b"RIFF" and head[8:12] == b"WAVE":
        while len(chunk := fh.read(8)) == 8:
            size = int.from_bytes(chunk[4:], "little")
            if chunk[:4] == b"fmt ":
                data = fh.read(2)
                tag = int.from_bytes(data, "little") if len(data) == 2 else None
                break
            fh.seek(size + size % 2, os.SEEK_CUR)  # chunks are padded to an even size
    fh.seek(0)
    return tag


def load_wav(path) -> Waveform:
    """Read a mono PCM16 RIFF/WAVE file, normalizing samples by 32768."""
    try:
        with open_file(path, "rb") as fh:
            # the format tag is read ahead, so a pipe's bytes are kept to read again
            source = fh if fh.seekable() else io.BytesIO(fh.read())
            if _format_tag(source) == WAVE_FORMAT_EXTENSIBLE:  # the wave module's own refusal before 3.12
                raise _wave.Error(f"unknown format: {WAVE_FORMAT_EXTENSIBLE}")
            with _wave.open(source, "rb") as reader:
                if reader.getnchannels() != 1:
                    raise UnsupportedFormat(f"{path}: expected mono, got {reader.getnchannels()} channels")
                if reader.getsampwidth() != 2:
                    raise UnsupportedFormat(f"{path}: expected 16-bit PCM, got {8 * reader.getsampwidth()}-bit")
                sample_rate = reader.getframerate()
                raw = reader.readframes(reader.getnframes())
    except (_wave.Error, EOFError) as exc:
        raise UnreadableFile(f"{path}: not a readable RIFF/WAVE file ({exc})") from exc
    except RuntimeError as exc:  # the wave module's seek past a chunk's declared size
        raise UnreadableFile(f"{path}: not a readable RIFF/WAVE file (corrupt chunk size)") from exc
    if sample_rate <= 0:
        raise UnreadableFile(f"{path}: sample rate {sample_rate} is not positive")
    if len(raw) % 2:
        raise UnreadableFile(f"{path}: data chunk ends inside a sample ({len(raw)} bytes)")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / PCM_SCALE
    return Waveform(samples, sample_rate)


def save_wav(wave: Waveform, path) -> None:
    """Write a Waveform as mono PCM16, clipping samples outside [-1, 1]."""
    quantized = np.clip(np.rint(wave.samples * PCM_SCALE), -32768, 32767).astype("<i2")
    with open_file(path, "wb") as fh, _wave.open(fh, "wb") as writer:
        writer.setnchannels(1)
        writer.setsampwidth(2)
        writer.setframerate(wave.sample_rate)
        writer.writeframes(quantized.tobytes())


# -- Butterworth high-pass -------------------------------------------------------

def _butterworth_hp_biquad(cutoff_hz: float, sample_rate: int):
    # Bilinear transform with frequency prewarping of the one Butterworth pole pair.
    k = math.tan(math.pi * cutoff_hz / sample_rate)
    k2 = k * k
    q = 1.0 / (2.0 * math.cos(math.pi / 4))
    norm = 1.0 / (1.0 + k / q + k2)
    b = (norm, -2.0 * norm, norm)
    a = (2.0 * (k2 - 1.0) * norm, (1.0 - k / q + k2) * norm)
    return b, a


# Samples per block of the high-pass recursion, and blocks per run. A block's
# zero-state response is one product with an (L, L) matrix, so its cost grows
# with L while the Python loop over blocks shrinks; 96 to 256 measured best.
# A run of 64 blocks keeps each temporary at 64 KiB, so no whole-utterance
# array exists beside the output.
BIQUAD_BLOCK = 128
BIQUAD_RUN = 64 * BIQUAD_BLOCK


def _pole_response(a):
    """(upper, free) of the all-pole recursion y[n] = v[n] - a1*y[n-1] - a2*y[n-2]
    over blocks of L = BIQUAD_BLOCK samples, with h its impulse response.

    `upper[j, i] = h[i - j]` for i >= j, so `v @ upper` is the zero-state
    response of each row of v. `free` holds the responses to the state
    (y[-1], y[-2]): rows h[1:L + 1] and -a2 * h[:L].
    """
    a1, a2 = a
    h = [1.0, -a1]
    while len(h) <= BIQUAD_BLOCK:
        h.append(-a1 * h[-1] - a2 * h[-2])
    h = np.array(h)
    upper = np.zeros((BIQUAD_BLOCK, BIQUAD_BLOCK))
    for j in range(BIQUAD_BLOCK):
        upper[j, j:] = h[:BIQUAD_BLOCK - j]
    free = np.stack([h[1:], -a2 * h[:BIQUAD_BLOCK]])
    return upper, free


def _biquad(samples: np.ndarray, b, pole) -> np.ndarray:
    """Direct-form-I biquad from zero state:

    y[n] = b0*x[n] + b1*x[n-1] + b2*x[n-2] - a1*y[n-1] - a2*y[n-2]

    The FIR part v[n] is one numpy expression. The all-pole part runs in
    blocks of BIQUAD_BLOCK samples: each block's zero-state response is one
    product with the impulse-response matrix of `pole`, the `_pole_response`
    of (a1, a2). A scalar loop over blocks, in Python floats, carries the
    state (y[-1], y[-2]) into each block as the previous block's last two
    outputs, and each block then adds `state @ free`. Both parts work in runs of BIQUAD_RUN samples,
    written straight into the output. The sums run in another order than the
    per-sample loop, so the result equals that loop to rounding, not bit for
    bit.
    """
    b0, b1, b2 = b
    upper, free = pole
    (last1, last2), (prev1, prev2) = free[:, -1].tolist(), free[:, -2].tolist()
    out = np.empty_like(samples)
    history = np.zeros(2)  # x[start-2], x[start-1]
    y1 = y2 = 0.0
    for start in range(0, len(samples), BIQUAD_RUN):
        x = np.concatenate((history, samples[start:start + BIQUAD_RUN]))
        history = x[-2:]
        v = b0 * x[2:] + b1 * x[1:-1] + b2 * x[:-2]
        n = len(v)
        if n % BIQUAD_BLOCK:  # only the last run: zeros after it change no output
            v = np.concatenate((v, np.zeros(BIQUAD_BLOCK - n % BIQUAD_BLOCK)))
        y = v.reshape(-1, BIQUAD_BLOCK) @ upper
        states = []
        for end2, end1 in y[:, -2:].tolist():
            states.append((y1, y2))
            y1, y2 = end1 + (y1 * last1 + y2 * last2), end2 + (y1 * prev1 + y2 * prev2)
        y += np.array(states) @ free
        out[start:start + n] = y.reshape(-1)[:n]
    return out


@lru_cache(maxsize=8)
def _highpass_design(cutoff_hz: float, sample_rate: int):
    """(b, pole response) of `highpass_filter`: every analysis at one rate shares them."""
    b, a = _butterworth_hp_biquad(cutoff_hz, sample_rate)
    pole = _pole_response(a)
    for arr in pole:
        arr.flags.writeable = False  # every caller shares the cached arrays
    return b, pole


def highpass_filter(wave: Waveform, cutoff_hz: float) -> Waveform:
    """Second-order Butterworth high-pass (-3 dB at cutoff_hz), preserving length."""
    if not 0 < cutoff_hz < wave.sample_rate / 2:
        raise InvalidCutoff(f"cutoff {cutoff_hz} Hz outside (0, {wave.sample_rate / 2})")
    if len(wave) == 0:
        raise TooShort("cannot filter an empty waveform")
    return Waveform(_biquad(wave.samples, *_highpass_design(cutoff_hz, wave.sample_rate)), wave.sample_rate)


def butterworth_hp_gain(cutoff_hz: float, sample_rate: int, freq_hz: float) -> float:
    """Analytic magnitude response of `highpass_filter` at freq_hz.

    The bilinear design maps the second-order analog prototype exactly, so
    the gain is r^2 / sqrt(1 + r^4) with r the prewarped frequency ratio.
    """
    r = math.tan(math.pi * freq_hz / sample_rate) / math.tan(math.pi * cutoff_hz / sample_rate)
    return r ** 2 / math.sqrt(1.0 + r ** 4)


# -- STFT / mel ------------------------------------------------------------------

def periodic_hann(length: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


@lru_cache(maxsize=8)
def _padded_window(window: int, fft_size: int) -> np.ndarray:
    out = np.zeros(fft_size)
    left = (fft_size - window) // 2
    out[left:left + window] = periodic_hann(window)
    out.flags.writeable = False  # every caller shares the cached array
    return out


def _mel_edges(cfg: MelConfig) -> np.ndarray:
    """The n_mels + 2 band edges in Hz, evenly spaced on the mel scale."""
    lo, hi = 2595.0 * np.log10(1.0 + np.array([cfg.fmin, cfg.fmax], dtype=np.float64) / 700.0)
    return 700.0 * (10.0 ** (np.linspace(lo, hi, cfg.n_mels + 2) / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def mel_filterbank(cfg: MelConfig) -> np.ndarray:
    """Triangular filters (n_mels x n_bins) spaced evenly on the mel scale."""
    edges = _mel_edges(cfg)
    bin_freqs = np.arange(cfg.n_bins) * cfg.sample_rate / cfg.fft_size
    fb = np.zeros((cfg.n_mels, cfg.n_bins))
    for m in range(cfg.n_mels):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (bin_freqs - lo) / (center - lo)
        down = (hi - bin_freqs) / (hi - center)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    fb.flags.writeable = False  # every caller shares the cached array
    return fb


def frame_signal(samples: np.ndarray, frame_len: int, hop: int, pad_mode: str) -> np.ndarray:
    """Center-padded framing: frame i is centered at sample i*hop.

    Frame count is len(samples)//hop + 1, independent of the pad mode.
    """
    n_frames = len(samples) // hop + 1
    half = frame_len // 2
    if pad_mode == "reflect" and len(samples) <= half:
        raise TooShort(f"need more than {half} samples for centered framing")
    return _frame_view(np.pad(samples, half, mode=pad_mode), frame_len, hop, n_frames)


def _frame_view(padded: np.ndarray, frame_len: int, hop: int, n_frames: int) -> np.ndarray:
    """The first n_frames frames of `padded`, one every hop samples: a view, not a copy."""
    return np.lib.stride_tricks.sliding_window_view(padded, frame_len)[::hop][:n_frames]


def _windowed_rfft(frames: np.ndarray, cfg: MelConfig, work=None, out=None) -> np.ndarray:
    """rfft of each frame times the analysis window, optionally into the buffers
    `work` (windowed frames) and `out` (spectrum). numpy.fft takes out= from
    numpy 2.0, the floor in pyproject.toml."""
    work = np.multiply(frames, _padded_window(cfg.window, cfg.fft_size), out=work)
    return np.fft.rfft(work, n=cfg.fft_size, axis=1, out=out)


def stft(samples: np.ndarray, cfg: MelConfig, pad_mode: str = "reflect") -> np.ndarray:
    """Windowed FFT frames, shape (T, n_bins)."""
    return _windowed_rfft(frame_signal(samples, cfg.fft_size, cfg.hop, pad_mode), cfg)


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


# Frames per block of the blocked analysis loops: mel power, log energy and
# YIN. A block of frames and its spectrum (512 KiB each at fft_size 1024)
# stay in a 2 MiB L2 cache, where whole-utterance frame arrays do not; at
# 128, YIN's 20 s traced peak no longer fits its 7.1 MiB bound.
FRAME_BLOCK = 64

# Frames per block of each run of an overlap-add pass. Every run has buffers
# of its own, so at 2 s (88 signal rows per run on 2 CPUs) a run works its
# frames as one block: fewer, larger numpy calls, which serialise less on
# the GIL than many short ones.
RUN_BLOCK = 96


def _split(n: int, count: int) -> list[tuple[int, int]]:
    """(lo, hi) of `count` near-equal contiguous runs covering 0..n-1."""
    return [(i * n // count, (i + 1) * n // count) for i in range(count)]


def frame_blocks(n_frames: int, size: int = FRAME_BLOCK) -> list[tuple[int, int]]:
    """(lo, hi) of ceil(n_frames / size) near-equal runs covering frames 0..n_frames-1."""
    return _split(n_frames, -(-n_frames // size)) if n_frames else []


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
    count = min(_cpu_count(), MAX_RUNS, n_frames // max(k - 1, 1))
    return _split(n_frames + k - 1, max(count, 1))


class _Run(NamedTuple):
    """Signal rows lo..hi-1 of an overlap-add pass, worked on one thread.

    The run works frames first..last-1, every frame that reaches its rows,
    one block of at most len(frames) frames at a time, and holds a block's
    frames in `frames`. A pass gives a block's frames the old signal rows
    they read in `stage`, block + k - 1 rows, and keeps in `upper`
    the old rows from hi on, which the next run overwrites: k - 1 of them,
    or fewer at the signal's end.
    """

    lo: int
    hi: int
    first: int
    last: int
    frames: np.ndarray
    stage: np.ndarray
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
    k = _columns(cfg)
    n = min(n_frames, 2 * k - 1)
    w = _padded_window(cfg.window, cfg.fft_size)
    norm = _overlap_add(np.broadcast_to(w * w, (n, cfg.fft_size)), cfg.hop, np.zeros((n + k - 1, cfg.hop)))
    norm = np.concatenate([norm[:k], norm[n:]])
    runs = []
    for lo, hi in spans or frame_runs(n_frames, k):
        first, last = max(lo - k + 1, 0), min(hi, n_frames)
        size = min(last - first, RUN_BLOCK)
        runs.append(_Run(lo, hi, first, last, np.empty((size, cfg.fft_size)), np.empty((size + k - 1, cfg.hop)),
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


def _wola_run(rows, r: int, run: _Run, cfg: MelConfig, signal: np.ndarray, divisor: np.ndarray) -> None:
    """Overlap-add every frame that reaches the signal rows of runs[r], one
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
        block = np.fft.irfft(rows(r, lo, hi), n=cfg.fft_size, axis=1, out=run.frames[:n])
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
    nothing, so its pool may be None): `rows(r, lo, hi)` gives the
    rows of frames lo..hi-1 for runs[r], one block of them at a time, and
    must use only run r's buffers. They are inverse-FFT'd into the run's
    frame buffer, windowed and added into the run's own signal rows; each
    row is then divided by the normaliser and its margin samples zeroed, so
    the rows hold the zero-padded signal `stft(..., pad_mode="constant")`
    would frame. Every row sums its frames in increasing frame order on one
    thread, so the result is the same bit for bit for any number of runs.

    The pass overwrites the signal its frames read, so a `rows` that reads
    the old rows of frames lo..hi-1 finds them in `runs[r].stage`. Before any
    run starts, the calling thread copies each run's halos, the k - 1 old
    rows below its first row (into the head of its stage) and from its last
    (into `upper`), which the neighbouring runs overwrite. Returns the
    (T - 1) * hop samples between the margins, a view of `signal`.
    """
    k = _columns(cfg)
    for run in runs:
        run.stage[:run.lo - run.first] = signal[run.first:run.lo]
        run.upper[:] = signal[run.hi:run.hi + len(run.upper)]
    futures = [pool.submit(_wola_run, rows, r, run, cfg, signal, divisor) for r, run in enumerate(runs) if r]
    try:
        _wola_run(rows, 0, runs[0], cfg, signal, divisor)
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
    return _wola_pass(lambda r, lo, hi: spec[lo:hi], runs, cfg, signal, divisor, None)


def mel_spectrogram(wave: Waveform, cfg: MelConfig) -> MelSpectrogram:
    """Log power mel-spectrogram with T = len//hop + 1 centered frames.

    |stft|^2 is taken a frame block at a time and mapped through the
    filterbank in one product, which split by rows is not bit-identical.
    """
    if wave.sample_rate != cfg.sample_rate:
        raise ConfigMismatch(f"waveform rate {wave.sample_rate} != config rate {cfg.sample_rate}")
    frames = frame_signal(wave.samples, cfg.fft_size, cfg.hop, "reflect")
    power = np.empty((len(frames), cfg.n_bins))
    for lo, hi in frame_blocks(len(frames)):
        power[lo:hi] = np.abs(_windowed_rfft(frames[lo:hi], cfg)) ** 2
    mel_energy = power @ mel_filterbank(cfg).T
    return MelSpectrogram(np.log(np.maximum(mel_energy, cfg.log_floor)), cfg)
