"""Audio primitives: file opening, WAV I/O, Butterworth high-pass filtering, STFT and mel analysis.

Everything here is a pure function over value types; the mel geometry is
carried explicitly in :class:`MelConfig` so every downstream track (F0,
energy, units) lands on the same frame grid. The high-pass runs its
recursion as one matrix product per block of samples, so it matches a
per-sample loop to rounding, not bit for bit.

The analysis loops (mel power and its filterbank product, log energy, YIN)
work FRAME_BLOCK frames at a time. Synthesis, the inverse STFT and
Griffin-Lim, lives in `vocoder`; nothing here starts a thread.
"""

from __future__ import annotations

import io
import math
import os
import wave as _wave
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

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


# Frames per block of the blocked analysis loops: mel power, log energy and
# YIN. A block of frames and its spectrum (512 KiB each at fft_size 1024)
# stay in a 2 MiB L2 cache, where whole-utterance frame arrays do not; at
# 128, YIN's 20 s traced peak no longer fits its 7.1 MiB bound.
FRAME_BLOCK = 64


def frame_blocks(n_frames: int, size: int = FRAME_BLOCK) -> list[tuple[int, int]]:
    """(lo, hi) of ceil(n_frames / size) near-equal runs covering frames 0..n_frames-1."""
    count = -(-n_frames // size)
    return [(i * n_frames // count, (i + 1) * n_frames // count) for i in range(count)]


def mel_spectrogram(wave: Waveform, cfg: MelConfig) -> MelSpectrogram:
    """Log power mel-spectrogram with T = len//hop + 1 centered frames.

    |stft|^2 is taken a frame block at a time and mapped through the
    filterbank into that block's rows of the output, so no (T, n_bins) power
    array exists. Each block's product gives the same bytes as the rows of
    one whole-utterance product.
    """
    if wave.sample_rate != cfg.sample_rate:
        raise ConfigMismatch(f"waveform rate {wave.sample_rate} != config rate {cfg.sample_rate}")
    frames = frame_signal(wave.samples, cfg.fft_size, cfg.hop, "reflect")
    fb = mel_filterbank(cfg)
    mel_energy = np.empty((len(frames), cfg.n_mels))
    for lo, hi in frame_blocks(len(frames)):
        np.matmul(np.abs(_windowed_rfft(frames[lo:hi], cfg)) ** 2, fb.T, out=mel_energy[lo:hi])
    np.maximum(mel_energy, cfg.log_floor, out=mel_energy)
    return MelSpectrogram(np.log(mel_energy, out=mel_energy), cfg)
