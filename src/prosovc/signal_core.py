"""Audio primitives: WAV I/O, Butterworth high-pass filtering, STFT and mel analysis.

Everything here is a pure function over value types; the mel geometry is
carried explicitly in :class:`MelConfig` so every downstream track (F0,
energy, units) lands on the same frame grid.
"""

from __future__ import annotations

import math
import wave as _wave
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
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


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


# -- WAV I/O -------------------------------------------------------------------

def load_wav(path) -> Waveform:
    """Read a mono PCM16 RIFF/WAVE file, normalizing samples by 32768."""
    try:
        with _wave.open(str(path), "rb") as reader:
            if reader.getnchannels() != 1:
                raise UnsupportedFormat(f"{path}: expected mono, got {reader.getnchannels()} channels")
            if reader.getsampwidth() != 2:
                raise UnsupportedFormat(f"{path}: expected 16-bit PCM, got {8 * reader.getsampwidth()}-bit")
            if reader.getcomptype() != "NONE":
                raise UnsupportedFormat(f"{path}: compressed WAV is not supported")
            sample_rate = reader.getframerate()
            raw = reader.readframes(reader.getnframes())
    except OSError as exc:
        raise UnreadableFile(f"{path}: {exc}") from exc
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
    try:
        writer = _wave.open(str(path), "wb")
    except OSError as exc:
        raise UnwritableFile(f"{path}: {exc}") from exc
    try:
        with writer:
            writer.setnchannels(1)
            writer.setsampwidth(2)
            writer.setframerate(wave.sample_rate)
            writer.writeframes(quantized.tobytes())
    except OSError as exc:
        raise UnwritableFile(f"{path}: {exc}") from exc


# -- Butterworth high-pass -------------------------------------------------------

def _butterworth_hp_sections(cutoff_hz: float, sample_rate: int, order: int):
    # Bilinear transform with frequency prewarping; one biquad per pole pair.
    k = math.tan(math.pi * cutoff_hz / sample_rate)
    k2 = k * k
    sections = []
    for i in range(order // 2):
        q = 1.0 / (2.0 * math.cos(math.pi * (2 * i + 1) / (2 * order)))
        norm = 1.0 / (1.0 + k / q + k2)
        b = (norm, -2.0 * norm, norm)
        a = (2.0 * (k2 - 1.0) * norm, (1.0 - k / q + k2) * norm)
        sections.append((b, a))
    return sections


# Samples per chunk of a Python-float recursion. Speed is flat from 1024 to
# 4096; larger chunks hold more float objects at once, and 4096 raised the
# benchmark's peak RSS by up to 0.9 MB over the per-sample loop (1024: 0.2 MB).
RECURSION_CHUNK = 1024


def _biquad(samples: np.ndarray, b, a) -> np.ndarray:
    """Direct-form-I biquad from zero state, bit-identical to the per-sample loop:

    y[n] = b0*x[n] + b1*x[n-1] + b2*x[n-2] - a1*y[n-1] - a2*y[n-2]

    evaluated left to right. The FIR part is one numpy expression with the same
    evaluation order and zero history, so every sum rounds as in the loop. Only
    the recursion runs in Python, over Python floats (IEEE doubles, no FMA,
    rounded like numpy's), writing each output over its FIR value in one list.
    Both work in chunks of RECURSION_CHUNK samples, carrying (x1, x2) and
    (y1, y2) across chunk edges: whole-utterance temporaries, and above all
    one float object per sample, would raise peak memory for no speed.
    """
    b0, b1, b2 = b
    a1, a2 = a
    out = np.empty_like(samples)
    history = np.zeros(2)  # x[start-2], x[start-1]
    y1 = y2 = 0.0
    for start in range(0, len(samples), RECURSION_CHUNK):
        x = np.concatenate((history, samples[start:start + RECURSION_CHUNK]))
        history = x[-2:]
        ys = (b0 * x[2:] + b1 * x[1:-1] + b2 * x[:-2]).tolist()
        for i, v0 in enumerate(ys):
            y2, y1 = y1, v0 - a1 * y1 - a2 * y2
            ys[i] = y1
        out[start:start + len(ys)] = ys
    return out


def highpass_filter(wave: Waveform, cutoff_hz: float, order: int = 2) -> Waveform:
    """Butterworth high-pass (-3 dB at cutoff_hz), preserving length."""
    if not 0 < cutoff_hz < wave.sample_rate / 2:
        raise InvalidCutoff(f"cutoff {cutoff_hz} Hz outside (0, {wave.sample_rate / 2})")
    if order not in (2, 4):
        raise InvalidCutoff(f"order must be 2 or 4, got {order}")
    if len(wave) == 0:
        raise TooShort("cannot filter an empty waveform")
    out = wave.samples
    for b, a in _butterworth_hp_sections(cutoff_hz, wave.sample_rate, order):
        out = _biquad(out, b, a)
    return Waveform(out, wave.sample_rate)


def butterworth_hp_gain(cutoff_hz: float, sample_rate: int, order: int, freq_hz: float) -> float:
    """Analytic magnitude response of the digital filter at freq_hz.

    The bilinear design maps the analog prototype exactly, so the gain is
    r^order / sqrt(1 + r^(2*order)) with r the prewarped frequency ratio.
    """
    r = math.tan(math.pi * freq_hz / sample_rate) / math.tan(math.pi * cutoff_hz / sample_rate)
    return r ** order / math.sqrt(1.0 + r ** (2 * order))


# -- STFT / mel ------------------------------------------------------------------

def periodic_hann(length: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(length) / length)


@lru_cache(maxsize=8)
def _padded_window(window: int, fft_size: int) -> np.ndarray:
    w = periodic_hann(window)
    if window == fft_size:
        return w
    out = np.zeros(fft_size)
    left = (fft_size - window) // 2
    out[left:left + window] = w
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


def _overlap_add(frames: np.ndarray, hop: int, blocks: np.ndarray) -> np.ndarray:
    """Add frame i into the zeroed (n_frames + k - 1, hop) `blocks` from block i on.

    The frames are cut into k = ceil(width / hop) columns of hop samples, the
    last one possibly narrower; column j of every frame lands on block i + j.
    Adding the columns last-first makes each block sum its frames in
    increasing frame order, so the result equals a per-frame loop bit for
    bit. `frames` may be a broadcast view.
    """
    n_frames = frames.shape[0]
    for j in range(blocks.shape[0] - n_frames, -1, -1):
        cols = frames[:, j * hop:(j + 1) * hop]
        blocks[j:j + n_frames, :cols.shape[1]] += cols
    return blocks


def _wola_buffers(cfg: MelConfig, n_frames: int):
    """(frames, blocks, divisor) for `_wola` of n_frames frames.

    The divisor is the overlap-added squared window, with 1 wherever that
    sum is not above 1e-11.
    """
    blocks = np.zeros((n_frames - 1 + -(-cfg.fft_size // cfg.hop), cfg.hop))
    w = _padded_window(cfg.window, cfg.fft_size)
    norm = _overlap_add(np.broadcast_to(w * w, (n_frames, cfg.fft_size)), cfg.hop, blocks.copy())
    return np.empty((n_frames, cfg.fft_size)), blocks, np.where(norm > 1e-11, norm, 1.0)


def _wola(spec: np.ndarray, cfg: MelConfig, frames: np.ndarray, blocks: np.ndarray,
          divisor: np.ndarray) -> np.ndarray:
    """Weighted overlap-add of the inverse FFT of `spec`, into the given buffers.

    Returns the flattened blocks, uncut: sample s of the signal is at
    s + fft_size // 2.
    """
    np.fft.irfft(spec, n=cfg.fft_size, axis=1, out=frames)
    frames *= _padded_window(cfg.window, cfg.fft_size)
    blocks.fill(0.0)
    _overlap_add(frames, cfg.hop, blocks)
    blocks /= divisor
    return blocks.reshape(-1)


def istft(spec: np.ndarray, cfg: MelConfig) -> np.ndarray:
    """Least-squares inverse of `stft`: weighted overlap-add, center-trimmed.

    Output length is (T - 1) * hop.
    """
    n_frames = spec.shape[0]
    padded = _wola(spec, cfg, *_wola_buffers(cfg, n_frames))
    half = cfg.fft_size // 2
    return padded[half:(n_frames - 1) * cfg.hop + cfg.fft_size - half]


def mel_spectrogram(wave: Waveform, cfg: MelConfig) -> MelSpectrogram:
    """Log power mel-spectrogram with T = len//hop + 1 centered frames."""
    if wave.sample_rate != cfg.sample_rate:
        raise ConfigMismatch(f"waveform rate {wave.sample_rate} != config rate {cfg.sample_rate}")
    if len(wave) <= cfg.fft_size // 2:
        raise TooShort(f"need more than {cfg.fft_size // 2} samples, got {len(wave)}")
    power = np.abs(stft(wave.samples, cfg)) ** 2
    mel_energy = power @ mel_filterbank(cfg).T
    return MelSpectrogram(np.log(np.maximum(mel_energy, cfg.log_floor)), cfg)
