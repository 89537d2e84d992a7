"""Frame-level prosody extraction: F0 (YIN), log energy, and speech units.

F0 tracking is a from-scratch YIN: difference function, cumulative mean
normalization, absolute threshold, and parabolic lag interpolation.  All
tracks share the mel frame grid (T = len // hop + 1, frames centered at
i * hop) so prosody aligns with the spectrogram one-to-one.

`extract_f0` frames the utterance once, as a view, and computes the
difference function, its normalization and the threshold search over blocks
of YIN_BLOCK frames. Every row's FFT and cumulative sum is computed alone, so
the blocks change no value: the result equals one whole-utterance batch bit
for bit, while the FFT temporaries stay the size of one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigMismatch, DimMismatch, EmptySequence, InsufficientData, TooShort
from .signal_core import MelConfig, MelSpectrogram, Waveform, frame_signal

ENERGY_FLOOR = 1e-10

# Frames per block of YIN's difference function. It bounds the (block, fft_n)
# FFT temporaries, which for a whole 20 s utterance would take over 80 MB.
# Inputs of up to 256 frames (about 2.9 s at the default hop) run as one block.
YIN_BLOCK = 256


@dataclass(frozen=True)
class F0Config:
    f0_min: float = 50.0
    f0_max: float = 600.0
    yin_threshold: float = 0.15
    rms_floor: float = 1e-4

    def __post_init__(self):
        if not 0 < self.f0_min < self.f0_max:
            raise ValueError("need 0 < f0_min < f0_max")
        if not self.yin_threshold > 0:
            raise ValueError("yin_threshold must be positive")


@dataclass(frozen=True)
class ProsodyTrack:
    """Per-frame log F0 (0.0 where unvoiced), voiced flags, and log energy."""

    log_f0: np.ndarray
    voiced: np.ndarray
    log_energy: np.ndarray

    def __post_init__(self):
        log_f0 = np.asarray(self.log_f0, dtype=np.float64)
        voiced = np.asarray(self.voiced, dtype=bool)
        log_energy = np.asarray(self.log_energy, dtype=np.float64)
        if not (len(log_f0) == len(voiced) == len(log_energy)):
            raise ValueError("prosody tracks must share one frame count")
        if np.any(log_f0[~voiced] != 0.0):
            raise ValueError("unvoiced frames must carry the 0.0 log_f0 sentinel")
        object.__setattr__(self, "log_f0", log_f0)
        object.__setattr__(self, "voiced", voiced)
        object.__setattr__(self, "log_energy", log_energy)

    @property
    def n_frames(self) -> int:
        return len(self.log_f0)


@dataclass(frozen=True)
class UnitSequence:
    """Maximal run-length encoded (unit id, duration) pairs."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((int(u), int(d)) for u, d in self.pairs)
        for _, d in pairs:
            if d < 1:
                raise ValueError("durations must be >= 1")
        for (u1, _), (u2, _) in zip(pairs, pairs[1:]):
            if u1 == u2:
                raise ValueError("adjacent pairs must have distinct unit ids")
        object.__setattr__(self, "pairs", pairs)

    @property
    def total_frames(self) -> int:
        return sum(d for _, d in self.pairs)

    def durations(self) -> np.ndarray:
        return np.array([d for _, d in self.pairs], dtype=np.float64)


@dataclass(frozen=True)
class Codebook:
    """K cluster centroids over log-mel frames, stand-in unit inventory."""

    centroids: np.ndarray

    def __post_init__(self):
        centroids = np.asarray(self.centroids, dtype=np.float64)
        if centroids.ndim != 2 or centroids.shape[0] < 2:
            raise ValueError("codebook needs a K x dim matrix with K >= 2")
        if not np.all(np.isfinite(centroids)):
            raise ValueError("centroids must be finite")
        object.__setattr__(self, "centroids", centroids)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


# -- F0 ------------------------------------------------------------------------

def extract_f0(wave: Waveform, mel_cfg: MelConfig, f0_cfg: F0Config = F0Config()):
    """YIN F0 per mel-aligned frame; returns (f0_hz, voiced) with F0=0 where unvoiced."""
    if wave.sample_rate != mel_cfg.sample_rate:
        raise ConfigMismatch("waveform sample rate does not match the analysis config")
    n = len(wave)
    if n == 0:
        raise TooShort("cannot extract F0 from an empty waveform")
    sr = wave.sample_rate
    tau_min = max(2, int(math.ceil(sr / f0_cfg.f0_max)))
    tau_max = int(math.floor(sr / f0_cfg.f0_min))
    if tau_max <= tau_min + 2:
        raise TooShort("f0 search range is degenerate at this sample rate")

    # Each frame analyses a zero-padded segment of 2*tau_max samples centered
    # at i*hop; the difference function integrates over W = tau_max lags.
    n_frames = mel_cfg.frame_count(n)
    frames = frame_signal(wave.samples, 2 * tau_max, mel_cfg.hop, "constant")
    fft_n = 1 << int(math.ceil(math.log2(3 * tau_max)))

    f0 = np.zeros(n_frames)
    voiced = np.zeros(n_frames, dtype=bool)
    lag_lo, lag_hi = sr / f0_cfg.f0_max, sr / f0_cfg.f0_min
    for start in range(0, n_frames, YIN_BLOCK):
        cmndf, rms = _cmndf(frames[start:start + YIN_BLOCK], tau_max, fft_n)
        for i, (row, row_rms) in enumerate(zip(cmndf, rms), start):
            if row_rms <= f0_cfg.rms_floor:
                continue
            below = row[tau_min:tau_max + 1] < f0_cfg.yin_threshold
            if not below.any():
                continue
            tau = tau_min + int(np.argmax(below))
            while tau + 1 <= tau_max and row[tau + 1] < row[tau]:
                tau += 1
            lag = float(tau)
            if tau_min < tau < tau_max:
                dm, d0, dp = row[tau - 1], row[tau], row[tau + 1]
                denom = dm - 2.0 * d0 + dp
                if denom > 0:
                    shift = 0.5 * (dm - dp) / denom
                    if abs(shift) <= 1.0:
                        lag += shift
            lag = min(max(lag, lag_lo), lag_hi)
            f0[i] = sr / lag
            voiced[i] = True
    return f0, voiced


def _cmndf(frames: np.ndarray, tau_max: int, fft_n: int):
    """YIN's cumulative mean normalized difference, lags 0..tau_max, and the RMS
    of each (2*tau_max)-sample frame; one row per frame, each row computed alone."""
    rows, seg_len = frames.shape
    w = tau_max
    sq = np.concatenate([np.zeros((rows, 1)), np.cumsum(frames**2, axis=1)], axis=1)
    energy = sq[:, w:w + tau_max + 1] - sq[:, :tau_max + 1]
    rms = np.sqrt(sq[:, -1] / seg_len)

    head = np.zeros_like(frames)
    head[:, :w] = frames[:, :w]
    corr = np.fft.irfft(np.conj(np.fft.rfft(head, fft_n)) * np.fft.rfft(frames, fft_n), fft_n)
    corr = corr[:, :tau_max + 1]

    diff = np.maximum(energy[:, :1] + energy - 2.0 * corr, 0.0)
    cums = np.cumsum(diff[:, 1:], axis=1)
    taus = np.arange(1, tau_max + 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        cmndf = np.where(cums > 0, diff[:, 1:] * taus / cums, 1.0)
    return np.concatenate([np.ones((rows, 1)), cmndf], axis=1), rms


def extract_log_energy(wave: Waveform, mel_cfg: MelConfig) -> np.ndarray:
    """log(sum of squared samples) per frame, floored at 1e-10."""
    if len(wave) == 0:
        raise TooShort("cannot compute energy of an empty waveform")
    frames = frame_signal(wave.samples, mel_cfg.window, mel_cfg.hop, "reflect")
    return np.log(np.maximum(np.sum(frames**2, axis=1), ENERGY_FLOOR))


def extract_prosody(wave: Waveform, mel_cfg: MelConfig, f0_cfg: F0Config = F0Config()) -> ProsodyTrack:
    """Combined logF0 / voicing / log-energy track on the mel frame grid."""
    f0, voiced = extract_f0(wave, mel_cfg, f0_cfg)
    log_energy = extract_log_energy(wave, mel_cfg)
    log_f0 = np.where(voiced, np.log(np.where(voiced, f0, 1.0)), 0.0)
    return ProsodyTrack(log_f0, voiced, log_energy)


# -- pseudo-units ----------------------------------------------------------------

def train_unit_codebook(features: list[MelSpectrogram], k: int, seed: int) -> Codebook:
    """Deterministic k-means (<=100 Lloyd iterations) over pooled mel frames."""
    if not features:
        raise InsufficientData("no feature matrices given")
    data = np.vstack([f.values for f in features])
    if data.shape[0] < k:
        raise InsufficientData(f"{data.shape[0]} frames < {k} clusters")
    unique = np.unique(data, axis=0)
    if unique.shape[0] < k:
        raise InsufficientData(f"only {unique.shape[0]} distinct frames for {k} clusters")
    rng = np.random.default_rng(seed)
    centroids = unique[rng.choice(unique.shape[0], size=k, replace=False)].copy()
    labels = None
    for _ in range(100):
        dists = _sq_distances(data, centroids)
        new_labels = np.argmin(dists, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = data[labels == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
    return Codebook(centroids)


def _sq_distances(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.sum(x**2, axis=1)[:, None] - 2.0 * (x @ c.T) + np.sum(c**2, axis=1)[None, :]


def run_bounds(labels: np.ndarray) -> np.ndarray:
    """Start index of each run of equal labels, then len(labels) as the last run's end."""
    starts = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    return np.concatenate([[0], starts, [len(labels)]])


def unitize(feats: MelSpectrogram, codebook: Codebook) -> UnitSequence:
    """Nearest-centroid labels (ties to the lowest index), run-length encoded."""
    if feats.values.shape[1] != codebook.dim:
        raise DimMismatch(f"feature dim {feats.values.shape[1]} != codebook dim {codebook.dim}")
    labels = np.argmin(_sq_distances(feats.values, codebook.centroids), axis=1)
    bounds = run_bounds(labels)
    return UnitSequence(tuple((labels[s], e - s) for s, e in zip(bounds[:-1], bounds[1:])))


def speaking_rate(units: UnitSequence) -> float:
    """Inverse of the mean unit duration, in 1/frames."""
    if not units.pairs:
        raise EmptySequence("unit sequence is empty")
    return 1.0 / float(np.mean(units.durations()))
