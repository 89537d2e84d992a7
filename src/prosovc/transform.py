"""Global prosody conversion and user-defined modulation.

Mean F0 transfer is additive in linear Hz over voiced frames only; user
modulation (octaves, semitones, per-frame curves) is additive in log-Hz.
Speaking-rate ratios are clamped to [0.66, 1.33] before use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CurveLengthMismatch, EmptySequence, F0OutOfRange, NonPositiveF0, NoVoicedFrames
from .prosody import ProsodyTrack, UnitSequence

RATE_MIN = 0.66
RATE_MAX = 1.33

LN2 = math.log(2.0)


@dataclass(frozen=True)
class ModulationSpec:
    """User prosody edits applied after global conversion."""

    octave_shift: float = 0.0
    semitone_shift: float = 0.0
    frame_f0_delta: np.ndarray | None = None
    energy_gain: float = 0.0
    rate_multiplier: float | None = None

    def __post_init__(self):
        if self.frame_f0_delta is not None:
            curve = np.asarray(self.frame_f0_delta, dtype=np.float64)
            if not np.all(np.isfinite(curve)):
                raise ValueError("frame_f0_delta must be finite")
            object.__setattr__(self, "frame_f0_delta", curve)
        for name in ("octave_shift", "semitone_shift", "energy_gain"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.rate_multiplier is not None:
            rate = float(self.rate_multiplier)
            if not (math.isfinite(rate) and rate > 0):
                raise ValueError("rate_multiplier must be finite and > 0")
            object.__setattr__(self, "rate_multiplier", rate)


@dataclass(frozen=True)
class ConversionRate:
    """Source/target mean-duration ratio with its usable clamped value."""

    raw: float

    @property
    def clamped(self) -> float:
        return min(RATE_MAX, max(RATE_MIN, self.raw))


def voiced_mean(track: ProsodyTrack) -> float:
    """Arithmetic mean F0 in Hz over voiced frames."""
    if not track.voiced.any():
        raise NoVoicedFrames("track has no voiced frames")
    return float(np.mean(np.exp(track.log_f0[track.voiced])))


def f0_mean_transfer(src: ProsodyTrack, mu_trg: float) -> ProsodyTrack:
    """Shift voiced F0 in Hz so the voiced mean becomes mu_trg.

    F0_new = F0_src + (mu_trg - mu_src) on voiced frames; unvoiced frames
    keep the zero sentinel.  A zero shift returns the track unchanged.
    """
    if mu_trg <= 0:
        raise NonPositiveF0(f"target mean {mu_trg} Hz must be positive")
    mu_src = voiced_mean(src)
    delta = mu_trg - mu_src
    if delta == 0.0:
        return src
    f0 = np.exp(src.log_f0[src.voiced]) + delta
    if np.any(f0 <= 0):
        raise NonPositiveF0(f"mean shift {delta:+.2f} Hz drives voiced F0 non-positive")
    log_f0 = src.log_f0.copy()
    log_f0[src.voiced] = np.log(f0)
    return ProsodyTrack(log_f0, src.voiced, src.log_energy)


def conversion_rate(units_src: UnitSequence, units_trg: UnitSequence) -> ConversionRate:
    """Ratio of source to target mean unit duration."""
    if not units_src.pairs or not units_trg.pairs:
        raise EmptySequence("unit sequences must be non-empty")
    return ConversionRate(float(np.mean(units_src.durations()) / np.mean(units_trg.durations())))


def modulate(track: ProsodyTrack, spec: ModulationSpec) -> ProsodyTrack:
    """Apply log-domain F0 shifts to voiced frames and an energy offset everywhere."""
    if spec.frame_f0_delta is not None and len(spec.frame_f0_delta) != track.n_frames:
        raise CurveLengthMismatch(
            f"curve length {len(spec.frame_f0_delta)} != track length {track.n_frames}"
        )
    shift = spec.octave_shift * LN2 + spec.semitone_shift * LN2 / 12.0
    log_f0 = track.log_f0.copy()
    with np.errstate(over="ignore"):
        if spec.frame_f0_delta is not None:
            shift = shift + spec.frame_f0_delta[track.voiced]
        log_f0[track.voiced] += shift
        hz = np.exp(log_f0[track.voiced])
    if not np.all(np.isfinite(hz) & (hz > 0)):
        raise F0OutOfRange(f"voiced F0 must stay finite and > 0 Hz, got {hz.min():.4g} to {hz.max():.4g} Hz")
    return ProsodyTrack(log_f0, track.voiced, track.log_energy + spec.energy_gain)
