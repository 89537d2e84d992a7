"""Speaking-rate control by linear time re-sampling of the mel-spectrogram.

A conversion rate above 1 means the target speaks faster, so the output
is shortened: T' = round(T / rate).  Interpolation positions are
j*(T-1)/(T'-1), which pins the first and last frames exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TooShort
from .signal_core import MelSpectrogram
from .transform import ConversionRate


def resampled_length(n_frames: int, clamped_rate: float) -> int:
    return int(math.floor(n_frames / clamped_rate + 0.5))


def resample_mel(mel: MelSpectrogram, rate: ConversionRate) -> MelSpectrogram:
    """Linearly re-sample mel frames in time by the clamped conversion rate."""
    t = mel.n_frames
    if t < 2:
        raise TooShort("need at least 2 frames to re-sample")
    ratio = rate.clamped
    t_out = resampled_length(t, ratio)
    pos = np.arange(t_out) * (t - 1) / (t_out - 1)
    i0 = np.minimum(pos.astype(int), t - 2)
    frac = (pos - i0)[:, None]
    values = (1.0 - frac) * mel.values[i0] + frac * mel.values[i0 + 1]
    return MelSpectrogram(values, mel.config)
