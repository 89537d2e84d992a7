"""Synthetic test and demo signals: tones, sawtooths, and toy utterances.

A toy utterance is a sequence of sawtooth "phones" with per-speaker base
pitch and spectral coloring, separated by short silences, plus the
matching phoneme alignment.  Good enough to exercise F0 tracking,
voicing, unitization, and alignment-based averaging end to end.
"""

from __future__ import annotations

import numpy as np

from .encoders import Alignment, AlignSegment
from .signal_core import RECURSION_CHUNK, Waveform


def sine_wave(freq: float, duration: float, sample_rate: int = 22050, amplitude: float = 0.5) -> Waveform:
    t = np.arange(int(round(duration * sample_rate))) / sample_rate
    return Waveform(amplitude * np.sin(2.0 * np.pi * freq * t), sample_rate)


def sawtooth_wave(freq: float, duration: float, sample_rate: int = 22050, amplitude: float = 0.5) -> Waveform:
    t = np.arange(int(round(duration * sample_rate))) / sample_rate
    return Waveform(amplitude * (2.0 * ((freq * t) % 1.0) - 1.0), sample_rate)


def white_noise(duration: float, sample_rate: int = 22050, seed: int = 0, amplitude: float = 0.3) -> Waveform:
    rng = np.random.default_rng(seed)
    return Waveform(amplitude * rng.standard_normal(int(round(duration * sample_rate))), sample_rate)


def silence(duration: float, sample_rate: int = 22050) -> Waveform:
    return Waveform(np.zeros(int(round(duration * sample_rate))), sample_rate)


def toy_utterance(seed: int, base_f0: float = 160.0, duration: float = 2.0,
                  sample_rate: int = 22050, tilt: float = 0.0,
                  n_phones: int = 6, pause_every: int = 3):
    """Synthetic utterance plus its alignment.

    Voiced sawtooth segments carry a slow vibrato around base_f0 and a
    per-speaker one-pole coloring controlled by `tilt` in [0, 0.95).
    Every `pause_every`-th slot is silence and is left out of the
    alignment, exercising the implicit-gap path downstream.
    """
    if not 0.0 <= tilt < 0.95:
        raise ValueError(f"tilt must be in [0, 0.95), got {tilt}")
    rng = np.random.default_rng(seed)
    n_slots = n_phones + n_phones // pause_every
    slot = duration / n_slots
    samples = []
    segments = []
    cursor = 0.0
    phone_idx = 0
    for s in range(n_slots):
        n = int(round(slot * sample_rate))
        if (s + 1) % (pause_every + 1) == 0:
            samples.append(np.zeros(n))
        else:
            t = np.arange(n) / sample_rate
            f0 = base_f0 * (1.0 + 0.04 * np.sin(2.0 * np.pi * (1.1 + 0.3 * rng.random()) * t)
                            + 0.08 * (rng.random() - 0.5))
            phase = np.cumsum(f0) / sample_rate
            amp = 0.25 + 0.15 * rng.random()
            x = amp * (2.0 * (phase % 1.0) - 1.0)
            # fade edges to avoid clicks
            ramp = min(64, n // 4)
            env = np.ones(n)
            env[:ramp] = np.linspace(0.0, 1.0, ramp)
            env[-ramp:] = np.linspace(1.0, 0.0, ramp)
            samples.append(x * env)
            segments.append(AlignSegment(f"P{phone_idx}", cursor, cursor + n / sample_rate))
            phone_idx += 1
        cursor += n / sample_rate
    out = np.concatenate(samples)
    if tilt > 0.0:
        # One-pole recursion over Python floats, chunked like signal_core._biquad.
        colored = np.empty_like(out)
        prev = 0.0
        for start in range(0, len(out), RECURSION_CHUNK):
            ys = out[start:start + RECURSION_CHUNK].tolist()
            for i, v in enumerate(ys):
                prev = v + tilt * prev
                ys[i] = prev
            colored[start:start + len(ys)] = ys
        out = colored * (1.0 - tilt)
    peak = np.abs(out).max()
    if peak > 0.95:
        out = out * (0.95 / peak)
    return Waveform(out, sample_rate), Alignment(tuple(segments))


def write_alignment(align: Alignment, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seg in align.segments:
            fh.write(f"{seg.label}\t{seg.start:.6f}\t{seg.end:.6f}\n")
