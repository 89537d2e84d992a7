"""Content prior from forced alignments and a deterministic speaker embedding.

The average-mel prior replaces every frame of a phoneme segment by the
segment's mean frame; gaps between aligned segments are averaged as their
own implicit segments.  The speaker embedding is stats pooling (per-band
mean and standard deviation over time) through a fixed seeded projection,
L2-normalized, so identical audio always maps to an identical vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonMonotonic, OutOfRange, Overlap, ParseError, TooShort, UnreadableFile
from .prosody import run_bounds
from .signal_core import MelConfig, MelSpectrogram

_PROJECTION_SEED = 0x5EED


@dataclass(frozen=True)
class AlignSegment:
    label: str
    start: float
    end: float


@dataclass(frozen=True)
class Alignment:
    """Ordered, non-overlapping labeled time segments (seconds)."""

    segments: tuple

    def __post_init__(self):
        segments = tuple(self.segments)
        for seg in segments:
            if seg.start < 0 or seg.end <= seg.start:
                raise NonMonotonic(f"segment {seg.label}: [{seg.start}, {seg.end}] is not increasing")
        for prev, cur in zip(segments, segments[1:]):
            if cur.start < prev.start:
                raise NonMonotonic(f"segment {cur.label} starts before {prev.label}")
            if cur.start < prev.end:
                raise Overlap(f"segments {prev.label} and {cur.label} overlap")
        object.__setattr__(self, "segments", segments)

    def shifted(self, offset: float) -> "Alignment":
        return Alignment(tuple(AlignSegment(s.label, s.start + offset, s.end + offset)
                               for s in self.segments))


def load_alignment(path) -> Alignment:
    """Parse a TSV of rows "label<TAB>start<TAB>end" into an Alignment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UnreadableFile(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc
    segments = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
        label, start_s, end_s = fields
        try:
            start, end = float(start_s), float(end_s)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric time ({exc})") from exc
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ParseError(f"{path}:{lineno}: non-finite time")
        segments.append(AlignSegment(label, start, end))
    return Alignment(tuple(segments))


def _segment_frame_ids(align: Alignment, n_frames: int, cfg: MelConfig) -> np.ndarray:
    """Segment index per frame (-1 for gaps); frame i covers [i*hop/sr, ...)."""
    frames_per_sec = cfg.sample_rate / cfg.hop
    ids = np.full(n_frames, -1, dtype=int)
    duration = n_frames / frames_per_sec
    for si, seg in enumerate(align.segments):
        if seg.end > duration + 1e-9:
            raise OutOfRange(f"segment {seg.label} ends at {seg.end:.3f}s beyond mel duration {duration:.3f}s")
        first = int(np.ceil(seg.start * frames_per_sec - 1e-9))
        last = int(np.ceil(seg.end * frames_per_sec - 1e-9))
        ids[first:min(last, n_frames)] = si
    return ids


def average_mel_target(mel: MelSpectrogram, align: Alignment) -> MelSpectrogram:
    """Replace each segment's frames by the segment mean frame."""
    ids = _segment_frame_ids(align, mel.n_frames, mel.config)
    out = mel.values.copy()
    bounds = run_bounds(ids)
    for start, end in zip(bounds[:-1], bounds[1:]):
        out[start:end] = mel.values[start:end].mean(axis=0)
    return MelSpectrogram(out, mel.config)


@lru_cache(maxsize=4)
def _speaker_projection(speaker_dim: int, n_stats: int) -> np.ndarray:
    rng = np.random.default_rng(_PROJECTION_SEED)
    return rng.standard_normal((speaker_dim, n_stats))


def speaker_embedding(mel: MelSpectrogram, speaker_dim: int = 64) -> np.ndarray:
    """Unit-norm embedding from per-band time statistics; fully deterministic."""
    if mel.n_frames < 2:
        raise TooShort("speaker embedding needs at least 2 frames")
    stats = np.concatenate([mel.values.mean(axis=0), mel.values.std(axis=0)])
    vec = _speaker_projection(speaker_dim, len(stats)) @ stats
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        vec = np.zeros(speaker_dim)
        vec[0] = 1.0
        return vec
    return vec / norm
