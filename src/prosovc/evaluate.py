"""Objective metrics and the prosody-modulation sweep harness.

The sweep analyses each source/target pair once and plans it once with
every level (pipeline.plan_synthesis), synthesizes it across a grid of
octave shifts (or speaking-rate ratios), re-extracts prosody from the
generated audio, and returns one row per level, which write_sweep_csv
writes as CSV. A rate level acts only after decoding, so a rate sweep
decodes each pair once.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import LengthMismatch, NoCommonVoiced, NoVoicedFrames, ShapeMismatch
# convert stays importable here: the traced benchmark replaces evaluate.convert.
from .pipeline import ModelBundle, convert, decode, extract_features, plan_synthesis, render
from .prosody import ProsodyTrack
from .signal_core import MelSpectrogram, open_file
from .transform import ConversionRate, ModulationSpec, voiced_mean

F0_SWEEP_LEVELS = (-0.50, -0.25, 0.0, 0.25, 0.50)
RATE_SWEEP_LEVELS = (0.66, 0.75, 1.0, 1.20, 1.33)
DEFAULT_SWEEP_GL_ITERS = 30

F0_SWEEP_HEADER = ["level", "requested_mean_hz", "achieved_mean_hz", "f0_rmse_hz", "out_frames"]
RATE_SWEEP_HEADER = ["level", "requested_rate", "achieved_ratio", "sr_error", "out_frames"]


def f0_rmse(a: ProsodyTrack, b: ProsodyTrack) -> float:
    """RMSE in Hz over frames voiced in both tracks."""
    if a.n_frames != b.n_frames:
        raise LengthMismatch(f"{a.n_frames} != {b.n_frames} frames")
    common = a.voiced & b.voiced
    if not common.any():
        raise NoCommonVoiced("tracks have no frame voiced in both")
    diff = np.exp(a.log_f0[common]) - np.exp(b.log_f0[common])
    return float(np.sqrt(np.mean(diff * diff)))


def sr_ratio_error(requested: float, achieved: float) -> float:
    """Relative speaking-rate error |achieved - requested| / requested."""
    return abs(achieved - requested) / requested


def log_spectral_distance(a: MelSpectrogram, b: MelSpectrogram) -> float:
    """Mean over frames of the L2 norm of per-frame log-mel differences."""
    if a.values.shape != b.values.shape:
        raise ShapeMismatch(f"{a.values.shape} != {b.values.shape}")
    return float(np.mean(np.linalg.norm(a.values - b.values, axis=1)))


def sweep_plan(mode: str = "f0", levels=None) -> list[tuple[float, ModulationSpec]]:
    """A sweep's (level, spec) pairs: "f0" sets octave_shift, "rate" rate_multiplier,
    levels default per mode; ValueError on an unknown mode or a level the spec refuses."""
    if mode not in ("f0", "rate"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    if levels is None:
        levels = F0_SWEEP_LEVELS if mode == "f0" else RATE_SWEEP_LEVELS
    knob = "octave_shift" if mode == "f0" else "rate_multiplier"
    return [(level, ModulationSpec(**{knob: level})) for level in levels]


def modulation_sweep(pairs, bundle: ModelBundle, levels=None, mode: str = "f0", seed: int = 0,
                     gl_iters: int = DEFAULT_SWEEP_GL_ITERS) -> list[dict]:
    """Analyse and plan each pair once, then synthesize once per level; one averaged row per level.

    A synthesis is pipeline.decode then pipeline.render; a rate level acts
    only in render, so a rate sweep decodes each pair once and renders that
    decode at every level.

    pairs: non-empty list of (src Waveform, src Alignment, trg Waveform).
    mode "f0" sweeps octave shifts on top of the global mean transfer;
    mode "rate" sweeps re-sampling ratios.  Quality columns that cannot
    be measured on a given output (no voiced frames) are recorded as NaN.
    Every argument is checked before any analysis, and every pair is
    planned with every level's modulation before any synthesis.
    """
    grid = sweep_plan(mode, levels)
    if gl_iters < 0:
        raise ValueError(f"gl_iters must be >= 0, got {gl_iters}")
    if not pairs:
        raise ValueError("no pairs to sweep")
    mods = [mod for _, mod in grid]
    plans = [plan_synthesis(extract_features(src, bundle.mel_cfg, bundle.f0_cfg),
                            extract_features(trg, bundle.mel_cfg, bundle.f0_cfg), src_align, bundle, mods)
             for src, src_align, trg in pairs]
    # every rate level requests the same track, so rate mode decodes each pair once
    shared = [decode(plan, plan.requested[0], bundle, seed=seed) for plan in plans] if mode == "rate" else None
    rows = []
    for i, (level, mod) in enumerate(grid):
        cols = []
        for k, plan in enumerate(plans):
            requested = plan.requested[i]
            mel = shared[k] if shared else decode(plan, requested, bundle, seed=seed)
            rate = None if mod.rate_multiplier is None else ConversionRate(mod.rate_multiplier)
            wave, mel_out = render(mel, rate, bundle, seed=seed, gl_iters=gl_iters)
            if mode == "f0":
                cols.append(_f0_row(wave, requested, mel_out.n_frames, bundle))
            else:
                achieved = plan.report["source_frames"] / mel_out.n_frames
                cols.append({
                    "requested_rate": rate.clamped,
                    "achieved_ratio": achieved,
                    "sr_error": sr_ratio_error(rate.clamped, achieved),
                    "out_frames": mel_out.n_frames,
                })
        row = {"level": level}
        for key in cols[0]:
            row[key] = float(np.mean([c[key] for c in cols]))
        rows.append(row)
    return rows


def _f0_row(wave, requested: ProsodyTrack, out_frames: int, bundle: ModelBundle) -> dict:
    achieved_mean = math.nan
    rmse = math.nan
    try:
        _, extracted = extract_features(wave, bundle.mel_cfg, bundle.f0_cfg)
        achieved_mean = voiced_mean(extracted)
        rmse = f0_rmse(requested, extracted)
    except (NoVoicedFrames, NoCommonVoiced, LengthMismatch):
        pass  # toy decoder output may have no measurable voicing
    return {
        "requested_mean_hz": voiced_mean(requested),
        "achieved_mean_hz": achieved_mean,
        "f0_rmse_hz": rmse,
        "out_frames": out_frames,
    }


def write_sweep_csv(path, rows: list[dict], header: list[str]) -> None:
    with open_file(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[key]) for key in header])


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.6g}"
    return str(value)
