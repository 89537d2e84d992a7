import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_track
from prosovc.errors import CurveLengthMismatch, EmptySequence, F0OutOfRange, NonPositiveF0, NoVoicedFrames
from prosovc.prosody import ProsodyTrack, UnitSequence
from prosovc.transform import (
    ConversionRate,
    ModulationSpec,
    conversion_rate,
    f0_mean_transfer,
    modulate,
    voiced_mean,
)


def track_from_hz(f0_hz, voiced, energy=None):
    f0_hz = np.asarray(f0_hz, dtype=float)
    voiced = np.asarray(voiced, dtype=bool)
    log_f0 = np.where(voiced, np.log(np.where(voiced, f0_hz, 1.0)), 0.0)
    energy = np.zeros(len(f0_hz)) if energy is None else np.asarray(energy, float)
    return ProsodyTrack(log_f0, voiced, energy)


# -- voiced mean ---------------------------------------------------------------

def test_voiced_mean_hand_case():
    track = track_from_hz([100.0, 0.0, 300.0], [True, False, True])
    assert voiced_mean(track) == pytest.approx(200.0)


def test_voiced_mean_constant():
    track = track_from_hz([150.0] * 5, [True] * 5)
    assert voiced_mean(track) == pytest.approx(150.0)


def test_voiced_mean_no_voiced():
    track = track_from_hz([0.0, 0.0], [False, False])
    with pytest.raises(NoVoicedFrames):
        voiced_mean(track)


# -- Eq.-style mean transfer ------------------------------------------------------

def test_transfer_hand_case():
    track = track_from_hz([100.0, 120.0, 0.0, 110.0], [True, True, False, True])
    out = f0_mean_transfer(track, 200.0)
    f0 = np.where(out.voiced, np.exp(out.log_f0), 0.0)
    assert np.allclose(f0, [190.0, 210.0, 0.0, 200.0])
    assert voiced_mean(out) == pytest.approx(200.0, abs=1e-9)


def test_transfer_identity_is_bitwise():
    rng = np.random.default_rng(5)
    track = make_track(rng)
    out = f0_mean_transfer(track, voiced_mean(track))
    assert out.log_f0 is track.log_f0
    assert np.array_equal(out.log_f0, track.log_f0)


def test_transfer_exactness_random_tracks():
    rng = np.random.default_rng(9)
    for _ in range(50):
        track = make_track(rng, n_frames=int(rng.integers(4, 60)))
        mu = float(rng.uniform(80.0, 400.0))
        out = f0_mean_transfer(track, mu)
        assert abs(voiced_mean(out) - mu) < 1e-9
        assert np.array_equal(out.voiced, track.voiced)


def test_transfer_rejects_nonpositive_result():
    track = track_from_hz([100.0, 400.0], [True, True])  # mean 250
    with pytest.raises(NonPositiveF0):
        f0_mean_transfer(track, 100.0)  # shift -150 drives 100 -> -50
    with pytest.raises(NonPositiveF0):
        f0_mean_transfer(track, 0.0)


def test_transfer_requires_voiced():
    track = track_from_hz([0.0], [False])
    with pytest.raises(NoVoicedFrames):
        f0_mean_transfer(track, 100.0)


# -- conversion rate ------------------------------------------------------------------

def test_rate_hand_case():
    src = UnitSequence(((0, 6),))
    trg = UnitSequence(((1, 8),))
    rc = conversion_rate(src, trg)
    assert rc.raw == pytest.approx(0.75)
    assert rc.clamped == pytest.approx(0.75)


def test_rate_equal_durations():
    units = UnitSequence(((0, 4), (1, 4)))
    rc = conversion_rate(units, units)
    assert rc.raw == 1.0
    assert rc.clamped == 1.0


def test_rate_clamped_high():
    src = UnitSequence(((0, 10),))
    trg = UnitSequence(((0, 5),))
    rc = conversion_rate(src, trg)
    assert rc.raw == pytest.approx(2.0)
    assert rc.clamped == pytest.approx(1.33)


def test_rate_empty():
    with pytest.raises(EmptySequence):
        conversion_rate(UnitSequence(()), UnitSequence(((0, 1),)))


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.1, max_value=5.0))
def test_clamp_conformance(raw):
    rc = ConversionRate(raw)
    assert 0.66 <= rc.clamped <= 1.33
    if 0.66 <= raw <= 1.33:
        assert rc.clamped == raw
    assert ConversionRate(rc.clamped).clamped == rc.clamped  # idempotent


# -- modulation ---------------------------------------------------------------------

def test_modulate_three_semitones():
    track = track_from_hz([200.0, 0.0, 250.0], [True, False, True])
    out = modulate(track, ModulationSpec(semitone_shift=3.0))
    expect = 2.0 ** (3.0 / 12.0)
    assert np.exp(out.log_f0[0]) == pytest.approx(200.0 * expect)
    assert np.exp(out.log_f0[2]) == pytest.approx(250.0 * expect)
    assert out.log_f0[1] == 0.0


def test_modulate_quarter_octave():
    track = track_from_hz([200.0], [True])
    out = modulate(track, ModulationSpec(octave_shift=0.25))
    assert np.exp(out.log_f0[0]) == pytest.approx(200.0 * 2 ** 0.25)


def test_modulate_identity():
    rng = np.random.default_rng(3)
    track = make_track(rng)
    out = modulate(track, ModulationSpec())
    for field in ("log_f0", "voiced", "log_energy"):
        assert getattr(out, field).tobytes() == getattr(track, field).tobytes()


def test_modulate_energy_gain_everywhere():
    rng = np.random.default_rng(4)
    track = make_track(rng)
    out = modulate(track, ModulationSpec(energy_gain=1.5))
    assert np.allclose(out.log_energy, track.log_energy + 1.5)
    assert np.array_equal(out.log_f0, track.log_f0)


def test_modulate_frame_curve_voiced_only():
    track = track_from_hz([100.0, 0.0, 100.0], [True, False, True])
    out = modulate(track, ModulationSpec(frame_f0_delta=np.array([0.1, 99.0, -0.1])))
    assert out.log_f0[0] == pytest.approx(np.log(100.0) + 0.1)
    assert out.log_f0[1] == 0.0
    assert out.log_f0[2] == pytest.approx(np.log(100.0) - 0.1)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -1.0])
def test_modulation_rejects_unusable_rate(rate):
    with pytest.raises(ValueError):
        ModulationSpec(rate_multiplier=rate)


def test_modulation_rate_stored_as_float():
    # in-range and out-of-range positive rates are kept; convert clamps them later
    assert ModulationSpec(rate_multiplier=2).rate_multiplier == 2.0
    assert isinstance(ModulationSpec(rate_multiplier=2).rate_multiplier, float)
    assert ConversionRate(ModulationSpec(rate_multiplier=2.0).rate_multiplier).clamped == 1.33


def test_modulate_curve_length_mismatch():
    track = track_from_hz([100.0, 110.0], [True, True])
    with pytest.raises(CurveLengthMismatch):
        modulate(track, ModulationSpec(frame_f0_delta=np.zeros(3)))


@pytest.mark.parametrize("octaves", [1100.0, -1100.0])
def test_modulate_refuses_f0_beyond_float_range(octaves):
    # 2**1100 Hz overflows to inf and 2**-1100 Hz underflows to 0
    track = track_from_hz([100.0, 0.0, 110.0], [True, False, True])
    with pytest.raises(F0OutOfRange):
        modulate(track, ModulationSpec(octave_shift=octaves))


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-1.0, max_value=1.0), st.integers(min_value=0, max_value=10_000))
def test_modulate_composition_inverts(octaves, seed):
    track = make_track(np.random.default_rng(seed))
    out = modulate(modulate(track, ModulationSpec(octave_shift=octaves)),
                   ModulationSpec(octave_shift=-octaves))
    assert np.max(np.abs(out.log_f0 - track.log_f0)) < 1e-12
    assert np.array_equal(out.voiced, track.voiced)
    assert out.n_frames == track.n_frames


def test_modulation_spec_validation():
    with pytest.raises(ValueError):
        ModulationSpec(octave_shift=math.nan)
    with pytest.raises(ValueError):
        ModulationSpec(frame_f0_delta=np.array([np.inf]))
