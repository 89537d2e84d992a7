import numpy as np
import pytest

from prosovc.signal_core import save_wav
from prosovc.synth import toy_utterance


def reference_tilt(untilted, tilt):
    """Per-sample one-pole loop plus peak limit: the oracle for toy_utterance's tilt."""
    colored = np.empty_like(untilted)
    prev = 0.0
    for i, v in enumerate(untilted):
        prev = v + tilt * prev
        colored[i] = prev
    out = colored * (1.0 - tilt)
    peak = np.abs(out).max()
    if peak > 0.95:
        out = out * (0.95 / peak)
    return out


@pytest.mark.parametrize("duration", [0.1, 2.0])
@pytest.mark.parametrize("tilt", [0.3, 0.5, 0.94])
@pytest.mark.parametrize("seed", [0, 7])
def test_tilt_equals_per_sample_loop(tmp_path, seed, tilt, duration):
    untilted, _ = toy_utterance(seed, 180.0, duration, tilt=0.0)  # sawtooth peaks stay below 0.95
    ours, _ = toy_utterance(seed, 180.0, duration, tilt=tilt)
    ref = reference_tilt(untilted.samples, tilt)
    assert np.array_equal(ours.samples, ref)
    assert ours.samples.tobytes() == ref.tobytes()
    save_wav(ours, tmp_path / "ours.wav")
    save_wav(type(ours)(ref, ours.sample_rate), tmp_path / "ref.wav")
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "ref.wav").read_bytes()


@pytest.mark.parametrize("tilt", [-0.1, 0.95, 1.5, float("nan")])
def test_tilt_outside_documented_range_rejected(tilt):
    with pytest.raises(ValueError, match="tilt"):
        toy_utterance(0, 160.0, 0.1, tilt=tilt)


@pytest.mark.parametrize("tilt", [0.0, 0.94])
def test_tilt_range_ends_accepted(tilt):
    wave, _ = toy_utterance(0, 160.0, 0.1, tilt=tilt)
    assert np.abs(wave.samples).max() <= 0.95
