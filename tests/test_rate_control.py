import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosovc.errors import TooShort
from prosovc.rate_control import resample_mel, resampled_length
from prosovc.signal_core import MelConfig, MelSpectrogram
from prosovc.transform import ConversionRate

CFG = MelConfig(sample_rate=8, fft_size=8, hop=8, window=8, n_mels=3, fmin=0.0, fmax=4.0)


def mel_of(values):
    return MelSpectrogram(np.asarray(values, dtype=float), CFG)


def random_mel(rng, n_frames):
    return mel_of(rng.standard_normal((n_frames, 3)))


def test_identity_rate():
    mel = random_mel(np.random.default_rng(0), 40)
    out = resample_mel(mel, ConversionRate(1.0))
    assert np.array_equal(out.values, mel.values)


@pytest.mark.parametrize("rate,expected", [(0.66, 152), (0.75, 133), (1.20, 83), (1.33, 75)])
def test_table_rate_grid(rate, expected):
    mel = random_mel(np.random.default_rng(1), 100)
    out = resample_mel(mel, ConversionRate(rate))
    assert out.n_frames == expected
    assert out.n_frames == resampled_length(100, rate)


def test_raw_rate_is_clamped():
    mel = random_mel(np.random.default_rng(2), 100)
    out = resample_mel(mel, ConversionRate(2.0))
    assert out.n_frames == 75  # clamped to 1.33


def test_constant_mel_stays_constant():
    mel = mel_of(np.tile([1.5, -2.0, 0.25], (30, 1)))
    out = resample_mel(mel, ConversionRate(0.8))
    assert np.allclose(out.values, mel.values[0], atol=1e-12)


def test_endpoints_preserved():
    rng = np.random.default_rng(3)
    mel = random_mel(rng, 57)
    for rate in (0.7, 1.25):
        out = resample_mel(mel, ConversionRate(rate))
        assert np.array_equal(out.values[0], mel.values[0])
        assert np.array_equal(out.values[-1], mel.values[-1])


def test_length_monotonicity():
    mel = random_mel(np.random.default_rng(4), 80)
    assert resample_mel(mel, ConversionRate(1.2)).n_frames < 80
    assert resample_mel(mel, ConversionRate(0.8)).n_frames > 80


def test_too_short():
    with pytest.raises(TooShort):
        resample_mel(mel_of(np.zeros((1, 3))), ConversionRate(1.0))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=20, max_value=200),
       st.floats(min_value=0.66, max_value=1.33),
       st.integers(min_value=0, max_value=10_000))
def test_values_bounded_by_neighbors(n_frames, rate, seed):
    mel = random_mel(np.random.default_rng(seed), n_frames)
    out = resample_mel(mel, ConversionRate(rate))
    lo = mel.values.min(axis=0) - 1e-12
    hi = mel.values.max(axis=0) + 1e-12
    assert np.all(out.values >= lo)
    assert np.all(out.values <= hi)
