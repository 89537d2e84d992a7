import numpy as np
import pytest
from conftest import reference_extract_f0
from hypothesis import given, settings
from hypothesis import strategies as st

from prosovc.errors import ConfigMismatch, DimMismatch, EmptySequence, InsufficientData
from prosovc.prosody import (
    Codebook,
    F0Config,
    ProsodyTrack,
    YIN_BLOCK,
    UnitSequence,
    extract_f0,
    extract_log_energy,
    extract_prosody,
    speaking_rate,
    train_unit_codebook,
    unitize,
)
from prosovc.signal_core import MelConfig, MelSpectrogram, Waveform, highpass_filter, mel_spectrogram
from prosovc.synth import sawtooth_wave, toy_utterance, white_noise

SR = 22050


def voiced_input(freq, dur=1.0):
    return highpass_filter(sawtooth_wave(freq, dur), 50.0)


# -- F0 -----------------------------------------------------------------------

@pytest.mark.parametrize("freq", [110, 165, 220, 330, 440])
def test_f0_on_sawtooth(freq, mel_cfg):
    f0, voiced = extract_f0(voiced_input(freq), mel_cfg)
    assert voiced.mean() > 0.5
    median = np.median(f0[voiced])
    assert abs(median - freq) / freq <= 0.03


def test_f0_silence_all_unvoiced(mel_cfg):
    f0, voiced = extract_f0(Waveform(np.zeros(SR), SR), mel_cfg)
    assert not voiced.any()
    assert not f0.any()


def test_f0_white_noise_mostly_unvoiced(mel_cfg):
    f0, voiced = extract_f0(white_noise(1.0, seed=3), mel_cfg)
    assert voiced.mean() < 0.2


def test_f0_octave_consistency(mel_cfg):
    f1, v1 = extract_f0(voiced_input(150), mel_cfg)
    f2, v2 = extract_f0(voiced_input(300), mel_cfg)
    ratio = np.median(f2[v2]) / np.median(f1[v1])
    assert 1.94 <= ratio <= 2.06


def test_f0_within_search_range(mel_cfg):
    cfg = F0Config()
    f0, voiced = extract_f0(voiced_input(440), mel_cfg, cfg)
    assert np.all(f0[voiced] >= cfg.f0_min)
    assert np.all(f0[voiced] <= cfg.f0_max)


def test_f0_sample_rate_mismatch(mel_cfg):
    with pytest.raises(ConfigMismatch):
        extract_f0(sawtooth_wave(200.0, 0.5, sample_rate=16000), mel_cfg)


# -- F0 in frame blocks --------------------------------------------------------------

# (MelConfig, F0Config) pairs; each sets YIN's lag range tau_max = floor(sr / f0_min)
# and its FFT length fft_n, the power of two >= 3 * tau_max.
YIN_CONFIGS = {
    "default": (MelConfig(), F0Config()),  # tau_max 441, fft_n 2048
    "22k_narrow": (MelConfig(), F0Config(f0_min=80.0, f0_max=500.0)),  # tau_max 275, fft_n 1024
    "16k_wide": (MelConfig(sample_rate=16000, fft_size=512, hop=128, window=400),
                 F0Config(f0_min=20.0, f0_max=400.0)),  # tau_max 800, fft_n 4096
}


def mixed_wave(n_samples, sample_rate, seed):
    """Seeded segments of 0.05 to 0.5 s, cycling through sawtooth, noise and silence
    in a seeded order, at a seeded pitch and level per segment."""
    rng = np.random.default_rng(seed)
    kinds = rng.permutation(3)
    out = np.zeros(n_samples)
    start = k = 0
    while start < n_samples:
        stop = min(start + int(rng.integers(sample_rate // 20, sample_rate // 2)), n_samples)
        t = np.arange(stop - start) / sample_rate
        level = rng.uniform(0.05, 0.6)
        if kinds[k % 3] == 0:
            out[start:stop] = level * (2.0 * ((rng.uniform(70.0, 380.0) * t) % 1.0) - 1.0)
        elif kinds[k % 3] == 1:
            out[start:stop] = level * rng.standard_normal(stop - start)
        start, k = stop, k + 1
    return Waveform(out, sample_rate)


@pytest.mark.parametrize("config", sorted(YIN_CONFIGS))
@pytest.mark.parametrize("n_frames", [1, 2, YIN_BLOCK - 1, YIN_BLOCK, YIN_BLOCK + 1, 2 * YIN_BLOCK + 1])
@settings(max_examples=3, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=10_000))
def test_extract_f0_in_blocks_equals_whole_utterance(n_frames, config, seed, offset):
    mel_cfg, f0_cfg = YIN_CONFIGS[config]
    n_samples = max(1, (n_frames - 1) * mel_cfg.hop + offset % mel_cfg.hop)
    assert mel_cfg.frame_count(n_samples) == n_frames
    wave = mixed_wave(n_samples, mel_cfg.sample_rate, seed)
    f0, voiced = extract_f0(wave, mel_cfg, f0_cfg)
    ref_f0, ref_voiced = reference_extract_f0(wave, mel_cfg, f0_cfg)
    assert np.array_equal(f0, ref_f0)
    assert np.array_equal(voiced, ref_voiced)
    if n_frames >= 255:  # at least six segments: each kind of content occurs
        assert voiced.any() and not voiced.all()


def test_extract_f0_in_blocks_equals_whole_utterance_20s(mel_cfg):
    wave, _ = toy_utterance(seed=7, base_f0=180.0, duration=20.0)
    f0, voiced = extract_f0(wave, mel_cfg)
    ref_f0, ref_voiced = reference_extract_f0(wave, mel_cfg)
    assert len(f0) > 6 * YIN_BLOCK
    assert voiced.any() and not voiced.all()
    assert np.array_equal(f0, ref_f0)
    assert np.array_equal(voiced, ref_voiced)


# -- log energy ------------------------------------------------------------------

def test_energy_floor_for_silence(mel_cfg):
    e = extract_log_energy(Waveform(np.zeros(2048), SR), mel_cfg)
    assert np.allclose(e, np.log(1e-10))


def test_energy_of_unit_frame():
    cfg = MelConfig(sample_rate=8, fft_size=4, hop=4, window=4, n_mels=1, fmin=0.0, fmax=4.0)
    e = extract_log_energy(Waveform(np.ones(4), 8), cfg)
    assert e == pytest.approx(np.log(4.0))


def test_energy_homogeneity(mel_cfg):
    rng = np.random.default_rng(0)
    x = 0.2 * rng.standard_normal(SR // 2)
    e1 = extract_log_energy(Waveform(x, SR), mel_cfg)
    e2 = extract_log_energy(Waveform(2 * x, SR), mel_cfg)
    mask = e1 > np.log(1e-10) + 1e-9
    assert np.allclose(e2[mask] - e1[mask], np.log(4.0), atol=1e-9)


# -- combined track ------------------------------------------------------------------

def test_prosody_sawtooth_log_f0(mel_cfg):
    track = extract_prosody(voiced_input(220), mel_cfg)
    median = np.median(track.log_f0[track.voiced])
    assert abs(median - np.log(220.0)) <= np.log(1.03)


def test_prosody_silence(mel_cfg):
    track = extract_prosody(Waveform(np.zeros(SR), SR), mel_cfg)
    assert not track.voiced.any()
    assert not track.log_f0.any()
    assert np.allclose(track.log_energy, np.log(1e-10))


@pytest.mark.parametrize("n_samples", [2000, 12345, SR])
def test_prosody_aligns_with_mel(n_samples, mel_cfg):
    rng = np.random.default_rng(n_samples)
    wave = Waveform(0.1 * rng.standard_normal(n_samples), SR)
    track = extract_prosody(wave, mel_cfg)
    mel = mel_spectrogram(wave, mel_cfg)
    assert track.n_frames == mel.n_frames


def test_track_sentinel_enforced():
    with pytest.raises(ValueError):
        ProsodyTrack(np.array([5.0]), np.array([False]), np.array([0.0]))


# -- codebook and units ------------------------------------------------------------------

def small_cfg(n_mels):
    return MelConfig(sample_rate=8, fft_size=4, hop=4, window=4, n_mels=n_mels, fmin=0.0, fmax=4.0)


def test_kmeans_recovers_cluster_means():
    rng = np.random.default_rng(0)
    a = rng.normal(0.0, 0.05, (60, 3))
    b = rng.normal(5.0, 0.05, (60, 3))
    feats = [MelSpectrogram(np.vstack([a, b]), small_cfg(3))]
    cb = train_unit_codebook(feats, 2, seed=1)
    got = np.sort(cb.centroids, axis=0)
    want = np.sort(np.vstack([a.mean(0), b.mean(0)]), axis=0)
    assert np.max(np.abs(got - want)) < 1e-3


def test_kmeans_deterministic():
    rng = np.random.default_rng(2)
    feats = [MelSpectrogram(rng.standard_normal((200, 5)), small_cfg(5))]
    cb1 = train_unit_codebook(feats, 8, seed=42)
    cb2 = train_unit_codebook(feats, 8, seed=42)
    assert np.array_equal(cb1.centroids, cb2.centroids)


def test_kmeans_insufficient_data():
    rng = np.random.default_rng(3)
    feats = [MelSpectrogram(rng.standard_normal((5, 4)), small_cfg(4))]
    with pytest.raises(InsufficientData):
        train_unit_codebook(feats, 10, seed=0)
    with pytest.raises(InsufficientData):
        train_unit_codebook([], 2, seed=0)


def test_unitize_run_length():
    cb = Codebook(np.array([[0.0], [10.0]]))
    feats = MelSpectrogram(np.array([[0.1], [0.2], [9.8], [9.9], [10.1]]), small_cfg(1))
    units = unitize(feats, cb)
    assert units.pairs == ((0, 2), (1, 3))


def test_unitize_single_run():
    cb = Codebook(np.array([[0.0], [10.0]]))
    feats = MelSpectrogram(np.zeros((7, 1)), small_cfg(1))
    assert unitize(feats, cb).pairs == ((0, 7),)


def test_unitize_tie_goes_to_lowest_index():
    cb = Codebook(np.array([[1.0], [1.0]]))
    feats = MelSpectrogram(np.array([[1.0], [1.0]]), small_cfg(1))
    assert unitize(feats, cb).pairs == ((0, 2),)


def test_unitize_dim_mismatch():
    cb = Codebook(np.zeros((2, 3)) + np.arange(2)[:, None])
    with pytest.raises(DimMismatch):
        unitize(MelSpectrogram(np.zeros((4, 2)), small_cfg(2)), cb)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10_000))
def test_unit_durations_partition_frames(n_frames, seed):
    rng = np.random.default_rng(seed)
    cb = Codebook(np.arange(6, dtype=float).reshape(3, 2) * 3)
    feats = MelSpectrogram(rng.uniform(0, 8, (n_frames, 2)), small_cfg(2))
    units = unitize(feats, cb)
    assert units.total_frames == n_frames
    # encoding is maximal: no adjacent duplicates
    ids = [u for u, _ in units.pairs]
    assert all(x != y for x, y in zip(ids, ids[1:]))


def test_speaking_rate_hand_case():
    assert speaking_rate(UnitSequence(((7, 2), (9, 4)))) == pytest.approx(1 / 3)


def test_speaking_rate_single_pair():
    assert speaking_rate(UnitSequence(((3, 5),))) == pytest.approx(0.2)


def test_speaking_rate_empty():
    with pytest.raises(EmptySequence):
        speaking_rate(UnitSequence(()))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=12), st.randoms())
def test_speaking_rate_permutation_invariant(durations, pyrandom):
    ids = list(range(len(durations)))
    pairs = tuple(zip(ids, durations))
    shuffled = list(pairs)
    pyrandom.shuffle(shuffled)
    # re-key ids so adjacent runs stay distinct after shuffling
    shuffled = tuple((i, d) for i, (_, d) in enumerate(shuffled))
    assert speaking_rate(UnitSequence(pairs)) == pytest.approx(
        speaking_rate(UnitSequence(shuffled)))
