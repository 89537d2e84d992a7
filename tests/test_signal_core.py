import math
import struct
import wave as wavemod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosovc.errors import ConfigMismatch, InvalidCutoff, TooShort, UnreadableFile, UnsupportedFormat
from prosovc.signal_core import (
    RECURSION_CHUNK,
    MelConfig,
    MelSpectrogram,
    Waveform,
    _butterworth_hp_sections,
    _padded_window,
    butterworth_hp_gain,
    highpass_filter,
    istft,
    load_wav,
    mel_band_centers,
    mel_spectrogram,
    save_wav,
    stft,
)

SR = 22050


def sine(freq, dur=1.0, amp=0.5, sr=SR):
    t = np.arange(int(dur * sr)) / sr
    return Waveform(amp * np.sin(2 * np.pi * freq * t), sr)


# -- WAV I/O -------------------------------------------------------------------

def test_load_silence(tmp_path):
    path = tmp_path / "sil.wav"
    save_wav(Waveform(np.zeros(SR), SR), path)
    wave = load_wav(path)
    assert wave.sample_rate == SR
    assert len(wave) == SR
    assert not wave.samples.any()
    with wavemod.open(str(path), "rb") as fh:  # data chunk is all-zero PCM
        assert fh.readframes(fh.getnframes()) == b"\x00" * (2 * SR)


def test_load_full_scale_square_wave(tmp_path):
    path = tmp_path / "sq.wav"
    data = np.tile([32767, -32768], 100).astype("<i2")
    with wavemod.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SR)
        fh.writeframes(data.tobytes())
    wave = load_wav(path)
    assert wave.samples.max() == pytest.approx(32767 / 32768)
    assert wave.samples.min() == -1.0


def test_load_stereo_rejected(tmp_path):
    path = tmp_path / "st.wav"
    with wavemod.open(str(path), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(SR)
        fh.writeframes(b"\x00\x00" * 200)
    with pytest.raises(UnsupportedFormat):
        load_wav(path)


def test_load_8bit_rejected(tmp_path):
    path = tmp_path / "w8.wav"
    with wavemod.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(1)
        fh.setframerate(SR)
        fh.writeframes(b"\x00" * 100)
    with pytest.raises(UnsupportedFormat):
        load_wav(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(UnreadableFile):
        load_wav(tmp_path / "nope.wav")


def test_load_garbage_file(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"not a riff file at all")
    with pytest.raises(UnreadableFile):
        load_wav(path)


def test_save_clips_out_of_range(tmp_path):
    path = tmp_path / "clip.wav"
    save_wav(Waveform(np.array([2.0, -2.0, 0.0]), SR), path)
    with wavemod.open(str(path), "rb") as fh:
        raw = fh.readframes(3)
    assert struct.unpack("<3h", raw) == (32767, -32768, 0)


def test_roundtrip_quantization_bound(tmp_path):
    path = tmp_path / "rt.wav"
    wave = sine(440, dur=0.25, amp=1.0)
    save_wav(wave, path)
    back = load_wav(path)
    assert np.max(np.abs(back.samples - wave.samples)) <= 1 / 32768


# -- high-pass filter -------------------------------------------------------------

def test_hpf_at_cutoff_is_3db():
    wave = sine(50)
    out = highpass_filter(wave, 50.0, order=2)
    n0 = SR // 2  # skip transient
    gain_db = 20 * np.log10(np.sqrt(np.mean(out.samples[n0:] ** 2))
                            / np.sqrt(np.mean(wave.samples[n0:] ** 2)))
    assert gain_db == pytest.approx(-3.0, abs=0.5)


def test_hpf_passband_matches_analytic_gain():
    wave = sine(440)
    out = highpass_filter(wave, 50.0, order=2)
    n0 = SR // 2
    measured = np.sqrt(np.mean(out.samples[n0:] ** 2)) / np.sqrt(np.mean(wave.samples[n0:] ** 2))
    analytic = butterworth_hp_gain(50.0, SR, 2, 440.0)
    assert 20 * abs(math.log10(measured / analytic)) < 0.1
    assert 20 * abs(math.log10(analytic)) < 0.5  # passband within 0.5 dB of unity


def test_hpf_removes_dc():
    wave = Waveform(np.ones(SR), SR)
    out = highpass_filter(wave, 50.0, order=2)
    assert abs(np.mean(out.samples[SR // 2:])) < 1e-3


def test_hpf_order4_supported():
    out = highpass_filter(sine(25), 50.0, order=4)
    n0 = SR // 2
    measured = np.sqrt(np.mean(out.samples[n0:] ** 2)) / (0.5 / np.sqrt(2))
    analytic = butterworth_hp_gain(50.0, SR, 4, 25.0)
    assert measured == pytest.approx(analytic, rel=0.1)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("sr", [16000, 22050])
def test_hpf_matches_scipy_sosfilt(sr, order):
    signal = pytest.importorskip("scipy.signal")
    x = 0.3 * np.random.default_rng(sr + order).standard_normal(sr // 2)
    ours = highpass_filter(Waveform(x, sr), 50.0, order).samples
    ref = signal.sosfilt(signal.butter(order, 50.0, "highpass", fs=sr, output="sos"), x)
    assert np.max(np.abs(ours - ref)) < 1e-10


def reference_biquad(samples, b, a):
    """Per-sample direct-form-I loop: the oracle `_biquad` must match bit for bit."""
    b0, b1, b2 = b
    a1, a2 = a
    out = np.empty_like(samples)
    x1 = x2 = y1 = y2 = 0.0
    for n, x0 in enumerate(samples):
        y0 = b0 * x0 + b1 * x1 + b2 * x2 - a1 * y1 - a2 * y2
        out[n] = y0
        x2, x1 = x1, x0
        y2, y1 = y1, y0
    return out


def assert_hpf_equals_loop(x, sr, order):
    ref = x
    for b, a in _butterworth_hp_sections(50.0, sr, order):
        ref = reference_biquad(ref, b, a)
    ours = highpass_filter(Waveform(x, sr), 50.0, order).samples
    assert np.array_equal(ours, ref)
    assert ours.tobytes() == ref.tobytes()  # signed zeros too


CHUNK_EDGES = [1, 2, 3, RECURSION_CHUNK - 1, RECURSION_CHUNK, RECURSION_CHUNK + 1]


@pytest.mark.parametrize("n", CHUNK_EDGES + ["20 s"])
@pytest.mark.parametrize("sr", [16000, 22050])
@pytest.mark.parametrize("order", [2, 4])
def test_hpf_equals_per_sample_loop(order, sr, n):
    n = 20 * sr if n == "20 s" else n
    assert_hpf_equals_loop(0.3 * np.random.default_rng(n).standard_normal(n), sr, order)


@pytest.mark.parametrize("n", CHUNK_EDGES)
@pytest.mark.parametrize("signal", ["silence", "square"])
@pytest.mark.parametrize("sr", [16000, 22050])
@pytest.mark.parametrize("order", [2, 4])
def test_hpf_equals_per_sample_loop_on_silence_and_square(order, sr, signal, n):
    if signal == "silence":
        x = np.zeros(n)
    else:  # full scale, 100 Hz at 16 kHz
        x = np.where(np.arange(n) % 160 < 80, 1.0, -1.0)
    assert_hpf_equals_loop(x, sr, order)


def test_hpf_invalid_cutoff():
    with pytest.raises(InvalidCutoff):
        highpass_filter(sine(100), 0.0)
    with pytest.raises(InvalidCutoff):
        highpass_filter(sine(100), SR / 2)
    with pytest.raises(InvalidCutoff):
        highpass_filter(sine(100), 50.0, order=3)


def test_hpf_preserves_length_and_is_deterministic():
    wave = sine(123, dur=0.1)
    a = highpass_filter(wave, 50.0)
    b = highpass_filter(wave, 50.0)
    assert len(a) == len(wave)
    assert np.array_equal(a.samples, b.samples)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-8.0, max_value=8.0).filter(lambda a: abs(a) > 1e-3))
def test_hpf_linearity(a):
    rng = np.random.default_rng(0)
    x = 0.1 * rng.standard_normal(2000)
    scaled = highpass_filter(Waveform(a * x, SR), 50.0).samples
    reference = a * highpass_filter(Waveform(x, SR), 50.0).samples
    assert np.max(np.abs(scaled - reference)) <= 1e-9 * max(1.0, np.max(np.abs(reference)))


# -- mel spectrogram ----------------------------------------------------------------

def test_mel_silence_hits_floor(mel_cfg):
    mel = mel_spectrogram(Waveform(np.zeros(SR), SR), mel_cfg)
    assert np.all(mel.values == np.log(mel_cfg.log_floor))


def test_mel_frame_count(mel_cfg):
    mel = mel_spectrogram(Waveform(np.zeros(4 * mel_cfg.hop), SR), mel_cfg)
    assert mel.n_frames == 5


def test_mel_1khz_argmax_band(mel_cfg):
    mel = mel_spectrogram(sine(1000), mel_cfg)
    centers = mel_band_centers(mel_cfg)
    expected = int(np.argmin(np.abs(centers - 1000.0)))
    # frames whose window is fully inside the signal (reflection-free)
    interior = mel.values[2:-2]
    assert np.all(np.argmax(interior, axis=1) == expected)


def test_mel_doubling_raises_by_log4(mel_cfg):
    quiet = mel_spectrogram(sine(440, amp=0.25), mel_cfg)
    loud = mel_spectrogram(sine(440, amp=0.5), mel_cfg)
    mask = quiet.values > np.log(mel_cfg.log_floor) + 1e-9
    assert np.allclose(loud.values[mask] - quiet.values[mask], np.log(4.0), atol=1e-6)


def test_mel_rate_mismatch(mel_cfg):
    with pytest.raises(ConfigMismatch):
        mel_spectrogram(Waveform(np.zeros(1000), 16000), mel_cfg)


def test_mel_too_short(mel_cfg):
    with pytest.raises(TooShort):
        mel_spectrogram(Waveform(np.zeros(10), SR), mel_cfg)


def test_mel_determinism(mel_cfg):
    wave = sine(333, dur=0.3)
    a = mel_spectrogram(wave, mel_cfg)
    b = mel_spectrogram(wave, mel_cfg)
    assert np.array_equal(a.values, b.values)


def test_mel_config_validation():
    with pytest.raises(ValueError):
        MelConfig(hop=2048)
    with pytest.raises(ValueError):
        MelConfig(fmin=9000.0)
    with pytest.raises(ValueError):
        MelConfig(log_floor=0.0)


def test_mel_values_validated(mel_cfg):
    with pytest.raises(ValueError):
        MelSpectrogram(np.full((3, 4), 1.0), mel_cfg)  # band mismatch
    with pytest.raises(ValueError):
        MelSpectrogram(np.full((3, mel_cfg.n_mels), np.nan), mel_cfg)


# -- STFT / ISTFT -------------------------------------------------------------------

ISTFT_CFGS = {
    "default": MelConfig(),
    "16k_window400": MelConfig(sample_rate=16000, fft_size=512, hop=128, window=400, n_mels=40,
                               fmin=62.5, fmax=7000.0),
    "hop_not_dividing_fft": MelConfig(sample_rate=16000, fft_size=512, hop=200, window=400, n_mels=40),
    "hop_equals_fft": MelConfig(sample_rate=8, fft_size=8, hop=8, window=8, n_mels=3, fmin=0.0, fmax=4.0),
}


def reference_istft(spec, cfg):
    """Per-frame overlap-add loop: the oracle `istft` must match bit for bit."""
    w = _padded_window(cfg.window, cfg.fft_size)
    frames = np.fft.irfft(spec, n=cfg.fft_size, axis=1) * w
    n_frames = spec.shape[0]
    total = (n_frames - 1) * cfg.hop + cfg.fft_size
    out = np.zeros(total)
    norm = np.zeros(total)
    w2 = w * w
    for i in range(n_frames):
        start = i * cfg.hop
        out[start:start + cfg.fft_size] += frames[i]
        norm[start:start + cfg.fft_size] += w2
    valid = norm > 1e-11
    out[valid] /= norm[valid]
    half = cfg.fft_size // 2
    return out[half:total - half]


@pytest.mark.parametrize("n_frames", [1, 2, 3, 57])
@pytest.mark.parametrize("name", sorted(ISTFT_CFGS))
def test_istft_equals_per_frame_loop(name, n_frames):
    cfg = ISTFT_CFGS[name]
    rng = np.random.default_rng(n_frames)
    spec = rng.standard_normal((n_frames, cfg.n_bins)) + 1j * rng.standard_normal((n_frames, cfg.n_bins))
    ours = istft(spec, cfg)
    assert len(ours) == (n_frames - 1) * cfg.hop
    assert np.array_equal(ours, reference_istft(spec, cfg))


@pytest.mark.parametrize("name", ["default", "16k_window400"])
def test_stft_istft_match_scipy(name):
    signal = pytest.importorskip("scipy.signal")
    cfg = ISTFT_CFGS[name]
    w = _padded_window(cfg.window, cfg.fft_size)
    x = 0.3 * np.random.default_rng(cfg.sample_rate).standard_normal(cfg.sample_rate // 4)
    kwargs = dict(window=w, nperseg=cfg.fft_size, noverlap=cfg.fft_size - cfg.hop)
    _, _, ref = signal.stft(x, boundary="zeros", padded=False, detrend=False, **kwargs)
    ours = stft(x, cfg, pad_mode="constant")
    assert np.max(np.abs(ref.T * w.sum() - ours)) < 1e-12
    _, ref_wave = signal.istft(ref, **kwargs)
    ours_wave = istft(ours, cfg)
    assert ref_wave.shape == ours_wave.shape
    assert np.max(np.abs(ref_wave - ours_wave)) < 1e-12
