import math
import os
import re
import struct
import threading
import wave as wavemod
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import BLOCK_EDGE_FRAMES, WIDE_HOP, force_runs, wide_hop_noise
from hypothesis import given, settings
from hypothesis import strategies as st

from prosovc import vocoder
from prosovc.cli import _load_pair_list, load_modulation_file
from prosovc.encoders import _speaker_projection, load_alignment
from prosovc.errors import ConfigMismatch, InvalidCutoff, ParseError, TooShort, UnreadableFile, UnsupportedFormat
from prosovc.signal_core import (
    BIQUAD_BLOCK,
    BIQUAD_RUN,
    FRAME_BLOCK,
    MelConfig,
    MelSpectrogram,
    Waveform,
    _butterworth_hp_biquad,
    _mel_edges,
    _padded_window,
    butterworth_hp_gain,
    frame_blocks,
    highpass_filter,
    load_wav,
    mel_filterbank,
    mel_spectrogram,
    save_wav,
    stft,
)
from prosovc.vocoder import MAX_RUNS, _mel_pinv, _wola_buffers, _wola_pass, _wola_run, frame_runs, istft

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


# -- text inputs: every reader goes through read_text_lines -------------------------

@pytest.mark.parametrize("read, bad_row, error", [
    (load_alignment, "P0\t0.0", ParseError),
    (load_modulation_file, "octave_shift 0.5", UnreadableFile),
    (_load_pair_list, "src.wav\tsrc.tsv", UnreadableFile),
], ids=["alignment", "modulation", "pairs"])
def test_text_reader_numbers_lines_and_refuses_non_utf8(tmp_path, read, bad_row, error):
    path = tmp_path / "in.txt"
    path.write_text(f"\n\n{bad_row}\n", encoding="utf-8")
    with pytest.raises(error, match=f"^{re.escape(str(path))}:3: "):
        read(path)
    path.write_bytes(b"\xff\xfe\n")
    with pytest.raises(error, match=f"^{re.escape(str(path))}: not UTF-8 text"):
        read(path)


# -- high-pass filter -------------------------------------------------------------

def test_hpf_at_cutoff_is_3db():
    wave = sine(50)
    out = highpass_filter(wave, 50.0)
    n0 = SR // 2  # skip transient
    gain_db = 20 * np.log10(np.sqrt(np.mean(out.samples[n0:] ** 2))
                            / np.sqrt(np.mean(wave.samples[n0:] ** 2)))
    assert gain_db == pytest.approx(-3.0, abs=0.5)


def test_hpf_passband_matches_analytic_gain():
    wave = sine(440)
    out = highpass_filter(wave, 50.0)
    n0 = SR // 2
    measured = np.sqrt(np.mean(out.samples[n0:] ** 2)) / np.sqrt(np.mean(wave.samples[n0:] ** 2))
    analytic = butterworth_hp_gain(50.0, SR, 440.0)
    assert 20 * abs(math.log10(measured / analytic)) < 0.1
    assert 20 * abs(math.log10(analytic)) < 0.5  # passband within 0.5 dB of unity


def test_hpf_removes_dc():
    wave = Waveform(np.ones(SR), SR)
    out = highpass_filter(wave, 50.0)
    assert abs(np.mean(out.samples[SR // 2:])) < 1e-3


def test_hpf_stopband_matches_analytic_gain():
    out = highpass_filter(sine(25), 50.0)
    n0 = SR // 2
    measured = np.sqrt(np.mean(out.samples[n0:] ** 2)) / (0.5 / np.sqrt(2))
    analytic = butterworth_hp_gain(50.0, SR, 25.0)
    assert measured == pytest.approx(analytic, rel=0.1)


# The high-pass is second order. Its case ids still carry that order ("2") in
# the field it had when the order was a parameter, so each case keeps its name.
@pytest.mark.parametrize("sr", [16000, 22050], ids=lambda sr: f"{sr}-2")
def test_hpf_matches_scipy_sosfilt(sr):
    signal = pytest.importorskip("scipy.signal")
    x = 0.3 * np.random.default_rng(sr + 2).standard_normal(sr // 2)
    ours = highpass_filter(Waveform(x, sr), 50.0).samples
    ref = signal.sosfilt(signal.butter(2, 50.0, "highpass", fs=sr, output="sos"), x)
    assert np.max(np.abs(ours - ref)) < 1e-10


def reference_biquad(samples, b, a):
    """Per-sample direct-form-I loop: the oracle `_biquad` must match to rounding."""
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


# Max |difference| from the per-sample loop. The blocked recursion sums in another
# order; on these cases it measured at most 3.1e-12 on 0.3-sigma noise (8193
# samples at 22.05 kHz) and 5.2e-13 on the full-scale square.
HPF_LOOP_BOUND = 1e-11


def assert_hpf_equals_loop(x, sr):
    ref = reference_biquad(x, *_butterworth_hp_biquad(50.0, sr))
    ours = highpass_filter(Waveform(x, sr), 50.0).samples
    assert ours.shape == ref.shape
    assert np.max(np.abs(ours - ref)) <= HPF_LOOP_BOUND


# Lengths at the edges of the recursion's blocks of BIQUAD_BLOCK samples
# (1024 is eight blocks) and of its runs of BIQUAD_RUN samples.
BLOCK_EDGES = [1, 2, 3, BIQUAD_BLOCK - 1, BIQUAD_BLOCK, BIQUAD_BLOCK + 1, 1023, 1024, 1025, BIQUAD_RUN + 1]


@pytest.mark.parametrize("n", BLOCK_EDGES + ["20 s"])
@pytest.mark.parametrize("sr", [16000, 22050], ids=lambda sr: f"2-{sr}")
def test_hpf_equals_per_sample_loop(sr, n):
    n = 20 * sr if n == "20 s" else n
    assert_hpf_equals_loop(0.3 * np.random.default_rng(n).standard_normal(n), sr)


@pytest.mark.parametrize("n", BLOCK_EDGES)
@pytest.mark.parametrize("signal", ["silence", "square"])
@pytest.mark.parametrize("sr", [16000, 22050], ids=lambda sr: f"2-{sr}")
def test_hpf_equals_per_sample_loop_on_silence_and_square(sr, signal, n):
    if signal == "silence":
        out = highpass_filter(Waveform(np.zeros(n), sr), 50.0).samples
        assert np.all(out == 0.0)
    else:  # full scale, 100 Hz at 16 kHz
        assert_hpf_equals_loop(np.where(np.arange(n) % 160 < 80, 1.0, -1.0), sr)


def test_hpf_invalid_cutoff():
    with pytest.raises(InvalidCutoff):
        highpass_filter(sine(100), 0.0)
    with pytest.raises(InvalidCutoff):
        highpass_filter(sine(100), SR / 2)


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
    centers = _mel_edges(mel_cfg)[1:-1]
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


@pytest.mark.parametrize("n_frames", BLOCK_EDGE_FRAMES)
def test_mel_in_blocks_equals_whole_stft(n_frames):
    wave = wide_hop_noise(n_frames)
    whole = np.abs(stft(wave.samples, WIDE_HOP)) ** 2 @ mel_filterbank(WIDE_HOP).T
    mel = mel_spectrogram(wave, WIDE_HOP)
    assert mel.n_frames == n_frames
    assert np.array_equal(mel.values, np.log(np.maximum(whole, WIDE_HOP.log_floor)))


def test_frame_blocks_are_near_equal_and_cover_every_frame():
    for n_frames in range(5 * FRAME_BLOCK + 2):
        blocks = frame_blocks(n_frames)
        assert len(blocks) == -(-n_frames // FRAME_BLOCK)
        assert [i for lo, hi in blocks for i in range(lo, hi)] == list(range(n_frames))
        sizes = [hi - lo for lo, hi in blocks]
        assert all(0 < size <= FRAME_BLOCK for size in sizes)
        assert max(sizes, default=0) - min(sizes, default=0) <= 1
    assert [hi - lo for lo, hi in frame_blocks(130)] == [43, 43, 44]
    assert [hi - lo for lo, hi in frame_blocks(130, 32)] == [26, 26, 26, 26, 26]


@pytest.mark.parametrize("cpus", [1, 2, 3, 16])
@pytest.mark.parametrize("k", [1, 2, 4, 6])
def test_frame_runs_are_one_per_cpu_and_never_shorter_than_the_shared_rows(monkeypatch, cpus, k):
    # the runs cut the n_frames + k - 1 signal rows; a run past the first also works
    # the k - 1 frames before its rows, which is never more frames than it has rows
    monkeypatch.setattr(vocoder, "_cpu_count", lambda: cpus)
    for n_frames in range(1, 80):
        runs = frame_runs(n_frames, k)
        assert [i for lo, hi in runs for i in range(lo, hi)] == list(range(n_frames + k - 1))
        assert len(runs) == max(1, min(cpus, MAX_RUNS, n_frames // max(k - 1, 1)))
        sizes = [hi - lo for lo, hi in runs]
        assert max(sizes) - min(sizes) <= 1
        if len(runs) > 1:
            assert min(sizes) >= k - 1


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask on this platform")
def test_cpu_count_reads_the_affinity_mask():
    assert vocoder._cpu_count() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_waveform_rejects_non_finite_samples(bad):
    samples = np.zeros(1000)
    samples[617] = bad
    with pytest.raises(ValueError, match="non-finite"):
        Waveform(samples, SR)
    assert len(Waveform(np.zeros(0), SR)) == 0


@pytest.mark.parametrize("cached", ["window", "filterbank", "mel_pinv", "speaker_projection"])
def test_cached_arrays_are_read_only(cached, mel_cfg):
    get = {"window": lambda: _padded_window(mel_cfg.window, mel_cfg.fft_size),
           "filterbank": lambda: mel_filterbank(mel_cfg),
           "mel_pinv": lambda: _mel_pinv(mel_cfg),
           "speaker_projection": lambda: _speaker_projection(4, 2 * mel_cfg.n_mels)}[cached]
    before = get().copy()
    with pytest.raises(ValueError, match="read-only"):
        get()[...] *= 2.0
    assert np.array_equal(get(), before)


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


# the last two cross one and two edges of the FRAME_BLOCK frame blocks
@pytest.mark.parametrize("n_frames", [1, 2, 3, 57, FRAME_BLOCK + 1, 2 * FRAME_BLOCK + 5])
@pytest.mark.parametrize("name", sorted(ISTFT_CFGS))
def test_istft_equals_per_frame_loop(name, n_frames):
    cfg = ISTFT_CFGS[name]
    rng = np.random.default_rng(n_frames)
    spec = rng.standard_normal((n_frames, cfg.n_bins)) + 1j * rng.standard_normal((n_frames, cfg.n_bins))
    ours = istft(spec, cfg)
    assert len(ours) == (n_frames - 1) * cfg.hop
    assert np.array_equal(ours, reference_istft(spec, cfg))


# 5 frames make one run at k = 4; the others cross block and run edges
@pytest.mark.parametrize("n_frames", [5, 64, 65, 173, 300])
@pytest.mark.parametrize("name", sorted(ISTFT_CFGS))
def test_istft_is_the_same_on_any_number_of_runs(monkeypatch, name, n_frames):
    # istft works one run; the pass it shares with Griffin-Lim gives its output
    # cut into any number of runs, on hop/fft shapes Griffin-Lim's tests do not use
    cfg = ISTFT_CFGS[name]
    rng = np.random.default_rng(n_frames)
    spec = rng.standard_normal((n_frames, cfg.n_bins)) + 1j * rng.standard_normal((n_frames, cfg.n_bins))
    one_run = istft(spec, cfg).tobytes()
    for count in (1, 2, 3):
        force_runs(monkeypatch, count)
        runs, blocks, divisor = _wola_buffers(cfg, n_frames)
        with ThreadPoolExecutor(max(len(runs) - 1, 1)) as pool:
            ours = _wola_pass(lambda run, lo, hi: spec[lo:hi], runs, cfg, blocks, divisor, pool)
        assert ours.tobytes() == one_run, count


def test_istft_starts_no_thread(monkeypatch):
    cfg, n_frames = MelConfig(), 173
    force_runs(monkeypatch, 3)
    assert len(_wola_buffers(cfg, n_frames)[0]) == 3
    threads = []

    def run(*args):
        threads.append(threading.current_thread())
        return _wola_run(*args)

    monkeypatch.setattr(vocoder, "_wola_run", run)
    before = threading.active_count()
    spec = np.random.default_rng(0).standard_normal((n_frames, cfg.n_bins)).astype(complex)
    istft(spec, cfg)
    assert threads == [threading.main_thread()]
    assert threading.active_count() == before


def test_each_run_writes_only_its_own_rows(monkeypatch):
    cfg, n_frames = MelConfig(), 173
    force_runs(monkeypatch, 3)
    runs, blocks, divisor = _wola_buffers(cfg, n_frames)
    assert len(runs) == 3
    rng = np.random.default_rng(0)
    spec = rng.standard_normal((n_frames, cfg.n_bins)) + 1j * rng.standard_normal((n_frames, cfg.n_bins))
    # NaN shows an owned row left unzeroed; adding to NaN leaves NaN, so a
    # finite fill shows an add into another run's row
    for r, run in enumerate(runs):
        for fill in (np.nan, 0.5):
            blocks[:] = fill
            _wola_run(lambda run, lo, hi: spec[lo:hi], run, cfg, blocks, divisor)
            assert np.isfinite(blocks[run.lo:run.hi]).all(), (r, fill)
            others = np.delete(blocks, np.s_[run.lo:run.hi], axis=0)
            assert np.array_equal(others, np.full_like(others, fill), equal_nan=True), (r, fill)


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
