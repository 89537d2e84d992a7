"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are fixed here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import TINY_N_MELS, init_cond_weights, make_track, sawtooth_wave, silence
from prosovc.cli import main
from prosovc.conditioning import ModelDims, build_condition, build_style
from prosovc.diffusion import (
    TrainBatch,
    alpha,
    eval_loss,
    forward_diffuse,
    gradient_check,
    init_decoder_params,
    train_step,
)
from prosovc.encoders import Alignment, AlignSegment, average_mel_target
from prosovc.prosody import ProsodyTrack, extract_f0
from prosovc.rate_control import resample_mel
from prosovc.signal_core import (
    MelConfig,
    MelSpectrogram,
    Waveform,
    butterworth_hp_gain,
    highpass_filter,
    load_wav,
    save_wav,
)
from prosovc.synth import toy_utterance, write_alignment
from prosovc.transform import ConversionRate, f0_mean_transfer, voiced_mean
from prosovc.evaluate import modulation_sweep

SR = 22050


def ok(n, message):
    print(f"ACCEPTANCE {n:2d}: PASS - {message}")


def test_criterion_01_mean_transfer_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(100):
        track = make_track(rng, n_frames=int(rng.integers(4, 80)))
        mu = float(rng.uniform(80.0, 400.0))
        out = f0_mean_transfer(track, mu)
        assert abs(voiced_mean(out) - mu) < 1e-9
        identity = f0_mean_transfer(track, voiced_mean(track))
        assert np.array_equal(identity.log_f0, track.log_f0)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    ok(1, f"mean transfer exact to 1e-9 Hz on 100 random tracks ({elapsed:.2f}s)")


def test_criterion_02_clamp_conformance():
    started = time.perf_counter()
    for raw in np.linspace(0.1, 5.0, 491):
        rc = ConversionRate(float(raw))
        assert 0.66 <= rc.clamped <= 1.33
        if 0.66 <= raw <= 1.33:
            assert rc.clamped == raw
        else:
            assert rc.clamped in (0.66, 1.33)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    ok(2, f"conversion rate clamped to [0.66, 1.33] over raw in [0.1, 5.0] ({elapsed:.2f}s)")


def test_criterion_03_f0_extractor_accuracy(mel_cfg):
    started = time.perf_counter()
    for freq in (110.0, 165.0, 220.0, 330.0, 440.0):
        wave = highpass_filter(sawtooth_wave(freq, 1.0), 50.0)
        f0, voiced = extract_f0(wave, mel_cfg)
        median = float(np.median(f0[voiced]))
        assert abs(median - freq) / freq <= 0.03, f"{freq} Hz -> {median}"
    f0, voiced = extract_f0(silence(1.0), mel_cfg)
    assert not voiced.any()
    assert not f0.any()
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    ok(3, f"median F0 within 3% at 110..440 Hz; silence fully unvoiced ({elapsed:.2f}s)")


def test_criterion_04_filter_response():
    started = time.perf_counter()

    def measured_gain_db(freq):
        t = np.arange(SR) / SR
        wave = Waveform(0.5 * np.sin(2 * np.pi * freq * t), SR)
        out = highpass_filter(wave, 50.0)
        n0 = SR // 2
        rms_in = np.sqrt(np.mean(wave.samples[n0:] ** 2))
        rms_out = np.sqrt(np.mean(out.samples[n0:] ** 2))
        return 20.0 * math.log10(rms_out / rms_in)

    at_cutoff = measured_gain_db(50.0)
    assert abs(at_cutoff + 3.0) <= 0.5
    analytic_50 = 20.0 * math.log10(butterworth_hp_gain(50.0, SR, 50.0))
    assert abs(at_cutoff - analytic_50) <= 0.2

    at_passband = measured_gain_db(440.0)
    analytic_440 = 20.0 * math.log10(butterworth_hp_gain(50.0, SR, 440.0))
    assert abs(at_passband) <= 0.5
    assert abs(at_passband - analytic_440) <= 0.2
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    ok(4, f"HPF {at_cutoff:+.2f} dB at 50 Hz, {at_passband:+.3f} dB at 440 Hz ({elapsed:.2f}s)")


def test_criterion_05_schedule_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((8, 5))
    prior = rng.standard_normal((8, 5))
    assert np.max(np.abs(forward_diffuse(x0, prior, 0.0, np.zeros_like(x0)) - x0)) < 1e-9
    assert abs(alpha(1.0) - math.exp(-(0.05 + 19.95 / 2) / 2)) < 1e-9
    assert alpha(1.0) == pytest.approx(0.00665, abs=5e-5)

    n = 10_000
    prior_mc = rng.standard_normal(n)
    x0_mc = prior_mc + rng.standard_normal(n)
    for t in (0.25, 0.5, 0.75):
        a = alpha(t)
        x_t = forward_diffuse(x0_mc, prior_mc, t, rng.standard_normal(n))
        var = float(np.var(x_t - prior_mc))
        expected = a * a + (1 - a * a)
        assert abs(var - expected) / expected < 0.05
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    ok(5, f"t=0 identity, alpha(1)={alpha(1.0):.5f}, MC variance within 5% ({elapsed:.2f}s)")


def test_criterion_06_gradient_check(tiny_dims):
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    params = init_decoder_params(tiny_dims, TINY_N_MELS, rng)
    n_params = sum(a.size for a in params.weights.values())
    assert n_params <= 2000
    batch = TrainBatch(
        x0=rng.standard_normal((6, TINY_N_MELS)),
        prior=0.3 * rng.standard_normal((6, TINY_N_MELS)),
        prosody=make_track(rng, n_frames=6),
        speaker=rng.standard_normal(tiny_dims.speaker_dim),
    )
    err = gradient_check(params, batch, h=1e-4)
    assert err < 1e-3
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    ok(6, f"analytic vs FD gradients: max rel err {err:.2e} over {n_params} params ({elapsed:.2f}s)")


def test_criterion_07_toy_training(demo_corpus, tmp_path):
    started = time.perf_counter()
    dims = ModelDims(speaker_dim=16, t_embed_dim=16, style_dim=16, cond_hidden=24, dec_hidden=24)
    n_mels = 20
    rng = np.random.default_rng(11)
    params = init_decoder_params(dims, n_mels, rng)
    batch = TrainBatch(
        x0=rng.standard_normal((24, n_mels)),
        prior=0.3 * rng.standard_normal((24, n_mels)),
        prosody=make_track(rng, n_frames=24),
        speaker=rng.standard_normal(dims.speaker_dim),
    )
    val_rng = np.random.default_rng(99)
    pairs = [((i % 30 + 1) / 30, val_rng.standard_normal(batch.x0.shape)) for i in range(16)]
    before = eval_loss(params, batch, pairs)
    for _ in range(200):
        params, _ = train_step(batch, params, 1e-3, rng)
    after = eval_loss(params, batch, pairs)
    assert after <= 0.5 * before

    root, _ = demo_corpus
    p1, p2 = tmp_path / "a.pfck", tmp_path / "b.pfck"
    assert main(["train-toy", "--corpus", str(root), "--epochs", "1", "--seed", "4",
                 "--ckpt", str(p1)]) == 0
    assert main(["train-toy", "--corpus", str(root), "--epochs", "1", "--seed", "4",
                 "--ckpt", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    ok(7, f"overfit loss {before:.3f} -> {after:.3f} (<=50%); byte-identical checkpoints ({elapsed:.1f}s)")


def test_criterion_08_conditioning_shapes():
    started = time.perf_counter()
    dims = ModelDims(speaker_dim=6, t_embed_dim=6, style_dim=6, cond_hidden=10, dec_hidden=10)
    n_mels = 8
    params = init_cond_weights(dims, n_mels, np.random.default_rng(7))
    spk = np.ones(dims.speaker_dim)
    style = build_style(spk, 0.5, params)
    for n_frames in (1, 7, 100):
        track = make_track(np.random.default_rng(n_frames), n_frames=n_frames)
        assert build_condition(track, style, params).shape == (n_frames, n_mels)

    const = ProsodyTrack(np.full(40, 5.3), np.ones(40, dtype=bool), np.full(40, -4.0))
    cond = build_condition(const, style, params)
    interior = cond[2:-2]
    assert np.allclose(interior, interior[0], atol=1e-12)

    other = build_condition(const, build_style(-spk, 0.5, params), params)
    delta = other[2:-2] - interior
    assert np.allclose(delta, delta[0], atol=1e-12)
    assert np.linalg.norm(delta[0]) > 0
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    ok(8, f"T preserved for T in {{1,7,100}}; interior constancy; uniform style broadcast ({elapsed:.2f}s)")


def test_criterion_09_rate_control():
    started = time.perf_counter()
    cfg = MelConfig(sample_rate=8, fft_size=8, hop=8, window=8, n_mels=3, fmin=0.0, fmax=4.0)
    rng = np.random.default_rng(5)
    mel = MelSpectrogram(rng.standard_normal((100, 3)), cfg)
    expected = {0.66: 152, 0.75: 133, 1.20: 83, 1.33: 75}
    for rate, t_out in expected.items():
        out = resample_mel(mel, ConversionRate(rate))
        assert out.n_frames == t_out
        assert np.array_equal(out.values[0], mel.values[0])
        assert np.array_equal(out.values[-1], mel.values[-1])
    identity = resample_mel(mel, ConversionRate(1.0))
    assert np.array_equal(identity.values, mel.values)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    ok(9, f"T'=round(T/Rc) on the rate grid; endpoints pinned; identity at 1.0 ({elapsed:.2f}s)")


def test_criterion_10_average_mel_prior():
    started = time.perf_counter()
    cfg = MelConfig(sample_rate=8, fft_size=8, hop=8, window=8, n_mels=1, fmin=0.0, fmax=4.0)
    mel = MelSpectrogram(np.array([[1.0], [1.0], [3.0], [5.0]]), cfg)
    align = Alignment((AlignSegment("A", 0.0, 2.0), AlignSegment("B", 2.0, 4.0)))
    out = average_mel_target(mel, align)
    assert np.allclose(out.values.ravel(), [1.0, 1.0, 4.0, 4.0])
    assert np.array_equal(average_mel_target(out, align).values, out.values)

    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(3, 40))
        values = rng.standard_normal((n, 1))
        split = int(rng.integers(1, n))
        segs = Alignment((AlignSegment("A", 0.0, float(split)),
                          AlignSegment("B", float(split), float(n))))
        averaged = average_mel_target(MelSpectrogram(values, cfg), segs)
        assert averaged.values[:split].mean() == pytest.approx(values[:split].mean())
        assert averaged.values[split:].mean() == pytest.approx(values[split:].mean())
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    ok(10, f"[1,1,3,5] -> [1,1,4,4]; idempotent; segment means preserved ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def smoke_ckpt(demo_corpus, tmp_path_factory):
    root, _ = demo_corpus
    path = tmp_path_factory.mktemp("acc_ckpt") / "toy.pfck"
    assert main(["train-toy", "--corpus", str(root), "--epochs", "2", "--seed", "1",
                 "--ckpt", str(path)]) == 0
    return path


def test_criterion_11_end_to_end_smoke(smoke_ckpt, tmp_path):
    started = time.perf_counter()
    src, src_align = toy_utterance(seed=100, base_f0=150.0, duration=2.0)
    trg, _ = toy_utterance(seed=200, base_f0=220.0, duration=2.0, tilt=0.4)
    save_wav(src, tmp_path / "src.wav")
    write_alignment(src_align, tmp_path / "src.tsv")
    save_wav(trg, tmp_path / "trg.wav")

    out_wav = tmp_path / "converted.wav"
    report_path = tmp_path / "report.json"
    rc = main(["convert", "--src", str(tmp_path / "src.wav"), "--trg", str(tmp_path / "trg.wav"),
               "--src-align", str(tmp_path / "src.tsv"), "--ckpt", str(smoke_ckpt),
               "--octave", "0.25", "--out", str(out_wav), "--report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    wave = load_wav(out_wav)
    assert len(wave) == (report["out_frames"] - 1) * 256
    assert abs(report["requested_mean_hz"] - report["mu_trg_hz"] * 2 ** 0.25) < 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    ok(11, f"convert exit 0; wav length (T'-1)*hop; requested mean = mu_trg*2^0.25 ({elapsed:.1f}s)")


def test_criterion_12_modulation_sweep(smoke_ckpt, conversion_pair):
    started = time.perf_counter()
    from prosovc.pipeline import load_bundle

    bundle = load_bundle(smoke_ckpt)
    src, src_align, trg = conversion_pair
    pair = [(src, src_align, trg)]
    f0_rows = modulation_sweep(pair, bundle, mode="f0", seed=0, gl_iters=8)
    rate_rows = modulation_sweep(pair, bundle, mode="rate", seed=0, gl_iters=8)
    assert [row["level"] for row in f0_rows] == [-0.50, -0.25, 0.0, 0.25, 0.50]
    assert [row["level"] for row in rate_rows] == [0.66, 0.75, 1.0, 1.20, 1.33]
    assert len(f0_rows) == 5 and len(rate_rows) == 5
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    ok(12, f"sweeps emit 5 F0 rows and 5 SR rows at the published level sets ({elapsed:.1f}s)")
