import csv
import math

import numpy as np
import pytest

from prosovc import evaluate, pipeline
from prosovc.errors import F0OutOfRange, LengthMismatch, NoCommonVoiced, ShapeMismatch
from prosovc.evaluate import (
    F0_SWEEP_HEADER,
    F0_SWEEP_LEVELS,
    RATE_SWEEP_HEADER,
    RATE_SWEEP_LEVELS,
    f0_rmse,
    log_spectral_distance,
    modulation_sweep,
    sr_ratio_error,
    write_sweep_csv,
)
from prosovc.prosody import ProsodyTrack
from prosovc.signal_core import MelConfig, MelSpectrogram
from prosovc.synth import toy_utterance
from prosovc.transform import ModulationSpec, modulate, voiced_mean


def track_from_hz(f0, voiced):
    f0 = np.asarray(f0, dtype=float)
    voiced = np.asarray(voiced, dtype=bool)
    return ProsodyTrack(np.where(voiced, np.log(np.where(voiced, f0, 1.0)), 0.0),
                        voiced, np.zeros(len(f0)))


# -- metrics -------------------------------------------------------------------

def test_f0_rmse_identical():
    t = track_from_hz([120.0, 0.0, 130.0], [True, False, True])
    assert f0_rmse(t, t) == 0.0


def test_f0_rmse_constant_offset():
    a = track_from_hz([100.0, 200.0, 0.0], [True, True, False])
    b = track_from_hz([110.0, 210.0, 0.0], [True, True, False])
    assert f0_rmse(a, b) == pytest.approx(10.0)


def test_f0_rmse_uses_common_voiced_frames_only():
    a = track_from_hz([100.0, 500.0], [True, True])
    b = track_from_hz([110.0, 0.0], [True, False])
    assert f0_rmse(a, b) == pytest.approx(10.0)


def test_f0_rmse_disjoint_voicing():
    a = track_from_hz([100.0, 0.0], [True, False])
    b = track_from_hz([0.0, 100.0], [False, True])
    with pytest.raises(NoCommonVoiced):
        f0_rmse(a, b)


def test_f0_rmse_length_mismatch():
    a = track_from_hz([100.0], [True])
    b = track_from_hz([100.0, 100.0], [True, True])
    with pytest.raises(LengthMismatch):
        f0_rmse(a, b)


def test_sr_ratio_error_cases():
    assert sr_ratio_error(1.0, 1.0) == 0.0
    assert sr_ratio_error(0.75, 0.75) == 0.0
    achieved = 100 / 75  # round(100/1.33) = 75
    assert sr_ratio_error(1.33, achieved) == pytest.approx(0.0025, abs=5e-4)


def test_lsd_cases(mel_cfg):
    rng = np.random.default_rng(0)
    a = MelSpectrogram(rng.standard_normal((12, mel_cfg.n_mels)), mel_cfg)
    assert log_spectral_distance(a, a) == 0.0
    b = MelSpectrogram(a.values + 1.0, mel_cfg)
    assert log_spectral_distance(a, b) == pytest.approx(math.sqrt(80.0))
    assert log_spectral_distance(a, b) == log_spectral_distance(b, a)
    small = MelConfig(sample_rate=8, fft_size=8, hop=8, window=8, n_mels=2, fmin=0.0, fmax=4.0)
    with pytest.raises(ShapeMismatch):
        log_spectral_distance(a, MelSpectrogram(np.zeros((12, 2)), small))


def test_mean_track_helper():
    t = track_from_hz([100.0, 300.0], [True, True])
    assert voiced_mean(t) == 200.0


# -- sweep harness -------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_rows(trained_bundle, conversion_pair, tmp_path_factory):
    src, src_align, trg = conversion_pair
    path = tmp_path_factory.mktemp("sweep") / "f0.csv"
    rows = modulation_sweep([(src, src_align, trg)], trained_bundle, mode="f0", seed=0, gl_iters=4)
    write_sweep_csv(path, rows)
    return rows, path


def test_f0_sweep_row_grid(sweep_rows):
    rows, _ = sweep_rows
    assert [row["level"] for row in rows] == list(F0_SWEEP_LEVELS)
    assert len(rows) == 5


def test_f0_sweep_level_zero_is_transfer_mean(sweep_rows, trained_bundle, conversion_pair):
    rows, _ = sweep_rows
    from prosovc.pipeline import extract_features
    from prosovc.transform import f0_mean_transfer

    src, _, trg = conversion_pair
    _, track_src = extract_features(src, trained_bundle.mel_cfg, trained_bundle.f0_cfg)
    _, track_trg = extract_features(trg, trained_bundle.mel_cfg, trained_bundle.f0_cfg)
    transferred = voiced_mean(f0_mean_transfer(track_src, voiced_mean(track_trg)))
    zero_row = rows[2]
    assert zero_row["level"] == 0.0
    assert zero_row["requested_mean_hz"] == pytest.approx(transferred, abs=1e-9)
    quarter = rows[3]
    assert quarter["requested_mean_hz"] == pytest.approx(transferred * 2 ** 0.25, rel=1e-9)


def test_f0_sweep_csv_format(sweep_rows):
    rows, path = sweep_rows
    text = path.read_text(encoding="utf-8")
    assert "\r" not in text
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["level", "requested_mean_hz", "achieved_mean_hz", "f0_rmse_hz", "out_frames"]
    assert len(parsed) == 6
    assert [float(row[0]) for row in parsed[1:]] == list(F0_SWEEP_LEVELS)
    assert all(list(row) == F0_SWEEP_HEADER for row in rows)


def test_f0_row_measures_voiced_output(trained_bundle):
    # every toy bundle decodes unvoiced audio, so the sweep's rows never reach f0_rmse;
    # a voiced utterance scored against its own track, and that track a semitone up, does
    wave, _ = toy_utterance(3, base_f0=150.0)
    track = pipeline.analyse_prosody(wave, trained_bundle.mel_cfg, trained_bundle.f0_cfg)
    row = evaluate._f0_row(wave, track, track.n_frames, trained_bundle)
    assert row["f0_rmse_hz"] == 0.0
    assert row["achieved_mean_hz"] == row["requested_mean_hz"] == voiced_mean(track)
    assert row["achieved_mean_hz"] == pytest.approx(151.846, abs=1e-3)
    up = modulate(track, ModulationSpec(semitone_shift=1.0))
    row = evaluate._f0_row(wave, up, track.n_frames, trained_bundle)
    # every common voiced frame is off by (2^(1/12) - 1) times its own F0
    hz = np.exp(track.log_f0[track.voiced])
    assert row["f0_rmse_hz"] == pytest.approx((2 ** (1 / 12) - 1) * np.sqrt(np.mean(hz * hz)), rel=1e-9)
    assert row["f0_rmse_hz"] == pytest.approx(9.03, abs=0.01)
    assert row["achieved_mean_hz"] == voiced_mean(track)


def test_rate_sweep_grid(trained_bundle, conversion_pair, tmp_path):
    src, src_align, trg = conversion_pair
    path = tmp_path / "rate.csv"
    rows = modulation_sweep([(src, src_align, trg)], trained_bundle, mode="rate", seed=0, gl_iters=4)
    write_sweep_csv(path, rows)
    assert [row["level"] for row in rows] == list(RATE_SWEEP_LEVELS)
    src_frames = rows[2]["out_frames"]  # level 1.0 leaves length unchanged
    for row in rows:
        expected = int(np.floor(src_frames / row["requested_rate"] + 0.5))
        assert row["out_frames"] == expected
        assert row["sr_error"] < 0.01
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["level", "requested_rate", "achieved_ratio", "sr_error", "out_frames"]
    assert all(list(row) == RATE_SWEEP_HEADER for row in rows)


def test_sweep_deterministic(trained_bundle, conversion_pair):
    src, src_align, trg = conversion_pair
    rows1 = modulation_sweep([(src, src_align, trg)], trained_bundle,
                             levels=(0.25,), mode="f0", seed=3, gl_iters=2)
    rows2 = modulation_sweep([(src, src_align, trg)], trained_bundle,
                             levels=(0.25,), mode="f0", seed=3, gl_iters=2)
    assert rows1[0].keys() == rows2[0].keys()
    for key in rows1[0]:
        a, b = rows1[0][key], rows2[0][key]
        assert a == b or (math.isnan(a) and math.isnan(b))


def test_sweep_rejects_unknown_mode(trained_bundle, conversion_pair):
    src, src_align, trg = conversion_pair
    with pytest.raises(ValueError):
        modulation_sweep([(src, src_align, trg)], trained_bundle, mode="tempo")


def fail_on_work(monkeypatch):
    def work_reached(*args, **kwargs):
        raise AssertionError("the sweep started analysing or synthesizing before checking its plan")

    for name in ("extract_features", "decode", "render"):
        monkeypatch.setattr(evaluate, name, work_reached)


@pytest.mark.parametrize("mode", ["f0", "rate"])
def test_sweep_rejects_negative_gl_iters_before_any_work(trained_bundle, conversion_pair, monkeypatch, mode):
    fail_on_work(monkeypatch)
    src, src_align, trg = conversion_pair
    with pytest.raises(ValueError, match="gl_iters"):
        modulation_sweep([(src, src_align, trg)], trained_bundle, mode=mode, gl_iters=-1)


@pytest.mark.parametrize("mode, levels", [("f0", (0.0, math.nan)), ("rate", (1.0, -1.0)),
                                          ("rate", (math.inf,))])
def test_sweep_rejects_a_bad_level_before_any_work(trained_bundle, conversion_pair, monkeypatch, mode, levels):
    fail_on_work(monkeypatch)
    with pytest.raises(ValueError, match="octave_shift|rate_multiplier"):
        modulation_sweep([conversion_pair], trained_bundle, levels=levels, mode=mode, gl_iters=0)


@pytest.mark.parametrize("mode", ["f0", "rate"])
def test_sweep_rejects_no_levels_before_any_work(trained_bundle, conversion_pair, monkeypatch, mode):
    fail_on_work(monkeypatch)
    with pytest.raises(ValueError, match="^no sweep levels$"):
        modulation_sweep([conversion_pair], trained_bundle, levels=[], mode=mode, gl_iters=0)


def test_sweep_rejects_no_pairs_before_any_work(trained_bundle, monkeypatch):
    fail_on_work(monkeypatch)
    with pytest.raises(ValueError, match="no pairs"):
        modulation_sweep([], trained_bundle, gl_iters=0)


def test_sweep_modulates_every_level_before_any_decode(trained_bundle, conversion_pair, monkeypatch):
    # 1100 octaves above any voice leaves float range; level 0 must not be decoded first
    decodes = []

    def counted(*args, **kwargs):
        decodes.append(1)
        return pipeline.decode(*args, **kwargs)

    monkeypatch.setattr(evaluate, "decode", counted)
    with pytest.raises(F0OutOfRange):
        modulation_sweep([conversion_pair], trained_bundle, levels=[0, 1100], gl_iters=0)
    assert decodes == []


# -- one analysis per pair -------------------------------------------------------------

SWEEP_MODES = {"f0": ("octave_shift", (-0.25, 0.25)), "rate": ("rate_multiplier", (0.75, 1.2))}


@pytest.fixture(scope="module")
def two_pairs(conversion_pair):
    src, src_align = toy_utterance(seed=300, base_f0=130.0, duration=1.5)
    trg, _ = toy_utterance(seed=400, base_f0=200.0, duration=1.5, tilt=0.2)
    return [conversion_pair, (src, src_align, trg)]


def same_value(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("mode", ["f0", "rate"])
def test_sweep_rows_equal_per_level_convert_rows(trained_bundle, two_pairs, monkeypatch, mode):
    # the toy decoder's output has no measurable voicing, so the F0 rows
    # hold NaN quality columns; the output waves are compared as well
    waves = []

    def recorded(*args, **kwargs):
        wave, mel = pipeline.render(*args, **kwargs)
        waves.append(wave.samples)
        return wave, mel

    monkeypatch.setattr(evaluate, "render", recorded)
    knob, levels = SWEEP_MODES[mode]
    rows = modulation_sweep(two_pairs, trained_bundle, levels=levels, mode=mode, seed=2, gl_iters=2)
    swept = iter(waves)
    for level, row in zip(levels, rows, strict=True):
        cols = []
        for src, src_align, trg in two_pairs:
            result = pipeline.convert(src, trg, src_align, trained_bundle, ModulationSpec(**{knob: level}),
                                      rate_control=mode == "rate", seed=2, gl_iters=2)
            np.testing.assert_array_equal(next(swept), result.wave.samples)
            if mode == "f0":
                cols.append(evaluate._f0_row(result.wave, result.conditioning_track,
                                             result.report["out_frames"], trained_bundle))
            else:
                requested = result.report["applied_rate"]
                achieved = result.report["source_frames"] / result.report["out_frames"]
                cols.append({"requested_rate": requested, "achieved_ratio": achieved,
                             "sr_error": sr_ratio_error(requested, achieved),
                             "out_frames": result.report["out_frames"]})
        expected = {"level": level, **{key: float(np.mean([c[key] for c in cols])) for key in cols[0]}}
        assert row.keys() == expected.keys()
        assert all(same_value(row[key], expected[key]) for key in row), (row, expected)
    assert next(swept, None) is None


@pytest.mark.parametrize("mode", ["f0", "rate"])
def test_sweep_analyses_each_pair_once(trained_bundle, two_pairs, monkeypatch, mode):
    calls = {}

    def counter(name):
        real = getattr(pipeline, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        return counted

    names = ("extract_prosody", "unitize", "speaker_embedding", "average_mel_target", "modulate")
    for name in names:
        monkeypatch.setattr(pipeline, name, counter(name))
    _, levels = SWEEP_MODES[mode]
    modulation_sweep(two_pairs, trained_bundle, levels=levels, mode=mode, gl_iters=0)
    n_pairs, n_levels = len(two_pairs), len(levels)
    # f0 rows re-extract prosody from each output to measure the achieved F0
    expected = {
        "extract_prosody": 2 * n_pairs + (n_pairs * n_levels if mode == "f0" else 0),
        "unitize": 2 * n_pairs,
        "speaker_embedding": n_pairs,
        "average_mel_target": n_pairs,
        "modulate": n_pairs * n_levels,
    }
    assert {name: calls.get(name, 0) for name in names} == expected


@pytest.mark.parametrize("mode", ["f0", "rate"])
def test_rate_sweep_decodes_each_pair_once(trained_bundle, two_pairs, monkeypatch, mode):
    calls = []
    real = pipeline.reverse_sample

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "reverse_sample", counted)
    _, levels = SWEEP_MODES[mode]
    modulation_sweep(two_pairs, trained_bundle, levels=levels, mode=mode, gl_iters=0)
    n_pairs, n_levels = len(two_pairs), len(levels)
    assert len(calls) == (n_pairs if mode == "rate" else n_pairs * n_levels)
