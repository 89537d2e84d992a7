import json
import os
import re
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest

from conftest import sawtooth_wave, silence
from prosovc.cli import main
from prosovc.formats import FTB_PROSODY, read_ftb
from prosovc.errors import UnreadableFile
from prosovc.signal_core import Waveform, load_wav, save_wav
from prosovc.synth import toy_utterance, write_alignment

CLI = [sys.executable, "-m", "prosovc"]


@pytest.fixture(scope="module")
def ckpt(demo_corpus, tmp_path_factory):
    root, _ = demo_corpus
    path = tmp_path_factory.mktemp("ckpt") / "toy.pfck"
    rc = main(["train-toy", "--corpus", str(root), "--epochs", "2", "--seed", "5",
               "--ckpt", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def pair_files(conversion_pair, tmp_path_factory):
    src, src_align, trg = conversion_pair
    root = tmp_path_factory.mktemp("pair")
    save_wav(src, root / "src.wav")
    write_alignment(src_align, root / "src.tsv")
    save_wav(trg, root / "trg.wav")
    return root


# -- extract -----------------------------------------------------------------

def test_extract_tone(tmp_path):
    save_wav(sawtooth_wave(220.0, 1.0), tmp_path / "tone.wav")
    rc = main(["extract", "--in", str(tmp_path / "tone.wav"), "--out", str(tmp_path / "tone")])
    assert rc == 0
    kind, track = read_ftb(tmp_path / "tone.prosody.ftb")
    assert kind == FTB_PROSODY
    median = np.median(track.log_f0[track.voiced])
    assert abs(median - 5.394) <= 0.03
    _, mel = read_ftb(tmp_path / "tone.mel.ftb")
    assert mel.shape[0] == track.n_frames
    _, spk = read_ftb(tmp_path / "tone.spk.ftb")
    assert np.linalg.norm(spk) == pytest.approx(1.0, abs=1e-5)
    _, units = read_ftb(tmp_path / "tone.units.ftb")
    assert units[:, 1].sum() == track.n_frames


def test_extract_silence(tmp_path):
    save_wav(silence(1.0), tmp_path / "sil.wav")
    rc = main(["extract", "--in", str(tmp_path / "sil.wav"), "--out", str(tmp_path / "sil")])
    assert rc == 0
    _, track = read_ftb(tmp_path / "sil.prosody.ftb")
    assert not track.voiced.any()
    assert not track.log_f0.any()


def test_extract_silence_skips_the_unit_sequence(tmp_path, capsys):
    # every frame of silence has one log-mel, so k-means has 1 distinct frame for its 44
    save_wav(silence(0.5), tmp_path / "sil.wav")
    rc = main(["extract", "--in", str(tmp_path / "sil.wav"), "--out", str(tmp_path / "sil")])
    assert rc == 0
    assert capsys.readouterr().err == "note: skipping unit sequence (only 1 distinct frames for 44 clusters)\n"
    assert (tmp_path / "sil.mel.ftb").exists() and not (tmp_path / "sil.units.ftb").exists()


def test_extract_with_alignment(tmp_path):
    wave, align = toy_utterance(seed=0, duration=1.0)
    save_wav(wave, tmp_path / "u.wav")
    write_alignment(align, tmp_path / "u.tsv")
    rc = main(["extract", "--in", str(tmp_path / "u.wav"), "--out", str(tmp_path / "u"),
               "--alignment", str(tmp_path / "u.tsv")])
    assert rc == 0
    _, prior = read_ftb(tmp_path / "u.prior.ftb")
    _, mel = read_ftb(tmp_path / "u.mel.ftb")
    assert prior.shape == mel.shape


@pytest.mark.parametrize("flags", [["--f0-min", "700", "--f0-max", "600"], ["--yin-threshold", "nan"],
                                   ["--f0-min", "19.9"], ["--f0-min", "5e-324"],
                                   ["--out", ""], ["--out", "."], ["--out", "a/.."]])
def test_extract_bad_f0_flags_exit_2(tmp_path, capsys, monkeypatch, flags):
    monkeypatch.chdir(tmp_path)  # a prefix relative to the working directory writes under tmp_path
    save_wav(sawtooth_wave(220.0, 0.5), tmp_path / "tone.wav")
    rc = main(["extract", "--in", str(tmp_path / "tone.wav"), "--out", str(tmp_path / "tone")] + flags)
    assert rc == 2
    assert capsys.readouterr().err.startswith("ParseError: ")
    assert not (tmp_path / "tone.mel.ftb").exists()
    assert [p.name for p in tmp_path.iterdir()] == ["tone.wav"]


def test_extract_segment_beyond_the_audio_writes_nothing(tmp_path, capsys):
    # the prior fails last among the outputs; no feature file may be left behind
    wave, _ = toy_utterance(seed=0, duration=1.0)
    save_wav(wave, tmp_path / "u.wav")
    (tmp_path / "bad.tsv").write_text("a\t0.0\t0.5\nb\t0.5\t5.0\n")
    rc = main(["extract", "--in", str(tmp_path / "u.wav"), "--out", str(tmp_path / "out" / "feat"),
               "--alignment", str(tmp_path / "bad.tsv")])
    assert_one_error_line(capsys, rc, "OutOfRange", 7)
    assert not list(tmp_path.rglob("feat.*"))


def non_pcm_wav(tag: int) -> bytes:
    """A mono 8 kHz RIFF/WAVE file of format tag `tag` (3 float, 7 mu-law) holding 4 zero samples."""
    width = 4 if tag == 3 else 1
    fmt = struct.pack("<HHIIHH", tag, 1, 8000, 8000 * width, width, 8 * width)
    data = bytes(4 * width)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize("tag", [3, 7], ids=["float", "mu-law"])
def test_extract_non_pcm_wav_exit_2(tmp_path, capsys, tag):
    # the wave module refuses every format tag but PCM's while it reads the header
    path = tmp_path / "in.wav"
    path.write_bytes(non_pcm_wav(tag))
    rc = main(["extract", "--in", str(path), "--out", str(tmp_path / "feat")])
    err = assert_one_error_line(capsys, rc, "UnreadableFile", 2)
    assert err == f"UnreadableFile: {path}: not a readable RIFF/WAVE file (unknown format: {tag})\n"
    assert not any(tmp_path.glob("feat*"))


def extensible_pcm16_wav() -> bytes:
    """A mono 8 kHz WAVE_FORMAT_EXTENSIBLE file of PCM16 subformat holding 4 zero samples."""
    pcm_subformat = bytes.fromhex("0100000000001000800000aa00389b71")  # KSDATAFORMAT_SUBTYPE_PCM
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, 8000, 16000, 2, 16, 22, 16, 0x4) + pcm_subformat
    data = bytes(8)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_extract_extensible_wav_exit_2(tmp_path, capsys):
    # refused by its format tag on every Python version: the wave module reads it from 3.12 on
    path = tmp_path / "in.wav"
    path.write_bytes(extensible_pcm16_wav())
    rc = main(["extract", "--in", str(path), "--out", str(tmp_path / "feat")])
    err = assert_one_error_line(capsys, rc, "UnreadableFile", 2)
    assert err == f"UnreadableFile: {path}: not a readable RIFF/WAVE file (unknown format: 65534)\n"
    assert not any(tmp_path.glob("feat*"))


def with_chunk_before_fmt(data: bytes, chunk_id: bytes, payload: bytes) -> bytes:
    """The RIFF/WAVE file `data` with a chunk inserted before its `fmt ` chunk, padded to an even size."""
    chunk = chunk_id + struct.pack("<I", len(payload)) + payload + bytes(len(payload) % 2)
    body = data[8:12] + chunk + data[12:]
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_load_wav_skips_a_chunk_before_fmt(tmp_path):
    # an odd-sized chunk is followed by one pad byte, which the format-tag read must skip too
    save_wav(Waveform(np.linspace(-0.5, 0.5, 64), 8000), tmp_path / "plain.wav")
    path = tmp_path / "list.wav"
    path.write_bytes(with_chunk_before_fmt((tmp_path / "plain.wav").read_bytes(), b"LIST", b"abc"))
    assert np.array_equal(load_wav(path).samples, load_wav(tmp_path / "plain.wav").samples)


def test_load_wav_refuses_extensible_behind_a_junk_chunk(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(with_chunk_before_fmt(extensible_pcm16_wav(), b"JUNK", bytes(28)))
    with pytest.raises(UnreadableFile, match=r"\(unknown format: 65534\)$"):
        load_wav(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("extensible", [False, True], ids=["pcm16", "extensible"])
def test_load_wav_reads_a_pipe_as_a_file(tmp_path, extensible):
    # a pipe cannot seek back after the format tag is read; --in <(...) gives one
    save_wav(Waveform(np.linspace(-0.5, 0.5, 64), 8000), tmp_path / "file.wav")
    data = extensible_pcm16_wav() if extensible else (tmp_path / "file.wav").read_bytes()
    pipe = tmp_path / "in.wav"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(data,))
    writer.start()
    try:
        if extensible:
            with pytest.raises(UnreadableFile, match=r"\(unknown format: 65534\)$"):
                load_wav(pipe)
        else:
            assert np.array_equal(load_wav(pipe).samples, load_wav(tmp_path / "file.wav").samples)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_extract_missing_file_exit_2(tmp_path):
    proc = subprocess.run(CLI + ["extract", "--in", str(tmp_path / "nope.wav"),
                                 "--out", str(tmp_path / "x")],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "UnreadableFile" in proc.stderr


# -- convert ------------------------------------------------------------------

def test_convert_end_to_end(ckpt, pair_files, tmp_path):
    out_wav = tmp_path / "out.wav"
    report_path = tmp_path / "report.json"
    rc = main(["convert", "--src", str(pair_files / "src.wav"), "--trg", str(pair_files / "trg.wav"),
               "--src-align", str(pair_files / "src.tsv"), "--ckpt", str(ckpt),
               "--octave", "0.5", "--gl-iters", "4",
               "--out", str(out_wav), "--report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["requested_mean_hz"] == pytest.approx(report["mu_trg_hz"] * 2 ** 0.5, rel=1e-9)
    wave = load_wav(out_wav)
    assert len(wave) == (report["out_frames"] - 1) * 256
    assert 0.66 <= report["rc_clamped"] <= 1.33


def test_convert_rate_override_clamped(ckpt, pair_files, tmp_path):
    out_wav = tmp_path / "out.wav"
    report_path = tmp_path / "report.json"
    rc = main(["convert", "--src", str(pair_files / "src.wav"), "--trg", str(pair_files / "trg.wav"),
               "--src-align", str(pair_files / "src.tsv"), "--ckpt", str(ckpt),
               "--rate", "2.0", "--rate-control", "--gl-iters", "2",
               "--out", str(out_wav), "--report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["applied_rate"] == pytest.approx(1.33)
    expected = int(np.floor(report["source_frames"] / 1.33 + 0.5))
    assert report["out_frames"] == expected


def test_convert_identity_pair_fixed_point(ckpt, pair_files):
    # same utterance as source and target: Eq.-style transfer is the identity,
    # so the conditioning track equals the source prosody bit for bit
    from prosovc.encoders import load_alignment
    from prosovc.pipeline import convert, extract_features, load_bundle

    bundle = load_bundle(ckpt)
    src = load_wav(pair_files / "src.wav")
    align = load_alignment(pair_files / "src.tsv")
    _, track_src = extract_features(src, bundle.mel_cfg, bundle.f0_cfg)
    result = convert(src, src, align, bundle, gl_iters=2)
    assert np.array_equal(result.conditioning_track.log_f0, track_src.log_f0)
    assert np.array_equal(result.conditioning_track.voiced, track_src.voiced)


def test_convert_mod_file(ckpt, pair_files, tmp_path):
    mod_file = tmp_path / "mod.txt"
    mod_file.write_text("octave_shift = 0.25\nenergy_gain = 0.5\n")
    report_path = tmp_path / "report.json"
    rc = main(["convert", "--src", str(pair_files / "src.wav"), "--trg", str(pair_files / "trg.wav"),
               "--src-align", str(pair_files / "src.tsv"), "--ckpt", str(ckpt),
               "--mod-file", str(mod_file), "--gl-iters", "2",
               "--out", str(tmp_path / "o.wav"), "--report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["octave_shift"] == 0.25
    assert report["energy_gain"] == 0.5
    assert report["requested_mean_hz"] == pytest.approx(report["mu_trg_hz"] * 2 ** 0.25, rel=1e-9)


def test_convert_missing_checkpoint(pair_files, tmp_path):
    rc = main(["convert", "--src", str(pair_files / "src.wav"), "--trg", str(pair_files / "trg.wav"),
               "--src-align", str(pair_files / "src.tsv"), "--ckpt", str(tmp_path / "no.pfck"),
               "--out", str(tmp_path / "o.wav")])
    assert rc == 2


def test_convert_frame_curve(ckpt, pair_files, tmp_path):
    from prosovc.formats import write_ftb_vector
    from prosovc.pipeline import extract_features, load_bundle

    bundle = load_bundle(ckpt)
    src = load_wav(pair_files / "src.wav")
    _, track = extract_features(src, bundle.mel_cfg, bundle.f0_cfg)
    curve = np.full(track.n_frames, 0.1)
    write_ftb_vector(tmp_path / "curve.ftb", curve)
    report_path = tmp_path / "report.json"
    rc = main(["convert", "--src", str(pair_files / "src.wav"), "--trg", str(pair_files / "trg.wav"),
               "--src-align", str(pair_files / "src.tsv"), "--ckpt", str(ckpt),
               "--f0-curve", str(tmp_path / "curve.ftb"), "--gl-iters", "2",
               "--out", str(tmp_path / "o.wav"), "--report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["frame_curve"] is True
    # constant +0.1 log-Hz curve multiplies the voiced mean by e^0.1
    assert report["requested_mean_hz"] == pytest.approx(report["mu_trg_hz"] * np.exp(0.1), rel=1e-6)


def test_convert_curve_length_mismatch_exit_5(ckpt, pair_files, tmp_path):
    from prosovc.formats import write_ftb_vector

    write_ftb_vector(tmp_path / "short.ftb", np.zeros(3))
    rc = main(["convert", "--src", str(pair_files / "src.wav"), "--trg", str(pair_files / "trg.wav"),
               "--src-align", str(pair_files / "src.tsv"), "--ckpt", str(ckpt),
               "--f0-curve", str(tmp_path / "short.ftb"), "--gl-iters", "2",
               "--out", str(tmp_path / "o.wav")])
    assert rc == 5


@pytest.mark.parametrize("octaves", ["1100", "-1100"])
def test_convert_f0_beyond_float_range_exit_5(ckpt, pair_files, tmp_path, capsys, octaves):
    out, report = tmp_path / "o.wav", tmp_path / "r.json"
    rc = main(convert_args(ckpt, pair_files, out)
              + ["--octave", octaves, "--gl-iters", "0", "--report", str(report)])
    assert_one_error_line(capsys, rc, "F0OutOfRange", 5)
    assert not out.exists() and not report.exists()


def test_convert_report_reproducible(ckpt, pair_files, tmp_path):
    # no seed anywhere: two runs of one input give the same report and WAV bytes
    reports, waves = [], []
    for name in ("r1.json", "r2.json"):
        rc = main(["convert", "--src", str(pair_files / "src.wav"),
                   "--trg", str(pair_files / "trg.wav"),
                   "--src-align", str(pair_files / "src.tsv"), "--ckpt", str(ckpt),
                   "--octave", "0.25", "--gl-iters", "2",
                   "--out", str(tmp_path / "o.wav"), "--report", str(tmp_path / name)])
        assert rc == 0
        report = json.loads((tmp_path / name).read_text())
        report.pop("elapsed_ms")
        reports.append(report)
        waves.append((tmp_path / "o.wav").read_bytes())
    assert reports[0] == reports[1]
    assert waves[0] == waves[1]


def convert_args(ckpt, pair_files, out):
    return ["convert", "--src", str(pair_files / "src.wav"), "--trg", str(pair_files / "trg.wav"),
            "--src-align", str(pair_files / "src.tsv"), "--ckpt", str(ckpt), "--out", str(out)]


@pytest.mark.parametrize("flags", [["--octave", "nan"], ["--rate", "nan"], ["--rate", "-1"],
                                   ["--gl-iters", "-5"]])
def test_convert_bad_flag_value_exit_2(ckpt, pair_files, tmp_path, capsys, flags):
    rc = main(convert_args(ckpt, pair_files, tmp_path / "o.wav") + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("ParseError: ") and err.count("\n") == 1
    assert not (tmp_path / "o.wav").exists()


@pytest.mark.parametrize("text, error, detail", [
    pytest.param("rate_multiplier = nan", "ParseError", "", id="rate_multiplier = nan-ParseError"),
    pytest.param("octave_shift = high", "UnreadableFile", "", id="octave_shift = high-UnreadableFile"),
    # a repeated key is refused, not settled by its last value
    pytest.param("octave_shift = 0.5\noctave_shift = -0.5", "UnreadableFile",
                 "{mod_file}:2: repeated key 'octave_shift'\n", id="repeated-octave_shift"),
    pytest.param("f0_curve = {curve}\n# again\nf0_curve = {curve}", "UnreadableFile",
                 "{mod_file}:3: repeated key 'f0_curve'\n", id="repeated-f0_curve"),
    pytest.param("foo=1", "UnreadableFile", "{mod_file}:1: unknown key 'foo'\n", id="unknown-key"),
])
def test_convert_bad_mod_file_value_exit_2(ckpt, pair_files, tmp_path, capsys, text, error, detail):
    from prosovc.formats import write_ftb_vector

    mod_file, curve = tmp_path / "mod.txt", tmp_path / "curve.ftb"
    write_ftb_vector(curve, np.zeros(3))
    mod_file.write_text(text.format(curve=curve) + "\n")
    rc = main(convert_args(ckpt, pair_files, tmp_path / "o.wav") + ["--mod-file", str(mod_file)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{error}: " + detail.format(mod_file=mod_file)) and err.count("\n") == 1, err
    assert not (tmp_path / "o.wav").exists()


@pytest.mark.parametrize("kind, detail", [
    pytest.param("prosody", "expected a vector or matrix FTB, got a prosody track", id="prosody"),
    pytest.param("kind-3", "unknown FTB kind 3", id="kind-3"),
])
def test_convert_f0_curve_that_is_not_a_curve_exit_2(ckpt, pair_files, tmp_path, capsys, kind, detail):
    from prosovc.formats import write_ftb_prosody, write_ftb_vector
    from prosovc.prosody import ProsodyTrack

    curve = tmp_path / "curve.ftb"
    if kind == "prosody":
        write_ftb_prosody(curve, ProsodyTrack(np.zeros(3), np.zeros(3, dtype=bool), np.zeros(3)))
    else:
        write_ftb_vector(curve, np.zeros(3))
        blob = bytearray(curve.read_bytes())
        blob[4] = 3  # the kind byte, after the magic
        curve.write_bytes(bytes(blob))
    out = tmp_path / "o.wav"
    rc = main(convert_args(ckpt, pair_files, out) + ["--f0-curve", str(curve)])
    err = assert_one_error_line(capsys, rc, "UnreadableFile", 2)
    assert err == f"UnreadableFile: {curve}: {detail}\n"
    assert not out.exists()


def test_convert_mod_file_not_utf8_exit_2(ckpt, pair_files, tmp_path, capsys):
    mod_file = tmp_path / "mod.txt"
    mod_file.write_bytes("octave_shift = 0.25 # \xe9\n".encode("latin-1"))
    rc = main(convert_args(ckpt, pair_files, tmp_path / "o.wav") + ["--mod-file", str(mod_file)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"UnreadableFile: {mod_file}: not UTF-8 text") and err.count("\n") == 1


def test_convert_malformed_checkpoint_exit_2(ckpt, pair_files, tmp_path, capsys):
    from prosovc.formats import read_pfck, write_pfck

    blocks = read_pfck(ckpt)
    blocks["meta.dims"][0] = 0.0
    bad = tmp_path / "bad.pfck"
    write_pfck(bad, blocks)
    rc = main(convert_args(bad, pair_files, tmp_path / "o.wav"))
    assert rc == 2
    assert capsys.readouterr().err.startswith("UnreadableFile: checkpoint block meta.dims")


def test_convert_rate_control_without_codebook_block_exit_2(ckpt, pair_files, tmp_path, capsys):
    # the unit codebook drives rate control; a checkpoint without it must not convert at rate 1.0
    from prosovc.formats import read_pfck, write_pfck

    blocks = read_pfck(ckpt)
    blocks["codebook.renamed"] = blocks.pop("codebook.centroids")
    bad = tmp_path / "bad.pfck"
    write_pfck(bad, blocks)
    out = tmp_path / "o.wav"
    rc = main(convert_args(bad, pair_files, out) + ["--rate-control", "--gl-iters", "0"])
    err = assert_one_error_line(capsys, rc, "UnreadableFile", 2)
    assert err.startswith("UnreadableFile: checkpoint block codebook.centroids ")
    assert not out.exists()


def test_convert_dims_melcfg_n_mels_mismatch_exit_2(ckpt, pair_files, tmp_path, capsys, monkeypatch):
    # weights shaped for another band count than meta.melcfg's must not reach analysis
    from prosovc import pipeline
    from prosovc.diffusion import init_decoder_params
    from prosovc.pipeline import load_bundle, save_bundle

    bundle = load_bundle(ckpt)
    bundle.params = init_decoder_params(bundle.dims, bundle.mel_cfg.n_mels // 2, np.random.default_rng(0))
    bad = tmp_path / "bad.pfck"
    save_bundle(bad, bundle)
    out = tmp_path / "o.wav"

    def analysis_reached(*args, **kwargs):
        raise AssertionError("the inputs were analysed before the checkpoint was checked")

    monkeypatch.setattr(pipeline, "mel_spectrogram", analysis_reached)
    rc = main(convert_args(bad, pair_files, out) + ["--gl-iters", "0"])
    err = assert_one_error_line(capsys, rc, "UnreadableFile", 2)
    assert err.startswith("UnreadableFile: checkpoint block param.")
    assert not out.exists()


def test_convert_nonfinite_param_block_exit_2(ckpt, pair_files, tmp_path, capsys):
    from prosovc.formats import read_pfck, write_pfck

    blocks = read_pfck(ckpt)
    blocks["param.dec.w3"][0, 0, 0] = np.nan
    bad = tmp_path / "bad.pfck"
    write_pfck(bad, blocks)
    rc = main(convert_args(bad, pair_files, tmp_path / "o.wav"))
    assert rc == 2
    assert capsys.readouterr().err == "UnreadableFile: checkpoint block param.dec.w3 holds non-finite values\n"
    assert not (tmp_path / "o.wav").exists()


def test_convert_non_integral_step_count_exit_2(ckpt, pair_files, tmp_path, capsys):
    from prosovc.formats import read_pfck, write_pfck

    blocks = read_pfck(ckpt)
    blocks["meta.melcfg"][2] = 256.5
    bad = tmp_path / "bad.pfck"
    write_pfck(bad, blocks)
    rc = main(convert_args(bad, pair_files, tmp_path / "o.wav"))
    assert rc == 2
    assert capsys.readouterr().err == ("UnreadableFile: checkpoint block meta.melcfg is invalid: "
                                       "hop 256.5 is not an integer\n")
    assert not (tmp_path / "o.wav").exists()


def test_convert_signalling_nan_param_block_is_one_line(ckpt, pair_files, tmp_path):
    # a float64 signalling NaN must be reported as non-finite, with no warning printed
    from prosovc.formats import read_pfck, write_pfck

    blocks = read_pfck(ckpt)
    marker = np.float64(1234.5).tobytes()
    blocks["param.dec.w2"][0, 0, 0] = 1234.5
    bad = tmp_path / "snan.pfck"
    write_pfck(bad, blocks)
    blob = bad.read_bytes()
    assert blob.count(marker) == 1
    bad.write_bytes(blob.replace(marker, np.uint64(0x7FF0000000000001).astype("<u8").tobytes()))
    out = tmp_path / "o.wav"
    proc = subprocess.run(CLI + convert_args(bad, pair_files, out) + ["--gl-iters", "0"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == "UnreadableFile: checkpoint block param.dec.w2 holds non-finite values\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def blown_up_ckpt(ckpt, tmp_path_factory):
    """The trained checkpoint with dec.w3 scaled by 1e12: the decoder state overflows."""
    from prosovc.formats import read_pfck, write_pfck

    blocks = read_pfck(ckpt)
    blocks["param.dec.w3"] = blocks["param.dec.w3"] * 1e12
    path = tmp_path_factory.mktemp("blown") / "blown.pfck"
    write_pfck(path, blocks)
    return path


def assert_non_finite_sample_exit_6(proc):
    assert proc.returncode == 6
    assert proc.stderr.startswith("NonFiniteSample: decoder state is non-finite after step ")
    assert proc.stderr.count("\n") == 1


def test_convert_non_finite_decoder_exit_6(blown_up_ckpt, pair_files, tmp_path):
    out = tmp_path / "o.wav"
    proc = subprocess.run(CLI + convert_args(blown_up_ckpt, pair_files, out) + ["--gl-iters", "0"],
                          capture_output=True, text=True)
    assert_non_finite_sample_exit_6(proc)
    assert not out.exists()


# -- train-toy ------------------------------------------------------------------

def test_train_toy_deterministic_checkpoints(demo_corpus, tmp_path):
    root, _ = demo_corpus
    p1, p2 = tmp_path / "a.pfck", tmp_path / "b.pfck"
    assert main(["train-toy", "--corpus", str(root), "--epochs", "1", "--seed", "9",
                 "--ckpt", str(p1)]) == 0
    assert main(["train-toy", "--corpus", str(root), "--epochs", "1", "--seed", "9",
                 "--ckpt", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_train_toy_empty_corpus(tmp_path):
    corpus = tmp_path / "empty"
    corpus.mkdir()
    proc = subprocess.run(CLI + ["train-toy", "--corpus", str(corpus), "--epochs", "1",
                                 "--seed", "0", "--ckpt", str(tmp_path / "c.pfck")],
                          capture_output=True, text=True)
    assert proc.returncode == 4
    assert "InsufficientData" in proc.stderr


def test_train_toy_missing_alignment(demo_corpus, tmp_path):
    root, _ = demo_corpus
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "spk0_utt0.wav").write_bytes((root / "spk0_utt0.wav").read_bytes())
    rc = main(["train-toy", "--corpus", str(broken), "--epochs", "1", "--seed", "0",
               "--ckpt", str(tmp_path / "c.pfck")])
    assert rc == 2


def test_train_toy_diverged_writes_no_checkpoint(demo_corpus, tmp_path, capsys):
    # lr 1e4 drives the weights past the float32 range while the loss stays finite;
    # the step that does so stops the run, before any checkpoint is written
    root, _ = demo_corpus
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("spk0_utt0.wav", "spk0_utt0.tsv", "spk1_utt0.wav", "spk1_utt0.tsv"):
        (corpus / name).write_bytes((root / name).read_bytes())
    ckpt = tmp_path / "c.pfck"
    rc = main(["train-toy", "--corpus", str(corpus), "--epochs", "1", "--seed", "0",
               "--lr", "1e4", "--kmeans-k", "8", "--ckpt", str(ckpt)])
    assert rc == 6
    err = capsys.readouterr().err
    assert re.fullmatch(r"NonFiniteLoss: parameter (dec|cond)\.\w+ left the float32 range "
                        r"at epoch 1/1, step [12]/2\n", err), err
    assert not ckpt.exists()



@pytest.mark.parametrize("case, error, exit_code", [
    ("regular-file", "UnreadableFile", 2),
    ("no-wav", "InsufficientData", 4),
    ("zero-epochs", "InsufficientData", 4),
])
def test_train_toy_corpus_or_epochs_refused(demo_corpus, tmp_path, capsys, case, error, exit_code):
    corpus, epochs = demo_corpus[0], "1"
    if case == "regular-file":
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("")
        detail = f"{corpus}: not a directory"
    elif case == "no-wav":
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "spk0_utt0.tsv").write_text("")
        detail = f"{corpus}: no wav files found"
    else:
        epochs, detail = "0", "need at least one epoch"
    ckpt = tmp_path / "c.pfck"
    rc = main(["train-toy", "--corpus", str(corpus), "--epochs", epochs, "--seed", "0", "--ckpt", str(ckpt)])
    err = assert_one_error_line(capsys, rc, error, exit_code)
    assert err == f"{error}: {detail}\n"
    assert not ckpt.exists()


@pytest.mark.parametrize("lr", ["1e4", "10"])
def test_train_toy_non_finite_loss_is_one_line(demo_corpus, tmp_path, lr):
    root, _ = demo_corpus
    ckpt = tmp_path / "c.pfck"
    proc = subprocess.run(CLI + ["train-toy", "--corpus", str(root), "--epochs", "2", "--seed", "0",
                                 "--lr", lr, "--ckpt", str(ckpt)],
                          capture_output=True, text=True)
    assert proc.returncode == 6
    assert proc.stderr.count("\n") == 1, proc.stderr
    # the weights leave the float32 range a step before the loss could overflow
    assert re.fullmatch(r"NonFiniteLoss: parameter (dec|cond)\.\w+ left the float32 range "
                        r"at epoch [12]/2, step [1-4]/4\n", proc.stderr), proc.stderr
    assert not ckpt.exists()

@pytest.mark.parametrize("corpus", ["demo", "missing"])
@pytest.mark.parametrize("lr", ["nan", "inf", "-1", "0"])
def test_train_toy_bad_lr_exit_2(demo_corpus, tmp_path, capsys, lr, corpus):
    # checked before the corpus is read, so a missing corpus gives the same line
    root = demo_corpus[0] if corpus == "demo" else tmp_path / "missing"
    ckpt = tmp_path / "c.pfck"
    rc = main(["train-toy", "--corpus", str(root), "--epochs", "1", "--seed", "0",
               "--lr", lr, "--ckpt", str(ckpt)])
    err = assert_one_error_line(capsys, rc, "ParseError", 2)
    assert err == f"ParseError: --lr must be finite and > 0, got {float(lr)}\n"
    assert not ckpt.exists()

# -- sweep ------------------------------------------------------------------------

def write_pairs_file(path, pair_root):
    path.write_text(f"{pair_root / 'src.wav'}\t{pair_root / 'src.tsv'}\t{pair_root / 'trg.wav'}\n")


def test_sweep_f0_csv(ckpt, pair_files, tmp_path):
    pairs = tmp_path / "pairs.tsv"
    write_pairs_file(pairs, pair_files)
    out = tmp_path / "f0.csv"
    rc = main(["sweep", "--pairs", str(pairs), "--ckpt", str(ckpt), "--out", str(out),
               "--gl-iters", "2"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "level,requested_mean_hz,achieved_mean_hz,f0_rmse_hz,out_frames"
    assert len(lines) == 6
    assert [line.split(",")[0] for line in lines[1:]] == ["-0.5", "-0.25", "0", "0.25", "0.5"]


def test_sweep_rate_csv(ckpt, pair_files, tmp_path):
    pairs = tmp_path / "pairs.tsv"
    write_pairs_file(pairs, pair_files)
    out = tmp_path / "rate.csv"
    rc = main(["sweep", "--pairs", str(pairs), "--ckpt", str(ckpt), "--out", str(out),
               "--mode", "rate", "--gl-iters", "2"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    assert [line.split(",")[0] for line in lines[1:]] == ["0.66", "0.75", "1", "1.2", "1.33"]


@pytest.mark.parametrize("flags", [["--gl-iters", "-5"], ["--levels", "0", "nan"],
                                   ["--mode", "rate", "--levels", "1.0", "-1"]])
def test_sweep_bad_flag_value_exit_2(ckpt, pair_files, tmp_path, capsys, flags):
    pairs = tmp_path / "pairs.tsv"
    write_pairs_file(pairs, pair_files)
    rc = main(["sweep", "--pairs", str(pairs), "--ckpt", str(ckpt), "--out", str(tmp_path / "x.csv")]
              + flags)
    assert rc == 2
    assert capsys.readouterr().err.startswith("ParseError: ")
    assert not (tmp_path / "x.csv").exists()


def test_sweep_empty_pairs_exit_2(ckpt, tmp_path):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("")
    rc = main(["sweep", "--pairs", str(pairs), "--ckpt", str(ckpt),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_sweep_bad_pair_row_names_its_line_exit_2(ckpt, tmp_path, capsys):
    # blank lines count: the two-field row is line 3 of the file
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("\n\nsrc.wav\tsrc.tsv\n")
    rc = main(["sweep", "--pairs", str(pairs), "--ckpt", str(ckpt),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"UnreadableFile: {pairs}:3: expected src<TAB>align<TAB>trg\n"
    assert not (tmp_path / "x.csv").exists()


def test_sweep_pairs_not_utf8_exit_2(ckpt, pair_files, tmp_path, capsys):
    pairs = tmp_path / "pairs.tsv"
    write_pairs_file(pairs, pair_files)
    pairs.write_bytes(pairs.read_bytes() + "# \xe9\n".encode("latin-1"))
    rc = main(["sweep", "--pairs", str(pairs), "--ckpt", str(ckpt), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"UnreadableFile: {pairs}: not UTF-8 text") and err.count("\n") == 1


def test_sweep_level_out_of_f0_range_exit_5(ckpt, pair_files, tmp_path, capsys):
    pairs = tmp_path / "pairs.tsv"
    write_pairs_file(pairs, pair_files)
    out = tmp_path / "x.csv"
    rc = main(["sweep", "--pairs", str(pairs), "--ckpt", str(ckpt), "--out", str(out),
               "--levels", "0", "1100", "--gl-iters", "0"])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.startswith("F0OutOfRange: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_sweep_non_finite_decoder_exit_6(blown_up_ckpt, pair_files, tmp_path):
    pairs = tmp_path / "pairs.tsv"
    write_pairs_file(pairs, pair_files)
    out = tmp_path / "x.csv"
    proc = subprocess.run(CLI + ["sweep", "--pairs", str(pairs), "--ckpt", str(blown_up_ckpt),
                                 "--out", str(out), "--gl-iters", "0"],
                          capture_output=True, text=True)
    assert_non_finite_sample_exit_6(proc)
    assert not out.exists()


# -- escapes that end as one error line ----------------------------------------------

def assert_one_error_line(capsys, rc, name, exit_code):
    err = capsys.readouterr().err
    assert (rc, err.count("\n")) == (exit_code, 1), err
    assert err.startswith(f"{name}: "), err
    return err


def test_convert_report_into_missing_directory_exit_2(ckpt, pair_files, tmp_path, capsys):
    report = tmp_path / "missing" / "report.json"
    rc = main(convert_args(ckpt, pair_files, tmp_path / "o.wav") + ["--gl-iters", "0", "--report", str(report)])
    err = assert_one_error_line(capsys, rc, "UnwritableFile", 2)
    assert err.startswith(f"UnwritableFile: {report}: ")
    assert not (tmp_path / "o.wav").exists()


@pytest.mark.parametrize("spelling", ["same", "dotted"])
def test_convert_report_naming_the_out_file_exit_2(ckpt, pair_files, tmp_path, capsys, monkeypatch, spelling):
    # the report would overwrite the WAV and still exit 0; it is refused before the inputs are read
    from prosovc import cli

    def input_read(*args, **kwargs):
        raise AssertionError("an input was read before the output paths were checked")

    monkeypatch.setattr(cli, "load_wav", input_read)
    out = tmp_path / "o.wav"
    report = out if spelling == "same" else tmp_path / "." / "sub" / ".." / "o.wav"
    rc = main(convert_args(ckpt, pair_files, out) + ["--report", str(report)])
    err = assert_one_error_line(capsys, rc, "ParseError", 2)
    assert err == "ParseError: --report names the same file as --out\n"
    assert not out.exists()


def test_sweep_out_into_missing_directory_exit_2(ckpt, pair_files, tmp_path, capsys):
    pairs = tmp_path / "pairs.tsv"
    write_pairs_file(pairs, pair_files)
    out = tmp_path / "missing" / "x.csv"
    rc = main(["sweep", "--pairs", str(pairs), "--ckpt", str(ckpt), "--out", str(out),
               "--levels", "0", "--gl-iters", "0"])
    err = assert_one_error_line(capsys, rc, "UnwritableFile", 2)
    assert err.startswith(f"UnwritableFile: {out}: ")


def test_extract_out_under_a_regular_file_exit_2(tmp_path, capsys):
    save_wav(sawtooth_wave(220.0, 0.3), tmp_path / "tone.wav")
    (tmp_path / "afile").write_text("")
    rc = main(["extract", "--in", str(tmp_path / "tone.wav"), "--out", str(tmp_path / "afile" / "feat")])
    err = assert_one_error_line(capsys, rc, "UnwritableFile", 2)
    assert err.startswith(f"UnwritableFile: {tmp_path / 'afile'}: ")


@pytest.mark.parametrize("command", ["extract", "train-toy"])
def test_negative_seed_is_one_parse_error_line(command, pair_files, demo_corpus, tmp_path, capsys):
    argv = {
        "extract": ["extract", "--in", str(pair_files / "src.wav"), "--out", str(tmp_path / "feat")],
        "train-toy": ["train-toy", "--corpus", str(demo_corpus[0]), "--epochs", "1",
                      "--ckpt", str(tmp_path / "c.pfck")],
    }[command]
    rc = main(argv + ["--seed", "-1"])
    err = assert_one_error_line(capsys, rc, "ParseError", 2)
    assert err == "ParseError: --seed must be >= 0, got -1\n"
    assert not any(tmp_path.glob("feat*")) and not (tmp_path / "c.pfck").exists()


@pytest.mark.parametrize("command", ["convert", "sweep"])
def test_inference_takes_no_seed(command, ckpt, pair_files, tmp_path, capsys):
    # convert and sweep read no seed: --seed is argparse's usage error, before any work
    pairs = tmp_path / "pairs.tsv"
    write_pairs_file(pairs, pair_files)
    out = tmp_path / ("o.wav" if command == "convert" else "x.csv")
    argv = {
        "convert": convert_args(ckpt, pair_files, out) + ["--gl-iters", "0"],
        "sweep": ["sweep", "--pairs", str(pairs), "--ckpt", str(ckpt), "--out", str(out),
                  "--levels", "0", "--gl-iters", "0"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: prosovc") and "unrecognized arguments: --seed 0" in err
    assert not out.exists()


@pytest.mark.parametrize("k", ["1", "0", "-3"])
def test_train_toy_kmeans_k_below_2_is_insufficient_data(demo_corpus, tmp_path, capsys, k):
    ckpt = tmp_path / "c.pfck"
    rc = main(["train-toy", "--corpus", str(demo_corpus[0]), "--epochs", "1", "--seed", "0",
               "--kmeans-k", k, "--ckpt", str(ckpt)])
    err = assert_one_error_line(capsys, rc, "InsufficientData", 4)
    assert f"got {k}" in err
    assert not ckpt.exists()


@pytest.mark.parametrize("k", ["1", "0", "-3"])
def test_extract_kmeans_k_below_2_skips_the_unit_sequence(tmp_path, capsys, k):
    save_wav(sawtooth_wave(220.0, 0.5), tmp_path / "tone.wav")
    rc = main(["extract", "--in", str(tmp_path / "tone.wav"), "--out", str(tmp_path / "tone"),
               "--kmeans-k", k])
    assert rc == 0
    assert capsys.readouterr().err.startswith("note: skipping unit sequence")
    assert (tmp_path / "tone.mel.ftb").exists() and not (tmp_path / "tone.units.ftb").exists()
