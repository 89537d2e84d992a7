"""Every writer in the package produces the exact bytes pinned here.

The digests pin the formats as the writers produced them before they
shared signal_core.open_file, and PFCK as of version 2 (float64 blocks),
so a change to any format shows up as a changed digest. Inputs cover odd and even lengths, and WAV files two
sample rates.
"""

import hashlib
from types import SimpleNamespace

import numpy as np

from prosovc import cli
from prosovc.evaluate import write_sweep_csv
from prosovc.formats import write_ftb_matrix, write_ftb_prosody, write_ftb_vector, write_pfck
from prosovc.prosody import ProsodyTrack
from prosovc.signal_core import Waveform, save_wav
from prosovc.synth import toy_utterance, write_alignment

EXPECTED = {
    "wav_16000_1": "82283a0ea2ecaff905cd45d60671bcb7cc4d3212ca927d190d91fa0ef9ffe447",
    "wav_16000_2": "e54d32a443906a4441a9dbe2bb7efcf3c2193ff209b0f585ddacca7cc3c68d26",
    "wav_16000_1001": "62dd08b245c6a20bf504fa49d8d85bd194c154cce98afdcf380079cdf0b50414",
    "wav_16000_1002": "329b81683013c14a83b5e1628481e1629bd4b055423f07f16ff7f185f79e2d08",
    "wav_22050_1": "e3ba1b5c145e88d2f56a4adacc048e2d5cf444cc4607e20212e2af453c98fdb6",
    "wav_22050_2": "fff4f17604c496afa7ad017e24848ae694107544edf6db88dcabdc075d42e94f",
    "wav_22050_1001": "500ca49e0a4295674c69d4efbb7b32ada71ce6692929404e1325d92e9c914ccc",
    "wav_22050_1002": "b98169d13aec176cfa41c2d0e6ce3046f3db6b1373f158de254ab9df160b6530",
    "ftb_matrix_7": "98f3736951ea7f879200e89b1762b24fc926d3aedad805f17a7aa3c99422df68",
    "ftb_vector_7": "89e7e0a6b10762dc50d83b9469cbac2f1cacb7423c3a66cb11e5af2c4fb9b84d",
    "ftb_prosody_7": "3fb72306120f5d7bea43550b77ec1344abe5e84c0c07e681ee744dad929faa96",
    "pfck_7": "3de63dc4bd913a17c7ae333d174a37a150f409747f515ae10aaa9db617c9b3bd",
    "sweep_csv_7": "d91dca3ef3ca9d01ed616290c631f46245bcc7dce6e731e698527b3e35c349f0",
    "ftb_matrix_8": "9abd364e9f5fe0df397c0f9dcc3e1597ed5cf66f2a06dcaba0b0ab711691c745",
    "ftb_vector_8": "e5b89fa9ff6900ef3976fd4cd5f8727798faea935a078e5232eda375159d406a",
    "ftb_prosody_8": "5fd00a49afb54ef0a5b845da9cfbb7af19cba31e9f138de5dbe13d36304596e8",
    "pfck_8": "ab4b1d0da1d00d637adc36992401f0b3dacfb79af7b1e011c3bdb7e57701567e",
    "sweep_csv_8": "a8b11f2e9cc298b177f51c1e33a6fce108feb1749c1656d819ba335b9289b671",
    "alignment": "9905bb9737db3ae8ed7121cd1016ca99ad925908a69b91783b5c81a72ec13ef7",
    "convert_report": "fe423c2c27a8683be2add22ed67af476181a9ee5459073f198d9b7a99aa59d7d",
    "convert_wav": "80ef3ac8bef169c8ec3622df353ad0670ec0d4f65ff5ea683ef2c6f274594ace",
}


def _track(n):
    rng = np.random.default_rng(n)
    voiced = rng.random(n) < 0.6
    return ProsodyTrack(np.where(voiced, 5.0 + rng.random(n), 0.0), voiced, -4.0 + rng.random(n))


def write_every_file(root):
    """Write one file per (writer, input) case under root; returns {case: path}."""
    paths = {}
    rng = np.random.default_rng(7)
    for rate in (16000, 22050):
        for n in (1, 2, 1001, 1002):
            # beyond [-1, 1] on purpose: save_wav clips
            paths[f"wav_{rate}_{n}"] = root / f"w{rate}_{n}.wav"
            save_wav(Waveform(rng.uniform(-1.2, 1.2, n), rate), paths[f"wav_{rate}_{n}"])
    for n in (7, 8):
        paths[f"ftb_matrix_{n}"] = root / f"m{n}.ftb"
        write_ftb_matrix(paths[f"ftb_matrix_{n}"], rng.standard_normal((n, 5)))
        paths[f"ftb_vector_{n}"] = root / f"v{n}.ftb"
        write_ftb_vector(paths[f"ftb_vector_{n}"], rng.standard_normal(n))
        paths[f"ftb_prosody_{n}"] = root / f"p{n}.ftb"
        write_ftb_prosody(paths[f"ftb_prosody_{n}"], _track(n))
        paths[f"pfck_{n}"] = root / f"c{n}.pfck"
        write_pfck(paths[f"pfck_{n}"], {"a.w": rng.standard_normal((n, 3)), "a.b": rng.standard_normal(n),
                                        "meta.x": np.array([0.05, 22050.0])})
        paths[f"sweep_csv_{n}"] = root / f"s{n}.csv"
        rows = [{"level": 0.25 * k, "requested_mean_hz": 100.0 + k / 3, "achieved_mean_hz": float("nan"),
                 "f0_rmse_hz": 1e-7 * k, "out_frames": 80.0 + k} for k in range(n)]
        write_sweep_csv(paths[f"sweep_csv_{n}"], rows)
    _, align = toy_utterance(seed=3, duration=1.0)
    paths["alignment"] = root / "a.tsv"
    write_alignment(align, paths["alignment"])
    return paths


def digests(paths):
    return {case: hashlib.sha256(path.read_bytes()).hexdigest() for case, path in paths.items()}


def assert_pinned(paths):
    assert digests(paths) == {case: EXPECTED[case] for case in paths}


def test_writers_write_the_pinned_bytes(tmp_path):
    assert_pinned(write_every_file(tmp_path))


def run_convert_with_fixed_result(root, monkeypatch):
    """cli convert with analysis and decoding stubbed out: the report and WAV come from a fixed result."""
    save_wav(Waveform(np.zeros(4), 22050), root / "src.wav")
    (root / "src.tsv").write_text("a\t0.0\t0.0001\n", encoding="utf-8")
    report = {"mu_src_hz": 123.456789012, "mu_trg_hz": 210.0, "rc_raw": 1.0123456789,
              "rc_clamped": 1.0123456789, "requested_mean_hz": 210.5, "out_frames": 87,
              "elapsed_ms": 12.5, "octave_shift": 0.25, "rate_multiplier": None, "curve": [1.0, -2.5e-9]}
    result = SimpleNamespace(wave=Waveform(np.linspace(-1.0, 1.0, 1001), 22050), report=report)
    monkeypatch.setattr(cli, "load_bundle", lambda path: None)
    monkeypatch.setattr(cli, "convert", lambda *args, **kwargs: result)
    monkeypatch.chdir(root)  # the report records the paths it was given
    assert cli.main(["convert", "--src", "src.wav", "--trg", "src.wav", "--src-align", "src.tsv",
                     "--ckpt", "unused.pfck", "--out", "out.wav", "--report", "report.json"]) == 0
    return {"convert_report": root / "report.json", "convert_wav": root / "out.wav"}


def test_convert_writes_the_pinned_report_and_wav_bytes(tmp_path, monkeypatch):
    assert_pinned(run_convert_with_fixed_result(tmp_path, monkeypatch))
