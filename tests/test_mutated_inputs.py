"""Truncated or byte-mutated valid input files end as a ProsoVCError, never another exception."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosovc.conditioning import ModelDims
from prosovc.diffusion import init_decoder_params
from prosovc.encoders import load_alignment
from prosovc.errors import ParseError, ProsoVCError, UnreadableFile
from prosovc.formats import read_ftb, read_pfck, write_ftb_matrix, write_ftb_prosody, write_ftb_vector, write_pfck
from prosovc.pipeline import ModelBundle, load_bundle, save_bundle
from prosovc.prosody import Codebook, F0Config, ProsodyTrack
from prosovc.signal_core import MelConfig, load_wav, save_wav
from prosovc.synth import toy_utterance, write_alignment

READERS = {
    "wav": load_wav,
    "tsv": load_alignment,
    "pfck": load_bundle,
    "ftb_matrix": read_ftb,
    "ftb_vector": read_ftb,
    "ftb_prosody": read_ftb,
}


@pytest.fixture(scope="module")
def valid_dir(tmp_path_factory):
    """One small valid file per input kind, named after the kind."""
    root = tmp_path_factory.mktemp("valid")
    wave, align = toy_utterance(seed=1, base_f0=150.0, duration=0.05, tilt=0.3, n_phones=3, pause_every=2)
    save_wav(wave, root / "wav")
    write_alignment(align, root / "tsv")
    dims = ModelDims(speaker_dim=6, t_embed_dim=6, style_dim=6, cond_hidden=6, dec_hidden=6)
    params = init_decoder_params(dims, 4, np.random.default_rng(0), input_shift=-4.5, input_scale=2.25)
    save_bundle(root / "pfck", ModelBundle(params, dims, MelConfig(n_mels=4), F0Config(),
                                           Codebook(np.arange(8.0).reshape(2, 4))))
    write_ftb_matrix(root / "ftb_matrix", np.arange(6.0).reshape(2, 3))
    write_ftb_vector(root / "ftb_vector", np.arange(4.0))
    write_ftb_prosody(root / "ftb_prosody", ProsodyTrack(np.array([0.0, 5.0, 5.1]),
                                                         np.array([False, True, True]),
                                                         np.array([-3.0, -2.0, -1.0])))
    for kind, reader in READERS.items():
        reader(root / kind)  # each file is valid before it is mutated
    return root


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_input_raises_only_prosovc_error(valid_dir, kind, data):
    blob = bytearray((valid_dir / kind).read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        del blob[data.draw(st.integers(0, len(blob)), label="keep"):]
    for _ in range(data.draw(st.integers(0, 3), label="edits") if blob else 0):
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    path = valid_dir / f"mutated_{kind}"
    path.write_bytes(bytes(blob))
    try:
        READERS[kind](path)
    except ProsoVCError:
        pass


# -- the mutations that once escaped as other exceptions -----------------------------

def test_wav_data_chunk_ending_mid_sample(valid_dir, tmp_path):
    path = tmp_path / "odd.wav"
    path.write_bytes((valid_dir / "wav").read_bytes()[:-1])
    with pytest.raises(UnreadableFile, match="inside a sample"):
        load_wav(path)


def test_wav_chunk_size_past_its_end(valid_dir, tmp_path):
    blob = bytearray((valid_dir / "wav").read_bytes())
    blob[16] = 17  # fmt chunk size 17: the wave module seeks past the chunk
    path = tmp_path / "chunk.wav"
    path.write_bytes(bytes(blob))
    with pytest.raises(UnreadableFile):
        load_wav(path)


def test_wav_zero_sample_rate(valid_dir, tmp_path):
    blob = bytearray((valid_dir / "wav").read_bytes())
    blob[24:28] = struct.pack("<I", 0)
    path = tmp_path / "rate0.wav"
    path.write_bytes(bytes(blob))
    with pytest.raises(UnreadableFile, match="sample rate 0"):
        load_wav(path)


def test_tsv_not_utf8(tmp_path):
    path = tmp_path / "latin1.tsv"
    path.write_bytes("caf\xe9\t0.0\t0.5\n".encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8"):
        load_alignment(path)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_tsv_non_finite_time(tmp_path, value):
    path = tmp_path / "nan.tsv"
    path.write_text(f"a\t{value}\t0.5\n", encoding="utf-8")
    with pytest.raises(ParseError, match="non-finite"):
        load_alignment(path)


def test_pfck_rank_beyond_numpy_limit(tmp_path):
    path = tmp_path / "rank.pfck"
    write_pfck(path, {"w": np.ones(1)})
    blob = bytearray(path.read_bytes())
    rank_at = 8 + 2 + 1  # magic, version, name length, name "w"
    assert blob[rank_at] == 1
    blob[rank_at] = 65
    blob[rank_at + 1:] = struct.pack("<65I", *([1] * 65)) + b"\x00" * 4
    path.write_bytes(bytes(blob))
    with pytest.raises(UnreadableFile):
        read_pfck(path)


def test_pfck_dims_product_beyond_int64(tmp_path):
    path = tmp_path / "big.pfck"
    write_pfck(path, {"w": np.ones((1, 1, 1, 1))})
    blob = bytearray(path.read_bytes())
    blob[12:28] = struct.pack("<4I", *([2 ** 16] * 4))  # 2**64 elements: an int64 product wraps to 0
    path.write_bytes(bytes(blob))
    with pytest.raises(UnreadableFile, match="truncated parameter block w"):
        read_pfck(path)


def test_ftb_prosody_with_broken_sentinel(valid_dir, tmp_path):
    blob = bytearray((valid_dir / "ftb_prosody").read_bytes())
    blob[13:17] = struct.pack("<f", 5.0)  # log_f0 of an unvoiced frame
    path = tmp_path / "track.ftb"
    path.write_bytes(bytes(blob))
    with pytest.raises(UnreadableFile, match="invalid prosody track"):
        read_ftb(path)


def test_ftb_matrix_with_signalling_nan(valid_dir, tmp_path):
    # casting a float32 signalling NaN to float64 sets the invalid flag, a RuntimeWarning
    blob = bytearray((valid_dir / "ftb_matrix").read_bytes())
    blob[13:17] = bytes([1, 0, 0x80, 0x7F])
    path = tmp_path / "snan.ftb"
    path.write_bytes(bytes(blob))
    _, data = read_ftb(path)
    assert np.isnan(data[0, 0]) and data[0, 1:].tolist() == [1.0, 2.0]
