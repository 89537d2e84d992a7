import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_track
from prosovc.errors import UnreadableFile, UnwritableFile
from prosovc.formats import (
    FTB_MATRIX,
    FTB_PROSODY,
    FTB_VECTOR,
    read_ftb,
    read_pfck,
    write_ftb_matrix,
    write_ftb_prosody,
    write_ftb_vector,
    write_pfck,
)
from prosovc.prosody import ProsodyTrack


def test_matrix_roundtrip(tmp_path):
    path = tmp_path / "m.ftb"
    values = np.arange(12, dtype=float).reshape(3, 4) / 7
    write_ftb_matrix(path, values)
    kind, back = read_ftb(path)
    assert kind == FTB_MATRIX
    assert back.shape == (3, 4)
    assert np.allclose(back, values, atol=1e-6)  # f32 storage


def test_vector_roundtrip(tmp_path):
    path = tmp_path / "v.ftb"
    values = np.linspace(-1, 1, 9)
    write_ftb_vector(path, values)
    kind, back = read_ftb(path)
    assert kind == FTB_VECTOR
    assert back.shape == (9,)
    assert np.allclose(back, values, atol=1e-6)


def test_prosody_roundtrip(tmp_path):
    path = tmp_path / "p.ftb"
    track = make_track(np.random.default_rng(0), n_frames=21)
    write_ftb_prosody(path, track)
    kind, back = read_ftb(path)
    assert kind == FTB_PROSODY
    assert back.n_frames == 21
    assert np.array_equal(back.voiced, track.voiced)
    assert np.allclose(back.log_f0, track.log_f0, atol=1e-5)
    assert np.allclose(back.log_energy, track.log_energy, atol=1e-5)


def test_ftb_header_layout(tmp_path):
    path = tmp_path / "h.ftb"
    write_ftb_matrix(path, np.zeros((2, 3)))
    blob = path.read_bytes()
    assert blob[:4] == b"FTB1"
    assert blob[4] == 0  # kind
    assert int.from_bytes(blob[5:9], "little") == 2
    assert int.from_bytes(blob[9:13], "little") == 3
    assert len(blob) == 13 + 2 * 3 * 4


def test_ftb_bad_magic(tmp_path):
    path = tmp_path / "bad.ftb"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(UnreadableFile):
        read_ftb(path)


def test_ftb_truncated(tmp_path):
    path = tmp_path / "t.ftb"
    write_ftb_matrix(path, np.zeros((4, 4)))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(UnreadableFile):
        read_ftb(path)


@pytest.mark.parametrize("kind", [FTB_VECTOR, FTB_PROSODY])
def test_ftb_refuses_a_vector_or_prosody_file_of_more_than_one_row(tmp_path, kind):
    # rows 2 and cols 2, with a payload of the length those fields imply
    path = tmp_path / "rows.ftb"
    n_values = 4 * (3 if kind == FTB_PROSODY else 1)
    path.write_bytes(b"FTB1" + struct.pack("<BII", kind, 2, 2) + np.zeros(n_values, "<f4").tobytes())
    with pytest.raises(UnreadableFile, match=f"^{re.escape(str(path))}: rows is 2, expected 1 for FTB kind {kind}$"):
        read_ftb(path)


def test_ftb_missing(tmp_path):
    with pytest.raises(UnreadableFile):
        read_ftb(tmp_path / "none.ftb")


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=10_000))
def test_ftb_matrix_roundtrip_property(rows, cols, seed):
    import tempfile, os
    values = np.random.default_rng(seed).standard_normal((rows, cols)).astype("<f4").astype(float)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "x.ftb")
        write_ftb_matrix(path, values)
        _, back = read_ftb(path)
    assert np.array_equal(back, values)  # exact: values already f32-representable


# -- PFCK ------------------------------------------------------------------------

def test_pfck_roundtrip(tmp_path):
    path = tmp_path / "c.pfck"
    rng = np.random.default_rng(1)
    blocks = {
        "dec.w1": rng.standard_normal((4, 3, 3)),
        "dec.b1": rng.standard_normal(4),
        "meta.dims": np.array([4.0, 6.0]),
    }
    write_pfck(path, blocks)
    back = read_pfck(path)
    assert list(back) == list(blocks)
    for name in blocks:
        assert back[name].shape == blocks[name].shape
        assert np.allclose(back[name], blocks[name], atol=1e-6)


@pytest.mark.parametrize("write, value", [
    (write_ftb_matrix, [[1e300, 1.0]]),
    (write_ftb_vector, [1.0, 1e300]),
    (write_ftb_prosody, ProsodyTrack([0.0, 5.0], [False, True], [1e300, -4.0])),
], ids=["matrix", "vector", "prosody"])
def test_ftb_refuses_float32_overflow(tmp_path, write, value):
    path = tmp_path / "x.ftb"
    with pytest.raises(UnwritableFile, match="holds values beyond the float32 range"):
        write(path, value)
    assert not path.exists()


def test_pfck_magic_and_version(tmp_path):
    path = tmp_path / "c.pfck"
    write_pfck(path, {"x": np.zeros(2)})
    blob = path.read_bytes()
    assert blob[:4] == b"PFCK"
    assert int.from_bytes(blob[4:8], "little") == 2


def test_pfck_refuses_version_1(tmp_path):
    # a v1 file: one f4 block "x" of shape (2,)
    path = tmp_path / "v1.pfck"
    path.write_bytes(b"PFCK" + (1).to_bytes(4, "little") + (1).to_bytes(2, "little") + b"x"
                     + bytes([1]) + (2).to_bytes(4, "little") + np.zeros(2, "<f4").tobytes())
    with pytest.raises(UnreadableFile, match=f"^{re.escape(str(path))}: unsupported checkpoint version 1$"):
        read_pfck(path)


def test_pfck_refuses_a_repeated_block_name(tmp_path):
    path = tmp_path / "repeat.pfck"
    block = (1).to_bytes(2, "little") + b"a" + bytes([1]) + (2).to_bytes(4, "little")
    path.write_bytes(b"PFCK" + (2).to_bytes(4, "little") + block + np.array([1.0, 2.0], "<f8").tobytes()
                     + block + np.array([3.0, 4.0], "<f8").tobytes())
    with pytest.raises(UnreadableFile, match=f"^{re.escape(str(path))}: repeated block a$"):
        read_pfck(path)


def test_pfck_bad_file(tmp_path):
    path = tmp_path / "bad.pfck"
    path.write_bytes(b"XXXX\x01\x00\x00\x00")
    with pytest.raises(UnreadableFile):
        read_pfck(path)


def test_pfck_truncated(tmp_path):
    path = tmp_path / "t.pfck"
    write_pfck(path, {"w": np.ones((8, 8))})
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(UnreadableFile):
        read_pfck(path)


def test_pfck_write_read_identity_bytes(tmp_path):
    # same blocks -> byte-identical files
    blocks = {"a": np.arange(6, dtype=float).reshape(2, 3)}
    p1, p2 = tmp_path / "1.pfck", tmp_path / "2.pfck"
    write_pfck(p1, blocks)
    write_pfck(p2, blocks)
    assert p1.read_bytes() == p2.read_bytes()
