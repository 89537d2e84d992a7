"""Binary feature and checkpoint file formats.

FTB ("FTB1"): magic, kind u8 (0 matrix, 1 vector, 2 prosody triplet),
rows u32, cols u32, then f32 little-endian row-major payload.  A vector or
prosody file has rows 1, and a file of either kind with any other rows is
refused.  Prosody tracks store three consecutive row-major blocks: log_f0,
voiced as 0/1, log_energy.

PFCK ("PFCK") version 2: magic, version u32, then named parameter blocks:
name length u16, utf-8 name bytes, rank u8, dims u32 each, f64
little-endian row-major data. Every float64 is stored exactly, so a block
reads back bit for bit; a file of any other version, or one that repeats a
block name, is refused.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import UnreadableFile, UnwritableFile
from .prosody import ProsodyTrack
from .signal_core import open_file

FTB_MAGIC = b"FTB1"
FTB_MATRIX = 0
FTB_VECTOR = 1
FTB_PROSODY = 2

PFCK_MAGIC = b"PFCK"
PFCK_VERSION = 2


def _f32_bytes(path, what: str, arr: np.ndarray) -> bytes:
    """Little-endian float32 bytes of `arr`, refusing a finite value that float32 turns into inf."""
    arr = np.asarray(arr, dtype=np.float64)
    with np.errstate(over="ignore"):
        f32 = np.ascontiguousarray(arr, dtype="<f4")
    if np.any(np.isinf(f32) & np.isfinite(arr)):
        raise UnwritableFile(f"{path}: {what} holds values beyond the float32 range")
    return f32.tobytes()


def write_ftb_matrix(path, values: np.ndarray) -> None:
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    _write_ftb(path, FTB_MATRIX, values.shape[0], values.shape[1], _f32_bytes(path, "matrix", values))


def write_ftb_vector(path, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    _write_ftb(path, FTB_VECTOR, 1, len(values), _f32_bytes(path, "vector", values))


def write_ftb_prosody(path, track: ProsodyTrack) -> None:
    payload = b"".join(_f32_bytes(path, name, getattr(track, name))
                       for name in ("log_f0", "voiced", "log_energy"))
    _write_ftb(path, FTB_PROSODY, 1, track.n_frames, payload)


def _write_ftb(path, kind: int, rows: int, cols: int, payload: bytes) -> None:
    with open_file(path, "wb") as fh:
        fh.write(FTB_MAGIC)
        fh.write(struct.pack("<BII", kind, rows, cols))
        fh.write(payload)


def read_ftb(path):
    """Returns (kind, payload): a matrix, a vector, or a ProsodyTrack."""
    with open_file(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 13 or blob[:4] != FTB_MAGIC:
        raise UnreadableFile(f"{path}: not an FTB file")
    kind, rows, cols = struct.unpack_from("<BII", blob, 4)
    if kind in (FTB_VECTOR, FTB_PROSODY) and rows != 1:
        raise UnreadableFile(f"{path}: rows is {rows}, expected 1 for FTB kind {kind}")
    n = rows * cols
    expected = 13 + 4 * n * (3 if kind == FTB_PROSODY else 1)
    if len(blob) != expected:
        raise UnreadableFile(f"{path}: payload is {len(blob) - 13} bytes, expected {expected - 13}")
    # a signalling NaN sets the invalid flag when cast from float32
    with np.errstate(invalid="ignore"):
        data = np.frombuffer(blob, dtype="<f4", offset=13).astype(np.float64)
    if kind == FTB_MATRIX:
        return kind, data.reshape(rows, cols)
    if kind == FTB_VECTOR:
        return kind, data.reshape(-1)
    if kind == FTB_PROSODY:
        log_f0, voiced, log_energy = data.reshape(3, n)
        try:
            return kind, ProsodyTrack(log_f0, voiced > 0.5, log_energy)
        except ValueError as exc:
            raise UnreadableFile(f"{path}: invalid prosody track ({exc})") from exc
    raise UnreadableFile(f"{path}: unknown FTB kind {kind}")


# -- PFCK checkpoints ---------------------------------------------------------------

def write_pfck(path, blocks: dict[str, np.ndarray]) -> None:
    """Write named float arrays in insertion order, as float64."""
    parts = [PFCK_MAGIC, struct.pack("<I", PFCK_VERSION)]
    for name, arr in blocks.items():
        arr = np.asarray(arr)
        encoded = name.encode("utf-8")
        parts += [struct.pack("<H", len(encoded)), encoded, struct.pack("<B", arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), np.ascontiguousarray(arr, dtype="<f8").tobytes()]
    with open_file(path, "wb") as fh:
        fh.writelines(parts)


def read_pfck(path) -> dict[str, np.ndarray]:
    """Each block is read straight into its own aligned, writable float64 array,
    so the checkpoint is held once, never as the file's bytes beside the blocks."""
    with open_file(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if len(head) < 8 or head[:4] != PFCK_MAGIC:
            raise UnreadableFile(f"{path}: not a PFCK checkpoint")
        (version,) = struct.unpack_from("<I", head, 4)
        if version != PFCK_VERSION:
            raise UnreadableFile(f"{path}: unsupported checkpoint version {version}")
        blocks: dict[str, np.ndarray] = {}
        while fh.tell() < size:
            try:
                (name_len,) = struct.unpack("<H", fh.read(2))
                name = fh.read(name_len).decode("utf-8")
                if name in blocks:
                    raise UnreadableFile(f"{path}: repeated block {name}")
                (rank,) = struct.unpack("<B", fh.read(1))
                shape = struct.unpack(f"<{rank}I", fh.read(4 * rank))
                count = math.prod(shape)
                if 8 * count > size - fh.tell():
                    raise UnreadableFile(f"{path}: truncated parameter block {name}")
                arr = np.empty(shape, dtype="<f8")
                if fh.readinto(arr) != 8 * count:
                    raise UnreadableFile(f"{path}: truncated parameter block {name}")
            except (struct.error, ValueError, UnicodeDecodeError) as exc:
                raise UnreadableFile(f"{path}: truncated or corrupt checkpoint ({exc})") from exc
            blocks[name] = arr
    return blocks
