"""Binary feature and checkpoint file formats.

FTB ("FTB1"): magic, kind u8 (0 matrix, 1 vector, 2 prosody triplet),
rows u32, cols u32, then f32 little-endian row-major payload.  Prosody
tracks store three consecutive row-major blocks: log_f0, voiced as 0/1,
log_energy.

PFCK ("PFCK"): magic, version u32, then named parameter blocks: name
length u16, utf-8 name bytes, rank u8, dims u32 each, f32 little-endian
row-major data.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import UnreadableFile, UnwritableFile
from .prosody import ProsodyTrack

FTB_MAGIC = b"FTB1"
FTB_MATRIX = 0
FTB_VECTOR = 1
FTB_PROSODY = 2

PFCK_MAGIC = b"PFCK"
PFCK_VERSION = 1


def _f32_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


def write_ftb_matrix(path, values: np.ndarray) -> None:
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    _write_ftb(path, FTB_MATRIX, values.shape[0], values.shape[1], _f32_bytes(values))


def write_ftb_vector(path, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    _write_ftb(path, FTB_VECTOR, 1, len(values), _f32_bytes(values))


def write_ftb_prosody(path, track: ProsodyTrack) -> None:
    payload = (_f32_bytes(track.log_f0) + _f32_bytes(track.voiced.astype(np.float64))
               + _f32_bytes(track.log_energy))
    _write_ftb(path, FTB_PROSODY, 1, track.n_frames, payload)


def _write_ftb(path, kind: int, rows: int, cols: int, payload: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(FTB_MAGIC)
            fh.write(struct.pack("<BII", kind, rows, cols))
            fh.write(payload)
    except OSError as exc:
        raise UnwritableFile(f"{path}: {exc}") from exc


def read_ftb(path):
    """Returns (kind, payload): a matrix, a vector, or a ProsodyTrack."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise UnreadableFile(f"{path}: {exc}") from exc
    if len(blob) < 13 or blob[:4] != FTB_MAGIC:
        raise UnreadableFile(f"{path}: not an FTB file")
    kind, rows, cols = struct.unpack_from("<BII", blob, 4)
    n = rows * cols
    expected = 13 + 4 * n * (3 if kind == FTB_PROSODY else 1)
    if len(blob) != expected:
        raise UnreadableFile(f"{path}: payload is {len(blob) - 13} bytes, expected {expected - 13}")
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
    """Write named float arrays in insertion order.

    The whole file is built before it is opened, so a block holding a finite
    value that float32 cannot represent is refused with no file written.
    """
    parts = [PFCK_MAGIC, struct.pack("<I", PFCK_VERSION)]
    for name, arr in blocks.items():
        arr = np.asarray(arr, dtype=np.float64)
        with np.errstate(over="ignore"):
            f32 = arr.astype("<f4")
        if np.any(np.isinf(f32) & np.isfinite(arr)):
            raise UnwritableFile(f"{path}: block {name} holds values beyond the float32 range")
        encoded = name.encode("utf-8")
        parts += [struct.pack("<H", len(encoded)), encoded, struct.pack("<B", arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), f32.tobytes()]
    try:
        with open(path, "wb") as fh:
            fh.write(b"".join(parts))
    except OSError as exc:
        raise UnwritableFile(f"{path}: {exc}") from exc


def read_pfck(path) -> dict[str, np.ndarray]:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise UnreadableFile(f"{path}: {exc}") from exc
    if len(blob) < 8 or blob[:4] != PFCK_MAGIC:
        raise UnreadableFile(f"{path}: not a PFCK checkpoint")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != PFCK_VERSION:
        raise UnreadableFile(f"{path}: unsupported checkpoint version {version}")
    blocks: dict[str, np.ndarray] = {}
    offset = 8
    while offset < len(blob):
        try:
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<B", blob, offset)
            offset += 1
            shape = struct.unpack_from(f"<{rank}I", blob, offset)
            offset += 4 * rank
            count = math.prod(shape)
            if 4 * count > len(blob) - offset:
                raise UnreadableFile(f"{path}: truncated parameter block {name}")
            arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset).reshape(shape)
            offset += 4 * count
        except (struct.error, ValueError, UnicodeDecodeError) as exc:
            raise UnreadableFile(f"{path}: truncated or corrupt checkpoint ({exc})") from exc
        # a signalling NaN sets the invalid flag when cast; the caller's finiteness check reports it
        with np.errstate(invalid="ignore"):
            blocks[name] = arr.astype(np.float64)
    return blocks
