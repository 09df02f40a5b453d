"""FPAI image container: the bit-exact float32 format shared by every stage.

Layout (little-endian): magic ``46 50 41 49`` ("FPAI"), u32 version=1, u32 rows,
u32 cols, u32 channels, u32 reserved=0, then channels*rows*cols float32 samples,
channel-major then row-major. A sidecar JSON manifest with the same basename and
a ``.json`` suffix records the map kind, seed and generation parameters.

``write_atomic`` is the package's one file writer: every container, sidecar,
weights file, run manifest and dataset manifest goes through a sibling temp
file and a rename, so an interrupted run never leaves a truncated file behind.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    FormatError,
    NonFiniteSampleError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from .maps import OrientationMap

MAGIC = b"FPAI"
VERSION = 1
HEADER = struct.Struct("<4sIIIII")

SIDECAR_KINDS = ("fringe", "phase", "orientation", "direction", "encoding", "error_map")


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".json")


def write_atomic(path, *chunks: bytes) -> None:
    """Write the chunks, in order, to ``<path>.tmp``, then rename it over path."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def write_json(path, payload: dict) -> None:
    """Atomic JSON: indent 2, sorted keys, trailing newline."""
    write_atomic(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def write_container(path, stack, meta: dict | None = None) -> None:
    """Write a single image or a (channels, rows, cols) stack; optional sidecar."""
    arr = np.asarray(stack, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[np.newaxis]
    if arr.ndim != 3:
        raise ValueError(f"expected 2D image or 3D stack, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteSampleError(f"{path}: refusing to store non-finite samples")
    channels, rows, cols = arr.shape
    write_atomic(path, HEADER.pack(MAGIC, VERSION, rows, cols, channels, 0),
                 arr.astype("<f4").tobytes())
    if meta is not None:
        write_sidecar(path, meta)


def write_sidecar(path, meta: dict) -> None:
    kind = meta.get("kind")
    if kind is not None and kind not in SIDECAR_KINDS:
        raise ValueError(f"unknown sidecar kind {kind!r}")
    write_json(sidecar_path(path), meta)


def read_sidecar(path) -> dict | None:
    """The sidecar's JSON object, None if there is no sidecar.

    Raises FormatError for bytes that are not UTF-8 JSON, nesting too deep to
    parse, or JSON that is not an object.
    """
    sc = sidecar_path(path)
    if not sc.exists():
        return None
    try:
        meta = json.loads(sc.read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, deep nesting
        raise FormatError(f"{sc}: unreadable JSON sidecar ({exc})") from exc
    if not isinstance(meta, dict):
        raise FormatError(f"{sc}: JSON sidecar is not an object")
    return meta


def read_container(path) -> np.ndarray:
    """Read an FPAI file; returns a 2D array for one channel, else (C, rows, cols).

    Each failure mode raises its own error type: bad magic, version mismatch,
    truncated payload, non-finite sample.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < HEADER.size:
        raise TruncatedPayloadError(f"{path}: file shorter than the FPAI header")
    magic, version, rows, cols, channels, _reserved = HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise VersionMismatchError(f"{path}: version {version}, expected {VERSION}")
    expected = HEADER.size + 4 * rows * cols * channels
    if len(raw) != expected:
        raise TruncatedPayloadError(
            f"{path}: payload is {len(raw) - HEADER.size} bytes, "
            f"expected {expected - HEADER.size}"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=HEADER.size)
    arr = data.reshape(channels, rows, cols).astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteSampleError(f"{path}: container holds non-finite samples")
    return arr[0] if channels == 1 else arr


def read_orientation(path) -> OrientationMap:
    """Read a single-channel orientation file; every pixel is valid (FPAI has no mask)."""
    angles = read_container(path)
    if angles.ndim != 2:
        raise FormatError(f"{path}: expected a single-channel orientation map")
    return OrientationMap(angles=angles, valid=np.ones_like(angles, dtype=bool))
