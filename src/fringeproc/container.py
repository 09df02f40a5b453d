"""FPAI image container: the bit-exact float32 format shared by every stage.

Layout (little-endian): magic ``46 50 41 49`` ("FPAI"), u32 version=1, u32 rows,
u32 cols, u32 channels, u32 reserved=0, then channels*rows*cols float32 samples,
channel-major then row-major. A sidecar JSON manifest with the same basename and
a ``.json`` suffix records the map kind, seed and generation parameters.

``write_atomic`` is the package's one file writer: every container, sidecar,
weights file, run manifest and dataset manifest goes through a sibling temp
file and a rename, so an interrupted run never leaves a truncated file behind.
FPAI and FPAW samples are encoded by ``encode_samples``, which refuses any
sample that the reader would reject before a byte is written.

``read_tagged``, ``decode_samples`` and ``parse_json_object`` are the package's
one read path: FPAI and FPAW files share the length, magic and version check
and the float32 decode, which rejects non-finite samples on the float32 view
before the cast, and every sidecar, FPAW header and dataset manifest parses as
one JSON object. Every malformed file raises a ``FormatError`` subclass, which
the CLI maps to exit 3.
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
from .maps import OrientationEncoding, OrientationMap

MAGIC = b"FPAI"
VERSION = 1
HEADER = struct.Struct("<4sIIIII")

# FO lies in [0, pi); a float32 round trip may store an FO just below pi as
# float32(pi), which is above pi, and the lift folds that value
ORIENTATION_MAX = float(np.float32(np.pi))

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
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
    channels, rows, cols = arr.shape
    write_atomic(path, HEADER.pack(MAGIC, VERSION, rows, cols, channels, 0),
                 encode_samples(arr, path))
    if meta is not None:
        if meta.get("kind") not in (None, *SIDECAR_KINDS):
            raise ValueError(f"unknown sidecar kind {meta['kind']!r}")
        write_json(sidecar_path(path), meta)


def read_tagged(path, header: struct.Struct, magic: bytes, version: int):
    """The file's bytes and the header fields after its magic and version."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < header.size:
        raise TruncatedPayloadError(f"{path}: file shorter than the {magic.decode()} header")
    found, found_version, *rest = header.unpack_from(raw)
    if found != magic:
        raise BadMagicError(f"{path}: bad magic {found!r}, expected {magic!r}")
    if found_version != version:
        raise VersionMismatchError(f"{path}: version {found_version}, expected {version}")
    return raw, rest


def decode_samples(raw: bytes, offset: int, count: int, path) -> np.ndarray:
    """The count float32 samples that fill raw from offset on, as float64.

    Finiteness is checked on the float32 view, so no NaN reaches the cast.
    """
    size = len(raw) - offset
    if size != 4 * count:
        raise TruncatedPayloadError(f"{path}: payload is {size} bytes, expected {4 * count}")
    samples = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
    if not np.isfinite(samples).all():
        raise NonFiniteSampleError(f"{path}: non-finite samples")
    return samples.astype(np.float64)


def encode_samples(arr: np.ndarray, path) -> bytes:
    """arr's samples as little-endian float32 bytes, the inverse of ``decode_samples``.

    Finiteness is checked on the float32 cast, as the reader checks it, so a
    finite value beyond float32's range (which the cast turns into inf) is
    refused like a NaN, and every file a writer stores reads back.
    """
    with np.errstate(over="ignore"):
        samples = arr.astype("<f4")
    if not np.isfinite(samples).all():
        raise NonFiniteSampleError(f"{path}: refusing to store samples float32 cannot hold")
    return samples.tobytes()


def parse_json_object(blob: bytes, where, error: type[FormatError] = FormatError) -> dict:
    """A UTF-8 JSON object; anything else raises ``error``."""
    try:
        obj = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, deep nesting
        raise error(f"{where}: unreadable JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise error(f"{where}: JSON is not an object")
    return obj


def read_sidecar(path) -> dict | None:
    """The sidecar's JSON object, None if there is no sidecar."""
    sc = sidecar_path(path)
    return parse_json_object(sc.read_bytes(), sc) if sc.exists() else None


def read_container(path) -> np.ndarray:
    """Read an FPAI file; returns a 2D array for one channel, else (C, rows, cols)."""
    raw, (rows, cols, channels, _reserved) = read_tagged(path, HEADER, MAGIC, VERSION)
    arr = decode_samples(raw, HEADER.size, channels * rows * cols, path)
    arr = arr.reshape(channels, rows, cols)
    return arr[0] if channels == 1 else arr


def single_channel(arr: np.ndarray, path, what: str = "image") -> np.ndarray:
    """arr if it holds one 2D channel, else FormatError."""
    if arr.ndim != 2:
        raise FormatError(f"{path}: expected a single-channel {what}, got shape {arr.shape}")
    return arr


def read_orientation(path) -> OrientationMap:
    """Read a single-channel orientation file; every pixel is valid (FPAI has no mask).

    A sample outside [0, ORIENTATION_MAX] is a FormatError naming path.
    """
    angles = single_channel(read_container(path), path, "orientation map")
    if not ((angles >= 0.0) & (angles <= ORIENTATION_MAX)).all():
        raise FormatError(f"{path}: orientation samples span [{angles.min():g}, "
                          f"{angles.max():g}], outside [0, pi]")
    return OrientationMap(angles=angles, valid=np.ones_like(angles, dtype=bool))


def read_encoding(path) -> OrientationEncoding:
    """Read a (2, rows, cols) sin/cos stack; anything else is a FormatError naming path."""
    arr = read_container(path)
    if arr.ndim != 3 or arr.shape[0] != 2:
        raise FormatError(f"{path}: expected a (2, rows, cols) stack, got shape {arr.shape}")
    return OrientationEncoding(sin2=arr[0], cos2=arr[1])
