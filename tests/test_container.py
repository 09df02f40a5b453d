import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from fringeproc.container import (
    HEADER,
    MAGIC,
    read_container,
    read_encoding,
    read_orientation,
    read_sidecar,
    write_atomic,
    write_container,
    write_json,
)
from fringeproc.errors import (
    BadMagicError,
    FormatError,
    NonFiniteSampleError,
    TruncatedPayloadError,
    VersionMismatchError,
)


def random_f32(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape).astype(np.float32).astype(np.float64)


def test_single_channel_round_trip_bit_identical(tmp_path):
    img = random_f32((32, 32))
    path = tmp_path / "img.fpai"
    write_container(path, img)
    back = read_container(path)
    assert back.shape == (32, 32)
    assert np.array_equal(back, img)


@pytest.mark.parametrize("channels", [1, 2, 3, 4])
def test_stack_round_trip_bit_exact(tmp_path, channels):
    stack = random_f32((channels, 16, 16), seed=channels)
    path = tmp_path / "stack.fpai"
    write_container(path, stack)
    back = read_container(path)
    back = back[np.newaxis] if back.ndim == 2 else back
    assert np.array_equal(back, stack)
    # byte-level round trip
    raw1 = path.read_bytes()
    write_container(path, back if channels > 1 else back[0])
    assert path.read_bytes() == raw1


def test_channel_order_preserved(tmp_path):
    stack = np.stack([np.full((16, 16), 1.0), np.full((16, 16), 2.0)])
    path = tmp_path / "two.fpai"
    write_container(path, stack)
    back = read_container(path)
    assert np.all(back[0] == 1.0) and np.all(back[1] == 2.0)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.fpai"
    write_container(path, np.zeros((8, 8)))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError, match="bad magic"):
        read_container(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "ver.fpai"
    write_container(path, np.zeros((8, 8)))
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatchError, match="version 9"):
        read_container(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.fpai"
    write_container(path, np.zeros((8, 8)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(TruncatedPayloadError):
        read_container(path)


def test_non_finite_payload_rejected_on_read(tmp_path):
    path = tmp_path / "nan.fpai"
    header = HEADER.pack(MAGIC, 1, 2, 2, 1, 0)
    payload = np.array([1.0, np.nan, 0.0, 2.0], dtype="<f4").tobytes()
    path.write_bytes(header + payload)
    with pytest.raises(NonFiniteSampleError):
        read_container(path)


def test_non_finite_rejected_on_write(tmp_path):
    bad = np.ones((8, 8))
    bad[0, 0] = np.inf
    with pytest.raises(NonFiniteSampleError):
        write_container(tmp_path / "x.fpai", bad)


@pytest.fixture(scope="module")
def write_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("write")


@settings(max_examples=200, deadline=None)
@given(arr=arrays(np.float64, array_shapes(min_dims=2, max_dims=3, max_side=4),
                  elements=st.floats(width=64)))
@example(arr=np.full((4, 4), 1e39))  # finite, but beyond float32's range
def test_write_stores_the_float32_cast_or_nothing(write_dir, arr):
    path = write_dir / "x.fpai"
    path.unlink(missing_ok=True)
    with np.errstate(over="ignore"):
        want = arr.astype("<f4")
    if np.isfinite(want).all():
        write_container(path, arr)
        assert read_container(path).astype("<f4").tobytes() == want.tobytes()
    else:
        with pytest.raises(NonFiniteSampleError):
            write_container(path, arr)
        assert list(write_dir.iterdir()) == []


def test_sidecar_round_trip(tmp_path):
    path = tmp_path / "img.fpai"
    meta = {"kind": "fringe", "seed": 42, "params": {"period_T": 14.0}}
    write_container(path, np.zeros((8, 8)), meta=meta)
    assert read_sidecar(path) == meta
    assert read_sidecar(tmp_path / "missing.fpai") is None


def test_sidecar_rejects_unknown_kind(tmp_path):
    with pytest.raises(ValueError, match="kind"):
        write_container(tmp_path / "x.fpai", np.zeros((8, 8)),
                        meta={"kind": "???"})


def test_read_orientation_single_channel_all_valid(tmp_path):
    path = tmp_path / "fo.fpai"
    angles = np.random.default_rng(0).uniform(0.0, np.pi, (8, 8)).astype(np.float32)
    angles = angles.astype(np.float64)
    write_container(path, angles)
    fo = read_orientation(path)
    assert np.array_equal(fo.angles, angles)
    assert fo.valid.all()
    write_container(path, np.zeros((2, 8, 8)))
    with pytest.raises(FormatError, match="single-channel"):
        read_orientation(path)


def test_read_orientation_keeps_float32_pi(tmp_path):
    # an FO just below pi may round to float32(pi), which is above pi
    path = tmp_path / "fo.fpai"
    write_container(path, np.full((4, 4), np.nextafter(np.pi, 0.0)))
    fo = read_orientation(path)
    assert np.all(fo.angles == float(np.float32(np.pi))) and fo.angles[0, 0] > np.pi


@pytest.mark.parametrize("bad", [-1e-7, float(np.nextafter(np.float32(np.pi), np.float32(4))),
                                 7.0])
def test_read_orientation_rejects_angles_outside_zero_pi(tmp_path, bad):
    path = tmp_path / "fo.fpai"
    angles = np.full((4, 4), 1.0)
    angles[2, 3] = bad
    write_container(path, angles)
    with pytest.raises(FormatError, match=r"fo\.fpai: orientation samples .* outside \[0, pi\]"):
        read_orientation(path)


@pytest.mark.parametrize("shape", [(8, 8), (3, 8, 8)])
def test_read_encoding_requires_two_channels(tmp_path, shape):
    path = tmp_path / "enc.fpai"
    stack = random_f32((2, 8, 8))
    write_container(path, stack)
    enc = read_encoding(path)
    assert np.array_equal(enc.to_array(), stack)
    write_container(path, np.zeros(shape))
    with pytest.raises(FormatError, match=r"enc\.fpai: expected a \(2, rows, cols\) stack"):
        read_encoding(path)


def test_write_json_layout(tmp_path):
    write_json(tmp_path / "x.json", {"b": 1, "a": [1, 2]})
    assert (tmp_path / "x.json").read_text() == (
        '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n')


def test_failed_atomic_write_keeps_old_file_and_no_temp(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(TypeError):
        write_atomic(path, b"new", "not bytes")
    assert path.read_bytes() == b"old"
    assert list(tmp_path.iterdir()) == [path]


def test_failed_rename_leaves_no_temp(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        write_atomic(target, b"x")
    assert list(tmp_path.iterdir()) == [target]
