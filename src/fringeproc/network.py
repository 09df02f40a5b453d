"""Multi-path residual CNN for orientation-encoding regression, from scratch.

Architecture: each path p applies an input conv (1 -> filters, ReLU), p-1
maxpoolings (2x2, stride 2, all before the residual stack), a fixed number of
residual blocks (x + conv(relu(conv(x))), ReLU after the sum), and a nearest
upsample back to the input size; path outputs are concatenated and a final
linear 3x3 conv produces the (sin 2FO, cos 2FO) channels. Same-padding
everywhere so output height/width always equal the input's.

Forward/backward are exact (no autograd). Convolutions run as one GEMM per
cache-sized block of output rows: the k^2 kernel taps of the zero-padded,
row-flattened input are contiguous shifted slices, stacked into a reused
buffer, so no full im2col patch matrix is ever built. Maxpool routes gradients
through its argmax, nearest upsample block-sums them.
``forward`` keeps nothing: ReLU and the residual add run in place, each
activation is dropped once the next layer has read it, and max-pooling takes
the max of four strided views without building any routing. ``backward``
caches only post-ReLU activations and takes every ReLU gate from them.
Weights live as float64 in memory and as float32 in the FPAW file. The
forward pass computes in the input's precision: float32 for float32 input
(``infer_orientation`` casts to it, as FPAI samples are float32 anyway),
float64 otherwise. ``backward``, and so training, always runs in float64.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .container import write_atomic
from .errors import (
    BadMagicError,
    HeaderError,
    NonFiniteSampleError,
    ShapeAuditError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from .maps import OrientationEncoding, OrientationMap, decode_orientation

WEIGHTS_MAGIC = b"FPAW"
WEIGHTS_VERSION = 1
_WHEADER = struct.Struct("<4sII")


@dataclass(frozen=True)
class NetworkConfig:
    """Shape of the multi-path network: paths in [2, 5], filters per path."""

    paths: int = 2
    filters: int = 16
    blocks_per_path: int = 2
    kernel_size: int = 3

    def __post_init__(self):
        if not 2 <= self.paths <= 5:
            raise ValueError("paths must lie in [2, 5]")
        if self.filters < 1:
            raise ValueError("filters must be positive")
        if self.blocks_per_path < 1:
            raise ValueError("blocks_per_path must be positive")
        if self.kernel_size < 1 or self.kernel_size % 2 != 1:
            raise ValueError("kernel_size must be positive and odd")

    @property
    def size_divisor(self) -> int:
        return 2 ** (self.paths - 1)

    def check_input_shape(self, shape) -> None:
        rows, cols = shape
        if min(rows, cols) < 8:
            raise ValueError(f"input {rows}x{cols} below the 8x8 estimator floor")
        d = self.size_divisor
        if rows % d or cols % d:
            raise ValueError(
                f"input {rows}x{cols} not divisible by 2^(paths-1) = {d}"
            )

    def to_json(self) -> dict:
        return {
            "paths": self.paths,
            "filters": self.filters,
            "blocks_per_path": self.blocks_per_path,
            "kernel_size": self.kernel_size,
        }

    @classmethod
    def from_json(cls, data: dict) -> "NetworkConfig":
        return cls(
            paths=data["paths"],
            filters=data["filters"],
            blocks_per_path=data["blocks_per_path"],
            kernel_size=data["kernel_size"],
        )


def tensor_specs(cfg: NetworkConfig) -> list[tuple[str, tuple]]:
    """Named tensors in their canonical (file) order."""
    k = cfg.kernel_size
    f = cfg.filters
    specs: list[tuple[str, tuple]] = []
    for p in range(1, cfg.paths + 1):
        specs.append((f"path{p}.in.w", (f, 1, k, k)))
        specs.append((f"path{p}.in.b", (f,)))
        for b in range(1, cfg.blocks_per_path + 1):
            specs.append((f"path{p}.block{b}.conv1.w", (f, f, k, k)))
            specs.append((f"path{p}.block{b}.conv1.b", (f,)))
            specs.append((f"path{p}.block{b}.conv2.w", (f, f, k, k)))
            specs.append((f"path{p}.block{b}.conv2.b", (f,)))
    specs.append(("final.w", (2, cfg.paths * f, k, k)))
    specs.append(("final.b", (2,)))
    return specs


@dataclass
class ModelWeights:
    """Ordered named tensors plus the configuration that shaped them."""

    config: NetworkConfig
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def audit(self) -> None:
        expected = tensor_specs(self.config)
        names = list(self.tensors)
        if names != [n for n, _ in expected]:
            raise ShapeAuditError("tensor names disagree with the configuration")
        for name, shape in expected:
            t = self.tensors[name]
            if t.shape != shape:
                raise ShapeAuditError(
                    f"{name}: stored shape {t.shape}, expected {shape}"
                )
            if not np.all(np.isfinite(t)):
                raise NonFiniteSampleError(f"{name}: non-finite weights")

    def copy(self) -> "ModelWeights":
        return ModelWeights(
            config=self.config,
            tensors={k: v.copy() for k, v in self.tensors.items()},
        )


def build_network(cfg: NetworkConfig, init_seed: int) -> ModelWeights:
    """Seeded Glorot-uniform kernels (+/- sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.Generator(np.random.PCG64(init_seed))
    k2 = cfg.kernel_size**2
    tensors: dict[str, np.ndarray] = {}
    for name, shape in tensor_specs(cfg):
        if name.endswith(".b"):
            tensors[name] = np.zeros(shape)
        else:
            out_ch, in_ch = shape[0], shape[1]
            limit = np.sqrt(6.0 / (in_ch * k2 + out_ch * k2))
            tensors[name] = rng.uniform(-limit, limit, size=shape)
    return ModelWeights(config=cfg, tensors=tensors)


# --------------------------------------------------------------------------
# Layer primitives (forward + exact backward)


# Bytes in one block of shifted rows (~1 MB, in the input's dtype, so float32
# blocks hold twice the rows): large enough for BLAS to run at speed, small
# enough to stay in cache while it is filled.
_BLOCK_BYTES = 1 << 20
# Bytes in the zero-padded window of input rows the blocks are cut from
# (~4 MB, in the input's dtype): a 512 px image is padded a window at a time,
# never whole.
_WINDOW_BYTES = 1 << 22


def _shifted_row_blocks(x: np.ndarray, k: int):
    """Yield (r0, rows, block) covering the output rows of a same-padded conv.

    x is zero-padded a window of output rows at a time, each channel flattened
    with row stride Wp = W + 2p (plus one spare row), so the input under kernel
    tap (i, j) for output rows r0..r0+rows-1 is the contiguous slice
    xf[:, off:off + rows*Wp] with off = (r0 - s0 + i)*Wp + j, s0 being the
    window's first output row. ``block`` stacks those k^2 slices tap-major,
    channel-minor into a (k^2*Cin, rows*Wp) matrix; the last 2p columns of each
    row are junk. The buffers are reused, so consume a block before the next.
    Both are in x's dtype.
    """
    c, h, w = x.shape
    p = k // 2
    wp = w + 2 * p
    depth = k * k * c
    item = x.dtype.itemsize
    rows = max(1, min(h, _BLOCK_BYTES // (item * depth * wp)))
    # output rows per window: whole blocks, at most the image
    span = min(h, rows * max(1, _WINDOW_BYTES // (item * c * rows * wp)))
    window = np.zeros((c, span + 2 * p + 1, wp), dtype=x.dtype)
    xf = window.reshape(c, -1)
    buf = np.empty(depth * rows * wp, dtype=x.dtype)
    for s0 in range(0, h, span):
        s1 = min(h, s0 + span)
        # padded row q of the window holds image row s0 + q - p
        lo, hi = max(0, s0 - p), min(h, s1 + p + 1)
        window[:, lo + p - s0 : hi + p - s0, p : p + w] = x[:, lo:hi]
        # rows below the image must be zero, but the window was reused; the
        # rows above it, and the side columns, were never written
        window[:, hi + p - s0 :] = 0.0
        for r0 in range(s0, s1, rows):
            n = min(rows, s1 - r0) * wp
            block = buf[: depth * n].reshape(depth, n)
            for i in range(k):
                for j in range(k):
                    off = (r0 - s0 + i) * wp + j
                    tap = (i * k + j) * c
                    block[tap : tap + c] = xf[:, off : off + n]
            yield r0, n // wp, block


def conv2d_same(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Cross-correlation with same-padding: (Cin,H,W) -> (Cout,H,W), in x's dtype."""
    cout, _, k, _ = w.shape
    h, ww = x.shape[1], x.shape[2]
    wp = ww + 2 * (k // 2)
    w_mat = w.transpose(0, 2, 3, 1).reshape(cout, -1).astype(x.dtype, copy=False)
    out = np.empty((cout, h, ww), dtype=x.dtype)
    for r0, rows, block in _shifted_row_blocks(x, k):
        out[:, r0 : r0 + rows] = (w_mat @ block).reshape(cout, rows, wp)[:, :, :ww]
    if b is not None:
        out += b.astype(x.dtype, copy=False)[:, np.newaxis, np.newaxis]
    return out


def conv2d_backward(d_out: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Gradients of conv2d_same w.r.t. input, kernel and bias."""
    cout, cin, k, _ = w.shape
    h, ww = x.shape[1], x.shape[2]
    wp = ww + 2 * (k // 2)
    # zeros in the junk columns keep them out of the kernel gradient
    d_pad = np.zeros((cout, h, wp))
    d_pad[:, :, :ww] = d_out
    d_flat = d_pad.reshape(cout, -1)
    dw_mat = np.zeros((cout, k * k * cin))
    for r0, rows, block in _shifted_row_blocks(x, k):
        dw_mat += d_flat[:, r0 * wp : (r0 + rows) * wp] @ block.T
    dw = np.ascontiguousarray(dw_mat.reshape(cout, k, k, cin).transpose(0, 3, 1, 2))
    db = d_out.sum(axis=(1, 2))
    w_flip = w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    dx = conv2d_same(d_out, w_flip)
    return dx, dw, db


def maxpool2(x: np.ndarray):
    """2x2 stride-2 max; returns (pooled, argmax routing for backward)."""
    c, h, w = x.shape
    tiles = (
        x.reshape(c, h // 2, 2, w // 2, 2)
        .transpose(0, 1, 3, 2, 4)
        .reshape(c, h // 2, w // 2, 4)
    )
    idx = tiles.argmax(axis=3)
    out = np.take_along_axis(tiles, idx[..., None], axis=3)[..., 0]
    return out, idx


def _maxpool2_values(x: np.ndarray) -> np.ndarray:
    """The pooled output of ``maxpool2`` alone: the max of four strided views.

    np.maximum returns its second argument when the two compare equal (seen
    only as +0.0 against -0.0), so each earlier tile element goes second and
    wins ties, as argmax does; the result is byte-identical to ``maxpool2``'s.
    """
    out = np.maximum(x[:, 0::2, 1::2], x[:, 0::2, 0::2])
    np.maximum(x[:, 1::2, 0::2], out, out=out)
    np.maximum(x[:, 1::2, 1::2], out, out=out)
    return out


def maxpool2_backward(d_out: np.ndarray, idx: np.ndarray, in_shape) -> np.ndarray:
    c, h, w = in_shape
    tiles = np.zeros((c, h // 2, w // 2, 4))
    np.put_along_axis(tiles, idx[..., None], d_out[..., None], axis=3)
    return (
        tiles.reshape(c, h // 2, w // 2, 2, 2)
        .transpose(0, 1, 3, 2, 4)
        .reshape(c, h, w)
    )


def upsample_nearest_backward(d_out: np.ndarray, factor: int) -> np.ndarray:
    c, h, w = d_out.shape
    return d_out.reshape(c, h // factor, factor, w // factor, factor).sum(axis=(2, 4))


# --------------------------------------------------------------------------
# Full network


def _forward(weights: ModelWeights, img: np.ndarray, record: bool = False):
    """The network pass behind ``forward`` and ``backward``: (output, caches).

    ReLU and the residual add run in place, so every kept activation is
    post-ReLU and ``backward`` reads each gate from it (relu(s) > 0 iff s > 0).
    Unless ``record`` is set, caches is None, each activation is dropped as
    soon as the next layer has consumed it, and the pass computes in float32
    when img is float32. With ``record`` it computes in float64, and caches
    holds the input "x0", the final conv's input "concat" and, per path, the
    input conv's output "in", the pooling routes "pools" and per residual block
    "x_in", "r1" (the inner ReLU) and "out" (the next block's "x_in").
    """
    cfg = weights.config
    cfg.check_input_shape(img.shape)
    t = weights.tensors
    f = cfg.filters
    img = np.asarray(img)
    dtype = np.float32 if img.dtype == np.float32 and not record else np.float64
    x0 = img.astype(dtype, copy=False)[np.newaxis]  # (1, H, W)
    caches = {"x0": x0, "paths": []} if record else None

    # allocated after the first path, so it is not live during that path's
    # full-resolution convolutions
    concat = None
    for p in range(1, cfg.paths + 1):
        h = conv2d_same(x0, t[f"path{p}.in.w"], t[f"path{p}.in.b"])
        np.maximum(h, 0.0, out=h)
        if record:
            cache = {"in": h, "pools": [], "blocks": []}
            caches["paths"].append(cache)

        for _ in range(p - 1):
            if record:
                shape = h.shape
                h, idx = maxpool2(h)
                cache["pools"].append((idx, shape))
            else:
                h = _maxpool2_values(h)

        for b in range(1, cfg.blocks_per_path + 1):
            x_in = h
            r1 = conv2d_same(x_in, t[f"path{p}.block{b}.conv1.w"],
                             t[f"path{p}.block{b}.conv1.b"])
            np.maximum(r1, 0.0, out=r1)
            h = conv2d_same(r1, t[f"path{p}.block{b}.conv2.w"],
                            t[f"path{p}.block{b}.conv2.b"])
            h += x_in
            np.maximum(h, 0.0, out=h)
            if record:
                cache["blocks"].append({"x_in": x_in, "r1": r1, "out": h})
            del x_in, r1

        if concat is None:
            concat = np.empty((cfg.paths * f,) + x0.shape[1:], dtype=dtype)
        # nearest-neighbour upsampling, broadcast straight into the path's slice
        up = concat[(p - 1) * f : p * f].reshape(f, h.shape[1], 2 ** (p - 1), h.shape[2], -1)
        up[...] = h[:, :, np.newaxis, :, np.newaxis]
        del h

    out = conv2d_same(concat, t["final.w"], t["final.b"])
    if record:
        caches["concat"] = concat
    return out, caches


def forward(weights: ModelWeights, img: np.ndarray) -> OrientationEncoding:
    """Deterministic forward pass, in float32 for float32 input and in float64
    for any other; output channels match the input size."""
    out, _ = _forward(weights, img)
    return OrientationEncoding(sin2=out[0], cos2=out[1])


def backward(weights: ModelWeights, img: np.ndarray,
             target: OrientationEncoding):
    """Exact gradients of the MSE loss w.r.t. every tensor.

    Returns (grads, loss, prediction); grads share the tensor names/order of
    the weights.
    """
    cfg = weights.config
    t = weights.tensors
    out, caches = _forward(weights, img, record=True)
    target_arr = target.to_array()
    if target_arr.shape != out.shape:
        raise ValueError(f"target shape {target_arr.shape} != output {out.shape}")

    diff = out - target_arr
    n = diff.size
    loss = float(np.mean(diff**2))
    d_out = 2.0 * diff / n

    grads = {}
    d_concat, grads["final.w"], grads["final.b"] = conv2d_backward(
        d_out, caches["concat"], t["final.w"]
    )

    f = cfg.filters
    for p in range(1, cfg.paths + 1):
        cache = caches["paths"][p - 1]
        d_path = d_concat[(p - 1) * f : p * f]

        factor = 2 ** (p - 1)
        if factor > 1:
            d_path = upsample_nearest_backward(d_path, factor)

        for b in range(cfg.blocks_per_path, 0, -1):
            blk = cache["blocks"][b - 1]
            ds = d_path * (blk["out"] > 0.0)
            dr1, dw2, db2 = conv2d_backward(
                ds, blk["r1"], t[f"path{p}.block{b}.conv2.w"]
            )
            grads[f"path{p}.block{b}.conv2.w"] = dw2
            grads[f"path{p}.block{b}.conv2.b"] = db2
            dh1 = dr1 * (blk["r1"] > 0.0)
            dx_in, dw1, db1 = conv2d_backward(
                dh1, blk["x_in"], t[f"path{p}.block{b}.conv1.w"]
            )
            grads[f"path{p}.block{b}.conv1.w"] = dw1
            grads[f"path{p}.block{b}.conv1.b"] = db1
            d_path = ds + dx_in

        for idx, shape in reversed(cache["pools"]):
            d_path = maxpool2_backward(d_path, idx, shape)

        d_pre = d_path * (cache["in"] > 0.0)
        _, dwi, dbi = conv2d_backward(d_pre, caches["x0"], t[f"path{p}.in.w"])
        grads[f"path{p}.in.w"] = dwi
        grads[f"path{p}.in.b"] = dbi

    grads = {name: grads[name] for name in t}  # the weights' order
    return grads, loss, OrientationEncoding(sin2=out[0], cos2=out[1])


def infer_orientation(weights: ModelWeights, img: np.ndarray) -> OrientationMap:
    """Forward in float32, then decode (sin, cos) in float64 to [0, pi); weak
    outputs are invalid."""
    enc = forward(weights, np.asarray(img, dtype=np.float32))
    return decode_orientation(OrientationEncoding.from_array(enc.to_array()))


# --------------------------------------------------------------------------
# FPAW weights file


def save_weights(weights: ModelWeights, path) -> None:
    """FPAW: magic, version, JSON config + tensor table, float32 LE tensors."""
    weights.audit()
    table = [
        {"name": name, "shape": list(shape)}
        for name, shape in tensor_specs(weights.config)
    ]
    header_json = json.dumps(
        {"config": weights.config.to_json(), "tensors": table},
        sort_keys=True,
    ).encode("utf-8")
    tensors = [weights.tensors[entry["name"]].astype("<f4").tobytes() for entry in table]
    write_atomic(path, _WHEADER.pack(WEIGHTS_MAGIC, WEIGHTS_VERSION, len(header_json)),
                 header_json, *tensors)


def _parse_header(blob: bytes, path) -> tuple[NetworkConfig, list[tuple]]:
    """Decode the FPAW JSON header into its config and (name, shape) table."""
    try:
        meta = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, deep nesting
        raise HeaderError(f"{path}: unreadable JSON header ({exc})") from exc
    if not isinstance(meta, dict):
        raise HeaderError(f"{path}: JSON header is not an object")
    cfg_json, table = meta.get("config"), meta.get("tensors")
    if not isinstance(cfg_json, dict) or not isinstance(table, list):
        raise HeaderError(f"{path}: header needs a 'config' object and a 'tensors' list")
    fields = ("paths", "filters", "blocks_per_path", "kernel_size")
    if any(type(cfg_json.get(name)) is not int for name in fields):
        raise HeaderError(f"{path}: config needs integer {', '.join(fields)}")
    try:
        cfg = NetworkConfig.from_json(cfg_json)
    except ValueError as exc:
        raise HeaderError(f"{path}: invalid config ({exc})") from exc
    try:
        stored = [(entry["name"], tuple(entry["shape"])) for entry in table]
    except (KeyError, TypeError) as exc:
        raise HeaderError(f"{path}: malformed tensor table") from exc
    return cfg, stored


def load_weights(path) -> ModelWeights:
    """Read FPAW and re-audit tensor shapes against the embedded config."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _WHEADER.size:
        raise TruncatedPayloadError(f"{path}: file shorter than the FPAW header")
    magic, version, json_len = _WHEADER.unpack_from(raw)
    if magic != WEIGHTS_MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}, expected {WEIGHTS_MAGIC!r}")
    if version != WEIGHTS_VERSION:
        raise VersionMismatchError(f"{path}: version {version}, expected {WEIGHTS_VERSION}")
    if len(raw) < _WHEADER.size + json_len:
        raise TruncatedPayloadError(f"{path}: truncated JSON header")
    cfg, stored = _parse_header(raw[_WHEADER.size : _WHEADER.size + json_len], path)

    expected = tensor_specs(cfg)
    if stored != expected:
        raise ShapeAuditError(f"{path}: tensor table disagrees with the config")

    offset = _WHEADER.size + json_len
    tensors: dict[str, np.ndarray] = {}
    for name, shape in expected:
        count = math.prod(shape)
        end = offset + 4 * count
        if end > len(raw):
            raise TruncatedPayloadError(f"{path}: tensor {name} truncated")
        arr = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
        tensors[name] = arr.reshape(shape).astype(np.float64)
        offset = end
    if offset != len(raw):
        raise TruncatedPayloadError(f"{path}: {len(raw) - offset} trailing bytes")
    model = ModelWeights(config=cfg, tensors=tensors)
    model.audit()
    return model
