"""Multi-path residual CNN for orientation-encoding regression, from scratch.

Architecture: each path p applies an input conv (1 -> filters, ReLU), p-1
maxpoolings (2x2, stride 2, all before the residual stack), a fixed number of
residual blocks (x + conv(relu(conv(x))), ReLU after the sum), and a nearest
upsample back to the input size; path outputs are concatenated and a final
linear 3x3 conv produces the (sin 2FO, cos 2FO) channels. Same-padding
everywhere so output height/width always equal the input's.

Forward/backward are exact (no autograd). Every activation and gradient
passed between layers lives in one zero-bordered buffer,
(C, H + 2r + 1, W + 2r) with r = kernel_size // 2 and the image at
[r:r+H, r:r+W]; ReLU, the residual add, max-pooling and upsampling all keep
the border at zero, so it is every convolution's same padding. A convolution
runs as one GEMM per cache-sized block of output rows: the k^2 kernel taps of
the row-flattened bordered input are contiguous shifted slices, stacked into a
reused buffer, so no full im2col patch matrix is ever built. Each GEMM writes
straight into the bordered output; its junk columns land on the border, which
is zeroed after the last block. Max-pooling takes the max of four strided
views; its backward routes each gradient to the first tile element equal to
the pooled value (argmax's pick). Nearest upsample block-sums gradients.
``forward`` runs the network over row bands of the input, sized by bytes, so
its working set stays flat as frames grow. Each band carries a halo of extra
rows above and below, as many as the zero padding at a band edge corrupts
(``_halo``), and only its interior rows reach the output; a frame that fits
one band runs whole. Within a pass, ReLU and the residual add run in place and
each activation is dropped once the next layer has read it. ``backward`` runs
one pass over the whole image, caches only post-ReLU activations (pooled ones
included), takes every ReLU gate and pooling route from them and applies each
gate in place.
Weights live as float64 in memory and as float32 in the FPAW file. The
forward pass computes in the input's precision: float32 for float32 input
(``infer_orientation`` casts to it, as FPAI samples are float32 anyway),
float64 otherwise. ``backward``, and so training, always runs in float64.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .container import (decode_samples, encode_samples, parse_json_object, read_tagged,
                        write_atomic)
from .errors import HeaderError, NumericalError, ShapeAuditError, TruncatedPayloadError
from .image import MIN_ESTIMATOR_SIZE
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
        n = MIN_ESTIMATOR_SIZE
        if min(rows, cols) < n:
            raise ValueError(f"input {rows}x{cols} below the {n}x{n} estimator floor")
        d = self.size_divisor
        if rows % d or cols % d:
            raise ValueError(
                f"input {rows}x{cols} not divisible by 2^(paths-1) = {d}"
            )

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "NetworkConfig":
        return cls(**{f.name: data[f.name] for f in fields(cls)})


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
# Layer primitives (forward + exact backward), on bordered buffers: the image
# at [r:r+H, r:r+W] of a (C, H + 2r + 1, W + 2r) array, zeros around it, and a
# spare bottom row for the last row block's junk columns to read


# Bytes in one block of shifted rows (~1 MB, in the input's dtype, so float32
# blocks hold twice the rows): large enough for BLAS to run at speed, small
# enough to stay in cache while it is filled.
_BLOCK_BYTES = 1 << 20
# Bytes in one band's filters-wide activation (~8 MB, in the input's dtype):
# ``forward`` runs over bands of that many interior rows, 256 at 512 px wide in
# float32, so a larger frame runs more bands rather than larger ones.
_BAND_BYTES = 1 << 23


def _bordered(c: int, h: int, w: int, r: int, dtype=np.float64) -> np.ndarray:
    """A bordered buffer for a (c, h, w) image: its interior unset, its border 0."""
    a = np.empty((c, h + 2 * r + 1, w + 2 * r), dtype=dtype)
    _zero_border(a, r)
    return a


def _zero_border(a: np.ndarray, r: int) -> None:
    """Zero the border of a bordered buffer, leaving its image as it is."""
    h = a.shape[1] - 2 * r - 1
    a[:, :r] = 0.0
    a[:, r + h :] = 0.0
    a[:, r : r + h, :r] = 0.0
    a[:, r : r + h, a.shape[2] - r :] = 0.0


def _interior(a: np.ndarray, r: int) -> np.ndarray:
    """The (C, H, W) image inside a bordered buffer, as a view."""
    return a[:, r : a.shape[1] - r - 1, r : a.shape[2] - r]


def _shifted_row_blocks(x: np.ndarray, k: int):
    """Yield (r0, rows, block) covering the output rows of a same-padded conv.

    x is a bordered buffer, each channel flattened with row stride
    Wp = W + 2r, so the input under kernel tap (i, j) for output rows
    r0..r0+rows-1 is the contiguous slice xf[:, off:off + rows*Wp] with
    off = (r0 + i)*Wp + j. ``block`` stacks those k^2 slices tap-major,
    channel-minor into a (k^2*Cin, rows*Wp) matrix in x's dtype; the last 2r
    columns of each row are junk. The buffer is reused, so consume a block
    before the next.
    """
    c, rows_b, wp = x.shape
    h = rows_b - 2 * (k // 2) - 1
    depth = k * k * c
    rows = max(1, min(h, _BLOCK_BYTES // (x.dtype.itemsize * depth * wp)))
    xf = x.reshape(c, -1)
    buf = np.empty(depth * rows * wp, dtype=x.dtype)
    for r0 in range(0, h, rows):
        n = min(rows, h - r0) * wp
        block = buf[: depth * n].reshape(depth, n)
        for i in range(k):
            for j in range(k):
                off = (r0 + i) * wp + j
                tap = (i * k + j) * c
                block[tap : tap + c] = xf[:, off : off + n]
        yield r0, n // wp, block


def _block_columns(r0: int, rows: int, wp: int, r: int) -> slice:
    """Where a block's columns lie in a flattened bordered output channel.

    Column (y - r0)*Wp + c of the block is output pixel (y, c), which sits at
    (y + r)*Wp + r + c; so the junk columns c >= W land on the border: the
    right one of row y and the left one of row y + 1.
    """
    start = (r0 + r) * wp + r
    return slice(start, start + rows * wp)


def conv2d_same(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Cross-correlation with same-padding, in x's dtype: a bordered
    (Cin,H,W) input gives a bordered (Cout,H,W) output, both with r = k // 2."""
    cout, _, k, _ = w.shape
    r = k // 2
    w_mat = w.transpose(0, 2, 3, 1).reshape(cout, -1).astype(x.dtype, copy=False)
    out = np.empty((cout,) + x.shape[1:], dtype=x.dtype)
    out_flat = out.reshape(cout, -1)
    for r0, rows, block in _shifted_row_blocks(x, k):
        np.matmul(w_mat, block, out=out_flat[:, _block_columns(r0, rows, x.shape[2], r)])
    _zero_border(out, r)  # the junk columns, and the rows no block wrote
    if b is not None:
        inner = _interior(out, r)
        np.add(inner, b.astype(x.dtype, copy=False)[:, np.newaxis, np.newaxis], out=inner)
    return out


def _kernel_grads(d_out: np.ndarray, x: np.ndarray, k: int):
    """Gradients of conv2d_same w.r.t. its k x k kernel and bias: (dw, db).

    d_out is bordered: its zero border is what the junk columns of x's blocks
    meet, which keeps them out of the kernel gradient.
    """
    cout, cin = d_out.shape[0], x.shape[0]
    r = k // 2
    d_flat = d_out.reshape(cout, -1)
    dw_mat = np.zeros((cout, k * k * cin))
    for r0, rows, block in _shifted_row_blocks(x, k):
        dw_mat += d_flat[:, _block_columns(r0, rows, x.shape[2], r)] @ block.T
    dw = np.ascontiguousarray(dw_mat.reshape(cout, k, k, cin).transpose(0, 3, 1, 2))
    # numpy sums a strided view in buffer-sized pieces but a contiguous image
    # pairwise end to end; the copy keeps the latter's bytes at every size
    return dw, np.ascontiguousarray(_interior(d_out, r)).sum(axis=(1, 2))


def conv2d_backward(d_out: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Gradients of conv2d_same w.r.t. input, kernel and bias, for a bordered
    d_out and x; the input gradient is bordered too."""
    dw, db = _kernel_grads(d_out, x, w.shape[2])
    w_flip = w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    dx = conv2d_same(d_out, w_flip)
    return dx, dw, db


def _maxpool(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """2x2 stride-2 max of a (C,H,W) image, in x's dtype: the max of four
    strided views, written into ``out`` when given (a bordered interior).

    np.maximum returns its second argument when the two compare equal (seen
    only as +0.0 against -0.0), so each earlier tile element goes second and
    wins ties, as argmax over the row-major tile would.
    """
    out = np.maximum(x[:, 0::2, 1::2], x[:, 0::2, 0::2], out=out)
    np.maximum(x[:, 1::2, 0::2], out, out=out)
    np.maximum(x[:, 1::2, 1::2], out, out=out)
    return out


def _maxpool_backward(d_out: np.ndarray, x: np.ndarray, pooled: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Route each pooled gradient to the first tile element (row-major) of x
    equal to its pooled value, which is argmax's pick; the rest get 0. Writes
    into ``out`` when given, which must hold zeros of x's shape."""
    dx = np.zeros(x.shape) if out is None else out
    free = np.ones(pooled.shape, dtype=bool)  # tiles not yet routed
    for i in (0, 1):
        for j in (0, 1):
            hit = free & (x[:, i::2, j::2] == pooled)
            np.copyto(dx[:, i::2, j::2], d_out, where=hit)
            free &= ~hit
    return dx


def upsample_nearest_backward(d_out: np.ndarray, factor: int,
                              out: np.ndarray | None = None) -> np.ndarray:
    c, h, w = d_out.shape
    return d_out.reshape(c, h // factor, factor, w // factor, factor).sum(axis=(2, 4),
                                                                          out=out)


# --------------------------------------------------------------------------
# Full network


def _halo(cfg: NetworkConfig) -> int:
    """Rows beyond a band's interior that its edge's zero padding corrupts.

    With r = kernel_size // 2 and d = size_divisor: the input conv corrupts r
    rows, which the deepest path pools into ceil(r / d) rows at scale d; its
    2 * blocks_per_path convs add r rows each there, the upsample scales them
    by d and the final conv adds r. Shallower paths corrupt fewer rows. Rounded
    up to d, so a band pools on the whole image's tiles.
    """
    r = cfg.kernel_size // 2
    d = cfg.size_divisor
    rows = (-(-r // d) + 2 * cfg.blocks_per_path * r) * d + r
    return -(-rows // d) * d


def _forward(weights: ModelWeights, img: np.ndarray, record: bool = False):
    """The network pass behind ``forward`` and ``backward``: (output, caches).

    Every activation is a bordered buffer (r = kernel_size // 2), and the
    output is the (2, H, W) image view of the final conv's. ReLU and the
    residual add run in place, on the border's zeros too, so every kept
    activation is post-ReLU and ``backward`` reads each gate from it
    (relu(s) > 0 iff s > 0).
    img is a float32 or float64 array and the pass computes in its dtype; the
    callers cast it and check its shape.
    Unless ``record`` is set, caches is None and each activation is dropped as
    soon as the next layer has consumed it. With ``record``, caches holds the
    bordered input "x0", the final conv's input "concat" and, per path, the
    input conv's output "in", each pooling's (input, output) pair of image
    views "pools" and per residual block "x_in", "r1" (the inner ReLU) and
    "out" (the next block's "x_in").
    """
    cfg = weights.config
    t = weights.tensors
    f = cfg.filters
    r = cfg.kernel_size // 2
    x0 = _bordered(1, *img.shape, r, img.dtype)
    _interior(x0, r)[0] = img
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
            x = _interior(h, r)
            h = _bordered(f, x.shape[1] // 2, x.shape[2] // 2, r, img.dtype)
            pooled = _maxpool(x, out=_interior(h, r))
            if record:
                cache["pools"].append((x, pooled))
            del x, pooled  # views, else the maps under them outlive their use

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
            concat = _bordered(cfg.paths * f, *img.shape, r, img.dtype)
        # nearest-neighbour upsampling: one strided copy into the path's slice
        # per position in the d x d tile
        d = 2 ** (p - 1)
        up = _interior(concat[(p - 1) * f : p * f], r)
        src = _interior(h, r)
        for i in range(d):
            for j in range(d):
                up[:, i::d, j::d] = src
        del h, src

    out = conv2d_same(concat, t["final.w"], t["final.b"])
    if record:
        caches["concat"] = concat
    return _interior(out, r), caches


def forward(weights: ModelWeights, img: np.ndarray) -> OrientationEncoding:
    """Deterministic forward pass, in float32 for float32 input and in float64
    for any other; output channels match the input size.

    Runs ``_forward`` over row bands of about ``_BAND_BYTES`` of activation,
    each widened by ``_halo`` rows on either side, and writes each band's
    interior rows into one output. Band starts and halos are multiples of
    size_divisor. A frame that fits one band runs in a single pass.
    """
    cfg = weights.config
    img = np.asarray(img)
    cfg.check_input_shape(img.shape)
    x = img.astype(np.float32 if img.dtype == np.float32 else np.float64, copy=False)
    rows, cols = x.shape
    d = cfg.size_divisor
    step = max(d, _BAND_BYTES // (cfg.filters * cols * x.itemsize) // d * d)
    halo = _halo(cfg)
    out = np.empty((2, rows, cols), dtype=x.dtype)
    for s0 in range(0, rows, step):
        s1 = min(rows, s0 + step)
        lo = max(0, s0 - halo)
        band, _ = _forward(weights, x[lo : min(rows, s1 + halo)])
        out[:, s0:s1] = band[:, s0 - lo : s1 - lo]
        del band  # else it stays alive through the next band's pass
    return OrientationEncoding(sin2=out[0], cos2=out[1])


def backward(weights: ModelWeights, img: np.ndarray,
             target: OrientationEncoding):
    """Exact gradients of the MSE loss w.r.t. every tensor.

    Returns (grads, loss, prediction); grads share the tensor names/order of
    the weights.
    """
    cfg = weights.config
    t = weights.tensors
    img = np.asarray(img, dtype=np.float64)
    cfg.check_input_shape(img.shape)
    out, caches = _forward(weights, img, record=True)
    target_arr = target.to_array()
    if target_arr.shape != out.shape:
        raise ValueError(f"target shape {target_arr.shape} != output {out.shape}")

    diff = out - target_arr
    n = diff.size
    loss = float(np.mean(diff**2))
    r = cfg.kernel_size // 2
    d_out = _bordered(2, *img.shape, r)
    np.divide(2.0 * diff, n, out=_interior(d_out, r))

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
            full = _interior(d_path, r)
            d_path = _bordered(f, full.shape[1] // factor, full.shape[2] // factor, r)
            upsample_nearest_backward(full, factor, out=_interior(d_path, r))

        # each ReLU gate multiplies in place: the ungated gradient is dead
        for b in range(cfg.blocks_per_path, 0, -1):
            blk = cache["blocks"][b - 1]
            d_path *= blk["out"] > 0.0
            dr1, dw2, db2 = conv2d_backward(
                d_path, blk["r1"], t[f"path{p}.block{b}.conv2.w"]
            )
            grads[f"path{p}.block{b}.conv2.w"] = dw2
            grads[f"path{p}.block{b}.conv2.b"] = db2
            dr1 *= blk["r1"] > 0.0
            dx_in, dw1, db1 = conv2d_backward(
                dr1, blk["x_in"], t[f"path{p}.block{b}.conv1.w"]
            )
            grads[f"path{p}.block{b}.conv1.w"] = dw1
            grads[f"path{p}.block{b}.conv1.b"] = db1
            dx_in += d_path
            d_path = dx_in

        for x, pooled in reversed(cache["pools"]):
            dx = np.zeros((f, x.shape[1] + 2 * r + 1, x.shape[2] + 2 * r))
            _maxpool_backward(_interior(d_path, r), x, pooled, out=_interior(dx, r))
            d_path = dx

        d_path *= cache["in"] > 0.0
        grads[f"path{p}.in.w"], grads[f"path{p}.in.b"] = _kernel_grads(
            d_path, caches["x0"], cfg.kernel_size
        )

    grads = {name: grads[name] for name in t}  # the weights' order
    return grads, loss, OrientationEncoding(sin2=out[0], cos2=out[1])


def infer_orientation(weights: ModelWeights, img: np.ndarray) -> OrientationMap:
    """Forward in float32, then decode (sin, cos) in float64 to [0, pi); weak
    outputs are invalid. Raises NumericalError when the float32 forward
    overflows (finite weights can still push an activation past float32)."""
    with np.errstate(over="ignore", invalid="ignore"):
        enc = forward(weights, np.asarray(img, dtype=np.float32))
    if not (np.isfinite(enc.sin2).all() and np.isfinite(enc.cos2).all()):
        raise NumericalError("network output is not finite (float32 overflow)")
    # rebound, so the float32 output is freed before the decode's temporaries
    enc = OrientationEncoding(sin2=enc.sin2.astype(np.float64),
                              cos2=enc.cos2.astype(np.float64))
    return decode_orientation(enc)


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
    tensors = [encode_samples(weights.tensors[entry["name"]], path) for entry in table]
    write_atomic(path, _WHEADER.pack(WEIGHTS_MAGIC, WEIGHTS_VERSION, len(header_json)),
                 header_json, *tensors)


def _parse_header(blob: bytes, path) -> tuple[NetworkConfig, list[tuple]]:
    """Decode the FPAW JSON header into its config and (name, shape) table."""
    meta = parse_json_object(blob, f"{path} header", HeaderError)
    cfg_json, table = meta.get("config"), meta.get("tensors")
    if not isinstance(cfg_json, dict) or not isinstance(table, list):
        raise HeaderError(f"{path}: header needs a 'config' object and a 'tensors' list")
    names = [f.name for f in fields(NetworkConfig)]
    if any(type(cfg_json.get(name)) is not int for name in names):
        raise HeaderError(f"{path}: config needs integer {', '.join(names)}")
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
    """Read FPAW and check its tensor table against the embedded config."""
    raw, (json_len,) = read_tagged(path, _WHEADER, WEIGHTS_MAGIC, WEIGHTS_VERSION)
    offset = _WHEADER.size + json_len
    if len(raw) < offset:
        raise TruncatedPayloadError(f"{path}: truncated JSON header")
    cfg, stored = _parse_header(raw[_WHEADER.size : offset], path)
    expected = tensor_specs(cfg)
    if stored != expected:
        raise ShapeAuditError(f"{path}: tensor table disagrees with the config")

    counts = [math.prod(shape) for _, shape in expected]
    parts = np.split(decode_samples(raw, offset, sum(counts), path), np.cumsum(counts)[:-1])
    return ModelWeights(config=cfg, tensors={
        name: part.reshape(shape) for (name, shape), part in zip(expected, parts)})
