"""The tests' reference implementations: the full-plane spiral filter, which
``hst.quadrature`` applies through its half-plane parts, the circular
distances between mod-pi and mod-2pi angle maps that the orientation and
direction tests score against, and a windowed convolution of unbordered
(C, H, W) arrays, which zero-pads a window of input rows at a time; the
network's convolution of bordered buffers must match it byte for byte.
"""

import numpy as np

from fringeproc import network
from fringeproc.image import MIN_ESTIMATOR_SIZE


def make_spiral_filter(rows: int, cols: int) -> np.ndarray:
    """S(u,v) = (u + i*v)/sqrt(u^2 + v^2) over signed integer frequency bins.

    Bin layout matches numpy's 2D DFT (DC at [0, 0], negative frequencies in the upper
    halves); S(0,0) = 0 removes the singular DC bin. ``quadrature`` applies
    this filter through its half-plane parts (``_half_plane_factors``).
    """
    n = MIN_ESTIMATOR_SIZE
    if rows < n or cols < n:
        raise ValueError(f"spiral filter needs at least an {n}x{n} grid")
    v = np.fft.fftfreq(rows) * rows  # y-frequency index per row
    u = np.fft.fftfreq(cols) * cols  # x-frequency index per column
    uu = u[np.newaxis, :]
    vv = v[:, np.newaxis]
    radius = np.hypot(uu, vv)
    radius[0, 0] = 1.0
    spiral = (uu + 1j * vv) / radius
    spiral[0, 0] = 0.0
    return spiral


def circular_orientation_error(a, b) -> np.ndarray:
    """Pointwise distance between mod-pi angles, in [0, pi/2]."""
    d = np.mod(np.asarray(a) - np.asarray(b), np.pi)
    return np.minimum(d, np.pi - d)


def circular_direction_error(a, b) -> np.ndarray:
    """Pointwise distance between mod-2pi angles, in [0, pi]."""
    d = np.mod(np.asarray(a) - np.asarray(b), 2.0 * np.pi)
    return np.minimum(d, 2.0 * np.pi - d)


# Bytes in the zero-padded window of input rows the windowed conv cuts its
# blocks from (~4 MB, in the input's dtype).
WINDOW_BYTES = 1 << 22


def window_rows(x: np.ndarray, k: int) -> tuple[int, int]:
    """(output rows per block, output rows per window) of the windowed conv."""
    c, h, w = x.shape
    wp = w + 2 * (k // 2)
    item = x.dtype.itemsize
    rows = max(1, min(h, network._BLOCK_BYTES // (item * k * k * c * wp)))
    # whole blocks, at most the image
    return rows, min(h, rows * max(1, WINDOW_BYTES // (item * c * rows * wp)))


def windowed_row_blocks(x: np.ndarray, k: int):
    """Yield (r0, rows, block) as the network's ``_shifted_row_blocks`` does,
    for an unbordered (C, H, W) x that is zero-padded a window of output rows
    at a time. Rows per block follow ``network._BLOCK_BYTES``."""
    c, h, w = x.shape
    p = k // 2
    wp = w + 2 * p
    depth = k * k * c
    rows, span = window_rows(x, k)
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


def windowed_conv2d_same(x: np.ndarray, w: np.ndarray, b=None) -> np.ndarray:
    """Same-padded cross-correlation (Cin,H,W) -> (Cout,H,W), in x's dtype."""
    cout, _, k, _ = w.shape
    h, ww = x.shape[1], x.shape[2]
    wp = ww + 2 * (k // 2)
    w_mat = w.transpose(0, 2, 3, 1).reshape(cout, -1).astype(x.dtype, copy=False)
    out = np.empty((cout, h, ww), dtype=x.dtype)
    for r0, rows, block in windowed_row_blocks(x, k):
        out[:, r0 : r0 + rows] = (w_mat @ block).reshape(cout, rows, wp)[:, :, :ww]
    if b is not None:
        out += b.astype(x.dtype, copy=False)[:, np.newaxis, np.newaxis]
    return out


def windowed_kernel_grads(d_out: np.ndarray, x: np.ndarray, k: int):
    """Gradients of the windowed conv w.r.t. its k x k kernel and bias."""
    cout, cin = d_out.shape[0], x.shape[0]
    h, ww = x.shape[1], x.shape[2]
    wp = ww + 2 * (k // 2)
    # zeros in the junk columns keep them out of the kernel gradient
    d_pad = np.zeros((cout, h, wp))
    d_pad[:, :, :ww] = d_out
    d_flat = d_pad.reshape(cout, -1)
    dw_mat = np.zeros((cout, k * k * cin))
    for r0, rows, block in windowed_row_blocks(x, k):
        dw_mat += d_flat[:, r0 * wp : (r0 + rows) * wp] @ block.T
    dw = np.ascontiguousarray(dw_mat.reshape(cout, k, k, cin).transpose(0, 3, 1, 2))
    return dw, d_out.sum(axis=(1, 2))


def windowed_conv2d_backward(d_out: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Gradients of the windowed conv w.r.t. input, kernel and bias."""
    dw, db = windowed_kernel_grads(d_out, x, w.shape[2])
    w_flip = w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    dx = windowed_conv2d_same(d_out, w_flip)
    return dx, dw, db
