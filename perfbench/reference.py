"""A fixed yardstick for machine speed: frozen copies of fringeproc's hot kernels.

On a shared 2-vCPU VM, fringeproc's wall time drifted by 30-45 % over
minutes (other tenants), for every statistic of it, the fastest frame
included. Timing a fixed computation with the same profile before and after
each operation and dividing by it cancels most of that drift: over 100 s of
`classic-256`, the spread of 6-frame medians fell from 0.45 to 0.06.

The kernels below are copies of `fringeproc.unwrap.unwrap_phase_2d` (with
`reliability_map`) and `fringeproc.network.conv2d_same` / `conv2d_backward`
as they were when the benchmark was added. They must never track later
changes to `src/`: a faster library has to show as a lower ratio. Their inputs
are fixed and independent of the workload seed.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

TAU = 2.0 * np.pi


def _wrap(d):
    return d - TAU * np.floor(d / TAU + 0.5)


def _reliability_map(wrapped):
    rows, cols = wrapped.shape
    d2 = np.zeros((rows, cols))
    inner = np.s_[1:-1, 1:-1]
    total = np.zeros((rows - 2, cols - 2))
    for dr, dc in ((0, 1), (1, 0), (1, 1), (1, -1)):
        before = wrapped[1 - dr : rows - 1 - dr, 1 - dc : cols - 1 - dc]
        after = wrapped[1 + dr : rows - 1 + dr, 1 + dc : cols - 1 + dc]
        center = wrapped[inner]
        total += (_wrap(before - center) - _wrap(center - after)) ** 2
    d2[inner] = 1.0 / (total + 1e-30)
    return d2


def unwrap_phase_2d(wrapped):
    """Reliability-sorted region merging, as in fringeproc at the baseline."""
    rows, cols = wrapped.shape
    n = rows * cols
    rel = _reliability_map(wrapped).ravel()
    flat = wrapped.ravel()
    idx = np.arange(n).reshape(rows, cols)
    edge_a = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    edge_b = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    order = np.argsort(-(rel[edge_a] + rel[edge_b]), kind="stable")
    comp = np.arange(n)
    members = [[i] for i in range(n)]
    k = np.zeros(n)
    for e in order:
        a = int(edge_a[e])
        b = int(edge_b[e])
        ra, rb = comp[a], comp[b]
        if ra == rb:
            continue
        shift = np.round(((flat[a] + TAU * k[a]) - (flat[b] + TAU * k[b])) / TAU)
        if len(members[ra]) < len(members[rb]):
            ra, rb = rb, ra
            shift = -shift
        moved = members[rb]
        if shift != 0.0:
            k[moved] += shift
        comp[moved] = ra
        members[ra].extend(moved)
        members[rb] = None
    out = flat + TAU * k
    return (out - TAU * k[int(np.argmax(rel))]).reshape(rows, cols)


def _im2col(x, k):
    pad = k // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (k, k), axis=(1, 2))
    return win.transpose(1, 2, 0, 3, 4).reshape(x.shape[1] * x.shape[2], -1)


def conv2d_same(x, w):
    cout = w.shape[0]
    out = _im2col(x, w.shape[2]) @ w.reshape(cout, -1).T
    return out.T.reshape(cout, x.shape[1], x.shape[2])


def conv2d_backward(d_out, x, w):
    cout = w.shape[0]
    dw = (d_out.reshape(cout, -1) @ _im2col(x, w.shape[2])).reshape(w.shape)
    dx = conv2d_same(d_out, w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
    return dx, dw


class Reference:
    """A fixed computation whose mix of kernels resembles one workload's.

    ``nominal_s``: the computation's median wall time on the 2-vCPU Xeon VM
    the benchmark was sized on. Fixed like the kernels, it converts set-up
    time to seconds at that VM's nominal speed.
    ``unwrap_px``: side of the map unwrapped (0 for none).
    ``conv``: (side, forward+backward repeats, forward-only repeats) of a
    16 -> 16 channel 3x3 convolution.
    """

    def __init__(self, nominal_s: float, unwrap_px: int = 0, conv=(0, 0, 0)):
        self.nominal_s = nominal_s
        rng = np.random.Generator(np.random.PCG64(20231015))
        self.wrapped = None
        if unwrap_px:
            y, x = np.mgrid[0:unwrap_px, 0:unwrap_px] / unwrap_px
            phase = 40.0 * np.exp(-((x - 0.4) ** 2 + (y - 0.6) ** 2) / 0.08) + 60.0 * x
            phase += 0.3 * rng.standard_normal(phase.shape)
            self.wrapped = _wrap(phase)
        side, self.fwd_bwd, self.fwd = conv
        self.x = rng.standard_normal((16, side, side)) if side else None
        self.w = rng.standard_normal((16, 16, 3, 3)) * 0.1

    def __call__(self) -> None:
        if self.wrapped is not None:
            unwrap_phase_2d(self.wrapped)
        for _ in range(self.fwd_bwd):
            y = conv2d_same(self.x, self.w)
            conv2d_backward(y, self.x, self.w)
        for _ in range(self.fwd):
            conv2d_same(self.x, self.w)
