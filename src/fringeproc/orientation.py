"""Classical fringe-orientation estimation from intensity.

Two estimators share the same doubled-angle window averaging: the gradient
method (finite-difference intensity gradients) and the combined plane-fit /
gradient method (windowed least-squares plane fits supply the gradients).
Raw per-pixel arctangents are unstable near fringe extrema where gradients
vanish; averaging the doubled-angle components respects the mod-pi topology.

Every window is a whole w x w block. It spans offsets [-lo, +hi] about its
pixel and shifts inward at the border (it starts at clip(i - lo, 0, n - w)
on each axis), so no window is clipped and border pixels get a full fit.
Window sums and plane-fit moments are taken directly over every whole
window, one axis at a time, as a sum of the w shifted slices of its offsets,
so they cost O(w) per sample (no summed-area table, whose differences of
large running sums cancel); w = 2, the paper's reference window, is the
window of every workload. The border pixels repeat the first and last
windows' values.

Both estimators expect prefiltered input (approximately zero mean, unit
amplitude); ``prefilter`` is the simplified bandpass/normalize stand-in used
throughout this repo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import MIN_ESTIMATOR_SIZE, as_real_image, gaussian_blur, gaussian_blur_matrix
from .maps import OrientationMap

AVERAGED_MAGNITUDE_EPS = 1e-9
NORMALIZE_EPS = 1e-6
SMOOTH_SIGMA = 0.5  # px, prefilter's final denoise


@dataclass(frozen=True)
class WindowSpec:
    """Square estimation window of side w pixels (w = 2 in the reference protocol)."""

    w: int = 2

    def __post_init__(self):
        if self.w < 2:
            raise ValueError("window side must be at least 2")

    def check_fits(self, shape) -> None:
        if self.w > min(shape) // 2:
            raise ValueError(f"window {self.w} too large for image {shape}")

    @property
    def lo(self) -> int:
        # offsets span [-lo, +hi], shifted inward at the border; even
        # windows lean right/down
        return (self.w - 1) // 2

    @property
    def hi(self) -> int:
        return self.w // 2


def estimate_dominant_period(img: np.ndarray) -> float:
    """Period (px) of the strongest non-DC spectral component.

    A real image's spectrum is conjugate-symmetric, and mirrored bins share
    their radius, so the real FFT's half spectrum (columns 0..cols//2) holds
    every candidate period.
    """
    img = as_real_image(img, min_size=MIN_ESTIMATOR_SIZE)
    spectrum = np.abs(np.fft.rfft2(img - img.mean()))
    spectrum[0, 0] = 0.0
    i, j = np.unravel_index(int(np.argmax(spectrum)), spectrum.shape)
    fy = np.fft.fftfreq(img.shape[0])[i]
    fx = np.fft.rfftfreq(img.shape[1])[j]
    f = float(np.hypot(fx, fy))
    if f <= 0:
        return float(min(img.shape)) / 4.0
    return 1.0 / f


def prefilter(img: np.ndarray) -> np.ndarray:
    """Background removal + amplitude normalization + light denoise.

    s = img - background; s /= max(eps, blur(|s|, sigma) * pi/2) which is the
    local mean rectified amplitude of a sinusoid scaled back to its envelope;
    then a light Gaussian denoise at ``SMOOTH_SIGMA``. Output is
    approximately zero-mean with approximately unit amplitude.

    Both blur scales come from the frame. The background and envelope blurs
    share sigma = min(2 * T, min(rows, cols) / 8), T the dominant fringe
    period. The background is the blur of img when 2 * T fits under that
    cap; otherwise (the usual case on desk-scale images) it is the global
    mean, the blur's large-sigma limit, which avoids the
    boundary-replication dent an oversized blur would imprint.

    The shared-sigma kernels span most of a side (225 taps at T = 14), so
    both blurs run as products with ``gaussian_blur_matrix``, built once per
    call: 2.6 against 22 ms per sigma-28 blur at 256^2 and 13 against 140 ms
    at 512^2 (one pinned core), within 2e-15 of ``gaussian_blur``. The short
    denoise stays on the direct ``gaussian_blur``, whose bytes equal
    ndimage.correlate1d's with mode "nearest": 1.6 ms at 256^2 and 7.0 ms
    at 512^2.
    """
    img = as_real_image(img, min_size=MIN_ESTIMATOR_SIZE)
    rows, cols = img.shape
    scale = 2.0 * estimate_dominant_period(img)
    cap = min(rows, cols) / 8.0
    sigma = min(scale, cap)
    b_rows = gaussian_blur_matrix(rows, sigma)
    b_cols = b_rows if rows == cols else gaussian_blur_matrix(cols, sigma)
    s = img - (b_rows @ img @ b_cols.T if scale <= cap else img.mean())
    envelope = (b_rows @ np.abs(s) @ b_cols.T) * (np.pi / 2.0)
    s = s / np.maximum(NORMALIZE_EPS, envelope)
    return gaussian_blur(s, SMOOTH_SIGMA)


def _window_sums(a: np.ndarray, w: int, axis: int, moment: bool = False):
    """Sums of every whole w-sample window along ``axis`` of a 2-D array.

    Returns (S, D) with S(c) = sum_j a(c + j) and, with ``moment``, the
    doubled centred first moment D(c) = sum_j (2j - (w - 1)) a(c + j) over
    j = 0 .. w - 1 (None without it); both are n - w + 1 long along ``axis``.
    Both are direct sums over the w offsets, one shifted slice each, so the
    cost grows as w; w = 2, the reference window, is every workload's. The
    moment's weights are antisymmetric, so offset j pairs with w - 1 - j:
    D(c) = sum_(j < (w - 1) / 2) (w - 1 - 2j) (a(c + w - 1 - j) - a(c + j)).
    """
    length = a.shape[axis] - w + 1

    def part(j):  # offset j of every whole window
        return a[j : j + length] if axis == 0 else a[:, j : j + length]

    total = part(0) + part(1)
    for j in range(2, w):
        total += part(j)
    if not moment:
        return total, None
    doubled = (w - 1) * (part(w - 1) - part(0))
    for j in range(1, w // 2):
        doubled += (w - 1 - 2 * j) * (part(w - 1 - j) - part(j))
    return total, doubled


def _edge_pad(core: np.ndarray, win: WindowSpec) -> np.ndarray:
    """Place the whole windows' values at their pixels and repeat the first
    and last of them on the border pixels, whose windows shift inward."""
    return np.pad(core, ((win.lo, win.hi), (win.lo, win.hi)), mode="edge")


def _box_sum(img: np.ndarray, win: WindowSpec) -> np.ndarray:
    """Sum of img over each pixel's w x w window.

    A window covers [i - lo, i + hi] on each axis, shifted inward at the
    border: it starts at clip(i - lo, 0, n - w), so it always holds w x w
    samples. The sums of every whole window are separable: window sums along
    each row (``_window_sums``), then along each column of those. The border
    pixels repeat the first and last of them (``_edge_pad``).
    """
    across, _ = _window_sums(img, win.w, 1)
    return _edge_pad(_window_sums(across, win.w, 0)[0], win)


def _orientation_from_averaged(gx, gy, win: WindowSpec) -> OrientationMap:
    """Box-average the doubled-angle gradient components and halve the angle.

    (gx^2 - gy^2, 2*gx*gy) is the doubled-angle vector of the gradient's angle
    from the x axis; after averaging, the halved angle converts to the repo's
    FO convention via FO = (pi/2 - alpha) mod pi.
    """
    count = win.w * win.w
    c_avg = _box_sum(gx**2 - gy**2, win) / count
    s_avg = _box_sum(2.0 * gx * gy, win) / count
    with np.errstate(over="ignore"):  # a magnitude that squares to inf is valid
        valid = c_avg * c_avg + s_avg * s_avg >= AVERAGED_MAGNITUDE_EPS**2
    alpha = 0.5 * np.arctan2(s_avg, c_avg)
    # alpha lies in [-pi/2, pi/2], so pi/2 - alpha lies in [0, pi] and its
    # value mod pi is itself, but for pi, which folds to 0
    angles = np.pi / 2.0 - alpha
    angles = np.where(valid & (angles != np.pi), angles, 0.0)
    return OrientationMap(angles=angles, valid=valid)


def gradient_orientation(img: np.ndarray, win: WindowSpec = WindowSpec()) -> OrientationMap:
    """Orientation from window-averaged finite-difference intensity gradients."""
    img = as_real_image(img, min_size=MIN_ESTIMATOR_SIZE)
    win.check_fits(img.shape)
    gy, gx = np.gradient(img)
    return _orientation_from_averaged(gx, gy, win)


def plane_fit_gradients(img: np.ndarray, win: WindowSpec = WindowSpec()):
    """Least-squares fit I ~ p0 + p1*x + p2*y over each pixel's w x w window.

    Returns (p1, p2) maps. Over a square window the centred x and y offsets
    are uncorrelated, so the 3x3 normal equations split into two 1-D slopes
    in closed form: p1 = sum (j - (w - 1) / 2) * I / d over the window, j the
    column offset from the window's first column, and p2 likewise along the
    rows, with d = w^2 (w^2 - 1) / 12 for every window (at least 1, so no fit
    is singular). The sums run over every whole window (``_window_sums``,
    the centred moment along one axis and the plain sum along the other), and
    the border pixels, whose windows shift inward (see ``_box_sum``), repeat
    the first and last fits.
    """
    img = as_real_image(img, min_size=MIN_ESTIMATOR_SIZE)
    win.check_fits(img.shape)
    w = win.w
    scale = w * w * (w * w - 1) // 6  # 2d: the moments are doubled
    across, moment_x = _window_sums(img, w, 1, moment=True)
    p1, _ = _window_sums(moment_x, w, 0)
    _, p2 = _window_sums(across, w, 0, moment=True)
    return _edge_pad(p1 / scale, win), _edge_pad(p2 / scale, win)


def cpfg_orientation(img: np.ndarray, win: WindowSpec = WindowSpec()) -> OrientationMap:
    """Combined plane-fit/gradient orientation: plane-fit gradients, then the
    same doubled-angle window averaging as the gradient method."""
    p1, p2 = plane_fit_gradients(img, win)
    return _orientation_from_averaged(p1, p2, win)
