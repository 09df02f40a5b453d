"""Classical fringe-orientation estimation from intensity.

Two estimators share the same doubled-angle window averaging: the gradient
method (finite-difference intensity gradients) and the combined plane-fit /
gradient method (windowed least-squares plane fits supply the gradients).
Raw per-pixel arctangents are unstable near fringe extrema where gradients
vanish; averaging the doubled-angle components respects the mod-pi topology.

Both estimators expect prefiltered input (approximately zero mean, unit
amplitude); ``prefilter`` is the simplified bandpass/normalize stand-in used
throughout this repo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import (
    MIN_ESTIMATOR_SIZE,
    as_real_image,
    gaussian_blur,
    gaussian_blur_matrix,
    gradients,
)
from .maps import OrientationMap

AVERAGED_MAGNITUDE_EPS = 1e-9
NORMALIZE_EPS = 1e-6


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
        # offsets span [-lo, +hi]; even windows lean right/down
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


def prefilter(
    img: np.ndarray,
    background_sigma: float | None = None,
    smooth_sigma: float = 0.5,
) -> np.ndarray:
    """Background removal + amplitude normalization + light denoise.

    s = img - background; s /= max(eps, blur(|s|, sigma) * pi/2) which is the
    local mean rectified amplitude of a sinusoid scaled back to its envelope;
    then a light Gaussian denoise. Output is approximately zero-mean with
    approximately unit amplitude.

    With an explicit ``background_sigma`` the background is the blur of img
    at background_sigma. The default ties the scale to twice the dominant
    fringe period; when that blur would not fit the grid (2*T > min(rows,
    cols)/8, the usual case on desk-scale images) the background degenerates
    to its large-sigma limit, the global mean, which avoids the
    boundary-replication dent the oversized blur would imprint.

    The background and envelope blurs share one sigma, and their kernels
    span most of a side (225 taps at T = 14), so both run as products with
    ``gaussian_blur_matrix``, built once per call: 3.1 against 14.9 ms per
    sigma-28 blur at 256^2 and 20.5 against 55.6 ms at 512^2, within 2e-15
    of ``gaussian_blur``. The short ``smooth_sigma`` denoise stays on the
    direct ``gaussian_blur``, which is faster for short kernels.
    """
    img = as_real_image(img, min_size=MIN_ESTIMATOR_SIZE)
    if smooth_sigma <= 0:
        raise ValueError("smooth_sigma must be positive")
    rows, cols = img.shape
    cap = min(rows, cols) / 8.0
    background = None
    if background_sigma is None:
        scale = 2.0 * estimate_dominant_period(img)
        if scale <= cap:
            sigma = scale
        else:
            background = np.full_like(img, img.mean())
            sigma = cap
    else:
        if background_sigma <= 0:
            raise ValueError("background_sigma must be positive")
        sigma = background_sigma
    b_rows = gaussian_blur_matrix(rows, sigma)
    b_cols = b_rows if rows == cols else gaussian_blur_matrix(cols, sigma)
    if background is None:
        background = b_rows @ img @ b_cols.T
    s = img - background
    envelope = (b_rows @ np.abs(s) @ b_cols.T) * (np.pi / 2.0)
    s = s / np.maximum(NORMALIZE_EPS, envelope)
    return gaussian_blur(s, smooth_sigma)


def _window_bounds(n: int, win: WindowSpec):
    idx = np.arange(n)
    lo = np.clip(idx - win.lo, 0, n - 1)
    hi = np.clip(idx + win.hi, 0, n - 1)
    return lo, hi


def _box_sum(img: np.ndarray, win: WindowSpec) -> np.ndarray:
    """Sum of img over the w x w window centered at each pixel, clipped at borders.

    The summed-area table is laid out with lo leading zero rows/columns and
    hi trailing copies of its last row/column, so every clipped window corner
    is a plain slice of it, with no index gathers.
    """
    rows, cols = img.shape
    lo, w = win.lo, win.w
    table = np.zeros((rows + w, cols + w))
    inner = table[lo + 1 : lo + 1 + rows, lo + 1 : lo + 1 + cols]
    inner[...] = np.cumsum(np.cumsum(img, axis=0), axis=1)
    table[lo + 1 : lo + 1 + rows, lo + 1 + cols :] = inner[:, -1:]
    table[lo + 1 + rows :] = table[lo + rows]
    return (
        table[w:, w:]
        - table[:rows, w:]
        - table[w:, :cols]
        + table[:rows, :cols]
    )


def _index_window_sums(n: int, win: WindowSpec):
    """Per-index window moments along one axis, in closed form.

    Returns (count, m, d): the clipped window's sample count, the sum of its
    offsets from the centre index, and d = count * sum(offset^2) - m^2, which
    is count^2 times the offsets' variance: 0 for a one-sample window and at
    least 1 otherwise. All three are exact small integers in float64.
    """
    lo, hi = _window_bounds(n, win)
    idx = np.arange(n)
    lo = (lo - idx).astype(np.float64)
    hi = (hi - idx).astype(np.float64)
    count = hi - lo + 1.0
    m = 0.5 * (lo + hi) * count
    cube = lambda v: v * (v + 1.0) * (2.0 * v + 1.0) / 6.0
    m2 = cube(hi) - cube(lo - 1.0)
    return count, m, count * m2 - m * m


def _orientation_from_averaged(gx, gy, win: WindowSpec) -> OrientationMap:
    """Box-average the doubled-angle gradient components and halve the angle.

    (gx^2 - gy^2, 2*gx*gy) is the doubled-angle vector of the gradient's angle
    from the x axis; after averaging, the halved angle converts to the repo's
    FO convention via FO = (pi/2 - alpha) mod pi.
    """
    rows, cols = gx.shape
    count = np.outer(_index_window_sums(rows, win)[0], _index_window_sums(cols, win)[0])
    c_avg = _box_sum(gx**2 - gy**2, win) / count
    s_avg = _box_sum(2.0 * gx * gy, win) / count
    valid = np.hypot(c_avg, s_avg) >= AVERAGED_MAGNITUDE_EPS
    alpha = 0.5 * np.arctan2(s_avg, c_avg)
    angles = np.mod(np.pi / 2.0 - alpha, np.pi)
    angles = np.where(valid, angles, 0.0)
    return OrientationMap(angles=angles, valid=valid)


def gradient_orientation(img: np.ndarray, win: WindowSpec = WindowSpec()) -> OrientationMap:
    """Orientation from window-averaged finite-difference intensity gradients."""
    img = as_real_image(img, min_size=MIN_ESTIMATOR_SIZE)
    win.check_fits(img.shape)
    g = gradients(img)
    return _orientation_from_averaged(g.gx, g.gy, win)


def plane_fit_gradients(img: np.ndarray, win: WindowSpec = WindowSpec()):
    """Least-squares fit I ~ p0 + p1*x + p2*y over each clipped window.

    Returns (p1, p2) maps. The clipped window is a rectangle of rows times
    columns, so its centred x and y offsets are uncorrelated (count * sxy =
    sx * sy) and the 3x3 normal equations split into two 1-D slopes:
    p1 = (n_c * tix - m_c * ti) / (n_r * d_c) with the per-column count n_c,
    offset sum m_c and d_c from ``_index_window_sums``, and p2 likewise along
    the rows. Only O(rows + cols) terms depend on the shape, so nothing is
    cached. Windows whose clipped geometry makes the fit singular (a single
    row or column remnant at a border, d_r or d_c = 0) yield (0, 0).
    """
    img = as_real_image(img, min_size=MIN_ESTIMATOR_SIZE)
    win.check_fits(img.shape)
    rows, cols = img.shape
    y = np.arange(rows, dtype=np.float64)[:, None]
    x = np.arange(cols, dtype=np.float64)[None, :]
    n_r, m_r, d_r = _index_window_sums(rows, win)
    n_c, m_c, d_c = _index_window_sums(cols, win)

    # window sums of the image and of its moments about each pixel
    ti = _box_sum(img, win)
    tix = _box_sum(img * x, win) - x * ti
    tiy = _box_sum(img * y, win) - y * ti

    p1 = (n_c * tix - m_c * ti) / np.outer(n_r, np.where(d_c > 0, d_c, 1.0))
    p2 = (n_r[:, None] * tiy - m_r[:, None] * ti) / np.outer(np.where(d_r > 0, d_r, 1.0), n_c)
    for p in (p1, p2):
        p[d_r == 0, :] = 0.0
        p[:, d_c == 0] = 0.0
    return p1, p2


def cpfg_orientation(img: np.ndarray, win: WindowSpec = WindowSpec()) -> OrientationMap:
    """Combined plane-fit/gradient orientation: plane-fit gradients, then the
    same doubled-angle window averaging as the gradient method."""
    p1, p2 = plane_fit_gradients(img, win)
    return _orientation_from_averaged(p1, p2, win)
