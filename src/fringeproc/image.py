"""Dense-grid primitives: validation and Gaussian blur.

Axis convention, fixed repo-wide: x is the column index (increasing rightward),
y is the row index (increasing downward). Arrays are indexed [y, x].
"""

from __future__ import annotations

import numpy as np

MIN_ESTIMATOR_SIZE = 8


def as_real_image(values, min_size: int | None = None) -> np.ndarray:
    """Validate and return a float64 2D image.

    Rejects non-2D input and non-finite samples. ``min_size`` additionally
    enforces the minimum grid size required by the estimators.
    """
    img = np.asarray(values, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"expected a 2D image, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise ValueError("image contains non-finite samples")
    if min_size is not None and (img.shape[0] < min_size or img.shape[1] < min_size):
        raise ValueError(
            f"image {img.shape} smaller than required {min_size}x{min_size}"
        )
    return img


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Unit-sum 1D Gaussian truncated at +/- ceil(4*sigma)."""
    if not 0 < 4.0 * sigma < np.inf:  # the radius must be finite too; NaN fails
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    radius = int(np.ceil(4.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (x / sigma) ** 2)
    return kernel / kernel.sum()


def _correlate_nearest(img: np.ndarray, kernel: np.ndarray, axis: int,
                       out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Correlate every line of ``img`` along ``axis`` with a symmetric odd
    ``kernel``, replicating the edge samples, into ``out``.

    The sums run in ndimage.correlate1d's order for symmetric kernels: the
    centre sample times the centre weight, then (x[i - j] + x[i + j]) * w[j]
    added for j from the radius down to 1, so the bytes equal
    ``correlate1d(img, kernel, axis, mode="nearest")``. ``tmp`` is a work
    buffer of img's shape; ``out`` may be img itself, which is copied first.
    """
    n = img.shape[axis]
    radius = kernel.size // 2
    padded = np.take(img, np.clip(np.arange(-radius, n + radius), 0, n - 1), axis=axis)

    def shifted(start):
        return padded[start : start + n] if axis == 0 else padded[:, start : start + n]

    np.multiply(shifted(radius), kernel[radius], out=out)
    for j in range(radius, 0, -1):
        np.add(shifted(radius - j), shifted(radius + j), out=tmp)
        np.multiply(tmp, kernel[radius - j], out=tmp)
        np.add(out, tmp, out=out)
    return out


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian convolution with replicated edges.

    The kernel is truncated at +/- ceil(4*sigma) and renormalized to unit sum,
    so constant images pass through unchanged. Rows are blurred first, then
    columns, each by the direct tap-by-tap correlation, whose bytes equal
    ndimage.correlate1d(..., mode="nearest") on the same axes; the
    simulator's blob objects and every ``prefilter`` output (its 0.5 px
    denoise) depend on them. Short kernels are its use: sigma 0.5 takes 1.6
    ms at 256^2 and 7.0 ms at 512^2 (correlate1d: 1.7 and 7.4 ms), sigma 3
    takes 2.8 and 18 ms (2.0 and 11 ms), one pinned core. ``prefilter``'s
    wide blurs, whose kernels span most of a side, apply the same operator
    as ``gaussian_blur_matrix`` products instead.
    """
    img = as_real_image(img)
    kernel = gaussian_kernel(sigma)
    tmp = np.empty_like(img)
    rows_blurred = _correlate_nearest(img, kernel, 0, np.empty_like(img), tmp)
    return _correlate_nearest(rows_blurred, kernel, 1, rows_blurred, tmp)


def gaussian_blur_matrix(n: int, sigma: float) -> np.ndarray:
    """The n x n matrix of ``gaussian_blur`` along one axis of length n.

    Row i holds the weights of ``gaussian_kernel(sigma)`` centred on sample
    i; a tap that falls off either end adds its weight to the edge column,
    as mode "nearest" replicates the edge sample. So ``B_rows @ img @
    B_cols.T`` is ``gaussian_blur(img, sigma)`` up to summation order (within
    1e-14 on unit-scale input). Taps beyond n - 1 of the centre only ever
    reach an edge, so the matrix never holds more than its n^2 entries; the
    kernel and its running sum still hold all 8 sigma + 1 taps, so memory is
    O(n^2 + sigma). No command reaches a large sigma: ``prefilter``'s is at
    most min(rows, cols) / 8.
    """
    if n == 1:
        return np.ones((1, 1))
    kernel = gaussian_kernel(sigma)
    radius = kernel.size // 2
    reach = min(radius, n - 1)
    # diagonals[n - 1 + d] is the weight at offset d = column - row
    diagonals = np.zeros(2 * n - 1)
    diagonals[n - 1 - reach : n + reach] = kernel[radius - reach : radius + reach + 1]
    matrix = np.lib.stride_tricks.sliding_window_view(diagonals, n)[::-1].copy()
    # row i's edge column gathers every tap at offset <= -i (>= n - 1 - i);
    # the kernel is symmetric, so the right edge mirrors the left
    edge = np.zeros(n)
    edge[: reach + 1] = np.cumsum(kernel[: radius + 1])[::-1][: reach + 1]
    matrix[:, 0] = edge
    matrix[:, -1] = edge[::-1]
    return matrix
