import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fringeproc.image import as_real_image, gaussian_blur, gaussian_blur_matrix, gaussian_kernel


class TestValidation:
    def test_rejects_nan(self):
        bad = np.ones((8, 8))
        bad[3, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            as_real_image(bad)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2D"):
            as_real_image(np.zeros(16))

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError, match="smaller"):
            as_real_image(np.zeros((4, 4)), min_size=8)


class TestGaussianBlur:
    def test_constant_unchanged(self):
        img = np.full((16, 16), 3.7)
        assert np.abs(gaussian_blur(img, 2.0) - 3.7).max() < 1e-12

    def test_impulse_peak_matches_kernel(self):
        # oracle: direct evaluation of the truncated, renormalized kernel
        sigma = 1.0
        radius = int(np.ceil(4 * sigma))
        k = np.exp(-0.5 * (np.arange(-radius, radius + 1) / sigma) ** 2)
        k /= k.sum()
        img = np.zeros((17, 17))
        img[8, 8] = 1.0
        out = gaussian_blur(img, sigma)
        assert abs(out[8, 8] - k[radius] ** 2) < 1e-14

    def test_transpose_commutes(self):
        rng = np.random.default_rng(4)
        img = rng.standard_normal((20, 20))
        assert np.allclose(gaussian_blur(img, 1.5).T, gaussian_blur(img.T, 1.5),
                           atol=1e-13)

    def test_mean_preserved_interior_dominated(self):
        rng = np.random.default_rng(5)
        img = np.zeros((64, 64))
        img[16:-16, 16:-16] = rng.standard_normal((32, 32))
        out = gaussian_blur(img, 2.0)
        assert abs(out.mean() - img.mean()) <= 1e-9 * max(abs(img.mean()), 1.0)

    def test_kernel_truncation_radius(self):
        # spec pins truncation at +/- ceil(4*sigma)
        assert gaussian_kernel(1.3).size == 2 * int(np.ceil(4 * 1.3)) + 1

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_blur(np.zeros((8, 8)), 0.0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, 1e308])
    def test_rejects_sigma_without_a_finite_kernel(self, sigma):
        # ValueError, not the OverflowError of rounding an infinite radius
        with pytest.raises(ValueError, match="finite"):
            gaussian_kernel(sigma)

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 64), cols=st.integers(1, 64),
           sigma=st.floats(0.5, 30.0), scale=st.floats(1e-3, 1e3),
           seed=st.integers(0, 2**32 - 1))
    def test_bytes_equal_ndimage_correlate1d(self, rows, cols, sigma, scale, seed):
        # the byte contract: rows, then columns, each exactly as correlate1d
        # sums a symmetric kernel with mode "nearest"; sigma 30 gives 241
        # taps, wider than any drawn side
        ndimage = pytest.importorskip("scipy.ndimage")
        img = np.random.default_rng(seed).uniform(-scale, scale, (rows, cols))
        kernel = gaussian_kernel(sigma)
        want = ndimage.correlate1d(img, kernel, axis=0, mode="nearest")
        want = ndimage.correlate1d(want, kernel, axis=1, mode="nearest")
        assert np.array_equal(gaussian_blur(img, sigma), want)


def matrix_blur(img, sigma):
    rows, cols = img.shape
    return gaussian_blur_matrix(rows, sigma) @ img @ gaussian_blur_matrix(cols, sigma).T


class TestGaussianBlurMatrix:
    # gaussian_blur is the oracle; the products only reorder its sums
    @pytest.mark.parametrize("shape,sigma", [
        ((256, 256), 28.0),
        ((37, 91), 28.0),  # radius 112 exceeds both sides
        ((64, 48), 3.0),  # radius 12 is below both sides
        ((9, 2), 1.0),
    ])
    def test_matches_direct_blur(self, shape, sigma):
        img = np.random.default_rng(8).uniform(-1.0, 1.0, shape)
        assert np.abs(matrix_blur(img, sigma) - gaussian_blur(img, sigma)).max() < 1e-14

    def test_constant_unchanged(self):
        out = matrix_blur(np.full((37, 91), 3.7), 28.0)
        assert np.abs(out - 3.7).max() < 1e-12

    def test_single_sample_axis_is_identity(self):
        assert np.array_equal(gaussian_blur_matrix(1, 5.0), np.ones((1, 1)))

    def test_wide_kernel_stays_n_squared(self):
        # sigma 1000 has 8001 taps; an n x taps index table would be 16 MB
        n = 256
        img = np.random.default_rng(9).uniform(-1.0, 1.0, (n, n))
        tracemalloc.start()
        try:
            b = gaussian_blur_matrix(n, 1000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * n * 8
        assert np.abs(b @ img @ b.T - gaussian_blur(img, 1000.0)).max() < 1e-13
