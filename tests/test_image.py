import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fringeproc.image import (
    as_real_image,
    fft2,
    gaussian_blur,
    gaussian_blur_matrix,
    gaussian_kernel,
    gradients,
)


def direct_dft2(img):
    """Brute-force DFT summation; the independent oracle for fft2."""
    rows, cols = img.shape
    out = np.zeros((rows, cols), dtype=complex)
    yy, xx = np.mgrid[0:rows, 0:cols]
    for v in range(rows):
        for u in range(cols):
            out[v, u] = np.sum(
                img * np.exp(-2j * np.pi * (v * yy / rows + u * xx / cols))
            )
    return out


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


class TestGradients:
    def test_constant_image(self):
        g = gradients(np.full((16, 16), 2.5))
        assert np.all(g.gx == 0) and np.all(g.gy == 0)

    def test_column_ramp(self):
        y, x = np.mgrid[0:12, 0:12].astype(float)
        g = gradients(x)
        assert np.allclose(g.gx, 1.0)
        assert np.allclose(g.gy, 0.0)

    def test_linear_field_exact_everywhere(self):
        # one-sided border stencils are also exact on a plane
        y, x = np.mgrid[0:20, 0:24].astype(float)
        g = gradients(1.25 * x - 0.75 * y)
        assert np.abs(g.gx - 1.25).max() == 0
        assert np.abs(g.gy + 0.75).max() == 0

    def test_carrier_gradient(self):
        # phase of T=14, theta=0 carrier: d/dx = 2*pi/14, d/dy = 0
        y, x = np.mgrid[0:16, 0:16].astype(float)
        g = gradients(x * 2 * np.pi / 14)
        assert np.allclose(g.gx[1:-1, 1:-1], 2 * np.pi / 14, atol=1e-12)
        assert np.allclose(g.gy, 0.0)


class TestFFT:
    def test_dc_only_signal(self):
        spec = fft2(np.ones((8, 8)))
        assert np.isclose(spec[0, 0], 64.0)
        spec[0, 0] = 0
        assert np.abs(spec).max() < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        back = np.fft.ifft2(fft2(x))
        assert np.abs(back - x).max() < 1e-10

    @pytest.mark.parametrize("shape", [(32, 32), (64, 48), (256, 256)])
    def test_round_trip_relative_l2(self, shape):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(shape)
        back = np.fft.ifft2(fft2(x))
        err = np.linalg.norm(back - x) / np.linalg.norm(x)
        assert err < 1e-10

    def test_pure_cosine_bins(self):
        y, x = np.mgrid[0:8, 0:8].astype(float)
        spec = fft2(np.cos(2 * np.pi * x / 8))
        energy = np.abs(spec) ** 2
        expected = np.zeros((8, 8))
        expected[0, 1] = expected[0, 7] = (64 / 2.0) ** 2  # N/2 per cosine line
        assert np.allclose(energy, expected, atol=1e-18)

    def test_real_input_bytes_and_double_precision(self):
        # numpy 2 transforms float32 in single precision; fft2 widens first
        rng = np.random.default_rng(4)
        for shape in [(1, 1), (1, 7), (8, 8), (9, 14), (64, 48)]:
            x = rng.standard_normal(shape)
            want = np.fft.fft2(x.astype(np.complex128))
            assert fft2(x).tobytes() == want.tobytes()
            x32 = x.astype(np.float32)
            got = fft2(x32)
            assert got.dtype == np.complex128
            assert got.tobytes() == np.fft.fft2(x32.astype(np.complex128)).tobytes()

    def test_matches_direct_dft(self):
        rng = np.random.default_rng(2)
        img = rng.standard_normal((8, 8))
        assert np.abs(fft2(img) - direct_dft2(img)).max() < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((64, 64))
        lhs = np.sum(np.abs(x) ** 2)
        rhs = np.sum(np.abs(fft2(x)) ** 2) / x.size
        assert abs(lhs - rhs) / lhs < 1e-8


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
