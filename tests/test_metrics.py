import numpy as np
import pytest

from fringeproc.errors import NumericalError
from fringeproc.maps import OrientationEncoding, OrientationMap
from fringeproc.metrics import orientation_error, rmse_channels, rmse_phase, valid_fraction


def full_map(angles):
    angles = np.asarray(angles, dtype=float)
    return OrientationMap(angles=angles, valid=np.ones_like(angles, dtype=bool))


class TestOrientationError:
    def test_identical_maps(self):
        fo = full_map(np.linspace(0, 3, 64).reshape(8, 8))
        assert orientation_error(fo, fo) == 0.0

    def test_constant_offset_is_null(self):
        rng = np.random.default_rng(0)
        ref = full_map(rng.uniform(0, np.pi, (16, 16)))
        for c in rng.uniform(-3, 3, 10):
            shifted = full_map(ref.angles + c)
            assert orientation_error(shifted, ref) < 1e-12

    def test_hand_computed_2x2(self):
        # sin diffs {0, 1, 0, 1}, mean 0.5 -> sqrt(sum((d - 0.5)^2) / 3) = sqrt(1/3)
        fo = full_map([[0.0, np.pi / 2], [0.0, np.pi / 2]])
        ref = full_map([[0.0, 0.0], [0.0, 0.0]])
        assert abs(orientation_error(fo, ref) - np.sqrt(1.0 / 3.0)) < 1e-9

    def test_symmetry_under_swap(self):
        rng = np.random.default_rng(1)
        a = full_map(rng.uniform(0, np.pi, (12, 12)))
        b = full_map(rng.uniform(0, np.pi, (12, 12)))
        assert abs(orientation_error(a, b) - orientation_error(b, a)) < 1e-12

    def test_pi_shift_of_difference_invariant(self):
        rng = np.random.default_rng(2)
        a = full_map(rng.uniform(0, np.pi, (12, 12)))
        ref = full_map(rng.uniform(0, np.pi, (12, 12)))
        shifted = full_map(a.angles + np.pi)  # sin flips sign pointwise
        assert abs(orientation_error(a, ref) - orientation_error(shifted, ref)) < 1e-12

    def test_masked_pixels_excluded(self):
        angles = np.zeros((8, 8))
        angles[0, 0] = 1.0  # wildly wrong, but masked out below
        fo = OrientationMap(angles=angles, valid=np.ones((8, 8), dtype=bool))
        ref_valid = np.ones((8, 8), dtype=bool)
        ref_valid[0, 0] = False
        ref = OrientationMap(angles=np.zeros((8, 8)), valid=ref_valid)
        assert orientation_error(fo, ref) == 0.0
        assert valid_fraction(fo, ref) == 63 / 64

    def test_valid_fraction_rejects_shape_mismatch(self):
        # (64, 64) and (1, 64) would broadcast together
        with pytest.raises(ValueError, match="shape mismatch"):
            valid_fraction(full_map(np.zeros((64, 64))), full_map(np.zeros((1, 64))))

    def test_border_exclusion(self):
        angles = np.zeros((8, 8))
        angles[0, :] = 1.3  # only border pixels disagree
        assert orientation_error(full_map(angles), full_map(np.zeros((8, 8))),
                                 exclude_border=1) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            orientation_error(full_map(np.zeros((8, 8))), full_map(np.zeros((9, 8))))

    def test_empty_pixel_set(self):
        empty = OrientationMap(angles=np.zeros((8, 8)),
                               valid=np.zeros((8, 8), dtype=bool))
        with pytest.raises(NumericalError):
            orientation_error(empty, empty)


class TestRmseChannels:
    def test_identical(self):
        enc = OrientationEncoding(sin2=np.ones((4, 4)), cos2=np.zeros((4, 4)))
        assert rmse_channels(enc, enc) == (0.0, 0.0)

    def test_constant_offset(self):
        target = OrientationEncoding(sin2=np.zeros((8, 8)), cos2=np.ones((8, 8)))
        pred = OrientationEncoding(sin2=target.sin2 + 0.1, cos2=target.cos2)
        r_sin, r_cos = rmse_channels(pred, target)
        assert abs(r_sin - 0.1) < 1e-12 and r_cos == 0.0

    def test_random_unit_norm_against_monte_carlo_oracle(self):
        rng = np.random.default_rng(3)
        # oracle: sampled expectation of (sin 2U - sin 2V)^2, U,V ~ Unif[0, pi)
        u = rng.uniform(0, np.pi, 200_000)
        v = rng.uniform(0, np.pi, 200_000)
        expected = np.sqrt(np.mean((np.sin(2 * u) - np.sin(2 * v)) ** 2))
        a = rng.uniform(0, np.pi, (128, 128))
        b = rng.uniform(0, np.pi, (128, 128))
        pred = OrientationEncoding(sin2=np.sin(2 * a), cos2=np.cos(2 * a))
        target = OrientationEncoding(sin2=np.sin(2 * b), cos2=np.cos(2 * b))
        r_sin, _ = rmse_channels(pred, target)
        assert abs(r_sin - expected) / expected < 0.1


class TestRmsePhase:
    def test_piston_only_is_null(self):
        rng = np.random.default_rng(4)
        ref = rng.standard_normal((16, 16))
        assert rmse_phase(ref + 3.7, ref) < 1e-12

    def test_tilt_closed_form(self):
        y, x = np.mgrid[0:64, 0:64].astype(float)
        ref = np.zeros((64, 64))
        # RMS of the zero-mean tilt 0.01*x: 0.01 * std of {0..63}
        expected = 0.01 * np.sqrt((64.0**2 - 1.0) / 12.0)
        assert abs(rmse_phase(ref + 0.01 * x, ref) - expected) < 1e-12

    def test_identical(self):
        ref = np.ones((8, 8))
        assert rmse_phase(ref, ref) == 0.0

    def test_random_piston_invariance(self):
        rng = np.random.default_rng(5)
        phase = rng.standard_normal((16, 16))
        ref = rng.standard_normal((16, 16))
        base = rmse_phase(phase, ref)
        for piston in rng.uniform(-10, 10, 5):
            assert abs(rmse_phase(phase + piston, ref) - base) < 1e-12

    def test_border_too_large(self):
        with pytest.raises(NumericalError):
            rmse_phase(np.zeros((8, 8)), np.zeros((8, 8)), exclude_border=4)
