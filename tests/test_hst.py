import numpy as np
import pytest

from fringeproc.hst import demodulate, demodulate_phase, quadrature
from fringeproc.metrics import rmse_phase
from fringeproc.simulate import (
    CarrierSpec,
    gen_carrier,
    gen_peaks_phase,
    ground_truth_direction,
    render_fringe,
)
from oracles import make_spiral_filter


def full_plane_quadrature(s, beta):
    """Re(exp(i*beta) * ifft2(S * fft2(s))) on complex full-plane transforms."""
    vortex = np.fft.ifft2(make_spiral_filter(*s.shape) * np.fft.fft2(s.astype(np.complex128)))
    return np.real(np.exp(1j * beta) * vortex)


class TestSpiralFilter:
    def test_axis_values(self):
        s = make_spiral_filter(16, 16)
        assert s[0, 0] == 0.0
        assert s[0, 1] == 1.0 + 0.0j   # u = +1, v = 0
        assert s[1, 0] == 0.0 + 1.0j   # u = 0, v = +1

    def test_unit_magnitude_off_dc(self):
        s = make_spiral_filter(16, 12)
        mags = np.abs(s)
        assert mags[0, 0] == 0.0
        mags[0, 0] = 1.0
        assert np.abs(mags - 1.0).max() < 1e-12

    def test_antisymmetry_odd_grid(self):
        # odd sizes make bin negation a bijection: exact everywhere off DC
        s = make_spiral_filter(15, 9)
        for i in range(15):
            for j in range(9):
                if i == 0 and j == 0:
                    continue
                assert s[(-i) % 15, (-j) % 9] == -s[i, j]

    def test_antisymmetry_even_grid_off_nyquist(self):
        s = make_spiral_filter(16, 16)
        for i in range(16):
            for j in range(16):
                if (i == 0 and j == 0) or i == 8 or j == 8:
                    continue
                assert s[(-i) % 16, (-j) % 16] == -s[i, j]

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            make_spiral_filter(4, 16)


class TestQuadrature:
    def test_carrier_oracle(self):
        # 8 exact periods across the grid: analytic quadrature -sin(phase)
        phase = gen_carrier((112, 112), CarrierSpec(14.0, 0.0))
        s = np.cos(phase)
        beta = ground_truth_direction(phase)
        s_h, warnings = quadrature(s, beta)
        inner = np.s_[16:-16, 16:-16]
        rms = np.sqrt(np.mean((s_h[inner] + np.sin(phase)[inner]) ** 2))
        assert rms < 0.02
        assert warnings == []

    def test_oblique_carrier(self):
        phase = gen_carrier((128, 128), CarrierSpec(14.0, 0.8))
        s_h, _ = quadrature(np.cos(phase), ground_truth_direction(phase))
        inner = np.s_[16:-16, 16:-16]
        rms = np.sqrt(np.mean((s_h[inner] + np.sin(phase)[inner]) ** 2))
        assert rms < 0.02

    def test_zero_signal(self):
        s_h, _ = quadrature(np.zeros((32, 32)), np.full((32, 32), 1.0))
        assert np.all(s_h == 0)

    def test_branch_flip_negates_exactly(self):
        phase = gen_carrier((64, 64), CarrierSpec(11.0, 0.5))
        s = np.cos(phase)
        beta = ground_truth_direction(phase)
        a, _ = quadrature(s, beta)
        b, _ = quadrature(s, beta + np.pi)
        assert np.abs(a + b).max() < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(0)
        beta = np.full((32, 32), 0.7)
        s1 = rng.standard_normal((32, 32))
        s2 = rng.standard_normal((32, 32))
        lhs, _ = quadrature(1.7 * s1 - 0.4 * s2, beta)
        q1, _ = quadrature(s1, beta)
        q2, _ = quadrature(s2, beta)
        assert np.abs(lhs - (1.7 * q1 - 0.4 * q2)).max() < 1e-10

    def test_energy_preserved_on_carrier(self):
        phase = gen_carrier((112, 112), CarrierSpec(14.0, 0.3))
        s = np.cos(phase)
        s_h, _ = quadrature(s, ground_truth_direction(phase))
        inner = np.s_[16:-16, 16:-16]
        ratio = np.linalg.norm(s_h[inner]) / np.linalg.norm(s[inner])
        assert 0.95 < ratio < 1.05

    @pytest.mark.parametrize("family", ["circle", "wide", "exact"])
    @pytest.mark.parametrize("shape", [(8, 8), (9, 14), (64, 64)])
    def test_bytes_match_complex_exp(self, shape, family):
        # the real-input transforms and cos/sin against the complex full-plane
        # transforms and exp(1j * beta), which round differently
        rng = np.random.default_rng(shape[1])
        s = rng.standard_normal(shape)
        s -= s.mean()
        beta = {"circle": rng.uniform(0.0, 2.0 * np.pi, shape),
                "wide": rng.uniform(-1e6, 1e6, shape),
                "exact": rng.choice([0.0, -0.0, np.pi, -np.pi, 2.0 * np.pi], shape)}[family]
        got, _ = quadrature(s, beta)
        assert np.abs(got - full_plane_quadrature(s, beta)).max() <= 1e-13

    @pytest.mark.parametrize("line", ["row", "column"])
    @pytest.mark.parametrize("shape", [(8, 8), (16, 12), (9, 15), (64, 64)])
    def test_nyquist_lines_match_full_plane_reference(self, shape, line):
        # energy only on the middle row or column of the spectrum, which is
        # the Nyquist line of an even side: there the filter's Hermitian
        # parts are not i * v / r and -i * u / r
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        rows, cols = shape
        spectrum = np.zeros(shape, dtype=np.complex128)
        at = np.s_[rows // 2, :] if line == "row" else np.s_[:, cols // 2]
        size = cols if line == "row" else rows
        spectrum[at] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        s = np.fft.ifft2(spectrum).real
        beta = rng.uniform(0.0, 2.0 * np.pi, shape)
        got, _ = quadrature(s, beta)
        assert np.abs(got - full_plane_quadrature(s, beta)).max() <= 1e-13

    def test_nonzero_mean_warns(self):
        phase = gen_carrier((64, 64), CarrierSpec(14.0, 0.0))
        _, warnings = quadrature(np.cos(phase) + 0.5, ground_truth_direction(phase))
        assert len(warnings) == 1 and "zero-mean" in warnings[0]


class TestDemodulatePhase:
    def test_cos_only(self):
        phi, defined = demodulate_phase(np.ones((8, 8)), np.zeros((8, 8)))
        assert np.all(phi == 0.0) and defined.all()

    def test_sin_only(self):
        phi, _ = demodulate_phase(np.zeros((8, 8)), np.full((8, 8), -1.0))
        assert np.allclose(phi, np.pi / 2)

    def test_range_half_open(self):
        # s = -1, s_H = 0 maps to atan2(0, -1) = pi, folded to -pi
        phi, _ = demodulate_phase(np.full((8, 8), -1.0), np.zeros((8, 8)))
        assert np.all(phi == -np.pi)
        assert np.all(phi >= -np.pi) and np.all(phi < np.pi)

    def test_undefined_pixels_masked(self):
        s = np.zeros((8, 8))
        s[0, 0] = 1.0
        phi, defined = demodulate_phase(s, np.zeros((8, 8)))
        assert defined[0, 0] and not defined[1, 1]
        assert phi[1, 1] == 0.0


class TestDemodulate:
    def test_carrier_only_recovers_phase(self):
        phase = gen_carrier((128, 128), CarrierSpec(14.0, 0.0))
        fringe = render_fringe(phase)
        beta = ground_truth_direction(phase)
        _, unwrapped, info = demodulate(fringe, beta)
        assert rmse_phase(unwrapped, phase, exclude_border=16) < 0.05
        assert info["warnings"] == []

    def test_branch_flip_negates_phase(self):
        phase = gen_peaks_phase(128, 2.0) + gen_carrier((128, 128), CarrierSpec(14.0, 0.0))
        fringe = render_fringe(phase)
        beta = ground_truth_direction(phase)
        _, phi_a, _ = demodulate(fringe, beta)
        _, phi_b, _ = demodulate(fringe, np.mod(beta + np.pi, 2 * np.pi))
        assert rmse_phase(phi_b, -phi_a, exclude_border=16) < 1e-6

    def test_zero_fringe_no_crash(self):
        _, unwrapped, info = demodulate(np.zeros((32, 32)), np.zeros((32, 32)))
        assert np.all(unwrapped == 0)
        assert info["defined_fraction"] == 0.0

    @pytest.mark.parametrize("coeff", [0.0, 5.0])
    def test_peaks_fringe_phase_rmse(self, coeff):
        phase = gen_peaks_phase(256, coeff) + gen_carrier((256, 256), CarrierSpec(14.0, 0.0))
        fringe = render_fringe(phase)
        _, unwrapped, _ = demodulate(fringe, ground_truth_direction(phase))
        assert rmse_phase(unwrapped, phase, exclude_border=16) < 0.1
