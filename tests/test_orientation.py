import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fringeproc import orientation
from fringeproc.image import gaussian_blur
from fringeproc.metrics import orientation_error
from fringeproc.orientation import (
    WindowSpec,
    _box_sum,
    _orientation_from_averaged,
    cpfg_orientation,
    estimate_dominant_period,
    gradient_orientation,
    plane_fit_gradients,
    prefilter,
)
from fringeproc.simulate import (
    CarrierSpec,
    add_gaussian_noise,
    gen_carrier,
    gen_peaks_phase,
    ground_truth_orientation,
    render_fringe,
)
from fringeproc.unwrap import orientation_to_direction
from oracles import circular_orientation_error
from test_unwrap import ORACLE_KINDS, oracle_map

SRC = str(Path(__file__).resolve().parents[1] / "src")


def carrier_fringe(shape, period, theta):
    phase = gen_carrier(shape, CarrierSpec(period, theta))
    return render_fringe(phase), ground_truth_orientation(phase)


class TestWindowSpec:
    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            WindowSpec(1)

    def test_rejects_window_larger_than_image(self):
        with pytest.raises(ValueError, match="too large"):
            gradient_orientation(np.zeros((16, 16)), WindowSpec(9))


def full_spectrum_period(img):
    """``estimate_dominant_period`` as first written, over the full complex
    spectrum: the oracle for the half-spectrum version."""
    spectrum = np.abs(np.fft.fft2(img - img.mean()))
    spectrum[0, 0] = 0.0
    i, j = np.unravel_index(int(np.argmax(spectrum)), spectrum.shape)
    f = float(np.hypot(np.fft.fftfreq(img.shape[1])[j], np.fft.fftfreq(img.shape[0])[i]))
    return 1.0 / f if f > 0 else float(min(img.shape)) / 4.0


class TestPrefilter:
    def test_clean_fringe_near_zero_mean(self):
        fringe, _ = carrier_fringe((64, 64), 14.0, 0.7)
        assert abs(prefilter(fringe).mean()) < 0.05

    def test_constant_offset_removed(self):
        fringe, _ = carrier_fringe((64, 64), 14.0, 0.7)
        a = prefilter(fringe)
        b = prefilter(fringe + 5.0)
        assert np.sqrt(np.mean((a - b) ** 2)) < 0.05

    def test_constant_image_maps_to_zero(self):
        assert np.abs(prefilter(np.full((32, 32), 2.0))).max() == 0.0

    def test_dominant_period_estimate(self):
        fringe, _ = carrier_fringe((64, 64), 16.0, 0.0)
        assert abs(estimate_dominant_period(fringe) - 16.0) < 2.0

    def test_dominant_period_oblique(self):
        fringe, _ = carrier_fringe((128, 128), 12.0, 1.1)
        assert abs(estimate_dominant_period(fringe) - 12.0) < 1.5

    @pytest.mark.parametrize("shape", [(63, 63), (65, 97), (48, 80), (80, 48), (256, 256)])
    @pytest.mark.parametrize("theta", [0.0, 0.4, np.pi / 2, 2.3])  # both half-planes
    def test_dominant_period_matches_full_spectrum(self, shape, theta):
        rng = np.random.default_rng(sum(shape))
        for period in (5.0, 14.0, 23.0):
            phase = gen_carrier(shape, CarrierSpec(period, theta))
            phase += rng.uniform(0.5, 2.0) * np.outer(np.hanning(shape[0]), np.hanning(shape[1]))
            fringe = add_gaussian_noise(render_fringe(phase), 0.1, seed=int(rng.integers(1 << 30)))
            assert estimate_dominant_period(fringe) == full_spectrum_period(fringe)

    def test_approximately_unit_amplitude(self):
        fringe, _ = carrier_fringe((64, 64), 14.0, 0.3)
        out = prefilter(0.37 * fringe + 1.5)
        interior = out[8:-8, 8:-8]
        assert 0.8 < np.percentile(np.abs(interior), 95) < 1.2

    @pytest.mark.parametrize("shape,background", [
        ((256, 256), "blur"),  # background blur at 2T = 28
        ((96, 256), "mean"),  # global-mean background, envelope at the cap
    ])
    def test_matches_direct_blur_recipe(self, shape, background):
        # the same recipe with every blur by the direct gaussian_blur
        phase = gen_peaks_phase(max(shape), 1.2)[: shape[0], : shape[1]]
        phase = phase + gen_carrier(shape, CarrierSpec(14.0, 0.7))
        img = add_gaussian_noise(render_fringe(phase), 0.05, seed=4) + 2.0
        sigma = 2.0 * estimate_dominant_period(img)
        cap = min(shape) / 8.0
        assert (sigma <= cap) == (background == "blur")
        s = img - (gaussian_blur(img, sigma) if sigma <= cap else img.mean())
        sigma = min(sigma, cap)
        s = s / np.maximum(1e-6, gaussian_blur(np.abs(s), sigma) * (np.pi / 2.0))
        want = gaussian_blur(s, 0.5)
        assert np.abs(prefilter(img) - want).max() < 1e-13

    def test_bytes_do_not_depend_on_blas_threads(self):
        # the wide blurs are BLAS products; their bytes must not follow the
        # thread split
        script = (
            "import hashlib, numpy as np\n"
            "from fringeproc.orientation import prefilter\n"
            "from fringeproc.simulate import add_gaussian_noise, gen_carrier,"
            " gen_peaks_phase, render_fringe, CarrierSpec\n"
            "phase = gen_peaks_phase(256, 1.2) + gen_carrier((256, 256), CarrierSpec(14.0, 0.7))\n"
            "img = add_gaussian_noise(render_fringe(phase), 0.05, seed=3)\n"
            "print(hashlib.sha256(prefilter(img).tobytes()).hexdigest())\n"
        )
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            digests.add(proc.stdout.strip())
        assert len(digests) == 1


class TestGradientOrientation:
    def test_carrier_theta_zero(self):
        fringe, gt = carrier_fringe((64, 64), 14.0, 0.0)
        fo = gradient_orientation(prefilter(fringe), WindowSpec(2))
        err = circular_orientation_error(fo.angles[8:-8, 8:-8], np.pi / 2)
        assert err.max() < 0.02

    def test_transpose_maps_orientation(self):
        fringe, _ = carrier_fringe((64, 64), 11.0, 0.7)
        fo = gradient_orientation(fringe, WindowSpec(2))
        fo_t = gradient_orientation(np.ascontiguousarray(fringe.T), WindowSpec(2))
        inner = np.s_[8:-8, 8:-8]
        expected = np.mod(np.pi / 2 - fo.angles.T, np.pi)
        err = circular_orientation_error(fo_t.angles[inner], expected[inner])
        assert err.max() < 1e-9

    def test_constant_image_all_invalid(self):
        fo = gradient_orientation(np.full((32, 32), 1.0), WindowSpec(2))
        assert not fo.valid.any()

    def test_angles_in_range(self):
        fringe, _ = carrier_fringe((32, 32), 9.0, 2.2)
        fo = gradient_orientation(fringe, WindowSpec(3))
        assert np.all(fo.angles[fo.valid] >= 0)
        assert np.all(fo.angles[fo.valid] < np.pi)


class TestPlaneFit:
    @pytest.mark.parametrize("w", [2, 3, 4, 5])
    def test_planar_image_exact_everywhere(self, w):
        # shifted border windows keep w x w samples, so the fit is exact on
        # every pixel
        y, x = np.mgrid[0:24, 0:24].astype(float)
        p1, p2 = plane_fit_gradients(2 * x + 3 * y + 1, WindowSpec(w))
        assert np.abs(p1 - 2).max() < 1e-9
        assert np.abs(p2 - 3).max() < 1e-9

    def test_constant_image_zero_gradients(self):
        p1, p2 = plane_fit_gradients(np.full((16, 16), 5.0), WindowSpec(3))
        assert np.all(p1 == 0) and np.all(p2 == 0)

    def test_carrier_matches_central_differences(self):
        # a 2-point stencil lags central differences by half a pixel, a
        # relative deviation of about omega/2; stay in the low-frequency
        # regime where both estimate the same smooth field within 10%
        fringe, _ = carrier_fringe((64, 64), 48.0, 0.6)
        p1, p2 = plane_fit_gradients(fringe, WindowSpec(2))
        gy, gx = np.gradient(fringe)
        inner = np.s_[4:-4, 4:-4]
        scale = np.sqrt(np.mean(gx[inner] ** 2 + gy[inner] ** 2))
        rms = np.sqrt(np.mean((p1[inner] - gx[inner]) ** 2
                              + (p2[inner] - gy[inner]) ** 2))
        assert rms < 0.1 * scale


def shifted_window_starts(n, win):
    """First index of each pixel's w-sample window along one axis: the window
    [i - lo, i + hi] shifted inward to fit [0, n - 1]."""
    return np.clip(np.arange(n) - win.lo, 0, n - win.w)


def cramer_plane_fit(img, win):
    """The 3x3 Cramer solve of the plane-fit normal equations that
    ``plane_fit_gradients`` used before its separable closed form, over the
    absolute window bounds start .. start + w - 1 on each axis."""
    rows, cols = img.shape
    y = np.arange(rows, dtype=np.float64)[:, None]
    x = np.arange(cols, dtype=np.float64)[None, :]

    def index_sums(n):
        lo = shifted_window_starts(n, win).astype(np.float64)
        hi = lo + win.w - 1.0
        count = hi - lo + 1.0
        cube = lambda v: v * (v + 1.0) * (2.0 * v + 1.0) / 6.0
        return count, 0.5 * (lo + hi) * count, cube(hi) - cube(lo - 1.0)

    n_r, sy1, sy2 = (v[:, None] for v in index_sums(rows))
    n_c, sx1, sx2 = (v[None, :] for v in index_sums(cols))
    count = n_r * n_c
    sx = sx1 * n_r - count * x
    sy = sy1 * n_c - count * y
    sxx = (sx2 - 2.0 * x * sx1) * n_r + count * x**2
    syy = (sy2 - 2.0 * y * sy1) * n_c + count * y**2
    sxy = (sx1 - n_c * x) * (sy1 - n_r * y)
    ti = _box_sum(img, win)
    tix = _box_sum(img * x, win) - x * ti
    tiy = _box_sum(img * y, win) - y * ti
    det = (count * (sxx * syy - sxy**2) - sx * (sx * syy - sxy * sy)
           + sy * (sx * sxy - sxx * sy))
    det_p1 = (count * (tix * syy - sxy * tiy) - ti * (sx * syy - sxy * sy)
              + sy * (sx * tiy - tix * sy))
    det_p2 = (count * (sxx * tiy - tix * sxy) - sx * (sx * tiy - tix * sy)
              + ti * (sx * sxy - sxx * sy))
    ok = np.abs(det) > 1e-12 * np.maximum(count, 1.0) ** 3
    safe = np.where(ok, det, 1.0)
    return np.where(ok, det_p1 / safe, 0.0), np.where(ok, det_p2 / safe, 0.0)


def noisy_fringe(shape, seed):
    phase = gen_carrier(shape, CarrierSpec(9.0, 0.4)) + gen_peaks_phase(max(shape), 1.5)[
        : shape[0], : shape[1]]
    return prefilter(add_gaussian_noise(render_fringe(phase), 0.1, seed=seed))


class TestBoxSum:
    @pytest.mark.parametrize("w", [2, 3, 4, 5])
    @pytest.mark.parametrize("shape", [(16, 16), (11, 13), (10, 21)])
    def test_matches_clipped_window_loop(self, shape, w):
        # each window's start is clipped into [0, n - w], so it keeps w x w
        # samples; integer samples make every sum exact, whatever the order
        img = np.random.default_rng(w).integers(-50, 50, shape).astype(np.float64)
        win = WindowSpec(w)
        r0 = shifted_window_starts(shape[0], win)
        c0 = shifted_window_starts(shape[1], win)
        want = np.zeros(shape)
        for i in range(shape[0]):
            for j in range(shape[1]):
                want[i, j] = img[r0[i] : r0[i] + w, c0[j] : c0[j] + w].sum()
        assert np.array_equal(_box_sum(img, win), want)

    @pytest.mark.parametrize("shape", [(16, 16), (37, 91), (256, 256)])
    def test_reference_window_bytes(self, shape):
        # w = 2, every workload's window: the four samples summed in pairs
        img = np.random.default_rng(shape[1]).standard_normal(shape)
        want = (img[:-1, :-1] + img[:-1, 1:]) + (img[1:, :-1] + img[1:, 1:])
        win = WindowSpec(2)
        assert _box_sum(img, win).tobytes() == orientation._edge_pad(want, win).tobytes()


def mod_formula_orientation(gx, gy, win):
    """``_orientation_from_averaged`` as first written, with np.mod: the
    byte oracle of the exact fold."""
    count = win.w * win.w
    c_avg = _box_sum(gx**2 - gy**2, win) / count
    s_avg = _box_sum(2.0 * gx * gy, win) / count
    with np.errstate(over="ignore"):
        valid = c_avg * c_avg + s_avg * s_avg >= 1e-9**2
    alpha = 0.5 * np.arctan2(s_avg, c_avg)
    return np.where(valid, np.mod(np.pi / 2.0 - alpha, np.pi), 0.0), valid


class TestAveragedOrientation:
    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(4, 40), cols=st.integers(4, 40), w=st.integers(2, 5),
           kind=st.sampled_from(ORACLE_KINDS), seed=st.integers(0, 2**32 - 1))
    def test_fold_matches_mod_bytes(self, rows, cols, w, kind, seed):
        gx, gy = oracle_map(kind, (2, rows, cols), seed)
        win = WindowSpec(min(w, rows // 2, cols // 2))
        got = _orientation_from_averaged(gx, gy, win)
        angles, valid = mod_formula_orientation(gx, gy, win)
        assert got.angles.tobytes() == angles.tobytes()
        assert np.array_equal(got.valid, valid)

    # (c, s) averages at the 1e-9 magnitude floor, each with its validity:
    # the floor itself, the float below it, a 3-4-5 vector on it, one whose
    # square underflows to 0 and one whose square overflows to inf
    FLOOR_CASES = [((1e-9, 0.0), True), ((np.nextafter(1e-9, 0.0), 0.0), False),
                   ((6e-10, 8e-10), True), ((1e-170, 0.0), False), ((1e160, 0.0), True)]

    def test_validity_at_the_magnitude_floor(self, monkeypatch):
        # the window sums are replaced by 4 (c, s), so that a 2 px window's
        # averages are (c, s) exactly
        pairs, want = zip(*self.FLOOR_CASES)
        c, s = zip(*pairs)
        sums = iter([4.0 * np.array([c]), 4.0 * np.array([s])])
        monkeypatch.setattr(orientation, "_box_sum", lambda a, win: next(sums))
        got = _orientation_from_averaged(np.zeros((1, 5)), np.zeros((1, 5)), WindowSpec(2))
        assert got.valid.tolist() == [list(want)]

    def test_pi_folds_to_zero(self):
        # 2 * 5e-324 * -0.5 averages to -0.0 over a window, and
        # arctan2(-0.0, c < 0) = -pi puts pi/2 - alpha on pi itself
        gx = np.zeros((8, 8))
        gx[3, 3] = 5e-324
        gy = np.full((8, 8), -0.5)
        win = WindowSpec(2)
        s_avg = _box_sum(2.0 * gx * gy, win) / 4
        assert (np.arctan2(s_avg, -1.0) == -np.pi).any()
        got = _orientation_from_averaged(gx, gy, win)
        angles, _ = mod_formula_orientation(gx, gy, win)
        assert got.angles.tobytes() == angles.tobytes()
        assert not got.angles.any() and not np.signbit(got.angles).any()


def fsum_plane_fit(img, win):
    """Plane-fit slopes sum (j - (w - 1) / 2) * I / d over each pixel's
    shifted window, every sum of products correctly rounded by math.fsum,
    with d = w^2 (w^2 - 1) / 12."""
    w = win.w
    offsets = np.arange(w) - (w - 1) / 2.0
    d = w * w * (w * w - 1) / 12.0
    windows = np.lib.stride_tricks.sliding_window_view(img, (w, w))
    slopes = np.empty((2,) + windows.shape[:2])
    for r, row in enumerate(windows):
        for axis, weights in enumerate((offsets, offsets[:, None])):
            products = (row * weights).reshape(row.shape[0], -1).tolist()
            slopes[axis, r] = [math.fsum(p) / d for p in products]
    at = np.ix_(shifted_window_starts(img.shape[0], win), shifted_window_starts(img.shape[1], win))
    return slopes[0][at], slopes[1][at]


class TestSeparablePlaneFit:
    SHAPES = [(16, 16), (37, 91), (256, 256)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_reference_window_bytes(self, shape):
        # w = 2, every workload's window: each slope is the mean of the
        # window's two differences along its axis
        img = noisy_fringe(shape, seed=3)
        win = WindowSpec(2)
        want_p1 = ((img[:-1, 1:] - img[:-1, :-1]) + (img[1:, 1:] - img[1:, :-1])) / 2
        want_p2 = ((img[1:, :-1] + img[1:, 1:]) - (img[:-1, :-1] + img[:-1, 1:])) / 2
        p1, p2 = plane_fit_gradients(img, win)
        assert p1.tobytes() == orientation._edge_pad(want_p1, win).tobytes()
        assert p2.tobytes() == orientation._edge_pad(want_p2, win).tobytes()

    @pytest.mark.parametrize("w", [2, 3, 5, 17])
    def test_slopes_match_fsum_window_loop(self, w):
        # summed-area tables lose up to 1.7e-11 of the largest slope here
        # to cancellation
        img = noisy_fringe((256, 256), seed=1)
        for got, want in zip(plane_fit_gradients(img, WindowSpec(w)),
                             fsum_plane_fit(img, WindowSpec(w))):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("w", [2, 3, 4, 5])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_slopes_match_cramer(self, shape, w):
        img = noisy_fringe(shape, seed=w)
        for got, want in zip(plane_fit_gradients(img, WindowSpec(w)),
                             cramer_plane_fit(img, WindowSpec(w))):
            # relative to the map's scale: the slopes cancel to near 0 in places
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.array_equal(got == 0, want == 0)

    @pytest.mark.parametrize("w", [2, 3, 4, 5])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_orientation_matches_cramer(self, shape, w):
        img = noisy_fringe(shape, seed=10 + w)
        got = cpfg_orientation(img, WindowSpec(w))
        want = _orientation_from_averaged(*cramer_plane_fit(img, WindowSpec(w)), WindowSpec(w))
        assert np.array_equal(got.valid, want.valid)
        assert circular_orientation_error(got.angles, want.angles).max() < 1e-10


class TestCPFG:
    def test_pure_carrier_near_zero_error(self):
        # peaks coefficient a = 0 reduces to the T=14 carrier
        phase = gen_peaks_phase(64, 0.0) + gen_carrier((64, 64), CarrierSpec(14.0, 0.0))
        gt = ground_truth_orientation(phase)
        fo = cpfg_orientation(prefilter(render_fringe(phase)), WindowSpec(2))
        assert orientation_error(fo, gt, exclude_border=8) < 1e-3

    def test_bigger_window_helps_under_noise(self):
        oes = {2: [], 4: []}
        for seed in range(3):
            phase = gen_carrier((64, 64), CarrierSpec(14.0, 0.9))
            fringe = add_gaussian_noise(render_fringe(phase), 0.1, seed=seed)
            gt = ground_truth_orientation(phase)
            pre = prefilter(fringe)
            for w in (2, 4):
                oes[w].append(orientation_error(cpfg_orientation(pre, WindowSpec(w)), gt, 8))
        assert np.mean(oes[4]) < np.mean(oes[2])

    @pytest.mark.parametrize("size", [128, 192])
    def test_small_frames_fully_covered_and_lift(self, size):
        # every border pixel gets a full fit, so the lift's 0.99 default
        # coverage holds below 200 px too
        phase = gen_peaks_phase(size, 1.5) + gen_carrier((size, size), CarrierSpec(14.0, 0.7))
        fo = cpfg_orientation(prefilter(render_fringe(phase)), WindowSpec(2))
        assert fo.valid.mean() == 1.0
        direction, _ = orientation_to_direction(fo)
        assert np.isfinite(direction).all()

    def test_constant_image_all_invalid(self):
        fo = cpfg_orientation(np.full((32, 32), 1.0), WindowSpec(2))
        assert not fo.valid.any()

    def test_matches_gradient_method_on_planar_input(self):
        y, x = np.mgrid[0:32, 0:32].astype(float)
        img = 0.02 * x + 0.05 * y
        a = gradient_orientation(img, WindowSpec(2))
        b = cpfg_orientation(img, WindowSpec(2))
        inner = np.s_[2:-2, 2:-2]
        err = circular_orientation_error(a.angles[inner], b.angles[inner])
        assert err.max() < 1e-9


class TestEstimatorInvariants:
    @pytest.mark.parametrize("estimator", [gradient_orientation, cpfg_orientation])
    def test_carrier_sweep_interior_error(self, estimator):
        thetas = np.linspace(0, np.pi, 8, endpoint=False)
        for period in (8.0, 32.0):
            for theta in thetas:
                fringe, gt = carrier_fringe((64, 64), period, theta)
                fo = estimator(prefilter(fringe), WindowSpec(2))
                assert orientation_error(fo, gt, exclude_border=8) < 0.02

    @pytest.mark.parametrize("estimator", [gradient_orientation, cpfg_orientation])
    def test_pi_periodicity_under_image_negation(self, estimator):
        # negating the image shifts fringe phase by pi; FO must not move
        phase = gen_peaks_phase(48, 2.0) + gen_carrier((48, 48), CarrierSpec(12.0, 1.1))
        fringe = render_fringe(phase)
        fo = estimator(fringe, WindowSpec(2))
        fo_neg = estimator(-fringe, WindowSpec(2))
        inner = np.s_[4:-4, 4:-4]
        err = circular_orientation_error(fo.angles[inner], fo_neg.angles[inner])
        assert err.max() < 1e-6
