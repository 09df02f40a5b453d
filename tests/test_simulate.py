import json
import math
import tracemalloc

import numpy as np
import pytest

from fringeproc.container import write_json
from fringeproc.errors import FormatError
from fringeproc.image import gaussian_blur
from fringeproc.maps import (
    OrientationEncoding,
    OrientationMap,
    decode_orientation,
    encode_orientation,
)
from fringeproc.simulate import (
    AMPLITUDE_RANGE,
    KERNEL_COUNT_RANGE,
    SIGMA_FRACTION_RANGE,
    CarrierSpec,
    DatasetManifest,
    add_gaussian_noise,
    derive_seed,
    gen_blob_mask_phase,
    gen_carrier,
    gen_object_phase_gaussians,
    gen_peaks_phase,
    ground_truth_direction,
    ground_truth_orientation,
    load_manifest,
    make_dataset,
    make_rng,
    peaks_surface,
    render_fringe,
)
from oracles import circular_orientation_error


def traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of one call fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The generators' full-grid formulas, kept as byte oracles: the generators
# evaluate each term that depends on one axis over that axis alone and
# broadcast it, which must not change a single output byte.
def oracle_peaks(size):
    coords = np.linspace(-3.0, 3.0, size)
    x, y = np.meshgrid(coords, coords)
    return (
        3.0 * (1.0 - x) ** 2 * np.exp(-(x**2) - (y + 1.0) ** 2)
        - 10.0 * (x / 5.0 - x**3 - y**5) * np.exp(-(x**2) - y**2)
        - (1.0 / 3.0) * np.exp(-((x + 1.0) ** 2) - y**2)
    )


def oracle_carrier(shape, carrier):
    rows, cols = shape
    y, x = np.mgrid[0:rows, 0:cols].astype(np.float64)
    k = 2.0 * np.pi / carrier.period_T
    return x * np.cos(carrier.theta) * k + y * np.sin(carrier.theta) * k


def oracle_gaussian_bumps(shape, seed):
    rows, cols = shape
    m = min(rows, cols)
    rng = make_rng(seed)
    count = int(rng.integers(KERNEL_COUNT_RANGE[0], KERNEL_COUNT_RANGE[1] + 1))
    y, x = np.mgrid[0:rows, 0:cols].astype(np.float64)
    phase = np.zeros((rows, cols))
    for _ in range(count):
        cx = rng.uniform(0, cols - 1)
        cy = rng.uniform(0, rows - 1)
        sigma = rng.uniform(SIGMA_FRACTION_RANGE[0] * m, SIGMA_FRACTION_RANGE[1] * m)
        amplitude = rng.uniform(*AMPLITUDE_RANGE)
        phase += amplitude * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * sigma**2))
    return phase


def oracle_blob(shape, seed, amplitude):
    rows, cols = shape
    rng = make_rng(seed)
    count = int(rng.integers(1, 6))
    y, x = np.mgrid[0:rows, 0:cols].astype(np.float64)
    mask = np.zeros((rows, cols), dtype=bool)
    for _ in range(count):
        cx = rng.uniform(0.2 * cols, 0.8 * cols)
        cy = rng.uniform(0.2 * rows, 0.8 * rows)
        ax = rng.uniform(0.1 * cols, 0.3 * cols)
        ay = rng.uniform(0.1 * rows, 0.3 * rows)
        angle = rng.uniform(0, np.pi)
        dx, dy = x - cx, y - cy
        u = dx * np.cos(angle) + dy * np.sin(angle)
        v = -dx * np.sin(angle) + dy * np.cos(angle)
        mask |= (u / ax) ** 2 + (v / ay) ** 2 <= 1.0
    blurred = gaussian_blur(mask.astype(np.float64), sigma=3.0)
    top = blurred.max()
    if top <= 0:
        return np.zeros((rows, cols))
    return amplitude * blurred / top


# odd, even and non-square grids, either way round
ORACLE_SHAPES = [(8, 8), (31, 31), (65, 65), (128, 135), (135, 128), (255, 255)]
ORACLE_SEEDS = [0, 7, 2024]


class TestBytesMatchFullGridOracles:
    @pytest.mark.parametrize("size", [8, 31, 64, 65, 255, 256, 512])
    def test_peaks(self, size):
        assert np.array_equal(peaks_surface(size), oracle_peaks(size))

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_carrier(self, shape):
        for period, theta in [(14.0, 0.0), (8.0, 0.7), (31.7, 1.5), (14.0, 3.1)]:
            carrier = CarrierSpec(period, theta)
            assert np.array_equal(gen_carrier(shape, carrier), oracle_carrier(shape, carrier))

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_blob(self, shape):
        for seed in ORACLE_SEEDS:
            assert np.array_equal(gen_blob_mask_phase(shape, seed, 2.5),
                                  oracle_blob(shape, seed, 2.5))

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_gaussian_bumps(self, shape):
        for seed in ORACLE_SEEDS:
            assert np.array_equal(gen_object_phase_gaussians(shape, seed),
                                  oracle_gaussian_bumps(shape, seed))


class TestGeneratorMemory:
    OUTPUT_BYTES = 512 * 512 * 8

    def test_carrier_peak(self):
        # the parent's full coordinate grids peaked at 4.0 outputs
        peak = traced_peak(gen_carrier, (512, 512), CarrierSpec(14.0, 0.7))
        assert peak <= 1.5 * self.OUTPUT_BYTES

    def test_gaussian_object_peak(self):
        # 5.0 outputs with full coordinate grids
        peak = traced_peak(gen_object_phase_gaussians, (512, 512), 12)
        assert peak <= 3.5 * self.OUTPUT_BYTES


class TestCarrier:
    def test_one_full_period(self):
        phase = gen_carrier((8, 16), CarrierSpec(14.0, 0.0))
        assert np.isclose(phase[0, 14], 2 * np.pi)

    def test_no_y_dependence_at_theta_zero(self):
        phase = gen_carrier((128, 8), CarrierSpec(14.0, 0.0))
        assert phase[123, 0] == 0.0

    def test_direct_evaluation(self):
        phase = gen_carrier((10, 10), CarrierSpec(14.0, np.pi / 2))
        assert np.isclose(phase[7, 5], 7 * 2 * np.pi / 14)  # = pi

    def test_nyquist_guard(self):
        with pytest.raises(ValueError, match="Nyquist"):
            CarrierSpec(2.0, 0.0)


class TestGaussianPhase:
    def test_seed_determinism(self):
        a = gen_object_phase_gaussians((32, 32), seed=99)
        b = gen_object_phase_gaussians((32, 32), seed=99)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, gen_object_phase_gaussians((32, 32), seed=100))


class TestPeaks:
    def test_zero_coefficient(self):
        assert np.all(gen_peaks_phase(32, 0.0) == 0)

    def test_center_value(self):
        # p(0, 0) = 3/e - 1/(3e) = (8/3)/e
        phase = gen_peaks_phase(65, 1.0)
        assert np.isclose(phase[32, 32], (8.0 / 3.0) / math.e, atol=1e-12)

    def test_scalar_linearity(self):
        one = gen_peaks_phase(32, 1.0)
        assert np.array_equal(gen_peaks_phase(32, 2.0), 2 * one)


class TestBlobMask:
    def test_zero_amplitude(self):
        assert np.all(gen_blob_mask_phase((32, 32), seed=5, amplitude=0.0) == 0)

    def test_range_scaled_to_amplitude(self):
        phase = gen_blob_mask_phase((48, 48), seed=5, amplitude=3.0)
        assert phase.min() >= 0.0
        assert np.isclose(phase.max(), 3.0)

    def test_determinism(self):
        a = gen_blob_mask_phase((32, 32), seed=7, amplitude=2.0)
        b = gen_blob_mask_phase((32, 32), seed=7, amplitude=2.0)
        assert np.array_equal(a, b)


class TestRenderAndNoise:
    def test_cos_of_constants(self):
        assert np.all(render_fringe(np.zeros((8, 8))) == 1.0)
        assert np.allclose(render_fringe(np.full((8, 8), np.pi)), -1.0)

    def test_half_period_column(self):
        fringe = render_fringe(gen_carrier((8, 16), CarrierSpec(14.0, 0.0)))
        assert np.allclose(fringe[:, 7], np.cos(np.pi))
        assert fringe.min() >= -1.0 and fringe.max() <= 1.0

    def test_zero_std_bit_exact(self):
        img = np.linspace(0, 1, 64).reshape(8, 8)
        assert np.array_equal(add_gaussian_noise(img, 0.0, seed=1), img)

    def test_noise_sample_statistics(self):
        # law-of-large-numbers oracle on a 512x512 draw
        img = np.zeros((512, 512))
        noisy = add_gaussian_noise(img, 0.1, seed=11)
        delta = noisy - img
        assert abs(delta.std() - 0.1) < 0.005
        assert abs(delta.mean()) < 0.005

    def test_noise_determinism(self):
        img = np.zeros((32, 32))
        assert np.array_equal(add_gaussian_noise(img, 0.5, seed=3),
                              add_gaussian_noise(img, 0.5, seed=3))


class TestGroundTruthMaps:
    def test_carrier_theta_zero_gives_half_pi(self):
        fo = ground_truth_orientation(gen_carrier((32, 32), CarrierSpec(14.0, 0.0)))
        assert fo.valid.all()
        assert np.allclose(fo.angles[1:-1, 1:-1], np.pi / 2, atol=1e-12)

    @pytest.mark.parametrize("theta", [0.1, 0.9, 1.7, 2.6])
    @pytest.mark.parametrize("period", [8.0, 14.0, 31.0])
    def test_carrier_orientation_matches_analytic(self, period, theta):
        fo = ground_truth_orientation(gen_carrier((32, 32), CarrierSpec(period, theta)))
        expected = np.mod(np.pi / 2 - theta, np.pi)
        err = circular_orientation_error(fo.angles[1:-1, 1:-1], expected)
        assert err.max() < 1e-6

    def test_constant_phase_all_invalid(self):
        fo = ground_truth_orientation(np.full((16, 16), 1.0))
        assert not fo.valid.any()

    def test_direction_of_linear_field_exact_everywhere(self):
        # the one-sided border stencils are also exact on a plane
        y, x = np.mgrid[0:20, 0:24].astype(float)
        beta = ground_truth_direction(1.25 * x - 0.75 * y)
        assert np.all(beta == np.mod(np.arctan2(1.25, -0.75), 2 * np.pi))

    def test_direction_of_carrier_exact_everywhere(self):
        # phase of a T=14, theta=0 carrier: d/dx = 2*pi/14, d/dy = 0
        y, x = np.mgrid[0:16, 0:16].astype(float)
        assert np.all(ground_truth_direction(x * 2 * np.pi / 14) == np.pi / 2)

    def test_direction_stencil_central_inside_one_sided_at_edges(self):
        # d/dx of x^2 / 2: central differences give x exactly inside, the
        # one-sided edge stencils 0.5 and n - 1.5; d/dy of 3y is 3 everywhere
        n = 12
        y, x = np.mgrid[0:10, 0:n].astype(float)
        gx = np.concatenate([[0.5], np.arange(1.0, n - 1), [n - 1.5]])
        want = np.broadcast_to(np.mod(np.arctan2(gx, 3.0), 2 * np.pi), y.shape)
        assert np.array_equal(ground_truth_direction(x**2 / 2 + 3 * y), want)

    def test_direction_carrier(self):
        beta = ground_truth_direction(gen_carrier((32, 32), CarrierSpec(14.0, 0.0)))
        assert np.allclose(beta[1:-1, 1:-1], np.pi / 2)

    def test_negated_phase_shifts_direction_by_pi(self):
        phase = gen_peaks_phase(32, 3.0) + gen_carrier((32, 32), CarrierSpec(9.0, 1.0))
        beta = ground_truth_direction(phase)
        beta_neg = ground_truth_direction(-phase)
        fo = ground_truth_orientation(phase)
        d = np.mod(beta_neg - beta, 2 * np.pi)
        assert np.allclose(d[fo.valid], np.pi, atol=1e-9)

    def test_direction_mod_pi_equals_orientation(self):
        phase = gen_peaks_phase(32, 2.0) + gen_carrier((32, 32), CarrierSpec(11.0, 0.4))
        fo = ground_truth_orientation(phase)
        beta = ground_truth_direction(phase)
        assert np.array_equal(np.mod(beta, np.pi)[fo.valid], fo.angles[fo.valid])


class TestEncoding:
    @pytest.mark.parametrize("angle,expected", [
        (0.0, (0.0, 1.0)),
        (np.pi / 4, (1.0, 0.0)),
        (np.pi / 2, (0.0, -1.0)),
    ])
    def test_encode_special_angles(self, angle, expected):
        fo = OrientationMap(angles=np.full((4, 4), angle),
                            valid=np.ones((4, 4), dtype=bool))
        enc = encode_orientation(fo)
        assert np.allclose(enc.sin2, expected[0], atol=1e-12)
        assert np.allclose(enc.cos2, expected[1], atol=1e-12)

    def test_invalid_pixels_encode_as_zero_one(self):
        fo = OrientationMap(angles=np.full((2, 2), 1.0),
                            valid=np.array([[True, False], [True, True]]))
        enc = encode_orientation(fo)
        assert enc.sin2[0, 1] == 0.0 and enc.cos2[0, 1] == 1.0

    def test_decode_special_values(self):
        enc = OrientationEncoding(sin2=np.array([[0.0, 0.6]]),
                                  cos2=np.array([[1.0, 0.8]]))
        fo = decode_orientation(enc)
        assert fo.angles[0, 0] == 0.0
        assert np.isclose(fo.angles[0, 1], math.atan2(0.6, 0.8) / 2)

    def test_decode_marks_low_magnitude_invalid(self):
        enc = OrientationEncoding(sin2=np.array([[1e-4]]), cos2=np.array([[1e-4]]))
        assert not decode_orientation(enc).valid[0, 0]

    @pytest.mark.parametrize("angle", [0.1, 1.0, 2.5, 3.0])
    def test_round_trip_specific(self, angle):
        fo = OrientationMap(angles=np.full((2, 2), angle),
                            valid=np.ones((2, 2), dtype=bool))
        back = decode_orientation(encode_orientation(fo))
        assert np.abs(back.angles - angle).max() < 1e-12

    def test_decode_bytes_match_out_of_place_formula(self):
        rng = np.random.default_rng(3)
        for dtype in (np.float64, np.float32):
            s = rng.standard_normal((64, 64)).astype(dtype)
            c = rng.standard_normal((64, 64)).astype(dtype)
            s[:4], c[:4] = 3e-4, -0.0  # weak pixels, under the magnitude floor
            s[4], c[5] = -0.0, 0.0  # signed zeros on either channel
            s[6, ::2] = -s[6, ::2]
            fo = decode_orientation(OrientationEncoding(sin2=s, cos2=c))
            valid = s**2 + c**2 >= 1e-6
            want = np.where(valid, np.mod(0.5 * np.arctan2(s, c), np.pi), 0.0)
            assert fo.angles.dtype == want.dtype
            assert fo.angles.tobytes() == want.tobytes()
            assert np.array_equal(fo.valid, valid) and not valid[:4].any()

    def test_decode_fold_edges_match_mod(self):
        # atan2 / 2 at +-0.0, +-pi/2 and -1e-300, whose fold rounds to pi
        s = np.array([[0.0, -0.0, 0.0, -0.0, -2e-300, 2e-300]])
        c = np.array([[1.0, 1.0, -1.0, -1.0, 1.0, 1.0]])
        fo = decode_orientation(OrientationEncoding(sin2=s, cos2=c))
        half = 0.5 * np.arctan2(s, c)
        assert half.tobytes() == np.array([[0.0, -0.0, np.pi / 2, -np.pi / 2,
                                            -1e-300, 1e-300]]).tobytes()
        want = np.mod(half, np.pi)
        assert fo.angles.tobytes() == want.tobytes()
        assert fo.angles[0, 4] == np.pi and not np.signbit(fo.angles).any()

    def test_decode_peak_memory(self):
        # two float64 maps at most: the out-of-place formula peaked at 25 MiB
        rng = np.random.default_rng(4)
        enc = OrientationEncoding(sin2=rng.standard_normal((1024, 1024)),
                                  cos2=rng.standard_normal((1024, 1024)))
        assert traced_peak(decode_orientation, enc) <= 17 * 2**20

    def test_round_trip_uniform_sweep(self):
        angles = np.linspace(0, np.pi, 2048, endpoint=False).reshape(32, 64)
        fo = OrientationMap(angles=angles, valid=np.ones_like(angles, dtype=bool))
        back = decode_orientation(encode_orientation(fo))
        assert circular_orientation_error(back.angles, angles).max() < 1e-12


class TestDataset:
    def test_items_derive_from_seed_and_count(self):
        items = list(DatasetManifest(base_seed=5, count=3).items)
        assert [item["index"] for item in items] == [0, 1, 2]
        assert items[2] == {"index": 2, "seed": derive_seed(5, 2),
                            "fringe": "item_0002_fringe.fpai",
                            "encoding": "item_0002_encoding.fpai",
                            "fo": "item_0002_fo.fpai"}

    def test_manifest_size_does_not_grow_with_count(self, tmp_path):
        lines = []
        for count in (2, 200):
            path = tmp_path / f"m{count}.json"
            write_json(path, DatasetManifest(base_seed=5, count=count).to_json())
            lines.append(len(path.read_text().splitlines()))
        assert lines[0] == lines[1] < 12

    @pytest.mark.parametrize("version", [0, 3, "2", None])
    def test_unknown_manifest_version_is_format_error(self, tmp_path, version):
        path = tmp_path / "manifest.json"
        write_json(path, {**DatasetManifest(base_seed=5, count=2).to_json(),
                          "version": version})
        with pytest.raises(FormatError, match="version"):
            load_manifest(path)

    def test_manifest_json_sorted_and_rerun_identical(self, tmp_path):
        manifest = DatasetManifest(base_seed=5, count=2, rows=16, cols=16)
        a = make_dataset(manifest, tmp_path / "a")
        b = make_dataset(DatasetManifest(base_seed=5, count=2, rows=16, cols=16),
                         tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()
        data = json.loads(a.read_text())
        assert list(data) == sorted(data)
        assert load_manifest(a) == manifest

    def test_regeneration_bit_identical(self, tmp_path):
        manifest = DatasetManifest(base_seed=5, count=2, rows=16, cols=16)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        make_dataset(manifest, d1)
        make_dataset(DatasetManifest(base_seed=5, count=2, rows=16, cols=16), d2)
        for item in manifest.items:
            for key in ("fringe", "encoding", "fo"):
                assert (d1 / item[key]).read_bytes() == (d2 / item[key]).read_bytes()

    def test_fringe_range_noise_free(self, tmp_path):
        from fringeproc.container import read_container
        manifest = DatasetManifest(base_seed=8, count=3, rows=16, cols=16)
        make_dataset(manifest, tmp_path / "ds")
        for item in manifest.items:
            arr = read_container(tmp_path / "ds" / item["fringe"])
            assert arr.min() >= -1.0 - 1e-6 and arr.max() <= 1.0 + 1e-6

    def test_noisy_fringe_tail_bound(self, tmp_path):
        from fringeproc.container import read_container
        std = 0.1
        manifest = DatasetManifest(base_seed=8, count=4, rows=32, cols=32,
                                   noise_std=std)
        make_dataset(manifest, tmp_path / "ds")
        total = outliers = 0
        for item in manifest.items:
            arr = read_container(tmp_path / "ds" / item["fringe"])
            total += arr.size
            outliers += np.sum((arr < -1 - 4 * std) | (arr > 1 + 4 * std))
        assert outliers / total < 1e-3  # 4-sigma Gaussian tail, asserted softly

    def test_unserialisable_manifest_leaves_no_file(self, tmp_path):
        # a numpy integer builds the items but is not JSON
        manifest = DatasetManifest(base_seed=3, count=1, rows=np.int64(16), cols=16)
        with pytest.raises(TypeError):
            make_dataset(manifest, tmp_path / "ds")
        assert not (tmp_path / "ds" / "manifest.json").exists()
        assert not list((tmp_path / "ds").glob("*.tmp"))

    def test_failed_dataset_removes_only_the_directories_it_created(self, tmp_path):
        # noise float32 cannot hold fails the first fringe
        manifest = DatasetManifest(base_seed=3, count=2, rows=16, cols=16, noise_std=1e39)
        with pytest.raises(FormatError, match="float32"):
            make_dataset(manifest, tmp_path / "new" / "ds")
        assert not (tmp_path / "new").exists()
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "keep.txt").write_text("kept")
        with pytest.raises(FormatError, match="float32"):
            make_dataset(manifest, tmp_path / "old")
        assert [p.name for p in (tmp_path / "old").iterdir()] == ["keep.txt"]

    def test_derived_seeds_are_stable(self):
        # the documented SplitMix64 mixing must not drift between runs
        assert derive_seed(0, 0) == derive_seed(0, 0)
        assert derive_seed(0, 0) != derive_seed(0, 1)
        assert derive_seed(1, 0) != derive_seed(0, 0)

    def test_manifest_validation(self):
        with pytest.raises(ValueError):
            DatasetManifest(base_seed=1, count=0)
        with pytest.raises(ValueError):
            DatasetManifest(base_seed=1, count=1, noise_std=-0.1)
        with pytest.raises(ValueError):
            DatasetManifest(base_seed=1, count=1, rows=1)
        with pytest.raises(TypeError):
            DatasetManifest(base_seed=1.5, count=1)
