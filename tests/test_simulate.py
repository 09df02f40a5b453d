import json
import math

import numpy as np
import pytest

from fringeproc.container import write_json
from fringeproc.errors import FormatError
from fringeproc.maps import (
    OrientationEncoding,
    OrientationMap,
    circular_orientation_error,
    decode_orientation,
    encode_orientation,
)
from fringeproc.simulate import (
    CarrierSpec,
    DatasetManifest,
    GaussianKernelSpec,
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
    render_fringe,
    render_gaussian_kernels,
)


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
    def test_zero_kernels(self):
        phase = render_gaussian_kernels((16, 16), [])
        assert np.all(phase == 0)

    def test_single_kernel_direct_evaluation(self):
        k = GaussianKernelSpec(cx=20, cy=20, sigma=10.0, amplitude=1.0)
        phase = render_gaussian_kernels((41, 41), [k])
        assert np.isclose(phase[20, 20], 1.0)
        assert np.isclose(phase[20, 30], np.exp(-0.5))  # 10 px = one sigma away

    def test_two_identical_kernels_double(self):
        k = GaussianKernelSpec(cx=10, cy=12, sigma=4.0, amplitude=-2.0)
        one = render_gaussian_kernels((32, 32), [k])
        two = render_gaussian_kernels((32, 32), [k, k])
        assert np.array_equal(two, 2 * one)

    def test_seed_determinism(self):
        a = gen_object_phase_gaussians((32, 32), seed=99)
        b = gen_object_phase_gaussians((32, 32), seed=99)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, gen_object_phase_gaussians((32, 32), seed=100))

    def test_center_outside_bounds_rejected(self):
        with pytest.raises(ValueError, match="bounds"):
            render_gaussian_kernels((8, 8), [GaussianKernelSpec(50, 2, 1.0, 1.0)])


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
