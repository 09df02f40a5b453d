import os
import subprocess
import sys

import numpy as np
import pytest

import fringeproc
from fringeproc.errors import NumericalError
from fringeproc.maps import OrientationMap, circular_direction_error
from fringeproc.simulate import (
    CarrierSpec,
    gen_carrier,
    gen_peaks_phase,
    ground_truth_direction,
    ground_truth_orientation,
    peaks_surface,
)
from fringeproc.unwrap import (
    _stable_argsort,
    orientation_to_direction,
    reliability_map,
    unwrap_phase_2d,
)

TAU = 2 * np.pi


def wrap(phase):
    return np.mod(phase + np.pi, TAU) - np.pi


def full_map(angles):
    return OrientationMap(angles=angles, valid=np.ones_like(angles, dtype=bool))


def branch_error(direction, truth):
    """Max pointwise circular error, minimized over the global pi branch."""
    same = circular_direction_error(direction, np.mod(truth, TAU))
    flip = circular_direction_error(direction, np.mod(truth + np.pi, TAU))
    return min(same.max(), flip.max())


class TestUnwrapPhase2D:
    def test_smooth_input_unchanged(self):
        y, x = np.mgrid[0:32, 0:32] / 32.0
        img = 0.8 * np.sin(2 * np.pi * x) + 0.6 * y  # range < pi peak-to-peak
        assert np.array_equal(unwrap_phase_2d(img), img)

    def test_ramp_oracle(self):
        y, x = np.mgrid[0:64, 0:64].astype(float)
        true = 0.1 * x
        out = unwrap_phase_2d(wrap(true))
        dev = out - true
        assert np.abs(dev - dev[0, 0]).max() < 1e-6
        assert abs(dev[0, 0] / TAU - round(dev[0, 0] / TAU)) < 1e-9

    def test_peaks_surface_oracle(self):
        # neighbor steps of 5*peaks stay below pi from 128x128 upward
        true = gen_peaks_phase(128, 5.0)
        out = unwrap_phase_2d(wrap(true))
        dev = out - true
        assert np.abs(dev - dev[0, 0]).max() < 1e-6

    def test_mod_consistency_even_on_noise(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(-np.pi, np.pi, (32, 32))
        out = unwrap_phase_2d(img)
        residue = np.mod(out - img + np.pi, TAU) - np.pi
        assert np.abs(residue).max() < 1e-9

    def test_anchor_keeps_input_value(self):
        true = gen_peaks_phase(64, 3.0)
        wrapped = wrap(true)
        out = unwrap_phase_2d(wrapped)
        anchor = np.unravel_index(np.argmax(reliability_map(wrapped)), wrapped.shape)
        assert out[anchor] == wrapped[anchor]

    def test_diagonal_ramp(self):
        y, x = np.mgrid[0:48, 0:48].astype(float)
        true = 0.3 * x + 0.22 * y
        out = unwrap_phase_2d(wrap(true))
        dev = out - true
        assert np.abs(dev - dev[0, 0]).max() < 1e-6


def merge_loop_unwrap(wrapped):
    """The reliability-sorted region-merging loop the package used to run.

    Frozen here as the oracle for the spanning-tree unwrap: edges in the
    stable order of decreasing summed reliability, smaller region shifted
    into the larger by the 2*pi multiple that makes the joining pixels agree.
    """
    wrapped = np.asarray(wrapped, dtype=np.float64)
    rows, cols = wrapped.shape
    n = rows * cols
    rel = reliability_map(wrapped).ravel()
    flat = wrapped.ravel()
    idx = np.arange(n).reshape(rows, cols)
    edge_a = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    edge_b = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    order = np.argsort(-(rel[edge_a] + rel[edge_b]), kind="stable")
    comp = np.arange(n)
    members = [[i] for i in range(n)]
    k = np.zeros(n)
    for e in order:
        a = int(edge_a[e])
        b = int(edge_b[e])
        ra, rb = comp[a], comp[b]
        if ra == rb:
            continue
        va = flat[a] + TAU * k[a]
        vb = flat[b] + TAU * k[b]
        shift = np.round((va - vb) / TAU)
        if len(members[ra]) < len(members[rb]):
            ra, rb = rb, ra
            shift = -shift
        moved = members[rb]
        if shift != 0.0:
            k[moved] += shift
        comp[moved] = ra
        members[ra].extend(moved)
        members[rb] = None
    out = flat + TAU * k
    out -= TAU * k[int(np.argmax(rel))]
    return out.reshape(rows, cols)


def golden_maps():
    rng = np.random.default_rng(20231015)
    noisy_peaks = gen_peaks_phase(256, 5.0) + 0.5 * rng.standard_normal((256, 256))
    return {
        "uniform-noise-256": rng.uniform(-np.pi, np.pi, (256, 256)),
        "noisy-peaks-256": wrap(noisy_peaks),
        "noise-37x91": rng.uniform(-np.pi, np.pi, (37, 91)),
        "noise-2xN": rng.uniform(-np.pi, np.pi, (2, 50)),
        "noise-3x3": rng.uniform(-np.pi, np.pi, (3, 3)),
        "constant": np.full((16, 24), 1.25),
        # a tiled block repeats every reliability bit for bit
        "tied": np.tile(rng.uniform(-np.pi, np.pi, (4, 4)), (8, 12)),
    }


class TestAgainstMergeLoop:
    @pytest.mark.parametrize("name", sorted(golden_maps()))
    def test_same_counts_and_anchor(self, name):
        wrapped = golden_maps()[name]
        want = merge_loop_unwrap(wrapped)
        got = unwrap_phase_2d(wrapped)
        np.testing.assert_array_equal(np.round((got - wrapped) / TAU),
                                      np.round((want - wrapped) / TAU))
        assert np.abs(got - want).max() <= 1e-12
        anchor = np.unravel_index(np.argmax(reliability_map(wrapped)), wrapped.shape)
        assert got[anchor] == wrapped[anchor]

    def test_noise_map_has_residues(self):
        # the uniform-noise case exercises a residue-riddled tree, not a smooth one
        wrapped = golden_maps()["uniform-noise-256"]
        counts = np.round((unwrap_phase_2d(wrapped) - wrapped) / TAU)
        assert np.ptp(counts) > 10


def edge_keys(wrapped):
    """The unwrapper's sort keys: -(rel[a] + rel[b]) over the right, then the
    down edges. Border pixels have reliability 0, so their edges key -0.0."""
    rows, cols = wrapped.shape
    rel = reliability_map(wrapped).ravel()
    idx = np.arange(rows * cols).reshape(rows, cols)
    edge_a = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    edge_b = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    return -(rel[edge_a] + rel[edge_b])


class TestStableArgsort:
    @pytest.mark.parametrize("name", ["uniform-noise-256", "tied", "constant"])
    def test_edge_keys_match_stable_argsort(self, name):
        key = edge_keys(golden_maps()[name])
        assert np.any((key == 0.0) & np.signbit(key))  # -0.0 border edges
        np.testing.assert_array_equal(_stable_argsort(key),
                                      np.argsort(key, kind="stable"))

    @pytest.mark.parametrize("size", [0, 1, 2, 50, 1000])
    def test_signed_zeros_tie(self, size):
        key = np.random.default_rng(size).choice([-0.0, 0.0, -1.5, 2.0], size=size)
        np.testing.assert_array_equal(_stable_argsort(key),
                                      np.argsort(key, kind="stable"))


class TestInputValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        wrapped = np.zeros((16, 16))
        wrapped[5, 7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            unwrap_phase_2d(wrapped)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="2D"):
            unwrap_phase_2d(np.zeros(16))

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_empty_map_rejected(self, shape):
        with pytest.raises(ValueError, match="empty"):
            unwrap_phase_2d(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(1, 40), (40, 1), (1, 1)])
    def test_single_row_or_column_unwraps_as_1d(self, shape):
        true = 0.9 * np.arange(shape[0] * shape[1]) + 1.0
        wrapped = wrap(true).reshape(shape)
        out = unwrap_phase_2d(wrapped)
        assert out.shape == shape
        np.testing.assert_allclose(out.ravel(), np.unwrap(wrapped.ravel()), atol=1e-12)


def test_import_leaves_scipy_sparse_out():
    src = os.path.dirname(os.path.dirname(fringeproc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, fringeproc; print('scipy.sparse' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


class TestReliability:
    def test_finite_and_nonnegative(self):
        rng = np.random.default_rng(1)
        rel = reliability_map(rng.uniform(-np.pi, np.pi, (16, 16)))
        assert np.all(np.isfinite(rel)) and np.all(rel >= 0)

    def test_border_deferred(self):
        rel = reliability_map(np.zeros((8, 8)))
        assert np.all(rel[0, :] == 0) and np.all(rel[:, 0] == 0)
        assert rel[1:-1, 1:-1].min() > 0

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (2, 9), (9, 2)])
    def test_no_interior_gives_zeros(self, shape):
        rel = reliability_map(np.ones(shape))
        assert rel.shape == shape and not rel.any()

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            reliability_map(np.zeros((0, 9)))


class TestOrientationToDirection:
    def test_constant_orientation(self):
        fo = full_map(np.full((32, 32), np.pi / 2))
        direction, anchor = orientation_to_direction(fo)
        # either branch of the constant is acceptable
        err = branch_error(direction, np.full((32, 32), np.pi / 2))
        assert err < 1e-12
        assert direction[anchor["row"], anchor["col"]] == anchor["direction"]

    def test_anchor_is_most_reliable_pixel(self):
        truth = 2.0 * peaks_surface(64)
        fo = full_map(np.mod(truth, np.pi))
        _, anchor = orientation_to_direction(fo)
        flat = np.argmax(reliability_map(2.0 * fo.angles))
        assert (anchor["row"], anchor["col"]) == np.unravel_index(flat, fo.shape)

    @pytest.mark.parametrize("coeff", [2.0, 5.0])
    def test_scaled_peaks_direction_field(self, coeff):
        truth = coeff * peaks_surface(256)
        fo = full_map(np.mod(truth, np.pi))
        direction, _ = orientation_to_direction(fo)
        assert branch_error(direction[1:-1, 1:-1], truth[1:-1, 1:-1]) < 1e-6

    def test_step_line_removed(self):
        # direction field crossing pi produces a mod-pi step; output must be smooth
        y, x = np.mgrid[0:64, 0:64].astype(float)
        truth = 2.0 + 0.05 * x + 0.03 * y  # crosses pi around x ~ 23
        fo = full_map(np.mod(truth, np.pi))
        assert np.abs(np.diff(fo.angles, axis=1)).max() > 2.0  # the wrap is there
        direction, _ = orientation_to_direction(fo)
        assert branch_error(direction, truth) < 1e-9

    def test_gradient_direction_field_carrier_dominated(self):
        # open-fringe phase: carrier gradient exceeds the object term everywhere
        phase = gen_peaks_phase(128, 2.0) + gen_carrier((128, 128), CarrierSpec(3.0, 2.8))
        fo = ground_truth_orientation(phase)
        assert fo.valid.all()
        direction, _ = orientation_to_direction(fo)
        truth = ground_truth_direction(phase)
        assert branch_error(direction[1:-1, 1:-1], truth[1:-1, 1:-1]) < 1e-6

    def test_idempotence(self):
        truth = 2.0 * peaks_surface(128)
        d1, _ = orientation_to_direction(full_map(np.mod(truth, np.pi)))
        d2, _ = orientation_to_direction(full_map(np.mod(d1, np.pi)))
        assert branch_error(d2, d1) < 1e-9

    def test_invalid_pixels_inpainted(self):
        # 128 grid keeps the doubled field's neighbor steps below pi
        truth = 2.0 * peaks_surface(128)
        valid = np.ones((128, 128), dtype=bool)
        valid[10, 10] = valid[40, 17] = False
        fo = OrientationMap(angles=np.where(valid, np.mod(truth, np.pi), 0.0),
                            valid=valid)
        direction, _ = orientation_to_direction(fo)
        keep = valid[1:-1, 1:-1]
        same = circular_direction_error(direction, np.mod(truth, TAU))[1:-1, 1:-1]
        flip = circular_direction_error(direction, np.mod(truth + np.pi, TAU))[1:-1, 1:-1]
        assert min(same[keep].max(), flip[keep].max()) < 1e-6

    def test_low_coverage_fails_with_number(self):
        valid = np.zeros((32, 32), dtype=bool)
        valid[:16] = True
        fo = OrientationMap(angles=np.zeros((32, 32)), valid=valid)
        with pytest.raises(NumericalError, match="0.50"):
            orientation_to_direction(fo)
