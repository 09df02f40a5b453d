import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fringeproc
from fringeproc import hst, orientation, unwrap
from fringeproc.errors import NumericalError
from fringeproc.maps import OrientationMap
from fringeproc.metrics import rmse_phase
from fringeproc.simulate import (
    CarrierSpec,
    add_gaussian_noise,
    derive_seed,
    gen_carrier,
    gen_peaks_phase,
    ground_truth_direction,
    ground_truth_orientation,
    peaks_surface,
    render_fringe,
    splitmix64,
)
from fringeproc.unwrap import (
    _heaviest_edges,
    _nearest_valid,
    orientation_to_direction,
    reliability_map,
    unwrap_phase_2d,
)
from oracles import circular_direction_error

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

    # Repeated values repeat reliabilities bit for bit, so pixels tie between
    # several of their edges. No two values differ by an odd multiple of pi:
    # at an exact half-cycle step the merge loop, which rounds differences of
    # unwrapped values, and the tree, which rounds wrapped ones, may pick
    # different (equally valid) counts.
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 9), cols=st.integers(1, 9))
    def test_tie_heavy_small_maps(self, data, rows, cols):
        wrapped = data.draw(hnp.arrays(
            np.float64, (rows, cols),
            elements=st.sampled_from([0.0, 1.0, -2.0, 2.5, -3.0, 3.0])))
        got = unwrap_phase_2d(wrapped)
        want = merge_loop_unwrap(wrapped)
        np.testing.assert_array_equal(np.round((got - wrapped) / TAU),
                                      np.round((want - wrapped) / TAU))
        anchor = np.unravel_index(np.argmax(reliability_map(wrapped)), wrapped.shape)
        assert got[anchor] == wrapped[anchor]

    def test_mirrored_ties(self):
        # Negating a map and mirroring it about a column keeps every
        # reliability, so a pixel on that column ties its left and right edges
        # (transposed: up and down). Residues mirror with the same sign, so the
        # trees such a tie allows can give different counts: a seeded sweep,
        # since only about 2 % of these maps tell the trees apart.
        rng = np.random.default_rng(7)
        values = np.array([0.0, 1.0, -2.0, 2.5, -3.0, 3.0])
        for trial in range(2000):
            rows, half = rng.integers(1, 10), rng.integers(0, 5)
            left = rng.choice(values, (rows, half))
            mid = rng.choice(values)
            wrapped = np.hstack([left, np.full((rows, 1), mid), 2.0 * mid - left[:, ::-1]])
            if trial % 2:
                wrapped = wrapped.T
            got = unwrap_phase_2d(wrapped)
            want = merge_loop_unwrap(wrapped)
            np.testing.assert_array_equal(np.round((got - wrapped) / TAU),
                                          np.round((want - wrapped) / TAU))

    def test_later_round_ties(self, monkeypatch):
        # Mirrored maps as above, 16 to 48 pixels a side. The mirror column's
        # ties now join components the grid round has already grown: a tie
        # rule that takes the highest edge index in the later rounds fails on
        # 17 of these 40 maps, but on none of 300 maps drawn pixel by pixel
        # from the same values. Every Borůvka round hooks once.
        rounds = []
        hook = unwrap._hook

        def counting(*args):
            rounds[-1] += 1
            return hook(*args)

        monkeypatch.setattr(unwrap, "_hook", counting)
        rng = np.random.default_rng(11)
        values = np.array([0.0, 1.0, -2.0, 2.5, -3.0, 3.0])
        for trial in range(40):
            rows, half = rng.integers(16, 49), rng.integers(8, 24)
            left = rng.choice(values, (rows, half))
            mid = rng.choice(values)
            wrapped = np.hstack([left, np.full((rows, 1), mid), 2.0 * mid - left[:, ::-1]])
            if trial % 2:
                wrapped = wrapped.T
            rounds.append(0)
            got = unwrap_phase_2d(wrapped)
            want = merge_loop_unwrap(wrapped)
            np.testing.assert_array_equal(np.round((got - wrapped) / TAU),
                                          np.round((want - wrapped) / TAU))
            anchor = np.unravel_index(np.argmax(reliability_map(wrapped)), wrapped.shape)
            assert got[anchor] == wrapped[anchor]
        assert max(rounds) >= 3

    def test_traced_peak_at_256(self):
        # sorting every edge by weight held about 17x the map's bytes at once;
        # keeping only the edges the grid round leaves between components,
        # sorting none of them and freeing each array before the next gather
        # takes about 7.1x, with 8-byte indices
        wrapped = golden_maps()["uniform-noise-256"]
        tracemalloc.start()
        try:
            unwrap_phase_2d(wrapped)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7.5 * wrapped.nbytes


def grid_round_loop(wrapped):
    """The grid round's level (to, offset) and count, pixel by pixel.

    Each pixel picks the first of its left, right, up and down edges at the
    largest summed reliability. A pixel is a root when its neighbour picked
    it back and it is the edge's first end; every other pixel hangs under its
    pick. offset is the pixel's 2*pi count minus its root's, the sum of the
    steps round((wrapped[pick] - wrapped[pixel]) / 2*pi) up to the root, and
    to is the rank of that root among the roots.
    """
    rows, cols = wrapped.shape
    rel = reliability_map(wrapped).ravel().tolist()
    flat = wrapped.ravel().tolist()
    pick, step = [], []
    for p in range(rows * cols):
        r, c = divmod(p, cols)
        best, q = -np.inf, None
        for nb, inside in ((p - 1, c > 0), (p + 1, c < cols - 1),
                           (p - cols, r > 0), (p + cols, r < rows - 1)):
            if inside and rel[p] + rel[nb] > best:
                best, q = rel[p] + rel[nb], nb
        pick.append(q)
        step.append(round((flat[q] - flat[p]) / TAU))
    roots = [p for p, q in enumerate(pick) if pick[q] == p and p < q]
    to, offset = [], []
    for p in range(rows * cols):
        total = 0
        while p not in roots:
            total += step[p]
            p = pick[p]
        to.append(roots.index(p))
        offset.append(total)
    return (np.array(to), np.array(offset, dtype=np.float64)), len(roots)


class TestGridRound:
    VALUES = [0.0, 1.0, -2.0, 2.5, -3.0, 3.0]  # the tie alphabet of the merge-loop tests

    @staticmethod
    def check(wrapped):
        (to, offset), count = unwrap._grid_round(reliability_map(wrapped), wrapped.ravel())
        (want_to, want_offset), want_count = grid_round_loop(wrapped)
        assert count == want_count
        assert to.dtype == np.intp
        np.testing.assert_array_equal(to, want_to)
        np.testing.assert_array_equal(offset, want_offset)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 9), cols=st.integers(1, 9))
    def test_tie_heavy_small_maps(self, data, rows, cols):
        assume(rows * cols > 1)  # a 1x1 map has no edge and no grid round
        self.check(data.draw(hnp.arrays(np.float64, (rows, cols),
                                        elements=st.sampled_from(self.VALUES))))

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 2), (2, 1), (2, 2)])
    def test_thin_and_two_by_two_maps(self, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        for _ in range(50):
            self.check(rng.choice(self.VALUES, shape))


def test_unwrap_cost_prints_time_and_peak():
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "unwrap_cost.py")
    rows = [line.split() for line in subprocess.run(
        [sys.executable, script, "64"], capture_output=True, text=True, check=True,
    ).stdout.splitlines()]
    assert [row[:2] for row in rows] == [["64", "noisy-peaks"], ["64", "uniform-noise"]]
    for _, _, ms, peak in rows:
        assert float(ms) > 0 and float(peak) > 1


def edge_weights(wrapped):
    """Ends and weights rel[a] + rel[b] of the right, then the down edges."""
    rows, cols = wrapped.shape
    rel = reliability_map(wrapped).ravel()
    idx = np.arange(rows * cols).reshape(rows, cols)
    edge_a = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    edge_b = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    return edge_a, edge_b, rel[edge_a] + rel[edge_b]


def first_in_merge_order(count, comp_a, comp_b, weight):
    """Each component's first edge in np.argsort(-weight, kind="stable"), the
    order the merge loop walks; weight.size for a component with no edge."""
    order = np.argsort(-weight, kind="stable")
    rank = np.empty(weight.size, dtype=np.int64)
    rank[order] = np.arange(weight.size)
    first = np.full(count, weight.size)
    np.minimum.at(first, comp_a, rank)
    np.minimum.at(first, comp_b, rank)
    return np.append(order, weight.size)[first]


class TestHeaviestEdges:
    @pytest.mark.parametrize("name", ["uniform-noise-256", "tied", "constant"])
    def test_edge_keys_match_stable_argsort(self, name):
        # every pixel its own component, as in the grid round
        wrapped = golden_maps()[name]
        edge_a, edge_b, weight = edge_weights(wrapped)
        assert np.unique(weight).size < weight.size  # ties, if only on the border
        np.testing.assert_array_equal(_heaviest_edges(wrapped.size, edge_a, edge_b, weight),
                                      first_in_merge_order(wrapped.size, edge_a, edge_b, weight))

    @pytest.mark.parametrize("size", [0, 1, 2, 50, 1000])
    def test_signed_zeros_tie(self, size):
        rng = np.random.default_rng(size)
        weight = rng.choice([-0.0, 0.0, -1.5, 2.0], size=size)
        comp_a = rng.integers(0, 6, size)
        comp_b = (comp_a + rng.integers(1, 6, size)) % 6
        np.testing.assert_array_equal(_heaviest_edges(6, comp_a, comp_b, weight),
                                      first_in_merge_order(6, comp_a, comp_b, weight))


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


SRC = os.path.dirname(os.path.dirname(fringeproc.__file__))


def test_import_leaves_scipy_sparse_out():
    # no scipy module at all, scipy.sparse included, after the package and CLI
    code = ("import sys, fringeproc, fringeproc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


SCIPY_BLOCKED = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())

import numpy as np
from fringeproc import cli
from fringeproc.container import read_container
from fringeproc.hst import demodulate
from fringeproc.maps import OrientationMap
from fringeproc.orientation import WindowSpec, cpfg_orientation, prefilter
from fringeproc.unwrap import orientation_to_direction

out = sys.argv[1]
# a blob object renders through the sigma-3 gaussian_blur
assert cli.main(["simulate", "--mode", "object", "--object", "blob", "--rows", "64",
                 "--cols", "64", "--out", out]) == 0
fringe = read_container(out)
fo = cpfg_orientation(prefilter(fringe), WindowSpec(2))
valid = fo.valid.copy()
valid[20:24, 30:33] = valid[-1] = False
direction, _ = orientation_to_direction(OrientationMap(fo.angles, valid), min_coverage=0.9)
demodulate(prefilter(fringe), direction)
try:
    cli.main(["--help"])
except SystemExit as exc:
    assert exc.code == 0
assert not any(m.split(".")[0] == "scipy" for m in sys.modules)
print("ok")
"""


def test_runs_with_scipy_blocked(tmp_path):
    # every stage that once called scipy.ndimage: the blob blur, prefilter's
    # sigma-0.5 blur, the inpainting of invalid pixels; plus CPFG, HST and --help
    result = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED, str(tmp_path / "blob.fpai")],
                            env=dict(os.environ, PYTHONPATH=SRC),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "ok"


# Value families of the byte-identity oracles: uniform samples, multiples of
# pi, whose wrapped differences land on the +-pi tie, and a tie alphabet.
ORACLE_KINDS = ("uniform", "pi", "ties")


def oracle_map(kind, shape, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(-10.0, 10.0, shape)
    if kind == "pi":
        return rng.integers(-3, 4, shape) * np.pi
    return rng.choice([0.0, 1.0, -2.0, 2.5, -3.0, 3.0], shape)


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

    @pytest.mark.parametrize("shape", [(3, 3), (3, 50), (50, 3), (37, 91), (64, 64)])
    def test_matches_per_stencil_wraps_bytes(self, shape):
        rng = np.random.default_rng(sum(shape))
        for wrapped in (rng.uniform(-10.0, 10.0, shape),
                        np.round(rng.uniform(-3.0, 3.0, shape)) * np.pi):  # +-pi ties
            assert reliability_map(wrapped).tobytes() == per_stencil_reliability(wrapped).tobytes()

    # the flat passes wrap their stencils around the row ends of the first
    # and last column: 1-3 px sides put every pixel on or next to a border
    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 40), cols=st.integers(1, 40),
           kind=st.sampled_from(ORACLE_KINDS), seed=st.integers(0, 2**32 - 1))
    @example(rows=1, cols=1, kind="uniform", seed=0)
    @example(rows=2, cols=40, kind="ties", seed=1)
    @example(rows=3, cols=3, kind="pi", seed=2)
    @example(rows=40, cols=3, kind="ties", seed=3)
    @example(rows=3, cols=40, kind="uniform", seed=4)
    def test_flat_passes_match_per_stencil_bytes(self, rows, cols, kind, seed):
        wrapped = oracle_map(kind, (rows, cols), seed)
        assert reliability_map(wrapped).tobytes() == per_stencil_reliability(wrapped).tobytes()

    def test_traced_peak_at_256(self):
        # the map itself, then one difference and one work buffer, each a
        # little under a map long
        wrapped = np.random.default_rng(8).uniform(-np.pi, np.pi, (256, 256))
        tracemalloc.start()
        try:
            reliability_map(wrapped)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.1 * wrapped.nbytes


def per_stencil_reliability(wrapped):
    """``reliability_map`` as it was first written: two fresh wraps per
    second difference, eight full-size temporaries per map."""
    def wrap_diff(d):
        return d - 2.0 * np.pi * np.floor(d / (2.0 * np.pi) + 0.5)

    rows, cols = wrapped.shape
    d2 = np.zeros((rows, cols))
    if rows < 3 or cols < 3:  # no pixel has the full stencil
        return d2
    center = wrapped[1:-1, 1:-1]
    total = np.zeros((rows - 2, cols - 2))
    for dr, dc in ((0, 1), (1, 0), (1, 1), (1, -1)):
        before = wrapped[1 - dr : rows - 1 - dr, 1 - dc : cols - 1 - dc]
        after = wrapped[1 + dr : rows - 1 + dr, 1 + dc : cols - 1 + dc]
        total += (wrap_diff(before - center) - wrap_diff(center - after)) ** 2
    d2[1:-1, 1:-1] = 1.0 / (total + 1e-30)
    return d2


class TestOrientationToDirection:
    def test_constant_orientation(self):
        fo = full_map(np.full((32, 32), np.pi / 2))
        direction, anchor = orientation_to_direction(fo)
        # either branch of the constant is acceptable
        err = branch_error(direction, np.full((32, 32), np.pi / 2))
        assert err < 1e-12
        assert direction[anchor["row"], anchor["col"]] == anchor["direction"]

    def test_direction_is_orientation_or_opposite_in_range(self):
        # FO just below pi: FO + pi rounds to 2*pi there, and so did np.mod
        # of the halved unwrapped angle; 2*pi folds to 0
        y, x = np.mgrid[0:64, 0:64].astype(float)
        rng = np.random.default_rng(5)
        for _ in range(200):
            angles = np.mod(0.2 * x + 0.05 * y, np.pi)
            angles[rng.random(angles.shape) < 0.05] = np.nextafter(np.pi, 0.0)
            direction, _ = orientation_to_direction(full_map(angles))
            assert ((direction >= 0.0) & (direction < TAU)).all()
            opposite = angles + np.pi
            assert ((direction == angles) | (direction == opposite)
                    | ((direction == 0.0) & (opposite == TAU))).all()

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

    def test_cpfg_invalid_border_inpainted(self):
        # an invalid last row and column
        truth = 2.0 * peaks_surface(128)
        valid = np.ones((128, 128), dtype=bool)
        valid[-1] = valid[:, -1] = False
        fo = OrientationMap(angles=np.where(valid, np.mod(truth, np.pi), 0.0),
                            valid=valid)
        direction, _ = orientation_to_direction(fo, min_coverage=0.98)
        same = circular_direction_error(direction, np.mod(truth, TAU))
        flip = circular_direction_error(direction, np.mod(truth + np.pi, TAU))
        err = same if same[1:-1, 1:-1].max() < flip[1:-1, 1:-1].max() else flip
        assert err[1:-1, 1:-1].max() < 1e-6
        # each border pixel takes the angle of its nearest valid neighbour
        np.testing.assert_allclose(
            circular_direction_error(direction[-1, :-1], direction[-2, :-1]), 0.0, atol=1e-12)
        np.testing.assert_allclose(
            circular_direction_error(direction[:-1, -1], direction[:-1, -2]), 0.0, atol=1e-12)
        assert circular_direction_error(direction[-1, -1], direction[-2, -2]) < 1e-12

    def test_no_valid_pixel_fails(self):
        # with the coverage check off, an all-invalid map has nothing to lift
        fo = OrientationMap(angles=np.full((8, 8), 0.3), valid=np.zeros((8, 8), dtype=bool))
        with pytest.raises(NumericalError, match="no valid pixel"):
            orientation_to_direction(fo, min_coverage=0.0)

    def test_low_coverage_fails_with_number(self):
        valid = np.zeros((32, 32), dtype=bool)
        valid[:16] = True
        fo = OrientationMap(angles=np.zeros((32, 32)), valid=valid)
        with pytest.raises(NumericalError, match="0.50"):
            orientation_to_direction(fo)


def test_classic_chain_call_counts(monkeypatch):
    """The classic chain estimates CPFG once, unwraps once, computes
    reliabilities twice and runs one quadrature per frame: the lift unwraps
    through ``_spanning_tree_unwrap``, the demodulation through
    ``hst.unwrap_phase_2d``. Benchmark traces count these calls through the
    same module attributes."""
    calls = {}

    def counting(module, name):
        inner = getattr(module, name)
        key = f"{module.__name__}.{name}"
        calls[key] = 0

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(unwrap, "reliability_map")
    counting(unwrap, "unwrap_phase_2d")
    counting(hst, "unwrap_phase_2d")
    counting(hst, "quadrature")
    counting(orientation, "cpfg_orientation")
    phase = gen_carrier((64, 64), CarrierSpec(14.0, 0.7)) + gen_peaks_phase(64, 1.2)
    fringe = add_gaussian_noise(render_fringe(phase), 0.05, seed=3)
    pre = orientation.prefilter(fringe)
    fo = orientation.cpfg_orientation(pre, orientation.WindowSpec(2))
    direction, _ = unwrap.orientation_to_direction(fo, min_coverage=0.9)
    hst.demodulate(pre, direction)
    assert calls == {"fringeproc.unwrap.reliability_map": 2,
                     "fringeproc.unwrap.unwrap_phase_2d": 0,
                     "fringeproc.hst.unwrap_phase_2d": 1,
                     "fringeproc.hst.quadrature": 1,
                     "fringeproc.orientation.cpfg_orientation": 1}


@pytest.mark.xfail(strict=True, reason="the lift flips the direction's branch over part "
                   "of these frames; a noise-robust lift quality is the fix")
@pytest.mark.parametrize("seed, frame", [(8506, 4), (1070, 0)])
def test_classic_chain_frames_the_lift_flips(seed, frame):
    """Two noisy 256 px peaks frames, drawn as the classic-chain benchmark
    draws its objects, that the chain prefilter -> CPFG (w 2) -> lift ->
    demodulate misses by 0.49 and 2.91 rad, against its 0.3 rad bound."""
    object_seed = derive_seed(seed, frame)
    rng = np.random.Generator(np.random.PCG64(object_seed))
    rng.random()  # the object-kind draw: peaks for both frames
    a = rng.uniform(0.8, 1.5)
    theta = rng.uniform(0.0, np.pi)
    truth = gen_peaks_phase(256, a) + gen_carrier((256, 256), CarrierSpec(14.0, theta))
    fringe = add_gaussian_noise(render_fringe(truth), 0.05, seed=splitmix64(object_seed))
    pre = orientation.prefilter(fringe)
    direction, _ = orientation_to_direction(
        orientation.cpfg_orientation(pre, orientation.WindowSpec(2)))
    _, phase, _ = hst.demodulate(pre, direction)
    assert min(rmse_phase(phase, truth, 16), rmse_phase(-phase, truth, 16)) < 0.3


def oracle_masks():
    """Validity masks with at least one valid pixel: random, holes, an invalid
    border, tie-heavy lattices and a single valid pixel."""
    rng = np.random.default_rng(21)
    masks = []
    for _ in range(40):
        masks.append(rng.random(tuple(rng.integers(1, 48, 2))) < rng.uniform(0.02, 0.98))
    for _ in range(30):
        mask = np.ones(tuple(rng.integers(8, 64, 2)), dtype=bool)
        for _ in range(rng.integers(1, 4)):
            r0, c0 = rng.integers(0, mask.shape[0]), rng.integers(0, mask.shape[1])
            h, w = rng.integers(1, 24, 2)
            mask[r0 : r0 + h, c0 : c0 + w] = False
        masks.append(mask)
    for _ in range(30):
        mask = rng.random(tuple(rng.integers(2, 48, 2))) < 0.9
        mask[-1] = mask[:, -1] = False
        if rng.random() < 0.5:
            mask[0] = mask[:, 0] = False
        masks.append(mask)
    for _ in range(40):
        mask = np.zeros(tuple(rng.integers(1, 48, 2)), dtype=bool)
        step_r, step_c = rng.integers(1, 8, 2)
        mask[rng.integers(0, step_r) :: step_r, rng.integers(0, step_c) :: step_c] = True
        masks.append(mask)
    for _ in range(30):
        mask = np.zeros(tuple(rng.integers(1, 48, 2)), dtype=bool)
        mask[rng.integers(0, mask.shape[0]), rng.integers(0, mask.shape[1])] = True
        masks.append(mask)
    return [m for m in masks if m.any()]


def test_nearest_valid_indices_equal_distance_transform_edt():
    ndimage = pytest.importorskip("scipy.ndimage")
    for valid in oracle_masks():
        want = ndimage.distance_transform_edt(~valid, return_distances=False,
                                              return_indices=True)
        got = _nearest_valid(valid)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), valid
