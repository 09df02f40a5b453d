"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The suite trains the
desk-scale network once (session fixture, a few minutes) and reuses it for the
comparative and end-to-end criteria.
"""

import time

import numpy as np
import pytest

from fringeproc.cli import main as cli_main
from fringeproc.container import read_container, write_container
from fringeproc.errors import BadMagicError, TruncatedPayloadError, VersionMismatchError
from fringeproc.hst import demodulate
from fringeproc.maps import (
    OrientationMap,
    circular_direction_error,
    circular_orientation_error,
    decode_orientation,
    encode_orientation,
)
from fringeproc.metrics import orientation_error, rmse_phase
from fringeproc.network import (
    NetworkConfig,
    _forward,
    backward,
    build_network,
    forward,
    infer_orientation,
    load_weights,
    save_weights,
)
from fringeproc.orientation import WindowSpec, cpfg_orientation, gradient_orientation, prefilter
from fringeproc.simulate import (
    CarrierSpec,
    DatasetManifest,
    add_gaussian_noise,
    derive_seed,
    gen_blob_mask_phase,
    gen_carrier,
    gen_peaks_phase,
    ground_truth_direction,
    ground_truth_orientation,
    make_dataset,
    peaks_surface,
    render_fringe,
)
from fringeproc.training import TrainConfig, load_samples, loss_mse, train
from fringeproc.unwrap import orientation_to_direction

pytestmark = pytest.mark.slow


def report(criterion: int, name: str, ok: bool, detail: str, started: float,
           budget_s: float):
    elapsed = time.time() - started
    status = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} [{name}] {status} — {detail} "
          f"({elapsed:.1f}s / budget {budget_s:.0f}s)")
    assert ok, f"criterion {criterion}: {detail}"
    assert elapsed < budget_s, f"criterion {criterion} exceeded {budget_s}s"


def full_map(angles):
    return OrientationMap(angles=np.asarray(angles, float),
                          valid=np.ones(np.shape(angles), dtype=bool))


def test_criterion_01_encoding_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(11)
    angles = rng.uniform(0, np.pi, (100, 100))  # 10^4 samples
    back = decode_orientation(encode_orientation(full_map(angles)))
    err = np.abs(back.angles - angles).max()
    report(1, "encoding round-trip", err < 1e-12, f"max abs error {err:.2e}",
           t0, 1.0)


def test_criterion_02_orientation_error_metric():
    t0 = time.time()
    rng = np.random.default_rng(5)
    ref = full_map(rng.uniform(0, np.pi, (16, 16)))
    exact_zero = orientation_error(ref, ref) == 0.0
    shift_null = max(
        orientation_error(full_map(ref.angles + c), ref)
        for c in rng.uniform(-3, 3, 10)
    )
    hand = orientation_error(full_map([[0.0, np.pi / 2], [0.0, np.pi / 2]]),
                             full_map(np.zeros((2, 2))))
    ok = exact_zero and shift_null < 1e-12 and abs(hand - np.sqrt(1 / 3)) < 1e-9
    report(2, "OE metric", ok,
           f"OE(F,F)={0.0 if exact_zero else 'nonzero'}, "
           f"max OE(F+c,F)={shift_null:.2e}, 2x2 case {hand:.9f} vs sqrt(1/3)",
           t0, 1.0)


def test_criterion_03_carrier_oracle():
    t0 = time.time()
    rng = np.random.default_rng(123)
    worst_gt = 0.0
    worst_oe = 0.0
    for _ in range(32):
        carrier = CarrierSpec(rng.uniform(8, 32), rng.uniform(0, np.pi))
        phase = gen_carrier((64, 64), carrier)
        gt = ground_truth_orientation(phase)
        expected = np.mod(np.pi / 2 - carrier.theta, np.pi)
        worst_gt = max(worst_gt, circular_orientation_error(
            gt.angles[1:-1, 1:-1], expected).max())
        pre = prefilter(render_fringe(phase))
        for estimator in (gradient_orientation, cpfg_orientation):
            fo = estimator(pre, WindowSpec(2))
            worst_oe = max(worst_oe, orientation_error(fo, gt, exclude_border=8))
    ok = worst_gt < 1e-6 and worst_oe < 0.02
    report(3, "carrier oracle", ok,
           f"ground-truth circ err {worst_gt:.2e}, estimator OE {worst_oe:.4f}",
           t0, 30.0)


def test_criterion_04_low_modulation_cpfg():
    t0 = time.time()
    phase = gen_peaks_phase(64, 0.0) + gen_carrier((64, 64), CarrierSpec(14.0, 0.0))
    gt = ground_truth_orientation(phase)
    fo = cpfg_orientation(prefilter(render_fringe(phase)), WindowSpec(2))
    oe = orientation_error(fo, gt, exclude_border=8)
    report(4, "a=0 CPFG error-free", oe < 1e-3, f"OE {oe:.2e}", t0, 5.0)


def test_criterion_05_backprop_correctness():
    t0 = time.time()
    cfg = NetworkConfig(paths=2, filters=2, blocks_per_path=1)
    weights = build_network(cfg, init_seed=7)
    rng = np.random.default_rng(1)
    img = rng.standard_normal((8, 8))
    from fringeproc.maps import OrientationEncoding
    target = OrientationEncoding(sin2=rng.standard_normal((8, 8)),
                                 cos2=rng.standard_normal((8, 8)))
    grads, _, _ = backward(weights, img, target)

    def signature():
        _, caches = _forward(weights, img, record=True)
        parts = []
        for cache in caches["paths"]:
            parts.append((cache["in"] > 0).tobytes())
            for idx, _ in cache["pools"]:
                parts.append(idx.tobytes())
            for blk in cache["blocks"]:
                parts.append((blk["r1"] > 0).tobytes())
                parts.append((blk["out"] > 0).tobytes())
        return b"".join(parts)

    h = 1e-3
    names = list(weights.tensors)
    probe_rng = np.random.default_rng(77)
    checked = 0
    worst = 0.0
    attempts = 0
    while checked < 50 and attempts < 500:
        attempts += 1
        name = names[probe_rng.integers(len(names))]
        flat = weights.tensors[name].ravel()
        i = int(probe_rng.integers(flat.size))
        orig = flat[i]
        flat[i] = orig + h
        sig_p = signature()
        lp = loss_mse(forward(weights, img), target)
        flat[i] = orig - h
        sig_m = signature()
        lm = loss_mse(forward(weights, img), target)
        flat[i] = orig
        if sig_p != sig_m:
            continue  # the FD probe straddles a ReLU/pool kink: not differentiable
        g_fd = (lp - lm) / (2 * h)
        g_an = grads[name].ravel()[i]
        worst = max(worst, abs(g_an - g_fd) / max(abs(g_fd), 1e-8))
        checked += 1
    ok = checked >= 50 and worst < 1e-3
    report(5, "backprop vs finite differences", ok,
           f"{checked} weights checked, worst rel err {worst:.2e}", t0, 60.0)


def test_criterion_06_desk_scale_training(desk_run):
    t0 = time.time()
    history = desk_run.result.history
    best_oe = history[desk_run.result.best_epoch - 1]["val_oe"]
    lrs = [h["lr"] for h in history]
    schedule_ok = (all(lr == pytest.approx(1e-4) for lr in lrs[:5])
                   and all(lr == pytest.approx(2e-5) for lr in lrs[5:10]))
    ok = (best_oe < 0.25 and best_oe < 0.5 * desk_run.untrained_val_oe
          and schedule_ok)
    report(6, "desk-scale training", ok,
           f"val OE {best_oe:.4f} (untrained {desk_run.untrained_val_oe:.4f}), "
           f"lr switches to 2e-5 at epoch 6: {schedule_ok}",
           t0, 30 * 60.0)


def _sweep_case(a, noise_std, seed, weights, size=512):
    """One Fig. 5(a)-style case at the reference 512x512/T=14 geometry."""
    phase = gen_peaks_phase(size, float(a)) + gen_carrier(
        (size, size), CarrierSpec(14.0, 0.0))
    fringe = render_fringe(phase)
    if noise_std > 0:
        fringe = add_gaussian_noise(fringe, noise_std, seed)
    gt = ground_truth_orientation(phase)
    pre = prefilter(fringe)
    oe_cpfg = orientation_error(cpfg_orientation(pre, WindowSpec(2)), gt, 8)
    oe_deep = orientation_error(infer_orientation(weights, pre), gt, 8)
    return oe_cpfg, oe_deep


def test_criterion_07_noise_robustness_sweep(desk_run):
    t0 = time.time()
    a_values = list(range(11))
    cpfg = {}
    deep = {}
    for a in a_values:
        # noise-free cases are RNG-free, hence identical across the 5 seeds;
        # one evaluation equals the 5-seed mean bit-for-bit
        cpfg[(a, 0.0)], deep[(a, 0.0)] = _sweep_case(a, 0.0, 0, desk_run.weights)
        noisy_c, noisy_d = [], []
        for rep in range(5):
            c, d = _sweep_case(a, 0.1, derive_seed(404, a * 8 + rep),
                               desk_run.weights)
            noisy_c.append(c)
            noisy_d.append(d)
        cpfg[(a, 0.1)] = float(np.mean(noisy_c))
        deep[(a, 0.1)] = float(np.mean(noisy_d))
    ordering = all(cpfg[(a, 0.1)] > cpfg[(a, 0.0)] for a in a_values)
    hi = [8, 9, 10]
    deep_hi = float(np.mean([deep[(a, 0.1)] for a in hi]))
    cpfg_hi = float(np.mean([cpfg[(a, 0.1)] for a in hi]))
    escalated = ""
    if deep_hi > cpfg_hi:
        # one-shot escalation to filters=32 before failing, as specified
        wide = desk_run.escalate(filters=32).weights
        deep_hi = float(np.mean([
            _sweep_case(a, 0.1, derive_seed(404, a * 8 + rep), wide)[1]
            for a in hi for rep in range(5)
        ]))
        escalated = " (after filters=32 escalation)"
    ok = ordering and deep_hi <= cpfg_hi
    report(7, "Fig-5a noise robustness", ok,
           f"CPFG noisy>clean at all a: {ordering}; high-modulation noisy OE "
           f"deep {deep_hi:.4f} vs cpfg {cpfg_hi:.4f}{escalated}",
           t0, 45 * 60.0)


def test_criterion_08_orientation_unwrapping():
    t0 = time.time()
    worst = 0.0
    for coeff in (2.0, 5.0):
        truth = coeff * peaks_surface(256)
        fo = full_map(np.mod(truth, np.pi))
        direction, _ = orientation_to_direction(fo)
        inner = np.s_[1:-1, 1:-1]
        same = circular_direction_error(direction, np.mod(truth, 2 * np.pi))
        flip = circular_direction_error(direction, np.mod(truth + np.pi, 2 * np.pi))
        worst = max(worst, min(same[inner].max(), flip[inner].max()))
    report(8, "orientation unwrapping", worst < 1e-6,
           f"max circular error over one global branch {worst:.2e}", t0, 30.0)


def test_criterion_09_hst_with_ground_truth_direction():
    t0 = time.time()
    size = 320
    worst = 0.0
    for a in (0.0, 2.0, 5.0, 10.0):
        phase = gen_peaks_phase(size, a) + gen_carrier(
            (size, size), CarrierSpec(14.0, 0.0))
        fringe = render_fringe(phase)
        _, unwrapped, _ = demodulate(fringe, ground_truth_direction(phase))
        worst = max(worst, rmse_phase(unwrapped, phase, exclude_border=16))
    report(9, "HST demodulation", worst < 0.1,
           f"worst piston-removed RMSE {worst:.4f} rad", t0, 30.0)


def test_criterion_10_end_to_end_pipeline(desk_run):
    t0 = time.time()
    size = 256
    objects = [
        ("peaks", 0.8, 0.0), ("peaks", 1.2, 1.5), ("peaks", 1.5, 2.4),
        ("blob", 2.0, 1.1), ("blob", 3.0, 2.9),
    ]
    details = []
    ok = True
    for kind, amp, theta in objects:
        if kind == "peaks":
            obj = gen_peaks_phase(size, amp)
        else:
            obj = gen_blob_mask_phase((size, size), seed=int(amp * 10),
                                      amplitude=amp)
        phase = obj + gen_carrier((size, size), CarrierSpec(14.0, theta))
        pre = prefilter(render_fringe(phase))
        fo = infer_orientation(desk_run.weights, pre)
        direction, _ = orientation_to_direction(fo)
        _, phi_net, _ = demodulate(pre, direction)
        # the direction branch is global-sign ambiguous: score the better sign
        rmse_net = min(rmse_phase(phi_net, phase, 16),
                       rmse_phase(-phi_net, phase, 16))
        _, phi_gt, _ = demodulate(pre, ground_truth_direction(phase))
        rmse_gt = min(rmse_phase(phi_gt, phase, 16),
                      rmse_phase(-phi_gt, phase, 16))
        ok = ok and rmse_net < 0.3 and rmse_net < 2.0 * rmse_gt
        details.append(f"{kind}/{amp:g}: {rmse_net:.3f} (gt {rmse_gt:.3f})")
    report(10, "end-to-end phase", ok, "; ".join(details), t0, 5 * 60.0)


def test_criterion_11_determinism_and_formats(tmp_path):
    t0 = time.time()
    problems = []

    # dataset regeneration
    m = DatasetManifest(base_seed=5, count=3, rows=16, cols=16)
    make_dataset(m, tmp_path / "d1")
    make_dataset(DatasetManifest(base_seed=5, count=3, rows=16, cols=16),
                 tmp_path / "d2")
    for item in m.items:
        for key in ("fringe", "encoding", "fo"):
            if (tmp_path / "d1" / item[key]).read_bytes() != \
               (tmp_path / "d2" / item[key]).read_bytes():
                problems.append(f"dataset {item[key]} differs")

    # training rerun -> identical history and weight bytes
    samples = load_samples(tmp_path / "d1")
    cfg = NetworkConfig(paths=2, filters=2, blocks_per_path=1)
    tcfg = TrainConfig(initial_lr=1e-3, epochs=2, shuffle_seed=3)
    runs = []
    for name in ("m1.fpaw", "m2.fpaw"):
        result = train(samples[:2], samples[2:], cfg, tcfg)
        save_weights(result.weights, tmp_path / name)
        runs.append((result.history, (tmp_path / name).read_bytes()))
    if runs[0][0] != runs[1][0]:
        problems.append("training histories differ")
    if runs[0][1] != runs[1][1]:
        problems.append("trained weight files differ")

    # benchmark rerun via the CLI
    for name in ("b1.csv", "b2.csv"):
        code = cli_main(["benchmark", "--a-values", "0,1", "--noise-std", "0.1",
                         "--methods", "cpfg", "--reps", "2", "--size", "32",
                         "--seed", "11", "--exclude-border", "4",
                         "--out", str(tmp_path / name)])
        if code != 0:
            problems.append(f"benchmark exit {code}")
    if (tmp_path / "b1.csv").read_bytes() != (tmp_path / "b2.csv").read_bytes():
        problems.append("benchmark CSVs differ")

    # FPAI round trip + distinct corrupt-header errors
    img = np.random.default_rng(0).standard_normal((16, 16)).astype(np.float32)
    write_container(tmp_path / "x.fpai", img.astype(np.float64))
    if not np.array_equal(read_container(tmp_path / "x.fpai"), img.astype(np.float64)):
        problems.append("FPAI round trip not bit-exact")
    good = (tmp_path / "x.fpai").read_bytes()
    for mutate, expected in [
        (lambda b: b"ZZZZ" + b[4:], BadMagicError),
        (lambda b: b[:4] + (9).to_bytes(4, "little") + b[8:], VersionMismatchError),
        (lambda b: b[:-6], TruncatedPayloadError),
    ]:
        (tmp_path / "bad.fpai").write_bytes(mutate(good))
        try:
            read_container(tmp_path / "bad.fpai")
            problems.append(f"{expected.__name__} not raised")
        except expected:
            pass
        except Exception as exc:  # wrong class -> not a distinct error
            problems.append(f"expected {expected.__name__}, got {type(exc).__name__}")

    # FPAW file-level round trip
    w = build_network(cfg, init_seed=1)
    save_weights(w, tmp_path / "w1.fpaw")
    save_weights(load_weights(tmp_path / "w1.fpaw"), tmp_path / "w2.fpaw")
    if (tmp_path / "w1.fpaw").read_bytes() != (tmp_path / "w2.fpaw").read_bytes():
        problems.append("FPAW save/load/save not byte-identical")

    report(11, "determinism & formats", not problems,
           "all reruns byte-identical, corrupt headers rejected distinctly"
           if not problems else "; ".join(problems), t0, 30.0)
