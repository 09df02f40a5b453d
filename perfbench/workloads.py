"""The benchmark's workloads: seeded inputs, one operation, and its output check.

Each workload draws every input from the workload seed during set-up, then
runs one operation at a time (a closed loop with a single client). An
operation is one frame (`pipeline-512`, `classic-256`) or one short training
run (`train-64`). Outputs are checked against the simulator's analytic ground
truth; a failed check counts the operation as failed, it is never dropped.
Functions are called through their module attributes so that the tracer in
``spans.py`` sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
from pathlib import Path

import numpy as np

from fringeproc import cli, hst, orientation, training, unwrap
from fringeproc.container import read_container, write_container
from fringeproc.metrics import rmse_phase
from fringeproc.network import NetworkConfig, build_network
from fringeproc.orientation import WindowSpec
from fringeproc.simulate import (
    CarrierSpec,
    DatasetManifest,
    add_gaussian_noise,
    derive_seed,
    gen_blob_mask_phase,
    gen_carrier,
    gen_peaks_phase,
    ground_truth_orientation,
    make_dataset,
    render_fringe,
    splitmix64,
)
from reference import Reference

MODEL = Path(__file__).resolve().parent / "model" / "desk.fpaw"
MODEL_SHA256 = "9a2b8c3b9df361914dc5539bf5316dff95f0a48490ce7d2524096cd35a980e79"

PERIOD_PX = 14.0  # the paper's reference carrier period
NOISE_STD = 0.1  # pipeline-512, whose network orientation handles it
# classic-256: with CPFG orientation, sigma 0.1 sends the direction lift onto
# the wrong branch on a few percent of frames, even small objects; at 0.05
# none of 400 drawn frames failed (see README.md)
CLASSIC_NOISE_STD = 0.05
# Object amplitudes (peaks coefficient / blob height in rad), drawn uniformly
# over acceptance criterion 10's ranges.
AMPLITUDE = {"peaks": (0.8, 1.5), "blob": (2.0, 3.0)}
RMSE_LIMIT_RAD = 0.3  # acceptance criterion 10
BORDER_PX = 16


def verify_model(path=MODEL) -> None:
    actual = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    if actual != MODEL_SHA256:
        raise SystemExit(f"perfbench: {path} has sha256 {actual}, expected "
                         f"{MODEL_SHA256}; rebuild it with perfbench/model/train_model.py")


def draw_object(seed: int) -> dict:
    """Object kind, amplitude and carrier azimuth of one frame."""
    rng = np.random.Generator(np.random.PCG64(seed))
    kind = "peaks" if rng.random() < 0.5 else "blob"
    return {"object": kind, "a": float(rng.uniform(*AMPLITUDE[kind])),
            "theta": float(rng.uniform(0.0, math.pi)), "seed": seed}


def object_phase(obj: dict, size: int) -> np.ndarray:
    """The analytic phase `fringeproc simulate --mode object` renders."""
    shape = (size, size)
    if obj["object"] == "peaks":
        base = gen_peaks_phase(size, obj["a"])
    else:
        base = gen_blob_mask_phase(shape, seed=obj["seed"], amplitude=obj["a"])
    return base + gen_carrier(shape, CarrierSpec(PERIOD_PX, obj["theta"]))


def phase_error(phase: np.ndarray, truth: np.ndarray) -> float:
    """Piston-free phase RMSE over the better global sign, border excluded."""
    return min(rmse_phase(phase, truth, BORDER_PX), rmse_phase(-phase, truth, BORDER_PX))


def frame_check(phase, truth) -> tuple[bool, float]:
    error = phase_error(phase, truth)
    return bool(np.isfinite(error) and error < RMSE_LIMIT_RAD), error


class Workload:
    """Set-up state plus one operation; subclasses fill in the details."""

    name = ""
    reference: Reference  # timed around each operation; see reference.py
    item = "frame"
    cycle = 1  # operations that always run together: the deadline is checked between cycles
    items_per_op = 1
    frames_per_op = 1
    val_images_per_op = 0

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, output) -> tuple[bool, list[float]]:
        """(passed, quality per frame or training run) of operation i's output."""
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


def write_frame(path: Path, obj: dict, size: int, noise_seed: int) -> np.ndarray:
    """Write a noisy fringe and its ground truth as FPAI files, linked in the
    sidecar as `fringeproc simulate --mode object` links them; returns the
    analytic phase."""
    phase = object_phase(obj, size)
    fringe = add_gaussian_noise(render_fringe(phase), NOISE_STD, seed=noise_seed)
    truth = {"phase": path.stem + "_phase.fpai", "fo": path.stem + "_fo.fpai"}
    write_container(path.with_name(truth["phase"]), phase, meta={"kind": "phase"})
    write_container(path.with_name(truth["fo"]), ground_truth_orientation(phase).angles,
                    meta={"kind": "orientation"})
    write_container(path, fringe, meta={"kind": "fringe", "seed": noise_seed,
                                        "params": obj, "ground_truth": truth})
    return phase


class PipelineFrames(Workload):
    """`fringeproc pipeline` in-process on FPAI frames with linked ground truth.

    Every run times the same two objects, one frame per operation, as one
    cycle: with only two 10 s frames per run, objects drawn per seed would
    move the per-run median by more than the metric's bound. The seed draws
    each frame's noise.
    """

    name = "pipeline-512"
    # acceptance criterion 10's peaks and blob objects
    objects = ({"object": "peaks", "a": 1.2, "theta": 1.5},
               {"object": "blob", "a": 2.0, "theta": 1.1, "seed": 20})
    cycle = len(objects)

    def __init__(self, size=512):
        self.size = size
        # two 512 px unwraps and ~3 s of convolution per frame: a similar mix
        self.reference = Reference(nominal_s=3.5, unwrap_px=384, conv=(512, 0, 3))

    def setup(self, seed, workdir):
        verify_model()
        self.workdir = workdir
        self.noise_seeds = [derive_seed(seed, k) for k in range(len(self.objects))]
        self.fringes = [workdir / f"frame{k}.fpai" for k in range(len(self.objects))]
        self.truth = [write_frame(path, obj, self.size, noise_seed)
                      for path, obj, noise_seed
                      in zip(self.fringes, self.objects, self.noise_seeds)]
        warm = workdir / "warm.fpai"
        write_frame(warm, self.objects[0], 64, 0)
        self._pipeline(warm, workdir / "warm_out", 0)

    def _pipeline(self, fringe, out_dir, seed) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["pipeline", "--fringe", str(fringe), "--model",
                             str(MODEL), "--out-dir", str(out_dir),
                             "--seed", str(seed)])

    def _out_dir(self, i):
        return self.workdir / f"out{i}"

    def run(self, i):
        k = i % self.cycle
        return self._pipeline(self.fringes[k], self._out_dir(i), self.noise_seeds[k])

    def check(self, i, output):
        out_dir = self._out_dir(i)
        try:
            if output != 0:
                return False, [math.nan]
            ok, error = frame_check(read_container(out_dir / "phase.fpai"),
                                    self.truth[i % self.cycle])
            return ok, [error]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def describe(self):
        return {"grid": self.size, "objects": list(self.objects), "noise_std": NOISE_STD,
                "noise_seeds": self.noise_seeds, "model_sha256": MODEL_SHA256}


class ClassicFrames(Workload):
    """README quick-start chain: prefilter -> CPFG -> lift -> demodulate."""

    name = "classic-256"
    size = 256

    def __init__(self, pool=8):
        self.pool = pool
        self.reference = Reference(nominal_s=0.75, unwrap_px=256)  # unwrapping is ~95 % of a frame

    def setup(self, seed, workdir):
        self.objects = [draw_object(derive_seed(seed, i)) for i in range(self.pool)]
        self.truth = [object_phase(obj, self.size) for obj in self.objects]
        self.fringes = [
            add_gaussian_noise(render_fringe(phase), CLASSIC_NOISE_STD,
                               seed=splitmix64(obj["seed"]))
            for obj, phase in zip(self.objects, self.truth)
        ]
        # CPFG leaves a 1 px border invalid: below the lift's default 99 %
        # coverage on a 64 px crop, so the warm-up lowers it
        self._chain(self.fringes[0][:64, :64], min_coverage=0.9)

    @staticmethod
    def _chain(fringe, min_coverage=0.99):
        pre = orientation.prefilter(fringe)
        fo = orientation.cpfg_orientation(pre, WindowSpec(2))
        direction, _ = unwrap.orientation_to_direction(fo, min_coverage)
        _, phase, _ = hst.demodulate(pre, direction)
        return phase

    def run(self, i):
        return self._chain(self.fringes[i % self.pool])

    def check(self, i, output):
        ok, error = frame_check(output, self.truth[i % self.pool])
        return ok, [error]

    def describe(self):
        return {"grid": self.size, "distinct_frames": self.pool,
                "noise_std": CLASSIC_NOISE_STD, "objects": self.objects}


class TrainRuns(Workload):
    """`training.train` from scratch on a seeded dataset, batch 1."""

    name = "train-64"
    item = "training image"
    frames_per_op = 0
    net = NetworkConfig(paths=2, filters=16, blocks_per_path=2)
    size = 64

    def __init__(self, train_images=16, val_images=8, epochs=2):
        self.train_images = train_images
        self.val_images = val_images
        self.epochs = epochs
        self.items_per_op = train_images * epochs
        self.val_images_per_op = val_images * epochs
        # the network is ~99 % of a run
        self.reference = Reference(nominal_s=1.2, conv=(64, 100, 0))

    def setup(self, seed, workdir):
        count = self.train_images + self.val_images
        make_dataset(DatasetManifest(base_seed=seed, count=count, rows=self.size,
                                     cols=self.size), workdir / "dataset")
        samples = training.load_samples(workdir / "dataset")
        self.train_set = samples[:self.train_images]
        self.val_set = samples[self.train_images:]
        self.config = training.TrainConfig(epochs=self.epochs, shuffle_seed=seed)
        untrained = build_network(self.net, splitmix64(self.config.shuffle_seed))
        self.untrained_val_loss, _ = training.evaluate_model(untrained, self.val_set)
        training.train(self.train_set[:2], self.val_set[:1], self.net,
                       training.TrainConfig(epochs=1, shuffle_seed=seed))

    def run(self, i):
        return training.train(self.train_set, self.val_set, self.net, self.config)

    def check(self, i, output):
        history = output.history
        finite = all(math.isfinite(h["train_loss"]) and math.isfinite(h["val_loss"])
                     for h in history)
        final = history[-1]
        return (finite and final["val_loss"] < self.untrained_val_loss,
                [final["val_oe"]])

    def describe(self):
        return {"grid": self.size, "train_images": self.train_images,
                "val_images": self.val_images, "epochs_per_run": self.epochs,
                "batch_size": self.config.batch_size,
                "untrained_val_loss": self.untrained_val_loss}


WORKLOADS = {w.name: w for w in (PipelineFrames, ClassicFrames, TrainRuns)}
