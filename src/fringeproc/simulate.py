"""Synthetic fringe patterns with analytically known phase and ground truth.

Fringe model: I(x, y) = cos(phi_obj + phi_carrier) with uniform background and
unit amplitude. Object phases come from random Gaussian bumps (training family),
the classic peaks surface, or blurred random-ellipse masks (generalization
families). All generation is seed-deterministic; per-item seeds derive from the
manifest base seed through SplitMix64.
"""

from __future__ import annotations

import numbers
import shutil
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .container import parse_json_object, write_container, write_json
from .errors import FormatError
from .image import as_real_image, gaussian_blur
from .maps import OrientationMap, encode_orientation

MASK64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4A7C15

# the training family's ranges, fixed by the paper
KERNEL_COUNT_RANGE = (1, 50)  # Gaussian bumps per object, inclusive
SIGMA_FRACTION_RANGE = (0.05, 0.25)  # bump sigma, as a fraction of the shorter side
AMPLITUDE_RANGE = (-8.0, 8.0)  # bump amplitude, rad
PERIOD_RANGE = (8.0, 32.0)  # carrier period, px
THETA_RANGE = (0.0, np.pi)  # carrier azimuth, rad

DEGENERATE_GRADIENT_EPS = 1e-9  # |dphi/dx| + |dphi/dy| below it has no orientation

MANIFEST_VERSION = 2  # version 1 also listed the items and the ranges; both read


def splitmix64(x: int) -> int:
    """One SplitMix64 output step; the documented seed-mixing function."""
    x = (x + GOLDEN64) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_seed(base_seed: int, index: int) -> int:
    """Per-item seed: SplitMix64 of base_seed xor (index+1)*golden ratio."""
    return splitmix64((base_seed ^ (((index + 1) * GOLDEN64) & MASK64)) & MASK64)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def gaussian_samples(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normals via Box-Muller over the generator's uniform stream."""
    n = int(np.prod(shape))
    pairs = (n + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    u1 = np.maximum(u1, np.finfo(np.float64).tiny)  # guard log(0)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2),
                        radius * np.sin(2.0 * np.pi * u2)])
    return z[:n].reshape(shape)


@dataclass(frozen=True)
class CarrierSpec:
    """Carrier fringes of period T pixels and azimuth theta in [0, pi)."""

    period_T: float
    theta: float

    def __post_init__(self):
        if not self.period_T > 2:
            raise ValueError("carrier period must exceed 2 px (Nyquist)")
        if not (0 <= self.theta < np.pi):
            raise ValueError("theta must lie in [0, pi)")


def gen_carrier(shape, carrier: CarrierSpec) -> np.ndarray:
    """phi_carrier(x, y) = x*cos(theta)*2*pi/T + y*sin(theta)*2*pi/T."""
    rows, cols = shape
    x, y = np.arange(cols, dtype=np.float64), np.arange(rows, dtype=np.float64)[:, None]
    k = 2.0 * np.pi / carrier.period_T
    return x * np.cos(carrier.theta) * k + y * np.sin(carrier.theta) * k


def gen_object_phase_gaussians(shape, seed: int) -> np.ndarray:
    """Sum of random 2D Gaussian bumps: A_k * exp(-((x-cx)^2+(y-cy)^2)/(2*sigma^2)).

    Count, sigma and amplitude are uniform over KERNEL_COUNT_RANGE,
    SIGMA_FRACTION_RANGE of min(rows, cols) and AMPLITUDE_RANGE; centers are
    uniform inside the image.
    """
    rows, cols = shape
    m = min(rows, cols)
    rng = make_rng(seed)
    lo, hi = KERNEL_COUNT_RANGE
    x, y = np.arange(cols, dtype=np.float64), np.arange(rows, dtype=np.float64)[:, None]
    phase = np.zeros((rows, cols))
    for _ in range(int(rng.integers(lo, hi + 1))):
        cx = rng.uniform(0, cols - 1)
        cy = rng.uniform(0, rows - 1)
        sigma = rng.uniform(SIGMA_FRACTION_RANGE[0] * m, SIGMA_FRACTION_RANGE[1] * m)
        amplitude = rng.uniform(*AMPLITUDE_RANGE)
        phase += amplitude * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * sigma**2))
    return phase


def peaks_surface(size: int) -> np.ndarray:
    """The classic peaks surface on X, Y in [-3, 3] mapped linearly over the grid."""
    coords = np.linspace(-3.0, 3.0, size)
    x, y = coords, coords[:, None]
    return (
        3.0 * (1.0 - x) ** 2 * np.exp(-(x**2) - (y + 1.0) ** 2)
        - 10.0 * (x / 5.0 - x**3 - y**5) * np.exp(-(x**2) - y**2)
        - (1.0 / 3.0) * np.exp(-((x + 1.0) ** 2) - y**2)
    )


def gen_peaks_phase(size: int, coeff_a: float) -> np.ndarray:
    """Peaks surface scaled by coeff_a; the simulated-comparison object phase."""
    if coeff_a < 0:
        raise ValueError("coeff_a must be non-negative")
    return coeff_a * peaks_surface(size)


def gen_blob_mask_phase(shape, seed: int, amplitude: float) -> np.ndarray:
    """Blurred union of 1-5 random ellipses, scaled to [0, amplitude]."""
    if amplitude < 0:
        raise ValueError("amplitude must be non-negative")
    rows, cols = shape
    rng = make_rng(seed)
    count = int(rng.integers(1, 6))
    x, y = np.arange(cols, dtype=np.float64), np.arange(rows, dtype=np.float64)[:, None]
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


def render_fringe(phase: np.ndarray) -> np.ndarray:
    """I = cos(phase); values in [-1, 1]."""
    return np.cos(as_real_image(phase))


def add_gaussian_noise(img: np.ndarray, std: float, seed: int) -> np.ndarray:
    """i.i.d. zero-mean Gaussian noise; std = 0 returns the input bit-exactly."""
    if std < 0:
        raise ValueError("std must be non-negative")
    img = as_real_image(img)
    if std == 0:
        return img
    rng = make_rng(seed)
    return img + std * gaussian_samples(rng, img.shape)


def ground_truth_orientation(phase: np.ndarray) -> OrientationMap:
    """FO = atan2(dphi/dx, dphi/dy) mod pi from finite-difference phase gradients.

    Pixels with |dphi/dx| + |dphi/dy| below DEGENERATE_GRADIENT_EPS are
    invalid. FO reduces through the mod-2*pi value of ``ground_truth_direction``,
    so FO = beta mod pi bit-exactly wherever FO is valid.
    """
    gy, gx = np.gradient(as_real_image(phase))
    valid = (np.abs(gx) + np.abs(gy)) >= DEGENERATE_GRADIENT_EPS
    angles = np.mod(np.mod(np.arctan2(gx, gy), 2.0 * np.pi), np.pi)
    return OrientationMap(angles=np.where(valid, angles, 0.0), valid=valid)


def ground_truth_direction(phase: np.ndarray) -> np.ndarray:
    """beta = atan2(dphi/dx, dphi/dy) mod 2*pi (same argument order, full circle)."""
    gy, gx = np.gradient(as_real_image(phase))
    return np.mod(np.arctan2(gx, gy), 2.0 * np.pi)


# --------------------------------------------------------------------------
# Seeded dataset generation


@dataclass(frozen=True)
class DatasetManifest:
    """Reproducible description of a simulated fringe corpus.

    Regenerating from the manifest is byte-identical within one implementation;
    per-item seeds derive from base_seed via the documented SplitMix64 mixing.
    """

    base_seed: int
    count: int
    rows: int = 64
    cols: int = 64
    noise_std: float = 0.0

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral)
                   for v in (self.base_seed, self.count, self.rows, self.cols)):
            raise TypeError("base_seed, count, rows and cols must be integers")
        if self.count <= 0:
            raise ValueError("count must be positive")
        if min(self.rows, self.cols) < 2:
            raise ValueError("rows and cols must be at least 2")
        if not self.noise_std >= 0:
            raise ValueError("noise_std must be non-negative")

    @property
    def items(self):
        """Each item's index, derived seed and file names, generated in order."""
        for i in range(self.count):
            yield {"index": i, "seed": derive_seed(self.base_seed, i),
                   **{key: f"item_{i:04d}_{key}.fpai" for key in ("fringe", "encoding", "fo")}}

    def to_json(self) -> dict:
        return {"format": "fringeproc-dataset", "version": MANIFEST_VERSION,
                **{f.name: getattr(self, f.name) for f in fields(self)}}

    @classmethod
    def from_json(cls, data) -> "DatasetManifest":
        """Rebuild a manifest from ``to_json``'s output, version 1 or 2.

        Raises FormatError for anything else: a value that is not a dataset
        manifest object, another version, or a missing or malformed field.
        Other keys, such as version 1's item list and ranges, are ignored.
        """
        if not isinstance(data, dict) or data.get("format") != "fringeproc-dataset":
            raise FormatError("not a dataset manifest")
        if data.get("version") not in (1, MANIFEST_VERSION):
            raise FormatError(f"unknown manifest version {data.get('version')!r}")
        try:
            return cls(**{f.name: data[f.name] for f in fields(cls)})
        except KeyError as exc:
            raise FormatError(f"manifest lacks {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise FormatError(f"malformed manifest field ({exc})") from exc


def simulate_item(manifest: DatasetManifest, index: int):
    """Generate one (fringe, encoding, orientation) triple from its derived seed.

    Draw order from the item RNG is fixed: carrier period, carrier azimuth,
    object-phase kernels, then (optionally) noise.
    """
    item_seed = derive_seed(manifest.base_seed, index)
    rng = make_rng(item_seed)
    period = rng.uniform(*PERIOD_RANGE)
    theta = rng.uniform(*THETA_RANGE)
    shape = (manifest.rows, manifest.cols)
    phase = gen_carrier(shape, CarrierSpec(period_T=period, theta=theta))
    phase += gen_object_phase_gaussians(shape, seed=splitmix64(item_seed))
    fringe = add_gaussian_noise(render_fringe(phase), manifest.noise_std,
                                seed=splitmix64(item_seed ^ 1))
    fo = ground_truth_orientation(phase)
    return fringe, encode_orientation(fo), fo, {"period_T": period, "theta": theta}


def make_dataset(manifest: DatasetManifest, out_dir) -> Path:
    """Write the corpus described by the manifest; returns the manifest path.

    If the call fails, the directories it created are removed with everything
    in them; a directory that already existed keeps the items written before
    the failure."""
    out_dir = Path(out_dir)
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        for item in manifest.items:
            fringe, enc, fo, params = simulate_item(manifest, item["index"])
            images = (("fringe", fringe, "fringe"), ("encoding", enc.to_array(), "encoding"),
                      ("fo", fo.angles, "orientation"))
            for key, data, kind in images:
                write_container(out_dir / item[key], data,
                                meta={"kind": kind, "seed": item["seed"], "params": params})
        manifest_path = out_dir / "manifest.json"
        write_json(manifest_path, manifest.to_json())
    except BaseException:
        if created:
            shutil.rmtree(created[-1], ignore_errors=True)
        raise
    return manifest_path


def load_manifest(path) -> DatasetManifest:
    """Read a dataset manifest; FormatError for anything that is not one."""
    data = parse_json_object(Path(path).read_bytes(), path)
    try:
        return DatasetManifest.from_json(data)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
