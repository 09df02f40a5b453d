"""Time and trace the spanning-tree unwrap on fixed seeded maps.

    python tests/unwrap_cost.py [SIZE ...]

For each SIZE (default 256) it unwraps two SIZE x SIZE maps with
``unwrap._spanning_tree_unwrap``: a wrapped peaks surface with Gaussian noise
(σ 0.5 rad) and uniform noise over [-pi, pi), both drawn from seed 20231015.
It prints one ``size  map  median_ms  peak_x`` row per map: the median wall
time of repeated unwraps (more repeats for smaller maps) and the
``tracemalloc`` peak of one more unwrap as a multiple of the map's bytes.

The package comes from the ``src`` directory beside this file's directory,
so two checkouts' numbers compare directly when run on the same machine. The
script is not a pytest module; ``test_unwrap.py`` runs it once at 64 px as a
smoke test.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fringeproc.simulate import gen_peaks_phase  # noqa: E402
from fringeproc.unwrap import _spanning_tree_unwrap  # noqa: E402


def maps(size: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20231015)
    peaks = gen_peaks_phase(size, 5.0) + 0.5 * rng.standard_normal((size, size))
    return {
        "noisy-peaks": np.mod(peaks + np.pi, 2 * np.pi) - np.pi,
        "uniform-noise": rng.uniform(-np.pi, np.pi, (size, size)),
    }


def cost(wrapped: np.ndarray) -> tuple[float, float]:
    """(median seconds, tracemalloc peak over the map's bytes) of one unwrap."""
    repeats = max(3, min(25, 2**22 // wrapped.size))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _spanning_tree_unwrap(wrapped)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        _spanning_tree_unwrap(wrapped)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return statistics.median(times), peak / wrapped.nbytes


def main(argv: list[str]) -> None:
    for size in map(int, argv or ["256"]):
        for name, wrapped in maps(size).items():
            seconds, peak = cost(wrapped)
            print(f"{size}  {name}  {1e3 * seconds:.2f}  {peak:.2f}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
