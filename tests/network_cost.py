"""Time and trace the network's passes on a seeded desk-shaped net.

    python tests/network_cost.py [SIZE ...]

The net has the shape of ``perfbench/model/desk.fpaw`` (two paths, 16
filters, two residual blocks per path), with Glorot weights from seed
20231015; inputs are standard-normal frames from the same seed. For each SIZE
(default 512) it runs the float32 ``forward`` on a SIZE x SIZE frame, then it
runs the float64 ``backward`` once at 64 x 64. It prints one
``size  pass  median_ms  peak_act`` row per pass: the median wall time of
repeated passes (more repeats for smaller frames) and the ``tracemalloc``
peak of one more pass in activations, one activation being 16 channels of the
frame in the pass's dtype.

The package comes from the ``src`` directory beside this file's directory,
so two checkouts' numbers compare directly when run on the same machine. The
script is not a pytest module; ``test_network.py`` runs it once at 64 px as a
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

from fringeproc.maps import OrientationEncoding  # noqa: E402
from fringeproc.network import NetworkConfig, backward, build_network, forward  # noqa: E402

SEED = 20231015
DESK = NetworkConfig(paths=2, filters=16, blocks_per_path=2)
BACKWARD_SIZE = 64


def cost(run, pixels: int, itemsize: int) -> tuple[float, float]:
    """(median seconds, tracemalloc peak in activations) of ``run()``."""
    repeats = max(3, min(25, 2**21 // pixels))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return statistics.median(times), peak / (DESK.filters * pixels * itemsize)


def main(argv: list[str]) -> None:
    weights = build_network(DESK, SEED)
    rng = np.random.default_rng(SEED)
    passes = []
    for size in map(int, argv or ["512"]):
        img = rng.standard_normal((size, size)).astype(np.float32)
        passes.append((size, "forward-f32", lambda img=img: forward(weights, img), 4))
    n = BACKWARD_SIZE
    img = rng.standard_normal((n, n))
    target = OrientationEncoding(sin2=rng.standard_normal((n, n)),
                                 cos2=rng.standard_normal((n, n)))
    passes.append((n, "backward-f64", lambda: backward(weights, img, target), 8))
    for size, name, run, itemsize in passes:
        seconds, peak = cost(run, size * size, itemsize)
        print(f"{size}  {name}  {1e3 * seconds:.2f}  {peak:.2f}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
