"""Reproduce the `pipeline-512` workload's model, `desk.fpaw`.

The configuration is the acceptance suite's desk-scale fixture: 200 training
and 50 validation images at 64x64 (dataset seeds 2024 and 9090), two paths,
16 filters, two residual blocks per path, ten epochs at batch 1, shuffle seed
7. It takes a few minutes on one core, which is why the benchmark ships the
trained file instead of training it during set-up.

    python3 perfbench/model/train_model.py --workdir <work dir>

writes `perfbench/model/desk.fpaw` and prints its sha256; the benchmark's
set-up refuses any other file (see `MODEL_SHA256` in `perfbench/workloads.py`).
BLAS is pinned to one thread so that the float reductions, and therefore the
file's bytes, do not depend on the machine's core count.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import argparse
import hashlib
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from fringeproc.network import NetworkConfig, save_weights  # noqa: E402
from fringeproc.simulate import DatasetManifest, make_dataset  # noqa: E402
from fringeproc.training import TrainConfig, load_samples, train  # noqa: E402

DESK_NET = NetworkConfig(paths=2, filters=16, blocks_per_path=2)
DESK_TRAIN = TrainConfig(initial_lr=1e-4, lr_drop_factor=5.0,
                         lr_drop_period_epochs=5, epochs=10, batch_size=1,
                         shuffle_seed=7)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True,
                        help="directory for the generated datasets")
    parser.add_argument("--out", default=str(HERE / "desk.fpaw"))
    args = parser.parse_args()

    work = Path(args.workdir)
    make_dataset(DatasetManifest(base_seed=2024, count=200, rows=64, cols=64),
                 work / "train")
    make_dataset(DatasetManifest(base_seed=9090, count=50, rows=64, cols=64),
                 work / "val")
    started = time.perf_counter()
    result = train(load_samples(work / "train"), load_samples(work / "val"),
                   DESK_NET, DESK_TRAIN)
    save_weights(result.weights, args.out)
    best = result.history[result.best_epoch - 1]
    digest = hashlib.sha256(Path(args.out).read_bytes()).hexdigest()
    print(f"trained in {time.perf_counter() - started:.0f} s; best epoch "
          f"{result.best_epoch}, val OE {best['val_oe']:.4f}")
    print(f"{args.out} sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
