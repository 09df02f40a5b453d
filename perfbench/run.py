"""fringeproc performance benchmark: one workload per process, closed loop.

    python3 perfbench/run.py --workload classic-256 --seed 1 --seconds 30 --trace 0

This is not the `fringeproc benchmark` command, which is the Fig. 5(a)
accuracy sweep. See perfbench/README.md for the workloads and metrics.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it wraps calls into fringeproc's modules in spans and reports the per-layer
metrics instead. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The environment
and the full report are also written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

# One BLAS thread for every workload: at 64x64 one thread is faster than two
# and it keeps runs comparable on a loaded 2-core machine. Never above nproc.
BLAS_THREADS = 1
SETUP_REPEATS = 3  # of the imports and of each workload's set-up
IMPORTS = "import numpy, scipy, spans, workloads"  # what main() imports
WORKLOAD_NAMES = ("pipeline-512", "classic-256", "train-64")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_blas_threads() -> int:
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def blas_info(np) -> dict:
    """BLAS name/version from numpy's build config and its live thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libs / "*openblas*"))):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fringeproc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _serve_reference(conn, reference) -> None:
    while conn.recv():
        t0 = time.perf_counter()
        reference()
        conn.send(time.perf_counter() - t0)


class Yardstick:
    """Runs the workload's reference computation in a child process on demand.

    The child keeps the reference's memory out of the workload process, whose
    peak resident memory is ``peak_rss_mb``. The workload process waits while
    the child runs, so the two never compete for a core.
    """

    def __init__(self, reference):
        context = multiprocessing.get_context("fork")
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(target=_serve_reference,
                                        args=(child_conn, reference), daemon=True)
        self._process.start()
        child_conn.close()

    def __call__(self) -> float:
        """Wall time of one run of the reference computation, in seconds."""
        self._conn.send(True)
        return self._conn.recv()

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._conn.send(False)
        self._process.join(30)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()
        self._conn.close()


def time_imports() -> list[float]:
    """Wall times of the benchmark's imports, each in a fresh interpreter.

    A process imports only once, and one sample is noisy; start-up of the
    interpreter itself is excluded.
    """
    code = f"import time; t0 = time.perf_counter(); {IMPORTS}; print(time.perf_counter() - t0)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(HERE)])}
    return [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True, timeout=120).stdout)
            for _ in range(SETUP_REPEATS)]


def measure(workload, seconds: float, yardstick=None, tracer=None) -> dict:
    """Closed loop: the next operation starts only after the previous returns.

    Untraced, ``yardstick()`` times the workload's reference computation
    before the first operation and after each one; the two runs around an
    operation are the yardstick for its ``item_cost_p50``.
    """
    durations, reference, passed, quality, errors = [], [], [], [], []
    root = tracer.op if tracer else contextlib.nullcontext

    def time_reference():
        reference.append(yardstick())

    if tracer is None:
        time_reference()
    loop_start = time.perf_counter()
    i = 0
    last = 0.0  # the previous cycle's time, yardstick included
    # start a cycle of operations only while it can be expected to end in the window
    while i == 0 or i % workload.cycle or time.perf_counter() - loop_start + last <= seconds:
        if i % workload.cycle == 0:
            cycle_start = time.perf_counter()
        error = None
        t0 = time.perf_counter()
        try:
            with root():
                output = workload.run(i)
        except Exception as exc:  # counted as a failed operation, never dropped
            error = exc
        durations.append(time.perf_counter() - t0)
        if tracer is None:
            time_reference()
        if error is None:
            try:
                ok, values = workload.check(i, output)
            except Exception as exc:
                error = exc
        if error is not None:
            ok, values = False, []
            errors.append(f"op {i}: {type(error).__name__}: {error}")
        passed.append(bool(ok))
        quality.extend(values)
        i += 1
        if i % workload.cycle == 0:
            last = time.perf_counter() - cycle_start
    return {"durations": durations, "reference": reference, "passed": passed,
            "quality": quality, "errors": errors}


def end_to_end(workload, loop, setup_raw_s: float, setup_ref_s: float) -> dict:
    """``setup_ref_s`` is the yardstick run just before set-up; the loop's
    first yardstick run follows it."""
    ref = loop["reference"]
    cost = [d / workload.items_per_op / ((ref[i] + ref[i + 1]) / 2.0)
            for i, d in enumerate(loop["durations"])]
    # set-up seconds at the yardstick's nominal speed, like item_cost_p50
    speed = workload.reference.nominal_s / ((setup_ref_s + ref[0]) / 2.0)
    return {
        "setup_s": (setup_raw_s * speed, "s"),
        "item_cost_p50": (statistics.median(cost), "ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far; the yardstick's child is not in it."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_report(workload, loop, metrics, env) -> None:
    """Human-readable lines: the metrics, then raw timings and output quality."""
    ops = len(loop["durations"])
    failed = ops - sum(loop["passed"])
    finite = [q for q in loop["quality"] if math.isfinite(q)]
    frames = workload.frames_per_op > 0
    per_item = [d / workload.items_per_op for d in loop["durations"]]
    rows = [(name, value, unit, "") for name, (value, unit) in metrics.items()]
    rows += [
        ("frames_per_s" if frames else "train_images_per_s",
         ops * workload.items_per_op / sum(loop["durations"]), "1/s", "raw wall time"),
        ("frame_s_p50" if frames else "train_image_s_p50",
         statistics.median(per_item), "s", f"n={ops}"),
        ("phase_rmse_rad_p50" if frames else "val_oe",
         statistics.median(finite) if finite else math.nan, "rad" if frames else "",
         f"n={len(finite)}"),
        ("failed_fraction", failed / ops, "fraction", f"{failed}/{ops}"),
    ]
    if loop["reference"]:
        rows.append(("reference_s_p50", statistics.median(loop["reference"]), "s",
                     f"n={len(loop['reference'])}"))
    print(f"perfbench {env['workload']} seed={env['seed']} trace={env['trace']}: "
          f"{ops} operations of {workload.items_per_op} {workload.item}(s)")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value, unit, note in rows:
        print(f"  {name} {value:.6g} {unit}  {note}".rstrip())
    for line in loop["errors"]:
        print(f"  error: {line}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fringeproc" / "__init__.py").is_file():
        print(f"perfbench: no fringeproc sources under {SRC}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    nproc = len(os.sched_getaffinity(0))
    # one core for the workload and its yardstick child: on a shared VM the
    # cores' speeds vary independently, and the yardstick must see the
    # workload's core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np
    import scipy

    import spans
    import workloads

    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    # forked before set-up, so the child holds little besides the reference
    yardstick = None if args.trace else Yardstick(workloads.WORKLOADS[args.workload]().reference)
    try:
        # set-up is timed between this yardstick run and the loop's first one
        setup_ref_s = yardstick() if yardstick else math.nan
        import_times = time_imports()
        setup_times = []
        for k in range(SETUP_REPEATS):
            workload = workloads.WORKLOADS[args.workload]()
            (work / f"setup{k}").mkdir(parents=True)
            t0 = time.perf_counter()
            workload.setup(args.seed, work / f"setup{k}")
            setup_times.append(time.perf_counter() - t0)
        setup_raw_s = statistics.median(import_times) + statistics.median(setup_times)
        setup_peak_rss_mb = peak_rss_mb()
        if args.trace:
            per_span_s = spans.per_span_overhead_s()
            tracer = spans.Tracer()
            with tracer.installed():
                loop = measure(workload, args.seconds, tracer=tracer)
            ops = len(loop["durations"])
            metrics = spans.layer_metrics(
                tracer.spans, ops * workload.items_per_op, ops * workload.frames_per_op,
                ops * workload.val_images_per_op, per_span_s)
        else:
            loop = measure(workload, args.seconds, yardstick)
            metrics = end_to_end(workload, loop, setup_raw_s, setup_ref_s)
    finally:
        if yardstick is not None:
            yardstick.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "src_sha256": src_sha256(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_info(np), "blas_threads_set": threads,
        "nproc": nproc, "import_times_s": import_times,
        "setup_times_s": setup_times, "setup_raw_s": setup_raw_s,
        "setup_ref_s": setup_ref_s, "setup_peak_rss_mb": setup_peak_rss_mb,
        **workload.describe(),
    }
    print_report(workload, loop, metrics, env)

    ops = len(loop["durations"])
    failed = ops - sum(loop["passed"])
    result = {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"env": env, "result": result, "durations_s": loop["durations"],
              "reference_s": loop["reference"],
              "quality": loop["quality"], "errors": loop["errors"]}
    if args.trace:
        record["spans"] = [[s.name, s.start, s.end, s.parent, s.work]
                           for s in tracer.spans]
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
