"""The benchmark's own tests: reporting, output checks and span nesting.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
Workloads run here at reduced sizes; the timings mean nothing.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(REPO / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
SMALL = {
    "pipeline-512": lambda: workloads.PipelineFrames(size=64),
    "classic-256": lambda: workloads.ClassicFrames(pool=1),
    "train-64": lambda: workloads.TrainRuns(train_images=2, val_images=1, epochs=1),
}


def run_small(monkeypatch, tmp_path, name, trace):
    monkeypatch.setitem(workloads.WORKLOADS, name, SMALL[name])
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.01",
                         "--trace", str(trace)])
    assert code == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(monkeypatch, tmp_path, name, trace):
    lines = run_small(monkeypatch, tmp_path, name, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: (v["unit"]) for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for metric in spec:
        printed = [ln.split() for ln in lines if ln.split()[:1] == [metric["name"]]]
        assert printed and printed[0][2] == metric["unit"]
    record = json.loads((tmp_path / "out" / f"{name}-seed3-trace{trace}.json").read_text())
    for key in ("git_commit", "seed", "python", "numpy", "scipy", "blas", "nproc", "grid"):
        assert key in record["env"]


def test_shuffled_phase_map_counts_as_failed(tmp_path):
    frames = workloads.ClassicFrames(pool=1)
    frames.setup(1, tmp_path)
    phase = frames.run(0)
    assert frames.check(0, phase)[0]
    shuffled = np.random.default_rng(0).permutation(phase.ravel()).reshape(phase.shape)
    ok, (error,) = frames.check(0, shuffled)
    assert not ok and error > workloads.RMSE_LIMIT_RAD


def test_failed_and_raising_operations_are_counted():
    class Flaky(workloads.Workload):
        def run(self, i):
            time.sleep(0.01)
            if i == 1:
                raise ValueError("boom")
            return i

        def check(self, i, output):
            return output != 2, [0.0]

    loop = run.measure(Flaky(), seconds=0.06, yardstick=lambda: 1e-3)
    n = len(loop["passed"])
    assert n >= 3 and len(loop["durations"]) == n and len(loop["reference"]) == n + 1
    assert loop["passed"] == [i not in (1, 2) for i in range(n)]
    assert loop["errors"] == ["op 1: ValueError: boom"]


def test_yardstick_memory_stays_out_of_peak_rss():
    before = run.peak_rss_mb()
    # in this process, the reference would raise the peak by at least 100 MB
    size = int((before + 100.0) * 2**20) // 8
    yardstick = run.Yardstick(lambda: np.ones(size).sum())
    try:
        assert yardstick() > 0.0
        assert run.peak_rss_mb() - before < 20.0
    finally:
        yardstick.close()
    assert not yardstick._process.is_alive()


def test_pipeline_nonzero_exit_and_bad_training_fail(tmp_path):
    pipeline = workloads.PipelineFrames(size=64)
    pipeline.setup(2, tmp_path)
    ok, (error,) = pipeline.check(0, 4)
    assert not ok and math.isnan(error)
    train = workloads.TrainRuns(train_images=2, val_images=1, epochs=1)
    train.setup(2, tmp_path)
    history = [{"train_loss": 0.1, "val_loss": train.untrained_val_loss, "val_oe": 0.5}]
    assert not train.check(0, type("R", (), {"history": history})())[0]
    history[0]["val_loss"] = float("nan")
    assert not train.check(0, type("R", (), {"history": history})())[0]


def test_model_checksum_is_enforced(tmp_path):
    workloads.verify_model()
    corrupt = tmp_path / "desk.fpaw"
    data = bytearray(workloads.MODEL.read_bytes())
    data[-1] ^= 1
    corrupt.write_bytes(bytes(data))
    with pytest.raises(SystemExit, match="sha256"):
        workloads.verify_model(corrupt)


def test_spans_nest_and_self_times_add_up(tmp_path):
    frames = workloads.ClassicFrames(pool=1)
    frames.setup(1, tmp_path)
    tracer = spans.Tracer()
    with tracer.installed():
        with tracer.span(spans.ROOT):
            frames.run(0)
    recorded = tracer.spans
    assert recorded[0].name == spans.ROOT and recorded[0].parent == -1
    for s in recorded[1:]:
        parent = recorded[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end
    own = spans.self_times(recorded)
    assert min(own) >= 0.0
    assert sum(own) == pytest.approx(recorded[0].duration, abs=1e-9)
    # the root's own time is benchmark glue plus tracer bookkeeping only
    overhead = spans.per_span_overhead_s() * len(recorded)
    assert own[0] <= overhead + 1e-3
    names = {s.name for s in recorded}
    assert {"orientation.prefilter", "orientation.cpfg_orientation",
            "unwrap.orientation_to_direction", "unwrap.unwrap_phase_2d",
            "unwrap.reliability_map", "hst.demodulate", "hst.quadrature"} <= names
    # patches are removed again
    from fringeproc import hst
    assert hst.demodulate.__module__ == "fringeproc.hst"
    assert not hasattr(hst.demodulate, "__wrapped__")


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classic-256", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
