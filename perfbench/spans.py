"""In-memory spans around calls into fringeproc's modules, and the per-layer
metrics derived from them.

The tracer replaces module attributes that callers look up at call time (for
example ``fringeproc.hst.unwrap_phase_2d``, which ``demodulate`` calls), so no
file under ``src/`` is edited. Each span keeps its name, start, end, parent and
a computed work amount (FLOP for a convolution, bytes for a container write).
A span's self time is its duration minus the durations of its children; calls
are single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from fringeproc.container import HEADER

ROOT = "bench.op"  # one per benchmark operation: a frame or a training run

# (module, attribute) pairs whose callers look the function up by that name.
TARGETS = [
    ("fringeproc.cli", name) for name in (
        "main", "read_container", "write_container", "load_weights", "prefilter",
        "infer_orientation", "orientation_to_direction", "demodulate")
] + [
    ("fringeproc.orientation", "prefilter"),
    ("fringeproc.orientation", "cpfg_orientation"),
    ("fringeproc.unwrap", "orientation_to_direction"),
    ("fringeproc.unwrap", "unwrap_phase_2d"),
    ("fringeproc.unwrap", "reliability_map"),
    ("fringeproc.hst", "demodulate"),
    ("fringeproc.hst", "quadrature"),
    ("fringeproc.hst", "unwrap_phase_2d"),
    ("fringeproc.network", "conv2d_same"),
    ("fringeproc.network", "conv2d_backward"),
    ("fringeproc.network", "forward"),
] + [
    ("fringeproc.training", name) for name in (
        "train", "backward", "forward", "infer_orientation", "adam_step",
        "evaluate_model")
]

CALIBRATION_CALLS = 20000  # no-op calls timed to price one traced call


def _conv_flop(x, w, *_args, **_kw) -> float:
    """2*H*W*Cin*k*k*Cout multiply-adds of one same-padded convolution."""
    return 2.0 * x.shape[1] * x.shape[2] * w.shape[0] * w.shape[1] * w.shape[2] * w.shape[3]


def _container_bytes(_path, stack, *_args, **_kw) -> float:
    """FPAI bytes written: header plus float32 samples (sidecars excluded)."""
    return float(HEADER.size + 4 * np.asarray(stack).size)


WORK = {"network.conv2d_same": _conv_flop, "container.write_container": _container_bytes}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    work: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, work: float = 0.0):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), 0.0, parent, work)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def op(self):
        """The root span of one benchmark operation."""
        return self.span(ROOT)

    def wrap(self, name: str, fn):
        work_of = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, work_of(*args, **kwargs) if work_of else 0.0):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target with a traced wrapper; restore them on exit."""
        wrappers = {}
        saved = []
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            if fn not in wrappers:
                short = fn.__module__.rsplit(".", 1)[-1]
                wrappers[fn] = self.wrap(f"{short}.{fn.__name__}", fn)
            saved.append((module, attr, fn))
            setattr(module, attr, wrappers[fn])
        try:
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


def per_span_overhead_s() -> float:
    """Measured cost one traced call adds over the same call untraced."""

    def noop():
        return None

    traced = Tracer().wrap("calibration.noop", noop)
    elapsed = []
    for fn in (noop, traced):
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            fn()
        elapsed.append(time.perf_counter() - t0)
    return max(0.0, (elapsed[1] - elapsed[0]) / CALIBRATION_CALLS)


def self_times(spans: list[Span]) -> list[float]:
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def _has_ancestor(spans, index, test) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if test(spans[parent].name):
            return True
        parent = spans[parent].parent
    return False


SHARE_MODULES = ("unwrap", "network", "orientation", "hst", "container")


def layer_metrics(spans: list[Span], items: int, frames: int, val_images: int,
                  per_span_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)} from one traced run.

    ``items`` counts frames or training images; ``frames`` and
    ``val_images`` are the frames and validation images processed (0 where a
    workload has none). Names ending in ``_s`` are seconds per call unless
    the table in README.md says per item.
    """
    own = self_times(spans)
    count = defaultdict(int)
    total = defaultdict(float)
    self_total = defaultdict(float)
    work = defaultdict(float)
    for s, t_self in zip(spans, own):
        count[s.name] += 1
        total[s.name] += s.duration
        self_total[s.name] += t_self
        work[s.name] += s.work

    def per_call(table, name):
        return table[name] / count[name] if count[name] else 0.0

    def per(value, n):
        return value / n if n else 0.0

    op_time = total[ROOT]
    # forward convolutions only: conv2d_backward computes dx with conv2d_same
    forward_convs = [
        s for i, s in enumerate(spans) if s.name == "network.conv2d_same"
        and not _has_ancestor(spans, i, lambda n: n == "network.conv2d_backward")]
    conv_s = sum(s.duration for s in forward_convs)
    conv_flop = sum(s.work for s in forward_convs)
    val_forwards = sum(
        1 for i, s in enumerate(spans) if s.name == "network.forward"
        and _has_ancestor(spans, i, lambda n: n == "training.evaluate_model"))
    metrics = {
        "unwrap.lift_s": (per_call(self_total, "unwrap.orientation_to_direction"), "s"),
        "unwrap.unwrap_s": (per_call(self_total, "unwrap.unwrap_phase_2d"), "s"),
        "unwrap.unwrap_calls_per_frame": (per(count["unwrap.unwrap_phase_2d"], frames), "count"),
        "unwrap.reliability_map_calls_per_frame": (
            per(count["unwrap.reliability_map"], frames), "count"),
        "network.forward_s": (per_call(total, "network.forward"), "s"),
        "network.conv_s": (per(conv_s, items), "s"),
        "network.conv_calls": (per(len(forward_convs), items), "count"),
        "network.conv_gflop": (per(conv_flop, items) / 1e9, "GFLOP"),
        "network.conv_gflops": (per(conv_flop, conv_s) / 1e9, "GFLOP/s"),
        "network.backward_s": (per_call(total, "network.backward"), "s"),
        "network.conv_bwd_s": (per(total["network.conv2d_backward"], items), "s"),
        "training.adam_s": (per_call(total, "training.adam_step"), "s"),
        "training.eval_s": (per_call(total, "training.evaluate_model"), "s"),
        "training.val_forwards_per_image": (per(val_forwards, val_images), "count"),
        "orientation.prefilter_s": (per_call(total, "orientation.prefilter"), "s"),
        "orientation.cpfg_s": (per_call(total, "orientation.cpfg_orientation"), "s"),
        "hst.quadrature_s": (per_call(total, "hst.quadrature"), "s"),
        "hst.demodulate_self_s": (per_call(self_total, "hst.demodulate"), "s"),
        "container.read_s": (per(total["container.read_container"], items), "s"),
        "container.write_s": (per(total["container.write_container"], items), "s"),
        "container.bytes_written": (per(work["container.write_container"], items), "bytes"),
        "cli.self_s": (per_call(self_total, "cli.main"), "s"),
    }
    for module in SHARE_MODULES:
        inside = sum(
            s.duration for i, s in enumerate(spans) if _module(s.name) == module
            and not _has_ancestor(spans, i, lambda n: _module(n) == module))
        metrics[f"{module}.share"] = (per(inside, op_time), "fraction")
    layer_spans = len(spans) - count[ROOT]
    metrics["trace.spans_per_item"] = (per(layer_spans, items), "count")
    metrics["trace.overhead_frac"] = (per(layer_spans * per_span_s, op_time), "fraction")
    return metrics
