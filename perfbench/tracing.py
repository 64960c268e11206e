"""Span tracing of the flockbench layers, applied from outside the package.

`Tracer` replaces each layer entry point with a wrapper *as the calling
module resolves it* (for example ``harness.sense_local``, which the closed
loop looks up in its own module globals on every call), records one span per
call in memory, and puts the originals back when the `with` block ends.  No
file under ``src/`` is modified and nothing is patched outside the block.

A span is ``(name, detail, start, end, parent)``: `detail` is an optional
label such as the model tag of a run, `parent` the index of the enclosing
span or -1.  Self time is a span's duration minus the durations of its
direct children; calls here are single-threaded and strictly nested.
"""

from __future__ import annotations

import contextlib
import csv
import statistics
import time

# (module, attribute, span name, reported layer) for every layer boundary.
# The closed loop in `harness.simulate` calls sensing, control, solver,
# dynamics and metrics through names bound in the `harness` module, so those
# are wrapped there; the benchmark itself calls `harness.simulate`, the
# aggregators and the `output` writers through their modules.
ENTRY_POINTS = (
    ("harness", "sense_local", "core.sense_local", "core.sense"),
    ("harness", "sense_global", "core.sense_global", "core.sense"),
    ("harness", "step_dynamics", "core.step_dynamics", "core.dynamics"),
    ("harness", "reynolds_accel", "controllers.reynolds_accel", "controllers"),
    ("harness", "olfati_saber_accel", "controllers.olfati_saber_accel", "controllers"),
    ("harness", "solve_mpc", "mpc.solve_mpc", "mpc.solve"),
    ("harness", "solve_mpc_distributed_all", "mpc.solve_mpc_distributed_all", "mpc.solve"),
    ("harness", "evaluate_metrics", "metrics.evaluate_metrics", "metrics"),
    ("harness", "simulate", "harness.simulate", "harness"),
    ("harness", "aggregate_steps", "harness.aggregate_steps", "harness.aggregate"),
    ("harness", "aggregate_finals", "harness.aggregate_finals", "harness.aggregate"),
    ("output", "write_steps_csv", "output.write_steps_csv", "output"),
    ("output", "write_summary_csv", "output.write_summary_csv", "output"),
    ("output", "emit_plots", "output.emit_plots", "output"),
)

LAYER_OF_SPAN = {span: layer for _, _, span, layer in ENTRY_POINTS}


class Tracer:
    """In-memory span recorder that patches `ENTRY_POINTS` for one block.

    `modules` maps the module names used there to the imported modules.
    `details` maps a span name to ``f(args, kwargs) -> str`` giving the span's
    label; `observers` maps a span name to ``f(result)`` called with each
    return value (used to read solver results without touching `mpc`).
    """

    def __init__(self, modules, details=None, observers=None):
        self.modules = modules
        self.details = dict(details or {})
        self.observers = dict(observers or {})
        self.spans = []
        self._stack = []
        self._originals = []

    def __enter__(self):
        for module_name, attr, name, _ in ENTRY_POINTS:
            module = self.modules[module_name]
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)
        return False

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index, name, detail, start, end):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, detail, start, end, parent)

    def _wrap(self, original, name):
        detail_of = self.details.get(name)
        observe = self.observers.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            detail = detail_of(args, kwargs) if detail_of else None
            index = self._open()
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index, name, detail, start, clock())
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = original
        return traced

    @contextlib.contextmanager
    def span(self, name, detail=None):
        """Record a span around benchmark-side code."""
        index = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, name, detail, start, time.perf_counter())

    def self_times(self):
        """Per-span self time, in span order."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (end - start) - child[i]
            for i, (_, _, start, end, _) in enumerate(self.spans)
        ]

    def write_csv(self, path) -> None:
        """All spans, times relative to the first span's start, in seconds."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("id", "name", "detail", "start_s", "end_s", "parent"))
            for i, (name, detail, start, end, parent) in enumerate(self.spans):
                writer.writerow(
                    (i, name, detail or "", f"{start - origin:.9f}",
                     f"{end - origin:.9f}", parent)
                )


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by `statistics.quantiles`'
    exclusive method; one sample is its own percentile, none gives 0."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100)[q - 1]
