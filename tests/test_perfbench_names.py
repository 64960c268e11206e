"""The names the benchmark in `perfbench/` reads from the package.

`perfbench/tracing.py` wraps every `ENTRY_POINTS` attribute with `getattr`
on the named `flockbench` module, and `perfbench/run.py` reads
`mpc.MAX_ITER` and, from the result of every `harness.solve_mpc` call,
`iterations` and `converged`.  A rename here would only show when the
benchmark runs, so these checks keep the names in the test suite's view.
"""

import importlib
import importlib.util
import pathlib

import numpy as np

from flockbench import FlockConfiguration, MotionLimits, harness, mpc

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_resolve():
    entry_points = load_tracing().ENTRY_POINTS
    assert entry_points
    for module_name, attr, _, _ in entry_points:
        module = importlib.import_module(f"flockbench.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_solver_iteration_cap_is_an_int():
    assert type(mpc.MAX_ITER) is int


def test_solve_result_has_the_fields_the_traced_benchmark_reads():
    view = FlockConfiguration(np.array([[0.0, 0.0], [5.0, 0.0]]), np.zeros((2, 2)))
    for tag, agent in (("df_centralized", None), ("df_distributed", 0)):
        result = harness.solve_mpc(
            tag, view, mpc.MpcParams(), MotionLimits(), agent=agent
        )
        assert type(result.iterations) is int
        assert type(result.converged) is bool
