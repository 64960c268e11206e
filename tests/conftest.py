import os
import pathlib
from unittest import mock

import numpy as np
import pytest

from flockbench import (
    ExperimentConfig,
    FlockConfiguration,
    default_model_spec,
    mpc,
    noise_for_level,
    simulate,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def child_env():
    """The environment for a child Python process: this one's, with the
    checkout's src directory first on PYTHONPATH, so that `python -m
    flockbench` imports the package under test from a plain checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


# Row spacing chosen so 3.5**2 + HEX_DY**2 == 49.0 holds exactly in float64;
# every neighbor distance in the patch below then computes to exactly 7.0.
HEX_DY = float.fromhex("0x1.83fab8b4d4315p+2")


def hexagonal_patch(rows: int = 3, cols: int = 4, d: float = 7.0) -> np.ndarray:
    """Triangular-lattice patch with nearest-neighbor spacing exactly d=7."""
    assert d == 7.0, "row spacing constant is specific to d = 7"
    points = []
    for j in range(rows):
        x0 = 0.5 * d if j % 2 else 0.0
        for i in range(cols):
            points.append((x0 + i * d, j * HEX_DY))
    return np.array(points)


def random_config(rng, n=None, span=20.0, v_span=5.0, dim=2) -> FlockConfiguration:
    n = n or int(rng.integers(2, 12))
    pos = rng.uniform(-span, span, (n, dim))
    vel = rng.uniform(-v_span, v_span, (n, dim))
    return FlockConfiguration(pos, vel)


def same_bits(a, b):
    """Equal shapes, dtypes and bytes: equal values, signed zeros and NaN
    payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240817)


def captured_solves(tag, seed, steps=100, level=0):
    """The problem and warm start of every `mpc._solve_batch` call of one
    closed-loop run of `tag` at n = 30, in order: the run simulated from the
    run seed `seed` for `steps` steps at noise level `level`.  Each warm
    start is a copy; a centralized run's first solve starts from zeros and
    each later one from the plan of the solve before it."""
    solve, solves = mpc._solve_batch, []

    def spy(problem, warm):
        solves.append((problem, warm.copy()))
        return solve(problem, warm)

    noise = noise_for_level(level)
    cfg = ExperimentConfig(model=default_model_spec(tag), steps=steps, noise=noise)
    with mock.patch.object(mpc, "_solve_batch", spy):
        simulate(cfg, seed)
    return solves
