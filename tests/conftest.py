import os
import pathlib
from unittest import mock

import numpy as np
import pytest

from flockbench import (
    ExperimentConfig,
    FlockConfiguration,
    MotionLimits,
    default_model_spec,
    mpc,
    noise_for_level,
    simulate,
)
from flockbench.core import clamp_norm, sq_norm

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


def reference_clamp_jacobians(W, v_max):
    """The earlier per-step list of the norm clamp's Jacobians at the
    pre-clamp velocities W, (B, T, ..., m): None at a step where no velocity
    is over v_max, else the mask of the clamped velocities, their squared
    norms and v_max / norm (1 where unclamped), each (B, ..., 1)."""
    norms = np.sqrt(sq_norm(W, keepdims=True))
    over = norms > v_max
    if not np.count_nonzero(over):
        return [None] * W.shape[1]
    clamped = over.reshape(len(W), W.shape[1], -1).any(axis=(0, 2))
    safe = np.where(over, norms, 1.0)
    sq, scale = safe * safe, v_max / safe
    return [
        (over[:, t], sq[:, t], scale[:, t]) if clamped[t] else None
        for t in range(W.shape[1])
    ]


def reference_clamp_apply(jacobian, w, p):
    """One `reference_clamp_jacobians` entry applied to p at the pre-clamp
    velocities w, rowwise over the last axis: the reference for the horizon
    passes' step-local clamp derivative."""
    if jacobian is None:
        return p
    over, sq, scale = jacobian
    radial = (w * p).sum(axis=-1, keepdims=True) / sq
    return np.where(over, scale * (p - w * radial), p)


def rollout_loop(x0, v0, U, limits):
    """The rollout stepped one predicted step at a time, clamping every
    step's velocities: the reference for `_rollout_arrays`.  Returns the
    positions and pre-clamp velocities at steps 1..T and each row's clamp
    flag, set where some step's pre-clamp speed is over v_max."""
    x, v = x0, v0
    xs, ws = np.empty_like(U), np.empty_like(U)
    for t in range(U.shape[1]):
        x = x + limits.dt * v
        w = v + limits.dt * U[:, t]
        v = clamp_norm(w, limits.v_max)
        xs[:, t], ws[:, t] = x, w
    over = np.sqrt(sq_norm(ws)) > limits.v_max
    return xs, ws, over.reshape(len(U), -1).any(axis=1)


def backprop_loop(gx, W, U, limits, lam):
    """The adjoint pass stepped from the last predicted step back, each step
    through the clamp's Jacobian: the reference for `_backprop_controls`."""
    dt, jacobians = limits.dt, reference_clamp_jacobians(W, limits.v_max)
    gu = np.empty_like(U)
    px = np.zeros_like(U[:, 0])
    pv = np.zeros_like(px)
    for t in range(U.shape[1] - 1, 0, -1):
        px = px + gx[:, t - 1]
        q = reference_clamp_apply(jacobians[t], W[:, t], pv)
        gu[:, t] = dt * q + 2.0 * lam * U[:, t]
        pv = dt * px + q
    q = reference_clamp_apply(jacobians[0], W[:, 0], pv)
    gu[:, 0] = dt * q + 2.0 * lam * U[:, 0]
    return gu


def forward_loop(D, W, limits):
    """The tangent pass stepped forward through the clamp's Jacobian: the
    reference for `_forward_controls`."""
    dt, jacobians = limits.dt, reference_clamp_jacobians(W, limits.v_max)
    xd = np.empty_like(D[:, 1:])
    x = v = np.zeros_like(D[:, 0])
    for t in range(D.shape[1] - 1):
        v = reference_clamp_apply(jacobians[t], W[:, t], v + dt * D[:, t])
        x = x + dt * v
        xd[:, t] = x
    return xd


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240817)


def captured_solves(tag, seed, steps=100, level=0, limits=MotionLimits()):
    """The problem and warm start of every `mpc._solve_batch` call of one
    closed-loop run of `tag` at n = 30, in order: the run simulated from the
    run seed `seed` for `steps` steps at noise level `level` under `limits`.
    Each warm start is a copy; a centralized run's first solve starts from
    zeros and each later one from the plan of the solve before it."""
    solve, solves = mpc._solve_batch, []

    def spy(problem, warm):
        solves.append((problem, warm.copy()))
        return solve(problem, warm)

    noise = noise_for_level(level)
    cfg = ExperimentConfig(
        model=default_model_spec(tag), steps=steps, noise=noise, limits=limits
    )
    with mock.patch.object(mpc, "_solve_batch", spy):
        simulate(cfg, seed)
    return solves
