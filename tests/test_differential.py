"""Random small experiments through `simulate` and the per-agent loop.

Each case is drawn from its own seeded generator over the public
constructors: any of the six model tags, n 1-7 agents in m 1-3 dimensions,
an MPC horizon of 1-5 steps, the radius r (olfati_saber's d below it), the
control penalty lam and the time step dt, v_max and a_max each finite or
inf, a noise level of 0-10, 1-10 steps and the initial boxes.  The case
runs through `simulate`, whose solver batches every agent of a distributed
step, and through
`tests/test_reference_loop.py`'s `reference_run`, which solves each agent
alone.  Both must give the same records and final state bit for bit, or
raise the same error with the same message.  It is the net for the
solver's "a row alone has the bits it has in any batch" where the goldens
do not reach: m != 2, T != 3, velocity clamps and a_max = inf.

The environment variable FLOCKBENCH_DIFFERENTIAL_CASES sets the number of
cases (default 40); a long run takes it up, e.g. to 2000.

A second set of draws pushes the MPC models to extreme settings: omega
and d log-uniform up to 1e300, dt up to 5, v_max and a_max infinite half
the time, and initial boxes as small as 1e-6.  There `simulate` must
return or raise `SolverError` with no RuntimeWarning: any other exception
is a fault.  Only the error's type is checked, since the batch and the
per-agent loop may rightly fail at different rows with different messages
where a probe overflows.  FLOCKBENCH_EXTREME_CASES sets their number
(default 20).
"""

import dataclasses
import math
import os
import warnings

import numpy as np
import pytest

from flockbench import (
    MODEL_TAGS,
    MPC_TAGS,
    ExperimentConfig,
    ModelSpec,
    MotionLimits,
    MpcParams,
    SolverError,
    default_model_spec,
    noise_for_level,
    simulate,
)
from test_reference_loop import reference_run

CASES = int(os.environ.get("FLOCKBENCH_DIFFERENTIAL_CASES", "40"))
EXTREME_CASES = int(os.environ.get("FLOCKBENCH_EXTREME_CASES", "20"))


def draw_case(index):
    """Case `index`: its experiment configuration and run seed."""
    rng = np.random.default_rng([20261022, index])
    tag = MODEL_TAGS[int(rng.integers(len(MODEL_TAGS)))]
    m, r = int(rng.integers(1, 4)), float(rng.uniform(3.0, 12.0))
    params = default_model_spec(tag).params
    fields = {f.name for f in dataclasses.fields(params)}
    changes = {"r": r} if "r" in fields else {}
    if tag == "olfati_saber":  # its potential needs d < r
        changes["d"] = float(rng.uniform(0.3, 0.95)) * r
    if "horizon" in fields:
        changes.update(horizon=int(rng.integers(1, 6)), lam=float(rng.uniform(0.1, 5.0)))
    limits = MotionLimits(
        v_max=math.inf if rng.random() < 0.25 else float(rng.uniform(0.5, 10.0)),
        a_max=math.inf if rng.random() < 0.25 else float(rng.uniform(0.2, 3.0)),
        dt=float(rng.uniform(0.1, 0.7)),
    )
    half = float(rng.uniform(2.0, 15.0))
    speed = float(rng.uniform(0.0, 3.0))
    cfg = ExperimentConfig(
        model=ModelSpec(tag, dataclasses.replace(params, **changes)),
        n=int(rng.integers(1, 8)),
        steps=int(rng.integers(1, 11)),
        limits=limits,
        r=r,
        noise=noise_for_level(int(rng.integers(0, 11))),
        runs=1,
        init_position_box=((-half, half),) * m,
        init_velocity_box=((-speed, speed),) * m,
    )
    return cfg, int(rng.integers(2**31))


def outcome(run):
    """What a run gives: its value, or the type and message of its error."""
    try:
        return "value", run()
    except Exception as err:  # noqa: BLE001 - the error is the outcome
        return "error", (type(err), str(err))


@pytest.mark.parametrize("index", range(CASES))
def test_simulate_matches_the_per_agent_loop_on_random_experiments(index):
    cfg, seed = draw_case(index)
    got = outcome(lambda: simulate(cfg, seed))
    expected = outcome(lambda: reference_run(cfg, seed))
    assert got[0] == expected[0], (cfg, got, expected)
    if got[0] == "error":
        assert got[1] == expected[1]
        return
    run, (records, final) = got[1], expected[1]
    assert run.metrics == records
    assert run.final.positions.tobytes() == final.positions.tobytes()
    assert run.final.velocities.tobytes() == final.velocities.tobytes()


def log_uniform(rng, low, high):
    """A draw whose logarithm is uniform between those of low and high."""
    return float(math.exp(rng.uniform(math.log(low), math.log(high))))


def draw_extreme_case(index):
    """Extreme case `index`: an MPC experiment configuration and run seed."""
    rng = np.random.default_rng([20261023, index])
    tag = MPC_TAGS[int(rng.integers(len(MPC_TAGS)))]
    m, r = int(rng.integers(1, 4)), float(rng.uniform(3.0, 12.0))
    params = MpcParams(
        horizon=int(rng.integers(1, 6)),
        lam=float(rng.uniform(0.1, 5.0)),
        r=r,
        d=log_uniform(rng, 1e-3, 1e300),
        omega=log_uniform(rng, 1e-3, 1e300),
    )
    limits = MotionLimits(
        v_max=math.inf if rng.random() < 0.5 else float(rng.uniform(0.5, 10.0)),
        a_max=math.inf if rng.random() < 0.5 else float(rng.uniform(0.2, 3.0)),
        dt=float(rng.uniform(0.05, 5.0)),
    )
    half, speed = log_uniform(rng, 1e-6, 1e-1), log_uniform(rng, 1e-6, 1e-1)
    cfg = ExperimentConfig(
        model=ModelSpec(tag, params),
        n=int(rng.integers(1, 8)),
        steps=int(rng.integers(1, 5)),
        limits=limits,
        r=r,
        noise=noise_for_level(int(rng.integers(0, 11))),
        runs=1,
        init_position_box=((-half, half),) * m,
        init_velocity_box=((-speed, speed),) * m,
    )
    return cfg, int(rng.integers(2**31))


@pytest.mark.parametrize("index", range(EXTREME_CASES))
def test_simulate_returns_or_raises_solver_error_at_extreme_settings(index):
    cfg, seed = draw_extreme_case(index)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            simulate(cfg, seed)
        except SolverError as err:
            assert err.diagnostics["model"] == cfg.model.tag
