"""The closed loop rebuilt from public per-agent functions.

`reference_run` is the loop as the paper states it, one agent at a time:
each agent senses its own view with `sense_local` and steers with
`reynolds_accel`, `olfati_saber_accel` or its own `solve_mpc(agent=i)`
(centralized MPC: one `sense_global` view and one `solve_mpc`), then the
dynamics step, and the measures come from `connected_components` of the
`proximity_net`.  It shares two helpers with the harness: the initial
configuration from `harness.sample_initial_config`, and the receding-horizon
warm start from `harness._shift_plan`.  `simulate`, with its array passes
over all observers, must reproduce it bit for bit.
"""

import numpy as np
import pytest

from flockbench import (
    MODEL_TAGS,
    ExperimentConfig,
    MetricsRecord,
    RandomStream,
    connected_components,
    default_model_spec,
    irregularity,
    max_component_diameter,
    noise_for_level,
    olfati_saber_accel,
    proximity_net,
    reynolds_accel,
    sample_initial_config,
    sense_global,
    sense_local,
    simulate,
    solve_mpc,
    step_dynamics,
    velocity_convergence,
)
from flockbench import harness
from flockbench.harness import _shift_plan
from flockbench.mpc import CENTRALIZED_MPC_TAGS

RULES = {"reynolds": reynolds_accel, "olfati_saber": olfati_saber_accel}


def reference_run(cfg, seed):
    """(per-step MetricsRecords, final configuration) of one run; shares
    only `sample_initial_config` and `_shift_plan` with the harness."""
    rng = RandomStream(seed)
    config = sample_initial_config(cfg, rng)
    tag, params, n = cfg.model.tag, cfg.model.params, cfg.n
    warm = None if tag in CENTRALIZED_MPC_TAGS else [None] * n
    records = []
    for _ in range(cfg.steps):
        if tag in CENTRALIZED_MPC_TAGS:
            view = sense_global(config, cfg.noise, rng)
            result = solve_mpc(tag, view, params, cfg.limits, warm_start=warm)
            accel, warm = result.accel, _shift_plan(result.controls, axis_t=0)
        else:
            views = [sense_local(config, i, cfg.noise, rng) for i in range(n)]
            if tag in RULES:
                accel = np.stack([RULES[tag](i, views[i], params) for i in range(n)])
            else:
                results = [
                    solve_mpc(tag, views[i], params, cfg.limits, warm_start=warm[i], agent=i)
                    for i in range(n)
                ]
                accel = np.stack([result.accel for result in results])
                warm = [_shift_plan(result.controls, axis_t=0) for result in results]
        config = step_dynamics(config, accel, cfg.limits)
        components = connected_components(proximity_net(config, cfg.r))
        records.append(
            MetricsRecord(
                len(components),
                max_component_diameter(config, components),
                velocity_convergence(config, components),
                irregularity(config, components),
            )
        )
    return records, config


def assert_simulate_matches_reference_loop(cfg, seed):
    records, final = reference_run(cfg, seed)
    run = simulate(cfg, seed)
    assert run.metrics == records
    assert np.array_equal(run.final.positions, final.positions)
    assert np.array_equal(run.final.velocities, final.velocities)


@pytest.mark.parametrize("seed", [1, 7, 20261017])
@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("level", [0, 3])
@pytest.mark.parametrize("tag", MODEL_TAGS)
def test_simulate_matches_reference_loop(tag, level, n, seed):
    cfg = ExperimentConfig(
        model=default_model_spec(tag), n=n, steps=12, noise=noise_for_level(level), runs=1
    )
    assert_simulate_matches_reference_loop(cfg, seed)


# every model at n = 2 and 7, and the rule models at n = 20, where a
# neighbor sum has enough terms that numpy would sum a lone m = 1 column
# pairwise rather than in order
DIMENSION_CASES = [(tag, n) for tag in MODEL_TAGS for n in (2, 7)]
DIMENSION_CASES += [(tag, 20) for tag in RULES]


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("level", [0, 3])
@pytest.mark.parametrize("tag, n", DIMENSION_CASES)
def test_simulate_matches_reference_loop_in_one_and_three_dimensions(tag, n, level, m):
    cfg = ExperimentConfig(
        model=default_model_spec(tag), n=n, steps=12, noise=noise_for_level(level),
        runs=1, init_position_box=((-15.0, 15.0),) * m,
        init_velocity_box=((0.0, 2.0),) * m,
    )
    assert_simulate_matches_reference_loop(cfg, 1)


# n = 30 for 40 steps: simulate measures in blocks of 9 steps (9 + 9 + 9 + 9
# + 4), so these runs cross block boundaries and end in a partial block
@pytest.mark.parametrize("tag, level", [("olfati_saber", 3), ("lattice_centralized", 0)])
def test_simulate_matches_reference_loop_across_metric_blocks(tag, level):
    block = harness.METRIC_BLOCK_ENTRIES // 30**2
    assert 1 < block < 40 and 40 % block
    cfg = ExperimentConfig(
        model=default_model_spec(tag), n=30, steps=40, noise=noise_for_level(level), runs=1
    )
    assert_simulate_matches_reference_loop(cfg, 1)
