import math
import warnings
from unittest import mock

import numpy as np
import pytest

from flockbench import (
    ExperimentConfig,
    FlockConfiguration,
    MotionLimits,
    MpcParams,
    RandomStream,
    SolverError,
    cost_df_centralized,
    cost_df_distributed,
    default_model_spec,
    lattice_deviation_centralized,
    lattice_deviation_distributed,
    mpc_objective,
    mix_seed,
    mpc_objective_gradient,
    neighbors,
    noise_for_level,
    rollout_centralized,
    rollout_distributed,
    sense_local,
    sense_local_all,
    simulate,
    solve_mpc,
    solve_mpc_distributed_all,
    step_dynamics,
)
from flockbench import horizon, mpc
from flockbench.core import EPS_DIST, EPS_DIST_SQ, clamp_norm
from flockbench.mpc import (
    ARMIJO_C,
    CENTRALIZED_MPC_TAGS,
    DISTRIBUTED_MPC_TAGS,
    GRAD_TOL,
    LAST_HALVING,
    MAX_ITER,
    MPC_TAGS,
    _build_batch_problem,
    _build_centralized_problem,
    _CentralizedProblem,
    _single_problem,
    _solve_batch,
)
from conftest import hexagonal_patch, random_config

LIMITS = MotionLimits()
PARAMS = MpcParams()  # horizon 3, lam 1, r 8.4, d 7, omega 50


def config(pos, vel=None):
    pos = np.asarray(pos, dtype=float)
    vel = np.zeros_like(pos) if vel is None else np.asarray(vel, dtype=float)
    return FlockConfiguration(pos, vel)


def finite_difference_gradient(tag, view, U, params, limits, agent=None, ns=None, h=1e-5):
    """Independent oracle: central differences of the rollout objective."""
    grad = np.zeros_like(U)
    it = np.nditer(U, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        up, down = U.copy(), U.copy()
        up[idx] += h
        down[idx] -= h
        if tag in CENTRALIZED_MPC_TAGS:
            f_up = mpc_objective(tag, rollout_centralized(view, up, limits), up, params)
            f_dn = mpc_objective(
                tag, rollout_centralized(view, down, limits), down, params
            )
        else:
            f_up = mpc_objective(
                tag,
                rollout_distributed(agent, view, up, ns, limits),
                up,
                params,
                agent=agent,
                neighbor_set=ns,
            )
            f_dn = mpc_objective(
                tag,
                rollout_distributed(agent, view, down, ns, limits),
                down,
                params,
                agent=agent,
                neighbor_set=ns,
            )
        grad[idx] = (f_up - f_dn) / (2 * h)
    return grad


# --------------------------------------------------------------------------
# rollouts
# --------------------------------------------------------------------------


def test_rollout_zero_controls_advances_uniformly():
    init = config([[0, 0]], [[1, 0]])
    traj = rollout_centralized(init, np.zeros((3, 1, 2)), LIMITS)
    assert len(traj) == 4
    for t, cfg in enumerate(traj):
        assert np.allclose(cfg.positions, [[0.3 * t, 0.0]])
        assert np.allclose(cfg.velocities, [[1.0, 0.0]])


def test_rollout_single_step_matches_step_dynamics(np_rng):
    # feasible controls: the rollout applies controls as given, so parity
    # with step_dynamics (which projects) requires norms within a_max
    init = random_config(np_rng, v_span=6.0)
    u = np_rng.uniform(-0.7, 0.7, (1,) + init.positions.shape)
    u *= LIMITS.a_max / np.maximum(np.linalg.norm(u, axis=-1, keepdims=True), LIMITS.a_max)
    traj = rollout_centralized(init, u, LIMITS)
    direct = step_dynamics(init, u[0], LIMITS)
    assert np.array_equal(traj[1].positions, direct.positions)
    assert np.array_equal(traj[1].velocities, direct.velocities)


def test_rollout_constant_acceleration_closed_form():
    init = config([[0, 0]], [[0, 0]])
    u = np.tile([[1.0, 0.0]], (5, 1, 1))
    traj = rollout_centralized(init, u, LIMITS)
    dt = LIMITS.dt
    for t in range(6):
        expected_x = dt * dt * (t - 1) * t / 2  # discrete double integration
        assert traj[t].positions[0, 0] == pytest.approx(expected_x, abs=1e-12)


def test_rollout_shape_validation():
    init = config([[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        rollout_centralized(init, np.zeros((3, 1, 2)), LIMITS)


def test_rollout_distributed_constant_velocity_neighbors():
    view = config([[0, 0], [5, 0]], [[0, 0], [2, 0]])
    traj = rollout_distributed(0, view, np.zeros((3, 2)), {1}, LIMITS)
    for t, cfg in enumerate(traj):
        assert np.allclose(cfg.positions[1], [5 + 0.6 * t, 0.0])
        assert np.allclose(cfg.velocities[1], [2.0, 0.0])


def test_rollout_distributed_static_when_everything_zero():
    view = config([[0, 0], [5, 0]])
    traj = rollout_distributed(0, view, np.zeros((3, 2)), {1}, LIMITS)
    for cfg in traj:
        assert np.array_equal(cfg.positions, view.positions)


def test_rollout_distributed_validates_neighbors():
    view = config([[0, 0], [5, 0]])
    with pytest.raises(ValueError):
        rollout_distributed(0, view, np.zeros((3, 2)), {0}, LIMITS)
    with pytest.raises(ValueError):
        rollout_distributed(0, view, np.zeros((3, 2)), {5}, LIMITS)


def same_bits(a, b):
    """Equal values, signed zeros included."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_rollout_oracles_match_rollout_arrays(np_rng):
    # plans beyond the speed limit drive the velocity clamp; signed zeros in
    # the states and plans must come out as the solver's rollout has them
    clamped = 0
    for _ in range(50):
        n, T = int(np_rng.integers(1, 6)), int(np_rng.integers(1, 5))
        pos = np_rng.uniform(-5.0, 5.0, (n, 2))
        vel = np_rng.uniform(-7.9, 7.9, (n, 2))
        U = np_rng.uniform(-4.0, 4.0, (T, n, 2)) / LIMITS.dt
        for array in (pos, vel, U):
            array[np_rng.random(array.shape) < 0.2] = -0.0
        view = config(pos, vel)
        xs, ws = mpc._rollout_arrays(pos[None], vel[None], U[None], LIMITS)
        vs = clamp_norm(ws, LIMITS.v_max)
        clamped += np.count_nonzero(np.linalg.norm(ws, axis=-1) > LIMITS.v_max)
        for t, cfg in enumerate(rollout_centralized(view, U, LIMITS)[1:]):
            assert same_bits(cfg.positions, xs[0, t])
            assert same_bits(cfg.velocities, vs[0, t])
        # agent i follows the solver's rollout and everyone else coasts
        i = int(np_rng.integers(n))
        xs, ws = mpc._rollout_arrays(pos[i][None], vel[i][None], U[None, :, i], LIMITS)
        vs = clamp_norm(ws, LIMITS.v_max)
        coasting = pos.copy()
        traj = rollout_distributed(i, view, U[:, i], set(), LIMITS)
        assert traj[0] is view
        for t, cfg in enumerate(traj[1:]):
            coasting = coasting + LIMITS.dt * vel
            expected_pos, expected_vel = coasting.copy(), vel.copy()
            expected_pos[i], expected_vel[i] = xs[0, t], vs[0, t]
            assert same_bits(cfg.positions, expected_pos)
            assert same_bits(cfg.velocities, expected_vel)
    assert clamped > 0


def test_frozen_neighbor_still_costed_outside_radius():
    # sensed neighbor leaves the radius during the horizon but stays in the
    # stage cost because the neighbor set is frozen at the current step
    view = config([[0, 0], [8.0, 0]], [[0, 0], [8.0, 0]])
    ns = neighbors(view, 0, PARAMS.r)
    assert ns == {1}
    u = np.zeros((3, 2))
    traj = rollout_distributed(0, view, u, ns, LIMITS)
    assert np.linalg.norm(traj[-1].positions[1] - traj[-1].positions[0]) > PARAMS.r
    value = mpc_objective(
        "lattice_distributed", traj, u, PARAMS, agent=0, neighbor_set=ns
    )
    expected = sum(
        (np.linalg.norm(traj[t].positions[1] - traj[t].positions[0]) - 7.0) ** 2
        for t in (1, 2, 3)
    )
    assert value == pytest.approx(expected)


TRIO = config([[0, 0], [3, 0], [5, 1]])
# the public functions that take an agent and its frozen neighbor set
PER_AGENT = {
    "rollout_distributed": lambda i, ns: rollout_distributed(
        i, TRIO, np.zeros((3, 2)), ns, LIMITS
    ),
    "lattice_deviation_distributed": lambda i, ns: lattice_deviation_distributed(
        i, TRIO, ns, 7.0
    ),
    "cost_df_distributed": lambda i, ns: cost_df_distributed(i, TRIO, ns, 50.0),
    "mpc_objective": lambda i, ns: mpc_objective(
        "df_distributed", [TRIO] * 4, np.zeros((3, 2)), PARAMS, i, ns
    ),
    "mpc_objective_gradient": lambda i, ns: mpc_objective_gradient(
        "lattice_distributed", TRIO, np.zeros((3, 2)), PARAMS, LIMITS, i, ns
    ),
}


@pytest.mark.parametrize("name", PER_AGENT)
def test_per_agent_functions_check_the_neighbor_set(name):
    call = PER_AGENT[name]
    call(0, {1, 2})
    call(2, set())
    # no index wraps around, and no agent is its own neighbor
    for bad in ({-1}, {0, 1}, {3}, {1, -3}):
        with pytest.raises(ValueError, match="invalid neighbor index"):
            call(0, bad)
    with pytest.raises(TypeError):
        call(0, {1.0})
    for agent in (-1, 3):
        with pytest.raises(IndexError):
            call(agent, {1})


# --------------------------------------------------------------------------
# stage costs
# --------------------------------------------------------------------------


def test_lattice_deviation_centralized_examples():
    assert lattice_deviation_centralized(
        config(hexagonal_patch()), 8.4, 7.0
    ) == pytest.approx(0.0, abs=1e-9)
    assert lattice_deviation_centralized(
        config([[0, 0], [5, 0]]), 8.4, 7.0
    ) == pytest.approx(8.0)
    assert lattice_deviation_centralized(config([[0, 0], [10, 0]]), 8.4, 7.0) == 0.0


def test_lattice_deviation_distributed_examples():
    cfg = config([[0, 0], [7, 0]])
    assert lattice_deviation_distributed(0, cfg, {1}, 7.0) == 0.0
    cfg5 = config([[0, 0], [5, 0]])
    assert lattice_deviation_distributed(0, cfg5, {1}, 7.0) == pytest.approx(4.0)
    assert lattice_deviation_distributed(0, cfg5, set(), 7.0) == 0.0


def test_lattice_centralized_equals_sum_of_distributed(np_rng):
    for _ in range(50):
        cfg = random_config(np_rng, span=8.0)
        total = sum(
            lattice_deviation_distributed(i, cfg, neighbors(cfg, i, 8.4), 7.0)
            for i in range(cfg.n)
        )
        assert lattice_deviation_centralized(cfg, 8.4, 7.0) == pytest.approx(
            total, rel=1e-12, abs=1e-12
        )


def test_df_centralized_pair_formula():
    for s in (2.0, 5.0, 8.0):
        cfg = config([[0, 0], [s, 0]])
        assert cost_df_centralized(cfg, 8.4, 50.0) == pytest.approx(
            s * s + 2 * 50.0 / (s * s)
        )
    cfg_far = config([[0, 0], [10, 0]])
    assert cost_df_centralized(cfg_far, 8.4, 50.0) == pytest.approx(100.0)


def test_df_centralized_minimum_location():
    # one-dimensional oracle: scan the pair cost over distance
    omega = 50.0
    grid = np.linspace(1.0, 8.0, 14001)
    values = [cost_df_centralized(config([[0, 0], [s, 0]]), 8.4, omega) for s in grid]
    s_star = grid[int(np.argmin(values))]
    assert s_star == pytest.approx((2 * omega) ** 0.25, abs=2e-3)


def test_df_centralized_edge_cases():
    assert cost_df_centralized(config([[0, 0]]), 8.4, 50.0) == 0.0
    coincident = config([[1, 1], [1, 1]])
    assert np.isfinite(cost_df_centralized(coincident, 8.4, 50.0))


def test_df_centralized_translation_invariance(np_rng):
    cfg = random_config(np_rng, span=6.0)
    moved = FlockConfiguration(cfg.positions + [40.0, -3.0], cfg.velocities)
    assert cost_df_centralized(moved, 8.4, 50.0) == pytest.approx(
        cost_df_centralized(cfg, 8.4, 50.0), rel=1e-12
    )


def test_df_centralized_matches_brute_force(np_rng):
    for _ in range(30):
        cfg = random_config(np_rng, n=int(np_rng.integers(2, 11)), span=8.0)
        n, omega, r = cfg.n, 50.0, 8.4
        cohesion = 0.0
        separation = 0.0
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                sq = float(((cfg.positions[i] - cfg.positions[j]) ** 2).sum())
                if i < j:
                    cohesion += 2.0 / (n * (n - 1)) * sq
                if sq < r * r:
                    separation += omega / max(sq, 1e-12)
        assert cost_df_centralized(cfg, r, omega) == pytest.approx(
            cohesion + separation, rel=1e-12
        )


def test_df_distributed_examples():
    s = 5.0
    cfg = config([[0, 0], [s, 0]])
    assert cost_df_distributed(0, cfg, {1}, 50.0) == pytest.approx(
        s * s + 50.0 / (s * s)
    )
    assert cost_df_distributed(0, cfg, set(), 50.0) == 0.0
    both = config([[0, 0], [s, 0], [-s, 0]])
    assert cost_df_distributed(0, both, {1, 2}, 50.0) == pytest.approx(
        s * s + 2 * 50.0 / (s * s)
    )


def test_df_distributed_minimum_location():
    omega = 50.0
    grid = np.linspace(1.0, 6.0, 10001)
    values = [
        cost_df_distributed(0, config([[0, 0], [s, 0]]), {1}, omega) for s in grid
    ]
    s_star = grid[int(np.argmin(values))]
    assert s_star == pytest.approx(omega**0.25, abs=2e-3)


def test_stage_costs_rigid_motion_invariant(np_rng):
    theta = 0.7
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    for _ in range(20):
        cfg = random_config(np_rng, span=7.0)
        moved = FlockConfiguration(cfg.positions @ rot.T + [5.0, -2.0], cfg.velocities)
        ns = neighbors(cfg, 0, 8.4)
        assert lattice_deviation_centralized(moved, 8.4, 7.0) == pytest.approx(
            lattice_deviation_centralized(cfg, 8.4, 7.0), rel=1e-9, abs=1e-9
        )
        assert cost_df_centralized(moved, 8.4, 50.0) == pytest.approx(
            cost_df_centralized(cfg, 8.4, 50.0), rel=1e-9
        )
        assert lattice_deviation_distributed(0, moved, ns, 7.0) == pytest.approx(
            lattice_deviation_distributed(0, cfg, ns, 7.0), rel=1e-9, abs=1e-9
        )
        assert cost_df_distributed(0, moved, ns, 50.0) == pytest.approx(
            cost_df_distributed(0, cfg, ns, 50.0), rel=1e-9, abs=1e-9
        )


# --------------------------------------------------------------------------
# horizon objective
# --------------------------------------------------------------------------


def test_objective_static_configuration_is_horizon_times_stage():
    cfg = config([[0, 0], [5, 0]])
    u = np.zeros((3, 2, 2))
    traj = rollout_centralized(cfg, u, LIMITS)
    value = mpc_objective("lattice_centralized", traj, u, PARAMS)
    assert value == pytest.approx(3 * 8.0)


def test_objective_zero_stage_reduces_to_control_penalty(np_rng):
    # single agent: every stage cost vanishes, only lam * ||u||^2 remains
    init = config([[0, 0]], [[0.5, 0]])
    u = np_rng.uniform(-1, 1, (3, 1, 2))
    traj = rollout_centralized(init, u, LIMITS)
    value = mpc_objective("df_centralized", traj, u, PARAMS)
    assert value == pytest.approx(float((u * u).sum()))


def test_objective_linear_in_lambda(np_rng):
    cfg = random_config(np_rng, span=6.0)
    u = np_rng.uniform(-1, 1, (3, cfg.n, 2))
    traj = rollout_centralized(cfg, u, LIMITS)
    base = mpc_objective("df_centralized", traj, u, MpcParams(lam=1.0))
    doubled = mpc_objective("df_centralized", traj, u, MpcParams(lam=2.0))
    stage = base - float((u * u).sum())
    assert doubled == pytest.approx(stage + 2.0 * float((u * u).sum()))


def test_objective_requires_model_parameter():
    for name in ("d", "omega"):
        with pytest.raises(TypeError):
            MpcParams(**{name: None})
    cfg = config([[0, 0], [5, 0]])
    traj = rollout_centralized(cfg, np.zeros((3, 2, 2)), LIMITS)
    with pytest.raises(ValueError):
        mpc_objective("df_distributed", traj, np.zeros((3, 2)), PARAMS)  # no agent


# --------------------------------------------------------------------------
# gradients
# --------------------------------------------------------------------------


@pytest.mark.parametrize("tag", MPC_TAGS)
def test_gradient_matches_finite_differences(tag, np_rng):
    for _ in range(10):
        n = int(np_rng.integers(2, 7))
        view = FlockConfiguration(
            np_rng.uniform(-10, 10, (n, 2)), np_rng.uniform(-7, 7, (n, 2))
        )
        if tag in CENTRALIZED_MPC_TAGS:
            u = np_rng.uniform(-1, 1, (3, n, 2))
            analytic = mpc_objective_gradient(tag, view, u, PARAMS, LIMITS)
            numeric = finite_difference_gradient(tag, view, u, PARAMS, LIMITS)
        else:
            agent = int(np_rng.integers(0, n))
            ns = neighbors(view, agent, PARAMS.r)
            u = np_rng.uniform(-1, 1, (3, 2))
            analytic = mpc_objective_gradient(
                tag, view, u, PARAMS, LIMITS, agent=agent, neighbor_set=ns
            )
            numeric = finite_difference_gradient(
                tag, view, u, PARAMS, LIMITS, agent=agent, ns=ns
            )
        scale = np.maximum(np.abs(analytic), np.abs(numeric))
        check = scale > 1e-8
        rel = np.abs(analytic - numeric)[check] / scale[check]
        assert rel.max() < 1e-4


@pytest.mark.parametrize("tag", DISTRIBUTED_MPC_TAGS)
def test_gradient_with_given_neighbor_set(tag, np_rng):
    # the given frozen set adds agent 2 (beyond r) and leaves out agent 1
    # (inside r), so it overrides the radius test both ways
    view = config([[0, 0], [4, 1], [12, -3], [-3, 5]], np_rng.uniform(-2, 2, (4, 2)))
    assert neighbors(view, 0, PARAMS.r) == {1, 3}
    ns = {2, 3}
    u = np_rng.uniform(-1, 1, (3, 2))
    analytic = mpc_objective_gradient(
        tag, view, u, PARAMS, LIMITS, agent=0, neighbor_set=ns
    )
    numeric = finite_difference_gradient(tag, view, u, PARAMS, LIMITS, agent=0, ns=ns)
    assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-7)
    radius_set = mpc_objective_gradient(tag, view, u, PARAMS, LIMITS, agent=0)
    assert not np.allclose(analytic, radius_set, rtol=1e-4, atol=1e-7)


def test_gradient_includes_velocity_clamp(np_rng):
    # start near the speed limit so the clamp is active inside the horizon
    view = config([[0, 0], [6, 0]], [[7.9, 0], [0, 0]])
    u = np.tile([[0.9, 0.0]], (3, 1))
    analytic = mpc_objective_gradient(
        "df_distributed", view, u, PARAMS, LIMITS, agent=0, neighbor_set={1}
    )
    numeric = finite_difference_gradient(
        "df_distributed", view, u, PARAMS, LIMITS, agent=0, ns={1}
    )
    assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


def test_distributed_df_cohesion_is_not_floored():
    # a neighbor inside EPS_DIST floors only the separation term: its
    # cohesion pull is still 2/N (x_i - x_j), not scaled by d / EPS_DIST
    params = MpcParams(horizon=2)
    pos = np.array([[[0.0, 0.0], [5e-7, 0.0], [3.0, 0.0]]])
    problem = _build_batch_problem(
        "df_distributed", pos, np.zeros_like(pos), [0], params, LIMITS
    )
    xs, _ = mpc._rollout_arrays(problem.x0, problem.v0, np.zeros((1, 2, 2)), LIMITS)
    gx = problem._stage_gradient(xs[:, 1:])
    cohesion = (2.0 / 2) * ((0.0 - 5e-7) + (0.0 - 3.0))
    separation = -2.0 * params.omega / 3.0**4 * (0.0 - 3.0)
    assert gx[0, 0, 0] == pytest.approx(cohesion + separation, rel=1e-12)
    assert gx[0, 0, 1] == 0.0


@pytest.mark.parametrize("tag", CENTRALIZED_MPC_TAGS)
def test_family_slope_is_the_edge_derivative_read_by_both_kernels(tag):
    cost = mpc._pair_cost(tag, PARAMS)
    below = np.array([0.0, EPS_DIST / 4, EPS_DIST * 0.999])
    assert np.array_equal(cost.slope(below), np.zeros(3))
    # interior points of a grid from EPS_DIST to r; the floor and r are
    # kinks of the edge cost
    grid = np.geomspace(EPS_DIST, PARAMS.r, 41)[1:-1]
    h = 1e-3 * grid
    up, down = (cost.weight * cost.term(grid + side * h) for side in (1, -1))
    derivative = (up - down) / (2 * h)
    assert cost.slope(grid) == pytest.approx(derivative / grid, rel=1e-5, abs=1e-9)
    # the same distances through both kernels: agent 0 at the origin and
    # one neighbor at (d, 0), so a distributed row has N = 1 and cohesion
    # pulls with 2 / N, and the centralized pair with 2 c_n (0 - d) = -2 d
    pos = np.zeros((grid.size, 2, 2))
    pos[:, 1, 0] = grid
    central = mpc._centralized_stage_gradient(cost, pos, PARAMS.r)
    rows = _build_batch_problem(
        tag.replace("centralized", "distributed"), pos, np.zeros_like(pos),
        np.zeros(grid.size, dtype=int), MpcParams(horizon=2), LIMITS,
    )
    edge = rows._stage_gradient(np.zeros((grid.size, 1, 2)))
    slope, pull = cost.slope(grid), 2.0 if cost.cohesion else 0.0
    assert np.array_equal(edge[:, 0, 0], (pull + slope) * -grid)
    # a pair is two ordered edges: its coefficient is exactly twice the slope
    assert np.array_equal(central[:, 0, 0], -pull * grid - (2.0 * slope) * grid)


# --------------------------------------------------------------------------
# solver
# --------------------------------------------------------------------------


def test_solver_isolated_agent_returns_zero():
    iso = config([[0, 0]], [[0.2, 0.1]])
    for tag in CENTRALIZED_MPC_TAGS:
        assert np.allclose(solve_mpc(tag, iso, PARAMS, LIMITS).accel, 0.0)
    for tag in DISTRIBUTED_MPC_TAGS:
        assert np.allclose(solve_mpc(tag, iso, PARAMS, LIMITS, agent=0).accel, 0.0)


def test_solver_quiet_at_distributed_equilibrium():
    s_star = 50.0**0.25
    cfg = config([[0, 0], [s_star, 0]])
    accel = solve_mpc("df_distributed", cfg, PARAMS, LIMITS, agent=0).accel
    assert np.linalg.norm(accel) < 1e-3


def test_solver_repulsion_inside_equilibrium():
    cfg = config([[0, 0], [2, 0]])
    a0 = solve_mpc("df_distributed", cfg, PARAMS, LIMITS, agent=0).accel
    a1 = solve_mpc("df_distributed", cfg, PARAMS, LIMITS, agent=1).accel
    assert a0[0] < 0.0 and a1[0] > 0.0


def test_solver_feasibility(np_rng):
    for tag in MPC_TAGS:
        for _ in range(5):
            view = random_config(np_rng, span=6.0, v_span=6.0)
            if tag in CENTRALIZED_MPC_TAGS:
                result = solve_mpc(tag, view, PARAMS, LIMITS)
            else:
                result = solve_mpc(tag, view, PARAMS, LIMITS, agent=0)
            norms = np.linalg.norm(result.controls.reshape(-1, 2), axis=1)
            assert (norms <= LIMITS.a_max + 1e-9).all()


def test_solver_monotone_descent(np_rng):
    for tag in MPC_TAGS:
        view = random_config(np_rng, n=6, span=6.0, v_span=4.0)
        kwargs = {} if tag in CENTRALIZED_MPC_TAGS else {"agent": 0}
        result = solve_mpc(tag, view, PARAMS, LIMITS, **kwargs)
        values = np.asarray(result.objectives)
        assert len(values) >= 1
        assert (np.diff(values) <= 1e-12).all()


def test_solver_warm_start_validation():
    cfg = config([[0, 0], [5, 0]])
    with pytest.raises(ValueError):
        solve_mpc("df_centralized", cfg, PARAMS, LIMITS, warm_start=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        solve_mpc(
            "df_distributed", cfg, PARAMS, LIMITS, agent=0, warm_start=np.zeros((4, 2))
        )


def test_batched_solve_matches_per_agent_exactly(np_rng):
    # noiseless views first, then a distinct noisy view per observer, so a
    # row built from another agent's view cannot match its standalone solve
    rng = RandomStream(11)
    noise = noise_for_level(3)
    cases = [(5, 6.0, None)] * 5 + [(5, 6.0, noise)] * 3 + [(30, 15.0, noise)]
    for tag in DISTRIBUTED_MPC_TAGS:
        for n, span, sensing in cases:
            cfg = random_config(np_rng, n=n, span=span, v_span=3.0)
            if sensing is None:
                views = [cfg] * n  # every agent sees the truth
            else:
                views = [sense_local(cfg, i, sensing, rng) for i in range(n)]
            warm = np_rng.uniform(-0.5, 0.5, (n, 3, 2))
            batch_accels, batch_plans = solve_mpc_distributed_all(
                tag,
                np.stack([view.positions for view in views]),
                np.stack([view.velocities for view in views]),
                PARAMS,
                LIMITS,
                warm_start=warm,
            )
            for i in range(n):
                single = solve_mpc(
                    tag, views[i], PARAMS, LIMITS, warm_start=warm[i], agent=i
                )
                assert np.array_equal(single.controls, batch_plans[i])
                assert np.array_equal(single.accel, batch_accels[i])


@pytest.mark.parametrize("tag", MPC_TAGS)
def test_batch_rows_match_full_batch(tag, np_rng):
    cfg = random_config(np_rng, n=8, span=6.0, v_span=3.0)
    pos = cfg.positions.copy()
    pos[6], pos[7] = (-60.0, 60.0), (60.0, 60.0)  # out of everyone's range
    flock = config(pos, cfg.velocities)
    views = sense_local_all(flock, noise_for_level(3), RandomStream(5))
    if tag in CENTRALIZED_MPC_TAGS:
        # eight rows, each planning every agent from its own noisy view
        full = _build_centralized_problem(tag, *views, PARAMS, LIMITS)
        U = np_rng.uniform(-0.5, 0.5, (8, 3, 8, 2))
    else:
        full = _build_batch_problem(tag, *views, range(8), PARAMS, LIMITS)
        assert not np.isin([6, 7], full.src).any()
        U = np_rng.uniform(-0.5, 0.5, (8, 3, 2))
    J, XS, WS = full.evaluate(U)
    G = full.gradient(U, XS, WS)
    for idx in ([3], range(8), [0, 4, 7], [6, 7], [5, 5, 0, 6, 2, 2, 2]):
        idx = np.asarray(idx)
        for sub in sub_problems(tag, full, views, idx, PARAMS):
            J_sub, xs, ws = sub.evaluate(U[idx])
            assert np.array_equal(J_sub, J[idx])
            assert np.array_equal(xs, XS[idx]) and np.array_equal(ws, WS[idx])
            assert np.array_equal(sub.gradient(U[idx], xs, ws), G[idx])
    if tag in DISTRIBUTED_MPC_TAGS:
        assert full.rows(np.arange(8) >= 6).src.size == 0


def sub_problems(tag, full, views, idx, params):
    """The rows idx of `full`, a problem built from the stacked views with
    one row per view: built anew from the rows' own views, any order and
    repeats included, and, where idx is ascending without repeats, also
    cut from `full` by a mask."""
    pos, vel = views[0][idx], views[1][idx]
    if tag in CENTRALIZED_MPC_TAGS:
        subs = [_build_centralized_problem(tag, pos, vel, params, LIMITS)]
    else:
        subs = [_build_batch_problem(tag, pos, vel, idx, params, LIMITS)]
    if (np.diff(idx) > 0).all():
        subs.append(full.rows(np.isin(np.arange(len(full.x0)), idx)))
    return subs


def isolated_views(np_rng, n=8):
    """Noisy views of n agents, the last one beyond everyone's range."""
    cfg = random_config(np_rng, n=n, span=6.0, v_span=3.0)
    pos = cfg.positions.copy()
    pos[-1] = (60.0, 60.0)
    flock = config(pos, cfg.velocities)
    return sense_local_all(flock, noise_for_level(3), RandomStream(5))


@pytest.mark.parametrize("tag", MPC_TAGS)
def test_narrowing_twice_matches_narrowing_once(tag, np_rng):
    # the solver narrows a narrowed problem: p.rows(a).rows(b) must be
    # p.rows(c), c keeping the rows that b keeps of those a keeps
    views = isolated_views(np_rng)  # row 7's agent sees no one
    if tag in CENTRALIZED_MPC_TAGS:
        full = _build_centralized_problem(tag, *views, PARAMS, LIMITS)
        U = np_rng.uniform(-0.5, 0.5, (8, 3, 8, 2))
    else:
        full = _build_batch_problem(tag, *views, range(8), PARAMS, LIMITS)
        assert (full.src != 7).all() and np.isin(range(7), full.src).all()
        U = np_rng.uniform(-0.5, 0.5, (8, 3, 2))
    J, XS, WS = full.evaluate(U)
    masks = [(np.arange(8) % 2 == 1, np.array([True, False, True, True]))]
    masks.append((np.arange(8) >= 5, np.array([False, True, True])))
    masks.append((np.ones(8, dtype=bool), np.arange(8) != 3))
    while len(masks) < 12:
        a = np_rng.random(8) < 0.6
        b = np_rng.random(a.sum()) < 0.6
        if b.any():
            masks.append((a, b))
    for a, b in masks:
        c = a.copy()
        c[a] = b
        twice, once = full.rows(a).rows(b), full.rows(c)
        J_twice, xs, ws = twice.evaluate(U[c])
        J_once, xs_once, ws_once = once.evaluate(U[c])
        assert np.array_equal(J_twice, J_once) and np.array_equal(J_once, J[c])
        assert np.array_equal(xs, xs_once) and np.array_equal(ws, ws_once)
        assert np.array_equal(xs, XS[c]) and np.array_equal(ws, WS[c])
        found = twice.search_direction(U[c], xs, ws)
        for got, expected in zip(found, once.search_direction(U[c], xs, ws)):
            assert np.array_equal(got, expected)
    if tag in DISTRIBUTED_MPC_TAGS:
        # a mask that keeps only edge-free rows keeps no edge
        assert full.rows(np.arange(8) == 7).src.size == 0
        assert full.rows(np.arange(8) >= 5).rows(np.arange(3) == 2).src.size == 0


def edge_diffs(problem, xs):
    """Each edge's agent-neighbor differences at steps 1..T of the rollout."""
    return xs[problem.src] - problem.nbr_pos


@pytest.mark.parametrize("horizon", [1, 3, 5])
@pytest.mark.parametrize("tag", DISTRIBUTED_MPC_TAGS)
def test_batch_objective_prices_step_one_at_build(tag, horizon, np_rng):
    # the reference prices every step 1..T from the rollout, then sums each
    # edge's steps in order and each row's edges
    params = MpcParams(horizon=horizon)
    views = isolated_views(np_rng)
    full = _build_batch_problem(tag, *views, range(8), params, LIMITS)
    cost = full.cost
    U = np_rng.uniform(-0.5, 0.5, (8, horizon, 2))
    for idx in (range(8), [7], [5, 5, 0, 7, 2, 2]):
        idx = np.asarray(idx)
        for sub in sub_problems(tag, full, views, idx, params):
            J, xs, _ = sub.evaluate(U[idx])
            diff = edge_diffs(sub, xs)
            dist = np.sqrt((diff * diff).sum(axis=-1))
            edge = cost.weight * cost.term(dist)
            if cost.cohesion:
                edge = (1.0 / sub.edge_counts) * (dist * dist) + edge
            stage = np.bincount(sub.src, weights=edge.sum(axis=1), minlength=idx.size)
            penalty = (U[idx] * U[idx]).reshape(idx.size, -1).sum(axis=1)
            assert np.array_equal(J, stage + params.lam * penalty)
            # the isolated row has no edges: its objective is its penalty alone
            assert np.array_equal(J[idx == 7], params.lam * penalty[idx == 7])


@pytest.mark.parametrize("tag", DISTRIBUTED_MPC_TAGS)
def test_batch_stage_gradient_matches_add_at(tag, np_rng):
    views = isolated_views(np_rng)
    full = _build_batch_problem(tag, *views, range(8), PARAMS, LIMITS)
    U = np_rng.uniform(-0.5, 0.5, (8, 3, 2))
    for idx in (range(8), [7], [5, 5, 0, 7, 2, 2]):
        idx = np.asarray(idx)
        for sub in sub_problems(tag, full, views, idx, PARAMS):
            _, xs, _ = sub.evaluate(U[idx])
            diff = edge_diffs(sub, xs)[:, 1:]
            coef = sub.cost.slope(np.sqrt((diff * diff).sum(axis=-1)))
            if sub.cost.cohesion:
                coef = 2.0 / sub.edge_counts + coef
            expected = np.zeros_like(xs[:, 1:])
            np.add.at(expected, sub.src, coef[:, :, None] * diff)
            got = sub._stage_gradient(xs[:, 1:])
            assert got.dtype == expected.dtype and same_bits(got, expected)


class CountingProblem:
    """Passes every evaluation on to a batch problem and logs the batch rows
    and the controls it was handed; its sub-batches log to the same list."""

    def __init__(self, problem, ids, log):
        self.problem, self.ids, self.log = problem, ids, log
        self.limits = problem.limits

    def rows(self, keep):
        return CountingProblem(self.problem.rows(keep), self.ids[keep], self.log)

    def evaluate(self, U):
        self.log.append(("evaluate", self.ids.tolist(), U.copy()))
        return self.problem.evaluate(U)

    def search_direction(self, U, xs, ws):
        self.log.append(("gradient", self.ids.tolist(), U.copy()))
        return self.problem.search_direction(U, xs, ws)


def staggered_batch(np_rng):
    """A df_distributed batch of six agents that all see the truth, with
    their positions, velocities and warm starts: agents 0 and 1 sit at the
    df equilibrium spacing and agent 5 alone, so all three converge at the
    first check; the close trio 2-4 does not."""
    s_star = 50.0**0.25
    pos = np.array([[0, 0], [s_star, 0], [30, 0], [31.5, 0.5], [31, -1], [-30, 20]])
    vel = np.array([[0, 0], [0, 0], [1, 0], [-1, 0.5], [0, -1], [0, 0]], dtype=float)
    n = len(pos)
    warm = np.zeros((n, 3, 2))
    warm[2:5] = np_rng.uniform(-0.5, 0.5, (3, 3, 2))
    views = np.stack([pos] * n), np.stack([vel] * n)
    problem = _build_batch_problem("df_distributed", *views, range(n), PARAMS, LIMITS)
    return problem, warm, pos, vel


def test_solver_evaluates_only_rows_in_play(np_rng):
    problem, warm, pos, vel = staggered_batch(np_rng)
    n = len(pos)
    log = []
    U, _, _, _ = _solve_batch(CountingProblem(problem, np.arange(n), log), warm)
    view = config(pos, vel)
    singles = [
        solve_mpc("df_distributed", view, PARAMS, LIMITS, warm_start=warm[i], agent=i)
        for i in range(n)
    ]
    for i in range(n):
        assert np.array_equal(U[i], singles[i].controls)
    iterations = [s.iterations for s in singles]
    assert iterations[0] == iterations[1] == iterations[5] == 0
    assert min(iterations[2:5]) >= 5
    # a converged row's last gradient is the one that finds it converged
    gradients = [iterations[i] + singles[i].converged for i in range(n)]
    starts = [k for k, entry in enumerate(log) if entry[0] == "gradient"]
    handed = [log[k][1] for k in starts]
    sizes = [len(ids) for ids in handed]
    assert sizes == sorted(sizes, reverse=True)
    live = [[i for i in range(n) if gradients[i] > k] for k in range(len(starts))]
    assert handed == live
    for k, start in enumerate(starts):
        end = starts[k + 1] if k + 1 < len(starts) else len(log)
        probes = log[start + 1 : end]
        if not probes:
            continue
        # the probes of iteration k hold the rows with a k-th line search,
        # each once per call, and a row leaves them for good once it is
        # accepted or stalls
        assert probes[0][1] == [i for i in range(n) if iterations[i] > k]
        for before, after in zip(probes, probes[1:]):
            assert set(after[1]) <= set(before[1])
        if end == len(log):
            continue
        for i, plan in zip(log[end][1], log[end][2]):
            hits = [
                any(np.array_equal(plan, p) for j, p in zip(ids, tried) if j == i)
                for _, ids, tried in probes
                if i in ids
            ]
            # the call that found the accepted plan was the row's last
            assert hits.index(True) == len(hits) - 1


# --------------------------------------------------------------------------
# stacked centralized stages and the batched line search
# --------------------------------------------------------------------------


def plain_centralized_cost(tag, pos, params):
    """The centralized stage cost written out pair by pair."""
    n, total = len(pos), 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dist = math.dist(pos[i], pos[j])
            if tag == "df_centralized" and i < j:
                total += 2.0 / (n * (n - 1)) * dist * dist
            if dist < params.r:
                if tag == "lattice_centralized":
                    total += (max(dist, EPS_DIST) - params.d) ** 2
                else:
                    total += params.omega / max(dist * dist, EPS_DIST_SQ)
    return total


def one_stage_gradient(tag, x, params):
    """The centralized stage gradient of one configuration x (n, m), with
    the 2-D arrays of a single stage."""
    n = x.shape[0]
    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    mask = dist < params.r
    np.fill_diagonal(mask, False)
    dist_f = np.maximum(dist, EPS_DIST)
    active = mask & (dist >= EPS_DIST)
    if tag == "lattice_centralized":
        coef = np.where(active, 4.0 * (dist_f - params.d) / dist_f, 0.0)
        return coef.sum(axis=1)[:, None] * x - coef @ x
    if n < 2:
        return np.zeros_like(x)
    c_n = 2.0 / (n * (n - 1))
    grad = 2.0 * c_n * (n * x - x.sum(axis=0))
    sq_f = dist_f * dist_f
    coef = np.where(active, -4.0 * params.omega / (sq_f * sq_f), 0.0)
    return grad + (coef.sum(axis=1)[:, None] * x - coef @ x)


@pytest.mark.parametrize("degenerate", [False, True])
@pytest.mark.parametrize("T", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 5, 30])
@pytest.mark.parametrize("tag", CENTRALIZED_MPC_TAGS)
def test_stacked_centralized_objective_matches_single_plans(
    tag, n, T, degenerate, np_rng
):
    pos = np_rng.uniform(-8.0, 8.0, (n, 2))
    vel = np_rng.uniform(-1.0, 1.0, (n, 2))
    if degenerate and n >= 2:
        # two coincident agents, which the zero plan keeps together (the
        # EPS floors), and an agent no one sees
        pos[1], vel[1] = pos[0], vel[0]
        pos[-1] = (80.0, 80.0)
    view = config(pos, vel)
    params = MpcParams(horizon=T)
    one = _single_problem(tag, view, params, LIMITS, None)
    # six plans of the one row
    problem = _build_centralized_problem(tag, *repeated(view, 6), params, LIMITS)
    U = np_rng.uniform(-1.0, 1.0, (6, T, n, 2))
    U[0] = 0.0
    J, xs, _ = problem.evaluate(U)
    assert J.shape == (6,)
    public = lattice_deviation_centralized if tag == "lattice_centralized" else (
        cost_df_centralized
    )
    args = (params.d,) if tag == "lattice_centralized" else (params.omega,)
    stack = xs.reshape(-1, n, 2)
    cost = mpc._pair_cost(tag, params)
    stages = mpc._centralized_stage_values(cost, stack, params.r)
    grads = mpc._centralized_stage_gradient(cost, stack, params.r)
    assert grads.shape == stack.shape
    for s, x in enumerate(stack):
        alone = mpc._centralized_stage_values(cost, x[None], params.r)
        assert np.array_equal(alone, stages[s : s + 1])
        alone = mpc._centralized_stage_gradient(cost, x[None], params.r)
        assert np.array_equal(alone, grads[s : s + 1])
        assert np.array_equal(one_stage_gradient(tag, x, params), grads[s])
    # the step-1 stage, computed once per problem, is every plan's step 1
    assert np.array_equal(problem.first_stage, stages[::T])
    for k, plan in enumerate(U):
        assert np.array_equal(one.evaluate(U[k : k + 1])[0], J[k : k + 1])
        trajectory = rollout_centralized(view, plan, LIMITS)
        assert mpc_objective(tag, trajectory, plan, params) == J[k]
        for cfg in trajectory[1:]:
            expected = plain_centralized_cost(tag, cfg.positions, params)
            got = public(cfg, params.r, *args)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def repeated(view, k):
    """k copies of the view's positions and of its velocities, stacked."""
    return np.stack([view.positions] * k), np.stack([view.velocities] * k)


def fast_config(np_rng, n):
    """n agents close together, moving just under the speed limit."""
    heading = np_rng.uniform(0.0, 2.0 * np.pi, n)
    speed = np_rng.uniform(7.5, 7.95, n)
    vel = speed[:, None] * np.stack([np.cos(heading), np.sin(heading)], axis=1)
    return config(np_rng.uniform(-8.0, 8.0, (n, 2)), vel)


def assert_clamp_active(ws):
    assert (np.sqrt((ws * ws).sum(axis=-1)) > LIMITS.v_max).any()


@pytest.mark.parametrize("tag", CENTRALIZED_MPC_TAGS)
def test_centralized_gradient_reuses_probe_rollout(tag, np_rng):
    # agents moving close to the speed limit, so the plans drive the clamp
    view = fast_config(np_rng, 12)
    problem = _single_problem(tag, view, PARAMS, LIMITS, None)
    # several plans of the one row in one call, the row repeated
    U = np_rng.uniform(-1.0, 1.0, (5, 3, 12, 2))
    U = clamp_norm(U, LIMITS.a_max)
    several = _build_centralized_problem(tag, *repeated(view, 5), PARAMS, LIMITS)
    _, xs, ws = several.evaluate(U)
    assert_clamp_active(ws)
    for k in range(len(U)):
        plan = U[k : k + 1]
        reused = problem.gradient(plan, xs[k : k + 1], ws[k : k + 1])
        fresh = problem.gradient(
            plan, *mpc._rollout_arrays(problem.x0, problem.v0, plan, LIMITS)
        )
        assert np.array_equal(reused, fresh)
        public = mpc_objective_gradient(tag, view, U[k], PARAMS, LIMITS)
        assert np.array_equal(reused[0], public)


@pytest.mark.parametrize("tag", DISTRIBUTED_MPC_TAGS)
def test_distributed_gradient_reuses_probe_rollout(tag, np_rng):
    n = 10
    cfg = fast_config(np_rng, n)
    pos, vel = sense_local_all(cfg, noise_for_level(3), RandomStream(9))
    full = _build_batch_problem(tag, pos, vel, range(n), PARAMS, LIMITS)
    # several plans of some rows in one call, those rows repeated
    rep = np.array([0, 0, 0, 3, 4, 4, 7, 9, 9, 9, 9])
    # plans that mostly speed each agent up along its sensed heading
    own = vel[rep, rep]
    ahead = own / np.sqrt((own * own).sum(axis=-1, keepdims=True))
    U = ahead[:, None, :] + np_rng.uniform(-0.5, 0.5, (rep.size, 3, 2))
    U = clamp_norm(U, LIMITS.a_max)
    several = _build_batch_problem(tag, pos[rep], vel[rep], rep, PARAMS, LIMITS)
    _, xs, ws = several.evaluate(U)
    assert_clamp_active(ws)
    for k, i in enumerate(rep):
        row, plan = full.rows(np.arange(n) == i), U[k : k + 1]
        reused = row.gradient(plan, xs[k : k + 1], ws[k : k + 1])
        fresh = row.gradient(plan, *mpc._rollout_arrays(row.x0, row.v0, plan, LIMITS))
        assert np.array_equal(reused, fresh)
        view = FlockConfiguration(pos[i], vel[i])
        public = mpc_objective_gradient(tag, view, U[k], PARAMS, LIMITS, agent=i)
        assert np.array_equal(reused[0], public)


@pytest.mark.parametrize("tag", MPC_TAGS)
def test_one_step_horizon_gradient_is_control_penalty(tag, np_rng):
    # step 1 does not depend on the controls: with T = 1 only lam |U|^2 does
    params = MpcParams(horizon=1, lam=0.7)
    view = random_config(np_rng, n=6, span=5.0, v_span=7.9)
    shape = (1, 6, 2) if tag in CENTRALIZED_MPC_TAGS else (1, 2)
    u = clamp_norm(np_rng.uniform(-1.0, 1.0, shape), LIMITS.a_max)
    agent = None if tag in CENTRALIZED_MPC_TAGS else 2
    grad = mpc_objective_gradient(tag, view, u, params, LIMITS, agent=agent)
    assert np.array_equal(grad, 2.0 * params.lam * u)
    U, *_ = _solve_batch(_single_problem(tag, view, params, LIMITS, agent), u[None])
    assert np.allclose(U, 0.0, atol=1e-5)


@pytest.mark.parametrize("tag", CENTRALIZED_MPC_TAGS)
def test_forward_controls_match_finite_differences_of_the_rollout(tag, np_rng):
    # agents near the speed limit, so the plans drive the velocity clamp
    view = fast_config(np_rng, 8)
    problem = _build_centralized_problem(tag, *repeated(view, 4), PARAMS, LIMITS)
    x0, v0 = problem.x0, problem.v0
    U = clamp_norm(np_rng.uniform(-1.0, 1.0, (4, 3, 8, 2)), LIMITS.a_max)
    D = np_rng.uniform(-1.0, 1.0, U.shape)
    xs, ws = mpc._rollout_arrays(x0, v0, U, LIMITS)
    assert_clamp_active(ws)
    xd = horizon._forward_controls(D, ws, LIMITS)
    h = 1e-6
    ahead, _ = mpc._rollout_arrays(x0, v0, U + h * D, LIMITS)
    behind, _ = mpc._rollout_arrays(x0, v0, U - h * D, LIMITS)
    assert xd.shape == xs[:, 1:].shape
    assert np.allclose(xd, (ahead - behind)[:, 1:] / (2 * h), rtol=1e-6, atol=1e-8)
    # the tangent pass mirrors the adjoint pass: <backprop(gx), D> = <gx, xd>
    gx = np_rng.normal(size=xd.shape)
    gu = horizon._backprop_controls(gx, ws, U, LIMITS, 0.0)
    assert (gu * D).sum() == pytest.approx((gx * xd).sum(), rel=1e-12)


class PlainDirection:
    """A problem whose line searches follow minus the gradient with no step
    cap, as they would with no walls."""

    def __init__(self, problem):
        self.problem, self.limits = problem, problem.limits

    def rows(self, keep):
        return PlainDirection(self.problem.rows(keep))

    def evaluate(self, U):
        return self.problem.evaluate(U)

    def search_direction(self, U, xs, ws):
        G = self.problem.gradient(U, xs, ws)
        return G, G, np.full(len(U), np.inf)


def test_pair_just_beyond_r_converges_at_the_wall():
    # agents 0 and 1 at rest r + 1e-4 apart: cohesion pulls them together,
    # and their separation term would jump in inside r.  Without the walls
    # the line search creeps towards r and stalls; with them the pair is
    # held just beyond r and the solve converges there, lower
    r = PARAMS.r
    view = config([[0.0, 0.0], [r + 1e-4, 0.0], [r / 2, 4.0]])
    problem = _single_problem("df_centralized", view, PARAMS, LIMITS, None)
    U, converged, iterations, trace = _solve_batch(problem, np.zeros((1, 3, 3, 2)))
    assert converged[0] and iterations <= 5
    _, xs, _ = problem.evaluate(U)
    excess = np.sqrt(((xs[0, :, 0] - xs[0, :, 1]) ** 2).sum(axis=-1)) - r
    assert ((excess >= 0) & (excess <= mpc.WALL_GAP)).all()
    plain = PlainDirection(problem)
    _, plain_converged, plain_iterations, plain_trace = _solve_batch(
        plain, np.zeros((1, 3, 3, 2))
    )
    assert not plain_converged[0] and plain_iterations > iterations
    assert trace[-1] < plain_trace[-1]


@pytest.mark.parametrize("excess", [5e-4, 5e-3])
def test_wall_gap_separates_walls_from_capping_pairs(excess):
    # two agents at rest r + excess apart, pulled together by cohesion:
    # within WALL_GAP of r the pair is a wall and the direction may not pull
    # it in; beyond it the direction does, and the line search's first step
    # is CROSS_FRACTION times the first-order step at which it enters r
    r = PARAMS.r
    view = config([[0.0, 0.0], [r + excess, 0.0]])
    problem = _single_problem("df_centralized", view, PARAMS, LIMITS, None)
    U = np.zeros((1, 3, 2, 2))
    _, xs, ws = problem.evaluate(U)
    G, P, cap = problem.search_direction(U, xs, ws)
    assert np.array_equal(G, problem.gradient(U, xs, ws))

    def distances(plan):
        _, xs, _ = problem.evaluate(plan)
        return np.sqrt(((xs[0, 1:, 0] - xs[0, 1:, 1]) ** 2).sum(axis=-1))

    h = 1e-6
    rate = (distances(U - h * P) - distances(U + h * P)) / (2 * h)
    if excess < mpc.WALL_GAP:
        assert not np.array_equal(P, G)
        assert np.allclose(rate, 0.0, atol=1e-9) and np.abs(P).max() < 1e-12
        assert cap[0] == np.inf
    else:
        assert P is G
        assert (rate < 0).all()
        crossing = (distances(U) - r) / -rate
        assert cap[0] == pytest.approx(mpc.CROSS_FRACTION * crossing.min(), rel=1e-6)


def test_walls_and_caps_in_several_rows_match_each_row_alone():
    # three rows of three agents under the zero plan, each agent moving at
    # its own constant velocity; the pairs i < j of all rows' steps 2..3
    # are one stack, whose (stage, pair) entries map back to (row, step,
    # i, j).  Row 0 has a wall pair at step 2 (inside r at step 3), row 1 a
    # wall pair at step 3 and a capping pair at step 2, row 2 a capping
    # pair alone; the third agent of every row is far from the others
    r, gap, dt = PARAMS.r, 5e-4, LIMITS.dt
    pos = np.array([
        [[0.0, 0.0], [r + gap + 2 * dt, 0.0], [0.0, 40.0]],
        [[0.0, -40.0], [0.0, 0.0], [r + gap + 3 * dt, 0.0]],
        [[0.0, 0.0], [0.0, 40.0], [r + 10 * gap, 0.0]],
    ])
    vel = np.zeros_like(pos)
    vel[0, 1] = vel[1, 2] = (-1.0, 0.0)
    problem = _build_centralized_problem("df_centralized", pos, vel, PARAMS, LIMITS)
    U = np.zeros((3, 3, 3, 2))
    _, xs, ws = problem.evaluate(U)
    excess = np.sqrt(((xs[:, 1:, 0] - xs[:, 1:, 1]) ** 2).sum(axis=-1)) - r
    assert 0 < excess[0, 0] <= mpc.WALL_GAP and excess[0, 1] < 0
    excess = np.sqrt(((xs[:, 1:, 1] - xs[:, 1:, 2]) ** 2).sum(axis=-1)) - r
    assert mpc.WALL_GAP < excess[1, 0] and 0 < excess[1, 1] <= mpc.WALL_GAP
    G, P, cap = problem.search_direction(U, xs, ws)
    for k in range(3):
        alone = problem.rows(np.arange(3) == k).search_direction(
            U[k : k + 1], xs[k : k + 1], ws[k : k + 1]
        )
        for stacked, one in zip((G, P, cap), alone):
            assert np.array_equal(stacked[k : k + 1], one)
    assert not np.array_equal(P[0], G[0]) and not np.array_equal(P[1], G[1])
    assert np.array_equal(P[2], G[2])
    assert cap[0] == np.inf and np.isfinite(cap[1:]).all()


@pytest.mark.parametrize("tag", CENTRALIZED_MPC_TAGS)
@pytest.mark.parametrize("steps, n", [(1, 6), (3, 1)])
def test_one_step_or_one_agent_gives_no_walls_and_no_cap(tag, steps, n, np_rng):
    view = random_config(np_rng, n=n, span=5.0, v_span=7.9)
    params = MpcParams(horizon=steps)
    problem = _single_problem(tag, view, params, LIMITS, None)
    # plans with saturated controls, which a penalty-only gradient pulls in
    U = clamp_norm(np_rng.uniform(-2.0, 2.0, (1, steps, n, 2)), LIMITS.a_max)
    _, xs, ws = problem.evaluate(U)
    G, P, cap = problem.search_direction(U, xs, ws)
    assert P is G and np.array_equal(G, problem.gradient(U, xs, ws))
    assert cap.tolist() == [np.inf]


def test_wall_projection_is_exact(np_rng):
    # the projection of g onto the cone A x <= 0 meets its optimality
    # conditions to rounding: x = g - A^T lam, lam >= 0, A x <= 0 and
    # lam . A x = 0, also with repeated and parallel constraint rows
    for k in range(40):
        A = np_rng.normal(size=(1 + k % 6, 12))
        if k % 3 == 0:
            A = np.concatenate([A, 2.0 * A[:1], A[:1]])
        g = np_rng.normal(size=12)
        lam = horizon._nnls(A @ A.T, A @ g, 1e-12)
        x = g - lam @ A
        assert (lam >= 0).all()
        assert (A @ x <= 1e-12).all()
        assert abs(lam @ (A @ x)) <= 1e-12


def test_solver_rolls_out_once_per_evaluation():
    # every rollout inside the solver comes from an evaluation; a gradient
    # takes the rollout of the evaluation that accepted its point
    counts = {"rollouts": 0, "evaluations": 0, "in_gradient": 0}
    rollout = mpc._rollout_arrays
    evaluate = _CentralizedProblem.evaluate
    search_direction = _CentralizedProblem.search_direction

    def counting_rollout(*args):
        counts["rollouts"] += 1
        return rollout(*args)

    def counting_evaluate(self, U):
        counts["evaluations"] += 1
        return evaluate(self, U)

    def checked_search_direction(self, U, xs, ws):
        before = counts["rollouts"]
        found = search_direction(self, U, xs, ws)
        counts["in_gradient"] += counts["rollouts"] - before
        return found

    cfg = ExperimentConfig(model=default_model_spec("df_centralized"))
    with mock.patch.object(mpc, "_rollout_arrays", counting_rollout), \
            mock.patch.object(_CentralizedProblem, "evaluate", counting_evaluate), \
            mock.patch.object(
                _CentralizedProblem, "search_direction", checked_search_direction
            ):
        simulate(cfg, mix_seed(1, 0))
    assert (cfg.n, cfg.steps) == (30, 100)
    assert counts == {"rollouts": 1046, "evaluations": 1046, "in_gradient": 0}


def bb_scale(s, y):
    """One row's Barzilai-Borwein scale after its move s changed its
    projected gradient by y: s.s / s.y clipped to [2**-10, 2**10], and
    2**10 when s.y <= 0."""
    sy = float((s * y).sum())
    if sy <= 0.0:
        return 2.0**10
    return min(max(float((s * s).sum()) / sy, 2.0**-10), 2.0**10)


def first_scale(last, u, p, cap):
    """The first step of a row's line search from the plan u with the
    projected gradient p and step cap `cap`: 1, or `bb_scale` of the move
    from last = (plan, projected gradient) of its previous search, and at
    most the cap."""
    scale = 1.0 if last is None else bb_scale(u - last[0], p - last[1])
    return min(scale, float(cap))


class TrappedProblem:
    """Passes evaluations on to a problem, except that its objective is NaN
    at chosen line-search probes: traps[i][k] holds the halvings h whose
    probe (step scale * 2**-h along minus the projected gradient P) is
    trapped in batch row i's k-th line search, counted by the row's
    gradient evaluations; the scale is `first_scale` of the row's search.
    Logs the rows of each objective call and counts the trapped probes it
    was handed."""

    def __init__(self, problem, ids, traps, state):
        self.problem, self.ids, self.traps, self.state = problem, ids, traps, state
        self.limits = problem.limits

    @classmethod
    def wrap(cls, problem, size, traps=None):
        state = {"grads": {}, "last": {}, "plans": {}, "calls": [], "trapped": 0}
        return cls(problem, np.arange(size), traps or {}, state)

    def rows(self, keep):
        return TrappedProblem(self.problem.rows(keep), self.ids[keep], self.traps, self.state)

    def search_direction(self, U, xs, ws):
        G, P, cap = self.problem.search_direction(U, xs, ws)
        for i, u, p, c in zip(self.ids.tolist(), U, P, cap):
            k = self.state["grads"].get(i, 0)
            self.state["grads"][i] = k + 1
            scale = first_scale(self.state["last"].get(i), u, p, c)
            self.state["last"][i] = (u.copy(), p)
            trapped = self.traps.get(i, [])
            halvings = trapped[k] if k < len(trapped) else ()
            self.state["plans"][i] = [
                clamp_norm(u - scale * 2.0**-h * p, self.limits.a_max)
                for h in halvings
            ]
        return G, P, cap

    def evaluate(self, U):
        J, xs, ws = self.problem.evaluate(U)
        J = J.copy()
        self.state["calls"].append(self.ids.tolist())
        for k, (i, u) in enumerate(zip(self.ids.tolist(), U)):
            if any(np.array_equal(u, p) for p in self.state["plans"].get(i, ())):
                J[k] = np.nan
                self.state["trapped"] += 1
        return J, xs, ws


def sequential_solve(problem, warm):
    """Reference solver: projected gradient descent whose line search probes
    the steps a, a/2, ..., a * 2**-LAST_HALVING along minus the projected
    gradient P one at a time, each row evaluated alone through problem.rows
    and every row searching in lockstep, raising on the first probe that is
    non-finite.  A row's first step a is `first_scale`: 1 or the
    Barzilai-Borwein scale of its last accepted move, at most the row's
    cap.  Returns the plans, and per row its iterations, converged flag,
    accepted-objective trace and the halvings of its accepted steps.  The
    search direction at a point takes the rollout the point's evaluation
    returned."""
    B, a_max = warm.shape[0], problem.limits.a_max
    alone = [problem.rows(np.arange(B) == i) for i in range(B)]
    U = clamp_norm(warm, a_max)
    J, rollouts = [], []
    for i in range(B):
        value, xs, ws = alone[i].evaluate(U[i : i + 1])
        J.append(value[0])
        rollouts.append((xs, ws))
    traces = [[float(j)] for j in J]
    accepted = [[] for _ in range(B)]
    iterations = np.zeros(B, dtype=int)
    converged = np.zeros(B, dtype=bool)
    scales, last = np.ones(B), {}
    live = list(range(B))
    for _ in range(MAX_ITER):
        found = {i: alone[i].search_direction(U[i : i + 1], *rollouts[i]) for i in live}
        G = {i: found[i][1][0] for i in live}
        for i in live:
            step = np.sqrt(((U[i] - clamp_norm(U[i] - G[i], a_max)) ** 2).sum())
            converged[i] = step <= GRAD_TOL
        live = [i for i in live if not converged[i]]
        if not live:
            break
        iterations[live] += 1
        for i in live:
            scales[i] = first_scale(last.get(i), U[i], G[i], found[i][2][0])
            last[i] = (U[i].copy(), G[i])
        searching, going = list(live), []
        for h in range(LAST_HALVING + 1):
            step = {i: scales[i] * 2.0**-h for i in searching}
            tried = {i: clamp_norm(U[i] - step[i] * G[i], a_max) for i in searching}
            evaluated = {i: alone[i].evaluate(tried[i][None]) for i in searching}
            values = {i: evaluated[i][0][0] for i in searching}
            bad = [i for i in searching if not np.isfinite(values[i])]
            if bad:
                raise SolverError(
                    "non-finite MPC objective during line search",
                    {"agents": np.array(bad)},
                )
            for i in searching:
                delta = ((U[i] - tried[i]) ** 2).sum()
                if values[i] <= J[i] - (ARMIJO_C / step[i]) * delta:
                    U[i], J[i] = tried[i], values[i]
                    rollouts[i] = evaluated[i][1:]
                    traces[i].append(float(values[i]))
                    accepted[i].append(h)
                    going.append(i)
            searching = [i for i in searching if i not in going]
            if not searching:
                break
        live = sorted(going)
        if not live:
            break
    return U, iterations, converged, traces, accepted


def closed_loop_solves(tag, steps, level=0):
    """The problem and warm start of every MPC solve of a closed-loop run of
    `steps` steps at n = 30, in order: the first starts from zeros, and each
    later one from the plan of the solve before it."""
    solve, solves = mpc._solve_batch, []

    def spy(problem, warm):
        solves.append((problem, warm.copy()))
        return solve(problem, warm)

    noise = noise_for_level(level)
    cfg = ExperimentConfig(model=default_model_spec(tag), steps=steps, noise=noise)
    with mock.patch.object(mpc, "_solve_batch", spy):
        simulate(cfg, mix_seed(1, 0))
    return solves


def ladder_cases(np_rng):
    """Random centralized and noisy distributed problems with warm starts,
    and closed-loop solves at n = 30 whose line searches run long: the df
    centralized one halves its step dozens of times and stalls.  Each
    centralized tag also gets one problem of four rows: three distinct
    views and a repeat of one."""
    cases = []
    for tag in CENTRALIZED_MPC_TAGS:
        for n in (5, 10):
            view = random_config(np_rng, n=n, span=6.0, v_span=3.0)
            problem = _single_problem(tag, view, PARAMS, LIMITS, None)
            cases.append((problem, np_rng.uniform(-0.5, 0.5, (1, 3, n, 2))))
        views = [random_config(np_rng, n=8, span=6.0, v_span=3.0) for _ in range(3)]
        views.append(views[1])
        problem = _build_centralized_problem(
            tag,
            np.stack([view.positions for view in views]),
            np.stack([view.velocities for view in views]),
            PARAMS,
            LIMITS,
        )
        cases.append((problem, np_rng.uniform(-0.5, 0.5, (4, 3, 8, 2))))
    stream = RandomStream(7)
    for tag in DISTRIBUTED_MPC_TAGS:
        for n in (6, 12):
            cfg = random_config(np_rng, n=n, span=8.0, v_span=3.0)
            views = sense_local_all(cfg, noise_for_level(3), stream)
            problem = _build_batch_problem(tag, *views, range(n), PARAMS, LIMITS)
            cases.append((problem, np_rng.uniform(-0.5, 0.5, (n, 3, 2))))
    cases.append(closed_loop_solves("df_centralized", 6)[-1])
    cases.append(closed_loop_solves("lattice_centralized", 6)[-1])
    cases.append(closed_loop_solves("df_distributed", 7, level=10)[-1])
    return cases


def lockstep_rounds(iterations, accepted):
    """The objective calls of `sequential_solve`'s line searches run in
    lockstep: in its k-th, one per halving down to the deepest step a row
    accepts, or all LAST_HALVING + 1 where a row stalls."""
    return sum(
        max(
            accepted[i][k] + 1 if len(accepted[i]) > k else LAST_HALVING + 1
            for i in range(len(accepted))
            if iterations[i] > k
        )
        for k in range(iterations.max())
    )


def test_step_ladder_matches_sequential_line_search(np_rng):
    deepest = 0
    for problem, warm in ladder_cases(np_rng):
        B = len(warm)
        U, iterations, converged, traces, accepted = sequential_solve(problem, warm)
        deepest = max([deepest] + [h for halvings in accepted for h in halvings])
        wrapped = TrappedProblem.wrap(problem, B)
        got_U, got_converged, got_iterations, _ = _solve_batch(wrapped, warm)
        assert np.array_equal(got_U, U)
        assert np.array_equal(got_converged, converged)
        assert got_iterations == iterations.max()
        calls = wrapped.state["calls"]
        # one probe per searching row per call, and one call per lockstep
        # round after the initial evaluation
        assert all(len(ids) == len(set(ids)) for ids in calls)
        assert len(calls) == 1 + lockstep_rounds(iterations, accepted)
        for i in range(B):
            one = _solve_batch(problem.rows(np.arange(B) == i), warm[i : i + 1])
            plan, one_converged, one_iterations, trace = one
            assert np.array_equal(plan[0], U[i])
            assert (one_converged[0], one_iterations) == (converged[i], iterations[i])
            assert trace == traces[i]
    # some line searches halved their step more than six times
    assert deepest > 6


def test_step_ladder_matches_sequential_search_at_the_iteration_cap(np_rng):
    capped, cases = 0, ladder_cases(np_rng)
    with mock.patch.object(mpc, "MAX_ITER", 3), mock.patch.dict(globals(), MAX_ITER=3):
        for problem, warm in cases:
            U, iterations, converged, traces, accepted = sequential_solve(problem, warm)
            got_U, got_converged, got_iterations, trace = _solve_batch(problem, warm)
            assert np.array_equal(got_U, U)
            assert np.array_equal(got_converged, converged)
            assert got_iterations == iterations.max() <= 3
            assert trace == traces[0]
            # rows whose third line search succeeded and still did not converge
            capped += sum(
                len(accepted[i]) == 3 and not converged[i] for i in range(len(warm))
            )
    assert capped > 0


def test_step_ladder_ignores_non_finite_probes_past_the_accepted_step(np_rng):
    trapped = 0
    for problem, warm in ladder_cases(np_rng):
        B = len(warm)
        U, iterations, converged, _, accepted = sequential_solve(problem, warm)
        # every probe below the step each line search accepts is NaN
        traps = {
            i: [range(h + 1, LAST_HALVING + 1) for h in accepted[i]] for i in range(B)
        }
        wrapped = TrappedProblem.wrap(problem, B, traps)
        got_U, got_converged, got_iterations, _ = _solve_batch(wrapped, warm)
        assert np.array_equal(got_U, U)
        assert np.array_equal(got_converged, converged)
        assert got_iterations == iterations.max()
        trapped += wrapped.state["trapped"]
    # a row leaves the lockstep search at the step it accepts
    assert trapped == 0


def test_step_ladder_raises_where_sequential_search_does(np_rng):
    rng = np.random.default_rng(3)
    raised, several = 0, 0
    for problem, warm in ladder_cases(np_rng) * 3:
        B = len(warm)
        _, _, _, _, accepted = sequential_solve(problem, warm)
        # in one line search of the solve, trap a probe that half of the
        # rows reach: at or above the halving they accept there
        k = int(rng.integers(max(len(halvings) for halvings in accepted)))
        traps = {
            i: [()] * k + [(int(rng.integers(accepted[i][k] + 1)),)]
            for i in range(B)
            if len(accepted[i]) > k and rng.random() < 0.5
        }
        outcomes = []
        for solve in (sequential_solve, _solve_batch):
            wrapped = TrappedProblem.wrap(problem, B, traps)
            try:
                solve(wrapped, warm)
                outcomes.append(None)
            except SolverError as err:
                diagnostics = err.diagnostics
                outcomes.append((str(err), diagnostics["agents"].tolist()))
        assert outcomes[0] == outcomes[1]
        if outcomes[1] is not None:
            # the batch solver reports each named row's trapped probe
            agents = diagnostics["agents"].tolist()
            assert not np.isfinite(diagnostics["objective"]).any()
            assert len(diagnostics["objective"]) == len(agents)
            for k, i in enumerate(agents):
                [plan] = wrapped.state["plans"][i]
                assert np.array_equal(diagnostics["controls"][k], plan)
            raised += 1
            # rows trapped at a later halving than the first are not named
            several += len(outcomes[1][1]) < len(traps)
    assert raised > 0 and several > 0


def line_search_starts(log):
    """Per batch row of a CountingProblem log, each line search as the point
    it starts from and its first probe: a gradient call hands the row's
    point, and the row's first plan in the next objective call is the probe
    at halving 0."""
    starts, point = {}, {}
    for kind, ids, plans in log:
        if kind == "gradient":
            point.update(zip(ids, plans))
            continue
        for i, plan in zip(ids, plans):
            if i in point:
                starts.setdefault(i, []).append((point.pop(i), plan))
    return starts


def gradient_at(problem, i, u):
    """Batch row i's gradient at the plan u, its row evaluated alone."""
    row, U = problem.rows(np.arange(len(problem.x0)) == i), u[None]
    _, xs, ws = row.evaluate(U)
    return row.gradient(U, xs, ws)[0]


def direction_at(problem, i, u):
    """Batch row i's projected gradient and step cap at the plan u, its row
    evaluated alone."""
    row, U = problem.rows(np.arange(len(problem.x0)) == i), u[None]
    _, xs, ws = row.evaluate(U)
    _, P, cap = row.search_direction(U, xs, ws)
    return P[0], float(cap[0])


@pytest.mark.parametrize("tag", MPC_TAGS)
def test_first_line_search_of_every_solve_probes_step_one(tag):
    # the solves of a closed loop, in order: the first cold, the later ones
    # warm-started; each solve's first search starts at step 1, later ones
    # at the row's own Barzilai-Borwein scale.  A distributed row steps
    # along minus its gradient; a centralized row along minus its projected
    # gradient, and its first step is at most its cap
    first, later, capped = 0, 0, 0
    for problem, warm in closed_loop_solves(tag, 4, level=3):
        log = []
        counting = CountingProblem(problem, np.arange(len(warm)), log)
        _solve_batch(counting, warm)
        starts = line_search_starts(log)
        assert starts
        for i, searches in starts.items():
            for k, (u, probe) in enumerate(searches):
                if tag in DISTRIBUTED_MPC_TAGS:
                    g, cap = gradient_at(problem, i, u), np.inf
                else:
                    g, cap = direction_at(problem, i, u)
                unit = clamp_norm(u - min(1.0, cap) * g, LIMITS.a_max)
                if k == 0:
                    assert np.array_equal(probe, unit)
                    first += 1
                    capped += cap < 1.0
                else:
                    later += not np.array_equal(probe, unit)
    assert first > 0 and later > 0
    if tag in CENTRALIZED_MPC_TAGS:
        assert capped > 0


class QuadraticProblem:
    """Batch rows with the objective sum(c * U**2) / 2 and no rollout: row
    k's curvature c[k] has the plan's shape, so the Barzilai-Borwein scale of
    a move s is s.s / (c s).s."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)
        self.limits = LIMITS

    def rows(self, keep):
        return QuadraticProblem(self.c[keep])

    def evaluate(self, U):
        J = 0.5 * (self.c * U * U).reshape(len(U), -1).sum(axis=1)
        return J, U, U

    def search_direction(self, U, xs, ws):
        G = self.c * U
        return G, G, np.full(len(U), np.inf)


def second_line_searches(c, warm):
    """Solve the quadratic rows c from warm.  Per row, in row order: its
    first accepted move s, the gradient change y along it, and the point u,
    gradient g and first probe of its second line search."""
    log = []
    problem = QuadraticProblem(c)
    _solve_batch(CountingProblem(problem, np.arange(len(c)), log), warm)
    out = []
    for i, searches in sorted(line_search_starts(log).items()):
        (u0, _), (u1, probe) = searches[:2]
        g0, g1 = problem.c[i] * u0, problem.c[i] * u1
        out.append((u1 - u0, g1 - g0, u1, g1, probe))
    return out


def probe_at(u, g, scale):
    return clamp_norm(u - scale * g, LIMITS.a_max)


def test_line_search_without_positive_curvature_starts_at_the_largest_scale():
    # concave rows: the first move meets s.y < 0, and the second search
    # starts at the scale 2**10
    c = np.full((2, 3, 2), -2.0)
    c[1, :, 0] = -0.5
    rows = second_line_searches(c, np.full((2, 3, 2), 0.05))
    assert len(rows) == 2
    for s, y, u, g, probe in rows:
        assert (s * y).sum() < 0
        assert np.array_equal(probe, probe_at(u, g, 2.0**10))
        raw = (s * s).sum() / (s * y).sum()
        assert not np.array_equal(probe, probe_at(u, g, abs(raw)))


def test_line_search_scale_is_clipped_at_both_ends():
    # a quadratic row's Barzilai-Borwein scale is 1/c: the flat rows ask for
    # more than 2**10 and take 2**10, the steep one asks for less than
    # 2**-10 and takes 2**-10, and the anisotropic row's lies in between
    c = np.empty((4, 3, 2))
    c[0], c[1], c[2] = 2.0**-12, 1 / 3000, 3000.0
    c[3] = [[0.5, 2.0], [1.0, 1.5], [0.7, 0.9]]
    rows = second_line_searches(c, np.full((4, 3, 2), 0.1))
    assert len(rows) == 4
    raw = [(s * s).sum() / (s * y).sum() for s, y, *_ in rows]
    assert raw[0] > raw[1] > 2.0**10 and raw[2] < 2.0**-10
    assert 2.0**-10 < raw[3] < 2.0**10
    clipped = [2.0**10, 2.0**10, 2.0**-10, raw[3]]
    for (_, _, u, g, probe), scale, wanted in zip(rows, raw, clipped):
        assert np.array_equal(probe, probe_at(u, g, wanted))
        if scale != wanted:
            assert not np.array_equal(probe, probe_at(u, g, scale))


class HeldQuadratic(QuadraticProblem):
    """Quadratic rows whose component [0, 0] is held from the second search
    direction on: there the projected gradient has it zeroed."""

    def __init__(self, c, calls=None):
        super().__init__(c)
        self.calls = {} if calls is None else calls

    def rows(self, keep):
        return HeldQuadratic(self.c[keep], self.calls)

    def search_direction(self, U, xs, ws):
        G = self.c * U
        P = G.copy()
        if self.calls.setdefault("n", 0):
            P[:, 0, 0] = 0.0
        self.calls["n"] += 1
        return G, P, np.full(len(U), np.inf)


def test_line_search_scale_comes_from_the_projected_gradient_change():
    # once a component is held its gradient change no longer counts: the
    # second search's scale is the Barzilai-Borwein step of the change in
    # the projected gradient, not in the gradient
    c = np.array([[[8.0, 1.0], [1.5, 2.0], [1.0, 0.7]]])
    problem = HeldQuadratic(c)
    log = []
    _solve_batch(CountingProblem(problem, np.arange(1), log), np.full((1, 3, 2), 0.1))
    (u0, _), (u1, probe) = line_search_starts(log)[0][:2]
    g0, g1 = c[0] * u0, c[0] * u1
    p1 = g1.copy()
    p1[0, 0] = 0.0
    held = bb_scale(u1 - u0, p1 - g0)
    assert held != bb_scale(u1 - u0, g1 - g0)
    assert np.array_equal(probe, probe_at(u1, p1, held))


def test_distributed_solver_error_names_failing_agents():
    # at omega = 1e308 the close pair's separation gradient overflows; the
    # isolated agent 2 has no neighbors and a finite gradient
    pos = np.array([[0.0, 0.0], [4.0, 0.0], [40.0, 40.0]])
    params = MpcParams(omega=1e308)
    with pytest.raises(SolverError, match="^non-finite MPC gradient$") as info:
        solve_mpc_distributed_all(
            "df_distributed", np.stack([pos] * 3), np.zeros((3, 3, 2)), params, LIMITS
        )
    diagnostics = info.value.diagnostics
    assert diagnostics["agents"].tolist() == [0, 1]
    assert diagnostics["gradient"].shape == diagnostics["controls"].shape == (2, 3, 2)


def test_solver_error_names_batch_rows_after_rows_have_left(np_rng):
    # agents 0, 1 and 5 converge at the first check and 3 and 4 after
    # seven iterations, and each leaves the live state; a NaN probe of agent
    # 4 in its third line search or of agent 2 in its tenth must be named by
    # its batch row, not by its place among the live rows
    problem, warm, _, _ = staggered_batch(np_rng)
    n = len(warm)
    _, iterations, _, _, accepted = sequential_solve(problem, warm)
    assert iterations.tolist() == [0, 0, 12, 7, 7, 0]
    assert accepted[2][9] > 0  # that search reaches a later halving
    for i, k, h in ((4, 2, 0), (2, 9, 0), (2, 9, accepted[2][9])):
        wrapped = TrappedProblem.wrap(problem, n, {i: [()] * k + [(h,)]})
        with pytest.raises(SolverError, match="during line search") as info:
            _solve_batch(wrapped, warm)
        diagnostics = info.value.diagnostics
        assert diagnostics["agents"].tolist() == [i]
        assert np.isnan(diagnostics["objective"]).all()
        [plan] = wrapped.state["plans"][i]
        assert same_bits(diagnostics["controls"], plan[None])


def test_centralized_non_finite_first_stage_raises_without_warnings():
    # at omega = 1e308 the close pair's step-1 separation cost overflows
    view = config([[0.0, 0.0], [0.5, 0.0], [3.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            SolverError, match="^non-finite MPC objective at the initial point$"
        ):
            solve_mpc("df_centralized", view, MpcParams(omega=1e308), LIMITS)


def test_distributed_batch_rejects_unstacked_views():
    views = np.zeros((3, 3, 2))
    for positions, velocities in ((views[0], views[0]), (views, views[:, :2])):
        with pytest.raises(ValueError):
            solve_mpc_distributed_all(
                "df_distributed", positions, velocities, PARAMS, LIMITS
            )


@pytest.mark.parametrize("tag", DISTRIBUTED_MPC_TAGS)
def test_distributed_agent_index_validated(tag):
    cfg = config([[0, 0], [3, 0], [5, 1]])
    u = np.zeros((3, 2))
    for agent in (-1, cfg.n):
        with pytest.raises(IndexError):
            solve_mpc(tag, cfg, PARAMS, LIMITS, agent=agent)
        with pytest.raises(IndexError):
            mpc_objective_gradient(tag, cfg, u, PARAMS, LIMITS, agent=agent)
    # the last agent by its valid index still solves
    assert np.isfinite(solve_mpc(tag, cfg, PARAMS, LIMITS, agent=cfg.n - 1).accel).all()


def test_unknown_tag_rejected():
    cfg = config([[0, 0]])
    with pytest.raises(ValueError):
        solve_mpc("boids", cfg, PARAMS, LIMITS)
