import contextlib
import hashlib
import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest

from flockbench import (
    ExperimentConfig,
    FlockConfiguration,
    ModelSpec,
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
from flockbench.core import EPS_DIST, EPS_DIST_SQ, clamp_norm, fold, sq_norm
from flockbench.harness import LEVEL_SEED_STRIDE
from flockbench.mpc import (
    ARMIJO_C,
    CENTRALIZED_MPC_TAGS,
    DISTRIBUTED_MPC_TAGS,
    GRAD_TOL,
    LAST_HALVING,
    MAX_ITER,
    MPC_TAGS,
    RESOLUTION,
    _build_batch_problem,
    _build_centralized_problem,
    _CentralizedProblem,
    _single_problem,
    _solve_batch,
)
from flockbench.horizon import _newton_direction
from conftest import (
    backprop_loop,
    captured_solves,
    forward_loop,
    hexagonal_patch,
    random_config,
    reference_clamp_apply,
    reference_clamp_jacobians,
    rollout_loop,
    same_bits,
)

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
    # a centralized (T, n, m) plan is not one agent's (T, m) plan
    with pytest.raises(ValueError):
        rollout_distributed(0, init, np.zeros((3, 2, 2)), {1}, LIMITS)


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


class RolloutPaths:
    """Counts the `_rollout_arrays` calls that step (and so call
    `clamp_norm`) and those that take the running sums, checks each row's
    clamp flag against the speeds of the velocities it returns, and returns
    the positions and velocities.  Called with the initial positions x0, it
    hands the rollout the step-1 positions x0 + dt * v0, as a problem
    does."""

    def __init__(self):
        self.stepped = self.summed = 0

    def __call__(self, x0, v0, U, limits):
        with mock.patch.object(horizon, "clamp_norm", wraps=clamp_norm) as clamp:
            xs, ws, clamps = mpc._rollout_arrays(x0 + limits.dt * v0, v0, U, limits)
        if clamp.called:
            self.stepped += 1
        else:
            self.summed += 1
        # each row's flag: does its velocity clamp at some step
        over = np.sqrt(sq_norm(ws)) > limits.v_max
        assert same_bits(clamps, over.reshape(len(ws), -1).any(axis=1))
        return xs, ws


def test_rollout_oracles_match_rollout_arrays(np_rng):
    # plans beyond the speed limit drive the velocity clamp, plans inside it
    # take the running sums; signed zeros in the states and plans must come
    # out as the solver's rollout has them
    rollout = RolloutPaths()
    for case in range(80):
        n, T = int(np_rng.integers(1, 6)), 1 + case % 4
        pos = np_rng.uniform(-5.0, 5.0, (n, 2))
        if case % 8 < 4:
            vel = np_rng.uniform(-7.9, 7.9, (n, 2))
            U = np_rng.uniform(-4.0, 4.0, (T, n, 2)) / LIMITS.dt
        else:
            vel = np_rng.uniform(-4.0, 4.0, (n, 2))
            U = np_rng.uniform(-0.2, 0.2, (T, n, 2)) / LIMITS.dt
        for array in (pos, vel, U):
            array[np_rng.random(array.shape) < 0.2] = -0.0
        view = config(pos, vel)
        xs, ws = rollout(pos[None], vel[None], U[None], LIMITS)
        vs = clamp_norm(ws, LIMITS.v_max)
        for t, cfg in enumerate(rollout_centralized(view, U, LIMITS)[1:]):
            assert same_bits(cfg.positions, xs[0, t])
            assert same_bits(cfg.velocities, vs[0, t])
        # agent i follows the solver's rollout and everyone else coasts
        i = int(np_rng.integers(n))
        xs, ws = rollout(pos[i][None], vel[i][None], U[None, :, i], LIMITS)
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
    assert rollout.stepped > 0 and rollout.summed > 0


@pytest.mark.parametrize("T", [1, 2, 3, 8])
def test_rollout_clamping_one_row_at_its_last_step_matches_each_row_alone(T, np_rng):
    # three rows; only row 1 clamps, and only at its last step, so the batch
    # steps while rows 0 and 2 alone take the running sums
    x0 = np_rng.uniform(-5.0, 5.0, (3, 2))
    v0 = np_rng.uniform(-2.0, 2.0, (3, 2))
    U = np_rng.uniform(-0.5, 0.5, (3, T, 2))
    for array in (x0, v0, U):
        array[np_rng.random(array.shape) < 0.2] = -0.0
    v0[1], U[1] = (7.9, -0.0), -0.0
    U[1, -1] = (1.0 / LIMITS.dt, -0.0)
    rollout = RolloutPaths()
    xs, ws = rollout(x0, v0, U, LIMITS)
    assert (rollout.stepped, rollout.summed) == (1, 0)
    over = np.sqrt(sq_norm(ws)) > LIMITS.v_max
    assert over.sum() == 1 and over[1, -1]
    ref_xs, ref_ws, ref_clamps = rollout_loop(x0, v0, U, LIMITS)
    assert same_bits(xs, ref_xs) and same_bits(ws, ref_ws)
    assert same_bits(ref_clamps, np.array([False, True, False]))
    for k in range(3):
        row_xs, row_ws = rollout(x0[k : k + 1], v0[k : k + 1], U[k : k + 1], LIMITS)
        assert same_bits(row_xs, xs[k : k + 1]) and same_bits(row_ws, ws[k : k + 1])
    assert (rollout.stepped, rollout.summed) == (2, 2)
    assert xs.flags.c_contiguous and ws.flags.c_contiguous


def test_rollout_takes_a_nan_speed_as_unclamped_and_an_inf_speed_as_clamped():
    # clamp_norm leaves a NaN-norm velocity as it is and clamps an inf one:
    # the running sums run with a NaN row and not with an inf row
    x0 = np.array([[0.0, 1.0], [-0.0, 2.0]])
    U = np.full((2, 3, 2), 0.5)
    for bad, path in ((np.nan, "summed"), (np.inf, "stepped")):
        v0 = np.array([[1.0, -0.0], [bad, 0.0]])
        rollout = RolloutPaths()
        with np.errstate(invalid="ignore"):
            xs, ws = rollout(x0, v0, U, LIMITS)
            ref = rollout_loop(x0, v0, U, LIMITS)
        assert getattr(rollout, path) == 1
        assert same_bits(xs, ref[0]) and same_bits(ws, ref[1])


@pytest.mark.parametrize("clamped", [False, True])
@pytest.mark.parametrize("rows", [(4, 5), (6,)], ids=["centralized", "distributed"])
@pytest.mark.parametrize("T", [1, 2, 3, 8])
def test_horizon_passes_match_their_step_loops(T, rows, clamped, np_rng):
    # the centralized (R, T, n, m) and distributed (B, T, m) shapes, with
    # and without clamped pre-clamp velocities, signed zeros everywhere
    shape = (rows[0], T, *rows[1:], 2)
    speed = 9.0 if clamped else 5.0
    W = np_rng.uniform(-speed, speed, shape)
    U = np_rng.uniform(-1.0, 1.0, shape)
    D = np_rng.uniform(-1.0, 1.0, shape)
    gx = np_rng.normal(size=(rows[0], T - 1, *rows[1:], 2))
    for array in (W, U, D, gx):
        array[np_rng.random(array.shape) < 0.25] = -0.0
    # a row of zeros in every step, so that a sum starts at -0.0 + -0.0
    U[0], D[0], gx[0] = -0.0, -0.0, -0.0
    flags = (np.sqrt(sq_norm(W)) > LIMITS.v_max).reshape(len(W), -1).any(axis=1)
    assert flags.any() == clamped
    # the rows' own flags, and every flag set: the step loop, where nothing
    # clamps, gives the running sums' bits
    for clamps in (flags, np.ones(len(W), dtype=bool)):
        for lam in (0.0, 0.7):
            gu = horizon._backprop_controls(gx, W, U, LIMITS, lam, clamps)
            assert same_bits(gu, backprop_loop(gx, W, U, LIMITS, lam))
            assert gu.flags.c_contiguous
        xd = horizon._forward_controls(D, W, LIMITS, clamps)
        assert same_bits(xd, forward_loop(D, W, LIMITS))
        assert xd.flags.c_contiguous


@pytest.mark.parametrize(
    "speed, clamps",
    [(5.0, False), (LIMITS.v_max, False), (np.nan, False), (np.inf, True), (8.5, True)],
)
def test_clamp_apply_returns_p_itself_exactly_where_no_speed_is_over(speed, clamps, np_rng):
    # one velocity of step 1 has the given speed; the others are inside the
    # limit.  A NaN speed is not over it, as in clamp_norm, an inf one is
    W = np.full((3, 3, 2), 0.5)
    W[1, 1] = (speed, 0.0)
    p = np_rng.normal(size=(3, 2))
    jacobians = reference_clamp_jacobians(W, LIMITS.v_max)
    for t in range(3):
        with np.errstate(invalid="ignore"):
            got = horizon._clamp_apply(W[:, t], p, LIMITS.v_max)
            expected = reference_clamp_apply(jacobians[t], W[:, t], p)
        assert (got is p) == (not (clamps and t == 1))
        assert same_bits(got, expected)
    assert (np.count_nonzero(np.sqrt(sq_norm(W)) > LIMITS.v_max) > 0) == clamps


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
    # a repeated neighbor is refused: the per-agent costs would price it
    # twice and the gradient's neighbor mask once
    for twice in ([1, 1], [2, 1, 2], (np.int64(2), 2)):
        with pytest.raises(ValueError, match="^neighbor index . listed twice for agent 0$"):
            call(0, twice)
    for agent in (-1, 3):
        with pytest.raises(IndexError):
            call(agent, {1})
    # a bool agent or neighbor used to be read as agent 1 or 0, so that
    # rollout_distributed(True, ...) moved every agent
    for flag in (True, np.True_, False, np.False_):
        with pytest.raises(TypeError, match="^agent indices must be integers, got bool$"):
            call(flag, {2})
        with pytest.raises(TypeError, match="^agent indices must be integers, got bool$"):
            call(2, [flag])


def test_objective_checks_the_agent_before_pricing():
    # a zero-step plan prices no configuration, and its agent and neighbor
    # set are checked all the same
    controls = np.zeros((0, 2))
    assert mpc_objective("df_distributed", [TRIO], controls, PARAMS, 0, [1]) == 0.0
    with pytest.raises(TypeError, match="^agent indices must be integers, got bool$"):
        mpc_objective("df_distributed", [TRIO], controls, PARAMS, True, [1])
    with pytest.raises(IndexError, match="^agent index 7 out of range for n=3$"):
        mpc_objective("df_distributed", [TRIO], controls, PARAMS, 7, [1])
    with pytest.raises(TypeError):
        mpc_objective("df_distributed", [TRIO], controls, PARAMS, 0, [0.5])
    with pytest.raises(ValueError, match="listed twice"):
        mpc_objective("lattice_distributed", [TRIO], controls, PARAMS, 0, [1, 1])
    # the check runs once per objective, not once per predicted configuration
    with mock.patch.object(
        mpc, "_check_neighbor_set", wraps=mpc._check_neighbor_set
    ) as check:
        mpc_objective("df_distributed", [TRIO] * 4, np.zeros((3, 2)), PARAMS, 0, [1])
    assert check.call_count == 1


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


@pytest.mark.parametrize("name", ["lam", "d", "omega"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_mpc_params_reject_a_nonfinite_or_nonpositive_weight(name, value):
    # an infinite lam or omega used to pass here and fail at the first solve,
    # with a non-finite objective; d is checked though the DF models never
    # read it
    label = {"lam": "control penalty", "d": "lattice scale", "omega": "separation weight"}
    with pytest.raises(ValueError, match=f"^{label[name]} {name} must be positive and finite$"):
        MpcParams(**{name: value})
    assert getattr(MpcParams(**{name: 1e308}), name) == 1e308
    assert MpcParams(r=math.inf).r == math.inf


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
        mpc._pair_cost("df_distributed", params), pos, np.zeros_like(pos), [0], params,
        LIMITS,
    )
    gx = problem.evaluate(np.zeros((1, 2, 2)))[1][3]
    cohesion = (2.0 / 2) * ((0.0 - 5e-7) + (0.0 - 3.0))
    separation = -2.0 * params.omega / 3.0**4 * (0.0 - 3.0)
    assert gx[0, 0, 0] == pytest.approx(cohesion + separation, rel=1e-12)
    assert gx[0, 0, 1] == 0.0


@pytest.mark.parametrize("tag", CENTRALIZED_MPC_TAGS)
def test_family_slope_is_the_edge_derivative_read_by_both_kernels(tag):
    cost = mpc._pair_cost(tag, PARAMS)
    below = np.array([0.0, EPS_DIST / 4, EPS_DIST * 0.999])
    assert np.array_equal(cost.terms(below)[1], np.zeros(3))
    # interior points of a grid from EPS_DIST to r; the floor and r are
    # kinks of the edge cost
    grid = np.geomspace(EPS_DIST, PARAMS.r, 41)[1:-1]
    h = 1e-3 * grid
    up, down = (cost.weight * cost.terms(grid + side * h)[0] for side in (1, -1))
    derivative = (up - down) / (2 * h)
    slope = cost.terms(grid)[1]
    assert slope == pytest.approx(derivative / grid, rel=1e-5, abs=1e-9)
    # the same distances through both kernels: agent 0 at the origin and
    # one neighbor at (d, 0), so a distributed row has N = 1 and cohesion
    # pulls with 2 / N, and the centralized pair with 2 c_n (0 - d) = -2 d
    pos = np.zeros((grid.size, 2, 2))
    pos[:, 1, 0] = grid
    coef = mpc._centralized_stage_values(cost, pos, PARAMS.r)[1]
    central = mpc._centralized_stage_gradient(cost, pos, coef)
    params = MpcParams(horizon=2)
    rows = _build_batch_problem(
        mpc._pair_cost(tag.replace("centralized", "distributed"), params), pos,
        np.zeros_like(pos), np.zeros(grid.size, dtype=int), params, LIMITS,
    )
    edge = rows._stage_sum(np.zeros((grid.size, 2, 2)))[1]
    pull = 2.0 if cost.cohesion else 0.0
    assert np.array_equal(edge[:, 0, 0], (pull + slope) * -grid)
    # a pair is two ordered edges: its coefficient is exactly twice the slope
    assert np.array_equal(central[:, 0, 0], -pull * grid - (2.0 * slope) * grid)


@pytest.mark.parametrize("tag", CENTRALIZED_MPC_TAGS)
@pytest.mark.parametrize("n", [3, 5, 12])
def test_stage_value_prices_each_pair_once_doubled(tag, n, np_rng):
    # the value reads the pairs i < j as the gradient does: weight times
    # twice the sum of their terms inside r, in pair order with a 0 where a
    # pair is out of r, plus the cohesion over the same pairs
    cost, r = mpc._pair_cost(tag, PARAMS), PARAMS.r
    x = np_rng.uniform(-r, r, (6, n, 2))
    # agents 0 and 1 exactly r apart (out of r), agents 0 and 2 coincident
    x[:, 0], x[:, 1], x[:, 2] = (0.0, 1.5), (r, 1.5), (0.0, 1.5)
    pairs = list(itertools.combinations(range(n), 2))
    values, coefs = mpc._centralized_stage_values(cost, x, r)
    for stage, value, coef in zip(x, values, coefs):
        dist = np.array([math.sqrt(sq_norm(stage[i] - stage[j])) for i, j in pairs])
        assert (dist[0], dist[1]) == (r, 0.0)
        terms = np.array([cost.terms(d)[0] if d < r else 0.0 for d in dist])
        # each pair's gradient coefficient: twice its slope inside r
        slopes = [2.0 * cost.terms(d)[1] if d < r else 0.0 for d in dist]
        assert same_bits(coef, np.array(slopes))
        expected = cost.weight * (2.0 * terms.sum())
        if cost.cohesion:
            expected = (2.0 / (n * (n - 1))) * (dist * dist).sum() + expected
        assert value == expected
        # the definition over the ordered pairs, each pair counted twice
        ordered = [
            cost.terms(d)[0] for i in range(n) for j in range(n)
            if i != j and (d := math.sqrt(sq_norm(stage[i] - stage[j]))) < r
        ]
        definition = cost.weight * math.fsum(ordered)
        if cost.cohesion:
            definition += math.fsum(dist * dist) * 2.0 / (n * (n - 1))
        assert value == pytest.approx(definition, rel=1e-13)


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
    # the batch solver takes the reference solver's steps, bit for bit, and
    # every step the reference accepts leaves the objective no higher
    for tag in MPC_TAGS:
        view = random_config(np_rng, n=6, span=6.0, v_span=4.0)
        agent = 0 if tag in DISTRIBUTED_MPC_TAGS else None
        problem, _ = _single_problem(tag, view, PARAMS, LIMITS, agent)
        warm = np.zeros((1, PARAMS.horizon) + problem.x0.shape[1:])
        U, iterations, converged, traces, _ = sequential_solve(problem, warm)
        got_U, got_converged, got_iterations = _solve_batch(problem, warm)
        assert same_bits(got_U, U) and np.array_equal(got_converged, converged)
        assert got_iterations == iterations[0]
        values = np.asarray(traces[0])
        assert len(values) >= 1
        assert (np.diff(values) <= 1e-12).all()


def test_a_solve_at_its_objective_resolution_converges():
    # the df_centralized solve at step 0 of run 1 at seed 1: its unit step
    # stays above GRAD_TOL, but the decrease it predicts falls below the
    # resolution of its objective (about 3 609).  With the resolution test
    # off, the Armijo test's required decrease rounds away there: the solve
    # runs MAX_ITER iterations unconverged, 114 of its accepted steps
    # leaving the objective as it was.  The batch solver takes the reference
    # solver's steps, bit for bit, and the reference's trace shows them
    problem, warm = captured_solves("df_centralized", mix_seed(1, 1), steps=1)[0]

    def solve(resolution):
        with mock.patch.object(mpc, "RESOLUTION", resolution), mock.patch.dict(
            globals(), RESOLUTION=resolution
        ):
            U, iterations, converged, traces, _ = sequential_solve(problem, warm)
            got_U, got_converged, got_iterations = _solve_batch(problem, warm)
        assert same_bits(got_U, U) and np.array_equal(got_converged, converged)
        assert got_iterations == iterations[0]
        return iterations[0], converged.tolist(), traces[0]

    iterations, converged, trace = solve(RESOLUTION)
    assert (iterations, converged, len(trace)) == (77, [True], 78)
    steps = list(zip(trace, trace[1:]))
    assert all(after < before for before, after in steps)
    iterations, converged, trace = solve(0)
    assert (iterations, converged, len(trace)) == (MAX_ITER, [False], 201)
    steps = list(zip(trace, trace[1:]))
    assert sum(after == before for before, after in steps) == 114


def test_stopping_at_the_objective_resolution_costs_no_accuracy():
    # solves of run 0 at noise level 10, seed 1: steps 0, 6, 9, 14 and 34
    # stop earlier by the resolution test (without it 6 and 9 stall and 34
    # runs MAX_ITER on null moves), and step 32 is ill-conditioned and runs
    # MAX_ITER either way.  Each final objective is compared with a long
    # solve of the same input: the resolution test off and MAX_ITER at 2000
    steps = (0, 6, 9, 14, 32, 34)
    seed = mix_seed(1, 10 * LEVEL_SEED_STRIDE)
    solves = captured_solves("df_centralized", seed, steps=35, level=10)
    picked = [solves[k] for k in steps]
    # the rows of one problem, each solved as it would be alone
    problem = _build_centralized_problem(
        picked[0][0].cost,
        np.concatenate([p.x0 for p, _ in picked]),
        np.concatenate([p.v0 for p, _ in picked]),
        picked[0][0].params,
        picked[0][0].limits,
    )
    warm = np.concatenate([w for _, w in picked])

    def final_objectives(**patches):
        with contextlib.ExitStack() as stack:
            for name, value in patches.items():
                stack.enter_context(mock.patch.object(mpc, name, value))
            U, converged, _ = _solve_batch(problem, warm)
        return problem.evaluate(U)[0], converged

    J, converged = final_objectives()
    J_before, converged_before = final_objectives(RESOLUTION=0)
    J_long, _ = final_objectives(RESOLUTION=0, MAX_ITER=2000)
    assert converged.tolist() == [True] * 4 + [False, True]
    assert converged_before.tolist() == [True, False, False, True, False, False]
    excess, excess_before = (J - J_long) / J_long, (J_before - J_long) / J_long
    # about 8e-15 at the median; the worst is step 32's 2.4e-4 both ways
    assert (excess >= 0).all() and np.median(excess) <= 1e-12
    assert excess.max() <= excess_before.max()


def test_solver_warm_start_validation():
    cfg = config([[0, 0], [5, 0]])
    with pytest.raises(ValueError):
        solve_mpc("df_centralized", cfg, PARAMS, LIMITS, warm_start=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        solve_mpc(
            "df_distributed", cfg, PARAMS, LIMITS, agent=0, warm_start=np.zeros((4, 2))
        )


def test_gradient_checks_the_plan_shape():
    # the plan shape solve_mpc checks its warm start against: (T, m) for a
    # distributed tag and (T, n, m) for a centralized one, T the horizon
    cfg = config([[0, 0], [5, 0], [0.5, 0]])
    for T in (2, 5):
        with pytest.raises(ValueError, match=r"controls must have shape \(3, 2\)"):
            mpc_objective_gradient(
                "df_distributed", cfg, np.zeros((T, 2)), PARAMS, LIMITS,
                agent=0, neighbor_set={1},
            )
    with pytest.raises(ValueError, match=r"controls must have shape \(3, 3, 2\)"):
        mpc_objective_gradient("df_centralized", cfg, np.zeros((3, 2)), PARAMS, LIMITS)


def test_objective_checks_the_plan_shape_against_the_tag():
    # agent 0 with neighbors {1, 2}: a distributed plan is (T, m), a
    # centralized one (T, n, m); neither is priced with the other's shape
    cfg = config([[0, 0], [5, 0], [0.5, 0]])
    own, every = np.full((3, 2), 0.5), np.full((3, 3, 2), 0.5)
    trajectory = rollout_distributed(0, cfg, own, {1, 2}, LIMITS)
    for tag in DISTRIBUTED_MPC_TAGS:
        args = dict(agent=0, neighbor_set={1, 2})
        assert np.isfinite(mpc_objective(tag, trajectory, own, PARAMS, **args))
        with pytest.raises(ValueError, match=r"controls must have shape \(3, 2\)"):
            mpc_objective(tag, trajectory, every, PARAMS, **args)
    for tag in CENTRALIZED_MPC_TAGS:
        assert np.isfinite(mpc_objective(tag, trajectory, every, PARAMS))
        with pytest.raises(ValueError, match=r"controls must have shape \(3, 3, 2\)"):
            mpc_objective(tag, trajectory, own, PARAMS)


def test_objective_needs_one_more_configuration_than_plan_steps():
    cfg = config([[0, 0], [5, 0], [0.5, 0]])
    u = np.zeros((3, 3, 2))
    trajectory = rollout_centralized(cfg, u, LIMITS)
    assert np.isfinite(mpc_objective("df_centralized", trajectory, u, PARAMS))
    for steps in (1, 2, 4):
        with pytest.raises(ValueError, match="configurations, got 4"):
            mpc_objective("df_centralized", trajectory, np.zeros((steps, 3, 2)), PARAMS)


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
        full = _build_centralized_problem(
            mpc._pair_cost(tag, PARAMS), *views, PARAMS, LIMITS
        )
        U = np_rng.uniform(-0.5, 0.5, (8, 3, 8, 2))
    else:
        full = _build_batch_problem(
            mpc._pair_cost(tag, PARAMS), *views, range(8), PARAMS, LIMITS
        )
        assert not np.isin([6, 7], full.src).any()
        U = np_rng.uniform(-0.5, 0.5, (8, 3, 2))
    J, record = full.evaluate(U)
    G = full.search_direction(U, record)[0]
    for idx in ([3], range(8), [0, 4, 7], [6, 7], [5, 5, 0, 6, 2, 2, 2]):
        idx = np.asarray(idx)
        for sub in sub_problems(tag, full, views, idx, PARAMS):
            J_sub, sub_record = sub.evaluate(U[idx])
            assert np.array_equal(J_sub, J[idx])
            assert_rows_of(sub_record, record, idx)
            assert np.array_equal(sub.search_direction(U[idx], sub_record)[0], G[idx])
    if tag in DISTRIBUTED_MPC_TAGS:
        assert full.rows(np.arange(8) >= 6).src.size == 0


def rows_of(record, idx):
    """The rows idx of an evaluation record."""
    return tuple(a[idx] for a in record)


def assert_rows_of(record, full_record, idx):
    """record holds, array for array, the rows idx of full_record."""
    assert len(record) == len(full_record)
    for got, expected in zip(record, rows_of(full_record, idx)):
        assert got.dtype == expected.dtype and same_bits(got, expected)


def sub_problems(tag, full, views, idx, params):
    """The rows idx of `full`, a problem built from the stacked views with
    one row per view: built anew from the rows' own views, any order and
    repeats included, and, where idx is ascending without repeats, also
    cut from `full` by a mask."""
    pos, vel, cost = views[0][idx], views[1][idx], mpc._pair_cost(tag, params)
    if tag in CENTRALIZED_MPC_TAGS:
        subs = [_build_centralized_problem(cost, pos, vel, params, LIMITS)]
    else:
        subs = [_build_batch_problem(cost, pos, vel, idx, params, LIMITS)]
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


@pytest.mark.parametrize("v_max", [LIMITS.v_max, 2.5])
@pytest.mark.parametrize("tag", MPC_TAGS)
def test_narrowing_twice_matches_narrowing_once(tag, v_max, np_rng):
    # the solver narrows a narrowed problem: p.rows(a).rows(b) must be
    # p.rows(c), c keeping the rows that b keeps of those a keeps.  At the
    # small v_max the odd rows' rollouts clamp and the even rows', slowed
    # down, do not, so the record's clamp flags narrow with the rows
    limits = MotionLimits(v_max=v_max)
    pos, vel = isolated_views(np_rng)  # row 7's agent sees no one
    if v_max < LIMITS.v_max:
        vel = vel.copy()
        vel[::2] *= 0.2
    if tag in CENTRALIZED_MPC_TAGS:
        full = _build_centralized_problem(
            mpc._pair_cost(tag, PARAMS), pos, vel, PARAMS, limits
        )
        U = np_rng.uniform(-0.5, 0.5, (8, 3, 8, 2))
    else:
        full = _build_batch_problem(
            mpc._pair_cost(tag, PARAMS), pos, vel, range(8), PARAMS, limits
        )
        assert (full.src != 7).all() and np.isin(range(7), full.src).all()
        U = np_rng.uniform(-0.5, 0.5, (8, 3, 2))
    J, record = full.evaluate(U)
    clamps = record[2]
    if v_max < LIMITS.v_max:
        assert not clamps[::2].any() and clamps[1::2].sum() >= 2
    else:
        assert not clamps.any()
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
        J_twice, record_twice = twice.evaluate(U[c])
        J_once, record_once = once.evaluate(U[c])
        assert np.array_equal(J_twice, J_once) and np.array_equal(J_once, J[c])
        assert_rows_of(record_twice, record_once, slice(None))
        assert_rows_of(record_twice, record, c)
        found = twice.search_direction(U[c], record_twice)
        for got, expected in zip(found, once.search_direction(U[c], record_twice)):
            assert np.array_equal(got, expected)
    if tag in DISTRIBUTED_MPC_TAGS:
        # a mask that keeps only edge-free rows keeps no edge
        assert full.rows(np.arange(8) == 7).src.size == 0
        assert full.rows(np.arange(8) >= 5).rows(np.arange(3) == 2).src.size == 0


def edge_oracle(views, idx, horizon):
    """The edges of a batch problem of the rows idx of the stacked views
    (row k plans agent idx[k] from its own view), one agent at a time: each
    edge's row k, row by row and each row's frozen neighbors ascending, its
    neighbor's positions at steps 1..T, coasting at the sensed velocity one
    step at a time, (E, T, m), and its row's neighbor count N, (E, 1)."""
    src, positions = [], []
    for k, agent in enumerate(idx):
        view = config(views[0][agent], views[1][agent])
        for j in sorted(neighbors(view, agent, PARAMS.r)):
            p, steps = view.positions[j], []
            for _ in range(horizon):
                p = p + LIMITS.dt * view.velocities[j]
                steps.append(p)
            src.append(k)
            positions.append(steps)
    src = np.array(src, dtype=np.intp)
    positions = np.array(positions).reshape(len(src), horizon, views[0].shape[-1])
    return src, positions, np.bincount(src)[src][:, None].astype(np.float64)


def edge_diffs(problem, xs, oracle):
    """Each edge's agent-neighbor differences at steps 1..T of the rollout
    xs, from the `edge_oracle` of the problem's rows, once the problem is
    seen to hold the oracle's edges: their rows, their neighbors' positions
    at steps 2..T (component-major, (m, T-1, E)) and their rows' 1 / N and
    2 / N."""
    src, positions, counts = oracle
    assert np.array_equal(problem.src, src)
    assert same_bits(problem.nbr_later, positions[:, 1:].transpose(2, 1, 0))
    assert same_bits(problem.inv_counts, 1.0 / counts[:, 0])
    assert same_bits(problem.two_inv_counts, 2.0 / counts[:, 0])
    return xs[src] - positions


@pytest.mark.parametrize("horizon", [1, 3, 5])
@pytest.mark.parametrize("tag", DISTRIBUTED_MPC_TAGS)
def test_batch_objective_prices_step_one_at_build(tag, horizon, np_rng):
    # the reference prices every step 1..T from the rollout, then sums each
    # edge's steps in order and each row's edges
    params = MpcParams(horizon=horizon)
    views = isolated_views(np_rng)
    full = _build_batch_problem(
        mpc._pair_cost(tag, params), *views, range(8), params, LIMITS
    )
    cost = full.cost
    U = np_rng.uniform(-0.5, 0.5, (8, horizon, 2))
    for idx in (range(8), [7], [5, 5, 0, 7, 2, 2]):
        idx = np.asarray(idx)
        oracle = edge_oracle(views, idx, horizon)
        for sub in sub_problems(tag, full, views, idx, params):
            J, (xs, *_) = sub.evaluate(U[idx])
            diff = edge_diffs(sub, xs, oracle)
            dist = np.sqrt((diff * diff).sum(axis=-1))
            edge = cost.weight * cost.terms(dist)[0]
            if cost.cohesion:
                edge = (1.0 / oracle[2]) * (dist * dist) + edge
            stage = np.bincount(sub.src, weights=edge.sum(axis=1), minlength=idx.size)
            penalty = (U[idx] * U[idx]).reshape(idx.size, -1).sum(axis=1)
            assert np.array_equal(J, stage + params.lam * penalty)
            # the isolated row has no edges: its objective is its penalty alone
            assert np.array_equal(J[idx == 7], params.lam * penalty[idx == 7])


@pytest.mark.parametrize("horizon", [8, 9])
@pytest.mark.parametrize("tag", MPC_TAGS)
def test_stage_sums_fold_the_steps_in_order(tag, horizon, np_rng):
    # from eight steps on numpy's row sums go pairwise: each row's (or each
    # edge's) steps 1..T must still be added in order, as core.fold does
    params = MpcParams(horizon=horizon)
    cost = mpc._pair_cost(tag, params)
    for _ in range(4):
        views = isolated_views(np_rng, n=12)
        if tag in CENTRALIZED_MPC_TAGS:
            problem = _build_centralized_problem(cost, *views, params, LIMITS)
        else:
            problem = _build_batch_problem(cost, *views, range(12), params, LIMITS)
        U = np_rng.uniform(-0.5, 0.5, (12, horizon) + problem.x0.shape[1:])
        _, (xs, *_) = problem.evaluate(U)
        if tag in CENTRALIZED_MPC_TAGS:
            stages = mpc._centralized_stage_values(cost, xs.reshape(-1, 12, 2), params.r)[0]
            expected = fold(stages.reshape(12, horizon).T)
        else:
            oracle = edge_oracle(views, np.arange(12), horizon)
            dist = np.sqrt(sq_norm(edge_diffs(problem, xs, oracle)))
            edges = cost.weight * cost.terms(dist)[0]
            if cost.cohesion:
                edges = (1.0 / oracle[2]) * (dist * dist) + edges
            expected = np.bincount(problem.src, weights=fold(edges.T), minlength=12)
        assert np.array_equal(problem._stage_sum(xs)[0], expected)


@pytest.mark.parametrize("tag", DISTRIBUTED_MPC_TAGS)
def test_batch_stage_gradient_matches_add_at(tag, np_rng):
    views = isolated_views(np_rng)
    full = _build_batch_problem(
        mpc._pair_cost(tag, PARAMS), *views, range(8), PARAMS, LIMITS
    )
    U = np_rng.uniform(-0.5, 0.5, (8, 3, 2))
    for idx in (range(8), [7], [5, 5, 0, 7, 2, 2]):
        idx = np.asarray(idx)
        oracle = edge_oracle(views, idx, PARAMS.horizon)
        for sub in sub_problems(tag, full, views, idx, PARAMS):
            _, (xs, _, _, got, got_hessians) = sub.evaluate(U[idx])
            diff = edge_diffs(sub, xs, oracle)[:, 1:]
            _, coef, bend, f = sub.cost.terms(np.sqrt((diff * diff).sum(axis=-1)), True)
            if sub.cost.cohesion:
                coef = 2.0 / oracle[2] + coef
            expected = np.zeros_like(xs[:, 1:])
            np.add.at(expected, sub.src, coef[:, :, None] * diff)
            assert got.dtype == expected.dtype and same_bits(got, expected)
            # each edge's stage Hessian coef I + bend e e^T, e = diff / f,
            # added into its row in edge order
            e = diff / f[..., None]
            edge = bend[..., None, None] * e[..., :, None] * e[..., None, :]
            m = diff.shape[-1]
            edge[..., range(m), range(m)] += coef[..., None]
            hessians = np.zeros(xs[:, 1:].shape + (m,))
            np.add.at(hessians, sub.src, edge)
            assert same_bits(got_hessians, hessians)


class CountingProblem:
    """Passes every evaluation on to a batch problem and logs the batch rows
    and the controls it was handed; its sub-batches log to the same list."""

    def __init__(self, problem, ids, log):
        self.problem, self.ids, self.log = problem, ids, log
        self.limits, self.params = problem.limits, problem.params

    def rows(self, keep):
        return CountingProblem(self.problem.rows(keep), self.ids[keep], self.log)

    def evaluate(self, U):
        self.log.append(("evaluate", self.ids.tolist(), U.copy()))
        return self.problem.evaluate(U)

    def search_direction(self, U, record):
        self.log.append(("gradient", self.ids.tolist(), U.copy()))
        return self.problem.search_direction(U, record)


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
    problem = _build_batch_problem(
        mpc._pair_cost("df_distributed", PARAMS), *views, range(n), PARAMS, LIMITS
    )
    return problem, warm, pos, vel


def test_solver_evaluates_only_rows_in_play(np_rng):
    problem, warm, pos, vel = staggered_batch(np_rng)
    n = len(pos)
    log = []
    U, _, _ = _solve_batch(CountingProblem(problem, np.arange(n), log), warm)
    view = config(pos, vel)
    singles = [
        solve_mpc("df_distributed", view, PARAMS, LIMITS, warm_start=warm[i], agent=i)
        for i in range(n)
    ]
    for i in range(n):
        assert np.array_equal(U[i], singles[i].controls)
    iterations = [s.iterations for s in singles]
    assert iterations == [0, 0, 3, 3, 3, 0]
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


class UphillRow(CountingProblem):
    """A CountingProblem whose batch row `uphill` follows plus its gradient
    (P = -G) and takes no Newton step, so that every probe of its line
    searches climbs."""

    def __init__(self, problem, ids, log, uphill):
        super().__init__(problem, ids, log)
        self.uphill = uphill

    def rows(self, keep):
        return UphillRow(self.problem.rows(keep), self.ids[keep], self.log, self.uphill)

    def search_direction(self, U, record):
        G, P, cap, *hessian = super().search_direction(U, record)
        uphill = self.ids == self.uphill
        climbs = uphill.reshape((-1,) + (1,) * (P.ndim - 1))
        if hessian:
            # the climbing row takes no Newton step
            hessian = hessian[0], hessian[1] & ~uphill
        return G, np.where(climbs, -P, P), cap, *hessian


def test_row_that_stalls_while_others_accept_keeps_its_plan(np_rng):
    # row 2 of the staggered batch climbs, so its first line search stalls
    # in the iteration in which rows 3 and 4 accept their first steps
    problem, warm, pos, vel = staggered_batch(np_rng)
    n, log = len(pos), []
    U, converged, _ = _solve_batch(UphillRow(problem, np.arange(n), log, 2), warm)
    assert not converged[2]
    assert np.array_equal(U[2], clamp_norm(warm[2], LIMITS.a_max))
    view = config(pos, vel)
    for i in (0, 1, 3, 4, 5):
        alone = solve_mpc(
            "df_distributed", view, PARAMS, LIMITS, warm_start=warm[i], agent=i
        )
        assert np.array_equal(U[i], alone.controls)
        assert converged[i] == alone.converged
    starts = [k for k, entry in enumerate(log) if entry[0] == "gradient"]
    probes = log[starts[0] + 1 : starts[1]]
    # every halving of iteration 1 probed row 2, and rows 3 and 4 went on
    assert probes[0][1] == [2, 3, 4]
    assert len(probes) == LAST_HALVING + 1
    assert all(2 in ids for _, ids, _ in probes)
    assert log[starts[1]][1] == [3, 4]


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
    one, _ = _single_problem(tag, view, params, LIMITS, None)
    # six plans of the one row
    problem = _build_centralized_problem(
        mpc._pair_cost(tag, params), *repeated(view, 6), params, LIMITS
    )
    U = np_rng.uniform(-1.0, 1.0, (6, T, n, 2))
    U[0] = 0.0
    J, (xs, *_) = problem.evaluate(U)
    assert J.shape == (6,)
    public = lattice_deviation_centralized if tag == "lattice_centralized" else (
        cost_df_centralized
    )
    args = (params.d,) if tag == "lattice_centralized" else (params.omega,)
    stack = xs.reshape(-1, n, 2)
    cost = mpc._pair_cost(tag, params)
    stages, coef = mpc._centralized_stage_values(cost, stack, params.r)
    grads = mpc._centralized_stage_gradient(cost, stack, coef)
    assert grads.shape == stack.shape
    for s, x in enumerate(stack):
        alone, alone_coef = mpc._centralized_stage_values(cost, x[None], params.r)
        assert np.array_equal(alone, stages[s : s + 1])
        assert same_bits(alone_coef, coef[s : s + 1])
        alone = mpc._centralized_stage_gradient(cost, x[None], alone_coef)
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
    problem, _ = _single_problem(tag, view, PARAMS, LIMITS, None)
    # several plans of the one row in one call, the row repeated
    U = np_rng.uniform(-1.0, 1.0, (5, 3, 12, 2))
    U = clamp_norm(U, LIMITS.a_max)
    several = _build_centralized_problem(
        mpc._pair_cost(tag, PARAMS), *repeated(view, 5), PARAMS, LIMITS
    )
    _, record = several.evaluate(U)
    assert_clamp_active(record[1])
    for k in range(len(U)):
        plan = U[k : k + 1]
        reused = problem.search_direction(plan, rows_of(record, slice(k, k + 1)))[0]
        fresh = problem.search_direction(plan, problem.evaluate(plan)[1])[0]
        assert np.array_equal(reused, fresh)
        public = mpc_objective_gradient(tag, view, U[k], PARAMS, LIMITS)
        assert np.array_equal(reused[0], public)


@pytest.mark.parametrize("tag", DISTRIBUTED_MPC_TAGS)
def test_distributed_gradient_reuses_probe_rollout(tag, np_rng):
    n = 10
    cfg = fast_config(np_rng, n)
    pos, vel = sense_local_all(cfg, noise_for_level(3), RandomStream(9))
    full = _build_batch_problem(
        mpc._pair_cost(tag, PARAMS), pos, vel, range(n), PARAMS, LIMITS
    )
    # several plans of some rows in one call, those rows repeated
    rep = np.array([0, 0, 0, 3, 4, 4, 7, 9, 9, 9, 9])
    # plans that mostly speed each agent up along its sensed heading
    own = vel[rep, rep]
    ahead = own / np.sqrt((own * own).sum(axis=-1, keepdims=True))
    U = ahead[:, None, :] + np_rng.uniform(-0.5, 0.5, (rep.size, 3, 2))
    U = clamp_norm(U, LIMITS.a_max)
    several = _build_batch_problem(
        mpc._pair_cost(tag, PARAMS), pos[rep], vel[rep], rep, PARAMS, LIMITS
    )
    _, record = several.evaluate(U)
    assert_clamp_active(record[1])
    for k, i in enumerate(rep):
        row, plan = full.rows(np.arange(n) == i), U[k : k + 1]
        reused = row.search_direction(plan, rows_of(record, slice(k, k + 1)))[0]
        fresh = row.search_direction(plan, row.evaluate(plan)[1])[0]
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
    U, *_ = _solve_batch(_single_problem(tag, view, params, LIMITS, agent)[0], u[None])
    assert np.allclose(U, 0.0, atol=1e-5)


def adjoint_gradient(problem, U, record):
    """The gradient of a problem's rows at the plans U by the step loop
    `backprop_loop`, from the record of U: a distributed row's recorded
    stage gradient, or a centralized row's stage gradient from its recorded
    pair coefficients, with no wall seen."""
    xs, ws = record[:2]
    if isinstance(problem, _CentralizedProblem):
        later, coef = xs[:, 1:], mpc._stack(record[5])
        gx = mpc._centralized_stage_gradient(problem.cost, mpc._stack(later), coef)
        gx = gx.reshape(later.shape)
    else:
        gx = record[3]
    return backprop_loop(gx, ws, U, problem.limits, problem.params.lam)


@pytest.mark.parametrize("tag", MPC_TAGS)
def test_objective_gradient_is_the_plain_adjoint_where_walls_act(tag, np_rng):
    # agents 0 and 1 end predicted step 2 at r + WALL_GAP / 2, a wall pair,
    # and agent 0's first control is at a_max.  At v_max = 1.2 every
    # centralized rollout clamps and the wall search stacks the wall row
    # under the plan row, whose gradient keeps the plain adjoint pass's
    # bits.  The distributed tags, which see no walls, run at the default
    # limits; agent 0 plans its own column of the plan
    centralized = tag in CENTRALIZED_MPC_TAGS
    limits = MotionLimits(v_max=1.2) if centralized else LIMITS
    r, gap, n = PARAMS.r, horizon.WALL_GAP, 5
    for _ in range(10):
        pos = np_rng.uniform(-4.0, 4.0, (n, 2))
        vel = np_rng.uniform(-1.1, 1.1, (n, 2))
        U = clamp_norm(np_rng.uniform(-1.0, 1.0, (PARAMS.horizon, n, 2)), limits.a_max)
        # agent 0 at speed 1.1, its first control at a_max along its velocity
        vel[0] *= 1.1 / np.sqrt(sq_norm(vel[0]))
        U[0, 0] = limits.a_max / 1.1 * vel[0]
        # a step's positions are the initial ones plus a drift that does not
        # depend on them: agent 1 is placed from the step-2 drifts
        drift = rollout_loop(np.zeros((1, n, 2)), vel[None], U[None], limits)[0][0, 1]
        heading = np_rng.normal(size=2)
        heading *= (r + gap / 2) / np.sqrt(sq_norm(heading))
        pos[1] = pos[0] + drift[0] - drift[1] + heading
        view = config(pos, vel)
        agent, plan = (None, U) if centralized else (0, U[:, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            problem, _ = _single_problem(tag, view, PARAMS, limits, agent)
            _, record = problem.evaluate(plan[None])
            with mock.patch.object(
                horizon, "_backprop_controls", wraps=horizon._backprop_controls
            ) as adjoint:
                got = mpc_objective_gradient(tag, view, plan, PARAMS, limits, agent=agent)
            expected = adjoint_gradient(problem, plan[None], record)[0]
        assert same_bits(got, expected)
        if centralized:
            # pair (0, 1) at step 2 is a wall, the rollout clamps, and the
            # adjoint pass ran on the plan row with the wall rows under it
            assert 0 < record[4][0, 0, 0] - r <= gap
            assert record[2].tolist() == [True]
            assert len(adjoint.call_args.args[0]) > 1


@pytest.mark.parametrize("tag", CENTRALIZED_MPC_TAGS)
def test_forward_controls_match_finite_differences_of_the_rollout(tag, np_rng):
    # agents near the speed limit, so the plans drive the velocity clamp
    view = fast_config(np_rng, 8)
    problem = _build_centralized_problem(
        mpc._pair_cost(tag, PARAMS), *repeated(view, 4), PARAMS, LIMITS
    )
    x1, v0 = problem.x1, problem.v0
    U = clamp_norm(np_rng.uniform(-1.0, 1.0, (4, 3, 8, 2)), LIMITS.a_max)
    D = np_rng.uniform(-1.0, 1.0, U.shape)
    xs, ws, clamps = mpc._rollout_arrays(x1, v0, U, LIMITS)
    assert_clamp_active(ws)
    assert clamps.all()
    xd = horizon._forward_controls(D, ws, LIMITS, clamps)
    h = 1e-6
    ahead = mpc._rollout_arrays(x1, v0, U + h * D, LIMITS)[0]
    behind = mpc._rollout_arrays(x1, v0, U - h * D, LIMITS)[0]
    assert xd.shape == xs[:, 1:].shape
    assert np.allclose(xd, (ahead - behind)[:, 1:] / (2 * h), rtol=1e-6, atol=1e-8)
    # the tangent pass mirrors the adjoint pass: <backprop(gx), D> = <gx, xd>
    gx = np_rng.normal(size=xd.shape)
    gu = horizon._backprop_controls(gx, ws, U, LIMITS, 0.0, clamps)
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

    def search_direction(self, U, record):
        G = self.problem.search_direction(U, record)[0]
        return G, G, np.full(len(U), np.inf)


def test_pair_just_beyond_r_converges_at_the_wall():
    # agents 0 and 1 at rest r + 1e-4 apart: cohesion pulls them together,
    # and their separation term would jump in inside r.  Without the walls
    # the line search creeps towards r and stalls; with them the pair is
    # held just beyond r and the solve converges there, lower
    r = PARAMS.r
    view = config([[0.0, 0.0], [r + 1e-4, 0.0], [r / 2, 4.0]])
    problem, _ = _single_problem("df_centralized", view, PARAMS, LIMITS, None)
    U, converged, iterations = _solve_batch(problem, np.zeros((1, 3, 3, 2)))
    assert converged[0] and iterations <= 5
    _, (xs, *_) = problem.evaluate(U)
    excess = np.sqrt(((xs[0, :, 0] - xs[0, :, 1]) ** 2).sum(axis=-1)) - r
    assert ((excess >= 0) & (excess <= horizon.WALL_GAP)).all()
    plain = PlainDirection(problem)
    plain_U, plain_converged, plain_iterations = _solve_batch(
        plain, np.zeros((1, 3, 3, 2))
    )
    assert not plain_converged[0] and plain_iterations > iterations
    assert problem.evaluate(U)[0][0] < problem.evaluate(plain_U)[0][0]


@pytest.mark.parametrize("excess", [5e-4, 5e-3])
def test_wall_gap_separates_walls_from_capping_pairs(excess):
    # two agents at rest r + excess apart, pulled together by cohesion:
    # within WALL_GAP of r the pair is a wall and the direction may not pull
    # it in; beyond it the direction does, and the line search's first step
    # is CROSS_FRACTION times the first-order step at which it enters r
    r = PARAMS.r
    view = config([[0.0, 0.0], [r + excess, 0.0]])
    problem, _ = _single_problem("df_centralized", view, PARAMS, LIMITS, None)
    U = np.zeros((1, 3, 2, 2))
    _, record = problem.evaluate(U)
    G, P, cap = problem.search_direction(U, record)
    assert same_bits(G, adjoint_gradient(problem, U, record))

    def distances(plan):
        _, (xs, *_) = problem.evaluate(plan)
        return np.sqrt(((xs[0, 1:, 0] - xs[0, 1:, 1]) ** 2).sum(axis=-1))

    h = 1e-6
    rate = (distances(U - h * P) - distances(U + h * P)) / (2 * h)
    if excess < horizon.WALL_GAP:
        assert not np.array_equal(P, G)
        assert np.allclose(rate, 0.0, atol=1e-9) and np.abs(P).max() < 1e-12
        assert cap[0] == np.inf
    else:
        assert P is G
        assert (rate < 0).all()
        crossing = (distances(U) - r) / -rate
        assert cap[0] == pytest.approx(horizon.CROSS_FRACTION * crossing.min(), rel=1e-6)


@pytest.mark.parametrize("fast", [False, True])
def test_walls_and_caps_in_several_rows_match_each_row_alone(fast):
    # three rows of three agents under the zero plan, each agent moving at
    # its own constant velocity; the pairs i < j of all rows' steps 2..3
    # are one stack, whose (stage, pair) entries map back to (row, step,
    # i, j).  Row 0 has a wall pair at step 2 (inside r at step 3), row 1 a
    # wall pair at step 3 and a capping pair at step 2, row 2 a capping
    # pair alone; the third agent of every row is far from the others.
    # Where fast, the far agents of rows 0 and 2 move faster than v_max, so
    # those rows' rollouts clamp, row 1's do not, and the batch takes the
    # wall rows' clamp Jacobians while row 1 alone takes none
    r, gap, dt = PARAMS.r, 5e-4, LIMITS.dt
    pos = np.array([
        [[0.0, 0.0], [r + gap + 2 * dt, 0.0], [0.0, 40.0]],
        [[0.0, -40.0], [0.0, 0.0], [r + gap + 3 * dt, 0.0]],
        [[0.0, 0.0], [0.0, 40.0], [r + 10 * gap, 0.0]],
    ])
    vel = np.zeros_like(pos)
    vel[0, 1] = vel[1, 2] = (-1.0, 0.0)
    if fast:
        vel[0, 2] = vel[2, 1] = (LIMITS.v_max + 0.5, 0.0)
    problem = _build_centralized_problem(
        mpc._pair_cost("df_centralized", PARAMS), pos, vel, PARAMS, LIMITS
    )
    U = np.zeros((3, 3, 3, 2))
    _, record = problem.evaluate(U)
    xs = record[0]
    assert record[2].tolist() == [fast, False, fast]
    excess = np.sqrt(((xs[:, 1:, 0] - xs[:, 1:, 1]) ** 2).sum(axis=-1)) - r
    assert 0 < excess[0, 0] <= horizon.WALL_GAP and excess[0, 1] < 0
    excess = np.sqrt(((xs[:, 1:, 1] - xs[:, 1:, 2]) ** 2).sum(axis=-1)) - r
    assert horizon.WALL_GAP < excess[1, 0] and 0 < excess[1, 1] <= horizon.WALL_GAP
    G, P, cap = problem.search_direction(U, record)
    for k in range(3):
        alone = problem.rows(np.arange(3) == k).search_direction(
            U[k : k + 1], rows_of(record, slice(k, k + 1))
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
    problem, _ = _single_problem(tag, view, params, LIMITS, None)
    # plans with saturated controls, which a penalty-only gradient pulls in
    U = clamp_norm(np_rng.uniform(-2.0, 2.0, (1, steps, n, 2)), LIMITS.a_max)
    _, record = problem.evaluate(U)
    G, P, cap = problem.search_direction(U, record)
    assert P is G and same_bits(G, adjoint_gradient(problem, U, record))
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


def brute_force_nnls(K, b):
    """The lam >= 0 minimizing lam.K.lam / 2 - b.lam for a positive
    definite K, by trying every active set: the best nonnegative solution
    of K_S lam_S = b_S over all subsets S."""
    best, best_value = None, np.inf
    for size in range(b.size + 1):
        for S in map(list, itertools.combinations(range(b.size), size)):
            lam = np.zeros(b.size)
            if S:
                lam[S] = np.linalg.solve(K[np.ix_(S, S)], b[S])
            value = lam @ K @ lam / 2 - b @ lam
            if (lam >= 0).all() and value < best_value:
                best, best_value = lam, value
    return best


def test_nnls_matches_every_active_set_also_where_it_drops_one():
    # cones of 2-4 full-rank constraints in R^4; where a solve on the active
    # set gives a multiplier <= 0, _nnls moves towards it and drops the
    # first multiplier that reaches 0
    rng = np.random.default_rng(20261019)
    solved, dropped = [], 0
    real = horizon._active_solve

    def spy(K, b, on):
        solved.append(real(K, b, on))
        return solved[-1]

    for _ in range(400):
        A = rng.normal(size=(int(rng.integers(2, 5)), 4))
        K, b = A @ A.T, A @ rng.normal(size=4)
        solved.clear()
        with mock.patch.object(horizon, "_active_solve", spy):
            lam = horizon._nnls(K, b, 1e-12)
        # the first solve is the starting guess; a later one with a
        # multiplier <= 0 takes the drop step
        dropped += any((z <= 0).any() for z in solved[1:])
        assert np.allclose(lam, brute_force_nnls(K, b), rtol=1e-9, atol=1e-12)
    assert dropped > 0


def run_counting(tag, spied):
    """Simulate run 0 of `tag` at seed 1 with every (owner, name) function of
    `spied` counted: per name, its calls in all and those made inside a
    search direction, with the search directions counted as "search"."""
    counts = {"search": 0}
    searching = []

    def spy(name, function):
        counts[name] = counts[f"{name} in search"] = 0

        def wrapper(*args):
            counts[name] += 1
            counts[f"{name} in search"] += bool(searching)
            return function(*args)

        return wrapper

    problem_type = _CentralizedProblem if tag in CENTRALIZED_MPC_TAGS else (
        mpc._BatchProblem
    )
    search_direction = problem_type.search_direction

    def flagged_search_direction(self, U, record):
        counts["search"] += 1
        searching.append(True)
        try:
            return search_direction(self, U, record)
        finally:
            searching.pop()

    patches = [
        mock.patch.object(problem_type, "search_direction", flagged_search_direction)
    ]
    for owner, name in spied:
        patches.append(mock.patch.object(owner, name, spy(name, getattr(owner, name))))
    cfg = ExperimentConfig(model=default_model_spec(tag))
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        simulate(cfg, mix_seed(1, 0))
    assert (cfg.n, cfg.steps) == (30, 100)
    return counts


def test_solver_rolls_out_once_per_evaluation():
    # every rollout inside the solver comes from an evaluation, and so do a
    # centralized solve's pairs: a search direction reads the record of the
    # evaluation that accepted its point.  No rollout of this run clamps, so
    # no clamp Jacobian is applied, and each search direction takes one stage
    # gradient
    counts = run_counting("df_centralized", [
        (mpc, "_rollout_arrays"), (_CentralizedProblem, "evaluate"), (mpc, "_pairs"),
        (horizon, "_clamp_apply"), (mpc, "_centralized_stage_gradient"),
    ])
    assert counts["evaluate"] == counts["_rollout_arrays"] == 940
    # one pair pass per evaluation and one per problem build, at step 1
    assert counts["_pairs"] == 940 + 100
    assert counts["_clamp_apply"] == 0
    assert counts["_centralized_stage_gradient"] == counts["search"] > 0
    for name in ("_rollout_arrays", "evaluate", "_pairs"):
        assert counts[f"{name} in search"] == 0


def test_distributed_search_direction_runs_only_the_adjoint_pass():
    # a distributed record carries the stage gradient, computed with the
    # stage costs from the same edge differences and distances, each
    # distance floored once for its term and slope: a search direction
    # rolls out nothing and prices no edge
    counts = run_counting("df_distributed", [
        (mpc, "_rollout_arrays"), (mpc._BatchProblem, "evaluate"),
        (mpc._BatchProblem, "_stage_sum"), (mpc, "_edge_costs"),
        (mpc._PairCost, "terms"), (mpc, "_backprop_controls"),
    ])
    assert counts["evaluate"] == counts["_rollout_arrays"] == counts["_stage_sum"]
    # once per evaluation, and step 1 at build
    assert counts["_edge_costs"] == counts["terms"] == counts["evaluate"] + 100
    assert counts["_backprop_controls"] == counts["search"] > 0
    for name in ("_rollout_arrays", "evaluate", "_stage_sum", "_edge_costs", "terms"):
        assert counts[f"{name} in search"] == 0
    # the search direction is a problem's one gradient path
    for problem_type in (mpc._Problem, _CentralizedProblem, mpc._BatchProblem):
        for name in ("gradient", "_adjoint", "_stage_gradient"):
            assert not hasattr(problem_type, name)


@pytest.mark.parametrize("tag", CENTRALIZED_MPC_TAGS)
def test_centralized_search_direction_reads_the_recorded_coefficients(tag):
    # a centralized record carries each pair's gradient coefficient, priced
    # with its stage value from one floor: a search direction prices no
    # pair, and reads twice the slope inside r and 0 out of r
    terms, stage_sum, checked = mpc._PairCost.terms, _CentralizedProblem._stage_sum, []

    def checking_stage_sum(self, xs):
        out = stage_sum(self, xs)
        dist, coef = out[2:]
        slope = terms(self.cost, dist)[1]  # unspied
        checked.append(same_bits(coef, np.where(dist < self.params.r, 2 * slope, 0)))
        return out

    with mock.patch.object(_CentralizedProblem, "_stage_sum", checking_stage_sum):
        counts = run_counting(tag, [
            (_CentralizedProblem, "evaluate"), (mpc._PairCost, "terms"),
            (mpc, "_centralized_stage_gradient"),
        ])
    # once per evaluation, and step 1 at build
    assert counts["terms"] == counts["evaluate"] + 100
    assert counts["terms in search"] == 0
    assert counts["_centralized_stage_gradient"] == counts["search"] > 0
    assert len(checked) == counts["evaluate"] and all(checked)


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


def newton_rows(found, U, problem):
    """The rows of the plans U that take a Newton step and that step, from
    `problem`'s search direction `found`: `horizon._newton_direction` where
    the problem gives stage Hessians, and no row otherwise."""
    G, _, _, *hessian = found
    if not hessian:
        return np.zeros(len(U), dtype=bool), None
    return _newton_direction(*hessian, G, U, problem.params.lam, problem.limits)


class TrappedProblem:
    """Passes evaluations on to a problem, except that its objective is NaN
    at chosen line-search probes: traps[i][k] holds the halvings h whose
    probe (step scale * 2**-h along minus the projected gradient P, or
    2**-h along minus the Newton step of a row that takes one) is trapped in
    batch row i's k-th line search, counted by the row's gradient
    evaluations; the scale is `first_scale` of the row's search.  Logs the
    rows of each objective call and counts the trapped probes it was
    handed."""

    def __init__(self, problem, ids, traps, state):
        self.problem, self.ids, self.traps, self.state = problem, ids, traps, state
        self.limits, self.params = problem.limits, problem.params

    @classmethod
    def wrap(cls, problem, size, traps=None):
        state = {"grads": {}, "last": {}, "plans": {}, "calls": [], "trapped": 0}
        return cls(problem, np.arange(size), traps or {}, state)

    def rows(self, keep):
        return TrappedProblem(self.problem.rows(keep), self.ids[keep], self.traps, self.state)

    def search_direction(self, U, record):
        found = self.problem.search_direction(U, record)
        G, P, cap = found[:3]
        caps = np.full(len(U), np.inf) if cap is None else cap
        newton, N = newton_rows(found, U, self.problem)
        for row, (i, u, p, c) in enumerate(zip(self.ids.tolist(), U, P, caps)):
            k = self.state["grads"].get(i, 0)
            self.state["grads"][i] = k + 1
            scale = first_scale(self.state["last"].get(i), u, p, c)
            self.state["last"][i] = (u.copy(), p)
            if newton[row]:
                scale, p = 1.0, N[row]
            trapped = self.traps.get(i, [])
            halvings = trapped[k] if k < len(trapped) else ()
            self.state["plans"][i] = [
                clamp_norm(u - scale * 2.0**-h * p, self.limits.a_max)
                for h in halvings
            ]
        return found

    def evaluate(self, U):
        J, record = self.problem.evaluate(U)
        J = J.copy()
        self.state["calls"].append(self.ids.tolist())
        for k, (i, u) in enumerate(zip(self.ids.tolist(), U)):
            if any(np.array_equal(u, p) for p in self.state["plans"].get(i, ())):
                J[k] = np.nan
                self.state["trapped"] += 1
        return J, record


def sequential_solve(problem, warm):
    """Reference solver: projected gradient descent whose line search probes
    the steps a, a/2, ..., a * 2**-LAST_HALVING along minus the projected
    gradient P one at a time, each row evaluated alone through problem.rows
    and every row searching in lockstep, raising on the first probe that is
    non-finite.  A row has converged where its unit step is at most
    GRAD_TOL or its square at most RESOLUTION * 2**-52 times its objective.
    A row's first step a is `first_scale`: 1 or the Barzilai-Borwein scale
    of its last accepted move, at most the row's cap; a row that takes a
    Newton step N (`newton_rows`, the row alone) probes along minus N from
    a = 1 instead.  Returns the plans,
    and per row its iterations, converged flag, accepted-objective trace and
    the halvings of its accepted steps.  The search direction at a point
    takes the rollout the point's evaluation returned."""
    B, a_max = warm.shape[0], problem.limits.a_max
    alone = [problem.rows(np.arange(B) == i) for i in range(B)]
    U = clamp_norm(warm, a_max)
    J, rollouts = [], []
    for i in range(B):
        value, record = alone[i].evaluate(U[i : i + 1])
        J.append(value[0])
        rollouts.append(record)
    traces = [[float(j)] for j in J]
    accepted = [[] for _ in range(B)]
    iterations = np.zeros(B, dtype=int)
    converged = np.zeros(B, dtype=bool)
    scales, last = np.ones(B), {}
    live = list(range(B))
    for _ in range(MAX_ITER):
        found = {i: alone[i].search_direction(U[i : i + 1], rollouts[i]) for i in live}
        G = {i: found[i][1][0] for i in live}
        for i in live:
            # the unit step is short, or its square, the decrease it
            # predicts, is below the resolution of the row's objective
            unit_sq = ((U[i] - clamp_norm(U[i] - G[i], a_max)) ** 2).sum()
            converged[i] = (
                np.sqrt(unit_sq) <= GRAD_TOL or unit_sq <= RESOLUTION * 2.0**-52 * J[i]
            )
        live = [i for i in live if not converged[i]]
        if not live:
            break
        iterations[live] += 1
        directions = {}
        for i in live:
            cap = np.inf if found[i][2] is None else found[i][2][0]
            scales[i] = first_scale(last.get(i), U[i], G[i], cap)
            last[i] = (U[i].copy(), G[i])
            newton, N = newton_rows(found[i], U[i : i + 1], alone[i])
            directions[i] = N[0] if newton[0] else G[i]
            if newton[0]:
                scales[i] = 1.0
        searching, going = list(live), []
        for h in range(LAST_HALVING + 1):
            step = {i: scales[i] * 2.0**-h for i in searching}
            tried = {
                i: clamp_norm(U[i] - step[i] * directions[i], a_max) for i in searching
            }
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
                    rollouts[i] = evaluated[i][1]
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


def ladder_cases(np_rng):
    """Random centralized and noisy distributed problems with warm starts,
    and closed-loop solves at n = 30: one of each centralized tag and one
    df_distributed batch at noise level 10.  Each centralized tag also gets
    one problem of four rows: three distinct views and a repeat of one."""
    cases = []
    for tag in CENTRALIZED_MPC_TAGS:
        for n in (5, 10):
            view = random_config(np_rng, n=n, span=6.0, v_span=3.0)
            problem, _ = _single_problem(tag, view, PARAMS, LIMITS, None)
            cases.append((problem, np_rng.uniform(-0.5, 0.5, (1, 3, n, 2))))
        views = [random_config(np_rng, n=8, span=6.0, v_span=3.0) for _ in range(3)]
        views.append(views[1])
        problem = _build_centralized_problem(
            mpc._pair_cost(tag, PARAMS),
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
            problem = _build_batch_problem(
                mpc._pair_cost(tag, PARAMS), *views, range(n), PARAMS, LIMITS
            )
            cases.append((problem, np_rng.uniform(-0.5, 0.5, (n, 3, 2))))
    cases.append(captured_solves("df_centralized", mix_seed(1, 0), 6)[-1])
    cases.append(captured_solves("lattice_centralized", mix_seed(1, 0), 6)[-1])
    cases.append(captured_solves("df_distributed", mix_seed(1, 0), 7, level=10)[-1])
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
        U, iterations, converged, _, accepted = sequential_solve(problem, warm)
        deepest = max([deepest] + [h for halvings in accepted for h in halvings])
        wrapped = TrappedProblem.wrap(problem, B)
        got_U, got_converged, got_iterations = _solve_batch(wrapped, warm)
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
            plan, one_converged, one_iterations = one
            assert np.array_equal(plan[0], U[i])
            assert (one_converged[0], one_iterations) == (converged[i], iterations[i])
    # some line searches halved their step more than six times
    assert deepest > 6


def mixed_clamp_batch(tag, np_rng):
    """A batch of two-agent rows at v_max = 2 and its warm starts: each
    centralized row plans both agents of its own configuration, each
    distributed row agent 0 against agent 1.  Row 0 sits at rest at its
    family's equilibrium spacing and converges at the first check; rows 1
    and 3 move faster than v_max, so every rollout of theirs clamps; row 2
    moves slowly and its rollouts do not."""
    limits = MotionLimits(v_max=2.0)
    cost = mpc._pair_cost(tag, PARAMS)
    if tag in CENTRALIZED_MPC_TAGS:
        spacing = PARAMS.d if not cost.cohesion else (2.0 * PARAMS.omega) ** 0.25
    else:
        spacing = PARAMS.d if not cost.cohesion else PARAMS.omega**0.25
    pos = np.array([
        [[0.0, 0.0], [spacing, 0.0]],
        [[0.0, 0.0], [4.0, 1.0]],
        [[0.0, 0.0], [5.0, -1.0]],
        [[1.0, 0.0], [3.0, 2.0]],
    ])
    vel = np.array([
        [[0.0, 0.0], [0.0, 0.0]],
        [[2.3, 0.0], [-2.2, 0.5]],
        [[0.3, 0.1], [-0.2, 0.0]],
        [[0.0, -2.4], [1.5, 1.7]],
    ])
    warm = np_rng.uniform(-0.3, 0.3, (4, 3, 2, 2))
    warm[0] = 0.0
    if tag in CENTRALIZED_MPC_TAGS:
        return _build_centralized_problem(cost, pos, vel, PARAMS, limits), warm
    problem = _build_batch_problem(cost, pos, vel, [0] * 4, PARAMS, limits)
    return problem, warm[:, :, 0]


@pytest.mark.parametrize("tag", MPC_TAGS)
def test_rows_that_clamp_solve_in_a_batch_as_alone(tag, np_rng):
    # some rows' rollouts clamp and others' do not, and a row converges at
    # once or stalls while the clamping rows stay live: the batch solve
    # narrows the clamp flags with its rows and gives every row the bits it
    # gets alone
    problem, warm = mixed_clamp_batch(tag, np_rng)
    _, record = problem.evaluate(clamp_norm(warm, LIMITS.a_max))
    assert record[2].tolist() == [False, True, False, True]
    U, iterations, converged, _, _ = sequential_solve(problem, warm)
    assert iterations[0] == 0 and converged[0]
    assert min(iterations[1], iterations[3]) > 0
    got_U, got_converged, got_iterations = _solve_batch(problem, warm)
    assert same_bits(got_U, U) and np.array_equal(got_converged, converged)
    assert got_iterations == iterations.max()
    for i in range(4):
        one = _solve_batch(problem.rows(np.arange(4) == i), warm[i : i + 1])
        assert same_bits(one[0][0], U[i])
        assert (one[1][0], one[2]) == (converged[i], iterations[i])
    # row 2 climbs, so its first line search stalls while the clamping rows
    # go on; with rows 2 and 3 alone, row 3 is then the one live row
    for keep in (np.ones(4, dtype=bool), np.arange(4) >= 2):
        ids = np.flatnonzero(keep)
        uphill = UphillRow(problem.rows(keep), ids, [], 2)
        got_U, got_converged, _ = _solve_batch(uphill, warm[keep])
        for k, i in enumerate(ids):
            if i == 2:
                assert not got_converged[k]
                assert same_bits(got_U[k], clamp_norm(warm[i], LIMITS.a_max))
            else:
                assert same_bits(got_U[k], U[i]) and got_converged[k] == converged[i]


def test_step_ladder_matches_sequential_search_at_the_iteration_cap(np_rng):
    capped, cases = 0, ladder_cases(np_rng)
    with mock.patch.object(mpc, "MAX_ITER", 3), mock.patch.dict(globals(), MAX_ITER=3):
        for problem, warm in cases:
            U, iterations, converged, _, accepted = sequential_solve(problem, warm)
            got_U, got_converged, got_iterations = _solve_batch(problem, warm)
            assert np.array_equal(got_U, U)
            assert np.array_equal(got_converged, converged)
            assert got_iterations == iterations.max() <= 3
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
        got_U, got_converged, got_iterations = _solve_batch(wrapped, warm)
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
    """Batch row i's gradient at the plan u, and its Newton step there or
    None where it takes none, its row evaluated alone."""
    row, U = problem.rows(np.arange(len(problem.x0)) == i), u[None]
    found = row.search_direction(U, row.evaluate(U)[1])
    newton, N = newton_rows(found, U, row)
    return found[0][0], N[0] if newton[0] else None


def direction_at(problem, i, u):
    """Batch row i's projected gradient and step cap at the plan u, its row
    evaluated alone."""
    row, U = problem.rows(np.arange(len(problem.x0)) == i), u[None]
    _, P, cap = row.search_direction(U, row.evaluate(U)[1])
    return P[0], float(cap[0])


@pytest.mark.parametrize("tag", MPC_TAGS)
def test_first_line_search_of_every_solve_probes_step_one(tag):
    # the solves of a closed loop, in order: the first cold, the later ones
    # warm-started; each solve's first search starts at step 1, later ones
    # at the row's own Barzilai-Borwein scale.  A distributed row steps
    # along minus its gradient, or from step 1 along minus its Newton step
    # where it takes one; a centralized row along minus its projected
    # gradient, and its first step is at most its cap
    first, later, capped, newton = 0, 0, 0, 0
    for problem, warm in captured_solves(tag, mix_seed(1, 0), 4, level=3):
        log = []
        counting = CountingProblem(problem, np.arange(len(warm)), log)
        _solve_batch(counting, warm)
        starts = line_search_starts(log)
        assert starts
        for i, searches in starts.items():
            for k, (u, probe) in enumerate(searches):
                if tag in DISTRIBUTED_MPC_TAGS:
                    (g, N), cap = gradient_at(problem, i, u), np.inf
                    if N is not None:
                        assert np.array_equal(probe, clamp_norm(u - N, LIMITS.a_max))
                        newton += 1
                        continue
                else:
                    g, cap = direction_at(problem, i, u)
                unit = clamp_norm(u - min(1.0, cap) * g, LIMITS.a_max)
                if k == 0:
                    assert np.array_equal(probe, unit)
                    first += 1
                    capped += cap < 1.0
                else:
                    later += not np.array_equal(probe, unit)
    if tag in CENTRALIZED_MPC_TAGS:
        assert first > 0 and later > 0 and capped > 0
    else:
        assert newton > 0


class WorkLog:
    """Passes every call on to a problem and logs each `evaluate` and
    `search_direction` call with the rows it was handed, and each `rows`
    call with the rows it keeps; its sub-problems log to the same list."""

    def __init__(self, problem, log):
        self.problem, self.log = problem, log
        self.limits, self.params = problem.limits, problem.params

    def rows(self, keep):
        self.log.append(("rows", int(np.count_nonzero(keep))))
        return WorkLog(self.problem.rows(keep), self.log)

    def evaluate(self, U):
        self.log.append(("evaluate", len(U)))
        return self.problem.evaluate(U)

    def search_direction(self, U, record):
        self.log.append(("search_direction", len(U)))
        return self.problem.search_direction(U, record)


# (tag, noise level) -> each method's calls and rows, and the sha256 of the
# call sequence, over the solves of run 0 at seed 1, 20 steps at n = 30
SOLVER_WORK = {
    ("lattice_centralized", 0): (
        {"evaluate": (290, 290), "search_direction": (277, 277)},
        "9813ec031ed6d8c0f6f6d3890d315f14dc7880de8e5dd703d6d749004fb0179e",
    ),
    ("df_centralized", 0): (
        {"evaluate": (337, 337), "search_direction": (292, 292)},
        "30b6eb19afbfcf28df63773938c5b89f4e7d0d26423cc2749a9f55bf3adfc58e",
    ),
    ("lattice_distributed", 0): (
        {"evaluate": (69, 1840), "search_direction": (69, 1840), "rows": (11, 100)},
        "bbcf8633bd58c951936768a46dbab3f982a0e6b9e15b8f5be43a8efc6617336a",
    ),
    ("df_distributed", 0): (
        {"evaluate": (78, 1867), "search_direction": (78, 1867), "rows": (19, 97)},
        "78cf22ba3c3aadcad42eff5ba611952b4d845e67f6558a9d4c622053728e0d5d",
    ),
    ("lattice_distributed", 10): (
        {"evaluate": (85, 1962), "search_direction": (84, 1961), "rows": (33, 402)},
        "81ca940ec9ed0181238cb3536e9acaa2b6bc8f15318fc5d5b230888e44dea11b",
    ),
    ("df_distributed", 10): (
        {"evaluate": (118, 2203), "search_direction": (113, 2198), "rows": (55, 400)},
        "0df49c7ea3956e24123b88f9f7898e89e17598079c9bb08d81c0a3f04e96ffcf",
    ),
}


@pytest.mark.parametrize(("tag", "level"), list(SOLVER_WORK))
def test_solver_work_on_closed_loop_solves(tag, level):
    # how much work the solves do, not only what they return: every
    # evaluation, search direction and narrowing, in order, with its rows
    log = []
    seed = mix_seed(1, level * LEVEL_SEED_STRIDE)
    for problem, warm in captured_solves(tag, seed, steps=20, level=level):
        _solve_batch(WorkLog(problem, log), warm)
    totals = {}
    for method, rows in log:
        calls, total = totals.get(method, (0, 0))
        totals[method] = (calls + 1, total + rows)
    digest = hashlib.sha256("".join(f"{m} {r}\n" for m, r in log).encode()).hexdigest()
    assert (totals, digest) == SOLVER_WORK[tag, level]


# --------------------------------------------------------------------------
# the Newton direction of distributed rows
# --------------------------------------------------------------------------


def control_hessian_at(tag, view, U, params, limits, neighbor_set):
    """Agent 0's Hessian of its first T-1 controls at the plan U, from the
    stage Hessians its evaluation records, and whether its rollout clamps."""
    problem, _ = _single_problem(tag, view, params, limits, 0, neighbor_set)
    _, record = problem.evaluate(U[None])
    *_, hx, free = problem.search_direction(U[None], record)
    return horizon._control_hessian(hx, params.lam, limits.dt)[0], bool(free[0])


def hessian_by_differences(tag, view, U, params, limits, neighbor_set, h):
    """Central differences of `mpc_objective_gradient` in each control,
    (T m, T m)."""
    columns = []
    for k in range(U.size):
        step = np.zeros(U.size)
        step[k] = h
        step = step.reshape(U.shape)
        up, down = (
            mpc_objective_gradient(
                tag, view, U + sign * step, params, limits, agent=0, neighbor_set=neighbor_set
            )
            for sign in (1, -1)
        )
        columns.append(((up - down) / (2 * h)).ravel())
    return np.array(columns).T


@pytest.mark.parametrize("tag", DISTRIBUTED_MPC_TAGS)
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
def test_control_hessian_matches_differences_of_the_gradient(tag, m, T, np_rng):
    # agent 0 against random neighbors, against none, and against a
    # neighbor it coincides with at every predicted step (below EPS_DIST,
    # where the floor holds the term and only df's cohesion bends); the
    # last control is dead, its block 2 lam I and decoupled
    params, limits = MpcParams(horizon=T), MotionLimits()
    K = (T - 1) * m
    pos = np_rng.uniform(-4.0, 4.0, (5, m))
    vel = np_rng.uniform(-1.0, 1.0, (5, m))
    pos[4], vel[4] = pos[0], vel[0]
    view = FlockConfiguration(pos, vel)
    U = np_rng.uniform(-0.3, 0.3, (T, m))
    cases = [({1, 2, 3}, U, 1e-5), ((), U, 1e-5), ({1, 4}, np.zeros((T, m)), 1e-8)]
    for neighbor_set, plan, h in cases:
        H, free = control_hessian_at(tag, view, plan, params, limits, neighbor_set)
        expected = hessian_by_differences(tag, view, plan, params, limits, neighbor_set, h)
        assert free and H.shape == (K, K)
        assert np.allclose(H, expected[:K, :K], rtol=1e-6, atol=1e-6)
        assert np.allclose(expected[K:, :K], 0.0, atol=1e-6)
        assert np.allclose(expected[K:, K:], 2.0 * params.lam * np.eye(m), atol=1e-6)
        if not neighbor_set:
            assert same_bits(H, 2.0 * params.lam * np.eye(K))


def explicit_newton_step(H, G, U, a_max):
    """One row's Newton step written out with projection matrices: each
    pushed control's radial direction e leaves H and G through
    P = I - blockdiag(e e^T), and its block gains push / a_max on the
    diagonal; the last control steps to zero."""
    T, m = U.shape
    K = (T - 1) * m
    P, curvature = np.eye(K), np.zeros(K)
    pushed = horizon._ball_contact(U[:-1], G[:-1], a_max)[1]
    for k in range(T - 1):
        u, g = U[k], G[k]
        if pushed[k]:
            e = u / np.linalg.norm(u)
            P[k * m : (k + 1) * m, k * m : (k + 1) * m] -= np.outer(e, e)
            curvature[k * m : (k + 1) * m] = -(e @ g) / a_max
    reduced = P @ H @ P + np.diag(curvature)
    step = np.linalg.solve(reduced, P @ G[:-1].ravel())
    return np.concatenate([step, U[-1]]).reshape(T, m), np.linalg.eigvalsh(reduced)[0] > 0


def test_newton_step_moves_pushed_controls_along_the_ball():
    # every search direction of a noisy df_distributed step: each row's step
    # against the projection written out, and a pushed control's step has
    # no radial part
    problem, warm = captured_solves("df_distributed", mix_seed(1, 0), 6, level=10)[-1]
    calls = []

    def spy(*args):
        calls.append(args)
        return _newton_direction(*args)

    with mock.patch.object(mpc, "_newton_direction", spy):
        _solve_batch(problem, warm)
    pushed = stepped = 0
    for hx, free, G, U, lam, limits in calls:
        newton, N = _newton_direction(hx, free, G, U, lam, limits)
        H = horizon._control_hessian(hx, lam, limits.dt)
        for k in range(len(U)):
            step, definite = explicit_newton_step(H[k], G[k], U[k], limits.a_max)
            assert newton[k] == (free[k] and definite)
            if not newton[k]:
                continue
            stepped += 1
            assert np.allclose(N[k], step, rtol=1e-9, atol=1e-12)
            held = horizon._ball_contact(U[k, :-1], G[k, :-1], limits.a_max)[1]
            for u, n in zip(U[k, :-1][held], N[k, :-1][held]):
                pushed += 1
                assert abs(u @ n) <= 1e-9 * np.linalg.norm(n) + 1e-14
    assert pushed > 0 and stepped > pushed


def test_noisy_batch_with_pushed_and_clamping_rows_solves_as_each_row_alone():
    # a noisy df_distributed step at v_max = 2.5: one row's rollout clamps
    # and keeps its Barzilai-Borwein steps, and rows with controls pushed
    # against the a_max ball take Newton steps along it; every row has the
    # bits it gets alone
    limits = MotionLimits(v_max=2.5)
    seed = mix_seed(1, 10 * LEVEL_SEED_STRIDE)
    problem, warm = captured_solves("df_distributed", seed, 6, level=10, limits=limits)[5]
    clamps = problem.evaluate(clamp_norm(warm, limits.a_max))[1][2]
    assert np.count_nonzero(clamps) == 1
    pushed_newton = []

    def spy(hx, free, G, U, lam, limits):
        newton, N = _newton_direction(hx, free, G, U, lam, limits)
        u, g = U[:, :-1], G[:, :-1]
        pushed = horizon._ball_contact(u, g, limits.a_max)[1]
        pushed_newton.append(np.count_nonzero(pushed.any(axis=1) & newton))
        return newton, N

    with mock.patch.object(mpc, "_newton_direction", spy):
        U, converged, iterations = _solve_batch(problem, warm)
    assert sum(pushed_newton) > 0
    B = len(warm)
    for i in range(B):
        plan, one_converged, one_iterations = _solve_batch(
            problem.rows(np.arange(B) == i), warm[i : i + 1]
        )
        assert same_bits(plan[0], U[i]) and one_converged[0] == converged[i]
        assert one_iterations <= iterations


def newton_spy(calls):
    """Patch `mpc._newton_direction` to append, per call, the rows whose
    rollout does not clamp, whose stage Hessians are finite, whose Hessian
    of the controls is finite, and which take a Newton step."""

    def spy(hx, free, G, U, lam, limits):
        newton, N = _newton_direction(hx, free, G, U, lam, limits)
        H = horizon._control_hessian(hx, lam, limits.dt)
        stages = np.isfinite(hx).reshape(len(hx), -1).all(axis=1)
        calls.append((free, stages, np.isfinite(H).all(axis=(1, 2)), newton))
        return newton, N

    return mock.patch.object(mpc, "_newton_direction", spy)


def test_non_finite_hessian_withholds_the_newton_step():
    # agents 0 and 1 at rest 1e-3 apart at omega = 5e295: their objectives,
    # slopes -2 omega / d**4 and gradients are finite, but the separation's
    # curvature 6 omega / d**4 = 3e308 is not, so their stage Hessians hold
    # inf (and nan off the axis the pair lies on); agent 2 has no neighbor.  Their rollouts do not clamp, yet neither
    # takes a Newton step: each follows its gradient, whose probes overflow.
    # With no a_max, the resolution test cannot stop their huge objectives
    # at once
    pos = np.array([[0.0, 0.0], [1e-3, 0.0], [40.0, 40.0]])
    calls = []
    with warnings.catch_warnings(), newton_spy(calls):
        warnings.simplefilter("error")
        with pytest.raises(
            SolverError, match="^non-finite MPC objective during line search$"
        ) as info:
            solve_mpc_distributed_all(
                "df_distributed", np.stack([pos] * 3), np.zeros((3, 3, 2)),
                MpcParams(omega=5e295), MotionLimits(a_max=math.inf),
            )
    diagnostics = info.value.diagnostics
    assert diagnostics["agents"].tolist() == [0, 1]
    assert "hessian" not in diagnostics
    assert diagnostics["controls"].shape == (2, 3, 2)
    # agent 2, with no neighbor, converges at once and forms no direction
    free, _, finite, newton = calls[0]
    assert free.tolist() == [True, True] and not finite.any() and not newton.any()


# under these limits a df pair 1e-3 apart at omega = 1e295 has finite stage
# Hessians but a control Hessian that overflows as it is assembled: the
# rollout map's dt**4 weights carry it past 1e308
ASSEMBLY_OVERFLOW_LIMITS = MotionLimits(v_max=math.inf, a_max=math.inf, dt=2.0)


def test_hessian_overflowing_in_assembly_raises_solver_error_naming_the_agents():
    # the stage Hessians of agents 0 and 1 are finite, so only the assembled
    # Hessian's own test sends them to their gradients; without it, LAPACK's
    # eigvalsh fails on it with numpy's LinAlgError, which names no agent
    pos = np.array([[0.0, 0.0], [1e-3, 0.0], [40.0, 40.0]])
    calls = []
    with warnings.catch_warnings(), newton_spy(calls):
        warnings.simplefilter("error")
        with pytest.raises(
            SolverError, match="^non-finite MPC objective during line search$"
        ) as info:
            solve_mpc_distributed_all(
                "df_distributed", np.stack([pos] * 3), np.zeros((3, 3, 2)),
                MpcParams(omega=1e295), ASSEMBLY_OVERFLOW_LIMITS,
            )
    diagnostics = info.value.diagnostics
    assert diagnostics["agents"].tolist() == [0, 1]
    assert diagnostics["controls"].shape == (2, 3, 2)
    free, stages, finite, newton = calls[0]
    assert free.tolist() == [True, True] and stages.all()
    assert not finite.any() and not newton.any()


def test_simulate_with_an_overflowing_hessian_raises_solver_error():
    # three agents within 1e-3 of each other under the same settings: the
    # closed loop's error names its run, step and model
    cfg = ExperimentConfig(
        model=ModelSpec("df_distributed", MpcParams(omega=1e295)),
        n=3,
        steps=2,
        limits=ASSEMBLY_OVERFLOW_LIMITS,
        runs=1,
        init_position_box=((-1e-3, 1e-3),) * 2,
        init_velocity_box=((0.0, 0.0),) * 2,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            SolverError, match="^non-finite MPC objective during line search$"
        ) as info:
            simulate(cfg, 1)
    diagnostics = info.value.diagnostics
    assert diagnostics["run_id"] == 0 and diagnostics["step"] == 0
    assert diagnostics["model"] == "df_distributed"
    assert diagnostics["agents"].tolist() == [0, 1, 2]


def test_stage_hessian_near_the_distance_floor_does_not_overflow():
    # a df pair 2e-6 apart along x at omega = 1e280: its stage Hessian
    # 6 omega / d**4 along the pair and -2 omega / d**4 across it is finite,
    # though 8 omega / d**6, the curvature's factor on diff diff^T, is not
    omega, d = 1e280, 2e-6
    pos = np.array([[0.0, 0.0], [d, 0.0]])
    params = MpcParams(omega=omega)
    problem = _build_batch_problem(
        mpc._pair_cost("df_distributed", params), np.stack([pos] * 2),
        np.zeros((2, 2, 2)), None, params, LIMITS,
    )
    with np.errstate(over="raise", invalid="raise"):
        hx = problem.evaluate(np.zeros((2, params.horizon, 2)))[1][4]
    assert np.isfinite(hx).all()
    along, across = 6.0 * omega / d**4, -2.0 * omega / d**4
    assert hx[:, :, 0, 0] == pytest.approx(np.full((2, 2), along), rel=1e-12)
    assert hx[:, :, 1, 1] == pytest.approx(np.full((2, 2), across), rel=1e-12)
    assert (hx[:, :, 0, 1] == 0.0).all() and (hx[:, :, 1, 0] == 0.0).all()


def test_row_that_is_not_positive_definite_keeps_its_barzilai_borwein_step():
    # noisy df_distributed steps: a search from a point where the row's
    # reduced Hessian is not positive definite starts along minus its
    # gradient at 1 in the row's first search and at the Barzilai-Borwein
    # scale of its last move (Newton or not) later; every other search
    # starts at its Newton step
    kinds = {"first": 0, "bb": 0, "newton": 0}
    seed = mix_seed(1, 10 * LEVEL_SEED_STRIDE)
    for problem, warm in captured_solves("df_distributed", seed, 10, level=10):
        log = []
        _solve_batch(CountingProblem(problem, np.arange(len(warm)), log), warm)
        for i, searches in line_search_starts(log).items():
            last = None
            for u, probe in searches:
                g, N = gradient_at(problem, i, u)
                if N is None:
                    scale = first_scale(last, u, g, np.inf)
                    assert np.array_equal(probe, clamp_norm(u - scale * g, LIMITS.a_max))
                    kinds["bb" if last is not None else "first"] += 1
                else:
                    assert np.array_equal(probe, clamp_norm(u - N, LIMITS.a_max))
                    kinds["newton"] += 1
                last = u, g
    assert min(kinds.values()) > 0 and kinds["newton"] > kinds["bb"]


class QuadraticProblem:
    """Batch rows with the objective sum(c * U**2) / 2 and a record of the
    plan alone: row
    k's curvature c[k] has the plan's shape, so the Barzilai-Borwein scale of
    a move s is s.s / (c s).s."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)
        self.limits, self.params = LIMITS, PARAMS

    def rows(self, keep):
        return QuadraticProblem(self.c[keep])

    def evaluate(self, U):
        J = 0.5 * (self.c * U * U).reshape(len(U), -1).sum(axis=1)
        return J, (U,)

    def search_direction(self, U, record):
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

    def search_direction(self, U, record):
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


class ShiftedQuadratic(QuadraticProblem):
    """Quadratic rows raised by a constant each: row k's objective is
    offset[k] + sum(c[k] * U**2) / 2, and its gradient c[k] * U."""

    def __init__(self, c, offset):
        super().__init__(c)
        self.offset = np.asarray(offset, dtype=float)

    def rows(self, keep):
        return ShiftedQuadratic(self.c[keep], self.offset[keep])

    def evaluate(self, U):
        J, record = super().evaluate(U)
        return self.offset + J, record


def solve_alone(problem, warm, i):
    """Row i of problem solved alone from warm[i]: its plan, converged flag
    and iterations."""
    U, converged, iterations = _solve_batch(
        problem.rows(np.arange(len(warm)) == i), warm[i : i + 1]
    )
    return U[0], bool(converged[0]), iterations


def test_rows_stop_below_their_objective_resolution():
    # each row's unit step starts above GRAD_TOL, every component at 1e-5
    # (1e-3 in row 1), over six curvatures.  At J near 2**20 the resolution
    # bound on the squared unit step is 256 * 2**-32, about (2.4e-4)**2:
    # row 0 stops before any search, and row 1 searches until its unit step
    # is below 2.4e-4.  Rows 2 and 3 have J near 0 and 1e-3, where the
    # bound is below GRAD_TOL**2, so they stop where the absolute test does
    c = np.broadcast_to([[1.0, 0.8], [0.6, 0.45], [0.3, 0.2]], (4, 3, 2))
    warm = 1e-5 / c
    warm[1] *= 100.0
    offset = [2.0**20, 2.0**20, 0.0, 1e-3]
    problem = ShiftedQuadratic(c, offset)
    unit_sq = ((c * warm) ** 2).reshape(4, -1).sum(axis=1)
    bound = RESOLUTION * 2.0**-52 * problem.evaluate(warm)[0]
    assert (np.sqrt(unit_sq) > GRAD_TOL).all()
    assert (unit_sq <= bound).tolist() == [True, False, False, False]
    plan, converged, iterations = solve_alone(problem, warm, 0)
    assert converged and iterations == 0 and same_bits(plan, warm[0])
    with mock.patch.object(mpc, "RESOLUTION", 0):
        absolute = [solve_alone(problem, warm, i) for i in range(4)]
    assert absolute[0][2] > 0
    for i in (1, 2, 3):
        plan, converged, iterations = solve_alone(problem, warm, i)
        assert converged and iterations > 0
        got_unit = np.sqrt(((c[i] * plan) ** 2).sum())
        if i == 1:
            # stopped below the resolution bound, before the absolute test
            assert GRAD_TOL < got_unit and got_unit**2 <= bound[1]
            assert iterations < absolute[i][2]
        else:
            assert got_unit <= GRAD_TOL
            assert same_bits(plan, absolute[i][0]) and iterations == absolute[i][2]


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


def test_single_distributed_solver_error_names_its_agent():
    # agent 2 sits 0.5 from agent 0, so its step-1 separation cost overflows
    # at omega = 1e308; its solve is row 0 of a batch, named by its agent
    view = config([[0, 0], [5, 0], [0.5, 0]])
    with pytest.raises(SolverError, match="at the initial point") as info:
        solve_mpc("df_distributed", view, MpcParams(omega=1e308), LIMITS, agent=2)
    assert info.value.diagnostics["agents"].tolist() == [2]


@pytest.mark.parametrize(
    "pos, omega, message",
    [
        # a pair 1e-7 apart: its step-1 separation cost overflows
        (
            [[0, 0], [1e-7, 0], [3, 0]],
            1e300,
            "non-finite MPC objective at the initial point",
        ),
        # a pair 4 apart: its cost is finite and its separation gradient overflows
        ([[0, 0], [4, 0], [40, 40]], 1e308, "non-finite MPC gradient"),
    ],
)
@pytest.mark.parametrize(
    "tag, agent", [("df_distributed", 0), ("df_distributed", 1), ("df_centralized", None)]
)
def test_objective_gradient_raises_where_the_solver_does(tag, agent, pos, omega, message):
    # the gradient of a zero plan fails, unwarned, with the error a solve
    # from that plan raises: its message, and its diagnostics bit for bit,
    # naming the agent of a distributed solve and row 0 of a centralized one
    view, params = config(pos), MpcParams(omega=omega)
    shape = (3, 2) if agent is not None else (3, 3, 2)
    errors = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: mpc_objective_gradient(
                tag, view, np.zeros(shape), params, LIMITS, agent
            ),
            lambda: solve_mpc(tag, view, params, LIMITS, agent=agent),
        ):
            with pytest.raises(SolverError, match=f"^{message}$") as info:
                call()
            errors.append(info.value.diagnostics)
    got, expected = errors
    assert got["agents"].tolist() == [0 if agent is None else agent]
    assert got.keys() == expected.keys()
    assert all(same_bits(got[key], expected[key]) for key in got)


def test_solver_error_names_batch_rows_after_rows_have_left(np_rng):
    # staggered batch: agents 0, 1 and 5 converge at the first check and
    # leave the live state, and 2-4 take three Newton steps each; a NaN
    # probe of agent 4 or of agent 2 in its third line search must be named
    # by its batch row, not by its place among the live rows.  In a noisy
    # closed-loop batch, a NaN probe at a later halving of a search, where
    # other rows have left, must be named too
    problem, warm, _, _ = staggered_batch(np_rng)
    _, iterations, _, _, accepted = sequential_solve(problem, warm)
    assert iterations.tolist() == [0, 0, 3, 3, 3, 0]
    cases = [(problem, warm, 4, 2, 0), (problem, warm, 2, 2, 0)]
    problem, warm = captured_solves("df_distributed", mix_seed(1, 0), 15, level=10)[14]
    _, iterations, _, _, accepted = sequential_solve(problem, warm)
    # row 6's fourth search accepts its second probe; other rows have left
    assert accepted[6][3] == 1 and (iterations <= 3).any()
    cases.append((problem, warm, 6, 3, 1))
    for problem, warm, i, k, h in cases:
        wrapped = TrappedProblem.wrap(problem, len(warm), {i: [()] * k + [(h,)]})
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
    # and a centralized tag
    with pytest.raises(ValueError):
        solve_mpc_distributed_all("df_centralized", views, views, PARAMS, LIMITS)


@pytest.mark.parametrize("tag", DISTRIBUTED_MPC_TAGS)
def test_distributed_agent_index_validated(tag):
    cfg = config([[0, 0], [3, 0], [5, 1]])
    u = np.zeros((3, 2))
    for agent in (-1, cfg.n):
        with pytest.raises(IndexError):
            solve_mpc(tag, cfg, PARAMS, LIMITS, agent=agent)
        with pytest.raises(IndexError):
            mpc_objective_gradient(tag, cfg, u, PARAMS, LIMITS, agent=agent)
    # an agent that is not an integer is rejected, not truncated to agent 1
    for agent in (1.7, 1.0, "1", np.float64(1.9), True, np.True_):
        with pytest.raises(TypeError):
            solve_mpc(tag, cfg, PARAMS, LIMITS, agent=agent)
        with pytest.raises(TypeError):
            mpc_objective_gradient(
                tag, cfg, u, PARAMS, LIMITS, agent=agent, neighbor_set={0}
            )
        with pytest.raises(TypeError):
            mpc_objective(tag, [cfg, cfg], u[:1], PARAMS, agent=agent, neighbor_set={0})
        with pytest.raises(TypeError):
            rollout_distributed(agent, cfg, u, {0}, LIMITS)
    # a numpy integer is an index like any other
    assert np.array_equal(
        solve_mpc(tag, cfg, PARAMS, LIMITS, agent=np.int64(1)).controls,
        solve_mpc(tag, cfg, PARAMS, LIMITS, agent=1).controls,
    )
    # the last agent by its valid index still solves
    assert np.isfinite(solve_mpc(tag, cfg, PARAMS, LIMITS, agent=cfg.n - 1).accel).all()
    # and a distributed solve needs an agent
    with pytest.raises(ValueError):
        solve_mpc(tag, cfg, PARAMS, LIMITS)


@pytest.mark.parametrize("tag", CENTRALIZED_MPC_TAGS)
@pytest.mark.parametrize(
    "given",
    [dict(agent=7), dict(agent=True, neighbor_set=[9]), dict(agent=-4), dict(neighbor_set=[])],
)
def test_centralized_entry_points_reject_an_agent_or_a_neighbor_set(tag, given):
    # a centralized tag plans every agent: a given agent or neighbor set is
    # an error, not something silently ignored
    cfg = config([[0, 0], [3, 0], [0, 4]])
    traj, u = [cfg] * 4, np.zeros((3, 3, 2))
    calls = [
        lambda: mpc_objective(tag, traj, u, PARAMS, **given),
        lambda: mpc_objective_gradient(tag, cfg, u, PARAMS, LIMITS, **given),
    ]
    if "neighbor_set" not in given:
        calls.append(lambda: solve_mpc(tag, cfg, PARAMS, LIMITS, **given))
    for call in calls:
        with pytest.raises(ValueError, match=f"^{tag} plans every agent: it takes no agent"):
            call()


def test_unknown_tag_rejected():
    cfg = config([[0, 0]])
    u = np.zeros((3, 1, 2))
    calls = (
        lambda: solve_mpc("boids", cfg, PARAMS, LIMITS),
        lambda: mpc_objective("boids", [cfg] * 4, u, PARAMS),
        lambda: mpc_objective_gradient("boids", cfg, u, PARAMS, LIMITS),
        lambda: solve_mpc_distributed_all(
            "boids", cfg.positions[None], cfg.velocities[None], PARAMS, LIMITS
        ),
    )
    for call in calls:
        with pytest.raises(ValueError, match="'boids'"):
            call()
