"""
Receding-horizon (MPC) flocking controllers.

Four models share one machinery: a finite-horizon double-integrator rollout,
a per-configuration stage cost, and one projected-gradient-descent loop over
the horizon's accelerations.

  - lattice_centralized / lattice_distributed: stage cost penalizes the
    squared deviation of every neighbor distance from the lattice scale d.
  - df_centralized / df_distributed ("declarative flocking"): stage cost is
    mean squared pairwise distance (cohesion) plus an omega-weighted sum of
    inverse squared neighbor distances (separation); no target geometry.

`MpcParams` always carries both d and omega; each model reads the one its
cost uses.

Centralized models optimize all agents' accelerations against one shared
noisy measurement, recomputing the neighbor edge set at every predicted
step.  Distributed models optimize a single agent against its own noisy
view, freezing its neighbor set at the current step and extrapolating
neighbors at constant sensed velocity.  A batch of distributed problems
takes the views stacked as (B, n, m) arrays and its edges from one (B, n)
neighbor mask.

Edge sums follow the ordered-pair convention (each unordered neighbor pair
contributes twice) for the centralized edge-set costs.

Every solve runs the same projected-gradient loop, `_solve_batch`, over a
batch of independent plans that converge and stop row by row, and evaluates
only the rows still in play.  A centralized solve is a batch of one plan of
shape (T, n, m) covering all agents; a distributed step is a batch of n
single-agent plans of shape (T, m), and a standalone distributed solve is a
batch of one, bit-identical to its row in the full batch.  Each row takes
Armijo backtracking steps (halving from 1.0), projects every per-step
acceleration onto the a_max ball after each update, and stops on a
projected-gradient tolerance of 1e-6, when its step falls below 2**-40 (a
stall), or after 200 iterations.  Results are feasible local minimizers;
global optimality is not claimed.  Gradients are analytic (backpropagated
through the rollout, including the velocity clamp); finite differences are
used as an independent oracle in the tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    EPS_DIST,
    EPS_DIST_SQ,
    FlockConfiguration,
    MotionLimits,
    check_stacked_views,
    clamp_norm,
)

__all__ = [
    "MpcParams",
    "SolveResult",
    "SolverError",
    "MPC_TAGS",
    "CENTRALIZED_MPC_TAGS",
    "DISTRIBUTED_MPC_TAGS",
    "rollout_centralized",
    "rollout_distributed",
    "lattice_deviation_centralized",
    "lattice_deviation_distributed",
    "cost_df_centralized",
    "cost_df_distributed",
    "mpc_objective",
    "mpc_objective_gradient",
    "solve_mpc",
    "solve_mpc_distributed_all",
]

CENTRALIZED_MPC_TAGS = ("lattice_centralized", "df_centralized")
DISTRIBUTED_MPC_TAGS = ("lattice_distributed", "df_distributed")
MPC_TAGS = CENTRALIZED_MPC_TAGS + DISTRIBUTED_MPC_TAGS

GRAD_TOL = 1e-6
MAX_ITER = 200
ARMIJO_C = 1e-4
MIN_STEP = 2.0**-40


@dataclass(frozen=True)
class MpcParams:
    """Horizon length, control penalty, interaction radius and the two
    stage-cost parameters.

    d is the lattice scale (read by the lattice models) and omega the
    separation weight (read by the declarative-flocking models).  Every
    field is a required number: None fails with a TypeError, and NaN or a
    value out of range with a ValueError.
    """

    horizon: int = 3
    lam: float = 1.0
    r: float = 8.4
    d: float = 7.0
    omega: float = 50.0

    def __post_init__(self):
        if not self.horizon >= 1:
            raise ValueError("horizon must be at least 1")
        if not self.lam > 0:
            raise ValueError("control penalty lam must be positive")
        if not self.r > 0:
            raise ValueError("interaction radius must be positive")
        if not self.d > 0:
            raise ValueError("lattice scale d must be positive")
        if not self.omega > 0:
            raise ValueError("separation weight omega must be positive")


@dataclass
class SolveResult:
    """Outcome of one MPC solve."""

    accel: np.ndarray
    controls: np.ndarray
    objectives: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


class SolverError(RuntimeError):
    """Raised when the solver hits a non-finite objective or gradient.

    `diagnostics["agents"]` holds the failing batch rows (for a distributed
    step, the agent indices), and the objective or gradient and controls
    arrays hold those rows' values in the same order.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def _check_tag(tag: str):
    if tag not in MPC_TAGS:
        raise ValueError(f"unknown MPC model tag {tag!r}; expected one of {MPC_TAGS}")


# --------------------------------------------------------------------------
# Prediction rollouts
# --------------------------------------------------------------------------


def _predict(x, v, u, dt, v_max):
    """One prediction step: position uses the current velocity, then the
    velocity is updated and clamped.  Controls are applied as given (the
    solver keeps them feasible through projection)."""
    x_next = x + dt * v
    v_next = clamp_norm(v + dt * u, v_max)
    return x_next, v_next


def rollout_centralized(
    init: FlockConfiguration, controls, limits: MotionLimits
) -> list:
    """Predict all agents under the given (T, n, m) acceleration plan.

    Returns T+1 configurations, the first being the initial (noisy) view.
    """
    u = np.asarray(controls, dtype=np.float64)
    if u.ndim != 3 or u.shape[1:] != init.positions.shape:
        raise ValueError(
            f"controls must have shape (T, {init.n}, {init.dimension}),"
            f" got {u.shape}"
        )
    x, v = init.positions, init.velocities
    out = [init]
    for t in range(u.shape[0]):
        x, v = _predict(x, v, u[t], limits.dt, limits.v_max)
        out.append(FlockConfiguration(x, v))
    return out


def rollout_distributed(
    i: int,
    view: FlockConfiguration,
    controls,
    neighbor_set,
    limits: MotionLimits,
) -> list:
    """Predict agent i under its own plan with everyone else coasting.

    Agent i follows the controlled double integrator; every other agent
    advances at its sensed velocity.  `neighbor_set` is the set frozen at
    the current step; it only gates the stage cost, not the prediction.
    """
    if not 0 <= i < view.n:
        raise IndexError(f"agent index {i} out of range for n={view.n}")
    for j in neighbor_set:
        if not 0 <= j < view.n or j == i:
            raise ValueError(f"invalid neighbor index {j} for agent {i}")
    u = np.asarray(controls, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != view.dimension:
        raise ValueError(
            f"controls must have shape (T, {view.dimension}), got {u.shape}"
        )
    pos = view.positions.copy()
    vel = view.velocities.copy()
    x_i, v_i = pos[i], vel[i]
    out = [view]
    for t in range(u.shape[0]):
        pos = pos + limits.dt * vel  # constant-velocity neighbors
        x_i, v_i = _predict(
            x_i[None], v_i[None], u[t][None], limits.dt, limits.v_max
        )
        x_i, v_i = x_i[0], v_i[0]
        pos[i] = x_i
        new_vel = vel.copy()
        new_vel[i] = v_i
        vel = new_vel
        out.append(FlockConfiguration(pos, vel))
    return out


# --------------------------------------------------------------------------
# Stage costs (public, per-configuration)
# --------------------------------------------------------------------------


def _edge_mask(positions: np.ndarray, r: float):
    """Strict-inequality adjacency mask and the distance matrix."""
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    mask = dist < r
    np.fill_diagonal(mask, False)
    return mask, dist


@functools.lru_cache(maxsize=16)
def _upper_pairs(n: int):
    """Read-only index arrays of the pairs i < j among n agents; cached
    because rebuilding them for every stage evaluation took about a quarter
    of a profiled centralized run."""
    pairs = np.triu_indices(n, k=1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _centralized_stage(tag, x, r, d, omega, gradient=False):
    """Centralized stage cost at positions x (n, m) or, with gradient=True,
    its gradient with respect to x.

    Edge sums run over ordered neighbor pairs of x; the gradient treats that
    edge set as constant.  The df cost is 0 for fewer than two agents.
    """
    n = x.shape[0]
    mask, dist = _edge_mask(x, r)
    dist_f = np.maximum(dist, EPS_DIST)
    lattice = tag == "lattice_centralized"
    if not gradient:
        if lattice:
            return float(((dist_f - d) ** 2)[mask].sum())
        if n < 2:
            return 0.0
        sq = dist * dist
        cohesion = (2.0 / (n * (n - 1))) * float(sq[_upper_pairs(n)].sum())
        sq_f = np.maximum(sq, EPS_DIST_SQ)
        return cohesion + omega * float((1.0 / sq_f)[mask].sum())
    active = mask & (dist >= EPS_DIST)
    if lattice:
        coef = np.where(active, 4.0 * (dist_f - d) / dist_f, 0.0)
        return coef.sum(axis=1)[:, None] * x - coef @ x
    if n < 2:
        return np.zeros_like(x)
    c_n = 2.0 / (n * (n - 1))
    grad = 2.0 * c_n * (n * x - x.sum(axis=0))
    sq_f = dist_f * dist_f
    coef = np.where(active, -4.0 * omega / (sq_f * sq_f), 0.0)
    return grad + (coef.sum(axis=1)[:, None] * x - coef @ x)


def lattice_deviation_centralized(
    config: FlockConfiguration, r: float, d: float
) -> float:
    """Total squared deviation of neighbor distances from the scale d,
    summed over ordered pairs (each unordered pair counts twice)."""
    return _centralized_stage("lattice_centralized", config.positions, r, d, None)


def lattice_deviation_distributed(
    i: int, config: FlockConfiguration, neighbor_set, d: float
) -> float:
    """Squared deviation of agent i's frozen-neighborhood distances from d."""
    idx = sorted(neighbor_set)
    if not idx:
        return 0.0
    diff = config.positions[idx] - config.positions[i]
    dist = np.maximum(np.sqrt((diff * diff).sum(axis=-1)), EPS_DIST)
    return float(((dist - d) ** 2).sum())


def cost_df_centralized(config: FlockConfiguration, r: float, omega: float) -> float:
    """Declarative-flocking cost: mean squared distance over all pairs plus
    omega-weighted inverse squared distances over ordered neighbor pairs.

    Defined as 0 for fewer than two agents (no pairs).
    """
    return _centralized_stage("df_centralized", config.positions, r, None, omega)


def cost_df_distributed(
    i: int, config: FlockConfiguration, neighbor_set, omega: float
) -> float:
    """Per-agent declarative-flocking cost over the frozen neighbor set:
    mean squared neighbor distance plus omega-weighted inverse squared
    distances.  0 when the neighbor set is empty."""
    idx = sorted(neighbor_set)
    if not idx:
        return 0.0
    diff = config.positions[idx] - config.positions[i]
    sq = (diff * diff).sum(axis=-1)
    sq_f = np.maximum(sq, EPS_DIST_SQ)
    return float(sq.mean() + omega * (1.0 / sq_f).sum())


def _stage_cost(tag, config, params, agent=None, neighbor_set=None) -> float:
    if tag == "lattice_centralized":
        return lattice_deviation_centralized(config, params.r, params.d)
    if tag == "df_centralized":
        return cost_df_centralized(config, params.r, params.omega)
    if agent is None or neighbor_set is None:
        raise ValueError(f"{tag} needs agent index and frozen neighbor set")
    if tag == "lattice_distributed":
        return lattice_deviation_distributed(agent, config, neighbor_set, params.d)
    return cost_df_distributed(agent, config, neighbor_set, params.omega)


def mpc_objective(
    tag: str,
    trajectory,
    controls,
    params: MpcParams,
    agent: int | None = None,
    neighbor_set=None,
) -> float:
    """Full horizon objective: stage costs over predicted steps 1..T plus
    lam times the squared norm of the control sequence."""
    _check_tag(tag)
    u = np.asarray(controls, dtype=np.float64)
    stage = sum(
        _stage_cost(tag, cfg, params, agent, neighbor_set) for cfg in trajectory[1:]
    )
    return stage + params.lam * float((u * u).sum())


def _edge_stage_terms(tag, dist, edge_counts, params):
    """Per-edge stage cost and the scalar d(cost)/d(dist) for batched
    distributed problems.  dist has one row per edge."""
    dist_f = np.maximum(dist, EPS_DIST)
    active = dist >= EPS_DIST
    if tag == "lattice_distributed":
        cost = (dist_f - params.d) ** 2
        dcost = np.where(active, 2.0 * (dist_f - params.d), 0.0)
    else:  # df_distributed: (1/|N|) dist^2 + omega / dist^2
        inv_cnt = 1.0 / edge_counts
        sq = dist * dist
        sq_f = np.maximum(sq, EPS_DIST_SQ)
        cost = inv_cnt * sq + params.omega / sq_f
        dcost = 2.0 * inv_cnt * dist + np.where(
            sq >= EPS_DIST_SQ, -2.0 * params.omega / (sq_f * dist_f), 0.0
        )
    return cost, dcost


# --------------------------------------------------------------------------
# Batched rollout and backpropagation.  Arrays are (B, T, ...): one row per
# independent problem, then the predicted steps 1..T.
# --------------------------------------------------------------------------


def _rollout_arrays(x0, v0, U, limits):
    """Positions and pre-clamp velocities at steps 1..T under controls U,
    from the (B, ...) initial states x0, v0."""
    dt, v_max = limits.dt, limits.v_max
    x, v = x0, v0
    xs = np.empty_like(U)
    ws = np.empty_like(U)
    for t in range(U.shape[1]):
        x = x + dt * v
        w = v + dt * U[:, t]
        v = clamp_norm(w, v_max)
        xs[:, t] = x
        ws[:, t] = w
    return xs, ws


def _clamp_backprop(w, p, v_max):
    """Apply the (symmetric) Jacobian of the norm clamp at pre-clamp
    velocities w to the adjoint p, rowwise over the last axis."""
    norms = np.sqrt((w * w).sum(axis=-1, keepdims=True))
    over = norms > v_max
    if not over.any():
        return p
    safe = np.where(over, norms, 1.0)
    radial = (w * p).sum(axis=-1, keepdims=True) / (safe * safe)
    clamped = (v_max / safe) * (p - w * radial)
    return np.where(over, clamped, p)


def _backprop_controls(gx, W, U, limits, lam):
    """Adjoint pass: gradient of the objective w.r.t. the controls U.

    gx[:, t] is the stage gradient at predicted step t+1; W[:, t] is the
    pre-clamp velocity that produced step t+1's velocity.
    """
    dt, v_max = limits.dt, limits.v_max
    gu = np.empty_like(U)
    px = np.zeros_like(gx[:, -1])
    pv = np.zeros_like(px)
    for t in range(U.shape[1] - 1, -1, -1):
        px = px + gx[:, t]
        q = _clamp_backprop(W[:, t], pv, v_max)
        gu[:, t] = dt * q + 2.0 * lam * U[:, t]
        pv = dt * px + q
    return gu


# --------------------------------------------------------------------------
# Problems: objective(U) -> (B,) and gradient(U) -> U.shape
# --------------------------------------------------------------------------


@dataclass
class _CentralizedProblem:
    """Every agent's plan as one row, U of shape (1, T, n, m); the neighbor
    edge set is re-evaluated at every predicted step."""

    tag: str
    params: MpcParams
    limits: MotionLimits
    x0: np.ndarray  # (1, n, m) positions
    v0: np.ndarray  # (1, n, m) velocities

    def _stage(self, x, gradient=False):
        p = self.params
        return _centralized_stage(self.tag, x, p.r, p.d, p.omega, gradient)

    def objective(self, U):
        xs, _ = _rollout_arrays(self.x0, self.v0, U, self.limits)
        stage = sum(self._stage(x) for x in xs[0])
        return np.array([stage + self.params.lam * float((U * U).sum())])

    def gradient(self, U):
        xs, ws = _rollout_arrays(self.x0, self.v0, U, self.limits)
        gx = np.stack([self._stage(x, gradient=True) for x in xs[0]])[None]
        return _backprop_controls(gx, ws, U, self.limits, self.params.lam)

    def rows(self, idx):
        """A batch of one is its only sub-batch that still has rows."""
        return self


@dataclass
class _BatchProblem:
    """B independent single-agent problems; the solver evaluates only the
    rows still in play, through `rows`.

    Each row solves one agent against its frozen, constant-velocity
    neighbors; rows never interact, so a batch of one is bit-identical to
    that row inside any larger batch.
    """

    tag: str
    params: MpcParams
    limits: MotionLimits
    x0: np.ndarray  # (B, m) own positions
    v0: np.ndarray  # (B, m) own velocities
    src: np.ndarray  # (E,) batch row of each neighbor edge
    nbr_pos: np.ndarray  # (E, T, m) neighbor positions at steps 1..T
    edge_counts: np.ndarray  # (E, 1) neighbor count of each edge's row

    @property
    def size(self) -> int:
        return self.x0.shape[0]

    def _edge_dist(self, xs):
        diff = xs[self.src] - self.nbr_pos  # (E, T, m)
        return diff, np.sqrt((diff * diff).sum(axis=-1))

    def objective(self, U):
        """Per-row objective values, shape (B,)."""
        xs, _ = _rollout_arrays(self.x0, self.v0, U, self.limits)
        out = self.params.lam * (U * U).sum(axis=(1, 2))
        if self.src.size:
            _, dist = self._edge_dist(xs)
            cost, _ = _edge_stage_terms(self.tag, dist, self.edge_counts, self.params)
            out = out + np.bincount(
                self.src, weights=cost.sum(axis=1), minlength=self.size
            )
        return out

    def gradient(self, U):
        """Per-row analytic gradient, shape (B, T, m)."""
        xs, ws = _rollout_arrays(self.x0, self.v0, U, self.limits)
        gx = np.zeros_like(U)
        if self.src.size:
            diff, dist = self._edge_dist(xs)
            _, dcost = _edge_stage_terms(self.tag, dist, self.edge_counts, self.params)
            dist_f = np.maximum(dist, EPS_DIST)
            contrib = (dcost / dist_f)[:, :, None] * diff  # (E, T, m)
            np.add.at(gx, self.src, contrib)
        return _backprop_controls(gx, ws, U, self.limits, self.params.lam)

    def rows(self, idx):
        """The sub-batch of the ascending batch rows idx.  Each row keeps
        its edges in their order, so its sums accumulate as in the full
        batch and its values are bit-identical."""
        keep = np.zeros(self.size, dtype=bool)
        keep[idx] = True
        edges = keep[self.src]
        renumber = np.cumsum(keep) - 1
        return replace(
            self,
            x0=self.x0[idx],
            v0=self.v0[idx],
            src=renumber[self.src[edges]],
            nbr_pos=self.nbr_pos[edges],
            edge_counts=self.edge_counts[edges],
        )


def _build_batch_problem(
    tag, pos, vel, agents, params, limits, neighbor_sets=None
):
    """Assemble a batch problem from per-agent noisy views.

    pos[k] and vel[k], (n, m) each, are the view of agents[k].  Row k of one
    (B, n) neighbor mask holds agents[k]'s frozen neighbor set: the strict
    < r test on its own view, unless neighbor_sets[k] gives the set.  The
    edges are the mask's nonzero entries in row-major order.
    """
    agents = np.asarray(agents, dtype=np.int64)
    rows = np.arange(agents.size)
    n = pos.shape[1]
    bad = agents[(agents < 0) | (agents >= n)]
    if bad.size:
        raise IndexError(f"agent index {bad[0]} out of range for n={n}")
    x0, v0 = pos[rows, agents], vel[rows, agents]
    diff = pos - x0[:, None]
    mask = np.sqrt((diff * diff).sum(axis=-1)) < params.r
    for k, given in enumerate(neighbor_sets or ()):
        if given is not None:
            idx = np.asarray(sorted(given), dtype=np.int64)
            if idx.size and (idx.min() < 0 or idx.max() >= n or agents[k] in idx):
                raise ValueError(f"invalid neighbor set for agent {agents[k]}")
            mask[k] = False
            mask[k, idx] = True
    mask[rows, agents] = False
    src, nbr = np.nonzero(mask)
    # iterated constant-velocity extrapolation, matching the rollout
    nbr_pos = np.empty((src.size, params.horizon, pos.shape[2]))
    p, v = pos[src, nbr], vel[src, nbr]
    for t in range(params.horizon):
        p = p + limits.dt * v
        nbr_pos[:, t] = p
    counts = np.bincount(src, minlength=agents.size)
    return _BatchProblem(
        tag=tag,
        params=params,
        limits=limits,
        x0=x0,
        v0=v0,
        src=src,
        nbr_pos=nbr_pos,
        edge_counts=counts[src][:, None].astype(np.float64),
    )


# --------------------------------------------------------------------------
# Projected gradient descent
# --------------------------------------------------------------------------


def _check_finite(message, rows, name, values, controls):
    """Raise SolverError if any row of values is non-finite; rows holds the
    batch row of each row of values and controls."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = ~finite.reshape(finite.shape[0], -1).all(axis=1)
        raise SolverError(
            message,
            diagnostics={
                "agents": rows[bad],
                name: values[bad],
                "controls": controls[bad],
            },
        )


def _solve_batch(problem, warm, keep_trace=False):
    """Run projected gradient descent on the B rows of warm (B, T, ...) with
    a per-row Armijo line search; rows converge and stop independently.

    Only rows still in play are evaluated: each gradient on the live rows
    (neither converged nor stalled), each line-search probe on the live rows
    still searching, through the sub-problem `problem.rows` returns.  Rows
    never interact, so every row computes exactly what a batch of it alone
    would.

    Overflow and invalid operations are not warned about: a non-finite
    objective or gradient in a row still being solved raises SolverError.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        B = warm.shape[0]
        row_axes = tuple(range(1, warm.ndim))
        per_row = (-1,) + (1,) * (warm.ndim - 1)
        a_max = problem.limits.a_max
        U = clamp_norm(warm, a_max)
        live, live_problem = np.arange(B), problem
        J = problem.objective(U)
        _check_finite(
            "non-finite MPC objective at the initial point", live, "objective", J, U
        )
        trace = [float(J[0])] if keep_trace else None
        converged = np.zeros(B, dtype=bool)
        iterations = 0
        for _ in range(MAX_ITER):
            U_live = U[live]
            G = live_problem.gradient(U_live)
            _check_finite("non-finite MPC gradient", live, "gradient", G, U_live)
            cand = clamp_norm(U_live - G, a_max)
            done = np.sqrt(((U_live - cand) ** 2).sum(axis=row_axes)) <= GRAD_TOL
            converged[live[done]] = True
            if done.all():
                break
            iterations += 1
            if done.any():
                going = np.flatnonzero(~done)
                live, live_problem = live[going], live_problem.rows(going)
                U_live, G = U_live[going], G[going]
            accepted = np.zeros(B, dtype=bool)
            # the rows still searching: their batch rows, steps, start
            # points, directions, objectives and sub-problem
            ids, step, U_from, G_from, J_from, probe_problem = (
                live, np.ones(live.size), U_live, G, J[live], live_problem
            )
            while ids.size:
                U_try = clamp_norm(U_from - step.reshape(per_row) * G_from, a_max)
                J_try = probe_problem.objective(U_try)
                _check_finite(
                    "non-finite MPC objective during line search",
                    ids,
                    "objective",
                    J_try,
                    U_try,
                )
                delta = ((U_from - U_try) ** 2).sum(axis=row_axes)
                ok = J_try <= J_from - (ARMIJO_C / step) * delta
                if ok.any():
                    hit = ids[ok]
                    U[hit] = U_try[ok]
                    J[hit] = J_try[ok]
                    accepted[hit] = True
                step = 0.5 * step
                searching = ~ok & (step >= MIN_STEP)
                if not searching.all():
                    kept = np.flatnonzero(searching)
                    ids, step, U_from, G_from, J_from = (
                        ids[kept], step[kept], U_from[kept], G_from[kept], J_from[kept]
                    )
                    if ids.size:
                        probe_problem = probe_problem.rows(kept)
            if keep_trace and accepted[0]:
                trace.append(float(J[0]))
            # rows whose line search stalled make no further progress
            going = np.flatnonzero(accepted[live])
            if not going.size:
                break
            if going.size < live.size:
                live, live_problem = live[going], live_problem.rows(going)
        return U, J, converged, iterations, trace


# --------------------------------------------------------------------------
# Public solve entry points
# --------------------------------------------------------------------------


def _single_problem(tag, view, params, limits, agent, neighbor_set=None):
    """One solve as a batch of one row: every agent's plan for a
    centralized tag, `agent`'s own plan for a distributed one."""
    if tag in CENTRALIZED_MPC_TAGS:
        return _CentralizedProblem(
            tag, params, limits, view.positions[None], view.velocities[None]
        )
    if agent is None:
        raise ValueError(f"{tag} needs the agent index")
    return _build_batch_problem(
        tag,
        view.positions[None],
        view.velocities[None],
        [agent],
        params,
        limits,
        neighbor_sets=[neighbor_set],
    )


def mpc_objective_gradient(
    tag: str,
    initial_view: FlockConfiguration,
    controls,
    params: MpcParams,
    limits: MotionLimits,
    agent: int | None = None,
    neighbor_set=None,
) -> np.ndarray:
    """Analytic gradient of the horizon objective with respect to the
    controls, at the given initial view.  Shape matches `controls`."""
    _check_tag(tag)
    U = np.asarray(controls, dtype=np.float64)
    problem = _single_problem(tag, initial_view, params, limits, agent, neighbor_set)
    return problem.gradient(U[None])[0]


def _warm_start(warm_start, shape):
    """The given warm start as a float64 array of the given shape, or zeros
    when absent."""
    if warm_start is None:
        return np.zeros(shape)
    warm = np.asarray(warm_start, dtype=np.float64)
    if warm.shape != shape:
        raise ValueError(f"warm start must have shape {shape}, got {warm.shape}")
    return warm


def solve_mpc(
    tag: str,
    initial_view: FlockConfiguration,
    params: MpcParams,
    limits: MotionLimits,
    warm_start=None,
    agent: int | None = None,
    full_output: bool = False,
):
    """Minimize the horizon objective and return the first-step accelerations.

    Centralized tags return an (n, m) array for all agents; distributed tags
    solve for `agent` alone and return its (m,) acceleration.  `warm_start`
    is a full control sequence (projected onto the feasible set on entry);
    zeros are used when absent.  With full_output=True a SolveResult with
    the accepted-objective trace is returned instead.
    """
    _check_tag(tag)
    problem = _single_problem(tag, initial_view, params, limits, agent)
    T, m = params.horizon, initial_view.dimension
    shape = (T, initial_view.n, m) if tag in CENTRALIZED_MPC_TAGS else (T, m)
    warm = _warm_start(warm_start, shape)
    U, _, converged, iterations, trace = _solve_batch(
        problem, warm[None], keep_trace=full_output
    )
    result = SolveResult(
        accel=U[0, 0].copy(),
        controls=U[0],
        objectives=trace or [],
        iterations=iterations,
        converged=bool(converged[0]),
    )
    return result if full_output else result.accel


def solve_mpc_distributed_all(
    tag: str,
    positions,
    velocities,
    params: MpcParams,
    limits: MotionLimits,
    warm_start=None,
):
    """Solve every agent's distributed problem against the same step
    snapshot and return the stacked first-step accelerations (n, m) plus
    the full control plans (n, T, m).

    positions[i] and velocities[i] are agent i's noisy view: (n, n, m)
    arrays, as ``core.sense_local_all`` returns them.  The per-agent
    problems are independent; batching them changes nothing but the amount
    of Python overhead.
    """
    if tag not in DISTRIBUTED_MPC_TAGS:
        raise ValueError(f"{tag!r} is not a distributed MPC model")
    pos, vel = check_stacked_views(positions, velocities)
    n = pos.shape[0]
    warm = _warm_start(warm_start, (n, params.horizon, pos.shape[2]))
    problem = _build_batch_problem(tag, pos, vel, range(n), params, limits)
    U, _, _, _, _ = _solve_batch(problem, warm)
    return U[:, 0].copy(), U
