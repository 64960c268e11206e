"""
Receding-horizon (MPC) flocking controllers.

Four models share one machinery: a finite-horizon double-integrator rollout,
a per-configuration stage cost, and one projected descent loop over the
horizon's accelerations.  A stage cost weights a sum of edge terms
phi(dist) over neighbor edges, dist floored at EPS_DIST, and may add a
cohesion term.  Each family is stated once, as a `_PairCost` whose one
pricing method, `terms`, gives both its centralized and its distributed
kernels each edge's term and the slope weight * phi'(dist) / dist, 0 below
EPS_DIST, for the gradients, and the distributed kernel the edge's bend
weight * phi''(dist) - slope, the coefficient of e e^T (e the edge's unit
difference) in its Hessian, for the Hessians:

  - lattice_centralized / lattice_distributed: phi = (dist - d)^2, weight 1,
    slope 2 (dist - d) / dist, bend 2 - slope; no cohesion.
  - df_centralized / df_distributed ("declarative flocking"): phi =
    1 / dist^2 (separation), weight omega, slope -2 omega / (dist^2)^2,
    bend 8 omega / (dist^2)^2, plus the mean squared distance
    (cohesion); no target geometry.

Each public entry point resolves its tag once, through `_pair_cost`, the one
family lookup, which rejects an unknown tag; the problem builders take the
`_PairCost` it returns, and no builder reads a tag.

Centralized models optimize all agents' accelerations against one shared
noisy measurement, recomputing the neighbor edge set at every predicted
step; their edge sums run over ordered pairs, so each pair i < j inside r
is priced once and doubled, in the stage value as in its gradient
coefficient.  Distributed models optimize a single agent against its own
noisy view, freezing its neighbor set at the current step and extrapolating
neighbors at constant sensed velocity; a row's cohesion is the mean over
its N neighbors, with coefficient 2 / N.  A batch of distributed problems
reads the views through one `core.StackedViews`, at (B, n, m), and its
edges from its mask(r).

Both problem types hold R independent rows, each from its own initial
state, and a row alone has the same bits as in any batch: a centralized row
plans every agent, (T, n, m), from one measurement, and a distributed row
one agent, (T, m), from its own view.  A problem's `rows(keep)` is the
sub-problem of the rows a boolean mask keeps, in their order.  `solve_mpc`
solves one row and returns one `SolveResult` (plan, iterations,
converged); `solve_mpc_distributed_all` solves a step's n rows and returns
every agent's plan.

Every solve runs one loop, `_solve_batch`, whose docstring states its
contract: the search directions, the line search and its step scale, the
lockstep probes and the stopping rules.  A distributed row takes a
projected Newton step where its Hessian is finite and positive definite
and its rollout does not clamp (`horizon._newton_direction` states it,
with the a_max ball's curvature), and follows its gradient otherwise.  A
centralized cost counts its edge terms only inside r, so it jumps up
wherever a predicted pair enters r, and a centralized row treats r as a
wall and follows its gradient projected off it; `horizon._wall_search`
states its search direction and step cap.

The predicted step-1 positions x1 = x0 + dt * v0 do not depend on the
controls, so both problem types keep them and price step 1 once, when they
are built: a centralized problem each row's stage, a distributed batch each
edge's cost.  An objective call prices steps 2..T alone, and no gradient
takes a step-1 stage gradient.  An objective call returns a record with its
values: the rollout, which rows' velocities clamp, and what the search
direction would otherwise compute again, a centralized row's pairs with
their gradient coefficients (twice the slope inside r, 0 outside) and a
distributed row's stage gradient and stage Hessians.  One function,
`_pairs`, lays out every centralized pair array, the pairs i < j row-major,
for the stage values, the stage gradient and the walls alike.  Results are
feasible local minimizers; global optimality is not claimed.  Gradients are
analytic (backpropagated through the rollout, including the velocity
clamp), and so are the distributed Hessians; finite differences are used as
an independent oracle in the tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    EPS_DIST,
    FlockConfiguration,
    MotionLimits,
    StackedViews,
    _agent_index,
    _check_fields,
    clamp_norm,
    clamped,
    fold,
    sq_norm,
)
from .horizon import (
    _accumulate,
    _backprop_controls,
    _newton_direction,
    _rollout_arrays,
    _wall_search,
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
# A row has also converged where its squared unit step is at most RESOLUTION
# times 2**-52 times its objective: below the objective's float64 resolution
# (see `_solve_batch`).
RESOLUTION = 256
MAX_ITER = 200
ARMIJO_C = 1e-4
LAST_HALVING = 40  # a line search probes its scale times 2**-h, h <= LAST_HALVING
# Safeguards of the Barzilai-Borwein step scale: a row's line search starts
# at a scale clipped to [BB_SCALE_MIN, BB_SCALE_MAX], and at BB_SCALE_MAX
# where its last move met no positive curvature.
BB_SCALE_MIN = 2.0**-10
BB_SCALE_MAX = 2.0**10


@dataclass(frozen=True)
class MpcParams:
    """Horizon length, control penalty, interaction radius and the two
    stage-cost parameters.

    d is the lattice scale (read by the lattice models) and omega the
    separation weight (read by the declarative-flocking models).  Every
    field is a required number and horizon an integer (numpy integers
    included): None, a bool or a non-integer horizon is a TypeError, and
    NaN or a value out of range a ValueError.  lam, d and omega must be
    finite, even where the model does not read them, and r may be inf.
    """

    horizon: int = 3
    lam: float = 1.0
    r: float = 8.4
    d: float = 7.0
    omega: float = 50.0

    def __post_init__(self):
        _check_fields(self, integers=("horizon",))
        if not self.horizon >= 1:
            raise ValueError("horizon must be at least 1")
        if not 0 < self.lam < math.inf:
            raise ValueError("control penalty lam must be positive and finite")
        if not self.r > 0:
            raise ValueError("interaction radius must be positive")
        if not 0 < self.d < math.inf:
            raise ValueError("lattice scale d must be positive and finite")
        if not 0 < self.omega < math.inf:
            raise ValueError("separation weight omega must be positive and finite")


@dataclass
class SolveResult:
    """Outcome of one MPC solve: the accepted control plan, the number of
    iterations that searched for a step, and whether the convergence test of
    `_solve_batch` passed (a row that stops without it either stalled or hit
    MAX_ITER).
    A centralized solve's test projects the gradient off the walls of its
    cost, so a plan that holds a pair just beyond r passes it where the
    gradient pulls that pair in."""

    controls: np.ndarray
    iterations: int
    converged: bool

    @property
    def accel(self) -> np.ndarray:
        """The first-step accelerations: a view of controls[0]."""
        return self.controls[0]


class SolverError(RuntimeError):
    """Raised when the solver hits a non-finite objective or gradient.

    `diagnostics["agents"]` names the failing batch rows: by the agent each
    row plans in a distributed solve (the agent indices of a step, the one
    `agent` of a single solve) and by row in a centralized batch (row 0 of a
    single solve).  The objective or gradient and controls arrays hold those
    rows' values in the same order.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def _check_neighbor_set(agent, neighbor_set, n) -> list:
    """agent's frozen neighbor set among n agents, sorted: TypeError for an
    agent or a neighbor that is a bool or not an integer, IndexError for an
    agent index outside 0..n-1, ValueError for a neighbor outside 0..n-1,
    the agent itself (no index wraps around) or a neighbor listed twice."""
    agent = _agent_index(agent)
    if not 0 <= agent < n:
        raise IndexError(f"agent index {agent} out of range for n={n}")
    idx = sorted(map(_agent_index, neighbor_set))
    for k, j in enumerate(idx):
        if not 0 <= j < n or j == agent:
            raise ValueError(f"invalid neighbor index {j} for agent {agent}")
        if k and j == idx[k - 1]:
            raise ValueError(f"neighbor index {j} listed twice for agent {agent}")
    return idx


# --------------------------------------------------------------------------
# Prediction rollouts
# --------------------------------------------------------------------------


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
        # positions advance with the current velocity, then the velocity
        # takes the (unprojected) control and is clamped
        x, v = x + limits.dt * v, clamp_norm(v + limits.dt * u[t], limits.v_max)
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
    _check_neighbor_set(i, neighbor_set, view.n)
    u = np.asarray(controls, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != view.dimension:
        raise ValueError(
            f"controls must have shape (T, {view.dimension}), got {u.shape}"
        )
    pos, vel = view.positions, view.velocities
    out = [view]
    for t in range(u.shape[0]):
        pos = pos + limits.dt * vel  # everyone at their current velocity
        vel = vel.copy()
        vel[i] = clamp_norm(vel[i] + limits.dt * u[t], limits.v_max)
        out.append(FlockConfiguration(pos, vel))
    return out


# --------------------------------------------------------------------------
# Stage costs (public, per-configuration)
# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _pair_layout(n: int):
    """Read-only agent indices iu, ju of the pairs i < j of n agents, in
    row-major order, and, for each entry (i, j) of an n x n matrix in
    row-major order, the index of the pair {i, j}, or the pair count P for
    the diagonal: a row of P pair values with one zero appended gathers
    through it into the symmetric matrix with a zero diagonal.  Cached, as
    `np.triu_indices(30, 1)` takes 26 us, three times the gather it feeds in
    `_pairs` (2-core VM, numpy 2.4.6)."""
    iu, ju = np.triu_indices(n, k=1)
    gather = np.full(n * n, iu.size)
    gather[iu * n + ju] = gather[ju * n + iu] = np.arange(iu.size)
    layout = iu, ju, gather
    for index in layout:
        index.flags.writeable = False
    return layout


def _stack(a):
    """a with its first two axes merged: (R, S, ...) -> (R * S, ...)."""
    return a.reshape(a.shape[0] * a.shape[1], *a.shape[2:])


def _pairs(x):
    """The pairs i < j of every configuration in the stack x of shape
    (S, n, m), in `_pair_layout` order: their agents iu and ju, their
    differences x_i - x_j, (S, P, m), and their distances, (S, P), with
    `sq_norm`'s bits.  The stage values, the stage gradient and the walls
    all read these arrays; none of them lists a pair twice."""
    iu, ju = _pair_layout(x.shape[1])[:2]
    # take, unlike x[:, iu], returns C-contiguous arrays, so each row of the
    # distances sums pairwise as a lone 1-D array does
    diff = x.take(iu, axis=1) - x.take(ju, axis=1)
    return iu, ju, diff, np.sqrt(sq_norm(diff))


class _PairCost(NamedTuple):
    """One MPC family's cost of an edge at distance dist, floored at
    EPS_DIST: the term phi, the weight of the edge sum, the slope
    weight * phi' / dist, the bend, the radial curvature weight * phi'' less
    the slope, and whether a cohesion term (squared distances) is added to
    the weighted edge sum.  Term and slope share one value g of the floored
    distance f, `base(f)`: `phi(g)` is the term, `rate(g, f)` the slope, and
    `bend(slope)` the bend, which each family states through its slope.
    `terms`, the one pricing method, gives them from one floor and one g; a
    stage gradient or Hessian reads what its evaluation recorded."""

    base: Callable
    phi: Callable
    weight: float
    rate: Callable
    bend: Callable
    cohesion: bool

    def terms(self, dist, hessian=False):
        """(term, slope) of each distance, the slope 0 below EPS_DIST, where
        the floor holds the term.  With `hessian`, also each edge's bend, 0
        below EPS_DIST, and its floored distance f: the Hessian of its
        weighted term with respect to the agent's position is
        slope * I + bend * e e^T with e = diff / f, which no step overflows
        where the Hessian is finite."""
        f = np.maximum(dist, EPS_DIST)
        g = self.base(f)
        slope, below = self.rate(g, f), dist < EPS_DIST
        bend = self.bend(slope) if hessian else None
        if np.count_nonzero(below):
            slope = np.where(below, 0.0, slope)
            if hessian:
                bend = np.where(below, 0.0, bend)
        return (self.phi(g), slope, bend, f) if hessian else (self.phi(g), slope)


def _lattice(d):
    """Lattice: (dist - d)^2, weight 1, slope 2 (dist - d) / dist, curvature
    2, so bend 2 - slope; no cohesion.  g is dist - d."""
    return _PairCost(
        lambda f: f - d, lambda g: g**2, 1.0, lambda g, f: 2.0 * g / f,
        lambda slope: 2.0 - slope, False,
    )


def _declarative(omega):
    """Declarative flocking: 1 / dist^2, weight omega, slope
    -2 omega / (dist^2)^2, curvature 6 omega / (dist^2)^2 = -3 slope, so
    bend -4 slope; cohesion.  g is dist^2."""
    return _PairCost(
        lambda f: f * f, lambda g: 1.0 / g, omega, lambda g, f: -2.0 * omega / (g * g),
        lambda slope: -4.0 * slope, True,
    )


def _pair_cost(tag, params):
    """The pair cost of tag's family, with params' d or omega: the one place
    a tag names its family, and a ValueError for an unknown tag."""
    if tag in ("lattice_centralized", "lattice_distributed"):
        return _lattice(params.d)
    if tag in ("df_centralized", "df_distributed"):
        return _declarative(params.omega)
    raise ValueError(f"unknown MPC model tag {tag!r}; expected one of {MPC_TAGS}")


def _centralized_stage_values(cost, x, r, pairs=None):
    """Centralized stage cost of every configuration in the stack x of
    shape (S, n, m), as an (S,) array: `cost`'s weighted sum over the
    ordered neighbor pairs, each pair i < j of `_pairs` inside r priced once
    and doubled, plus the mean squared distance over all pairs with
    cohesion (then 0 for fewer than two agents).  Beside it, each pair's
    gradient coefficient, (S, P): a pair inside r is two ordered edges, so
    twice its slope, and 0 out of r.  `pairs` is `_pairs(x)`, computed here
    when not given.  Each stage's edge terms and its cohesion are summed as
    one contiguous row, so a stage's value has the same bits in any stack."""
    n = x.shape[1]
    dist = (_pairs(x) if pairs is None else pairs)[3]
    term, slope = cost.terms(dist)
    inside = dist < r
    # weight last: 2 * weight can overflow where the weighted sum does not
    edge_sums = cost.weight * (2.0 * np.where(inside, term, 0.0).sum(axis=1))
    coef = np.where(inside, 2.0 * slope, 0.0)
    if not cost.cohesion or n < 2:
        return edge_sums, coef
    return (2.0 / (n * (n - 1))) * (dist * dist).sum(axis=1) + edge_sums, coef


def _centralized_stage_gradient(cost, x, coef):
    """Gradient of the centralized stage cost of every configuration in the
    stack x of shape (S, n, m) with respect to its positions, treating each
    configuration's edge set as constant, from the pair coefficients coef,
    (S, P), that `_centralized_stage_values` returns for x.  Each pair's
    coefficient is gathered to (i, j) and (j, i) of one (S, n, n) matrix
    through `_pair_layout`'s matrix index.  Each stage's coefficient row
    sums and matrix product are the ones it would get alone, so a stage's
    gradient has the same bits in any stack."""
    S, n = x.shape[:2]
    if cost.cohesion and n < 2:
        return np.zeros_like(x)
    # each pair's coefficient, then one zero slot
    padded = np.zeros((S, coef.shape[1] + 1))
    padded[:, :-1] = coef
    # take, unlike padded[:, gather], returns a C-contiguous matrix, whose
    # row sums add in the order of a lone stage's
    coef = padded.take(_pair_layout(n)[2], axis=1).reshape(S, n, n)
    edges = coef.sum(axis=-1)[..., None] * x - coef @ x
    if not cost.cohesion:
        return edges
    c_n = 2.0 / (n * (n - 1))
    return 2.0 * c_n * (n * x - x.sum(axis=1, keepdims=True)) + edges


def _stage_cost(cost, config, r, agent=None, idx=None) -> float:
    """One configuration's stage cost: the centralized one, or with an agent
    its own over idx, its frozen neighbor set as `_check_neighbor_set`
    returns it, 0 when that set is empty (the weighted edge sum, plus the
    mean squared neighbor distance where the family has cohesion)."""
    if agent is None:
        return float(_centralized_stage_values(cost, config.positions[None], r)[0][0])
    if not idx:
        return 0.0
    diff = config.positions[idx] - config.positions[agent]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    value = cost.weight * cost.terms(dist)[0].sum()
    return float((dist * dist).mean() + value if cost.cohesion else value)


def lattice_deviation_centralized(
    config: FlockConfiguration, r: float, d: float
) -> float:
    """Total squared deviation of neighbor distances from the scale d,
    summed over ordered pairs (each unordered pair counts twice)."""
    return _stage_cost(_lattice(d), config, r)


def lattice_deviation_distributed(
    i: int, config: FlockConfiguration, neighbor_set, d: float
) -> float:
    """Squared deviation of agent i's frozen-neighborhood distances from d."""
    idx = _check_neighbor_set(i, neighbor_set, config.n)
    return _stage_cost(_lattice(d), config, None, i, idx)


def cost_df_centralized(config: FlockConfiguration, r: float, omega: float) -> float:
    """Declarative-flocking cost: mean squared distance over all pairs plus
    omega-weighted inverse squared distances over ordered neighbor pairs.

    Defined as 0 for fewer than two agents (no pairs).
    """
    return _stage_cost(_declarative(omega), config, r)


def cost_df_distributed(
    i: int, config: FlockConfiguration, neighbor_set, omega: float
) -> float:
    """Per-agent declarative-flocking cost over the frozen neighbor set:
    mean squared neighbor distance plus omega-weighted inverse squared
    distances.  0 when the neighbor set is empty."""
    idx = _check_neighbor_set(i, neighbor_set, config.n)
    return _stage_cost(_declarative(omega), config, None, i, idx)


def _centralized(tag, agent, neighbor_set):
    """Whether the known tag is centralized; a ValueError naming it where a
    centralized tag, which plans every agent, is given an agent or a
    neighbor set."""
    if tag not in CENTRALIZED_MPC_TAGS:
        return False
    if agent is not None or neighbor_set is not None:
        raise ValueError(
            f"{tag} plans every agent: it takes no agent or neighbor set"
        )
    return True


def mpc_objective(
    tag: str,
    trajectory,
    controls,
    params: MpcParams,
    agent: int | None = None,
    neighbor_set=None,
) -> float:
    """Full horizon objective: stage costs over predicted steps 1..T plus
    lam times the squared norm of the control sequence.  The trajectory
    holds the T+1 configurations of a T-step plan, the initial one first,
    and the plan has the shape `solve_mpc` returns for the tag: (T, n, m)
    centralized, (T, m) distributed, n and m those of trajectory[0]."""
    cost = _pair_cost(tag, params)
    centralized = _centralized(tag, agent, neighbor_set)
    if not centralized and (agent is None or neighbor_set is None):
        raise ValueError(f"{tag} needs agent index and frozen neighbor set")
    u = np.asarray(controls, dtype=np.float64)
    if len(trajectory) != len(u) + 1:
        raise ValueError(
            f"a {len(u)}-step plan needs {len(u) + 1} configurations,"
            f" got {len(trajectory)}"
        )
    n, m = trajectory[0].positions.shape
    idx = None if agent is None else _check_neighbor_set(agent, neighbor_set, n)
    shape = (len(u), n, m) if agent is None else (len(u), m)
    if u.shape != shape:
        raise ValueError(f"controls must have shape {shape}, got {u.shape}")
    stage = sum(_stage_cost(cost, cfg, params.r, agent, idx) for cfg in trajectory[1:])
    return stage + params.lam * float((u * u).sum())


# --------------------------------------------------------------------------
# Problems of R independent rows.  evaluate(U) -> (objective (R,), record):
# the record is a tuple of row-indexed arrays, the rollout `_rollout_arrays`
# returns (positions xs, pre-clamp velocities ws, clamp flags, by which the
# horizon passes pick running sums or step loops) and the stage pieces the
# objective computed on the way that the search direction reads (a
# centralized problem's pairs and their gradient coefficients, a distributed
# problem's stage gradient and stage Hessians).
# search_direction(U, record) -> (gradient, projected gradient, step cap (R,)
# or None for no cap), and for rows that may take Newton steps also their
# stage Hessians and the rows whose rollout does not clamp, reads the record
# evaluate returned for U, and is the one place a problem forms its
# gradient; rows(keep) -> the sub-problem of the rows where the boolean mask
# keep (R,) is set, in their order.  The record's rows narrow with the same
# masks.
# --------------------------------------------------------------------------


@dataclass
class _Problem:
    """R independent rows, each one plan U[k] from the initial state x0[k],
    v0[k]: the subclass's stage costs at the predicted steps 1..T plus lam
    times the squared norm of the plan.  x1[k] = x0[k] + dt * v0[k] holds
    the predicted step-1 positions, which no plan moves.  Rows never
    interact, so a row has the same bits alone as in any batch."""

    cost: _PairCost
    params: MpcParams
    limits: MotionLimits
    x0: np.ndarray
    v0: np.ndarray
    x1: np.ndarray

    def evaluate(self, U):
        """Objective of each row, shape (R,), and its record: the rollout,
        then the subclass's stage pieces."""
        xs, ws, clamps = _rollout_arrays(self.x1, self.v0, U, self.limits)
        penalty = np.add.reduce((U * U).reshape(len(U), -1), axis=1)
        stages, *pieces = self._stage_sum(xs)
        return stages + self.params.lam * penalty, (xs, ws, clamps, *pieces)


@dataclass
class _CentralizedProblem(_Problem):
    """Rows that each plan every agent, U of shape (R, T, n, m), from their
    own measurement x0[k], v0[k] of shape (n, m).  The neighbor edge set is
    re-evaluated at every predicted step.  The step-1 configurations
    x0 + dt * v0 do not depend on U and are priced once, at build time.  A
    record carries the `_pairs` differences (R, T-1, P, m) and distances
    (R, T-1, P) of steps 2..T and the pairs' gradient coefficients
    (R, T-1, P) that the stage pass returned with its values: the search
    direction forms the stage gradient and the walls from them alone."""

    first_stage: np.ndarray  # (R,) stage cost at step 1

    def _stage_sum(self, xs):
        """Each row's stage costs, `fold`ed over steps 1..T: the R * (T-1)
        configurations past step 1 go through one `_pairs` pass and one
        stage pass.  Also the pairs' differences, distances and gradient
        coefficients, per row."""
        later = xs[:, 1:]
        x, steps = _stack(later), later.shape[:2]
        _, _, diff, dist = pairs = _pairs(x)
        stages, coef = _centralized_stage_values(self.cost, x, self.params.r, pairs)
        return (
            fold((self.first_stage, *stages.reshape(steps).T)),
            *(a.reshape(steps + a.shape[1:]) for a in (diff, dist, coef)),
        )

    def search_direction(self, U, record):
        """(G, P, cap) with the walls seen: P is G projected so that no pair
        just beyond r is pulled in and no saturated control pushed out, and
        cap stops short of the first pair beyond the walls that would enter
        r (`_wall_search`).  The stage gradient at steps 2..T and the walls
        read the record's pairs i < j of those R * (T-1) configurations."""
        xs, ws, clamps, diff, dist, coef = record
        later, p = xs[:, 1:], self.params
        gx = _centralized_stage_gradient(self.cost, _stack(later), _stack(coef))
        pairs = (*_pair_layout(xs.shape[2])[:2], _stack(diff), _stack(dist))
        return _wall_search(
            gx.reshape(later.shape), U, ws, clamps, pairs, p.r, p.lam, self.limits
        )

    def rows(self, keep):
        """The sub-problem of the rows where the boolean mask keep is set, in
        their order."""
        return _CentralizedProblem(
            self.cost, self.params, self.limits, self.x0[keep], self.v0[keep],
            self.x1[keep], self.first_stage[keep],
        )


def _build_centralized_problem(cost, pos, vel, params, limits):
    """Assemble a centralized problem of the pair cost `cost` from stacked
    noisy measurements: row k plans every agent from pos[k] and vel[k],
    (n, m) each.  Step 1 of every row is priced here, in one stage pass."""
    # as in _solve_batch: a non-finite cost raises SolverError, unwarned
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x1 = pos + limits.dt * vel
        first_stage = _centralized_stage_values(cost, x1, params.r)[0]
    return _CentralizedProblem(cost, params, limits, pos, vel, x1, first_stage)


@functools.lru_cache(maxsize=16)
def _edge_offsets(horizon, m):
    """Read-only (m, T-1, 1) offsets (t+1) * m + c: the entry of component c
    at predicted step t+2 in a row's (T, m) plan."""
    offsets = np.arange(m)[:, None, None] + m * np.arange(1, horizon)[:, None]
    offsets.flags.writeable = False
    return offsets


@functools.lru_cache(maxsize=16)
def _hessian_offsets(steps, m):
    """Read-only (m, m, S, 1) offsets (s * m + i) * m + j: the entry (i, j)
    of step s's (m, m) block in a row's (S, m, m) stage Hessians."""
    i, j, t = np.ogrid[:m, :m, :steps]
    offsets = ((t * m + i) * m + j)[..., None]
    offsets.flags.writeable = False
    return offsets


@dataclass
class _BatchProblem(_Problem):
    """Rows that each plan one agent, U of shape (B, T, m), from its own
    position x0[k] and velocity v0[k], (m,) each, against its frozen,
    constant-velocity neighbors.  Each neighbor edge is priced at step 1
    when the batch is built.  An evaluation reads its neighbor's positions
    at steps 2..T, stored component-major and contiguous, (m, T-1, E), so
    that every edge array of a step is one contiguous row, and the 1 / N and
    2 / N of its row's N neighbors, the cohesion's coefficients; 2 / N is
    set from 1 / N and has the bits of 2.0 / N, as scaling by two is exact.
    A record carries the stage gradient gx at steps 2..T, (B, T-1, m), and
    the stage Hessians hx there, (B, T-1, m, m), so a search direction runs
    only the adjoint pass and the Hessian's assembly."""

    src: np.ndarray  # (E,) batch row of each neighbor edge, ascending
    nbr_later: np.ndarray  # (m, T-1, E) neighbor positions at steps 2..T
    inv_counts: np.ndarray  # (E,) 1 / N of each edge's row
    first: np.ndarray  # (E,) cost of each edge at step 1, priced at build
    two_inv_counts: np.ndarray = field(init=False, repr=False)  # (E,) 2 / N
    entries: np.ndarray = field(init=False, repr=False)  # (m, T-1, E), below
    blocks: np.ndarray = field(init=False, repr=False)  # (m, m, T-1, E), below

    def __post_init__(self):
        self.two_inv_counts = 2.0 * self.inv_counts
        # each edge's entries at steps 2..T of its row's (T, m) plan, in
        # nbr_later's layout: one take gathers the agent's positions there,
        # and one bincount adds each entry's edges, in ascending order, into
        # the stage gradient; blocks does the same for the stage Hessians'
        # (m, m) entries of each step
        m, steps = self.nbr_later.shape[:2]
        self.entries = self.src * ((steps + 1) * m) + _edge_offsets(steps + 1, m)
        self.blocks = self.src * (steps * m * m) + _hessian_offsets(steps, m)

    def _stage_sum(self, xs):
        """Each edge's steps 1..T `fold`ed, then each row's edges; the stage
        gradient gx at steps 2..T from the same edge differences and
        distances, each distance floored once for its term, slope and bend;
        and the stage Hessians hx there, each edge's
        coef * I + bend * e e^T, e = diff / f, summed per row and step."""
        diff = xs.take(self.entries) - self.nbr_later  # (m, T-1, E)
        dist = np.sqrt(fold(diff * diff))  # sq_norm's order, component-major
        term, coef, bend, f = self.cost.terms(dist, True)
        cost = fold((self.first, *_edge_costs(self.cost, self.inv_counts, dist, term)))
        if self.cost.cohesion:
            coef = self.two_inv_counts + coef
        # the gradient at steps 1..T, whose step 1 stays 0; gx is a view
        gx = np.bincount(self.entries.ravel(), (coef * diff).ravel(), xs.size)
        m, steps = diff.shape[:2]
        e = diff / f
        outer = (bend * e)[:, None] * e  # (m, m, T-1, E)
        outer.reshape(m * m, *diff.shape[1:])[:: m + 1] += coef
        hx = np.bincount(self.blocks.ravel(), outer.ravel(), len(xs) * steps * m * m)
        # int64 where E = 0
        return (
            np.bincount(self.src, weights=cost, minlength=len(xs)),
            gx.reshape(xs.shape)[:, 1:].astype(np.float64, copy=False),
            hx.reshape(len(xs), steps, m, m).astype(np.float64, copy=False),
        )

    def search_direction(self, U, record):
        """(G, G, None, hx, free): the adjoint pass from the record's stage
        gradient gives the gradient, which a distributed row follows
        uncapped; the record's stage Hessians hx give each row's Newton
        step (`horizon._newton_direction`) in the rows `free` whose rollout
        does not clamp."""
        _, ws, clamps, gx, hx = record
        G = _backprop_controls(gx, ws, U, self.limits, self.params.lam, clamps)
        return G, G, None, hx, ~clamps

    def rows(self, keep):
        """The sub-batch of the rows where the boolean mask keep is set, in
        their order.  A kept row keeps its edges in their order, renumbered
        to its place among the kept rows: its sums accumulate as in this
        batch and its values are bit-identical."""
        kept = keep.nonzero()[0]
        edges = keep.take(self.src).nonzero()[0]
        return _BatchProblem(
            self.cost, self.params, self.limits, self.x0.take(kept, axis=0),
            self.v0.take(kept, axis=0), self.x1.take(kept, axis=0),
            (keep.cumsum() - 1).take(self.src.take(edges)),
            self.nbr_later.take(edges, axis=2), self.inv_counts.take(edges),
            self.first.take(edges),
        )


def _edge_costs(cost, inv_counts, dist, term):
    """Each edge's cost at each of S steps, (S, E), from its distances and
    their terms, (S, E), and its row's 1 / N, (E,)."""
    edge = cost.weight * term
    if cost.cohesion:
        edge = inv_counts * (dist * dist) + edge
    return edge


def _build_batch_problem(cost, pos, vel, agents, params, limits, neighbor_set=None):
    """Assemble a batch problem of the pair cost `cost` from per-agent noisy
    views.

    pos[k] and vel[k], (n, m) each, are the view of agents[k], read as one
    ``core.StackedViews`` (agents None: every agent's).  Row k of its (B, n)
    ``mask(r)`` holds agents[k]'s frozen neighbor set; a given neighbor_set
    replaces row 0's.  The edges are the mask's nonzero entries in
    row-major order.
    """
    views = StackedViews(pos, vel, agents)
    mask = views.mask(params.r)
    if neighbor_set is not None:
        idx = _check_neighbor_set(views.agents[0], neighbor_set, mask.shape[1])
        mask[0] = False
        mask[0, idx] = True
    src, nbr = mask.nonzero()
    x0, v0 = views.by_observer(views.own_x), views.by_observer(views.own_v)
    # each edge's entry (nbr, src) of the (m, n, B) views, flattened per
    # component: one take per array, component-major
    m, flat = len(views.x), nbr * mask.shape[0] + src
    nbr_x = views.x.reshape(m, -1).take(flat, axis=1)
    nbr_v = views.v.reshape(m, -1).take(flat, axis=1)
    # constant-velocity extrapolation as the rollout's running sums, (m, T, E)
    nbr_pos = np.empty((m, params.horizon, src.size))
    nbr_pos[:] = (limits.dt * nbr_v)[:, None]
    _accumulate(nbr_x, nbr_pos)
    inv_counts = 1.0 / np.bincount(src).take(src)
    # as in _solve_batch: a non-finite cost raises SolverError, unwarned
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x1 = x0 + limits.dt * v0
        step1 = x1.take(src, axis=0) - nbr_pos[:, 0].T
        dist = np.sqrt(sq_norm(step1))
        first = _edge_costs(cost, inv_counts, dist, cost.terms(dist)[0])
    return _BatchProblem(
        cost, params, limits, x0, v0, x1, src, nbr_pos[:, 1:].copy(), inv_counts, first
    )


# --------------------------------------------------------------------------
# Projected gradient descent
# --------------------------------------------------------------------------


def _check_finite(message, rows, name, values, controls):
    """Raise SolverError if any row of values is non-finite; rows holds the
    batch row of each row of values and controls."""
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < finite.size:
        bad = ~finite.reshape(finite.shape[0], -1).all(axis=1)
        raise SolverError(
            message,
            diagnostics={
                "agents": rows[bad],
                name: values[bad],
                "controls": controls[bad],
            },
        )


def _narrow(problem, keep, *state):
    """`problem.rows(keep)` and the rows of each state array where the
    boolean mask keep is set, in their order."""
    kept = keep.nonzero()[0]
    return (problem.rows(keep), *(a.take(kept, axis=0) for a in state))


def _solve_batch(problem, warm):
    """Run projected descent on the B rows of `problem` from the plans warm
    (B, T, ...), with a per-row Armijo line search; rows converge and stop
    independently.  A row plans one agent in a distributed problem and every
    agent in a centralized one.

    Returns (U, converged, iterations): the final plans, each row's
    converged flag and the number of iterations in which some row searched
    for a step (the most any row took).

    The live rows (neither converged nor stalled) keep their state compacted,
    one row per live row: plan, objective, projected gradient, previous point
    and the record `evaluate` returned with the plan (its rollout, clamp
    flags and stage pieces), which the search direction reads, so each
    accepted point is rolled out and priced once.  A row leaves once its
    convergence test is done if it has converged, and after its line search,
    with the plan it had, if that stalled; live row k's plan goes to batch row
    live[k].  Every narrowing, these two and the line search's to the rows
    still searching, goes through `_narrow`.  The first probes' plans,
    objectives and records become the live rows' next state as they are; a
    row that passes a later probe overwrites its own row.  Rows never
    interact, so every row computes exactly what a batch of it alone would.

    `problem.search_direction` gives each live row's gradient g, its
    projected gradient p and its step cap: p is g and no cap (None) for a
    distributed row, and for a centralized row p is g projected off the
    walls (`horizon._wall_search`).  A row has converged when its unit step
    |U - clamp(U - p)| is at most GRAD_TOL = 1e-6, so a minimum at a wall
    counts, or when its square is at most RESOLUTION * 2**-52 * J =
    256 * 2**-52 * J, J >= 0 being the row's objective.  The decrease a unit
    step along -p predicts is about that square, so the second part stops a
    row whose predicted decrease is within 256 ulps of J: about the rounding
    of J itself, a sum of some thousand pair terms in a centralized row.
    There the Armijo test cannot tell a real decrease from rounding, and
    such a row would otherwise halve its step LAST_HALVING times per
    iteration and accept moves that leave J as it was, up to MAX_ITER.  A
    row whose objective is small keeps the absolute test.

    A row that has not converged searches along a direction d from a scale
    a.  A distributed problem also gives each row's stage Hessians; a row
    whose reduced Hessian `horizon._newton_direction` finds finite and
    positive definite, its rollout unclamped, takes its projected Newton
    step N: d = N and a = 1.  Every other row takes d = p.  Its line search
    tries the steps a, a/2, a/4, ... along -d, down to a * 2**-LAST_HALVING
    = a * 2**-40, and accepts the first that passes the Armijo test,
    J_try <= J - (ARMIJO_C / step) times the squared length of the move, so
    an accepted step never raises the objective; where that decrease rounds
    away, an accepted step can leave the objective as it was.  If no step
    passes, the row stalls.  A row still live after MAX_ITER = 200
    iterations stops unconverged.  Along p the scale a is the smaller of
    the row's cap and 1 in a row's first line search of every solve,
    warm-started or not.  In each later one the cap bounds the
    Barzilai-Borwein step s.s / s.y (Barzilai & Borwein 1988) of the row's
    last accepted move s = U_k - U_{k-1}, Newton or not, and the change
    y = p_k - p_{k-1} in its projected gradient, clipped to
    [BB_SCALE_MIN, BB_SCALE_MAX] = [2**-10, 2**10], or BB_SCALE_MAX where
    s.y <= 0; where no wall holds the row, y is its gradient change.  The
    searching rows probe in lockstep: at the h-th halving one objective
    call evaluates each row still searching once, at its own a * 2**-h,
    and the rows that pass leave the search, so no probe past a row's
    accepted step is evaluated.

    Overflow and invalid operations are not warned about: a non-finite
    objective or gradient in a row still being solved raises SolverError,
    and so does a non-finite probe, which fails the Armijo test.  The error
    names every row whose probe is non-finite in that objective call.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        row_axes = tuple(range(1, warm.ndim))
        per_row = (-1,) + (1,) * (warm.ndim - 1)
        a_max = problem.limits.a_max
        # the live rows' state, row k of each array being batch row live[k]:
        # the plan, its objective and the record it came from, kept for the
        # search direction there
        U = clamp_norm(warm, a_max)
        live, live_problem = np.arange(len(U)), problem
        J, record = problem.evaluate(U)
        _check_finite(
            "non-finite MPC objective at the initial point", live, "objective", J, U
        )
        plans = np.empty_like(U)  # a row's plan, written when it leaves
        converged = np.zeros(len(U), dtype=bool)
        iterations = 0
        for _ in range(MAX_ITER):
            grad, proj, cap, *hessian = live_problem.search_direction(U, record)
            _check_finite("non-finite MPC gradient", live, "gradient", grad, U)
            unit = U - clamped(U - proj, a_max)
            unit_sq = np.add.reduce(unit * unit, axis=row_axes)
            done = np.sqrt(unit_sq) <= GRAD_TOL
            done |= unit_sq <= RESOLUTION * 2.0**-52 * J
            n_done = np.count_nonzero(done)
            if n_done == len(done):
                converged[live] = True
                break
            if iterations:
                # every live row accepted a move in the previous iteration:
                # the Barzilai-Borwein scale s.s / s.y of that move, y being
                # the change in the projected gradient
                s, y = U - U_prev, proj - P_prev
                ss = np.add.reduce(s * s, axis=row_axes)
                sy = np.add.reduce(s * y, axis=row_axes)
                scale = np.minimum(np.maximum(ss / sy, BB_SCALE_MIN), BB_SCALE_MAX)
                curved = sy > 0
                if np.count_nonzero(curved) < len(curved):
                    scale = np.where(curved, scale, BB_SCALE_MAX)
            else:
                scale = np.ones(len(U))
            if cap is not None:
                scale = np.minimum(scale, cap)
            if n_done:
                gone = done.nonzero()[0]
                at = live.take(gone)
                converged[at] = True
                plans[at] = U.take(gone, axis=0)
                live_problem, live, U, J, grad, proj, scale, *hessian = _narrow(
                    live_problem, ~done, live, U, J, grad, proj, scale, *hessian
                )
            direction = proj
            if hessian:
                # the rows whose Hessians allow take their Newton steps from 1
                lam, limits = live_problem.params.lam, live_problem.limits
                newton, N = _newton_direction(*hessian, grad, U, lam, limits)
                scale = np.where(newton, 1.0, scale)
                direction = np.where(newton.reshape(per_row), N, proj)
            iterations += 1
            U_prev, P_prev = U, proj
            # the searching rows' places in the live state, and their state
            ids, probe_problem = np.arange(len(live)), live_problem
            base = U, direction, scale, J
            for h in range(LAST_HALVING + 1):
                # every searching row's probe at halving h, in one call
                U_base, P_base, scale_base, J_base = base
                step = scale_base * 2.0**-h
                U_try = clamped(U_base - step.reshape(per_row) * P_base, a_max)
                J_try, record_try = probe_problem.evaluate(U_try)
                move = U_base - U_try
                delta = np.add.reduce(move * move, axis=row_axes)
                ok = J_try <= J_base - (ARMIJO_C / step) * delta
                tried = (U_try, J_try, *record_try)
                if h == 0:
                    # the live rows' next state, row for row, is the first
                    # probe's; a row that passes a later probe takes that one
                    moved, accepted = tried, ok
                else:
                    passed = ok.nonzero()[0]
                    at = ids.take(passed)
                    for a, b in zip(moved, tried):
                        a[at] = b.take(passed, axis=0)
                    accepted[ids] = ok
                n_ok = np.count_nonzero(ok)
                if n_ok == len(ok):
                    break
                # every non-finite probe has failed the test above, as J >= 0
                _check_finite(
                    "non-finite MPC objective during line search",
                    live.take(ids), "objective", J_try, U_try,
                )
                if n_ok:
                    probe_problem, ids, *base = _narrow(probe_problem, ~ok, ids, *base)
            # rows whose line search stalled leave, with the plan they had
            n_accepted = np.count_nonzero(accepted)
            if not n_accepted:
                break
            if n_accepted < len(accepted):
                gone = (~accepted).nonzero()[0]
                plans[live.take(gone)] = U.take(gone, axis=0)
                live_problem, live, U_prev, P_prev, *moved = _narrow(
                    live_problem, accepted, live, U_prev, P_prev, *moved
                )
            U, J, *record = moved
        plans[live] = U
        return plans, converged, iterations


# --------------------------------------------------------------------------
# Public solve entry points
# --------------------------------------------------------------------------


def _single_problem(tag, view, params, limits, agent, neighbor_set=None):
    """One solve as a batch of one row of the tag's pair cost, and the row
    as its SolverError names it: every agent's plan, row 0, for a
    centralized tag; `agent`'s own plan, `agent`, for a distributed one,
    over neighbor_set where given and its frozen set at the view otherwise."""
    cost = _pair_cost(tag, params)
    pos, vel = view.positions[None], view.velocities[None]
    if _centralized(tag, agent, neighbor_set):
        return _build_centralized_problem(cost, pos, vel, params, limits), np.array([0])
    if agent is None:
        raise ValueError(f"{tag} needs the agent index")
    problem = _build_batch_problem(cost, pos, vel, [agent], params, limits, neighbor_set)
    return problem, np.array([agent])


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
    controls, at the given initial view.  `controls` is a plan of the shape
    `solve_mpc` returns for the same tag, and so is the gradient.  A
    non-finite objective or gradient raises `_solve_batch`'s SolverError."""
    problem, row = _single_problem(tag, initial_view, params, limits, agent, neighbor_set)
    U = _plan(controls, problem, "controls")[None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        J, record = problem.evaluate(U)
        _check_finite("non-finite MPC objective at the initial point", row, "objective", J, U)
        G = problem.search_direction(U, record)[0]
    _check_finite("non-finite MPC gradient", row, "gradient", G, U)
    return G[0]


def _plan(plan, problem, name, rows=()):
    """`plan` as a float64 array of shape rows + (T, ...), the shape of a
    plan of `problem` at its horizon T, or zeros when `plan` is None: a
    ValueError naming `name` for any other shape."""
    shape = rows + (problem.params.horizon,) + problem.x0.shape[1:]
    if plan is None:
        return np.zeros(shape)
    u = np.asarray(plan, dtype=np.float64)
    if u.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {u.shape}")
    return u


def solve_mpc(
    tag: str,
    initial_view: FlockConfiguration,
    params: MpcParams,
    limits: MotionLimits,
    warm_start=None,
    agent: int | None = None,
) -> SolveResult:
    """Minimize the horizon objective from one view.

    A centralized tag plans every agent: the controls are (T, n, m) and
    `.accel` is the (n, m) first step.  A distributed tag plans `agent`
    alone against its frozen, coasting neighbors: the controls are (T, m)
    and `.accel` is its (m,) first step.  `warm_start` is a full control
    sequence of that shape (projected onto the feasible set on entry);
    zeros are used when absent.
    """
    problem, row = _single_problem(tag, initial_view, params, limits, agent)
    warm = _plan(warm_start, problem, "warm start")
    try:
        U, converged, iterations = _solve_batch(problem, warm[None])
    except SolverError as err:
        err.diagnostics["agents"] = row
        raise
    return SolveResult(U[0], iterations, bool(converged[0]))


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

    positions[i] and velocities[i] are agent i's noisy view, (n, n, m) as
    ``core.sense_local_all`` returns them; `StackedViews` copies them
    component-major once, and the builder gathers from those copies.
    The per-agent problems are independent; batching saves Python overhead.
    """
    if tag not in DISTRIBUTED_MPC_TAGS:
        raise ValueError(f"{tag!r} is not a distributed MPC model")
    problem = _build_batch_problem(
        _pair_cost(tag, params), positions, velocities, None, params, limits
    )
    warm = _plan(warm_start, problem, "warm start", problem.x0.shape[:1])
    U, _, _ = _solve_batch(problem, warm)
    return U[:, 0].copy(), U
