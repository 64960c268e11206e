"""
Receding-horizon (MPC) flocking controllers.

Four models share one machinery: a finite-horizon double-integrator rollout,
a per-configuration stage cost, and one projected-gradient-descent loop over
the horizon's accelerations.  A stage cost weights a sum of edge terms
phi(dist) over neighbor edges, dist floored at EPS_DIST, and may add a
cohesion term.  Each family is stated once, as a `_PairCost` that both its
centralized and its distributed kernels read, with the slope
weight * phi'(dist) / dist, 0 below EPS_DIST, for the gradients:

  - lattice_centralized / lattice_distributed: phi = (dist - d)^2, weight 1,
    slope 2 (dist - d) / dist; no cohesion.
  - df_centralized / df_distributed ("declarative flocking"): phi =
    1 / dist^2 (separation), weight omega, slope -2 omega / (dist^2)^2, plus
    the mean squared distance (cohesion); no target geometry.

Centralized models optimize all agents' accelerations against one shared
noisy measurement, recomputing the neighbor edge set at every predicted
step; their edge sums run over ordered pairs, so a pair inside r counts
twice and its gradient coefficient is twice the slope.  Distributed models
optimize a single agent against its own noisy view, freezing its neighbor
set at the current step and extrapolating neighbors at constant sensed
velocity; a row's cohesion is the mean over its N neighbors, with
coefficient 2 / N.  A batch of distributed problems takes the views stacked
as (B, n, m) arrays and its edges from one (B, n) neighbor mask.

Every solve runs the same projected-gradient loop, `_solve_batch`, over a
problem of independent rows that converge and stop row by row; it keeps one
state per row and evaluates only the rows still in play.  Both problem types
hold R rows, each from its own initial state, and a row alone has the same
bits as in any batch: a centralized row plans every agent, (T, n, m), from
one measurement, and a distributed row one agent, (T, m), from its own view.
A problem's `rows(keep)` is the sub-problem of the rows a boolean mask
keeps, in their order; as rows leave, the solver narrows the problem it
holds with the mask it applies to its row state.
`solve_mpc` solves one row and returns one `SolveResult` (plan,
accepted-objective trace, iterations, converged); a distributed step solves
n rows and returns every agent's plan.  Each row moves along minus its
projected gradient P and takes Armijo backtracking steps, accepting the
first of the steps a, a/2, a/4, ... that passes.  The scale a is 1 in the
first line search of every solve, warm-started or not, and after that the
row's Barzilai-Borwein step s.s / s.y from its last accepted move s and the
change y in P along it (Barzilai & Borwein 1988), clipped to
[2**-10, 2**10], or 2**10 where s.y <= 0; a centralized row's a is also at
most its step cap.  The rows still searching probe the same halving in
lockstep, one probe per row in one objective call per halving.  The row
projects every per-step acceleration onto the a_max ball after each
update, and stops on a projected-gradient tolerance of 1e-6 (|U - clamp(U -
P)| at unit step), when its step falls below a * 2**-40 (a stall), or after
200 iterations.

A distributed row's P is its gradient.  A centralized cost counts its edge
terms only inside r, so it jumps up wherever a predicted pair enters r, and
a centralized row treats r as a wall (gradient projection onto the active
face, Calamai & More 1987).  A pair beyond r by at most WALL_GAP at a
predicted step 2..T is held there, and so is a control saturated at a_max:
P is the gradient projected, exactly, onto the cone of directions that pull
no such pair inside r and push no such control outward.  The pair
distances' rates along -P come from a tangent pass through the rollout, the
mirror of the adjoint pass, and the row's step cap is CROSS_FRACTION times
the first-order step at which the first other pair would enter r.  A
minimum at a wall then passes the tolerance test, where the gradient alone
would keep every line search short of the wall.

Each point is rolled out once: a problem's `evaluate` returns the objective
with the rollout it computed, and the gradient at an accepted point reuses
the rollout of the probe that accepted it.  The predicted step-1 positions
x0 + dt * v0 do not depend on the controls, so both problem types price
step 1 once, when they are built: a centralized problem each row's stage,
a distributed batch each edge's cost.  An objective call prices steps
2..T alone, and no gradient takes a step-1 stage gradient.  One function,
`_pairs`, lays out every centralized pair array, the pairs i < j row-major,
for the stage values, the stage gradient and the walls alike.  Results are
feasible local minimizers; global optimality is not claimed.  Gradients are
analytic (backpropagated through the rollout, including the velocity
clamp); finite differences are used as an independent oracle in the tests.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    EPS_DIST,
    FlockConfiguration,
    MotionLimits,
    check_stacked_views,
    clamp_norm,
    sq_norm,
)
from .horizon import CROSS_FRACTION, WALL_GAP, _backprop_controls, _rollout_arrays
from .horizon import _wall_search

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
    included): None or a non-integer horizon fails with a TypeError, and
    NaN or a value out of range with a ValueError.
    """

    horizon: int = 3
    lam: float = 1.0
    r: float = 8.4
    d: float = 7.0
    omega: float = 50.0

    def __post_init__(self):
        if not operator.index(self.horizon) >= 1:
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
    """Outcome of one MPC solve: the accepted control plan, the objective
    at the start and after each accepted step, the number of iterations
    that searched for a step, and whether the projected-gradient test
    passed (a row that stops without it either stalled or hit MAX_ITER).
    A centralized solve's test projects the gradient off the walls of its
    cost, so a plan that holds a pair just beyond r passes it where the
    gradient pulls that pair in."""

    controls: np.ndarray
    objectives: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False

    @property
    def accel(self) -> np.ndarray:
        """The first-step accelerations: a view of controls[0]."""
        return self.controls[0]


class SolverError(RuntimeError):
    """Raised when the solver hits a non-finite objective or gradient.

    `diagnostics["agents"]` holds the failing batch rows: the agent indices
    of a distributed step, the rows of a centralized batch (row 0 of a
    single solve).  The objective or gradient and controls arrays hold those
    rows' values in the same order.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def _check_tag(tag: str):
    if tag not in MPC_TAGS:
        raise ValueError(f"unknown MPC model tag {tag!r}; expected one of {MPC_TAGS}")


def _check_neighbor_set(agent, neighbor_set, n) -> list:
    """agent's frozen neighbor set among n agents, sorted: IndexError for an
    agent index outside 0..n-1, TypeError for a neighbor that is not an
    integer, ValueError for one outside 0..n-1 or the agent itself (no index
    wraps around)."""
    if not 0 <= agent < n:
        raise IndexError(f"agent index {agent} out of range for n={n}")
    idx = sorted(map(operator.index, neighbor_set))
    for j in idx:
        if not 0 <= j < n or j == agent:
            raise ValueError(f"invalid neighbor index {j} for agent {agent}")
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
    """Read-only index arrays for n agents: the pairs i < j in row-major
    order, and for each ordered pair (i, j), i != j, in row-major order, the
    position of {i, j} in that list.  Cached because rebuilding pair indices
    for every stage evaluation took about a quarter of a profiled
    centralized run."""
    iu, ju = np.triu_indices(n, k=1)
    pair_of = np.zeros((n, n), dtype=np.intp)
    pair_of[iu, ju] = pair_of[ju, iu] = np.arange(iu.size)
    ordered = pair_of[~np.eye(n, dtype=bool)]
    for index in (iu, ju, ordered):
        index.flags.writeable = False
    return iu, ju, ordered


def _pairs(x):
    """The pairs i < j of every configuration in the stack x of shape
    (S, n, m), in `_pair_layout` order: their agents iu and ju, their
    differences x_i - x_j, (S, P, m), and their distances, (S, P), with
    `sq_norm`'s bits.  The stage values, the stage gradient and the walls
    all read these arrays."""
    iu, ju, _ = _pair_layout(x.shape[1])
    # np.take, unlike x[:, iu], returns C-contiguous arrays, so each row of
    # the distances sums pairwise as a lone 1-D array does
    diff = np.take(x, iu, axis=1) - np.take(x, ju, axis=1)
    return iu, ju, diff, np.sqrt(sq_norm(diff))


class _PairCost(NamedTuple):
    """One MPC family's cost of an edge at distance dist, floored at
    EPS_DIST: the term phi, the weight of the edge sum, the slope
    weight * phi' / dist, and whether a cohesion term (squared distances)
    is added to the weighted edge sum.  `phi` and `rate` (the slope) take
    the floored distance."""

    phi: Callable
    weight: float
    rate: Callable
    cohesion: bool

    def term(self, dist):
        return self.phi(np.maximum(dist, EPS_DIST))

    def slope(self, dist):
        """The slope, 0 below EPS_DIST, where the floor holds the term."""
        return np.where(dist < EPS_DIST, 0.0, self.rate(np.maximum(dist, EPS_DIST)))


def _lattice(d):
    """Lattice: (dist - d)^2, weight 1, slope 2 (dist - d) / dist; no
    cohesion."""
    return _PairCost(lambda f: (f - d) ** 2, 1.0, lambda f: 2.0 * (f - d) / f, False)


def _declarative(omega):
    """Declarative flocking: 1 / dist^2, weight omega, slope
    -2 omega / (dist^2)^2; cohesion."""
    return _PairCost(
        lambda f: 1.0 / (f * f), omega, lambda f: -2.0 * omega / ((f * f) * (f * f)),
        True,
    )


def _pair_cost(tag, params):
    """The pair cost of tag's family, with params' d or omega."""
    if tag in ("lattice_centralized", "lattice_distributed"):
        return _lattice(params.d)
    return _declarative(params.omega)


def _centralized_stage_values(cost, x, r):
    """Centralized stage cost of every configuration in the stack x of
    shape (S, n, m), as an (S,) array: `cost`'s weighted sum over the
    ordered neighbor pairs, plus the mean squared distance over all pairs
    with cohesion (then 0 for fewer than two agents).  The distances of the
    pairs i < j come from `_pairs` and are gathered for the ordered pairs.
    Each stage's edge terms are summed on their own as one row-major 1-D
    slice, and its cohesion as one contiguous row, so a stage's value has
    the same bits in any stack."""
    S, n = x.shape[:2]
    if cost.cohesion and n < 2:
        return np.zeros(S)
    dist = _pairs(x)[3]
    ordered = _pair_layout(n)[2]
    every = np.take(dist, ordered, axis=1)
    edges = np.flatnonzero(every < r)
    terms = cost.term(np.take(every, edges))  # the stages' edges, row-major
    ends = np.searchsorted(edges, np.arange(S + 1) * ordered.size)
    edge_sums = cost.weight * np.array(
        [np.add.reduce(terms[a:b]) for a, b in zip(ends[:-1], ends[1:])]
    )
    if not cost.cohesion:
        return edge_sums
    return (2.0 / (n * (n - 1))) * (dist * dist).sum(axis=1) + edge_sums


def _centralized_stage_gradient(cost, x, r, pairs=None):
    """Gradient of the centralized stage cost of every configuration in the
    stack x of shape (S, n, m) with respect to its positions, treating each
    configuration's edge set as constant.  `pairs` is `_pairs(x)`, computed
    here when not given.  A pair i < j inside r is two ordered edges, so its
    coefficient is twice the slope; it is computed once and written at
    (i, j) and (j, i) of one (S, n, n) matrix.  Each stage's coefficient row
    sums and matrix product are the ones it would get alone, so a stage's
    gradient has the same bits in any stack."""
    S, n = x.shape[:2]
    if cost.cohesion and n < 2:
        return np.zeros_like(x)
    iu, ju, _, dist = _pairs(x) if pairs is None else pairs
    coef = np.zeros((S, n, n))
    pair_coef = np.where(dist < r, 2.0 * cost.slope(dist), 0.0)
    coef[:, iu, ju] = coef[:, ju, iu] = pair_coef
    edges = coef.sum(axis=-1)[..., None] * x - coef @ x
    if not cost.cohesion:
        return edges
    c_n = 2.0 / (n * (n - 1))
    return 2.0 * c_n * (n * x - x.sum(axis=1, keepdims=True)) + edges


def _stage_cost(cost, config, r, agent=None, neighbor_set=None) -> float:
    """One configuration's stage cost: the centralized one, or with an agent
    its own over its frozen neighbor set, 0 when that set is empty (the
    weighted edge sum, plus the mean squared neighbor distance where the
    family has cohesion)."""
    if agent is None:
        return float(_centralized_stage_values(cost, config.positions[None], r)[0])
    idx = _check_neighbor_set(agent, neighbor_set, config.n)
    if not idx:
        return 0.0
    diff = config.positions[idx] - config.positions[agent]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    value = cost.weight * cost.term(dist).sum()
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
    return _stage_cost(_lattice(d), config, None, i, neighbor_set)


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
    return _stage_cost(_declarative(omega), config, None, i, neighbor_set)


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
    if tag in CENTRALIZED_MPC_TAGS:
        agent = None
    elif agent is None or neighbor_set is None:
        raise ValueError(f"{tag} needs agent index and frozen neighbor set")
    cost = _pair_cost(tag, params)
    u = np.asarray(controls, dtype=np.float64)
    stage = sum(
        _stage_cost(cost, cfg, params.r, agent, neighbor_set) for cfg in trajectory[1:]
    )
    return stage + params.lam * float((u * u).sum())


# --------------------------------------------------------------------------
# Problems of R independent rows: evaluate(U) -> (objective (R,), xs, ws),
# gradient(U, xs, ws) -> U.shape given the rollout evaluate returned for U,
# search_direction(U, xs, ws) -> (gradient, projected gradient, step cap (R,))
# from that rollout, and rows(keep) -> the sub-problem of the rows where the
# boolean mask keep (R,) is set, in their order
# --------------------------------------------------------------------------


@dataclass
class _Problem:
    """R independent rows, each one plan U[k] from the initial state x0[k],
    v0[k]: the subclass's stage costs at the predicted steps 1..T plus lam
    times the squared norm of the plan.  Rows never interact, so a row has
    the same bits alone as in any batch."""

    cost: _PairCost
    params: MpcParams
    limits: MotionLimits
    x0: np.ndarray
    v0: np.ndarray

    def evaluate(self, U):
        """Objective of each row, shape (R,), and the rollout."""
        xs, ws = _rollout_arrays(self.x0, self.v0, U, self.limits)
        penalty = (U * U).reshape(len(U), -1).sum(axis=1)
        return self._stage_sum(xs) + self.params.lam * penalty, xs, ws

    def gradient(self, U, xs, ws):
        """Analytic gradient of each row's objective, shape U.shape: step 1
        does not depend on U, so only steps 2..T take stage gradients."""
        gx = self._stage_gradient(xs[:, 1:])
        return _backprop_controls(gx, ws, U, self.limits, self.params.lam)

    def search_direction(self, U, xs, ws):
        """(G, P, cap): the gradient, the projected gradient whose negative
        a row's line search follows, and each row's largest first step.
        Here P is G and no row's step is capped."""
        G = self.gradient(U, xs, ws)
        return G, G, np.full(len(U), np.inf)


@dataclass
class _CentralizedProblem(_Problem):
    """Rows that each plan every agent, U of shape (R, T, n, m), from their
    own measurement x0[k], v0[k] of shape (n, m).  The neighbor edge set is
    re-evaluated at every predicted step.  The step-1 configurations
    x0 + dt * v0 do not depend on U and are priced once, at build time."""

    first_stage: np.ndarray  # (R,) stage cost at step 1

    def _stage_sum(self, xs):
        """Each row's stage costs summed over steps 1..T: the R * (T-1)
        configurations past step 1 go through one stage pass."""
        p, later = self.params, xs[:, 1:]
        stages = _centralized_stage_values(
            self.cost, later.reshape(-1, *later.shape[2:]), p.r
        ).reshape(later.shape[:2])
        stage = self.first_stage
        for column in stages.T:
            stage = stage + column
        return stage

    def _stage_gradient(self, later, pairs=None):
        return _centralized_stage_gradient(
            self.cost, later.reshape(-1, *later.shape[2:]), self.params.r, pairs
        ).reshape(later.shape)

    def search_direction(self, U, xs, ws):
        """(G, P, cap) with the walls seen: P is G projected so that no pair
        just beyond r is pulled in and no saturated control pushed out, and
        cap stops short of the first pair beyond the walls that would enter
        r (`_wall_search`).  The stage gradient and the walls read one
        `_pairs` pass over the pairs i < j of steps 2..T."""
        p, later = self.params, xs[:, 1:]
        pairs = _pairs(later.reshape(-1, *later.shape[2:]))
        gx = self._stage_gradient(later, pairs)
        return _wall_search(gx, U, ws, pairs, p.r, p.lam, self.limits)

    def rows(self, keep):
        """The sub-problem of the rows where the boolean mask keep is set, in
        their order."""
        return replace(
            self, x0=self.x0[keep], v0=self.v0[keep], first_stage=self.first_stage[keep]
        )


def _build_centralized_problem(tag, pos, vel, params, limits):
    """Assemble a centralized problem from stacked noisy measurements: row k
    plans every agent from pos[k] and vel[k], (n, m) each.  Step 1 of every
    row is priced here, in one stage pass."""
    cost = _pair_cost(tag, params)
    # as in _solve_batch: a non-finite cost raises SolverError, unwarned
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        first_stage = _centralized_stage_values(cost, pos + limits.dt * vel, params.r)
    return _CentralizedProblem(cost, params, limits, pos, vel, first_stage)


@dataclass
class _BatchProblem(_Problem):
    """Rows that each plan one agent, U of shape (B, T, m), from its own
    position x0[k] and velocity v0[k], (m,) each, against its frozen,
    constant-velocity neighbors."""

    src: np.ndarray  # (E,) batch row of each neighbor edge, ascending
    nbr_pos: np.ndarray  # (E, T, m) neighbor positions at steps 1..T
    edge_counts: np.ndarray  # (E, 1) neighbor count of each edge's row
    first: np.ndarray  # (E, 1) cost of each edge at step 1, priced at build

    def _stage_sum(self, xs):
        """Each edge's steps 1..T summed in order, then each row's edges."""
        diff = xs[self.src, 1:] - self.nbr_pos[:, 1:]
        later = _edge_costs(self.cost, self.edge_counts, diff)
        cost = np.concatenate((self.first, later), axis=1)
        return np.bincount(self.src, weights=cost.sum(axis=1), minlength=len(xs))

    def _stage_gradient(self, later):
        diff = later[self.src] - self.nbr_pos[:, 1:]  # (E, T-1, m)
        coef = self.cost.slope(np.sqrt(sq_norm(diff)))
        if self.cost.cohesion:
            coef = 2.0 / self.edge_counts + coef
        # one bin per entry of gx, which adds its edges in ascending order
        width = later.shape[1] * later.shape[2]
        slots = (self.src[:, None] * width + np.arange(width)).ravel()
        gx = np.bincount(slots, (coef[:, :, None] * diff).ravel(), later.size)
        return gx.reshape(later.shape).astype(np.float64, copy=False)  # int64 if E = 0

    def rows(self, keep):
        """The sub-batch of the rows where the boolean mask keep is set, in
        their order.  A kept row keeps its edges in their order, renumbered
        to its place among the kept rows: its sums accumulate as in this
        batch and its values are bit-identical."""
        edges = keep[self.src]
        return replace(
            self, x0=self.x0[keep], v0=self.v0[keep],
            src=(np.cumsum(keep) - 1)[self.src[edges]],
            nbr_pos=self.nbr_pos[edges], edge_counts=self.edge_counts[edges],
            first=self.first[edges],
        )


def _edge_costs(cost, edge_counts, diff):
    """Each edge's cost at each of its steps: diff (E, S, m) -> (E, S)."""
    dist = np.sqrt(sq_norm(diff))
    edge = cost.weight * cost.term(dist)
    if cost.cohesion:
        edge = (1.0 / edge_counts) * (dist * dist) + edge
    return edge


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
    mask = np.sqrt(sq_norm(diff)) < params.r
    for k, given in enumerate(neighbor_sets or ()):
        if given is not None:
            idx = _check_neighbor_set(agents[k], given, n)
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
    counts = np.bincount(src)
    cost, edge_counts = _pair_cost(tag, params), counts[src][:, None].astype(np.float64)
    # as in _solve_batch: a non-finite cost raises SolverError, unwarned
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        step1 = (x0 + limits.dt * v0)[src, None] - nbr_pos[:, :1]
        first = _edge_costs(cost, edge_counts, step1)
    return _BatchProblem(cost, params, limits, x0, v0, src, nbr_pos, edge_counts, first)


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


def _solve_batch(problem, warm):
    """Run projected gradient descent on the B rows of `problem` from the
    plans warm (B, T, ...), with a per-row Armijo line search; rows converge
    and stop independently.  A row plans one agent in a distributed problem
    and every agent in a centralized one.

    Returns (U, converged, iterations, trace): the final plans, each row's
    converged flag, the number of iterations in which some row searched for
    a step (the most any row took), and row 0's objective at the start and
    after each of its accepted steps.

    The live rows (neither converged nor stalled) keep their state compacted,
    one row per live row: plan, objective, projected gradient, previous point
    and the rollout `evaluate` returned with the plan, which the search
    direction reuses, so each accepted point is rolled out once.  Live row
    k's plan is written out to batch row live[k] when it converges or
    stalls.  Each search direction runs on the live rows, each line-search
    probe on those still searching, through a problem the solver narrows
    with `rows` and the mask it applies to its state.  The first probes'
    plans, objectives and rollouts become the live rows' next state as they
    are; a row that passes a later probe overwrites its own row.  Rows never
    interact, so every row computes exactly what a batch of it alone would.

    `problem.search_direction` gives each live row's gradient g, its
    projected gradient p and its step cap: p is g and the cap inf for a
    distributed row, and for a centralized row p is g projected off the
    walls (`_wall_search`).  A row has converged when its unit step
    |U - clamp(U - p)| is at most GRAD_TOL, so a minimum at a wall counts.
    Otherwise its line search tries the steps a, a/2, a/4, ... along -p,
    down to a * 2**-LAST_HALVING, and accepts the first that passes the
    Armijo test; if none does, the row stalls.  The scale a is the smaller
    of the row's cap and 1 in a row's first line search.  In each later
    one the cap bounds the Barzilai-Borwein step s.s / s.y of the row's last
    accepted move s = U_k - U_{k-1} and the change y = p_k - p_{k-1} in its
    projected gradient, clipped to [BB_SCALE_MIN, BB_SCALE_MAX], or
    BB_SCALE_MAX where s.y <= 0; where no wall holds the row, y is its
    gradient change.  The searching rows probe in lockstep: at the h-th
    halving one objective call evaluates each row still searching once, at
    its own a * 2**-h, and the rows that pass leave the search.

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
        # the plan, its objective and the rollout it came from, kept for the
        # search direction there
        U = clamp_norm(warm, a_max)
        live, live_problem = np.arange(len(U)), problem
        J, XS, WS = problem.evaluate(U)
        _check_finite(
            "non-finite MPC objective at the initial point", live, "objective", J, U
        )
        trace = [float(J[0])]
        plans = np.empty_like(U)  # a row's plan, written when it leaves
        converged = np.zeros(len(U), dtype=bool)
        U_prev = P_prev = U  # where each live row's last move started, once it has one
        iterations = 0
        for _ in range(MAX_ITER):
            grad, proj, cap = live_problem.search_direction(U, XS, WS)
            _check_finite("non-finite MPC gradient", live, "gradient", grad, U)
            cand = clamp_norm(U - proj, a_max)
            done = np.sqrt(((U - cand) ** 2).sum(axis=row_axes)) <= GRAD_TOL
            if done.any():
                converged[live[done]] = True
                if done.all():
                    break
                plans[live[done]] = U[done]
                live, U, J, XS, WS, proj, cap, U_prev, P_prev = (
                    a[~done] for a in (live, U, J, XS, WS, proj, cap, U_prev, P_prev)
                )
                live_problem = live_problem.rows(~done)
            scale = 1.0
            if iterations:
                # every live row accepted a move in the previous iteration:
                # the Barzilai-Borwein scale s.s / s.y of that move, y being
                # the change in the projected gradient
                s, y = U - U_prev, proj - P_prev
                ss, sy = (s * s).sum(axis=row_axes), (s * y).sum(axis=row_axes)
                scale = np.where(
                    sy > 0, np.clip(ss / sy, BB_SCALE_MIN, BB_SCALE_MAX), BB_SCALE_MAX
                )
            scale = np.minimum(scale, cap)
            iterations += 1
            U_prev, P_prev = U, proj
            # the searching rows' places in the live state, and their state
            ids, probe_problem = np.arange(len(live)), live_problem
            base = U, proj, scale, J
            for h in range(LAST_HALVING + 1):
                # every searching row's probe at halving h, in one call
                U_base, P_base, scale_base, J_base = base
                step = scale_base * 2.0**-h
                U_try = clamp_norm(U_base - step.reshape(per_row) * P_base, a_max)
                J_try, xs_try, ws_try = probe_problem.evaluate(U_try)
                delta = ((U_base - U_try) ** 2).sum(axis=row_axes)
                ok = J_try <= J_base - (ARMIJO_C / step) * delta
                tried = (U_try, J_try, xs_try, ws_try)
                if h == 0:
                    # the live rows' next state, row for row, is the first
                    # probe's; a row that passes a later probe takes that one
                    moved, accepted = tried, ok
                else:
                    for a, b in zip(moved, tried):
                        a[ids[ok]] = b[ok]
                    accepted[ids] = ok
                if ok.all():
                    break
                fail = ~ok
                _check_finite("non-finite MPC objective during line search",
                              live[ids[fail]], "objective", J_try[fail], U_try[fail])
                if ok.any():
                    ids, base = ids[fail], tuple(a[fail] for a in base)
                    probe_problem = probe_problem.rows(fail)
            # rows whose line search stalled make no further progress
            if not accepted.any():
                break
            U, J, XS, WS = moved
            if live[0] == 0 and accepted[0]:
                trace.append(float(J[0]))
            if not accepted.all():
                plans[live[~accepted]] = U_prev[~accepted]
                live, U, J, XS, WS, U_prev, P_prev = (
                    a[accepted] for a in (live, U, J, XS, WS, U_prev, P_prev)
                )
                live_problem = live_problem.rows(accepted)
        plans[live] = U
        return plans, converged, iterations, trace


# --------------------------------------------------------------------------
# Public solve entry points
# --------------------------------------------------------------------------


def _single_problem(tag, view, params, limits, agent, neighbor_set=None):
    """One solve as a batch of one row: every agent's plan for a
    centralized tag, `agent`'s own plan for a distributed one."""
    if tag in CENTRALIZED_MPC_TAGS:
        return _build_centralized_problem(
            tag, view.positions[None], view.velocities[None], params, limits
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
    U = np.asarray(controls, dtype=np.float64)[None]
    problem = _single_problem(tag, initial_view, params, limits, agent, neighbor_set)
    xs, ws = _rollout_arrays(problem.x0, problem.v0, U, limits)
    return problem.gradient(U, xs, ws)[0]


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
) -> SolveResult:
    """Minimize the horizon objective from one view.

    A centralized tag plans every agent: the controls are (T, n, m) and
    `.accel` is the (n, m) first step.  A distributed tag plans `agent`
    alone against its frozen, coasting neighbors: the controls are (T, m)
    and `.accel` is its (m,) first step.  `warm_start` is a full control
    sequence of that shape (projected onto the feasible set on entry);
    zeros are used when absent.
    """
    _check_tag(tag)
    problem = _single_problem(tag, initial_view, params, limits, agent)
    warm = _warm_start(warm_start, (params.horizon,) + problem.x0.shape[1:])
    U, converged, iterations, trace = _solve_batch(problem, warm[None])
    return SolveResult(
        controls=U[0],
        objectives=trace,
        iterations=iterations,
        converged=bool(converged[0]),
    )


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
    U, _, _, _ = _solve_batch(problem, warm)
    return U[:, 0].copy(), U
