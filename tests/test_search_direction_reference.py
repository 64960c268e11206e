"""The MPC search directions and evaluations against their earlier, plainer
code.

Each `reference_*` function below is the earlier version of a function that
was rewritten for speed.  Centralized: the stage gradient that scattered its
pair coefficients into a zero matrix, the walls' non-negative least squares
with no early exit, the projection that always stacked its control rows, and
the wall search with the tangent pass along -P.  Distributed: the batch
problem that stored each edge's neighbor positions at steps 1..T edge-major
with its row's neighbor count, gathered with two-axis fancy indexing,
priced term and slope from two floors, added each edge's stage Hessian
into its row with `np.add.at` and assembled each row's control Hessian block
by block, and narrowed by boolean masks, its builder, and `clamp_norm`,
which copied whatever it was given.  The
references roll out, and take their gradients and tangents, through
`conftest`'s step loops `rollout_loop`, `backprop_loop` and `forward_loop`,
which differentiate the velocity clamp through a per-step list of
Jacobians.  The rewrites must give the same bits, signed zeros included, on
the inputs here, on the search directions of closed-loop runs of both
centralized models, at the default v_max and at one that clamps, and on
every evaluation of closed-loop runs of both distributed models.
"""

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest

from flockbench import MotionLimits, MpcParams, harness, horizon, mix_seed, mpc
from flockbench.core import EPS_DIST, StackedViews, clamp_norm, clamped, fold, sq_norm
from flockbench.horizon import CROSS_FRACTION, WALL_GAP, _accumulate
from flockbench.mpc import CENTRALIZED_MPC_TAGS, DISTRIBUTED_MPC_TAGS, _pairs
from conftest import (
    backprop_loop,
    captured_solves,
    forward_loop,
    rollout_loop,
    same_bits,
)

LIMITS = MotionLimits()
PARAMS = MpcParams()  # horizon 3, lam 1, r 8.4, d 7, omega 50


@functools.lru_cache(maxsize=16)
def reference_pair_layout(n):
    iu, ju = np.triu_indices(n, k=1)
    return iu, ju, iu * n + ju, ju * n + iu


def reference_slope(cost, dist):
    f = np.maximum(dist, EPS_DIST)
    return np.where(dist < EPS_DIST, 0.0, cost.rate(cost.base(f), f))


def reference_stage_gradient(cost, x, r, pairs=None):
    S, n = x.shape[:2]
    if cost.cohesion and n < 2:
        return np.zeros_like(x)
    dist = (_pairs(x) if pairs is None else pairs)[3]
    coef = np.zeros((S, n, n))
    pair_coef = np.where(dist < r, 2.0 * reference_slope(cost, dist), 0.0)
    flat, (_, _, ij, ji) = coef.reshape(S, n * n), reference_pair_layout(n)
    flat[:, ij] = flat[:, ji] = pair_coef
    edges = coef.sum(axis=-1)[..., None] * x - coef @ x
    if not cost.cohesion:
        return edges
    c_n = 2.0 / (n * (n - 1))
    return 2.0 * c_n * (n * x - x.sum(axis=1, keepdims=True)) + edges


def reference_active_solve(K, b, on):
    idx = np.flatnonzero(on)
    sub = K[idx[:, None], idx]
    try:
        return np.linalg.solve(sub, b[idx])
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(sub, b[idx], rcond=None)[0]


def reference_nnls(K, b, tol):
    on = b > tol
    lam = np.zeros(b.size)
    lam[on] = reference_active_solve(K, b, on)
    if not (lam[on] > 0).all():
        on[:], lam[:] = False, 0.0
    for _ in range(3 * b.size):
        w = np.where(on, -np.inf, b - K @ lam)
        p = np.argmax(w)
        if not w[p] > tol:
            break
        on[p] = True
        for _ in range(b.size):
            z = np.zeros(b.size)
            z[on] = reference_active_solve(K, b, on)
            if (z[on] > 0).all():
                lam = z
                break
            ratio = np.full(b.size, np.inf)
            neg = on & (z <= 0)
            ratio[neg] = lam[neg] / (lam[neg] - z[neg])
            j = np.argmin(ratio)
            lam = lam + ratio[j] * (z - lam)
            lam[j] = 0.0
            on &= lam > 0
            lam[~on] = 0.0
    return lam


def reference_wall_projection(g, P, u, pairs, saturated):
    T, n, m = u.shape
    slots = np.flatnonzero(saturated)
    coupled = (pairs.reshape(len(pairs), T * n, m)[:, slots] != 0).any(axis=(0, 2))
    slots = slots[coupled]
    unit = u.reshape(T * n, m)[slots]
    controls = np.zeros((slots.size, T * n, m))
    controls[np.arange(slots.size), slots] = -unit / np.sqrt(sq_norm(unit, keepdims=True))
    A = np.concatenate([controls.reshape(slots.size, g.size), pairs])
    flat = g.reshape(-1)
    lam = reference_nnls(A @ A.T, A @ flat, 1e-10 * np.sqrt(flat @ flat))
    P = P.reshape(T * n, m).copy()
    P[slots] = g.reshape(T * n, m)[slots]
    return P.reshape(g.shape) - (lam @ A).reshape(g.shape)


def reference_wall_search(gx, U, W, clamps, pairs, r, lam, limits):
    R, T, n, m = U.shape
    iu, ju, diff, dist = pairs
    reach = 2.0 * limits.dt**2 * limits.a_max * T * (T - 1)
    near_stage, near_pair = np.nonzero((dist >= r) & (dist <= r + reach))
    near_dist = dist[near_stage, near_pair]
    wall = near_dist - r <= WALL_GAP
    stage, pair = near_stage[wall], near_pair[wall]
    if not stage.size:
        G, row = backprop_loop(gx, W, U, limits, lam), stage
    else:
        row, t = np.divmod(stage, T - 1)
        e = diff[stage, pair] / near_dist[wall][:, None]
        gd = np.zeros((stage.size, T - 1, n, m))
        k = np.arange(stage.size)
        gd[k, t, iu[pair]], gd[k, t, ju[pair]] = e, -e
        G = backprop_loop(
            np.concatenate([gx, gd]),
            np.concatenate([W, W[row]]),
            np.concatenate([U, np.zeros(gd.shape[:1] + U.shape[1:])]),
            limits,
            lam,
        )
        G, walls = G[:R], G[R:].reshape(stage.size, U[0].size)
        norms = np.sqrt((walls * walls).sum(axis=1))
        keep = norms > 0
        row, walls = row[keep], walls[keep] / norms[keep, None]
    sq = sq_norm(U)
    saturated = sq >= (limits.a_max * (1.0 - 1e-9)) ** 2
    radial = (U * G).sum(axis=-1)
    pushed = saturated & (radial < 0)
    P = G
    if pushed.any():
        outward = np.divide(radial, sq, out=np.zeros_like(sq), where=pushed)
        P = G - outward[..., None] * U
    if row.size:
        blocked = np.zeros(R, dtype=bool)
        blocked[row] = pushed.reshape(R, -1).any(axis=1)[row]
        blocked[row[(walls * G.reshape(R, -1)[row]).sum(axis=1) > 0]] = True
        if P is G and blocked.any():
            P = G.copy()
        for k in np.flatnonzero(blocked):
            P[k] = reference_wall_projection(
                G[k], P[k], U[k], walls[row == k], saturated[k]
            )
    cap = np.full(R, np.inf)
    if not wall.all():
        stage, pair = near_stage[~wall], near_pair[~wall]
        d = near_dist[~wall]
        xd = forward_loop(-P, W, limits).reshape(-1, n, m)
        xd_ij = xd[stage, iu[pair]] - xd[stage, ju[pair]]
        rate = (diff[stage, pair] * xd_ij).sum(axis=1)
        inverse = np.zeros(R)
        np.minimum.at(inverse, stage // (T - 1), rate / ((d - r) * d))
        np.divide(-CROSS_FRACTION, inverse, out=cap, where=inverse < 0)
    return G, P, cap


def stage_stack(np_rng, S, n):
    """S configurations of n agents in the plane, (S, n, 2), with coincident
    agents 0 and 1, agents 2 and 3 exactly r apart, agents 4 and 5 closer
    than EPS_DIST, and signed zeros among the coordinates."""
    x = np_rng.uniform(-12.0, 12.0, (S, n, 2))
    x[np_rng.random(x.shape) < 0.1] = -0.0
    if n >= 2:
        x[:, 1] = x[:, 0]
    if n >= 4:
        x[:, 2] = [-0.0, 3.0]
        x[:, 3] = [PARAMS.r, 3.0]
    if n >= 6:
        x[:, 4] = [1.5, -2.0]
        x[:, 5] = [1.5 + 0.25 * EPS_DIST, -2.0]
    return x


@pytest.mark.parametrize("tag", CENTRALIZED_MPC_TAGS)
@pytest.mark.parametrize("n", [1, 2, 6, 30])
@pytest.mark.parametrize("S", [1, 2, 3])
def test_stage_gradient_matches_the_scattered_matrix(tag, n, S, np_rng):
    cost = mpc._pair_cost(tag, PARAMS)
    x = stage_stack(np_rng, S, n)
    pairs = _pairs(x)
    dist = pairs[3]
    if n >= 6:
        # the inputs the stage stack promises: a pair at 0, at r, below EPS_DIST
        assert (dist[:, 0] == 0.0).all()
        at_r = (pairs[0] == 2) & (pairs[1] == 3)
        assert (dist[:, at_r] == PARAMS.r).all()
        below = (pairs[0] == 4) & (pairs[1] == 5)
        assert ((0.0 < dist[:, below]) & (dist[:, below] < EPS_DIST)).all()
    expected = reference_stage_gradient(cost, x, PARAMS.r)
    for coef in (
        mpc._centralized_stage_values(cost, x, PARAMS.r)[1],
        mpc._centralized_stage_values(cost, x, PARAMS.r, pairs)[1],
    ):
        assert same_bits(mpc._centralized_stage_gradient(cost, x, coef), expected)


def projection_case(np_rng, k, coupled, T=3, n=5, m=2):
    """A gradient g, its saturated controls projected on their own (P), the
    plan u, k unit wall rows that each hold two agents' slots at steps up to
    their own, and the saturation mask.  With `coupled`, some saturated
    control sits in a slot a wall row holds; otherwise none does."""
    a_max = LIMITS.a_max
    g = np_rng.normal(size=(T, n, m))
    u = np_rng.uniform(-0.5, 0.5, (T, n, m))
    pairs = np.zeros((k, T, n, m))
    for row in range(k):
        i, j = np_rng.choice(n - 1, 2, replace=False)  # agent n-1 holds no wall
        t = np_rng.integers(T)
        e = np_rng.normal(size=m)
        pairs[row, : t + 1, i], pairs[row, : t + 1, j] = e, -e
    pairs = pairs.reshape(k, T * n * m)
    pairs /= np.sqrt((pairs * pairs).sum(axis=1))[:, None]
    held = np.flatnonzero(pairs.reshape(k, T * n, m).any(axis=(0, 2)))
    free = np.setdiff1d(np.arange(T * n), held)
    slots = list(np_rng.choice(free, 2, replace=False))
    if coupled and held.size:
        slots.append(np_rng.choice(held))
    flat_u = u.reshape(T * n, m)
    for slot in slots:
        flat_u[slot] *= a_max / np.sqrt(sq_norm(flat_u[slot]))
    saturated = sq_norm(u) >= (a_max * (1.0 - 1e-9)) ** 2
    radial = (u * g).sum(axis=-1)
    pushed = saturated & (radial < 0)
    outward = np.divide(radial, sq_norm(u), out=np.zeros(radial.shape), where=pushed)
    return g, g - outward[..., None] * u, u, pairs, saturated


def test_wall_projection_and_nnls_match_the_earlier_active_set_search():
    # cones of 0-6 wall rows, with saturated controls some wall row holds and
    # without; the early exit (every constraint held at the first solve)
    # and a drop of a multiplier on the way both occur
    rng = np.random.default_rng(20261020)
    real = horizon._active_solve
    solved = []

    def spy(K, b, on):
        solved.append(real(K, b, on))
        return solved[-1]

    early, dropped, coupled_cases = 0, 0, 0
    for case in range(600):
        k, coupled = case % 7, case % 2 == 1
        g, P, u, pairs, saturated = projection_case(rng, k, coupled)
        T, n, m = u.shape
        held = pairs.reshape(k, T * n, m).any(axis=(0, 2))
        coupled_cases += bool((held & saturated.reshape(-1)).any())
        solved.clear()
        with mock.patch.object(horizon, "_active_solve", spy):
            got = horizon._wall_projection(g, P, u, pairs, saturated)
        assert same_bits(got, reference_wall_projection(g, P, u, pairs, saturated))
        early += len(solved) == 1 and solved[0].size == k > 0 and (solved[0] > 0).all()
        dropped += any((z <= 0).any() for z in solved[1:])
        # and the least squares alone, on the same kind of cone
        A = rng.normal(size=(k, 8))
        K, b = A @ A.T, A @ rng.normal(size=8)
        for tol in (1e-12, 0.5):
            assert same_bits(horizon._nnls(K, b, tol), reference_nnls(K, b, tol))
    assert early > 50 and dropped > 0 and coupled_cases > 50


def test_nnls_falls_back_to_least_squares_on_a_singular_active_set():
    # two identical unit constraints: the Gram matrix of the active set is
    # exactly singular, np.linalg.solve raises, and the minimum-norm least
    # squares multipliers still project g onto the cone
    A = np.zeros((2, 6))
    A[:, 1] = 1.0
    g = np.array([0.3, 2.0, -1.0, 0.5, 0.0, 1.5])
    real = np.linalg.lstsq
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    with mock.patch.object(np.linalg, "lstsq", spy):
        lam = horizon._nnls(A @ A.T, A @ g, 1e-12)
    assert calls == [(2, 2)]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(A @ A.T, A @ g)
    x = g - lam @ A
    assert (lam >= 0).all()
    assert (A @ x <= 1e-12).all()
    assert abs(lam @ (A @ x)) <= 1e-12
    assert same_bits(lam, reference_nnls(A @ A.T, A @ g, 1e-12))


def test_wall_search_projects_a_pushed_control_that_a_wall_holds():
    # two agents, one step apart from the plan: at step 2 agent 1 sits just
    # beyond r on agent 0's -x side, and agent 0's first control is
    # saturated.  Where -G pushes that control out but pulls no wall pair
    # in, the row is still projected onto both constraints at once, which
    # differs in its last bits from the control projected on its own
    rng = np.random.default_rng(20261022)
    params, r = MpcParams(horizon=2), PARAMS.r
    pairs = _pairs(np.array([[[0.0, 0.0], [-(r + 0.4 * WALL_GAP), 0.0]]]))
    W, clamps = np.zeros((1, 2, 2, 2)), np.zeros(1, dtype=bool)
    joint = 0
    for _ in range(200):
        U = np.zeros((1, 2, 2, 2))
        angle = rng.uniform(0.0, 2.0 * np.pi)
        U[0, 0, 0] = LIMITS.a_max * np.array([np.cos(angle), np.sin(angle)])
        U[0, 1] = rng.uniform(-0.5, 0.5, (2, 2))
        gx = rng.normal(scale=20.0, size=(1, 1, 2, 2))
        args = gx, U, W, clamps, pairs, r, params.lam, LIMITS
        got = horizon._wall_search(*args)
        for a, b in zip(got, reference_wall_search(*args)):
            assert same_bits(a, b)
        G, P, _ = got
        radial = (U[0, 0, 0] * G[0, 0, 0]).sum()
        pulled = G[0, 0, 0, 0] - G[0, 0, 1, 0] > 0  # the wall's rate along G
        alone = G[0, 0, 0] - radial / LIMITS.a_max**2 * U[0, 0, 0]
        joint += radial < 0 and not pulled and not same_bits(P[0, 0, 0], alone)
    assert joint > 0


@pytest.mark.parametrize("tag", CENTRALIZED_MPC_TAGS)
def test_wall_search_matches_the_earlier_search_on_closed_loop_runs(tag):
    # every search direction of run 0 at seed 1 (120 steps), with walls,
    # controls pushed out, projections that hold saturated controls and
    # capped steps among them
    real_search, real_projection = horizon._wall_search, horizon._wall_projection
    seen = {"calls": 0, "walls": 0, "pushed": 0, "projected": 0, "coupled": 0, "capped": 0}

    def projection_spy(g, P, u, pairs, saturated):
        T, n, m = u.shape
        held = pairs.reshape(len(pairs), T * n, m).any(axis=(0, 2))
        seen["projected"] += 1
        seen["coupled"] += bool((held & saturated.reshape(-1)).any())
        return real_projection(g, P, u, pairs, saturated)

    def search_spy(gx, U, W, clamps, pairs, r, lam, limits):
        got = real_search(gx, U, W, clamps, pairs, r, lam, limits)
        expected = reference_wall_search(gx, U, W, clamps, pairs, r, lam, limits)
        for a, b in zip(got, expected):
            assert same_bits(a, b)
        dist = pairs[3]
        seen["calls"] += 1
        seen["walls"] += bool(((dist >= r) & (dist - r <= WALL_GAP)).any())
        saturated = sq_norm(U) >= (limits.a_max * (1.0 - 1e-9)) ** 2
        seen["pushed"] += bool((saturated & ((U * got[0]).sum(axis=-1) < 0)).any())
        seen["capped"] += bool(np.isfinite(got[2]).any())
        return got

    with mock.patch.object(mpc, "_wall_search", search_spy), mock.patch.object(
        horizon, "_wall_projection", projection_spy
    ):
        solves = captured_solves(tag, mix_seed(1, 0), steps=120)
    assert len(solves) == 120
    assert seen["calls"] > 900
    assert all(count > 0 for count in seen.values()), seen


@pytest.mark.parametrize("tag", CENTRALIZED_MPC_TAGS)
def test_wall_search_matches_the_earlier_search_where_plans_clamp(tag):
    # run 0 at seed 1 for 30 steps under v_max = 1.2: the predicted
    # velocities clamp, and every search direction, rows that clamp with a
    # wall pair among them, has the bits of the per-step Jacobian list's
    real_search = horizon._wall_search
    seen = {"calls": 0, "clamped": 0, "clamped with a wall": 0}

    def search_spy(gx, U, W, clamps, pairs, r, lam, limits):
        got = real_search(gx, U, W, clamps, pairs, r, lam, limits)
        expected = reference_wall_search(gx, U, W, clamps, pairs, r, lam, limits)
        for a, b in zip(got, expected):
            assert same_bits(a, b)
        dist = pairs[3].reshape(len(U), -1)
        walls = ((dist >= r) & (dist - r <= WALL_GAP)).any(axis=1)
        seen["calls"] += 1
        seen["clamped"] += bool(clamps.any())
        seen["clamped with a wall"] += bool((clamps & walls).any())
        return got

    limits = MotionLimits(v_max=1.2)
    with mock.patch.object(mpc, "_wall_search", search_spy):
        solves = captured_solves(tag, mix_seed(1, 0), steps=30, limits=limits)
    assert len(solves) == 30
    assert all(count > 0 for count in seen.values()), seen


# --------------------------------------------------------------------------
# The distributed batch problem
# --------------------------------------------------------------------------


def reference_clamp_norm(vectors, max_norm):
    v = np.asarray(vectors, dtype=np.float64)
    norms = np.sqrt(sq_norm(v, keepdims=True))
    if not np.count_nonzero(norms > max_norm):
        return v.copy()
    return v * (max_norm / np.fmax(norms, max_norm))


class ReferencePairCost(NamedTuple):
    phi: Callable
    weight: float
    rate: Callable
    bend_of: Callable
    cohesion: bool

    def term(self, dist):
        return self.phi(np.maximum(dist, EPS_DIST))

    def slope(self, dist):
        return np.where(dist < EPS_DIST, 0.0, self.rate(np.maximum(dist, EPS_DIST)))

    def bend(self, dist):
        return np.where(dist < EPS_DIST, 0.0, self.bend_of(self.rate(np.maximum(dist, EPS_DIST))))


def reference_pair_cost(tag, params):
    if tag == "lattice_distributed":
        d = params.d
        return ReferencePairCost(
            lambda f: (f - d) ** 2, 1.0, lambda f: 2.0 * (f - d) / f, lambda s: 2.0 - s, False
        )
    omega = params.omega
    return ReferencePairCost(
        lambda f: 1.0 / (f * f), omega, lambda f: -2.0 * omega / ((f * f) * (f * f)),
        lambda s: -4.0 * s, True,
    )


def reference_control_hessian(hx, lam, dt):
    """The Hessian of each row's first T-1 controls block by block: block
    (k, l) sums a[s, k] a[s, l] hx[:, s] over the steps s in order, a[s, k]
    = dt**2 (s + 1 - k) for k <= s and 0 otherwise, and the diagonal adds
    2 lam."""
    B, S, m = hx.shape[:3]
    H = np.zeros((B, S * m, S * m))
    for k, l in itertools.product(range(S), repeat=2):
        block = None
        for s in range(S):
            a_k = dt * dt * (s + 1 - k) if k <= s else 0.0
            a_l = dt * dt * (s + 1 - l) if l <= s else 0.0
            term = (a_k * a_l) * hx[:, s]
            block = term if block is None else block + term
        H[:, k * m : (k + 1) * m, l * m : (l + 1) * m] = block
    H[:, range(S * m), range(S * m)] += 2.0 * lam
    return H


def reference_edge_costs(cost, edge_counts, dist):
    edge = cost.weight * cost.term(dist)
    if cost.cohesion:
        edge = (1.0 / edge_counts) * (dist * dist) + edge
    return edge


@dataclass
class ReferenceBatch(mpc._Problem):
    src: np.ndarray
    nbr_pos: np.ndarray
    edge_counts: np.ndarray
    first: np.ndarray

    def evaluate(self, U):
        xs, ws, clamps = rollout_loop(self.x0, self.v0, U, self.limits)
        penalty = (U * U).reshape(len(U), -1).sum(axis=1)
        stages, *pieces = self._stage_sum(xs)
        return stages + self.params.lam * penalty, (xs, ws, clamps, *pieces)

    @functools.cached_property
    def _slots(self):
        width = (self.params.horizon - 1) * self.x0.shape[1]
        return (self.src[:, None] * width + np.arange(width)).ravel()

    def _stage_sum(self, xs):
        diff = xs[self.src, 1:] - self.nbr_pos[:, 1:]
        dist = np.sqrt(sq_norm(diff))
        cost = fold((self.first, *reference_edge_costs(self.cost, self.edge_counts, dist).T))
        coef = self.cost.slope(dist)
        if self.cost.cohesion:
            coef = 2.0 / self.edge_counts + coef
        shape = (len(xs),) + diff.shape[1:]
        size = shape[0] * shape[1] * shape[2]
        gx = np.bincount(self._slots, (coef[:, :, None] * diff).ravel(), size)
        # each edge's stage Hessian coef I + bend e e^T, e = diff / f, added
        # into its row in edge order
        m = shape[2]
        e = diff / np.maximum(dist, EPS_DIST)[..., None]
        edge = self.cost.bend(dist)[..., None, None] * e[..., :, None] * e[..., None, :]
        edge[..., range(m), range(m)] += coef[..., None]
        hx = np.zeros(shape + (m,))
        np.add.at(hx, self.src, edge)
        return (
            np.bincount(self.src, weights=cost, minlength=len(xs)),
            gx.reshape(shape).astype(np.float64, copy=False),
            hx,
        )

    def search_direction(self, U, record):
        _, ws, clamps, gx, hx = record
        G = backprop_loop(gx, ws, U, self.limits, self.params.lam)
        return G, G, None, hx, ~clamps

    def rows(self, keep):
        edges = keep[self.src]
        return ReferenceBatch(
            self.cost, self.params, self.limits, self.x0[keep], self.v0[keep],
            self.x1[keep], (np.cumsum(keep) - 1)[self.src[edges]], self.nbr_pos[edges],
            self.edge_counts[edges], self.first[edges],
        )


def reference_build_batch_problem(cost, pos, vel, agents, params, limits, neighbor_set=None):
    views = StackedViews(pos, vel, agents)
    mask = views.mask(params.r)
    if neighbor_set is not None:
        idx = mpc._check_neighbor_set(views.agents[0], neighbor_set, mask.shape[1])
        mask[0] = False
        mask[0, idx] = True
    src, nbr = np.nonzero(mask)
    x0, v0 = views.by_observer(views.own_x), views.by_observer(views.own_v)
    nbr_pos = np.empty((src.size, params.horizon, len(views.x)))
    nbr_pos[:] = (limits.dt * views.v[:, nbr, src].T)[:, None]
    _accumulate(views.x[:, nbr, src].T, nbr_pos)
    edge_counts = np.bincount(src)[src][:, None].astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x1 = x0 + limits.dt * v0
        step1 = x1[src, None] - nbr_pos[:, :1]
        first = reference_edge_costs(cost, edge_counts, np.sqrt(sq_norm(step1)))[:, 0]
    return ReferenceBatch(cost, params, limits, x0, v0, x1, src, nbr_pos, edge_counts, first)


class LoggedProblem:
    """Passes every call on to a batch problem and logs, in call order, each
    evaluation's plan, objective and record and each search direction's
    gradient; its sub-problems log to the same list."""

    def __init__(self, problem, log):
        self.problem, self.log = problem, log
        self.limits, self.params = problem.limits, problem.params

    def rows(self, keep):
        return LoggedProblem(self.problem.rows(keep), self.log)

    def evaluate(self, U):
        J, record = self.problem.evaluate(U)
        self.log.append((U, J, *record))
        return J, record

    def search_direction(self, U, record):
        found = self.problem.search_direction(U, record)
        self.log.append(tuple(a for a in found if a is not None))
        return found


def assert_same_log(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert len(a) == len(b) and all(same_bits(x, y) for x, y in zip(a, b))


def both_batches(tag, pos, vel, agents, params, limits, neighbor_set=None):
    """The batch problem of the views and its reference, checked to hold the
    same edges: rows, neighbor positions at steps 2..T (the reference holds
    steps 1..T edge-major), neighbor counts and step-1 costs."""
    args = pos, vel, agents, params, limits, neighbor_set
    problem = mpc._build_batch_problem(mpc._pair_cost(tag, params), *args)
    reference = reference_build_batch_problem(reference_pair_cost(tag, params), *args)
    assert same_bits(problem.src, reference.src)
    assert same_bits(problem.nbr_later, reference.nbr_pos[:, 1:].transpose(2, 1, 0))
    assert same_bits(problem.inv_counts, 1.0 / reference.edge_counts[:, 0])
    assert same_bits(problem.two_inv_counts, 2.0 / reference.edge_counts[:, 0])
    assert same_bits(problem.first, reference.first)
    for a, b in ((problem.x0, reference.x0), (problem.v0, reference.v0)):
        assert same_bits(a, b)
    return problem, reference


def assert_batches_agree(problem, reference, U, masks=()):
    """Evaluations, stage sums and search directions with the same bits at
    the plans U, on the problems and on their sub-problems p.rows(a).rows(b)...
    for each chain of masks."""
    got, expected = problem.evaluate(U), reference.evaluate(U)
    assert same_bits(got[0], expected[0])
    assert_same_log([got[1]], [expected[1]])
    xs = got[1][0]
    assert_same_log([problem._stage_sum(xs)], [reference._stage_sum(xs)])
    G, P, cap, hx, free = problem.search_direction(U, got[1])
    reference_G, reference_P, reference_cap, *reference_hessian = reference.search_direction(
        U, expected[1]
    )
    assert same_bits(G, reference_G) and same_bits(P, reference_P)
    assert cap is reference_cap is None
    assert_same_log([(hx, free)], [reference_hessian])
    lam, dt = problem.params.lam, problem.limits.dt
    assert same_bits(horizon._control_hessian(hx, lam, dt), reference_control_hessian(hx, lam, dt))
    for chain in masks:
        sub, sub_reference, rows = problem, reference, np.arange(len(U))
        for keep in chain:
            sub, sub_reference, rows = sub.rows(keep), sub_reference.rows(keep), rows[keep]
            assert same_bits(sub.src, sub_reference.src)
            assert_batches_agree(sub, sub_reference, U[rows])


def assert_solves_agree(problem, reference, warm):
    """One solve of each, from the same warm start: the same plans, flags
    and iterations, through the same evaluations and gradients."""
    logs = [], []
    results = [
        mpc._solve_batch(LoggedProblem(p, log), warm) for p, log in zip((problem, reference), logs)
    ]
    assert_same_log(*logs)
    (U, converged, iterations), expected = results
    assert same_bits(U, expected[0]) and same_bits(converged, expected[1])
    assert iterations == expected[2]
    return len(logs[0])


@functools.lru_cache(maxsize=None)
def captured_batches(tag, level):
    """(builder arguments, warm start) of every solve of run 0 at seed 1 of
    `tag` at noise level `level`, 100 steps at n = 30."""
    builds, build = [], mpc._build_batch_problem

    def spy(*args):
        builds.append(tuple(np.array(a) if isinstance(a, np.ndarray) else a for a in args))
        return build(*args)

    seed = mix_seed(1, level * harness.LEVEL_SEED_STRIDE)
    with mock.patch.object(mpc, "_build_batch_problem", spy):
        solves = captured_solves(tag, seed, steps=100, level=level)
    assert len(builds) == len(solves) == 100
    return [(args, warm) for args, (_, warm) in zip(builds, solves)]


@pytest.mark.parametrize("level", [0, 10])
@pytest.mark.parametrize("tag", DISTRIBUTED_MPC_TAGS)
def test_distributed_solves_match_the_earlier_batch_on_closed_loop_runs(tag, level):
    # every evaluation and gradient of run 0's solves, the narrowed ones
    # included, and every plan
    rng = np.random.default_rng(level)
    calls = 0
    for k, ((cost, pos, vel, agents, params, limits), warm) in enumerate(
        captured_batches(tag, level)
    ):
        problem, reference = both_batches(tag, pos, vel, agents, params, limits)
        calls += assert_solves_agree(problem, reference, warm)
        if k % 25 == 0:
            U = clamp_norm(warm + rng.normal(scale=0.3, size=warm.shape), limits.a_max)
            n = len(U)
            masks = [(np.arange(n) % 3 > 0, np.arange(2 * n // 3) % 2 == 0)]
            assert_batches_agree(problem, reference, U, masks)
    # Newton steps take 2-5 iterations per solve, so a run's 100 solves
    # make 600-1 100 logged calls
    assert calls > 600


def close_views(np_rng, n=8, m=2):
    """Every agent's view of n agents, one row per observer, with signed
    zeros, agents 0 and 1 coincident, agents 2 and 3 closer than EPS_DIST,
    each pair at one velocity, and the last agent beyond everyone's range.
    A pair stays that close over the horizon where its agent's row plans
    zero controls."""
    pos = np_rng.uniform(-4.0, 4.0, (n, n, m))
    pos[np_rng.random(pos.shape) < 0.1] = -0.0
    pos[:, 1] = pos[:, 0]
    pos[:, 3] = pos[:, 2]
    pos[:, 3, 0] += 0.25 * EPS_DIST
    pos[:, -1] = 60.0
    vel = np_rng.uniform(-1.5, 1.5, (n, n, m))
    vel[np_rng.random(vel.shape) < 0.1] = -0.0
    vel[:, 1], vel[:, 3] = vel[:, 0], vel[:, 2]
    return pos, vel


def nested_masks(np_rng, n):
    """Chains of masks for `rows`: narrowing once, twice and three times,
    down to a row with no edge."""
    chains = [(np.arange(n) == n - 1,), (np.arange(n) % 2 == 0, np.array([True, False] * (n // 4)))]
    for _ in range(4):
        a = np_rng.random(n) < 0.7
        b = np_rng.random(a.sum()) < 0.7
        c = np_rng.random(b.sum()) < 0.7
        if c.any():
            chains.append((a, b, c))
    return chains


@pytest.mark.parametrize("v_max", [LIMITS.v_max, 2.0])
@pytest.mark.parametrize("horizon", [1, 2, 3, 5, 9])
@pytest.mark.parametrize("tag", DISTRIBUTED_MPC_TAGS)
def test_distributed_batch_matches_the_earlier_batch(tag, horizon, v_max, np_rng):
    # coincident agents and agents closer than EPS_DIST (the floored
    # distances), an agent with no neighbor, one predicted step, and at
    # v_max = 2 rollouts that clamp
    params, limits = MpcParams(horizon=horizon), MotionLimits(v_max=v_max)
    clamping = floored = 0
    for _ in range(3):
        pos, vel = close_views(np_rng)
        problem, reference = both_batches(tag, pos, vel, None, params, limits)
        assert np.count_nonzero(problem.src == 7) == 0
        U = clamp_norm(np_rng.uniform(-1.5, 1.5, (8, horizon, 2)), limits.a_max)
        U[np_rng.random(U.shape) < 0.1] = -0.0
        U[:4] = 0.0  # agents 0-3 keep their close neighbors close
        assert_batches_agree(problem, reference, U, nested_masks(np_rng, 8))
        xs, _, clamps, _, _ = problem.evaluate(U)[1]
        diff = xs.take(problem.entries) - problem.nbr_later
        floored += np.count_nonzero(np.sqrt(fold(diff * diff)) < EPS_DIST)
        clamping += np.count_nonzero(clamps)
        assert_solves_agree(problem, reference, U)
    assert (clamping > 0) == (v_max < LIMITS.v_max)
    assert (floored > 0) == (horizon > 1)


@pytest.mark.parametrize("tag", DISTRIBUTED_MPC_TAGS)
def test_edge_free_batches_match_the_earlier_batch(tag, np_rng):
    # a lone agent (n = 1) and a given empty neighbor set: no edge at all
    params = MpcParams()
    pos, vel = close_views(np_rng, n=4)
    for pos, vel, agents, neighbor_set in (
        (np.zeros((1, 1, 2)), np.ones((1, 1, 2)), None, None),
        (pos[2:3], vel[2:3], [2], ()),
    ):
        problem, reference = both_batches(tag, pos, vel, agents, params, LIMITS, neighbor_set)
        assert problem.src.size == 0 and problem.nbr_later.shape == (2, 2, 0)
        U = np_rng.uniform(-0.5, 0.5, (len(problem.x0), 3, 2))
        assert_batches_agree(problem, reference, U, [(np.arange(len(U)) == 0,)])
        assert_solves_agree(problem, reference, U)


def test_clamp_norm_matches_the_earlier_copying_clamp(np_rng):
    # the same bits whether or not a vector is over the ball; clamped gives
    # them too, for a float64 array of the caller's own
    vectors = np_rng.normal(size=(40, 3, 2)) * 10.0 ** np_rng.integers(-3, 3, (40, 3, 1))
    vectors[np_rng.random(vectors.shape) < 0.1] = -0.0
    vectors[0, 0] = np.nan
    for v, max_norm in ((vectors, 1.5), (vectors, 1e6), (vectors[:, :, ::-1], 2.0)):
        expected = reference_clamp_norm(v, max_norm)
        assert same_bits(clamp_norm(v, max_norm), expected)
        assert same_bits(clamped(np.array(v), max_norm), expected)
    for listed in ([[1, 2], [30, 40]], [[0.5, 0.5]]):
        assert same_bits(clamp_norm(listed, 5.0), reference_clamp_norm(listed, 5.0))
