"""The centralized search direction against its earlier, plainer code.

Each `reference_*` function below is the earlier version of a function that
was rewritten for speed: the stage gradient that scattered its pair
coefficients into a zero matrix, the walls' non-negative least squares with
no early exit, the projection that always stacked its control rows, and the
wall search with the tangent pass along -P.  The rewrites must give the same
bits, signed zeros included, on the inputs here and on the search
directions of closed-loop runs of both centralized models.
"""

import functools
from unittest import mock

import numpy as np
import pytest

from flockbench import MotionLimits, MpcParams, horizon, mix_seed, mpc
from flockbench.core import EPS_DIST, sq_norm
from flockbench.horizon import (
    CROSS_FRACTION,
    WALL_GAP,
    _accumulate,
    _clamp_apply,
    _clamp_jacobians,
)
from flockbench.mpc import CENTRALIZED_MPC_TAGS, _pairs
from conftest import captured_solves

LIMITS = MotionLimits()
PARAMS = MpcParams()  # horizon 3, lam 1, r 8.4, d 7, omega 50


def same_bits(a, b):
    """Equal values, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@functools.lru_cache(maxsize=16)
def reference_pair_layout(n):
    iu, ju = np.triu_indices(n, k=1)
    return iu, ju, iu * n + ju, ju * n + iu


def reference_stage_gradient(cost, x, r, pairs=None):
    S, n = x.shape[:2]
    if cost.cohesion and n < 2:
        return np.zeros_like(x)
    dist = (_pairs(x) if pairs is None else pairs)[3]
    coef = np.zeros((S, n, n))
    pair_coef = np.where(dist < r, 2.0 * cost.slope(dist), 0.0)
    flat, (_, _, ij, ji) = coef.reshape(S, n * n), reference_pair_layout(n)
    flat[:, ij] = flat[:, ji] = pair_coef
    edges = coef.sum(axis=-1)[..., None] * x - coef @ x
    if not cost.cohesion:
        return edges
    c_n = 2.0 / (n * (n - 1))
    return 2.0 * c_n * (n * x - x.sum(axis=1, keepdims=True)) + edges


def reference_backprop_controls(gx, W, U, limits, lam, jacobians=None):
    dt = limits.dt
    if jacobians is None:
        jacobians = _clamp_jacobians(W, limits.v_max)
    if not any(jacobians):
        px = _accumulate(0.0, gx[:, ::-1].copy())
        pv = np.zeros_like(U)
        np.multiply(dt, px, out=pv[:, 1:])
        np.add.accumulate(pv, axis=1, out=pv)
        return dt * pv[:, ::-1] + 2.0 * lam * U
    gu = np.empty_like(U)
    px = np.zeros_like(U[:, 0])
    pv = np.zeros_like(px)
    for t in range(U.shape[1] - 1, 0, -1):
        px = px + gx[:, t - 1]
        q = _clamp_apply(jacobians[t], W[:, t], pv)
        gu[:, t] = dt * q + 2.0 * lam * U[:, t]
        pv = dt * px + q
    gu[:, 0] = dt * _clamp_apply(jacobians[0], W[:, 0], pv) + 2.0 * lam * U[:, 0]
    return gu


def reference_forward_controls(D, W, limits, jacobians=None):
    dt = limits.dt
    if jacobians is None:
        jacobians = _clamp_jacobians(W, limits.v_max)
    if not any(jacobians):
        v = _accumulate(0.0, dt * D[:, :-1])
        return _accumulate(0.0, dt * v)
    xd = np.empty_like(D[:, 1:])
    x = v = np.zeros_like(D[:, 0])
    for t in range(D.shape[1] - 1):
        v = _clamp_apply(jacobians[t], W[:, t], v + dt * D[:, t])
        x = x + dt * v
        xd[:, t] = x
    return xd


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


def reference_wall_search(gx, U, W, jacobians, pairs, r, lam, limits):
    R, T, n, m = U.shape
    iu, ju, diff, dist = pairs
    reach = 2.0 * limits.dt**2 * limits.a_max * T * (T - 1)
    near_stage, near_pair = np.nonzero((dist >= r) & (dist <= r + reach))
    near_dist = dist[near_stage, near_pair]
    wall = near_dist - r <= WALL_GAP
    stage, pair = near_stage[wall], near_pair[wall]
    if not stage.size:
        G, row = reference_backprop_controls(gx, W, U, limits, lam, jacobians), stage
    else:
        row, t = np.divmod(stage, T - 1)
        e = diff[stage, pair] / near_dist[wall][:, None]
        gd = np.zeros((stage.size, T - 1, n, m))
        k = np.arange(stage.size)
        gd[k, t, iu[pair]], gd[k, t, ju[pair]] = e, -e
        stacked, stacked_jacobians = W, jacobians
        if any(jacobians):
            stacked = np.concatenate([W, W[row]])
            stacked_jacobians = _clamp_jacobians(stacked, limits.v_max)
        G = reference_backprop_controls(
            np.concatenate([gx, gd]),
            stacked,
            np.concatenate([U, np.zeros(gd.shape[:1] + U.shape[1:])]),
            limits,
            lam,
            stacked_jacobians,
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
        xd = reference_forward_controls(-P, W, limits, jacobians).reshape(-1, n, m)
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
    assert same_bits(mpc._centralized_stage_gradient(cost, x, PARAMS.r), expected)
    assert same_bits(mpc._centralized_stage_gradient(cost, x, PARAMS.r, pairs), expected)


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
    W, jacobians = np.zeros((1, 2, 2, 2)), [None, None]
    joint = 0
    for _ in range(200):
        U = np.zeros((1, 2, 2, 2))
        angle = rng.uniform(0.0, 2.0 * np.pi)
        U[0, 0, 0] = LIMITS.a_max * np.array([np.cos(angle), np.sin(angle)])
        U[0, 1] = rng.uniform(-0.5, 0.5, (2, 2))
        gx = rng.normal(scale=20.0, size=(1, 1, 2, 2))
        args = gx, U, W, jacobians, pairs, r, params.lam, LIMITS
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
    # every search direction of run 0 at seed 1 (100 steps), with walls,
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

    def search_spy(gx, U, W, jacobians, pairs, r, lam, limits):
        got = real_search(gx, U, W, jacobians, pairs, r, lam, limits)
        expected = reference_wall_search(gx, U, W, jacobians, pairs, r, lam, limits)
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
        solves = captured_solves(tag, mix_seed(1, 0), steps=100)
    assert len(solves) == 100
    assert seen["calls"] > 900
    assert all(count > 0 for count in seen.values()), seen
