"""
Batched prediction over the MPC horizon, and the walls of the centralized
cost.

Arrays are (B, T, ...): one row per independent problem, then the
predicted steps 1..T.  `_rollout_arrays` predicts the positions and
pre-clamp velocities under a control plan, and flags the rows whose
velocity clamps; the adjoint pass `_backprop_controls` (gradients) and the
tangent pass `_forward_controls` (directional derivatives) differentiate
that rollout through the velocity clamp where a row's flag is set, each step
through the clamp's Jacobian at that step's pre-clamp velocities
(`_clamp_apply`), as the rollout steps through `clamp_norm`.

Each of the three passes is a recurrence over the horizon that only the
velocity clamp keeps from being a running sum.  Where no row's flag is set
(no pre-clamp velocity exceeds v_max by the test `clamp_norm` makes; a NaN
speed is not over), a pass runs as running sums over the horizon axis
(`_accumulate`).  `np.add.accumulate` adds in index order at any length,
unlike numpy's reductions, so each sum is the one the per-step loop forms,
from the same operands (IEEE addition commutes) and the same +0 start: the
bits, signed zeros included, are the loop's, at a fixed number of numpy
calls whatever T is.  Where some row clamps, the pass keeps its per-step
loop.

A centralized MPC cost counts its edge terms only inside the interaction
radius r, so it jumps up wherever a predicted pair enters r.
`_wall_search` treats r as a wall (gradient projection onto the active
face, Calamai & More 1987): a pair just beyond r, and a control saturated
at a_max, are held, and the search direction is the negative gradient
projected exactly onto the cone of directions that pull no such pair in and
push no such control out (`_wall_projection`, by Lawson and Hanson's
non-negative least squares, `_nnls`).  The tangent pass gives the other
pairs' distance rates along that direction, and from them the step at which
the first would enter r.  The walls read the pairs i < j in the one layout
the stage cost and its gradient read, `mpc._pairs`.
"""

from __future__ import annotations

import numpy as np

from .core import clamp_norm, inner, sq_norm

# A centralized pair beyond r by at most WALL_GAP at a predicted step 2..T
# sits at a wall: entering r would raise the cost by a jump, so the search
# direction may not pull it in.  A narrower gap lets pairs creep up to the
# wall in more, shorter steps.
WALL_GAP = 1e-3
# A centralized line search starts at most at CROSS_FRACTION times the
# first-order step at which the first pair beyond the walls enters r.
CROSS_FRACTION = 0.9


def _accumulate(start, terms):
    """Overwrite `terms`, (B, S, ...), with the states of the loop
    ``s = start; s = s + terms[:, t]`` for t = 0..S-1, and return it: the
    running sums, added in index order.  `start` broadcasts against
    terms[:, 0]; a start of 0.0 gives the loop from zeros, which turns a
    leading -0.0 into +0.0 as that loop does."""
    if terms.shape[1]:
        np.add(start, terms[:, 0], out=terms[:, 0])
        np.add.accumulate(terms, axis=1, out=terms)
    return terms


def _rollout_arrays(x0, v0, U, limits):
    """Positions and pre-clamp velocities at steps 1..T under controls U,
    from the (B, ...) initial states x0, v0, and whether each row's
    velocity clamps at some step, a (B,) flag.

    The step-1 positions x0 + dt * v0 do not depend on U.  A problem's
    `evaluate` returns this rollout in its record, and the search direction
    at an accepted point reads the record of the probe that accepted it.

    Where no pre-clamp velocity is over v_max, every velocity is its
    pre-clamp one, so the velocities are the running sums of v0 and
    dt * U[:, t], and the positions those of x0, dt * v0 and dt * ws[:, t];
    otherwise the rollout steps, clamping each step's velocities.  A row's
    running sums match its steps up to its first clamp, so the running sums'
    speed test flags the rows whose steps clamp.  The passes differentiate
    a batch with a flag set step by step, through `_clamp_apply` where this
    loop calls `clamp_norm`.
    """
    dt, v_max = limits.dt, limits.v_max
    xs, ws = np.empty_like(U), _accumulate(v0, dt * U)
    over = np.sqrt(sq_norm(ws)) > v_max
    if not np.count_nonzero(over):
        xs[:, 0] = x0 + dt * v0
        np.multiply(dt, ws[:, :-1], out=xs[:, 1:])
        np.add.accumulate(xs, axis=1, out=xs)
        return xs, ws, np.zeros(len(U), dtype=bool)
    clamps = over.reshape(len(U), -1).any(axis=1)
    x, v = x0, v0
    for t in range(U.shape[1]):
        x = x + dt * v
        w = v + dt * U[:, t]
        v = clamp_norm(w, v_max)
        xs[:, t] = x
        ws[:, t] = w
    return xs, ws, clamps


def _clamp_apply(w, p, v_max):
    """Apply the (symmetric) Jacobian of the norm clamp at one step's
    pre-clamp velocities w to p, rowwise over the last axis: p itself where
    no velocity of w is over v_max (the test `clamp_norm` makes: a NaN speed
    is not over, an inf one is)."""
    norms = np.sqrt(sq_norm(w, keepdims=True))
    over = norms > v_max
    if not np.count_nonzero(over):
        return p
    safe = np.where(over, norms, 1.0)
    radial = (w * p).sum(axis=-1, keepdims=True) / (safe * safe)
    return np.where(over, v_max / safe * (p - w * radial), p)


def _backprop_controls(gx, W, U, limits, lam, clamps):
    """Adjoint pass: gradient of the objective w.r.t. the controls U.

    gx[:, t] is the stage gradient at predicted step t+2; W[:, t] is the
    pre-clamp velocity that produced step t+1's velocity, and `clamps` the
    rollout's per-row clamp flags.  Step 1's positions do not depend on U,
    so its stage gradient never reaches the controls and is not taken: with
    T = 1 the gradient is the control penalty's alone.

    Where no row clamps, W is not read: the position adjoints are the
    running sums of gx from the last step back, the velocity adjoints those
    of dt times the position adjoints from a zero at step T.  Otherwise the
    pass steps back through `_clamp_apply` at each step's W[:, t].
    """
    dt, v_max = limits.dt, limits.v_max
    if not np.count_nonzero(clamps):
        # the velocity adjoints start from +0.0, so none is -0.0, and adding
        # either zero to one gives the same bits: the position adjoints need
        # no +0.0 start of their own
        px = np.add.accumulate(gx[:, ::-1], axis=1)
        pv = np.zeros(U.shape)
        np.multiply(dt, px, out=pv[:, 1:])
        np.add.accumulate(pv, axis=1, out=pv)
        return dt * pv[:, ::-1] + 2.0 * lam * U
    gu = np.empty_like(U)
    px = np.zeros_like(U[:, 0])
    pv = np.zeros_like(px)
    for t in range(U.shape[1] - 1, 0, -1):
        px = px + gx[:, t - 1]
        q = _clamp_apply(W[:, t], pv, v_max)
        gu[:, t] = dt * q + 2.0 * lam * U[:, t]
        pv = dt * px + q
    gu[:, 0] = dt * _clamp_apply(W[:, 0], pv, v_max) + 2.0 * lam * U[:, 0]
    return gu


def _forward_controls(D, W, limits, clamps):
    """Tangent pass, the mirror of `_backprop_controls`: the derivative of
    the positions at predicted steps 2..T along the control direction D,
    shape (B, T-1, ...).  W and `clamps` are as `_backprop_controls` takes
    them; the clamp's Jacobian is symmetric.  Where no row clamps, the
    velocity tangents are the running sums of dt * D and the position
    tangents those of dt times the velocity tangents, both from zeros."""
    dt, v_max = limits.dt, limits.v_max
    if not np.count_nonzero(clamps):
        # the position tangents start from +0.0, so none is -0.0, and adding
        # either zero to one gives the same bits: the velocity tangents need
        # no +0.0 start of their own
        v = dt * D[:, :-1]
        return _accumulate(0.0, dt * np.add.accumulate(v, axis=1, out=v))
    xd = np.empty_like(D[:, 1:])
    x = v = np.zeros_like(D[:, 0])
    for t in range(D.shape[1] - 1):
        v = _clamp_apply(W[:, t], v + dt * D[:, t], v_max)
        x = x + dt * v
        xd[:, t] = x
    return xd


def _active_solve(K, b, on):
    """The multipliers of the active set `on` alone: K_on lam = b_on, from K
    itself where every constraint is on."""
    if np.count_nonzero(on) == on.size:
        sub, rhs = K, b
    else:
        idx = np.flatnonzero(on)
        sub, rhs = K[idx[:, None], idx], b[idx]
    try:
        return np.linalg.solve(sub, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(sub, rhs, rcond=None)[0]


def _nnls(K, b, tol):
    """The lam >= 0 minimizing lam.K.lam / 2 - b.lam by Lawson and Hanson's
    active-set method, for the Gram matrix K = A A^T of constraint rows A
    and b = A g: g - A^T lam is then the projection of g onto the cone
    A x <= 0, exact up to rounding.  A constraint whose multiplier gradient
    b - K lam is at most tol stays inactive.

    The search starts from the constraints g violates (b > tol) where their
    own multipliers are all positive, as they are where those constraints
    hold g at a minimum, and from no constraint otherwise.
    """
    on = b > tol
    start = _active_solve(K, b, on)
    held = np.count_nonzero(start > 0) == start.size
    if held and np.count_nonzero(on) == on.size:
        return start  # every constraint holds: the loop would stop at once
    lam = np.zeros(b.size)
    if held:
        lam[on] = start
    else:
        on[:] = False
    for _ in range(3 * b.size):
        w = np.where(on, -np.inf, b - K @ lam)
        p = np.argmax(w)
        if not w[p] > tol:
            break
        on[p] = True
        for _ in range(b.size):
            z = np.zeros(b.size)
            z[on] = _active_solve(K, b, on)
            if (z[on] > 0).all():
                lam = z
                break
            # move towards z until the first multiplier reaches 0; drop it
            ratio = np.full(b.size, np.inf)
            neg = on & (z <= 0)
            ratio[neg] = lam[neg] / (lam[neg] - z[neg])
            j = np.argmin(ratio)
            lam = lam + ratio[j] * (z - lam)
            lam[j] = 0.0
            on &= lam > 0
            lam[~on] = 0.0
    return lam


def _wall_projection(g, P, u, pairs, saturated):
    """One centralized row's projected gradient: the projection of its
    gradient g, (T, n, m), onto the cone where the direction -g pulls no
    wall pair inside r and pushes no saturated control (saturated: (T, n))
    past a_max.  pairs holds the unit distance gradients of the row's wall
    pairs, one per row, flattened like g, and P is g with every saturated
    control projected on its own.

    Each constraint is a row of A, with A x <= 0 on the projected gradient
    x: a wall pair's unit distance gradient, or minus a saturated control's
    unit vector in its slot.  The control rows are orthonormal, so P holds
    at every saturated control no wall pair's distance depends on; the
    other saturated controls and the wall pairs go through `_nnls`.
    """
    T, n, m = u.shape
    slots = saturated.ravel().nonzero()[0]
    if slots.size:
        # the saturated controls some wall pair's distance depends on
        slots = slots[pairs.reshape(len(pairs), T * n, m).any(axis=(0, 2))[slots]]
    A = pairs
    if slots.size:
        unit = u.reshape(T * n, m)[slots]
        controls = np.zeros((slots.size, T * n, m))
        norms = np.sqrt(sq_norm(unit, keepdims=True))
        controls[np.arange(slots.size), slots] = -unit / norms
        A = np.concatenate([controls.reshape(slots.size, g.size), pairs])
        P = P.reshape(T * n, m).copy()
        P[slots] = g.reshape(T * n, m)[slots]
    flat = g.reshape(-1)
    lam = _nnls(A @ A.T, A @ flat, 1e-10 * np.sqrt(flat @ flat))
    return P.reshape(g.shape) - (lam @ A).reshape(g.shape)


def _wall_search(gx, U, W, clamps, pairs, r, lam, limits):
    """(G, P, cap) of centralized rows with the plans U, (R, T, n, m), from
    their stage gradients gx at steps 2..T, the rollout's pre-clamp
    velocities W and clamp flags, and `mpc._pairs` of their
    R * (T-1) configurations at steps 2..T (agents iu, ju, differences and
    distances of the pairs i < j).

    G is the gradient.  A row moves along -P: -G where that pulls no wall
    pair (one beyond r by at most WALL_GAP = 1e-3) inside r and pushes no
    saturated control (|u| = a_max) outward, and otherwise -G projected onto
    the cone that does neither (`_wall_projection`).  Its cap is
    CROSS_FRACTION = 0.9 times the smallest first-order step
    (dist - r) / -rate along -P of a pair beyond the walls whose distance
    falls, and inf where there is none.  P is G itself where no row is
    projected, as with one predicted step or one agent, where there is no
    pair.

    Only pairs within reach of r count.  Two feasible plans differ by at
    most 2 a_max per control, and the velocity clamp does not stretch
    differences, so no line-search probe moves a predicted agent by more
    than dt**2 a_max T (T-1), nor a pair's distance by more than twice that.
    """
    R, T, n, m = U.shape
    iu, ju, diff, dist = pairs
    reach = 2.0 * limits.dt**2 * limits.a_max * T * (T - 1)
    # the pairs within reach: configuration, pair and distance
    near_stage, near_pair = ((dist >= r) & (dist <= r + reach)).nonzero()
    near_dist = dist[near_stage, near_pair]
    wall = near_dist - r <= WALL_GAP
    stage, pair = near_stage[wall], near_pair[wall]
    if not stage.size:
        # no wall pair: the gradient's own adjoint pass
        G, row = _backprop_controls(gx, W, U, limits, lam, clamps), stage
    else:
        # each wall pair's distance gradient rides through the gradient's
        # adjoint pass as one more row, with zero controls for a zero control
        # penalty: one pass instead of two.  A separate wall pass gave the
        # same bits but took more CPU time on centralized runs (2-core shared
        # Xeon VM).
        row, t = np.divmod(stage, T - 1)
        e = diff[stage, pair] / near_dist[wall][:, None]
        gd = np.zeros((stage.size, T - 1, n, m))
        k = np.arange(stage.size)
        gd[k, t, iu[pair]], gd[k, t, ju[pair]] = e, -e
        # a wall row clamps where its own row does; where no row clamps, the
        # stacked adjoint does not read the pre-clamp velocities
        stacked = np.concatenate([W, W[row]]) if np.count_nonzero(clamps) else W
        G = _backprop_controls(
            np.concatenate([gx, gd]),
            stacked,
            np.concatenate([U, np.zeros(gd.shape[:1] + U.shape[1:])]),
            limits,
            lam,
            np.concatenate([clamps, clamps[row]]),
        )
        G, walls = G[:R], G[R:].reshape(stage.size, U[0].size)
        norms = np.sqrt((walls * walls).sum(axis=1))
        keep = norms > 0
        row, walls = row[keep], walls[keep] / norms[keep, None]
    # clamp_norm leaves a projected control within rounding of a_max
    sq = sq_norm(U)
    saturated = pushed = sq >= (limits.a_max * (1.0 - 1e-9)) ** 2
    P = G
    if np.count_nonzero(saturated):
        radial = inner(U, G)  # a zero radial part, of either sign, pushes nothing
        pushed = saturated & (radial < 0)
        if np.count_nonzero(pushed):
            # each saturated control alone: drop the outward radial part
            outward = np.divide(radial, sq, out=np.zeros_like(sq), where=pushed)
            P = G - outward[..., None] * U
    if row.size:
        # rows whose wall pairs -G pulls in, or whose controls it pushes out,
        # project onto every constraint of the row at once
        blocked = np.zeros(R, dtype=bool)
        blocked[row[(walls * G.reshape(R, -1)[row]).sum(axis=1) > 0]] = True
        if P is not G:  # some control is pushed out: P is a new array
            blocked[row] |= pushed.reshape(R, -1).any(axis=1)[row]
        elif np.count_nonzero(blocked):
            P = G.copy()
        for k in np.nonzero(blocked)[0]:
            P[k] = _wall_projection(G[k], P[k], U[k], walls[row == k], saturated[k])
    cap = np.full(R, np.inf)
    if np.count_nonzero(wall) < wall.size:
        beyond = ~wall
        stage, pair, d = near_stage[beyond], near_pair[beyond], near_dist[beyond]
        # the tangents along +P: the distance times its rate of growth, over
        # the distance times its excess, is one over the step along -P at
        # which the pair would enter r (a zero rate caps nothing, whatever
        # its sign)
        xd = _forward_controls(P, W, limits, clamps).reshape(-1, n, m)
        rate = inner(diff[stage, pair], xd[stage, iu[pair]] - xd[stage, ju[pair]])
        inverse = np.zeros(R)
        np.maximum.at(inverse, stage // (T - 1), rate / ((d - r) * d))
        np.divide(CROSS_FRACTION, inverse, out=cap, where=inverse > 0)
    return G, P, cap
