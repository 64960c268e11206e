"""
Non-MPC flocking controllers.

Both controllers map one agent's (possibly noisy) view of the configuration
to an acceleration command.  The view is expected to carry the agent's own
row exactly (see ``core.sense_local``); neighborhoods are ``core.neighbors``
of the view.  Outputs are raw commands: the simulation loop clamps them to
the acceleration bound when stepping the dynamics.

The closed loop steers every agent in one array pass: ``reynolds_accel_all``
and ``olfati_saber_accel_all`` read all n views (row i is agent i's view, as
``core.sense_local_all`` returns them) as one ``core.StackedViews``, whose
arrays are component-major, (m, n, n), so their inner loops run over the n
observers.  Every neighbor sum is its ``neighbor_sum`` over a per-rule mask,
``mask(radius)``: a sequential reduce over j, never the innermost axis, that
adds the neighbors in ascending index order, as the per-agent functions'
``core.fold`` does in every dimension.  So the array passes equal the
per-agent functions bit for bit; those stay as the readable definitions and
as the tests' oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EPS_DIST_SQ, FlockConfiguration, StackedViews, _check_fields, fold, neighbors

__all__ = [
    "ReynoldsParams",
    "OlfatiSaberParams",
    "reynolds_alignment",
    "reynolds_cohesion",
    "reynolds_separation",
    "reynolds_accel",
    "olfati_saber_accel",
    "reynolds_accel_all",
    "olfati_saber_accel_all",
]


@dataclass(frozen=True)
class ReynoldsParams:
    """Per-rule interaction radii and weights for the rule-based controller.

    Separation uses a smaller radius than cohesion/alignment since it only
    matters at close range.  A radius may be infinite, a weight may not.
    """

    r_c: float = 9.0
    r_s: float = 5.0
    r_al: float = 7.5
    w_c: float = 8.0
    w_s: float = 12.0
    w_al: float = 8.0

    def __post_init__(self):
        _check_fields(self)
        if not all(x > 0 for x in (self.r_c, self.r_s, self.r_al)):
            raise ValueError("rule radii must be positive")
        for name in ("w_c", "w_s", "w_al"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"rule weight {name} must be nonnegative and finite")


@dataclass(frozen=True)
class OlfatiSaberParams:
    """Parameters of the potential-based controller.

    The pair potential is flat outside the interaction radius r and has its
    minimum at distance d.  epsilon shapes the smoothed norm, (a, b) the
    uneven sigmoid, h the bump-function plateau, and c_alignment weighs the
    velocity-consensus term.  r may be infinite; epsilon, a, b and
    c_alignment may not.
    """

    r: float = 8.4
    d: float = 7.0
    epsilon: float = 0.1
    a: float = 5.0
    b: float = 5.0
    h: float = 0.2
    c_alignment: float = 1.0

    def __post_init__(self):
        _check_fields(self)
        if not 0 < self.a <= self.b:
            raise ValueError("sigmoid parameters must satisfy 0 < a <= b")
        if not self.b < np.inf:
            raise ValueError("sigmoid parameter b must be finite")
        if not 0 < self.h < 1:
            raise ValueError("bump threshold h must be in (0, 1)")
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0 < self.d < self.r:
            raise ValueError("need 0 < d < r")
        if not 0 <= self.c_alignment < np.inf:
            raise ValueError("c_alignment must be nonnegative and finite")


def reynolds_alignment(
    i: int, view: FlockConfiguration, params: ReynoldsParams
) -> np.ndarray:
    """Steer toward the mean velocity of the alignment neighborhood."""
    nbrs = sorted(neighbors(view, i, params.r_al))
    if not nbrs:
        return np.zeros(view.dimension)
    mean_vel = fold(view.velocities[nbrs]) / len(nbrs)
    return params.w_al * (mean_vel - view.velocities[i])


def reynolds_cohesion(
    i: int, view: FlockConfiguration, params: ReynoldsParams
) -> np.ndarray:
    """Steer toward the centroid of the cohesion neighborhood."""
    nbrs = sorted(neighbors(view, i, params.r_c))
    if not nbrs:
        return np.zeros(view.dimension)
    centroid = fold(view.positions[nbrs]) / len(nbrs)
    return params.w_c * (centroid - view.positions[i])


def reynolds_separation(
    i: int, view: FlockConfiguration, params: ReynoldsParams
) -> np.ndarray:
    """Steer away from close neighbors, inverse-square falloff.

    The squared distance is floored to keep the force finite if a sensed
    neighbor coincides with the agent.
    """
    nbrs = sorted(neighbors(view, i, params.r_s))
    if not nbrs:
        return np.zeros(view.dimension)
    away = view.positions[i] - view.positions[nbrs]
    sq = np.maximum((away * away).sum(axis=-1), EPS_DIST_SQ)
    return params.w_s * (fold(away / sq[:, None]) / len(nbrs))


def reynolds_accel(
    i: int, view: FlockConfiguration, params: ReynoldsParams
) -> np.ndarray:
    """Sum of the alignment, cohesion and separation rules."""
    return (
        reynolds_alignment(i, view, params)
        + reynolds_cohesion(i, view, params)
        + reynolds_separation(i, view, params)
    )


def reynolds_accel_all(positions, velocities, params: ReynoldsParams) -> np.ndarray:
    """``reynolds_accel`` of every agent from its stacked (n, n, m) view,
    shape (n, m); row i equals ``reynolds_accel(i, view_i, params)``."""
    views = StackedViews(positions, velocities)

    def mean(radius, x):
        mask = views.mask(radius)
        count = mask.sum(axis=1)
        return views.neighbor_sum(mask, x) / np.maximum(count, 1), count > 0

    mean_vel, has_al = mean(params.r_al, views.v)
    centroid, has_c = mean(params.r_c, views.x)
    # x_i - x_j as the per-agent rule computes it; -diff would flip the
    # sign of exact zeros
    away = views.own_x - views.x
    mean_push, has_s = mean(params.r_s, away / np.maximum(views.sq, EPS_DIST_SQ))
    alignment = np.where(has_al, params.w_al * (mean_vel - views.own_v), 0.0)
    cohesion = np.where(has_c, params.w_c * (centroid - views.own_x), 0.0)
    separation = np.where(has_s, params.w_s * mean_push, 0.0)
    return views.by_observer(alignment + cohesion + separation)


# --------------------------------------------------------------------------
# Olfati-Saber potential controller
# --------------------------------------------------------------------------


def sigma_norm(z, epsilon: float):
    """Smoothed norm (1/eps) * (sqrt(1 + eps*|z|^2) - 1); differentiable at 0.

    Accepts a scalar distance or an array of vector norms.
    """
    z = np.asarray(z, dtype=np.float64)
    return (np.sqrt(1.0 + epsilon * z * z) - 1.0) / epsilon


def bump(z, h: float):
    """Smooth cutoff: 1 on [0, h), cosine taper on [h, 1], 0 elsewhere."""
    z = np.asarray(z, dtype=np.float64)
    out = np.zeros_like(z)
    out = np.where((z >= 0) & (z < h), 1.0, out)
    taper = 0.5 * (1.0 + np.cos(np.pi * (z - h) / (1.0 - h)))
    out = np.where((z >= h) & (z <= 1.0), taper, out)
    return out


def _uneven_sigmoid(z, a: float, b: float):
    c = abs(a - b) / np.sqrt(4.0 * a * b)
    shifted = z + c
    return 0.5 * ((a + b) * shifted / np.sqrt(1.0 + shifted * shifted) + (a - b))


def action_function(z, params: OlfatiSaberParams):
    """Pair force magnitude at sigma-distance z: bump-windowed uneven sigmoid
    crossing zero at the sigma-distance of d."""
    r_sig = sigma_norm(params.r, params.epsilon)
    d_sig = sigma_norm(params.d, params.epsilon)
    return bump(np.asarray(z) / r_sig, params.h) * _uneven_sigmoid(
        np.asarray(z) - d_sig, params.a, params.b
    )


def olfati_saber_accel(
    i: int, view: FlockConfiguration, params: OlfatiSaberParams
) -> np.ndarray:
    """Gradient-type pair forces plus weighted velocity consensus.

    For each neighbor j within r: a force of magnitude
    ``action_function(sigma_norm(|x_j - x_i|))`` along the smoothed
    direction ``(x_j - x_i) / sqrt(1 + eps |x_j - x_i|^2)``, plus
    ``c_alignment * bump(sigma_dist / sigma_r) * (v_j - v_i)``.
    """
    nbrs = sorted(neighbors(view, i, params.r))
    if not nbrs:
        return np.zeros(view.dimension)
    eps = params.epsilon
    rel = view.positions[nbrs] - view.positions[i]
    dist = np.sqrt((rel * rel).sum(axis=-1))
    dist_sig = sigma_norm(dist, eps)
    r_sig = sigma_norm(params.r, eps)

    # smoothed unit vectors (gradient of the sigma-norm), finite at overlap
    n_ij = rel / np.sqrt(1.0 + eps * dist * dist)[:, None]
    force = fold(action_function(dist_sig, params)[:, None] * n_ij)

    adjacency = bump(dist_sig / r_sig, params.h)
    rel_vel = view.velocities[nbrs] - view.velocities[i]
    consensus = params.c_alignment * fold(adjacency[:, None] * rel_vel)
    return force + consensus


def olfati_saber_accel_all(
    positions, velocities, params: OlfatiSaberParams
) -> np.ndarray:
    """``olfati_saber_accel`` of every agent from its stacked (n, n, m)
    view, shape (n, m); row i equals ``olfati_saber_accel(i, view_i, params)``."""
    views = StackedViews(positions, velocities)
    mask = views.mask(params.r)
    eps = params.epsilon
    dist = views.dist
    dist_sig = sigma_norm(dist, eps)
    adjacency = bump(dist_sig / sigma_norm(params.r, eps), params.h)
    # action_function(dist_sig, params), its bump being the adjacency
    action = adjacency * _uneven_sigmoid(
        dist_sig - sigma_norm(params.d, eps), params.a, params.b
    )
    n_ij = views.diff / np.sqrt(1.0 + eps * dist * dist)
    force = views.neighbor_sum(mask, action * n_ij)
    rel_vel = views.v - views.own_v
    consensus = params.c_alignment * views.neighbor_sum(mask, adjacency * rel_vel)
    return views.by_observer(np.where(mask.any(axis=1), force + consensus, 0.0))
