"""
Agent state, discrete-time dynamics, proximity nets and sensing noise.

Agents are double integrators on a fixed time grid: position advances with
the current velocity, velocity advances with the commanded acceleration, and
both acceleration and the updated velocity are kept inside norm balls by
radial projection (the vector is rescaled to the bound, direction preserved).

All functions here are pure except for ``RandomStream``, which owns mutable
generator state.  Configurations are immutable values safe to share between
workers.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "FlockConfiguration",
    "MotionLimits",
    "NoiseSpec",
    "ProximityNet",
    "RandomStream",
    "mix_seed",
    "fold",
    "sq_norm",
    "clamp_norm",
    "pairwise_distances",
    "step_dynamics",
    "neighbors",
    "proximity_net",
    "is_quasi_alpha_lattice",
    "sense_global",
    "sense_local",
    "sense_local_all",
]

# Floors that keep coincident agents' forces and costs large but finite
# instead of NaN/inf: EPS_DIST floors distances in the MPC pair costs, and
# EPS_DIST_SQ squared distances in Reynolds separation.
EPS_DIST = 1e-6
EPS_DIST_SQ = EPS_DIST * EPS_DIST


class FlockConfiguration:
    """Positions and velocities of all n agents at one time step.

    Stored as two (n, m) float64 arrays.  Arrays are copied on construction
    and marked read-only; agent identity is the row index and is stable for
    the whole run.
    """

    __slots__ = ("positions", "velocities")

    def __init__(self, positions, velocities):
        pos = np.array(positions, dtype=np.float64)
        vel = np.array(velocities, dtype=np.float64)
        if pos.ndim != 2 or vel.shape != pos.shape:
            raise ValueError(
                f"positions/velocities must be matching (n, m) arrays, "
                f"got {pos.shape} and {vel.shape}"
            )
        if pos.shape[0] < 1 or pos.shape[1] < 1:
            raise ValueError("need at least one agent and one dimension")
        if not (np.isfinite(pos).all() and np.isfinite(vel).all()):
            raise ValueError("positions/velocities must be finite")
        pos.flags.writeable = False
        vel.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "velocities", vel)

    def __setattr__(self, name, value):
        raise AttributeError("FlockConfiguration is immutable")

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, FlockConfiguration)
            and np.array_equal(self.positions, other.positions)
            and np.array_equal(self.velocities, other.velocities)
        )

    def __reduce__(self):
        # immutability is enforced through __setattr__, so pickling must
        # rebuild through the constructor
        return (self.__class__, (np.asarray(self.positions), np.asarray(self.velocities)))

    def __repr__(self):
        return f"FlockConfiguration(n={self.n}, m={self.dimension})"


def _integer(value, name) -> int:
    """value as an int: a TypeError naming `name` for a bool, numpy's
    included, or any other value that is not an integer (numpy integers
    pass)."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be an integer, not a bool")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _agent_index(i) -> int:
    """The agent or neighbor index i as an int: a TypeError for a bool,
    numpy's included, with `StackedViews`'s message, or for any other value
    that is not an integer."""
    if isinstance(i, (bool, np.bool_)):
        raise TypeError("agent indices must be integers, got bool")
    return operator.index(i)


def _check_fields(params, integers=()) -> None:
    """The type rule of the parameter classes: no field of the dataclass
    instance `params` is a bool, and each field named in `integers` is an
    integer (numpy integers included); a TypeError naming the field
    otherwise."""
    for f in fields(params):
        value, name = getattr(params, f.name), f"{type(params).__name__}.{f.name}"
        if isinstance(value, (bool, np.bool_)):
            raise TypeError(f"{name} must be a number, not a bool")
        if f.name in integers:
            _integer(value, name)


@dataclass(frozen=True)
class MotionLimits:
    """Velocity bound, acceleration bound and step length of the time grid.
    An infinite v_max or a_max means no bound; dt must be finite."""

    v_max: float = 8.0
    a_max: float = 1.0
    dt: float = 0.3

    def __post_init__(self):
        _check_fields(self)
        if not (self.v_max > 0 and self.a_max > 0 and self.dt > 0):
            raise ValueError("v_max, a_max and dt must all be positive")
        if not self.dt < np.inf:
            raise ValueError("time step dt must be finite")


@dataclass(frozen=True)
class NoiseSpec:
    """Std devs of the additive Gaussian sensing noise (0 = exact sensing),
    each nonnegative and finite."""

    sigma_x: float = 0.0
    sigma_v: float = 0.0

    def __post_init__(self):
        _check_fields(self)
        for name in ("sigma_x", "sigma_v"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"noise {name} must be nonnegative and finite")

    @property
    def is_zero(self) -> bool:
        return self.sigma_x == 0.0 and self.sigma_v == 0.0


@dataclass(frozen=True)
class ProximityNet:
    """Graph over agent indices connecting pairs strictly closer than r.

    Edges are stored once per unordered pair as (i, j) with i < j; adjacency
    is symmetric by construction.
    """

    n: int
    r: float
    edges: frozenset = field(default_factory=frozenset)

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return False
        return (min(i, j), max(i, j)) in self.edges


# --------------------------------------------------------------------------
# Deterministic random stream
# --------------------------------------------------------------------------

_SPLITMIX_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> int:
    z = state & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix_seed(base_seed: int, index: int) -> int:
    """Derive the seed of stream `index` from a base seed (SplitMix64 mix).

    Distinct indices give distinct, decorrelated 64-bit seeds; the mapping is
    pure arithmetic, so it is identical on every platform.  Both arguments
    must be integers: a bool, float or str is a TypeError.
    """
    base_seed, index = _integer(base_seed, "seed"), _integer(index, "stream index")
    return _splitmix64((base_seed + (index + 1) * _SPLITMIX_GOLDEN) & _MASK64)


class RandomStream:
    """Seeded deterministic random source.

    Uniform doubles come straight from the PCG64 bit stream:
    ``u = ((raw >> 11) + 1) * 2**-53``, which lies in (0, 1].  Standard
    normals use the basic Box-Muller transform on consecutive uniform pairs
    (``z0 = sqrt(-2 ln u1) cos(2 pi u2)``, ``z1 = ... sin(...)``); a request
    for k normals always consumes ``2 * ceil(k / 2)`` uniforms.  Both
    transforms are fixed here, and the uniforms are integer arithmetic, so
    a seed gives the same uniforms everywhere.  The normals go through
    numpy's ``log``/``cos``/``sin``, whose vectorized kernels may round
    differently on another CPU or numpy build; ``tests/test_golden.py`` pins
    the first normals of seed 1 where it was generated.

    ``skip_normals(k)`` moves the stream to where ``normals(k)`` leaves it,
    by ``PCG64.advance`` over the same ``2 * ceil(k / 2)`` draws, without
    computing any normal; zero-noise sensing uses it.
    """

    def __init__(self, seed: int):
        self.seed = _integer(seed, "seed") & _MASK64
        self._bits = np.random.PCG64(self.seed)

    def uniforms(self, count: int) -> np.ndarray:
        """`count` doubles uniform on (0, 1]."""
        raw = self._bits.random_raw(count)
        return ((raw >> np.uint64(11)) + np.uint64(1)) * 2.0**-53

    def normals(self, count: int) -> np.ndarray:
        """`count` standard normal samples (Box-Muller pairs)."""
        pairs = (count + 1) // 2
        u = self.uniforms(2 * pairs)
        u1, u2 = u[0::2], u[1::2]
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        z = np.empty(2 * pairs)
        z[0::2] = radius * np.cos(angle)
        z[1::2] = radius * np.sin(angle)
        return z[:count]

    def skip_normals(self, count: int) -> None:
        """Advance the stream exactly as `normals(count)` would, drawing
        nothing.  Only 64-bit raw draws are ever taken, so the 32-bit
        buffer that ``advance`` resets is never in use."""
        self._bits.advance(2 * ((count + 1) // 2))


# --------------------------------------------------------------------------
# Dynamics
# --------------------------------------------------------------------------


def fold(terms):
    """The left fold ``(t0 + t1) + t2 + ...`` of the arrays `terms`: the
    in-order sum behind every pinned sum (a batch row against the row
    alone, an array pass against its per-agent oracle).  numpy's reductions
    add in index order only below eight terms, and pairwise from there on,
    so a sum of unbounded length, or one that must match another sum's
    order whatever the layout, folds here."""
    return functools.reduce(np.add, terms)


def inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis: the products w = a * b in one
    pass, then their left fold over the components, the order `fold` adds
    in, written as a plain loop because the MPC horizon passes call this on
    small arrays, where `fold`'s generator costs more than an add.  For the
    short axes used here (m = 1-4 are tested) this equals
    ``(a * b).sum(axis=-1)`` bit for bit, whatever the memory layout, up to
    the sign of a zero sum (the reduction starts from +0.0), at a fraction
    of the cost of a reduction over a length-m axis."""
    w = np.asarray(a) * b
    out = w[..., 0]
    for k in range(1, w.shape[-1]):
        out = out + w[..., k]
    return out


def sq_norm(v: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Squared Euclidean norm over the last axis, the `inner` product of v
    with itself: ``(v * v).sum(axis=-1)`` bit for bit, as a square is never
    -0.0."""
    out = inner(v, v)
    return out[..., None] if keepdims else out


def clamp_norm(vectors: np.ndarray, max_norm: float) -> np.ndarray:
    """Radially project each vector along the last axis of (..., m)
    `vectors` onto the ball of a positive max_norm; a vector inside it, or
    with a NaN norm (np.fmax ignores a NaN), is scaled by exactly 1.  The
    result is a new array: where no vector is over max_norm it is a float64
    copy."""
    v = np.asarray(vectors, dtype=np.float64)
    out = clamped(v, max_norm)
    return v.copy() if out is v else out


def clamped(v: np.ndarray, max_norm: float) -> np.ndarray:
    """`clamp_norm` of a float64 array v that the caller owns, such as a
    temporary, without the copy: v itself where no vector is over
    max_norm."""
    norms = np.sqrt(sq_norm(v, keepdims=True))
    if not np.count_nonzero(norms > max_norm):
        return v
    return v * (max_norm / np.fmax(norms, max_norm))


def step_dynamics(
    config: FlockConfiguration, accel, limits: MotionLimits
) -> FlockConfiguration:
    """Advance every agent one step.

    Accelerations are projected onto the a_max ball, the new velocity
    ``v + dt * a`` is projected onto the v_max ball, and positions advance
    with the *current* velocity: ``x' = x + dt * v``.
    """
    a = np.asarray(accel, dtype=np.float64)
    if a.shape != config.positions.shape:
        raise ValueError(
            f"acceleration shape {a.shape} does not match configuration "
            f"shape {config.positions.shape}"
        )
    a = clamp_norm(a, limits.a_max)
    new_vel = clamp_norm(config.velocities + limits.dt * a, limits.v_max)
    new_pos = config.positions + limits.dt * config.velocities
    return FlockConfiguration(new_pos, new_vel)


# --------------------------------------------------------------------------
# Proximity structure
# --------------------------------------------------------------------------


def pairwise_distances(positions: np.ndarray) -> np.ndarray:
    """Dense (..., n, n) Euclidean distance matrices, sqrt(sq_norm(x_i -
    x_j)), of (..., n, m) positions: the squared differences of each
    component in turn, folded as sq_norm folds, so a stack's slices are
    the matrices of its configurations, bit for bit, and no temporary is
    larger than the result."""
    x = np.ascontiguousarray(np.moveaxis(positions, -1, 0), dtype=np.float64)
    diffs = (c[..., :, None] - c[..., None, :] for c in x)
    dist = fold(np.multiply(d, d, out=d) for d in diffs)
    return np.sqrt(dist, out=dist)


def neighbors(config: FlockConfiguration, i: int, r: float) -> set:
    """Indices of agents strictly closer than r to agent i."""
    i = _agent_index(i)
    if not 0 <= i < config.n:
        raise IndexError(f"agent index {i} out of range for n={config.n}")
    if not r > 0:
        raise ValueError("interaction radius must be positive")
    diff = config.positions - config.positions[i]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    close = np.nonzero(dist < r)[0]
    return {int(j) for j in close if j != i}


def proximity_net(config: FlockConfiguration, r: float) -> ProximityNet:
    """Build the proximity net: edge {i, j} iff ||x_i - x_j|| < r (strict)."""
    if not r > 0:
        raise ValueError("interaction radius must be positive")
    dist = pairwise_distances(config.positions)
    ii, jj = np.nonzero(dist < r)
    edges = frozenset((int(a), int(b)) for a, b in zip(ii, jj) if a < b)
    return ProximityNet(n=config.n, r=r, edges=edges)


def is_quasi_alpha_lattice(
    config: FlockConfiguration, r: float, d: float, delta: float
) -> bool:
    """True iff every neighboring pair sits within delta of the scale d.

    delta = 0 tests an exact lattice; a configuration with no edges is
    vacuously regular.
    """
    if not d > 0:
        raise ValueError("lattice scale d must be positive")
    if not delta >= 0:
        raise ValueError("tolerance delta must be nonnegative")
    if not r > 0:
        raise ValueError("interaction radius must be positive")
    dist = pairwise_distances(config.positions)
    np.fill_diagonal(dist, np.inf)  # an agent is not its own neighbor
    return bool((np.abs(dist[dist < r] - d) <= delta).all())


# --------------------------------------------------------------------------
# Sensing noise
# --------------------------------------------------------------------------


def _noisy(true, sigma, z):
    """The sensing noise rule: ``true + sigma * z`` for sigma > 0, else
    `true` itself, exact."""
    return true + sigma * z if sigma > 0 else true


def sense_global(
    config: FlockConfiguration, noise: NoiseSpec, rng: RandomStream
) -> FlockConfiguration:
    """One shared noisy measurement of every agent (centralized sensing).

    Every position component gets an independent Gaussian(0, sigma_x)
    perturbation and every velocity component a Gaussian(0, sigma_v) one,
    freshly sampled per call.  Each call draws 2*n*m standard normals,
    consumed agent-ascending, position block before velocity block,
    component-ascending, whatever the noise level, so runs with different
    sigmas stay step-aligned; at zero noise the stream is advanced by that
    count without computing the normals, and the configuration itself is
    returned.
    """
    n, m = config.n, config.dimension
    if noise.is_zero:
        rng.skip_normals(2 * n * m)
        return config
    z = rng.normals(2 * n * m).reshape(n, 2, m)
    return FlockConfiguration(
        _noisy(config.positions, noise.sigma_x, z[:, 0]),
        _noisy(config.velocities, noise.sigma_v, z[:, 1]),
    )


def sense_local(
    config: FlockConfiguration, i: int, noise: NoiseSpec, rng: RandomStream
) -> FlockConfiguration:
    """Agent i's noisy view: everyone perturbed except agent i itself.

    Each observing agent gets independent draws; the stream consumption
    (2*n*m samples) and ordering match sense_global, with agent i's own row
    left exact.  Unlike sense_global and sense_local_all, it draws the
    normals even at zero noise: it is the reference those skips are tested
    against.
    """
    i = _agent_index(i)
    n, m = config.n, config.dimension
    if not 0 <= i < n:
        raise IndexError(f"agent index {i} out of range for n={n}")
    z = rng.normals(2 * n * m).reshape(n, 2, m)
    pos = np.array(_noisy(config.positions, noise.sigma_x, z[:, 0]))
    vel = np.array(_noisy(config.velocities, noise.sigma_v, z[:, 1]))
    pos[i], vel[i] = config.positions[i], config.velocities[i]
    return FlockConfiguration(pos, vel)


class StackedViews:
    """Observers' (B, n, m) views, row k being observer agents[k]'s view of
    all n agents ((n, n, m) and agent i's for agents None), copied once into
    C-ordered component-major (m, n, B) arrays x and v, with each observer's
    own state own_x/own_v (m, 1, B), offsets diff = x_j - x_i (m, n, B),
    squares sq (the `fold` of diff's components, sq_norm's order) and
    distances dist (n, B).  Every pass over them runs inner loops B long,
    over the observers, not m = 2 long, and `neighbor_sum` reduces over j,
    never the innermost axis, in order.  Only mask(radius) is (B, n), a
    transposed view; `by_observer` gives a per-observer result as (B, m).
    Observers must be integers: any other dtype is a TypeError.  Views of
    no agent or no dimension are a ValueError, as in `FlockConfiguration`."""

    def __init__(self, positions, velocities, agents=None):
        pos = np.asarray(positions, dtype=np.float64)
        vel = np.asarray(velocities, dtype=np.float64)
        own = None if agents is None else np.asarray(agents)
        if own is not None:
            if own.size and own.dtype.kind not in "iu":
                raise TypeError(f"agent indices must be integers, got {own.dtype}")
            own = own.astype(np.int64)
        rows = pos.shape[1:2] if own is None else own.shape
        if pos.ndim != 3 or vel.shape != pos.shape or pos.shape[:1] != rows:
            raise ValueError(
                f"views must be matching {'(n, n, m)' if own is None else '(B, n, m)'}"
                f" arrays, got {pos.shape} and {vel.shape}"
            )
        n = pos.shape[1]
        if not n or not pos.shape[2]:
            raise ValueError("need at least one agent and one dimension")
        if own is None:
            own = np.arange(n)
        elif ((own < 0) | (own >= n)).any():
            bad = own[(own < 0) | (own >= n)][0]
            raise IndexError(f"agent index {bad} out of range for n={n}")
        self.agents, self._rows = own, np.arange(own.size)
        self.x = np.ascontiguousarray(pos.transpose(2, 1, 0))
        self.v = np.ascontiguousarray(vel.transpose(2, 1, 0))
        self.own_x = self.x[:, own, self._rows][:, None]
        self.own_v = self.v[:, own, self._rows][:, None]
        self.diff = self.x - self.own_x
        self.sq = fold(d * d for d in self.diff)
        self.dist = np.sqrt(self.sq)

    def mask(self, radius):
        """(B, n) neighbor mask: the strict < radius test, with every
        observer's own cell cleared; a view of an (n, B) array."""
        mask = self.dist < radius
        mask[self.agents, self._rows] = False
        return mask.T

    def neighbor_sum(self, mask, x):
        """Each observer's sum of x, (m, n, B) and built from this stack,
        over the agents its (B, n) mask holds, as (m, 1, B): a sequential
        reduce over j ascending, the per-agent sums' order.  That needs
        B > 1 or n = 1, as in every stack of all n observers: numpy drops a
        unit B axis, which would make j innermost and its sum pairwise."""
        return np.where(mask.T, x, 0.0).sum(axis=1, keepdims=True)

    def by_observer(self, a):
        """Per-observer vectors a, (m, 1, B), as a C-ordered (B, m) array."""
        return np.ascontiguousarray(a[:, 0].T)


def sense_local_all(config: FlockConfiguration, noise: NoiseSpec, rng: RandomStream):
    """Every observer's noisy view in one pass, as (n, n, m) position and
    velocity arrays whose row i equals ``sense_local(config, i, ...)``.

    One draw of n * 2*n*m normals is the concatenation of the n per-call
    blocks of successive ``sense_local`` calls for i = 0..n-1, so the
    views and the stream afterwards are exactly theirs.  Unperturbed
    components are read-only broadcasts of the true state; at zero noise
    the stream is advanced by the same count without computing the
    normals.
    """
    n, m = config.n, config.dimension
    if noise.is_zero:
        rng.skip_normals(n * 2 * n * m)
        exact = np.broadcast_to(config.positions, (n, n, m))
        return exact, np.broadcast_to(config.velocities, (n, n, m))
    z = rng.normals(n * 2 * n * m).reshape(n, n, 2, m)
    own = np.arange(n)

    def views(true, sigma, block):
        out = _noisy(true, sigma, block)
        if out is true:
            return np.broadcast_to(true, (n, n, m))
        if not np.isfinite(out).all():
            raise ValueError("positions/velocities must be finite")
        out[own, own] = true
        return out

    return (
        views(config.positions, noise.sigma_x, z[:, :, 0]),
        views(config.velocities, noise.sigma_v, z[:, :, 1]),
    )
