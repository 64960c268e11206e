"""
Flocking performance measures, computed per configuration.

A sub-flock is a connected component of the proximity net.  Four measures
are reported per step: number of components (fragmentation), maximum
component diameter (cohesion; None when all agents are isolated, 0 for a
component of coincident agents), velocity convergence (mean squared
deviation from the component-mean velocity, averaged over components) and
irregularity (mean per-component sample std dev of nearest-neighbor
distances; 0 when no component has two members).

`evaluate_metrics_block` measures S stacked configurations at once, and
`evaluate_metrics` is that pass on a stack of one.  It takes all S distance
matrices in one pass, labels the components of all S nets from their
``< r`` tests by one stacked min-label propagation, and measures all the
components of one size together, each from its gathered distance block.
`connected_components` uses the same labeller.  The public per-measure
functions, the tests' oracles, take a configuration and a component list
and measure one component at a time.

The closed loop evaluates these measures on the true state, never on a
sensed view, so sensing noise reaches them only through the controls.  At
zero noise the sensing computes no normals at all: it advances the random
stream by the noisy call's count (see ``core.sense_global``).

`MetricsRecord` is the one statement of the measures: its fields, in order,
are the metric columns of every result file, and each field's metadata
carries its chart title.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .core import FlockConfiguration, ProximityNet, pairwise_distances

__all__ = [
    "MetricsRecord",
    "connected_components",
    "max_component_diameter",
    "velocity_convergence",
    "irregularity",
    "evaluate_metrics",
    "evaluate_metrics_block",
]


@dataclass(frozen=True)
class MetricsRecord:
    """One configuration's four measures.  A negative or non-finite measure
    is a ValueError, and a bool in any field, or a component count that is
    not an integer, a TypeError."""

    num_components: int = field(metadata={"title": "number of components"})
    max_diameter: float | None = field(metadata={"title": "max component diameter"})
    velocity_convergence: float = field(metadata={"title": "velocity convergence"})
    irregularity: float = field(metadata={"title": "irregularity"})

    def __post_init__(self):
        count, diameter = self.num_components, self.max_diameter
        vc, irr = self.velocity_convergence, self.irregularity
        if not {bool, np.bool_}.isdisjoint(map(type, (count, diameter, vc, irr))):
            raise TypeError("a measure cannot be a bool")
        if operator.index(count) < 1:
            raise ValueError("num_components must be at least 1")
        if diameter is not None and not 0 <= diameter < math.inf:
            raise ValueError("max_diameter must be finite and nonnegative, or None")
        if not (0 <= vc < math.inf and 0 <= irr < math.inf):
            raise ValueError("velocity_convergence and irregularity must be finite, >= 0")


def _component_labels(adjacency: np.ndarray) -> np.ndarray:
    """Label every agent of S stacked nets with the smallest member of its
    connected component, as a flat index ``step * n + agent``.

    `adjacency` is an (S, n, n) stack of symmetric boolean matrices whose
    diagonals are set.  Each round gives every agent the smallest label
    among its neighbors and then the label of that label (pointer
    jumping); labels only shrink and always name a member of the
    component, so each net reaches its one fixed point, where every
    component carries its smallest member (its root), and stays there
    while the other nets finish.
    """
    size = adjacency.shape[0] * adjacency.shape[1]
    labels = np.arange(size).reshape(adjacency.shape[:2])
    while True:
        spread = np.where(adjacency, labels[:, None, :], size).min(axis=2)
        spread = spread.ravel()[spread]
        if (spread == labels).all():
            return labels
        labels = spread


def connected_components(net: ProximityNet) -> list:
    """Partition agent indices into connected components of the net.

    Output is a list of sets ordered by each component's smallest member.
    """
    adjacency = np.eye(net.n, dtype=bool)
    for i, j in net.edges:
        adjacency[i, j] = adjacency[j, i] = True
    labels = _component_labels(adjacency[None])[0]
    roots = np.flatnonzero(labels == np.arange(net.n))
    return [set(np.flatnonzero(labels == root).tolist()) for root in roots]


# The measures below take the components with two or more members, each as
# ascending indices, in the order of their smallest members: a singleton
# adds only to the component count.


def _component_measures(dist: np.ndarray, vel: np.ndarray, idx: np.ndarray):
    """Diameter, mean squared deviation from the mean velocity, and sample
    std dev of the nearest-neighbor distances of one component.

    The component's distance block is gathered once and serves both the
    diameter and the nearest neighbors.
    """
    block = dist[idx[:, None], idx]
    diameter = float(block.max())
    v = vel[idx]
    dev = v - v.mean(axis=0)
    spread = float((dev * dev).sum()) / len(idx)
    np.fill_diagonal(block, np.inf)
    return diameter, spread, float(block.min(axis=1).std(ddof=1))


def _combine(values: list, num_components: int):
    """Max diameter, velocity convergence and irregularity of one step, from
    the (diameter, spread, std dev) of its components with two or more
    members, in the order of their smallest members: Python's in-order
    `max` and `sum`, where numpy would sum eight or more pairwise."""
    if not values:
        return None, 0.0, 0.0
    diameters, spreads, stds = zip(*values)
    return max(diameters), sum(spreads) / num_components, sum(stds) / len(stds)


def _measures_of(config: FlockConfiguration, components: list):
    dist = pairwise_distances(config.positions)
    groups = (np.array(sorted(comp)) for comp in components if len(comp) >= 2)
    values = [_component_measures(dist, config.velocities, idx) for idx in groups]
    return _combine(values, len(components))


def max_component_diameter(
    config: FlockConfiguration, components: list
) -> float | None:
    """Largest pairwise distance inside any component with >= 2 members.

    None when every component is a singleton (the diameter's max runs over
    an empty set in that case).
    """
    return _measures_of(config, components)[0]


def velocity_convergence(config: FlockConfiguration, components: list) -> float:
    """Average over components of the mean squared deviation from the
    component's mean velocity.  Singletons contribute zero."""
    return _measures_of(config, components)[1]


def irregularity(config: FlockConfiguration, components: list) -> float:
    """Mean over non-singleton components of the sample standard deviation
    of each member's nearest-neighbor distance (nearest within the same
    component).  0 when all agents are isolated."""
    return _measures_of(config, components)[2]


def evaluate_metrics(config: FlockConfiguration, r: float) -> MetricsRecord:
    """All four measures of one configuration at interaction radius r."""
    return evaluate_metrics_block(config.positions[None], config.velocities[None], r)[0]


def evaluate_metrics_block(
    positions: np.ndarray, velocities: np.ndarray, r: float
) -> list:
    """`evaluate_metrics` of each slice of S stacked (S, n, m) configurations.

    One `pairwise_distances` and one stacked labelling serve all S steps.
    Then the (step, component) groups of each size k >= 2 are gathered as
    (C, k, ...) arrays and measured at once, as `_component_measures`
    measures one: each sum runs along a contiguous last axis, so it adds in
    the lone group's order.  `_combine` then takes each step's groups.
    """
    if not r > 0:
        raise ValueError("interaction radius must be positive")
    if positions.ndim != 3 or velocities.shape != positions.shape:
        raise ValueError("positions and velocities must be two (S, n, m) stacks")
    steps, n, m = positions.shape
    dist = pairwise_distances(positions)
    labels = _component_labels(dist < r)
    sizes = np.bincount(labels.ravel(), minlength=steps * n)
    roots = np.flatnonzero(sizes)  # step * n + root: by step, then by root
    counts = sizes[roots]
    values = np.empty((len(roots), 3))  # a singleton's row stays unused
    for k in (np.flatnonzero(np.bincount(counts)[2:]) + 2).tolist():
        rows = np.flatnonzero(counts == k)
        root = roots[rows]
        # each group's members, ascending: its step's agents labelled root
        members = np.nonzero(labels[root // n] == root[:, None])[1].reshape(-1, k)
        agents = (root - root % n)[:, None] + members  # (C, k) flat indices
        block = dist.reshape(-1, n)[agents[:, :, None], members[:, None, :]]
        diameter = block.max(axis=(1, 2))
        v = velocities.reshape(-1, m)[agents]
        dev = v - v.sum(axis=1, keepdims=True) / k
        spread = (dev * dev).reshape(len(rows), -1).sum(axis=1) / k
        block.reshape(len(rows), -1)[:, :: k + 1] = np.inf  # the diagonals
        nearest = block.min(axis=2)
        dev = nearest - nearest.sum(axis=1, keepdims=True) / k
        std = np.sqrt((dev * dev).sum(axis=1) / (k - 1))
        values[rows] = np.stack([diameter, spread, std], axis=1)
    grouped = counts > 1
    values = values[grouped].tolist()
    ends = np.cumsum(np.bincount(roots[grouped] // n, minlength=steps)).tolist()
    num_components = np.bincount(roots // n, minlength=steps).tolist()
    return [
        MetricsRecord(count, *_combine(values[lo:hi], count))
        for count, lo, hi in zip(num_components, [0, *ends], ends)
    ]
