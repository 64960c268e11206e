"""
Flocking performance measures, computed per configuration.

A sub-flock is a connected component of the proximity net.  Four measures
are reported per step: number of components (fragmentation), maximum
component diameter (cohesion; None when all agents are isolated, 0 for a
component of coincident agents), velocity convergence (mean squared
deviation from the component-mean velocity, averaged over components) and
irregularity (mean per-component sample std dev of nearest-neighbor
distances; 0 when no component has two members).

`evaluate_metrics` computes one distance matrix per configuration and
labels the components from its ``< r`` test by array min-label propagation.
It then makes one pass over the components: each component with two or
more members gathers its distance block from that matrix once, and its
diameter and nearest-neighbor distances both come from that block.
`connected_components` uses the same labeller.  The public per-measure
functions take a configuration and a component list and run the same
per-component pass.

The closed loop evaluates these measures on the true state, never on a
sensed view, so sensing noise reaches them only through the controls.  At
zero noise the sensing computes no normals at all: it advances the random
stream by the noisy call's count (see ``core.sense_global``).

`MetricsRecord` is the one statement of the measures: its fields, in order,
are the metric columns of every result file, and each field's metadata
carries its chart title.
"""

from __future__ import annotations

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
]


@dataclass(frozen=True)
class MetricsRecord:
    num_components: int = field(metadata={"title": "number of components"})
    max_diameter: float | None = field(metadata={"title": "max component diameter"})
    velocity_convergence: float = field(metadata={"title": "velocity convergence"})
    irregularity: float = field(metadata={"title": "irregularity"})

    def __post_init__(self):
        if self.num_components < 1:
            raise ValueError("num_components must be at least 1")
        if self.max_diameter is not None and self.max_diameter < 0:
            raise ValueError("max_diameter must be nonnegative or None")
        if self.velocity_convergence < 0 or self.irregularity < 0:
            raise ValueError("velocity_convergence and irregularity are nonnegative")


def _component_labels(adjacency: np.ndarray) -> np.ndarray:
    """Label every agent with the smallest member of its connected component.

    `adjacency` is a symmetric (n, n) boolean matrix whose diagonal is set.
    Each round gives every agent the smallest label among its neighbors and
    then the label of that label (pointer jumping); labels only shrink and
    always name a member of the component, so at the fixed point each
    component carries its smallest member, and the roots are the agents
    with ``labels == arange(n)``.
    """
    n = adjacency.shape[0]
    labels = np.arange(n)
    while True:
        spread = np.where(adjacency, labels, n).min(axis=1)
        spread = spread[spread]
        if np.array_equal(spread, labels):
            return labels
        labels = spread


def connected_components(net: ProximityNet) -> list:
    """Partition agent indices into connected components of the net.

    Output is a list of sets ordered by each component's smallest member.
    """
    adjacency = np.eye(net.n, dtype=bool)
    for i, j in net.edges:
        adjacency[i, j] = adjacency[j, i] = True
    labels = _component_labels(adjacency)
    roots = np.flatnonzero(labels == np.arange(net.n))
    return [set(np.flatnonzero(labels == root).tolist()) for root in roots]


# The measures below take the components with two or more members, each as
# ascending indices, in the order of their smallest members: a singleton
# adds only to the component count.


def _groups(components) -> list:
    return [np.array(sorted(comp)) for comp in components if len(comp) >= 2]


def _component_measures(dist: np.ndarray, vel: np.ndarray, idx: np.ndarray):
    """Diameter, mean squared deviation from the mean velocity, and sample
    std dev of the nearest-neighbor distances of one component.

    The component's distance block is gathered once and serves both the
    diameter and the nearest neighbors.  The means and the std dev are
    numpy's own operations in numpy's order (sum / k, then the square root
    of the sum of squared deviations / (k - 1)), so they equal
    ``mean(axis=0)`` and ``std(ddof=1)`` bit for bit.
    """
    k = len(idx)
    block = dist[idx[:, None], idx]
    diameter = float(block.max())
    v = vel[idx]
    dev = v - v.sum(axis=0) / k
    spread = float((dev * dev).sum()) / k
    np.fill_diagonal(block, np.inf)
    nearest = block.min(axis=1)
    dev = nearest - nearest.sum() / k
    return diameter, spread, float(np.sqrt((dev * dev).sum() / (k - 1)))


def _measures(dist: np.ndarray, vel: np.ndarray, groups: list, num_components: int):
    """Max diameter, velocity convergence and irregularity, from one pass
    over the components with two or more members."""
    if not groups:
        return None, 0.0, 0.0
    diameters, spreads, stds = zip(
        *(_component_measures(dist, vel, idx) for idx in groups)
    )
    return max(diameters), sum(spreads) / num_components, sum(stds) / len(stds)


def _measures_of(config: FlockConfiguration, components: list):
    dist = pairwise_distances(config.positions)
    return _measures(dist, config.velocities, _groups(components), len(components))


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
    if not r > 0:
        raise ValueError("interaction radius must be positive")
    dist = pairwise_distances(config.positions)
    labels = _component_labels(dist < r)
    sizes = np.bincount(labels)  # nonzero at the roots, labels == arange(n)
    num_components = int(np.count_nonzero(sizes))
    groups = [np.flatnonzero(labels == root) for root in np.flatnonzero(sizes > 1)]
    return MetricsRecord(
        num_components, *_measures(dist, config.velocities, groups, num_components)
    )
