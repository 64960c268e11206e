import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flockbench import (
    FlockConfiguration,
    connected_components,
    evaluate_metrics,
    evaluate_metrics_block,
    irregularity,
    max_component_diameter,
    proximity_net,
    velocity_convergence,
)
from flockbench.core import pairwise_distances
from flockbench.metrics import MetricsRecord, _component_measures
from conftest import hexagonal_patch, random_config


def config(pos, vel=None):
    pos = np.asarray(pos, dtype=float)
    vel = np.zeros_like(pos) if vel is None else np.asarray(vel, dtype=float)
    return FlockConfiguration(pos, vel)


def components_of(cfg, r=8.4):
    return connected_components(proximity_net(cfg, r))


# --------------------------------------------------------------------------
# connected components
# --------------------------------------------------------------------------


def test_two_distant_agents_are_singletons():
    comps = components_of(config([[0, 0], [100, 0]]))
    assert comps == [{0}, {1}]


def test_chain_is_one_component():
    comps = components_of(config([[0, 0], [5, 0], [10, 0]]))
    assert comps == [{0, 1, 2}]


def test_complete_graph_single_component():
    comps = components_of(config([[0, 0], [1, 0], [0, 1], [1, 1]]))
    assert comps == [{0, 1, 2, 3}]


def test_components_ordered_by_smallest_member():
    comps = components_of(config([[100, 0], [0, 0], [101, 0]]))
    assert comps == [{0, 2}, {1}]


def _brute_force_components(cfg, r):
    n = cfg.n
    reach = np.zeros((n, n), dtype=bool)
    for i in range(n):
        reach[i, i] = True
        for j in range(n):
            if i != j and np.linalg.norm(cfg.positions[i] - cfg.positions[j]) < r:
                reach[i, j] = True
    for k in range(n):  # transitive closure
        reach |= reach[:, k][:, None] & reach[k, :][None, :]
    seen, comps = set(), []
    for i in range(n):
        if i in seen:
            continue
        comp = {j for j in range(n) if reach[i, j]}
        seen |= comp
        comps.append(comp)
    return comps


def test_components_match_transitive_closure_oracle(np_rng):
    for _ in range(300):
        cfg = random_config(np_rng, n=int(np_rng.integers(1, 21)), span=12.0)
        r = float(np_rng.uniform(1.0, 15.0))
        assert components_of(cfg, r) == _brute_force_components(cfg, r)


def _bfs_components(cfg, r):
    n = cfg.n
    adjacent = [
        [j for j in range(n) if j != i
         and np.linalg.norm(cfg.positions[i] - cfg.positions[j]) < r]
        for i in range(n)
    ]
    label = [None] * n
    comps = []
    for start in range(n):
        if label[start] is not None:
            continue
        label[start] = start
        comp, queue = {start}, [start]
        while queue:
            for j in adjacent[queue.pop(0)]:
                if label[j] is None:
                    label[j] = start
                    comp.add(j)
                    queue.append(j)
        comps.append(comp)
    return comps


def _oracle_flocks(np_rng):
    yield config([[0, 0]]), 8.4
    yield config(np.arange(12.0)[:, None] * [20.0, 0.0]), 8.4  # all isolated
    for _ in range(5):  # one chain, agents in shuffled order
        n = int(np_rng.integers(2, 31))
        along = np_rng.permutation(n) * 5.0
        yield config(np.stack([along, np.zeros(n)], axis=1)), 8.4
    for _ in range(200):
        cfg = random_config(np_rng, n=int(np_rng.integers(1, 31)), span=15.0)
        yield cfg, float(np_rng.uniform(1.0, 15.0))


def test_component_labels_match_bfs(np_rng):
    # connected_components and evaluate_metrics share one array labeller
    for cfg, r in _oracle_flocks(np_rng):
        comps = _bfs_components(cfg, r)
        assert components_of(cfg, r) == comps
        assert evaluate_metrics(cfg, r) == MetricsRecord(
            num_components=len(comps),
            max_diameter=max_component_diameter(cfg, comps),
            velocity_convergence=velocity_convergence(cfg, comps),
            irregularity=irregularity(cfg, comps),
        )


def _two_gather_record(cfg, r):
    # each measure on its own gather of the component's distance block,
    # through numpy's mean(axis=0) and std(ddof=1)
    comps = _bfs_components(cfg, r)
    dist = pairwise_distances(cfg.positions)
    diameter, convergence, stds = None, 0.0, []
    for idx in (np.array(sorted(c)) for c in comps if len(c) >= 2):
        diam = float(dist[idx[:, None], idx].max())
        diameter = diam if diameter is None else max(diameter, diam)
        v = cfg.velocities[idx]
        dev = v - v.mean(axis=0)
        convergence += float((dev * dev).sum()) / len(idx)
        sub = dist[idx[:, None], idx]
        np.fill_diagonal(sub, np.inf)
        stds.append(float(sub.min(axis=1).std(ddof=1)))
    return MetricsRecord(
        num_components=len(comps),
        max_diameter=diameter,
        velocity_convergence=convergence / len(comps),
        irregularity=sum(stds) / len(stds) if stds else 0.0,
    )


def _assert_matches_two_gathers(cfg, r):
    expected = _two_gather_record(cfg, r)
    assert evaluate_metrics(cfg, r) == expected
    comps = components_of(cfg, r)
    assert max_component_diameter(cfg, comps) == expected.max_diameter
    assert velocity_convergence(cfg, comps) == expected.velocity_convergence
    assert irregularity(cfg, comps) == expected.irregularity


@st.composite
def _grid_flocks(draw):
    # agents on an integer grid share cells (coincident agents); the
    # spacing runs from one blob holding every agent to all isolated
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(-3, 3), min_size=n * m, max_size=n * m))
    spacing = draw(st.sampled_from([0.0, 1.5, 4.0, 9.0, 100.0]))
    pos = np.array(cells, dtype=float).reshape(n, m) * spacing
    if draw(st.booleans()):
        pos += np.array(draw(st.lists(
            st.floats(-0.5, 0.5), min_size=n * m, max_size=n * m
        ))).reshape(n, m)
    vel = np.array(draw(st.lists(
        st.floats(-8.0, 8.0), min_size=n * m, max_size=n * m
    ))).reshape(n, m)
    return FlockConfiguration(pos, vel), draw(st.sampled_from([2.0, 8.4]))


@settings(max_examples=300, deadline=None)
@given(_grid_flocks())
def test_component_pass_matches_two_gathers(flock):
    _assert_matches_two_gathers(*flock)


@pytest.mark.parametrize(
    "pos, sizes",
    [
        ([[0, 0]], [1]),  # n = 1
        ([[0, 0], [100, 0], [200, 0]], [1, 1, 1]),  # every agent isolated
        ([[1, 2], [1, 2], [1, 2]], [3]),  # coincident agents
        ([[0, 0], [0, 0], [50, 0], [53, 1], [100, 0]], [2, 2, 1]),  # singletons
        ([[0, 0], [3, 0], [7, 0], [9, 4], [2, 6]], [5]),  # one component
    ],
)
def test_component_pass_matches_two_gathers_on_named_cases(np_rng, pos, sizes):
    cfg = config(pos, np_rng.uniform(-5, 5, (len(pos), 2)))
    assert [len(c) for c in components_of(cfg)] == sizes
    _assert_matches_two_gathers(cfg, 8.4)


# --------------------------------------------------------------------------
# max component diameter
# --------------------------------------------------------------------------


def test_diameter_of_chain():
    cfg = config([[0, 0], [5, 0], [10, 0]])
    assert max_component_diameter(cfg, components_of(cfg)) == pytest.approx(10.0)


def test_diameter_none_when_all_isolated():
    cfg = config([[0, 0], [100, 0], [200, 0]])
    assert max_component_diameter(cfg, components_of(cfg)) is None


def test_diameter_takes_max_over_components():
    # component A: two agents 4 apart; component B: chain spanning 9
    cfg = config([[0, 0], [4, 0], [100, 0], [104.5, 0], [109, 0]])
    assert max_component_diameter(cfg, components_of(cfg)) == pytest.approx(9.0)


# --------------------------------------------------------------------------
# velocity convergence
# --------------------------------------------------------------------------


def test_vc_zero_when_all_velocities_equal(np_rng):
    cfg = random_config(np_rng, n=6, span=3.0)
    same = FlockConfiguration(cfg.positions, np.tile([1.5, -2.0], (6, 1)))
    assert velocity_convergence(same, components_of(same)) == 0.0


def test_vc_two_agent_example():
    cfg = config([[0, 0], [2, 0]], [[0, 0], [2, 0]])
    assert velocity_convergence(cfg, components_of(cfg)) == pytest.approx(1.0)


def test_vc_absorbs_per_component_headings():
    cfg = config(
        [[0, 0], [2, 0], [100, 0], [102, 0]],
        [[1, 0], [1, 0], [0, 3], [0, 3]],
    )
    assert velocity_convergence(cfg, components_of(cfg)) == 0.0


def test_vc_zero_iff_identical_within_components(np_rng):
    cfg = config([[0, 0], [2, 0]], [[1, 0], [1, 1e-6]])
    assert velocity_convergence(cfg, components_of(cfg)) > 0.0


# --------------------------------------------------------------------------
# irregularity
# --------------------------------------------------------------------------


def test_irregularity_zero_on_exact_lattice():
    cfg = config(hexagonal_patch())
    assert irregularity(cfg, components_of(cfg)) == 0.0


def test_irregularity_zero_on_square_grid():
    # nearest neighbor of every vertex is the grid edge length
    e = 3.0
    pts = [(i * e, j * e) for i in range(3) for j in range(3)]
    cfg = config(pts)
    assert irregularity(cfg, components_of(cfg, r=1.2 * e)) == 0.0


def test_irregularity_collinear_example():
    cfg = config([[0, 0], [3, 0], [7, 0]])
    # nearest-neighbor multiset {3, 3, 4}: sample std dev sqrt(1/3)
    value = irregularity(cfg, components_of(cfg))
    assert value == pytest.approx(np.sqrt(1.0 / 3.0))


def test_irregularity_zero_when_all_isolated():
    cfg = config([[0, 0], [100, 0], [200, 0]])
    assert irregularity(cfg, components_of(cfg)) == 0.0


def test_irregularity_two_agent_component_is_zero():
    cfg = config([[0, 0], [3, 0]])
    assert irregularity(cfg, components_of(cfg)) == 0.0


def test_irregularity_averages_across_components():
    # one perfectly regular pair plus the {3,3,4} chain from above
    cfg = config([[0, 0], [3, 0], [7, 0], [100, 0], [103, 0]])
    value = irregularity(cfg, components_of(cfg))
    assert value == pytest.approx(0.5 * np.sqrt(1.0 / 3.0))


# --------------------------------------------------------------------------
# joint invariants
# --------------------------------------------------------------------------


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_metrics_invariant_under_rigid_motion(np_rng):
    for _ in range(50):
        cfg = random_config(np_rng, span=10.0)
        rot = _rotation(float(np_rng.uniform(0, 2 * np.pi)))
        shift = np_rng.uniform(-50, 50, 2)
        moved = FlockConfiguration(
            cfg.positions @ rot.T + shift, cfg.velocities @ rot.T
        )
        a = evaluate_metrics(cfg, 8.4)
        b = evaluate_metrics(moved, 8.4)
        assert a.num_components == b.num_components
        if a.max_diameter is None:
            assert b.max_diameter is None
        else:
            assert b.max_diameter == pytest.approx(a.max_diameter, rel=1e-9)
        assert b.velocity_convergence == pytest.approx(
            a.velocity_convergence, rel=1e-9, abs=1e-12
        )
        assert b.irregularity == pytest.approx(a.irregularity, rel=1e-9, abs=1e-12)


def test_vc_invariant_under_common_velocity_shift(np_rng):
    cfg = random_config(np_rng, span=5.0)
    comps = components_of(cfg)
    shifted = FlockConfiguration(cfg.positions, cfg.velocities + [10.0, -4.0])
    assert velocity_convergence(shifted, comps) == pytest.approx(
        velocity_convergence(cfg, comps), rel=1e-9
    )


def test_all_isolated_equivalences(np_rng):
    for _ in range(50):
        n = int(np_rng.integers(1, 8))
        cfg = random_config(np_rng, n=n, span=200.0)
        rec = evaluate_metrics(cfg, 2.0)
        all_isolated = rec.num_components == n
        assert (rec.max_diameter is None) == all_isolated
        if all_isolated:
            assert rec.irregularity == 0.0


@pytest.mark.parametrize("r", [0.0, -1.0, float("nan")])
def test_evaluate_metrics_rejects_invalid_radius(r):
    with pytest.raises(ValueError):
        evaluate_metrics(config([[0, 0], [5, 0]]), r)


def test_metrics_record_validation():
    with pytest.raises(ValueError):
        MetricsRecord(0, None, 0.0, 0.0)
    with pytest.raises(ValueError):
        MetricsRecord(1, None, -1.0, 0.0)
    assert MetricsRecord(1, 0.0, 0.0, 0.0).max_diameter == 0.0
    with pytest.raises(ValueError):
        MetricsRecord(1, -1.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "values",
    [
        (1, float("nan"), 0.0, 0.0),
        (1, float("inf"), 0.0, 0.0),
        (1, None, float("nan"), 0.0),
        (1, None, float("inf"), 0.0),
        (1, None, 0.0, float("nan")),
        (1, None, 0.0, float("inf")),
        (1, float("nan"), float("nan"), float("inf")),
    ],
)
def test_metrics_record_rejects_a_non_finite_measure(values):
    with pytest.raises(ValueError):
        MetricsRecord(*values)


@pytest.mark.parametrize("count", [2.5, 2.0, "2"])
def test_metrics_record_rejects_a_count_that_is_not_an_integer(count):
    with pytest.raises(TypeError):
        MetricsRecord(count, None, 0.0, 0.0)
    assert MetricsRecord(np.int64(2), None, 0.0, 0.0).num_components == 2


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
@pytest.mark.parametrize("field", range(4))
def test_metrics_record_rejects_a_bool_in_any_field(field, flag):
    # write_steps_csv would fail on it midway through a file, or write "True"
    values = [1, 0.0, 0.0, 0.0]
    values[field] = flag
    with pytest.raises(TypeError):
        MetricsRecord(*values)


def test_coincident_agents_have_zero_diameter():
    rec = evaluate_metrics(config([[1.0, 2.0], [1.0, 2.0]]), 8.4)
    assert rec == MetricsRecord(1, 0.0, 0.0, 0.0)


# --------------------------------------------------------------------------
# the block pass
# --------------------------------------------------------------------------


def _clusters(rng, sizes, m, jitter=2.0):
    """Far-apart clusters of the given sizes, each one component at r = 8.4
    (jitter 0 makes every cluster coincident), agents shuffled so that the
    members of a component are not adjacent indices."""
    pos = rng.uniform(-jitter, jitter, (sum(sizes), m))
    pos[:, 0] += np.repeat(np.arange(len(sizes)) * 100.0, sizes)
    return pos[rng.permutation(len(pos))]


def _cluster_sizes(rng, n):
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(int(rng.integers(1, 7)), n - sum(sizes)))
    return sizes


def _step_positions(rng, n, m, kind):
    if kind == "uniform":
        return rng.uniform(-15.0, 15.0, (n, m))
    if kind == "isolated":
        return _clusters(rng, [1] * n, m)
    return _clusters(rng, _cluster_sizes(rng, n), m, jitter=0.0 if kind == "coincident" else 2.0)


def _per_measure_record(cfg, r):
    comps = components_of(cfg, r)
    return MetricsRecord(
        len(comps),
        max_component_diameter(cfg, comps),
        velocity_convergence(cfg, comps),
        irregularity(cfg, comps),
    )


def _assert_block_matches_slices(positions, velocities, r=8.4):
    records = evaluate_metrics_block(positions, velocities, r)
    assert len(records) == len(positions)
    for pos, vel, record in zip(positions, velocities, records):
        cfg = FlockConfiguration(pos, vel)
        assert record == evaluate_metrics(cfg, r)
        assert record == _per_measure_record(cfg, r)
    return records


@pytest.mark.parametrize("m", [1, 2, 3])
def test_block_pass_equals_evaluate_metrics_slice_by_slice(np_rng, m):
    kinds = ["uniform", "clusters", "coincident", "isolated"]
    seen = []
    for n in (1, 2, 7, 30, 45):
        for _ in range(4):
            steps = int(np_rng.integers(1, 10))
            positions = np.stack([
                _step_positions(np_rng, n, m, kinds[int(np_rng.integers(4))])
                for _ in range(steps)
            ])
            velocities = np_rng.normal(0.0, 2.0, positions.shape)
            seen += _assert_block_matches_slices(positions, velocities)
    assert any(record.max_diameter is None for record in seen)  # all isolated
    assert any(record.max_diameter == 0.0 for record in seen)  # coincident
    assert any(record.num_components >= 8 for record in seen)


def test_block_pass_sums_a_steps_components_in_order(np_rng):
    # a step of a dozen far-apart pairs and triples: numpy would sum its
    # twelve spreads or std devs pairwise, which rounds otherwise here
    for _ in range(20):
        sizes = [int(k) for k in np_rng.integers(2, 4, 12)]
        pos = _clusters(np_rng, sizes, 2)
        vel = np_rng.normal(0.0, 2.0, pos.shape)
        comps = components_of(FlockConfiguration(pos, vel))
        assert len(comps) == 12
        dist = pairwise_distances(pos)
        values = [_component_measures(dist, vel, np.array(sorted(c))) for c in comps]
        _, spreads, stds = (list(column) for column in zip(*values))
        if sum(spreads) != np.sum(spreads) and sum(stds) != np.sum(stds):
            break
    else:
        pytest.fail("no draw where a pairwise sum rounds otherwise")
    uniform = np_rng.uniform(-15.0, 15.0, pos.shape)
    positions, velocities = np.stack([uniform, pos]), np.stack([vel, vel])
    record = _assert_block_matches_slices(positions, velocities)[1]
    assert record.velocity_convergence == sum(spreads) / 12
    assert record.irregularity == sum(stds) / 12


def test_block_pass_takes_integer_stacks(np_rng):
    positions = np_rng.integers(-6, 6, size=(4, 9, 2))
    velocities = np_rng.integers(-3, 3, size=(4, 9, 2))
    records = evaluate_metrics_block(positions, velocities, 3.0)
    assert records == evaluate_metrics_block(positions.astype(float), velocities.astype(float), 3.0)
    assert records == _assert_block_matches_slices(positions, velocities, 3.0)


def test_block_pass_rejects_bad_input():
    stack = np.zeros((2, 3, 2))
    with pytest.raises(ValueError):
        evaluate_metrics_block(stack, stack, 0.0)
    with pytest.raises(ValueError):
        evaluate_metrics_block(stack, stack[:, :2], 8.4)
    with pytest.raises(ValueError):
        evaluate_metrics_block(stack[0], stack[0], 8.4)


def _bad_stacks():
    # four singletons at r = 8.4, then one bad entry or an empty axis
    line = np.zeros((2, 4, 2))
    line[:, :, 0] = [0.0, 20.0, 40.0, 60.0]
    inf_position = line.copy()
    inf_position[1, 3, 0] = np.inf
    nan_velocity = np.zeros_like(line)
    nan_velocity[0, 1, 1] = np.nan
    yield pytest.param(inf_position, np.zeros_like(line), id="inf_position")
    yield pytest.param(line, nan_velocity, id="nan_velocity_among_singletons")
    yield pytest.param(np.zeros((2, 3, 0)), np.zeros((2, 3, 0)), id="no_dimension")
    yield pytest.param(np.zeros((2, 0, 2)), np.zeros((2, 0, 2)), id="no_agent")


@pytest.mark.parametrize("positions, velocities", _bad_stacks())
def test_block_pass_rejects_what_a_configuration_rejects(positions, velocities):
    # these used to raise an IndexError, a TypeError or a numpy error, or to
    # return a record with velocity_convergence 0.0; now each raises the
    # ValueError of the first step's configuration that FlockConfiguration
    # rejects
    expected = []
    for pos, vel in zip(positions, velocities):
        try:
            FlockConfiguration(pos, vel)
        except ValueError as error:
            expected.append(str(error))
    with pytest.raises(ValueError) as raised:
        evaluate_metrics_block(positions, velocities, 8.4)
    assert str(raised.value) == expected[0]
