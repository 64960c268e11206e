import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flockbench import (
    FlockConfiguration,
    MotionLimits,
    MpcParams,
    NoiseSpec,
    OlfatiSaberParams,
    RandomStream,
    ReynoldsParams,
    is_quasi_alpha_lattice,
    mix_seed,
    neighbors,
    olfati_saber_accel_all,
    proximity_net,
    reynolds_accel_all,
    sense_global,
    sense_local,
    sense_local_all,
    solve_mpc_distributed_all,
    step_dynamics,
)
from flockbench.core import (
    StackedViews,
    clamp_norm,
    clamped,
    inner,
    pairwise_distances,
    sq_norm,
)
from conftest import random_config, same_bits

LIMITS = MotionLimits(v_max=8.0, a_max=1.0, dt=0.3)


def config(pos, vel=None):
    pos = np.asarray(pos, dtype=float)
    vel = np.zeros_like(pos) if vel is None else np.asarray(vel, dtype=float)
    return FlockConfiguration(pos, vel)


# --------------------------------------------------------------------------
# step_dynamics
# --------------------------------------------------------------------------


def test_step_zero_acceleration_advances_with_current_velocity():
    out = step_dynamics(config([[0, 0]], [[1, 0]]), [[0, 0]], LIMITS)
    assert np.allclose(out.positions, [[0.3, 0.0]])
    assert np.allclose(out.velocities, [[1.0, 0.0]])


def test_step_clamps_acceleration_radially():
    # a = (5, 0) exceeds a_max = 1, so the effective acceleration is (1, 0)
    out = step_dynamics(config([[0, 0]], [[0, 0]]), [[5, 0]], LIMITS)
    assert np.allclose(out.velocities, [[0.3, 0.0]])
    assert np.allclose(out.positions, [[0.0, 0.0]])


def test_step_clamps_velocity_radially():
    out = step_dynamics(config([[0, 0]], [[7.9, 0]]), [[1, 0]], LIMITS)
    assert np.allclose(out.velocities, [[8.0, 0.0]])  # raw 8.2 projected
    assert np.allclose(out.positions, [[0.3 * 7.9, 0.0]])


def test_step_does_not_mutate_input():
    cfg = config([[1, 2]], [[3, 4]])
    step_dynamics(cfg, [[1, 1]], LIMITS)
    assert np.array_equal(cfg.positions, [[1, 2]])
    assert np.array_equal(cfg.velocities, [[3, 4]])


def test_step_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        step_dynamics(config([[0, 0]]), [[1, 0, 0]], LIMITS)
    with pytest.raises(ValueError):
        step_dynamics(config([[0, 0], [1, 1]]), [[1, 0]], LIMITS)


def test_step_velocity_and_acceleration_bounds(np_rng):
    for _ in range(200):
        cfg = random_config(np_rng, v_span=10.0)
        accel = np_rng.uniform(-5, 5, cfg.positions.shape)
        out = step_dynamics(cfg, accel, LIMITS)
        speeds = np.linalg.norm(out.velocities, axis=1)
        assert (speeds <= LIMITS.v_max + 1e-9).all()
        # where the velocity clamp stayed inactive, the realized velocity
        # change reflects the projected acceleration directly
        effective = (
            np.linalg.norm(out.velocities - cfg.velocities, axis=1) / LIMITS.dt
        )
        unclamped = speeds < LIMITS.v_max - 1e-12
        assert (effective[unclamped] <= LIMITS.a_max + 1e-9).all()


@settings(max_examples=50, deadline=None)
@given(
    shift=st.tuples(
        st.floats(-100, 100, allow_nan=False), st.floats(-100, 100, allow_nan=False)
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_translation_equivariance(shift, seed):
    rng = np.random.default_rng(seed)
    cfg = random_config(rng)
    accel = rng.uniform(-2, 2, cfg.positions.shape)
    out = step_dynamics(cfg, accel, LIMITS)
    shifted = FlockConfiguration(cfg.positions + shift, cfg.velocities)
    out_shifted = step_dynamics(shifted, accel, LIMITS)
    assert np.allclose(out_shifted.positions, out.positions + shift, atol=1e-9)
    assert np.array_equal(out_shifted.velocities, out.velocities)


# --------------------------------------------------------------------------
# neighborhood structure
# --------------------------------------------------------------------------


def test_neighbors_within_radius_are_mutual():
    cfg = config([[0, 0], [5, 0]])
    assert neighbors(cfg, 0, 8.4) == {1}
    assert neighbors(cfg, 1, 8.4) == {0}


def test_neighbors_strict_at_exact_radius():
    cfg = config([[0, 0], [8.4, 0]])
    assert neighbors(cfg, 0, 8.4) == set()


def test_neighbors_single_agent_empty():
    assert neighbors(config([[0, 0]]), 0, 8.4) == set()


def test_neighbors_index_out_of_range():
    with pytest.raises(IndexError):
        neighbors(config([[0, 0]]), 1, 8.4)
    # an index that is not an integer is rejected, not truncated
    for i in (0.0, 1.5, "0"):
        with pytest.raises(TypeError):
            neighbors(config([[0, 0], [1, 0]]), i, 8.4)


@pytest.mark.parametrize("r", [0.0, -1.0, float("nan")])
def test_radius_must_be_positive(r):
    cfg = config([[0, 0], [5, 0]])
    with pytest.raises(ValueError):
        neighbors(cfg, 0, r)
    with pytest.raises(ValueError):
        proximity_net(cfg, r)


def test_proximity_net_collinear_chain():
    cfg = config([[0, 0], [5, 0], [10, 0]])
    net = proximity_net(cfg, 8.4)
    assert net.edges == frozenset({(0, 1), (1, 2)})
    assert net.has_edge(1, 0) and net.has_edge(2, 1)
    assert not net.has_edge(0, 2)
    assert not any(net.has_edge(i, i) for i in range(3))


def test_proximity_net_singleton_and_coincident():
    assert proximity_net(config([[0, 0]]), 8.4).edges == frozenset()
    cfg = config([[1, 1]] * 4)
    net = proximity_net(cfg, 8.4)
    assert len(net.edges) == 6  # complete graph on 4 agents


def test_proximity_net_matches_brute_force(np_rng):
    for _ in range(300):
        cfg = random_config(np_rng, n=int(np_rng.integers(1, 21)), span=15.0)
        r = float(np_rng.uniform(1.0, 20.0))
        net = proximity_net(cfg, r)
        expected = set()
        for i in range(cfg.n):
            for j in range(i + 1, cfg.n):
                if np.linalg.norm(cfg.positions[i] - cfg.positions[j]) < r:
                    expected.add((i, j))
        assert net.edges == frozenset(expected)


# --------------------------------------------------------------------------
# quasi-alpha-lattice predicate
# --------------------------------------------------------------------------


def test_quasi_lattice_exact_pair():
    cfg = config([[0, 0], [7, 0]])
    assert is_quasi_alpha_lattice(cfg, 8.4, 7.0, 0.0)


def test_quasi_lattice_tolerance_boundary():
    cfg = config([[0, 0], [7.4, 0]])
    assert not is_quasi_alpha_lattice(cfg, 8.4, 7.0, 0.3)
    assert is_quasi_alpha_lattice(cfg, 8.4, 7.0, 0.5)


def test_quasi_lattice_vacuous_without_edges():
    cfg = config([[0, 0], [50, 0], [100, 0]])
    assert is_quasi_alpha_lattice(cfg, 8.4, 7.0, 0.0)


@pytest.mark.parametrize(
    "r, d, delta",
    [
        (float("nan"), 7.0, 0.3),
        (8.4, float("nan"), 0.3),
        (8.4, 7.0, float("nan")),
        (8.4, 0.0, 0.3),
        (8.4, 7.0, -0.1),
    ],
)
def test_quasi_lattice_rejects_invalid_parameters(r, d, delta):
    cfg = config([[0, 0], [7.4, 0]])  # 0.4 off the scale d = 7
    with pytest.raises(ValueError):
        is_quasi_alpha_lattice(cfg, r, d, delta)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    delta=st.floats(0, 3, allow_nan=False),
    extra=st.floats(0, 3, allow_nan=False),
)
def test_quasi_lattice_monotone_in_delta(seed, delta, extra):
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, span=8.0)
    if is_quasi_alpha_lattice(cfg, 8.4, 7.0, delta):
        assert is_quasi_alpha_lattice(cfg, 8.4, 7.0, delta + extra)


# --------------------------------------------------------------------------
# sensing noise
# --------------------------------------------------------------------------


def test_sense_zero_noise_is_identity(np_rng):
    cfg = random_config(np_rng)
    rng = RandomStream(3)
    assert sense_global(cfg, NoiseSpec(0, 0), rng) == cfg
    assert sense_local(cfg, 0, NoiseSpec(0, 0), rng) == cfg


def test_sense_global_noise_statistics():
    n, m = 100, 2
    cfg = FlockConfiguration(np.zeros((n, m)), np.zeros((n, m)))
    rng = RandomStream(99)
    noise = NoiseSpec(sigma_x=0.2, sigma_v=0.1)
    xs, vs = [], []
    for _ in range(60):  # 60 * 200 = 12000 samples per block
        noisy = sense_global(cfg, noise, rng)
        xs.append(noisy.positions.ravel())
        vs.append(noisy.velocities.ravel())
    x_std = np.concatenate(xs).std()
    v_std = np.concatenate(vs).std()
    assert abs(x_std - 0.2) < 0.05 * 0.2
    assert abs(v_std - 0.1) < 0.05 * 0.1


def test_sense_same_seed_reproduces(np_rng):
    cfg = random_config(np_rng)
    noise = NoiseSpec(0.2, 0.1)
    a = sense_global(cfg, noise, RandomStream(4242))
    b = sense_global(cfg, noise, RandomStream(4242))
    assert a == b


def test_sense_local_keeps_observer_exact(np_rng):
    cfg = random_config(np_rng, n=2)
    noisy = sense_local(cfg, 0, NoiseSpec(0.5, 0.5), RandomStream(7))
    assert np.array_equal(noisy.positions[0], cfg.positions[0])
    assert np.array_equal(noisy.velocities[0], cfg.velocities[0])
    assert not np.array_equal(noisy.positions[1], cfg.positions[1])


def test_sense_local_observers_draw_independently(np_rng):
    cfg = random_config(np_rng, n=2)
    rng = RandomStream(11)
    noise = NoiseSpec(0.3, 0.3)
    view0 = sense_local(cfg, 0, noise, rng)
    view1 = sense_local(cfg, 1, noise, rng)
    # agent 0 sees a perturbed agent 1 and vice versa; the perturbations of
    # the shared underlying state differ between observers
    assert not np.array_equal(view0.positions[1], cfg.positions[1])
    assert not np.array_equal(view1.positions[0], cfg.positions[0])
    assert not np.array_equal(view0.positions[1], view1.positions[1])


def test_sense_local_index_check(np_rng):
    cfg = random_config(np_rng, n=3)
    stream = RandomStream(0)
    with pytest.raises(IndexError):
        sense_local(cfg, 3, NoiseSpec(0, 0), stream)
    # an index that is not an integer is rejected before anything is drawn
    for i in (1.5, 1.0, "1"):
        for noise in (NoiseSpec(0, 0), NoiseSpec(0.4, 0.3)):
            with pytest.raises(TypeError):
                sense_local(cfg, i, noise, stream)
    assert np.array_equal(stream.normals(7), RandomStream(0).normals(7))


@pytest.mark.parametrize("sigmas", [(0, 0), (0.4, 0), (0, 0.3), (0.4, 0.3)])
def test_sense_local_all_matches_successive_calls(np_rng, sigmas):
    noise = NoiseSpec(*sigmas)
    for seed in range(20):
        cfg = random_config(np_rng, n=int(np_rng.integers(1, 13)), dim=1 + seed % 3)
        each, once = RandomStream(seed), RandomStream(seed)
        views = [sense_local(cfg, i, noise, each) for i in range(cfg.n)]
        positions, velocities = sense_local_all(cfg, noise, once)
        assert positions.shape == velocities.shape == (cfg.n, cfg.n, cfg.dimension)
        for i, view in enumerate(views):
            assert np.array_equal(positions[i], view.positions)
            assert np.array_equal(velocities[i], view.velocities)
        # the stream continues where the n successive calls left it
        assert np.array_equal(once.normals(7), each.normals(7))


def test_sense_global_zero_noise_advances_like_a_noisy_call(np_rng):
    for seed in range(10):
        cfg = random_config(np_rng, n=int(np_rng.integers(1, 13)), dim=1 + seed % 3)
        exact, noisy = RandomStream(seed), RandomStream(seed)
        assert sense_global(cfg, NoiseSpec(0, 0), exact) is cfg
        sense_global(cfg, NoiseSpec(0.2, 0.1), noisy)
        assert np.array_equal(exact.normals(7), noisy.normals(7))


def test_sense_local_all_rejects_non_finite_views(np_rng):
    # as sense_local does, through the FlockConfiguration it builds
    cfg = random_config(np_rng, n=6)
    for noise in (NoiseSpec(1e308, 0), NoiseSpec(0, 1e308)):
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            sense_local_all(cfg, noise, RandomStream(1))


def test_stacked_views_mask_is_each_observers_neighbors(np_rng):
    cfg = random_config(np_rng, n=7)
    pos, vel = sense_local_all(cfg, NoiseSpec(0.5, 0.2), RandomStream(3))
    agents = [4, 0, 4, 6]  # any observers, repeated or out of order
    for rows, views in ((range(7), StackedViews(pos, vel)),
                        (agents, StackedViews(pos[agents], vel[agents], agents))):
        mask = views.mask(8.4)
        own_x, own_v = views.by_observer(views.own_x), views.by_observer(views.own_v)
        for k, i in enumerate(rows):
            # observer k's view, read back from the component-major copies
            view = FlockConfiguration(views.x[:, :, k].T, views.v[:, :, k].T)
            assert view == FlockConfiguration(pos[i], vel[i])
            assert np.flatnonzero(mask[k]).tolist() == sorted(neighbors(view, i, 8.4))
            assert np.array_equal(own_x[k], view.positions[i])
            assert np.array_equal(own_v[k], view.velocities[i])
    # the stack must match its observers, and every observer be an agent
    for bad in ([0, 1], [0, 1, 2, 3, 4]):
        with pytest.raises(ValueError, match=r"\(B, n, m\)"):
            StackedViews(pos[:4], vel[:4], bad)
    with pytest.raises(ValueError, match=r"\(n, n, m\)"):
        StackedViews(pos[:4], vel[:4])
    for bad in ([0, 1, 2, 7], [-1, 0, 1, 2]):
        with pytest.raises(IndexError, match="out of range for n=7"):
            StackedViews(pos[:4], vel[:4], bad)
    # observers that are not integers are rejected, not cast
    for bad in ([0.0, 1.0, 2.0, 3.0], [0, 1, 2, 3.5], ["0", "1", "2", "3"],
                [True, False, True, False], np.array([2.9, 0, 1, 2])):
        with pytest.raises(TypeError, match="must be integers"):
            StackedViews(pos[:4], vel[:4], bad)


@pytest.mark.parametrize("shape", [(0, 0, 2), (3, 3, 0)], ids=["n=0", "m=0"])
def test_views_of_no_agent_or_no_dimension_are_rejected(shape):
    # as FlockConfiguration rejects such a configuration, at every entry
    # point that reads a stack of views
    views = np.zeros(shape), np.zeros(shape)
    entry_points = [
        lambda: StackedViews(*views),
        lambda: reynolds_accel_all(*views, ReynoldsParams()),
        lambda: olfati_saber_accel_all(*views, OlfatiSaberParams()),
        lambda: solve_mpc_distributed_all(
            "df_distributed", *views, MpcParams(), MotionLimits()
        ),
    ]
    for call in entry_points:
        with pytest.raises(ValueError, match="need at least one agent and one dimension"):
            call()


# --------------------------------------------------------------------------
# RandomStream / seeding
# --------------------------------------------------------------------------


def test_random_stream_bit_exact_reproduction():
    a = RandomStream(123456789).normals(1001)
    b = RandomStream(123456789).normals(1001)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, RandomStream(987654321).normals(1001))


def test_random_stream_zero_count_draws_nothing():
    for draw in ("uniforms", "normals"):
        stream = RandomStream(5)
        empty = getattr(stream, draw)(0)
        assert empty.dtype == np.float64 and empty.shape == (0,)
        # nothing was consumed: the next draw is a fresh stream's first
        assert np.array_equal(stream.normals(4), RandomStream(5).normals(4))


@pytest.mark.parametrize("count", [0, 1, 2, 7, 3600])
def test_skip_normals_leaves_the_stream_where_normals_does(count):
    for seed in (1, 20261017):
        drawn, skipped = RandomStream(seed), RandomStream(seed)
        drawn.normals(count)
        skipped.skip_normals(count)
        assert np.array_equal(skipped.normals(5), drawn.normals(5))
        assert np.array_equal(skipped.uniforms(3), drawn.uniforms(3))


def test_random_stream_uniforms_in_half_open_interval():
    u = RandomStream(5).uniforms(100000)
    assert (u > 0).all() and (u <= 1).all()


def test_random_stream_normal_moments():
    z = RandomStream(17).normals(200000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_mix_seed_distinct_streams():
    seeds = {mix_seed(1, j) for j in range(2000)}
    assert len(seeds) == 2000
    assert all(0 <= s < 2**64 for s in seeds)
    assert mix_seed(1, 0) != mix_seed(2, 0)


# --------------------------------------------------------------------------
# configuration type
# --------------------------------------------------------------------------


def test_configuration_validation():
    with pytest.raises(ValueError):
        FlockConfiguration(np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        FlockConfiguration(np.empty((0, 2)), np.empty((0, 2)))
    with pytest.raises(ValueError):
        FlockConfiguration([[np.nan, 0]], [[0, 0]])


def test_configuration_is_immutable(np_rng):
    cfg = random_config(np_rng)
    with pytest.raises(AttributeError):
        cfg.positions = np.zeros_like(cfg.positions)
    with pytest.raises(ValueError):
        cfg.positions[0, 0] = 1.0


def test_configuration_pickles_to_an_equal_read_only_copy(np_rng):
    # worker processes receive their initial states and return their final
    # ones this way
    cfg = random_config(np_rng)
    copy = pickle.loads(pickle.dumps(cfg))
    assert copy == cfg
    for a, b in ((copy.positions, cfg.positions), (copy.velocities, cfg.velocities)):
        assert a.dtype == b.dtype and not a.flags.writeable
        assert a.tobytes() == b.tobytes()
    with pytest.raises(AttributeError):
        copy.positions = cfg.positions



def left_fold_of_products(v):
    """The squared norm as the left fold of the products v[..., k]**2."""
    out = v[..., 0] * v[..., 0]
    for k in range(1, v.shape[-1]):
        out = out + v[..., k] * v[..., k]
    return out


@pytest.mark.parametrize("keepdims", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_sq_norm_matches_sum_of_squares(m, keepdims, np_rng):
    # magnitudes spread over 16 decades so that rounding differs by order
    scale = 10.0 ** np_rng.integers(-8, 8, size=(6, 7, 1))
    base = np_rng.normal(size=(6, 7, m)) * scale
    strided = np.moveaxis(np_rng.normal(size=(m, 6, 7)), 0, -1)
    flock = FlockConfiguration(base[0], base[1])
    views = (
        base,  # contiguous
        base.transpose(1, 0, 2),  # transposed
        np.asfortranarray(base),  # the summed axis is the slowest
        strided,  # the summed axis is not contiguous
        base[:, [5, 0, 3, 3]],  # fancy-indexed with a leading slice
        base[[4, 1], 2:],
        base[::2, ::-1],
        np.broadcast_to(base[0], (4, 7, m)),  # read-only, zero leading stride
        # the read-only broadcasts sense_local_all hands the controllers
        *sense_local_all(flock, NoiseSpec(), RandomStream(1)),
    )
    assert not views[-1].flags.writeable
    for v in views:
        expected = (v * v).sum(axis=-1, keepdims=keepdims)
        got = sq_norm(v, keepdims=keepdims)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        # the products' left fold, as sq_norm summed before it squared once
        fold = left_fold_of_products(v)
        assert np.array_equal(got, fold[..., None] if keepdims else fold)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_inner_is_the_left_fold_of_the_products(m, np_rng):
    # magnitudes spread over 16 decades, signed zeros, and a row whose
    # products are all -0.0: the fold's bits, and the reduction's values,
    # which differ from them only in the sign of a zero sum
    a = np_rng.normal(size=(6, 7, m)) * 10.0 ** np_rng.integers(-8, 8, size=(6, 7, 1))
    b = np_rng.normal(size=(6, 7, m))
    a[np_rng.random(a.shape) < 0.2] = -0.0
    a[0], b[0] = -0.0, 1.0
    for x, y in (
        (a, b),
        (a.transpose(1, 0, 2), b.transpose(1, 0, 2)),
        (np.asfortranarray(a), b),
        (np.moveaxis(np.moveaxis(a, -1, 0).copy(), 0, -1), b[:, ::-1]),
        (a[:, [5, 0, 3, 3]], b[:, :4]),
    ):
        fold = x[..., 0] * y[..., 0]
        for k in range(1, m):
            fold = fold + x[..., k] * y[..., k]
        got = inner(x, y)
        assert got.tobytes() == fold.tobytes()
        summed = (x * y).sum(axis=-1)
        assert np.array_equal(got, summed)
        assert (got[np.signbit(got) != np.signbit(summed)] == 0.0).all()
    assert np.signbit(inner(a, b)[0]).all()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pairwise_distances_matches_per_pair_norm(m, np_rng):
    # magnitudes spread over 16 decades so that rounding differs by order
    pos = np_rng.normal(size=(9, m)) * 10.0 ** np_rng.integers(-8, 8, size=(9, m))
    pos[3] = pos[5]  # coincident agents
    for x in (pos, np.asfortranarray(pos), np.repeat(pos, 2, axis=0)[::2]):
        # the per-pair norm core.neighbors takes, whose x_j - x_i squares
        # to the same bits as x_i - x_j
        expected = [[np.sqrt((d * d).sum()) for d in x[i] - x] for i in range(9)]
        assert np.array_equal(pairwise_distances(x), expected)
        cfg = FlockConfiguration(x, x)
        for i, r in ((0, 1e-3), (3, 1.0), (5, 1e4)):
            assert neighbors(cfg, i, r) == set(np.flatnonzero(pairwise_distances(x)[i] < r)) - {i}


def test_pairwise_distances_of_integer_positions(np_rng):
    ints = np_rng.integers(-20, 20, size=(3, 6, 2))
    assert pairwise_distances(ints).tobytes() == pairwise_distances(ints.astype(float)).tobytes()
    assert np.array_equal(pairwise_distances(np.array([[0, 0], [3, 4]])), [[0.0, 5.0], [5.0, 0.0]])


@pytest.mark.parametrize("n, observers", [(1, [0]), (40, [3, 3]), (30, range(30))])
def test_neighbor_sum_runs_over_each_observers_neighbors_in_order(n, observers, np_rng):
    observers = list(observers)
    B = len(observers)
    views = StackedViews(np_rng.normal(size=(B, n, 2)), np.zeros((B, n, 2)), observers)
    x = views.diff * views.dist  # some (m, n, B) array built from the stack
    mask = np_rng.random((B, n)) < 0.7
    got = views.neighbor_sum(mask, x)
    assert got.shape == (2, 1, B)
    for k in range(B):
        terms = [x[:, j, k] for j in range(n) if mask[k, j]]
        fold = terms[0] if terms else np.zeros(2)
        for term in terms[1:]:
            fold = fold + term
        assert np.array_equal(got[:, 0, k], fold)


def nested_where_clamp(v, max_norm):
    """The radial clamp as two nested np.where calls."""
    norms = np.sqrt(sq_norm(v, keepdims=True))
    over = norms > max_norm
    if not over.any():
        return v.copy()
    return v * np.where(over, max_norm / np.where(over, norms, 1.0), 1.0)


def test_clamp_norm_matches_the_nested_where_formula(np_rng):
    vectors = np_rng.normal(size=(50, 3, 2)) * 10.0 ** np_rng.integers(
        -3, 3, size=(50, 3, 1)
    )
    edges = np.array(
        [
            [3.0, 4.0],  # norm exactly max_norm
            [-4.0, 3.0],
            [0.0, -5.0],
            [-0.0, 2.0],  # signed zeros inside and outside the ball
            [-0.0, -0.0],
            [-0.0, 7.0],
            [np.inf, 1.0],  # an infinite component
            [np.nan, 1.0],  # a NaN row passes through unchanged
            [30.0, 40.0],
        ]
    )
    for v, max_norm in ((vectors, 1.5), (vectors, 1e3), (edges, 5.0)):
        with np.errstate(invalid="ignore"):  # inf * 0 in the infinite row
            got = clamp_norm(v, max_norm)
            assert same_bits(got, nested_where_clamp(v, max_norm))
    assert same_bits(got[:5], edges[:5]) and same_bits(got[7], edges[7])
    assert same_bits(got[5], np.array([-0.0, 5.0]))
    assert np.array_equal(got[-1], [3.0, 4.0])
    inside = edges[:5]
    kept = clamp_norm(inside, 5.0)
    assert kept is not inside and same_bits(kept, inside)


@pytest.mark.parametrize("case", ["inside", "over", "nan", "view", "strided", "integers", "list"])
def test_clamp_norm_never_returns_the_callers_array(case):
    # the result is a new array: writing to it leaves the input as it was,
    # whether or not a vector was scaled and whether or not the float64
    # conversion made a copy
    base = np.array([[3.0, 4.0], [-0.0, 1.0], [0.5, -0.5], [6.0, 8.0]])
    inputs = {
        "inside": base[:3].copy(),
        "over": base.copy(),
        "nan": np.array([[np.nan, 1.0], [0.0, 2.0]]),
        "view": base[1:3],
        "strided": base[::2, ::-1][:1],
        "integers": np.array([[1, 2], [0, 3]]),
        "list": [[1.0, 2.0], [0.0, 3.0]],
    }
    vectors = inputs[case]
    before = np.array(vectors, dtype=np.float64)
    snapshot = base.copy()
    got = clamp_norm(vectors, 5.0)
    assert got is not vectors and got.dtype == np.float64
    assert not np.may_share_memory(got, base)
    if isinstance(vectors, np.ndarray):
        assert not np.may_share_memory(got, vectors)
    expected = got.copy()
    got[...] = 123.0
    assert same_bits(np.array(vectors, dtype=np.float64), before)
    assert same_bits(base, snapshot)
    # and clamped, which may hand back its own float64 argument, agrees
    assert same_bits(clamped(before.copy(), 5.0), expected)

