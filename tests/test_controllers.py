import itertools

import numpy as np
import pytest

from flockbench import (
    FlockConfiguration,
    NoiseSpec,
    OlfatiSaberParams,
    RandomStream,
    ReynoldsParams,
    olfati_saber_accel,
    olfati_saber_accel_all,
    reynolds_accel,
    reynolds_accel_all,
    reynolds_alignment,
    reynolds_cohesion,
    reynolds_separation,
    sense_local,
    sense_local_all,
)
from flockbench.controllers import action_function, bump, sigma_norm
from conftest import hexagonal_patch, random_config

PARAMS = ReynoldsParams()  # r_c=9, r_s=5, r_al=7.5, w_c=8, w_s=12, w_al=8
OS = OlfatiSaberParams()


def view_of(pos, vel=None):
    pos = np.asarray(pos, dtype=float)
    vel = np.zeros_like(pos) if vel is None else np.asarray(vel, dtype=float)
    return FlockConfiguration(pos, vel)


# --------------------------------------------------------------------------
# Reynolds rules
# --------------------------------------------------------------------------


def test_alignment_single_neighbor():
    view = view_of([[0, 0], [2, 0]], [[0, 0], [2, 0]])
    assert np.allclose(reynolds_alignment(0, view, PARAMS), [16.0, 0.0])


def test_alignment_empty_neighborhood():
    view = view_of([[0, 0], [100, 0]], [[0, 0], [2, 0]])
    assert np.array_equal(reynolds_alignment(0, view, PARAMS), [0.0, 0.0])


def test_alignment_consensus_fixed_point():
    view = view_of([[0, 0], [2, 0], [0, 2]], [[1, 1], [1, 1], [1, 1]])
    assert np.allclose(reynolds_alignment(0, view, PARAMS), [0.0, 0.0])


def test_cohesion_two_neighbors():
    view = view_of([[0, 0], [2, 0], [0, 2]])
    assert np.allclose(reynolds_cohesion(0, view, PARAMS), [8.0, 8.0])


def test_cohesion_at_centroid():
    view = view_of([[1, 1], [2, 0], [0, 2]])
    assert np.allclose(reynolds_cohesion(0, view, PARAMS), [0.0, 0.0])


def test_cohesion_no_neighbors():
    view = view_of([[0, 0], [100, 100]])
    assert np.array_equal(reynolds_cohesion(0, view, PARAMS), [0.0, 0.0])


def test_separation_single_neighbor():
    view = view_of([[0, 0], [2, 0]])
    assert np.allclose(reynolds_separation(0, view, PARAMS), [-6.0, 0.0])


def test_separation_symmetric_cancellation():
    view = view_of([[0, 0], [2, 0], [-2, 0]])
    assert np.allclose(reynolds_separation(0, view, PARAMS), [0.0, 0.0])


def test_separation_no_neighbors():
    view = view_of([[0, 0], [6, 0]])  # outside r_s = 5
    assert np.array_equal(reynolds_separation(0, view, PARAMS), [0.0, 0.0])


def test_separation_points_away(np_rng):
    for _ in range(50):
        other = np_rng.uniform(-4, 4, 2)
        if np.linalg.norm(other) < 1e-3 or np.linalg.norm(other) >= PARAMS.r_s:
            continue
        view = view_of([[0, 0], other])
        out = reynolds_separation(0, view, PARAMS)
        assert float(out @ (-other)) > 0.0


def test_separation_coincident_neighbor_is_finite():
    view = view_of([[1, 1], [1, 1]])
    out = reynolds_separation(0, view, PARAMS)
    assert np.isfinite(out).all()


def test_reynolds_accel_isolated_agent():
    view = view_of([[0, 0], [100, 100]], [[1, 1], [0, 0]])
    assert np.array_equal(reynolds_accel(0, view, PARAMS), [0.0, 0.0])


def test_reynolds_accel_composes_rules():
    # neighbor A at (2,0) is inside every rule radius; B at (0,6) is inside
    # cohesion (9) and alignment (7.5) but outside separation (5)
    view = view_of([[0, 0], [2, 0], [0, 6]], [[0, 0], [2, 0], [2, 0]])
    align = reynolds_alignment(0, view, PARAMS)
    coh = reynolds_cohesion(0, view, PARAMS)
    sep = reynolds_separation(0, view, PARAMS)
    assert np.allclose(align, [16.0, 0.0])
    assert np.allclose(coh, [8.0, 24.0])
    assert np.allclose(sep, [-6.0, 0.0])
    assert np.allclose(reynolds_accel(0, view, PARAMS), align + coh + sep)


def test_reynolds_accel_linear_in_weights(np_rng):
    view = FlockConfiguration(
        np_rng.uniform(-4, 4, (5, 2)), np_rng.uniform(-2, 2, (5, 2))
    )
    doubled = ReynoldsParams(
        w_c=2 * PARAMS.w_c, w_s=2 * PARAMS.w_s, w_al=2 * PARAMS.w_al
    )
    assert np.allclose(
        reynolds_accel(0, view, doubled), 2.0 * reynolds_accel(0, view, PARAMS)
    )


def test_reynolds_translation_invariance(np_rng):
    for _ in range(25):
        view = random_config(np_rng, span=6.0)
        shift = np_rng.uniform(-100, 100, 2)
        moved = FlockConfiguration(view.positions + shift, view.velocities)
        for i in range(view.n):
            assert np.allclose(
                reynolds_accel(i, moved, PARAMS),
                reynolds_accel(i, view, PARAMS),
                atol=1e-9,
            )


def test_reynolds_rotation_equivariance(np_rng):
    theta = 1.1
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    for _ in range(25):
        view = random_config(np_rng, span=6.0, v_span=3.0)
        rotated = FlockConfiguration(view.positions @ rot.T, view.velocities @ rot.T)
        for i in range(view.n):
            assert np.allclose(
                reynolds_accel(i, rotated, PARAMS),
                rot @ reynolds_accel(i, view, PARAMS),
                atol=1e-9,
            )


# --------------------------------------------------------------------------
# Olfati-Saber controller
# --------------------------------------------------------------------------


def test_os_shape_functions():
    assert sigma_norm(0.0, OS.epsilon) == 0.0
    assert bump(0.1, OS.h) == 1.0
    assert bump(1.5, OS.h) == 0.0
    assert bump(-0.1, OS.h) == 0.0
    # with a = b the action crosses zero exactly at the sigma-distance of d
    d_sig = sigma_norm(OS.d, OS.epsilon)
    assert action_function(d_sig, OS) == pytest.approx(0.0, abs=1e-12)
    assert action_function(d_sig * 0.5, OS) < 0.0
    assert action_function(d_sig * 1.05, OS) > 0.0


def test_os_isolated_agent():
    view = view_of([[0, 0], [100, 0]])
    assert np.array_equal(olfati_saber_accel(0, view, OS), [0.0, 0.0])


def test_os_zero_at_desired_distance_equal_velocities():
    view = view_of([[0, 0], [7, 0]], [[1, 1], [1, 1]])
    assert np.allclose(olfati_saber_accel(0, view, OS), [0.0, 0.0], atol=1e-12)


def test_os_repulsion_below_desired_distance():
    view = view_of([[0, 0], [3, 0]])
    out = olfati_saber_accel(0, view, OS)
    assert out[0] < 0.0  # pushed away from the neighbor at +x
    mirrored = olfati_saber_accel(1, view, OS)
    assert mirrored[0] > 0.0


def test_os_attraction_above_desired_distance():
    view = view_of([[0, 0], [7.8, 0]])
    out = olfati_saber_accel(0, view, OS)
    assert out[0] > 0.0


def test_os_zero_on_exact_lattice_with_uniform_velocities():
    pos = hexagonal_patch()
    vel = np.tile([2.0, 1.0], (len(pos), 1))
    view = FlockConfiguration(pos, vel)
    for i in range(len(pos)):
        assert np.linalg.norm(olfati_saber_accel(i, view, OS)) <= 1e-9


def test_os_velocity_consensus_term():
    view = view_of([[0, 0], [7, 0]], [[0, 0], [2, 0]])
    out = olfati_saber_accel(0, view, OS)
    assert out[0] > 0.0  # pulled toward the faster neighbor's velocity


def test_os_translation_invariance(np_rng):
    for _ in range(25):
        view = random_config(np_rng, span=6.0, v_span=3.0)
        shift = np_rng.uniform(-100, 100, 2)
        moved = FlockConfiguration(view.positions + shift, view.velocities)
        for i in range(view.n):
            assert np.allclose(
                olfati_saber_accel(i, moved, OS),
                olfati_saber_accel(i, view, OS),
                atol=1e-9,
            )


def test_param_validation():
    with pytest.raises(ValueError):
        ReynoldsParams(r_c=0.0)
    with pytest.raises(ValueError):
        ReynoldsParams(w_s=-1.0)
    with pytest.raises(ValueError):
        OlfatiSaberParams(a=6.0, b=5.0)
    with pytest.raises(ValueError):
        OlfatiSaberParams(h=1.0)
    with pytest.raises(ValueError):
        OlfatiSaberParams(d=9.0, r=8.4)


# --------------------------------------------------------------------------
# array passes over all observers against the per-agent controllers
# --------------------------------------------------------------------------


def _oracle_views(np_rng, m):
    """Stacked (n, n, m) views and the per-agent views they hold."""
    noise = NoiseSpec(0.5, 0.3)
    yield [view_of([[1.0, 2.0][:m]], [[0.5, -0.5][:m]])]  # n = 1
    for seed in range(60):
        cfg = random_config(np_rng, n=int(np_rng.integers(2, 16)), span=12.0, dim=m)
        pos = np.array(cfg.positions)
        if seed % 3 == 0:
            pos[1] = pos[0]  # coincident agents: the EPS_DIST_SQ floor
        if seed % 5 == 0:
            pos[-1] += 1000.0  # an agent no one sees
        cfg = FlockConfiguration(pos, cfg.velocities)
        if seed % 2:
            yield [cfg] * cfg.n
        else:
            rng = RandomStream(seed)
            yield [sense_local(cfg, i, noise, rng) for i in range(cfg.n)]


# memory layouts of a stacked (n, n, m) view; the array passes copy it
# component-major, and must give the same bits from each
LAYOUTS = {
    "C": np.ascontiguousarray,
    "fortran": np.asfortranarray,  # component-major, as the passes store it
    # observer and agent axes swapped in memory
    "transposed": lambda a: np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1),
}


@pytest.mark.parametrize("layout", [*LAYOUTS, "broadcast"])
@pytest.mark.parametrize(
    "law, law_all, params",
    [
        (reynolds_accel, reynolds_accel_all, PARAMS),
        (reynolds_accel, reynolds_accel_all, ReynoldsParams(r_s=9.5, w_al=0.0)),
        (olfati_saber_accel, olfati_saber_accel_all, OS),
        (olfati_saber_accel, olfati_saber_accel_all, OlfatiSaberParams(r=12.0, d=2.0)),
    ],
)
def test_array_pass_matches_per_agent_controller(np_rng, law, law_all, params, layout):
    checked = 0
    # in one dimension a neighbor block of eight or more is where numpy's
    # own axis-0 sum would go pairwise
    stacks = itertools.chain(_oracle_views(np_rng, 2), _oracle_views(np_rng, 1))
    for views in stacks:
        if layout == "broadcast":
            # the read-only broadcasts sense_local_all returns at zero
            # noise, for the stacks whose views are all the true state
            if any(view is not views[0] for view in views):
                continue
            positions, velocities = sense_local_all(views[0], NoiseSpec(), RandomStream(1))
            assert not positions.flags.writeable
        else:
            positions = LAYOUTS[layout](np.stack([view.positions for view in views]))
            velocities = LAYOUTS[layout](np.stack([view.velocities for view in views]))
        expected = np.stack([law(i, view, params) for i, view in enumerate(views)])
        got = law_all(positions, velocities, params)
        assert got.flags.c_contiguous
        assert np.array_equal(got, expected)
        checked += 1
    assert checked >= 60


@pytest.mark.parametrize("law_all", [reynolds_accel_all, olfati_saber_accel_all])
def test_array_pass_rejects_unstacked_views(law_all):
    views = np.zeros((3, 3, 2))
    with pytest.raises(ValueError):
        law_all(views[0], views[0], PARAMS)  # one (n, m) view, not n of them
    with pytest.raises(ValueError):
        law_all(views, views[:, :2], PARAMS)
