import subprocess
import sys
import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest

from flockbench import (
    MODEL_TAGS,
    ExperimentConfig,
    FlockConfiguration,
    ModelSpec,
    MotionLimits,
    MpcParams,
    NoiseSpec,
    OlfatiSaberParams,
    RandomStream,
    ReynoldsParams,
    SolverError,
    default_model_spec,
    mix_seed,
    noise_for_level,
    run_comparison,
    run_noise_sweep,
    sample_initial_config,
    simulate,
)
from flockbench import harness
from flockbench.harness import aggregate_finals, aggregate_steps, run_batch
from conftest import child_env


def small_cfg(tag="reynolds", **kwargs):
    defaults = dict(model=default_model_spec(tag), n=5, steps=8, base_seed=7)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# --------------------------------------------------------------------------
# model spec and experiment config validation
# --------------------------------------------------------------------------


def test_model_spec_validates_tag_and_params():
    with pytest.raises(ValueError):
        ModelSpec("unknown", ReynoldsParams())
    with pytest.raises(ValueError):
        ModelSpec("reynolds", MpcParams())
    with pytest.raises(TypeError):
        MpcParams(d=None)
    with pytest.raises(TypeError):
        MpcParams(omega=None)
    with pytest.raises(TypeError):
        MpcParams(horizon=2.5)
    with pytest.raises(ValueError):
        MpcParams(horizon=0)
    assert MpcParams(horizon=np.int64(2)).horizon == 2
    with pytest.raises(ValueError):
        default_model_spec("boids")


def _nan_cases():
    nan = float("nan")
    for cls in (MpcParams, ReynoldsParams, OlfatiSaberParams, NoiseSpec, MotionLimits):
        for f in fields(cls):
            if isinstance(f.default, float):
                yield pytest.param(cls, {f.name: nan}, id=f"{cls.__name__}.{f.name}")
    yield pytest.param(small_cfg, {"r": nan}, id="ExperimentConfig.r")
    yield pytest.param(
        small_cfg,
        {"init_position_box": ((nan, 1.0), (0.0, 1.0))},
        id="ExperimentConfig.init_position_box",
    )


@pytest.mark.parametrize("make, kwargs", _nan_cases())
def test_parameters_reject_nan(make, kwargs):
    with pytest.raises(ValueError):
        make(**kwargs)


def _inf_cases():
    inf = float("inf")
    for cls, name in (
        (NoiseSpec, "sigma_x"), (NoiseSpec, "sigma_v"),
        (ReynoldsParams, "w_c"), (ReynoldsParams, "w_s"), (ReynoldsParams, "w_al"),
        (OlfatiSaberParams, "epsilon"), (OlfatiSaberParams, "a"), (OlfatiSaberParams, "b"),
        (OlfatiSaberParams, "c_alignment"),
    ):
        yield pytest.param(cls, {name: inf}, name, id=f"{cls.__name__}.{name}")
    for name, box in (
        ("init_position_box", ((-inf, 1.0), (0.0, 1.0))),
        ("init_velocity_box", ((0.0, 1.0), (0.0, inf))),
    ):
        yield pytest.param(small_cfg, {name: box}, name, id=f"ExperimentConfig.{name}")


@pytest.mark.parametrize("make, kwargs, name", _inf_cases())
def test_parameters_reject_an_infinite_weight_or_bound(make, kwargs, name):
    # each used to construct and fail in the run, on non-finite positions or
    # velocities; the error names the field
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        make(**kwargs)


def test_infinite_radii_still_construct():
    inf = float("inf")
    assert ReynoldsParams(r_c=inf, r_s=inf, r_al=inf).r_s == inf
    assert OlfatiSaberParams(r=inf).r == inf
    assert small_cfg(r=inf).r == inf


def _bool_cases():
    for cls in (MpcParams, ReynoldsParams, OlfatiSaberParams, NoiseSpec, MotionLimits):
        for f in fields(cls):
            for value in (True, np.False_):
                yield pytest.param(
                    cls, {f.name: value}, id=f"{cls.__name__}.{f.name}={value!r}"
                )
    for name in ("n", "steps", "runs", "base_seed", "r"):
        yield pytest.param(small_cfg, {name: True}, id=f"ExperimentConfig.{name}")


@pytest.mark.parametrize("make, kwargs", _bool_cases())
def test_parameters_reject_a_bool(make, kwargs):
    # MotionLimits(v_max=True) used to be a speed limit of 1, and
    # MpcParams(horizon=True) a one-step horizon
    [name] = kwargs
    with pytest.raises(TypeError, match=rf"\.{name} must be a number, not a bool$"):
        make(**kwargs)


def test_experiment_config_rejects_a_seed_that_is_not_an_integer():
    # base_seed=1.5 used to construct and fail in mix_seed at the first run
    with pytest.raises(TypeError, match=r"^ExperimentConfig\.base_seed must be an integer"):
        small_cfg(base_seed=1.5)
    assert small_cfg(base_seed=np.int64(3)).base_seed == 3


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        small_cfg(n=0)
    with pytest.raises(ValueError):
        small_cfg(steps=0)
    with pytest.raises(ValueError):
        small_cfg(init_position_box=((5.0, -5.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        small_cfg(init_velocity_box=((0.0, 1.0),))
    with pytest.raises(ValueError):
        small_cfg(init_position_box=(), init_velocity_box=())
    for key in ("n", "steps", "runs"):
        with pytest.raises(TypeError):
            small_cfg(**{key: 2.5})
    assert small_cfg(n=np.int64(3), steps=np.int32(2)).n == 3
    # a model with its own interaction radius runs at the experiment's r
    for tag in ("df_distributed", "olfati_saber"):
        with pytest.raises(ValueError, match="radius other than r"):
            small_cfg(tag, r=7.5)
        spec = default_model_spec(tag)
        small_cfg(model=replace(spec, params=replace(spec.params, r=7.5)), r=7.5)
    assert small_cfg("reynolds", r=7.5).r == 7.5


def test_motion_limits_reject_an_infinite_time_step():
    # an infinite dt used to pass and make every position inf at step 1
    for dt in (np.inf, -np.inf):
        with pytest.raises(ValueError, match="dt"):
            MotionLimits(dt=dt)
    assert MotionLimits(v_max=np.inf, a_max=np.inf).v_max == np.inf


@pytest.mark.parametrize("bound", ["v_max", "a_max"])
@pytest.mark.parametrize("tag", MODEL_TAGS)
def test_an_infinite_speed_or_acceleration_bound_means_no_bound(tag, bound):
    # each model simulates warning-free, as under a bound no run reaches
    records = []
    for value in (np.inf, 1e6):
        cfg = small_cfg(tag, steps=4, limits=replace(MotionLimits(), **{bound: value}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records.append(simulate(cfg, mix_seed(1, 0)))
    unbounded, bounded = records
    assert unbounded.metrics == bounded.metrics
    assert unbounded.final == bounded.final


# --------------------------------------------------------------------------
# initial sampling
# --------------------------------------------------------------------------


def test_sample_degenerate_box_puts_everyone_at_origin():
    cfg = small_cfg(
        init_position_box=((0.0, 0.0), (0.0, 0.0)),
        init_velocity_box=((0.0, 0.0), (0.0, 0.0)),
    )
    config = sample_initial_config(cfg, RandomStream(1))
    assert np.array_equal(config.positions, np.zeros((5, 2)))
    assert np.array_equal(config.velocities, np.zeros((5, 2)))


def test_sample_statistics_and_bounds():
    cfg = small_cfg(n=2500)  # 10000 position components
    config = sample_initial_config(cfg, RandomStream(77))
    assert (config.positions >= -15).all() and (config.positions <= 15).all()
    assert (config.velocities >= 0).all() and (config.velocities <= 2).all()
    assert abs(config.positions.mean()) < 0.5
    assert abs(config.velocities.mean() - 1.0) < 0.1


def test_sample_same_seed_identical():
    cfg = small_cfg()
    a = sample_initial_config(cfg, RandomStream(123))
    b = sample_initial_config(cfg, RandomStream(123))
    assert a == b


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------


def test_single_agent_coasts():
    cfg = small_cfg(
        n=1,
        steps=10,
        init_position_box=((0.0, 0.0), (0.0, 0.0)),
        init_velocity_box=((1.0, 1.0), (0.0, 0.0)),
    )
    rec = simulate(cfg, seed=5)
    assert len(rec.metrics) == 10
    for m in rec.metrics:
        assert m.num_components == 1
        assert m.max_diameter is None
        assert m.velocity_convergence == 0.0
        assert m.irregularity == 0.0
    # straight line at constant velocity (1, 0)
    assert np.allclose(rec.final.positions, [[3.0, 0.0]])


@pytest.mark.parametrize("seed", [1.5, "1", True])
def test_simulate_rejects_a_seed_that_is_not_an_integer(seed):
    # each of these used to replay seed 1's run
    with pytest.raises(TypeError, match="^seed must be an integer"):
        simulate(small_cfg(steps=1), seed=seed)


@pytest.mark.parametrize(
    "tag", ["reynolds", "olfati_saber", "df_distributed", "lattice_centralized"]
)
def test_simulate_deterministic_under_noise(tag):
    cfg = small_cfg(tag, noise=NoiseSpec(0.4, 0.2), steps=6)
    a = simulate(cfg, seed=99)
    b = simulate(cfg, seed=99)
    assert a.final == b.final
    assert a.metrics == b.metrics


def test_metrics_use_true_state_not_sensed():
    # huge sensing noise cannot turn a single coasting agent's metrics noisy
    cfg = small_cfg(
        "reynolds",
        n=1,
        steps=5,
        noise=NoiseSpec(50.0, 50.0),
        init_position_box=((0.0, 0.0), (0.0, 0.0)),
        init_velocity_box=((1.0, 1.0), (0.0, 0.0)),
    )
    rec = simulate(cfg, seed=3)
    assert np.allclose(rec.final.positions, [[1.5, 0.0]])


def test_simulate_initial_override():
    cfg = small_cfg("df_distributed", n=2, steps=100)
    start = FlockConfiguration([[0.0, 0.0], [6.0, 0.0]], np.zeros((2, 2)))
    rec = simulate(cfg, seed=1, initial=start)
    gap = np.linalg.norm(rec.final.positions[0] - rec.final.positions[1])
    assert gap == pytest.approx(50.0**0.25, rel=0.05)
    with pytest.raises(ValueError):
        simulate(cfg, seed=1, initial=FlockConfiguration([[0.0, 0.0]], [[0.0, 0.0]]))


def test_solver_error_names_run_step_model_and_agents():
    # the close pair's separation gradient overflows at omega = 1e308
    cfg = small_cfg(model=ModelSpec("df_distributed", MpcParams(omega=1e308)), n=3)
    start = FlockConfiguration([[0.0, 0.0], [4.0, 0.0], [40.0, 40.0]], np.zeros((3, 2)))
    with pytest.raises(SolverError) as info:
        simulate(cfg, seed=1, run_id=4, initial=start)
    diagnostics = info.value.diagnostics
    assert diagnostics["agents"].tolist() == [0, 1]
    assert diagnostics["run_id"] == 4 and diagnostics["step"] == 0
    assert diagnostics["model"] == "df_distributed"


def test_run_batch_parallel_matches_serial():
    cfg = small_cfg("reynolds", steps=5, noise=NoiseSpec(0.1, 0.1))
    seeds = [mix_seed(cfg.base_seed, j) for j in range(4)]
    serial = run_batch(cfg, seeds, workers=1)
    parallel = run_batch(cfg, seeds, workers=2)
    for a, b in zip(serial, parallel):
        assert a.run_id == b.run_id
        assert a.final == b.final
        assert a.metrics == b.metrics


@pytest.mark.parametrize("workers,runs,started", [(64, 3, 3), (2, 3, 2), (3, 3, 3)])
def test_run_batch_starts_no_more_workers_than_runs(monkeypatch, workers, runs, started):
    # a stand-in pool records the worker count asked for and maps in this
    # process, so the test starts no processes
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    cfg = small_cfg("reynolds", steps=2)
    seeds = [mix_seed(cfg.base_seed, j) for j in range(runs)]
    records = run_batch(cfg, seeds, workers=workers)
    assert asked == [started]
    assert [r.run_id for r in records] == list(range(runs))


# --------------------------------------------------------------------------
# experiments
# --------------------------------------------------------------------------


def test_comparison_single_run_equals_simulate():
    cfg = small_cfg("reynolds", steps=5, runs=1)
    records = run_comparison(cfg, [cfg.model])
    direct = simulate(cfg, seed=mix_seed(cfg.base_seed, 0))
    assert records["reynolds"][0].metrics == direct.metrics


def test_comparison_pairs_initial_conditions():
    cfg = small_cfg("reynolds", steps=2, runs=2)
    models = [default_model_spec("reynolds"), default_model_spec("olfati_saber")]
    # run seed j is model independent, so the sampled start must be too
    seed0 = mix_seed(cfg.base_seed, 0)
    start_a = sample_initial_config(cfg, RandomStream(seed0))
    start_b = sample_initial_config(cfg, RandomStream(seed0))
    assert start_a == start_b
    records = run_comparison(cfg, models)
    assert set(records) == {"reynolds", "olfati_saber"}
    assert all(len(v) == 2 for v in records.values())


def test_comparison_frozen_dynamics_models_agree():
    # with a negligible acceleration budget no controller can act, so every
    # model's metric trajectory coincides up to float dust
    limits = MotionLimits(v_max=8.0, a_max=1e-12, dt=0.3)
    cfg = small_cfg("reynolds", steps=6, limits=limits, runs=1)
    models = [default_model_spec(t) for t in ("reynolds", "df_distributed")]
    records = run_comparison(cfg, models)
    for ma, mb in zip(records["reynolds"][0].metrics, records["df_distributed"][0].metrics):
        assert ma.num_components == mb.num_components
        assert ma.velocity_convergence == pytest.approx(
            mb.velocity_convergence, abs=1e-9
        )
        if ma.max_diameter is None:
            assert mb.max_diameter is None
        else:
            assert ma.max_diameter == pytest.approx(mb.max_diameter, abs=1e-6)


def test_noise_sweep_levels_and_pairing():
    assert noise_for_level(0) == NoiseSpec(0.0, 0.0)
    level3 = noise_for_level(3)
    assert level3.sigma_x == pytest.approx(0.6)
    assert level3.sigma_v == pytest.approx(0.3)
    with pytest.raises(ValueError):
        noise_for_level(-1)
    # a bool is not a level, and 2.5 used to give sigma_x = 0.5
    for level in (True, False, 2.5, np.float64(2.0)):
        with pytest.raises(TypeError, match="integer"):
            noise_for_level(level)
    assert noise_for_level(np.int64(3)) == level3
    # a level whose sigma is not a finite float used to raise OverflowError
    with pytest.raises(ValueError, match="too large"):
        noise_for_level(10**400)
    assert noise_for_level(10**307).sigma_x == 0.2 * 10**307
    cfg = small_cfg("reynolds", steps=3, runs=2)
    records = run_noise_sweep(cfg, [cfg.model], levels=[0, 2])
    assert set(records) == {("reynolds", 0), ("reynolds", 2)}


@pytest.mark.parametrize(
    "levels, error",
    [
        ([1, 2.5], TypeError),
        ([1, -1], ValueError),
        ([1, 1], ValueError),
        ([True, 2], TypeError),
    ],
)
def test_noise_sweep_checks_every_level_before_the_first_run(levels, error):
    # a repeated level or tag would share one result key and drop runs
    cfg = small_cfg("reynolds", steps=2, runs=2)
    with mock.patch.object(harness, "simulate") as spy:
        with pytest.raises(error):
            run_noise_sweep(cfg, [cfg.model], levels)
        with pytest.raises(ValueError):
            run_noise_sweep(cfg, [cfg.model] * 2, [1])
        with pytest.raises(ValueError):
            run_comparison(cfg, [cfg.model] * 2)
        # a model that runs at a radius other than cfg.r, after one that fits
        misfit = [cfg.model, ModelSpec("df_centralized", MpcParams(r=5.0))]
        with pytest.raises(ValueError, match="radius"):
            run_noise_sweep(cfg, misfit, [1])
        with pytest.raises(ValueError, match="radius"):
            run_comparison(cfg, misfit)
    spy.assert_not_called()


def test_noise_sweep_rejects_more_runs_than_the_level_stride():
    # run j of level L seeds index L * stride + j, so more runs would reuse
    # the next level's seeds
    cfg = small_cfg("reynolds", runs=harness.LEVEL_SEED_STRIDE + 1)
    with mock.patch.object(harness, "simulate") as spy:
        with pytest.raises(ValueError, match="runs per noise level"):
            run_noise_sweep(cfg, [cfg.model], [0])
    spy.assert_not_called()


def test_sweep_level_zero_matches_noiseless_comparison():
    cfg = small_cfg("reynolds", steps=4, runs=2)
    swept = run_noise_sweep(cfg, [cfg.model], levels=[0])[("reynolds", 0)]
    compared = run_comparison(cfg, [cfg.model])["reynolds"]
    for a, b in zip(swept, compared):
        assert a.metrics == b.metrics
        assert a.final == b.final


# --------------------------------------------------------------------------
# aggregation
# --------------------------------------------------------------------------


def test_aggregate_steps_excludes_none_diameters():
    cfg = small_cfg(
        "reynolds", steps=3, n=2, runs=6, init_position_box=((-60.0, 60.0),) * 2
    )
    records = run_comparison(cfg, [cfg.model])
    rows = aggregate_steps(records)
    assert len(rows) == 3
    for row in rows:
        if row["mean_max_diameter"] is None:
            assert row["max_diameter_none_count"] == 6
        else:
            assert row["max_diameter_none_count"] < 6


def test_aggregate_finals_reports_noise_parameters():
    cfg = small_cfg("reynolds", steps=2, runs=2)
    records = run_noise_sweep(cfg, [cfg.model], levels=[1, 4])
    rows = aggregate_finals(records)
    levels = {row["level"]: row for row in rows}
    assert levels[1]["sigma_x"] == pytest.approx(0.2)
    assert levels[4]["sigma_v"] == pytest.approx(0.4)


@pytest.mark.parametrize(
    "tag, names",
    [
        ("reynolds", ("sense_local_all", "reynolds_accel_all")),
        ("olfati_saber", ("sense_local_all", "olfati_saber_accel_all")),
        ("df_centralized", ("sense_global", "solve_mpc")),
        ("lattice_distributed", ("sense_local_all", "solve_mpc_distributed_all")),
    ],
)
def test_simulate_calls_layers_through_harness_names(tag, names, monkeypatch):
    # wrapping a layer entry point in the harness module reaches the loop
    names += ("step_dynamics", "evaluate_metrics_block")
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(harness, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    simulate(small_cfg(tag, steps=3), seed=1)
    assert all(count > 0 for count in calls.values()), calls


@pytest.mark.parametrize("tag", ["olfati_saber", "lattice_distributed"])
def test_metric_blocks_do_not_change_a_run(tag, monkeypatch):
    # blocks of one step, of 7 (a partial last block) and longer than the run
    cfg = small_cfg(tag, n=8, steps=20, noise=noise_for_level(3))
    whole = simulate(cfg, seed=3)
    for block in (1, 7, 100):
        monkeypatch.setattr(harness, "METRIC_BLOCK_ENTRIES", block * cfg.n**2)
        run = simulate(cfg, seed=3)
        assert run.metrics == whole.metrics
        assert np.array_equal(run.final.positions, whole.final.positions)
        assert np.array_equal(run.final.velocities, whole.final.velocities)


def test_metric_blocks_are_counted_in_steps(monkeypatch):
    sizes = []
    original = harness.evaluate_metrics_block
    entries = harness.METRIC_BLOCK_ENTRIES

    def counted(positions, velocities, r):
        sizes.append(len(positions))
        return original(positions, velocities, r)

    monkeypatch.setattr(harness, "evaluate_metrics_block", counted)
    monkeypatch.setattr(harness, "METRIC_BLOCK_ENTRIES", 7 * 8**2)
    simulate(small_cfg(n=8, steps=20), seed=1)
    assert sizes == [7, 7, 6]
    sizes.clear()
    simulate(small_cfg(n=30, steps=20), seed=1)  # blocks of one step at n = 30
    assert sizes == [1] * 20
    # the shipped constant: blocks of two steps at n = 64, of one from n = 65
    monkeypatch.setattr(harness, "METRIC_BLOCK_ENTRIES", entries)
    for n, expected in ((64, [2, 2, 1]), (65, [1, 1, 1, 1, 1])):
        sizes.clear()
        simulate(small_cfg(n=n, steps=5), seed=1)
        assert sizes == expected


def test_simulate_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on first use, a megabyte of peak memory
    code = (
        "import sys\n"
        "from flockbench import MODEL_TAGS, ExperimentConfig, default_model_spec\n"
        "from flockbench import noise_for_level, simulate\n"
        "for tag in MODEL_TAGS:\n"
        "    cfg = ExperimentConfig(model=default_model_spec(tag), n=6, steps=3,\n"
        "                           noise=noise_for_level(3))\n"
        "    simulate(cfg, 1)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("level", [0, 3])
@pytest.mark.parametrize("tag", MODEL_TAGS)
def test_closed_loop_raises_no_warnings(tag, level):
    # masked means over empty neighborhoods and solver overflow stay silent
    cfg = small_cfg(tag, n=8, steps=10, noise=noise_for_level(level))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate(cfg, seed=5)


@pytest.mark.parametrize("T", [1, 2, 3])
@pytest.mark.parametrize("axis_t", [0, 1])
def test_shift_plan_is_a_roll_with_a_zeroed_last_step(axis_t, T):
    # a centralized plan is (T, n, m) and a distributed step's plans
    # (n, T, m); signed zeros and the values of every step must come out as
    # np.roll leaves them, with +0.0 in the last step
    rng = np.random.default_rng(34 + T)
    shape = (T, 4, 2) if axis_t == 0 else (4, T, 2)
    plans = rng.normal(size=shape)
    plans[rng.random(shape) < 0.3] = -0.0
    expected = np.roll(plans, -1, axis=axis_t)
    np.moveaxis(expected, axis_t, 0)[-1] = 0.0
    shifted = harness._shift_plan(plans, axis_t)
    assert shifted.dtype == plans.dtype and shifted.shape == plans.shape
    assert shifted.tobytes() == expected.tobytes()
    assert not np.signbit(np.moveaxis(shifted, axis_t, 0)[-1]).any()
    assert not np.shares_memory(shifted, plans)
