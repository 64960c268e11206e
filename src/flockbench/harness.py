"""
Experiment orchestration: model dispatch, seeded closed-loop simulation, and
the two benchmark experiments (model comparison and noise sweep).

Simulation loop, per step: sample sensing noise (one shared view for
centralized MPC models, one view per agent for everything else), compute
accelerations with the chosen model, advance the true noiseless state, and
keep it for the four metrics, which are evaluated a block of kept states at
a time.  Noise only ever corrupts what controllers see.  The per-agent
views come from one array pass, ``sense_local_all``, as (n, n, m) arrays
that the rule controllers (``reynolds_accel_all``,
``olfati_saber_accel_all``) and the distributed MPC batch take whole, each
copying them once into a component-major ``core.StackedViews`` whose inner
loops run over the n observers; the per-agent ``sense_local``,
``reynolds_accel`` and ``olfati_saber_accel`` are the oracles the tests
hold them to.

Reproducibility: run j of an experiment uses the seed
``mix_seed(base_seed, j)``; noise-sweep run j at level L uses
``mix_seed(base_seed, L * LEVEL_SEED_STRIDE + j)``.  Results are therefore
independent of the parallelism degree, every model in a comparison starts
run j from the same initial configuration, and a level-0 sweep replays the
comparison's runs exactly.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .controllers import (
    OlfatiSaberParams,
    ReynoldsParams,
    olfati_saber_accel_all,
    reynolds_accel_all,
)
from .core import (
    FlockConfiguration,
    MotionLimits,
    NoiseSpec,
    RandomStream,
    _check_fields,
    _integer,
    mix_seed,
    sense_global,
    sense_local_all,
    step_dynamics,
)
from .metrics import evaluate_metrics_block
from .mpc import MpcParams, SolverError, solve_mpc, solve_mpc_distributed_all

# Not called by the loop; kept bound because tracing tools wrap these names.
from .controllers import olfati_saber_accel, reynolds_accel
from .core import sense_local
from .metrics import evaluate_metrics

__all__ = [
    "MODELS",
    "MODEL_TAGS",
    "ModelEntry",
    "ModelSpec",
    "ExperimentConfig",
    "RunRecord",
    "default_model_spec",
    "sample_initial_config",
    "simulate",
    "run_batch",
    "run_comparison",
    "run_noise_sweep",
    "noise_for_level",
    "aggregate_steps",
    "aggregate_finals",
]


# --------------------------------------------------------------------------
# Model registry
# --------------------------------------------------------------------------
#
# A step function maps (true configuration, ExperimentConfig, rng, warm) to
# (accelerations, next warm start).  Sensing, controllers and solvers are
# looked up as module globals on every call, so wrapping those names in this
# module (for tracing or profiling) reaches the closed loop.


def _shift_plan(controls, axis_t):
    """Receding-horizon warm start: drop the applied step, zero-pad the end."""
    shifted = np.zeros_like(controls)
    lead = (slice(None),) * axis_t
    shifted[lead + (slice(None, -1),)] = controls[lead + (slice(1, None),)]
    return shifted


def _reynolds_step(config, cfg, rng, warm):
    positions, velocities = sense_local_all(config, cfg.noise, rng)
    return reynolds_accel_all(positions, velocities, cfg.model.params), None


def _olfati_saber_step(config, cfg, rng, warm):
    positions, velocities = sense_local_all(config, cfg.noise, rng)
    return olfati_saber_accel_all(positions, velocities, cfg.model.params), None


def _centralized_mpc_step(config, cfg, rng, warm):
    model = cfg.model
    view = sense_global(config, cfg.noise, rng)
    result = solve_mpc(model.tag, view, model.params, cfg.limits, warm_start=warm)
    return result.accel, _shift_plan(result.controls, axis_t=0)


def _distributed_mpc_step(config, cfg, rng, warm):
    positions, velocities = sense_local_all(config, cfg.noise, rng)
    accel, plans = solve_mpc_distributed_all(
        cfg.model.tag, positions, velocities, cfg.model.params, cfg.limits,
        warm_start=warm,
    )
    return accel, _shift_plan(plans, axis_t=1)


@dataclass(frozen=True)
class ModelEntry:
    """Parameter dataclass, config-key prefix and closed-loop step of a tag."""

    params: type
    prefix: str
    step: Callable


MODELS = {
    "reynolds": ModelEntry(ReynoldsParams, "reynolds", _reynolds_step),
    "olfati_saber": ModelEntry(OlfatiSaberParams, "olfati", _olfati_saber_step),
    "lattice_centralized": ModelEntry(MpcParams, "mpc", _centralized_mpc_step),
    "lattice_distributed": ModelEntry(MpcParams, "mpc", _distributed_mpc_step),
    "df_centralized": ModelEntry(MpcParams, "mpc", _centralized_mpc_step),
    "df_distributed": ModelEntry(MpcParams, "mpc", _distributed_mpc_step),
}

MODEL_TAGS = tuple(MODELS)


@dataclass(frozen=True)
class ModelSpec:
    """A controller choice: one tag plus the matching parameter record."""

    tag: str
    params: object

    def __post_init__(self):
        if self.tag not in MODELS:
            raise ValueError(f"unknown model tag {self.tag!r}")
        expected = MODELS[self.tag].params
        if not isinstance(self.params, expected):
            raise ValueError(
                f"model {self.tag!r} expects {expected.__name__} parameters,"
                f" got {type(self.params).__name__}"
            )


def default_model_spec(tag: str) -> ModelSpec:
    """The benchmark defaults for a tag."""
    if tag not in MODELS:
        raise ValueError(f"unknown model tag {tag!r}")
    return ModelSpec(tag, MODELS[tag].params())


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs; see `default_model_spec` for models.  A
    model whose parameters hold a radius r must run at the metrics' r.  n,
    steps, runs and base_seed are integers, and the initial boxes' bounds
    finite."""

    model: ModelSpec
    n: int = 30
    steps: int = 100
    limits: MotionLimits = MotionLimits()
    r: float = 8.4
    noise: NoiseSpec = NoiseSpec()
    runs: int = 20
    base_seed: int = 1
    init_position_box: tuple = ((-15.0, 15.0), (-15.0, 15.0))
    init_velocity_box: tuple = ((0.0, 2.0), (0.0, 2.0))

    def __post_init__(self):
        _check_fields(self, integers=("n", "steps", "runs", "base_seed"))
        if min(self.n, self.steps, self.runs) < 1:
            raise ValueError("n, steps and runs must all be at least 1")
        if not self.r > 0:
            raise ValueError("interaction radius must be positive")
        if getattr(self.model.params, "r", self.r) != self.r:
            raise ValueError(f"model {self.model.tag!r} runs at a radius other than r")
        if len(self.init_position_box) < 1:
            raise ValueError("the initial boxes need at least one dimension")
        if len(self.init_position_box) != len(self.init_velocity_box):
            raise ValueError("position and velocity boxes must share a dimension")
        for name in ("init_position_box", "init_velocity_box"):
            for lo, hi in getattr(self, name):
                if not -np.inf < lo <= hi < np.inf:
                    raise ValueError(
                        f"{name} range ({lo}, {hi}) must be finite with min <= max"
                    )

    @property
    def dimension(self) -> int:
        return len(self.init_position_box)


@dataclass
class RunRecord:
    """One closed-loop run: per-step metrics plus the final state."""

    run_id: int
    metrics: list
    final: FlockConfiguration
    duration: float


def sample_initial_config(cfg: ExperimentConfig, rng: RandomStream) -> FlockConfiguration:
    """Uniformly sample initial positions and velocities from the boxes.

    Component order is fixed (agent-ascending, position before velocity,
    component-ascending) so a seed pins the exact configuration.
    """
    n, m = cfg.n, cfg.dimension
    u = rng.uniforms(2 * n * m).reshape(n, 2, m)
    pos_box = np.asarray(cfg.init_position_box, dtype=np.float64)
    vel_box = np.asarray(cfg.init_velocity_box, dtype=np.float64)
    pos = pos_box[:, 0] + (pos_box[:, 1] - pos_box[:, 0]) * u[:, 0, :]
    vel = vel_box[:, 0] + (vel_box[:, 1] - vel_box[:, 0]) * u[:, 1, :]
    return FlockConfiguration(pos, vel)


# --------------------------------------------------------------------------
# Closed-loop simulation
# --------------------------------------------------------------------------


# simulate measures max(1, METRIC_BLOCK_ENTRIES // n**2) steps at a time, so
# a block's distance matrices hold at most this many entries (9 steps at
# n = 30, two at n = 64, one step from n = 65 on)
METRIC_BLOCK_ENTRIES = 2**13


def simulate(
    cfg: ExperimentConfig,
    seed: int,
    run_id: int = 0,
    initial: FlockConfiguration | None = None,
) -> RunRecord:
    """Run the closed loop for cfg.steps steps from a seeded initial state.

    `initial` replaces the box-sampled starting configuration (the noise
    stream still comes from the seed); it must have cfg.n agents.  The
    measures never feed back into the loop, so each step's true state is
    kept and measured in blocks by `evaluate_metrics_block`.
    """
    rng = RandomStream(seed)
    if initial is None:
        config = sample_initial_config(cfg, rng)
    else:
        if initial.n != cfg.n or initial.dimension != cfg.dimension:
            raise ValueError(
                f"initial configuration is {initial.n}x{initial.dimension}, "
                f"expected {cfg.n}x{cfg.dimension}"
            )
        config = initial
    step_model = MODELS[cfg.model.tag].step
    block = min(cfg.steps, max(1, METRIC_BLOCK_ENTRIES // cfg.n**2))
    kept = np.empty((2, block, cfg.n, cfg.dimension))  # positions, velocities
    warm = None
    records = []
    started = time.perf_counter()
    for step in range(cfg.steps):
        try:
            accel, warm = step_model(config, cfg, rng, warm)
        except SolverError as err:
            err.diagnostics.update(run_id=run_id, step=step, model=cfg.model.tag)
            raise
        config = step_dynamics(config, accel, cfg.limits)
        slot = step % block
        kept[:, slot] = config.positions, config.velocities
        if slot == block - 1 or step == cfg.steps - 1:
            records += evaluate_metrics_block(*kept[:, : slot + 1], cfg.r)
    return RunRecord(
        run_id=run_id,
        metrics=records,
        final=config,
        duration=time.perf_counter() - started,
    )


def ProcessPoolExecutor(max_workers):
    """A `concurrent.futures.ProcessPoolExecutor` of max_workers processes,
    imported on first use: that import (multiprocessing, sockets, logging)
    takes about 40 ms, which every process would otherwise pay at start,
    serial runs included."""
    from concurrent.futures import ProcessPoolExecutor as Pool

    return Pool(max_workers=max_workers)


def run_batch(cfg: ExperimentConfig, seeds, workers: int = 1) -> list:
    """Run one seeded simulation per seed, optionally across processes.

    Results come back ordered by run index, so output files are identical
    for any worker count.  The pool starts no more processes than there
    are runs.
    """
    seeds = list(seeds)
    args = ([cfg] * len(seeds), seeds, range(len(seeds)))
    if workers <= 1 or len(seeds) <= 1:
        return list(map(simulate, *args))
    with ProcessPoolExecutor(max_workers=min(workers, len(seeds))) as pool:
        return list(pool.map(simulate, *args))


# --------------------------------------------------------------------------
# Experiments
# --------------------------------------------------------------------------


def _check_unique(what, values):
    """ValueError for a repeated value, whose runs would share a result key."""
    if len(set(values)) < len(values):
        raise ValueError(f"repeated {what} in {values}")


def run_comparison(cfg: ExperimentConfig, models, workers: int = 1) -> dict:
    """Run every model over the same paired run seeds, cfg.runs each.

    Returns {tag: [RunRecord, ...]}; run j of each model starts from the
    identical sampled initial configuration because the seed only depends
    on (base_seed, j).  A repeated tag, or a model that does not fit cfg, is
    a ValueError before the first run.
    """
    models = list(models)
    _check_unique("model tag", [spec.tag for spec in models])
    cells = {spec.tag: replace(cfg, model=spec) for spec in models}
    seeds = [mix_seed(cfg.base_seed, j) for j in range(cfg.runs)]
    return {tag: run_batch(cell, seeds, workers) for tag, cell in cells.items()}


def noise_for_level(level: int) -> NoiseSpec:
    """Benchmark noise schedule: level i has sigma_x = 0.2 i, sigma_v = 0.1 i.
    A bool or a non-integer level is a TypeError; a negative one, or one so
    large that a sigma is not a finite float, a ValueError."""
    if _integer(level, "noise level") < 0:
        raise ValueError(f"noise level must be nonnegative, got {level}")
    try:
        return NoiseSpec(sigma_x=0.2 * level, sigma_v=0.1 * level)
    except OverflowError:
        raise ValueError("noise level too large: its sigmas are not finite floats") from None


# run-index stride between noise levels; level L run j draws the seed for
# index L * stride + j, so level 0 replays the comparison's run seeds exactly
LEVEL_SEED_STRIDE = 1_000_000


def run_noise_sweep(cfg: ExperimentConfig, models, levels, workers: int = 1) -> dict:
    """Run every model at every noise level, cfg.runs each.

    Returns {(tag, level): [RunRecord, ...]}.  Run j at level L uses
    ``mix_seed(base_seed, L * LEVEL_SEED_STRIDE + j)``: models are paired per
    level, and a level-0 sweep reproduces the noiseless comparison runs.
    Every level is checked before the first run: a TypeError for a bool or
    a level that is not an integer, a ValueError for a negative or repeated
    one; a repeated tag, or a model that does not fit cfg, is a ValueError
    too.
    """
    if cfg.runs > LEVEL_SEED_STRIDE:
        raise ValueError(f"at most {LEVEL_SEED_STRIDE} runs per noise level")
    levels, models = list(levels), list(models)
    for level in levels:
        noise_for_level(level)  # raises for a bad level
    _check_unique("noise level", levels)
    _check_unique("model tag", [spec.tag for spec in models])
    cells = {
        (spec.tag, level): replace(cfg, noise=noise_for_level(level), model=spec)
        for level in levels
        for spec in models
    }
    seeds = {
        level: [mix_seed(cfg.base_seed, level * LEVEL_SEED_STRIDE + j) for j in range(cfg.runs)]
        for level in levels
    }
    return {key: run_batch(cell, seeds[key[1]], workers) for key, cell in cells.items()}


# --------------------------------------------------------------------------
# Aggregation
# --------------------------------------------------------------------------


def _metric_means(metrics) -> dict:
    """Means of the four metrics over runs; diameters of all-isolated
    configurations are left out of their mean and counted instead.  The
    keys, in order, are the summary columns `output` writes."""
    diameters = [m.max_diameter for m in metrics if m.max_diameter is not None]
    return {
        "mean_num_components": float(np.mean([m.num_components for m in metrics])),
        "mean_max_diameter": sum(diameters) / len(diameters) if diameters else None,
        "max_diameter_none_count": len(metrics) - len(diameters),
        "mean_velocity_convergence": float(
            np.mean([m.velocity_convergence for m in metrics])
        ),
        "mean_irregularity": float(np.mean([m.irregularity for m in metrics])),
    }


def aggregate_steps(records_by_model: dict) -> list:
    """Per-model, per-step means across runs.

    Diameters of all-isolated configurations are excluded from the mean;
    their count is reported alongside.
    """
    rows = []
    for tag, records in records_by_model.items():
        for step in range(len(records[0].metrics)):
            at_step = [rec.metrics[step] for rec in records]
            rows.append({"model": tag, "step": step, **_metric_means(at_step)})
    return rows


def aggregate_finals(records_by_model_level: dict) -> list:
    """Per-model, per-level means of the final-step metrics."""
    rows = []
    for (tag, level), records in sorted(
        records_by_model_level.items(), key=lambda kv: (kv[0][1], kv[0][0])
    ):
        noise = noise_for_level(level)
        rows.append(
            {
                "model": tag,
                "level": level,
                "sigma_x": noise.sigma_x,
                "sigma_v": noise.sigma_v,
                **_metric_means([rec.metrics[-1] for rec in records]),
            }
        )
    return rows
