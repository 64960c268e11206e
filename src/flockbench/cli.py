"""
flockbench command line: seeded simulations, the model-comparison benchmark,
the sensing-noise sweep, and chart rendering from summary CSVs.

Configuration is a flat key/value document (``key = value`` per line, ``#``
comments, dotted section prefixes).  Command-line flags override file values
and the fully resolved configuration is echoed into the output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .core import MotionLimits, NoiseSpec
from .harness import (
    MODEL_TAGS,
    MODELS,
    ExperimentConfig,
    ModelSpec,
    aggregate_finals,
    aggregate_steps,
    noise_for_level,
    run_comparison,
    run_noise_sweep,
    simulate,
)
from .mpc import SolverError
from .output import (
    COMPARISON_SUMMARY_FIELDS,
    METRIC_COLUMNS,
    NOISE_SUMMARY_FIELDS,
    emit_plots,
    read_summary_csv,
    write_final_state_csv,
    write_steps_csv,
    write_summary_csv,
)

# key prefix -> parameter dataclass; every field f is the key "<prefix>.f",
# except a field named r, which takes the top-level interaction radius
_SECTIONS = {
    "limits": MotionLimits,
    "noise": NoiseSpec,
    **{model.prefix: model.params for model in MODELS.values()},
}

# ExperimentConfig's field defaults; each initial box gives one min and one
# max key, its first dimension's range
_EXPERIMENT = {f.name: f.default for f in fields(ExperimentConfig)}

DEFAULTS = {
    "model": "df_distributed",
    "workers": "0",
    "dimension": str(len(_EXPERIMENT["init_position_box"])),
    "seed": f"{_EXPERIMENT['base_seed']:g}",
    **{key: f"{_EXPERIMENT[key]:g}" for key in ("n", "steps", "runs", "r")},
    **{
        f"init.{box}_{end}": f"{_EXPERIMENT[f'init_{box}_box'][0][k]:g}"
        for box in ("position", "velocity")
        for k, end in enumerate(("min", "max"))
    },
    **{
        f"{prefix}.{f.name}": f"{f.default:g}"
        for prefix, params in _SECTIONS.items()
        for f in fields(params)
        if f.name != "r"
    },
}


class CliError(Exception):
    pass


def parse_config_file(path: str) -> dict:
    settings = {}
    try:
        with open(path) as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                settings[key.strip()] = value.strip()
    except OSError as err:
        raise CliError(f"cannot read config file {path}: {err}") from err
    return settings


def resolve_settings(args) -> dict:
    settings = dict(DEFAULTS)
    if getattr(args, "config", None):
        file_settings = parse_config_file(args.config)
        unknown = set(file_settings) - set(DEFAULTS)
        if unknown:
            raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
        settings.update(file_settings)
    for key in ("model", "seed", "runs", "workers"):
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = str(value)
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise CliError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in DEFAULTS:
            raise CliError(f"unknown config key {key!r}")
        settings[key] = value.strip()
    if _get_int(settings, "workers") < 0:
        raise CliError(
            f"workers must be 0 (one per CPU) or more, got {settings['workers']}"
        )
    return settings


def _get_float(settings, key) -> float:
    try:
        return float(settings[key])
    except ValueError as err:
        raise CliError(f"config key {key} is not a number: {settings[key]!r}") from err


def _get_int(settings, key) -> int:
    try:
        return int(settings[key], 0)
    except ValueError as err:
        raise CliError(f"config key {key} is not an integer: {settings[key]!r}") from err


def _box(settings, lo_key, hi_key, dimension) -> tuple:
    bounds = []
    for key in (lo_key, hi_key):
        try:
            values = [float(v) for v in settings[key].split(",")]
        except ValueError as err:
            raise CliError(f"config key {key} is not a number: {settings[key]!r}") from err
        if len(values) not in (1, dimension):
            raise CliError(f"{lo_key}/{hi_key} must have 1 or {dimension} entries")
        bounds.append(values * dimension if len(values) == 1 else values)
    return tuple(zip(*bounds))


def _read_section(settings, prefix, params):
    """Build the parameter dataclass of a config section; fields with an int
    default are read as integers, the others as floats."""
    values = {}
    for f in fields(params):
        if f.name == "r":
            values["r"] = _get_float(settings, "r")
        else:
            get = _get_int if isinstance(f.default, int) else _get_float
            values[f.name] = get(settings, f"{prefix}.{f.name}")
    return params(**values)


def build_model_spec(settings, tag: str) -> ModelSpec:
    if tag not in MODELS:
        raise CliError(f"unknown model {tag!r}; choose from {', '.join(MODEL_TAGS)}")
    model = MODELS[tag]
    return ModelSpec(tag, _read_section(settings, model.prefix, model.params))


def build_experiment(settings, tag: str) -> ExperimentConfig:
    dimension = _get_int(settings, "dimension")
    return ExperimentConfig(
        model=build_model_spec(settings, tag),
        n=_get_int(settings, "n"),
        steps=_get_int(settings, "steps"),
        limits=_read_section(settings, "limits", MotionLimits),
        r=_get_float(settings, "r"),
        noise=_read_section(settings, "noise", NoiseSpec),
        runs=_get_int(settings, "runs"),
        base_seed=_get_int(settings, "seed"),
        init_position_box=_box(
            settings, "init.position_min", "init.position_max", dimension
        ),
        init_velocity_box=_box(
            settings, "init.velocity_min", "init.velocity_max", dimension
        ),
    )


def _resolve_models(settings, models_arg: str) -> list:
    if models_arg.strip() == "all":
        tags = list(MODEL_TAGS)
    else:
        tags = [tag.strip() for tag in models_arg.split(",") if tag.strip()]
    if not tags:
        raise CliError("no models selected")
    if len(set(tags)) != len(tags):
        raise CliError(f"model tags listed more than once: {models_arg!r}")
    return [build_model_spec(settings, tag) for tag in tags]


def _parse_levels(text: str) -> list:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            levels = list(range(int(lo), int(hi) + 1))
        else:
            levels = [int(part) for part in text.split(",") if part.strip()]
        if not levels or any(level < 0 for level in levels):
            raise ValueError("no levels, or a negative one")
    except ValueError as err:
        raise CliError(f"invalid noise levels {text!r}") from err
    if len(set(levels)) != len(levels):
        raise CliError(f"noise levels listed more than once: {text!r}")
    return levels


def _workers(settings) -> int:
    return _get_int(settings, "workers") or os.cpu_count() or 1


def _prepare_out(out_dir: str, settings) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "effective_config.txt")
    with open(path, "w") as handle:
        for key in sorted(settings):
            handle.write(f"{key} = {settings[key]}\n")


def _echo_models(settings, models) -> dict:
    """Settings to echo for a multi-model command: `model` lists the
    comma-joined tags that ran."""
    return {**settings, "model": ",".join(spec.tag for spec in models)}


def _cmd_simulate(args) -> int:
    settings = resolve_settings(args)
    cfg = build_experiment(settings, settings["model"])
    _prepare_out(args.out, settings)
    record = simulate(cfg, seed=cfg.base_seed)
    write_steps_csv(os.path.join(args.out, "steps.csv"), {cfg.model.tag: [record]})
    write_final_state_csv(os.path.join(args.out, "final_state.csv"), record.final)
    print(f"simulated {cfg.model.tag}: {cfg.steps} steps, n={cfg.n} -> {args.out}")
    return 0


def _cmd_compare(args) -> int:
    settings = resolve_settings(args)
    models = _resolve_models(settings, args.models)
    cfg = build_experiment(settings, models[0].tag)
    _prepare_out(args.out, _echo_models(settings, models))
    records = run_comparison(cfg, models, workers=_workers(settings))
    write_steps_csv(os.path.join(args.out, "steps.csv"), records)
    summary = aggregate_steps(records)
    write_summary_csv(
        os.path.join(args.out, "summary.csv"), summary, COMPARISON_SUMMARY_FIELDS
    )
    emit_plots(summary, args.out, x_key="step")
    print(
        f"compared {len(records)} models x {cfg.runs} runs x {cfg.steps} steps"
        f" -> {args.out}"
    )
    return 0


def _cmd_noise_sweep(args) -> int:
    settings = resolve_settings(args)
    models = _resolve_models(settings, args.models)
    levels = _parse_levels(args.levels)
    for level in levels:
        noise_for_level(level)  # raises for a bad level, before any output
    cfg = build_experiment(settings, models[0].tag)
    fixed = [f"noise.{f.name}" for f in fields(NoiseSpec) if getattr(cfg.noise, f.name)]
    if fixed:
        raise CliError(
            f"noise-sweep sets each level's noise; {', '.join(fixed)} must be 0"
        )
    _prepare_out(args.out, _echo_models(settings, models))
    records = run_noise_sweep(cfg, models, levels, workers=_workers(settings))
    for level in levels:
        at_level = {
            tag: recs for (tag, lv), recs in records.items() if lv == level
        }
        write_steps_csv(
            os.path.join(args.out, f"steps_level{level}.csv"), at_level
        )
    summary = aggregate_finals(records)
    write_summary_csv(
        os.path.join(args.out, "noise_summary.csv"), summary, NOISE_SUMMARY_FIELDS
    )
    emit_plots(summary, args.out, x_key="level")
    print(
        f"swept {len(models)} models over levels {levels[0]}..{levels[-1]}"
        f" ({cfg.runs} runs each) -> {args.out}"
    )
    return 0


def _cmd_plot(args) -> int:
    fields, rows = read_summary_csv(args.summary)
    if not rows:
        raise CliError(f"summary file {args.summary} has no data rows")
    x_key = "level" if "level" in fields else "step"
    missing = [c for c in ("model", x_key, *METRIC_COLUMNS) if c not in fields]
    if missing:
        raise CliError(
            f"{args.summary} is not a summary file; missing {', '.join(missing)}"
        )
    paths = emit_plots(rows, args.out, x_key=x_key)
    print(f"wrote {len(paths)} charts -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flockbench",
        description="flocking-controller simulation and benchmarking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_models=False):
        p.add_argument("--config", help="key/value configuration file")
        p.add_argument("--seed", type=int, help="base random seed")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a single config key (repeatable)",
        )
        p.add_argument(
            "--workers", type=int, help="parallel run workers (0 = one per CPU)"
        )
        if with_models:
            p.add_argument(
                "--models",
                default="all",
                help="comma-separated model tags or 'all'",
            )
            p.add_argument("--runs", type=int, help="runs per model")

    p_sim = sub.add_parser("simulate", help="run one seeded simulation")
    p_sim.add_argument("--model", required=True, choices=MODEL_TAGS)
    common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_cmp = sub.add_parser("compare", help="benchmark models on shared seeds")
    common(p_cmp, with_models=True)
    p_cmp.set_defaults(func=_cmd_compare, model=None)

    p_sweep = sub.add_parser("noise-sweep", help="benchmark under sensing noise")
    p_sweep.add_argument(
        "--levels", default="1..10", help="noise levels, e.g. 1..10 or 2,4,6"
    )
    common(p_sweep, with_models=True)
    p_sweep.set_defaults(func=_cmd_noise_sweep, model=None)

    p_plot = sub.add_parser("plot", help="render charts from a summary CSV")
    p_plot.add_argument("--summary", required=True, help="summary CSV path")
    p_plot.add_argument("--out", required=True, help="output directory")
    p_plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as err:
        print(f"error: config: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError, SolverError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
