import pathlib
import re
import subprocess
import sys
import tomllib

import pytest

from flockbench.cli import (
    DEFAULTS,
    CliError,
    build_experiment,
    build_model_spec,
    main,
    parse_config_file,
)
from flockbench.harness import MODEL_TAGS, ExperimentConfig, default_model_spec
from flockbench.output import COMPARISON_SUMMARY_FIELDS, NOISE_SUMMARY_FIELDS
from conftest import child_env

FAST_OVERRIDES = [
    "--set", "n=4",
    "--set", "steps=3",
]


def run_cli(args):
    return main(list(args))


def test_simulate_writes_outputs(tmp_path, capsys):
    out = tmp_path / "sim"
    code = run_cli(
        ["simulate", "--model", "reynolds", "--seed", "11", "--out", str(out)]
        + FAST_OVERRIDES
    )
    assert code == 0
    assert (out / "steps.csv").exists()
    assert (out / "final_state.csv").exists()
    assert (out / "effective_config.txt").exists()
    echoed = (out / "effective_config.txt").read_text()
    assert "n = 4" in echoed and "seed = 11" in echoed
    lines = (out / "steps.csv").read_text().splitlines()
    assert len(lines) == 1 + 3  # header + one row per step


def test_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 6\nsteps = 2\nnoise.sigma_x = 0.1  # noisy\n")
    parsed = parse_config_file(str(cfg))
    assert parsed == {"n": "6", "steps": "2", "noise.sigma_x": "0.1"}
    out = tmp_path / "sim"
    code = run_cli(
        [
            "simulate",
            "--model",
            "reynolds",
            "--config",
            str(cfg),
            "--seed",
            "3",
            "--out",
            str(out),
            "--set",
            "steps=4",  # flag wins over file
        ]
    )
    assert code == 0
    lines = (out / "steps.csv").read_text().splitlines()
    assert len(lines) == 1 + 4


def test_config_precedence(tmp_path, capsys):
    # defaults < config file < dedicated flags < --set, key by key
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("model = df_centralized\nseed = 5\nn = 4\nsteps = 9\n")
    out = tmp_path / "sim"
    code = run_cli(
        [
            "simulate", "--model", "reynolds", "--config", str(cfg), "--seed", "3",
            "--set", "model=olfati_saber", "--set", "steps=2", "--out", str(out),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("simulated olfati_saber: 2 steps, n=4")
    echoed = dict(
        line.split(" = ", 1)
        for line in (out / "effective_config.txt").read_text().splitlines()
    )
    assert echoed == dict(DEFAULTS, model="olfati_saber", seed="3", n="4", steps="2")


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    code = run_cli(
        ["simulate", "--model", "reynolds", "--config", str(cfg), "--out", str(tmp_path / "x")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    # a config line or --set without '=', and an unknown model tag
    no_equals = tmp_path / "no_equals.cfg"
    no_equals.write_text("n 5\n")
    for args in (
        ["simulate", "--model", "reynolds", "--config", str(no_equals)],
        ["simulate", "--model", "reynolds", "--set", "n5"],
        ["compare", "--models", "boids"],
    ):
        assert run_cli(args + ["--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


def test_config_file_skips_comment_and_blank_lines(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# a whole-line comment\n\n   \nn = 4\n  # indented\nsteps = 2\n")
    assert parse_config_file(str(cfg)) == {"n": "4", "steps": "2"}
    out = tmp_path / "sim"
    code = run_cli(
        ["simulate", "--model", "reynolds", "--config", str(cfg), "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out == f"simulated reynolds: 2 steps, n=4 -> {out}\n"


@pytest.mark.parametrize(
    "setting, message",
    [
        ("bogus=1", "unknown config key 'bogus'"),
        (
            "init.position_min=0,1,2",
            "init.position_min/init.position_max must have 1 or 2 entries",
        ),
    ],
)
def test_simulate_rejects_a_bad_set_override(tmp_path, capsys, setting, message):
    out = tmp_path / "x"
    code = run_cli(
        ["simulate", "--model", "reynolds", "--out", str(out), "--set", setting]
        + FAST_OVERRIDES
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: config: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["compare", "noise-sweep", "simulate"])
def test_negative_workers_fail_before_any_output(tmp_path, capsys, command):
    # 0 asks for one worker per CPU; a negative count is an error, whether
    # it comes from the flag, a --set override or a config file
    cfg = tmp_path / "workers.cfg"
    cfg.write_text("workers = -3\n")
    args = [command] + (["--model", "reynolds"] if command == "simulate" else [])
    for given in (["--workers", "-1"], ["--set", "workers=-3"], ["--config", str(cfg)]):
        out = tmp_path / "x"
        assert run_cli(args + given + FAST_OVERRIDES + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config: workers must be 0")
        assert err.count("\n") == 1
        assert not out.exists()


def test_missing_config_file_fails(tmp_path, capsys):
    code = run_cli(
        [
            "simulate",
            "--model",
            "reynolds",
            "--config",
            str(tmp_path / "absent.cfg"),
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_compare_and_plot(tmp_path):
    out = tmp_path / "cmp"
    code = run_cli(
        [
            "compare",
            "--models",
            "reynolds,olfati_saber",
            "--runs",
            "2",
            "--seed",
            "9",
            "--out",
            str(out),
            "--workers",
            "1",
        ]
        + FAST_OVERRIDES
    )
    assert code == 0
    assert (out / "steps.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "num_components.svg").exists()
    replot = tmp_path / "replot"
    code = run_cli(
        ["plot", "--summary", str(out / "summary.csv"), "--out", str(replot)]
    )
    assert code == 0
    assert (replot / "irregularity.svg").exists()


def test_compare_models_all_runs_every_model(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = run_cli(
        ["compare", "--models", " all ", "--runs", "1", "--workers", "1"]
        + ["--out", str(out)]
        + FAST_OVERRIDES
    )
    assert code == 0
    assert capsys.readouterr().out == (
        f"compared {len(MODEL_TAGS)} models x 1 runs x 3 steps -> {out}\n"
    )
    echoed = (out / "effective_config.txt").read_text().splitlines()
    assert f"model = {','.join(MODEL_TAGS)}" in echoed


def test_plot_rejects_a_summary_without_data_rows(tmp_path, capsys):
    summary = tmp_path / "summary.csv"
    summary.write_text(",".join(COMPARISON_SUMMARY_FIELDS) + "\n")
    out = tmp_path / "charts"
    code = run_cli(["plot", "--summary", str(summary), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: config: summary file {summary} has no data rows\n"
    )
    assert not out.exists()


def test_plot_rejects_a_file_that_is_not_a_summary(tmp_path, capsys):
    sim = tmp_path / "sim"
    run_cli(["simulate", "--model", "reynolds", "--out", str(sim)] + FAST_OVERRIDES)
    capsys.readouterr()
    out = tmp_path / "charts"
    code = run_cli(["plot", "--summary", str(sim / "steps.csv"), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert "mean_num_components" in err
    assert not out.exists()


@pytest.mark.parametrize("row", ["x,1,2,3,4,5", "x,1,2,3,4,5,6,7"])
def test_plot_rejects_a_ragged_summary_row(tmp_path, capsys, row):
    # a data row with fewer or more fields than the header's seven
    summary = tmp_path / "short.csv"
    summary.write_text("model,step,a,b,c,d,e\n" + row + "\n")
    out = tmp_path / "charts"
    code = run_cli(["plot", "--summary", str(summary), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: ValueError: {summary}: line 2 does not have the header's 7 fields\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "header, rows, key",
    [
        (COMPARISON_SUMMARY_FIELDS, ["m,0,1,2,0,3,4", ",1,1,2,0,3,4"], "model"),
        (COMPARISON_SUMMARY_FIELDS, ["m,0,1,2,0,3,4", "m,,1,2,0,3,4"], "step"),
        (NOISE_SUMMARY_FIELDS, ["m,0,0,0,1,2,0,3,4", "m,,0,0,1,2,0,3,4"], "level"),
    ],
)
def test_plot_rejects_an_empty_key_field(tmp_path, capsys, header, rows, key):
    # an empty key would otherwise reach the chart code as None
    summary = tmp_path / "summary.csv"
    summary.write_text("\n".join([",".join(header), *rows]) + "\n")
    out = tmp_path / "charts"
    code = run_cli(["plot", "--summary", str(summary), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: ValueError: {summary}: line 3 has an empty {key!r} field\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "row, key, reason",
    [
        ("m,1,abc,2,0,3,4", "mean_num_components",
         "could not convert string to float: 'abc'"),
        ("m,1.5,1,2,0,3,4", "step", "invalid literal for int() with base 10: '1.5'"),
        # an integer beyond the float range, which no axis can place
        ("m,1" + "0" * 400 + ",1,2,0,3,4", "step", "int too large to convert to float"),
        # non-finite values parse as floats, but no chart can place them
        ("m,1,inf,2,0,3,4", "mean_num_components", "'inf' is not finite"),
        ("m,1,1,-Infinity,0,3,4", "mean_max_diameter", "'-Infinity' is not finite"),
        ("m,1,1,2,0,nan,4", "mean_velocity_convergence", "'nan' is not finite"),
    ],
)
def test_plot_rejects_a_value_that_does_not_parse(tmp_path, capsys, row, key, reason):
    summary = tmp_path / "summary.csv"
    rows = ["m,0,1,2,0,3,4", row]
    summary.write_text("\n".join([",".join(COMPARISON_SUMMARY_FIELDS), *rows]) + "\n")
    out = tmp_path / "charts"
    code = run_cli(["plot", "--summary", str(summary), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: ValueError: {summary}: line 3, column {key!r}: {reason}\n"
    assert not out.exists()


def test_plot_rejects_a_chart_whose_span_overflows(tmp_path, capsys):
    # every value is finite, but the velocity convergence axis spans
    # 2e308, which no tick arithmetic can place
    summary = tmp_path / "summary.csv"
    rows = ["m,0,1,2,0,-1e308,4", "m,1,1,2,0,1e308,4"]
    summary.write_text("\n".join([",".join(COMPARISON_SUMMARY_FIELDS), *rows]) + "\n")
    out = tmp_path / "charts"
    code = run_cli(["plot", "--summary", str(summary), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: column 'mean_velocity_convergence': ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_simulate_coincident_agents(tmp_path):
    # a zero-width box puts every agent at the origin: one component whose
    # diameter is 0
    out = tmp_path / "sim"
    box = ["position_min=0", "position_max=0", "velocity_min=0", "velocity_max=0"]
    args = ["simulate", "--model", "reynolds", "--set", "n=3", "--set", "steps=2"]
    for item in box:
        args += ["--set", f"init.{item}"]
    assert run_cli(args + ["--out", str(out)]) == 0
    rows = (out / "steps.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3:5] for row in rows] == [["1", "0"], ["1", "0"]]


def test_package_needs_numpy_alone():
    # scipy may be installed, but flockbench must not load it: its import
    # alone would add about a second to every process start
    code = (
        "import sys, flockbench, flockbench.cli\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'pandas'}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    root = pathlib.Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]


@pytest.mark.parametrize("command", [["compare"], ["noise-sweep", "--levels", "0"]])
def test_multi_model_commands_echo_models_run(tmp_path, command):
    out = tmp_path / "multi"
    code = run_cli(
        command
        + ["--models", "reynolds,olfati_saber", "--runs", "1", "--out", str(out)]
        + ["--workers", "1"]
        + FAST_OVERRIDES
    )
    assert code == 0
    echoed = (out / "effective_config.txt").read_text().splitlines()
    assert "model = reynolds,olfati_saber" in echoed


def test_solver_error_is_one_line(tmp_path):
    # a separate process, so numpy warnings would reach stderr too
    proc = subprocess.run(
        [sys.executable, "-m", "flockbench", "simulate", "--model", "df_centralized"]
        + ["--out", str(tmp_path / "x"), "--set", "mpc.omega=1e308"]
        + FAST_OVERRIDES,
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: SolverError: non-finite MPC gradient\n"


@pytest.mark.parametrize("command", [["compare"], ["noise-sweep", "--levels", "0"]])
def test_duplicate_models_rejected(tmp_path, capsys, command):
    out = tmp_path / "dup"
    code = run_cli(
        command + ["--models", "reynolds,olfati_saber,reynolds", "--out", str(out)]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: config: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, message",
    [
        (["compare", "--models", ","], "no models selected"),
        (["noise-sweep", "--models", " , "], "no models selected"),
        (
            ["noise-sweep", "--models", "reynolds", "--levels", "-1"],
            "invalid noise levels '-1'",
        ),
    ],
)
def test_multi_model_commands_reject_no_models_or_a_negative_level(
    tmp_path, capsys, command, message
):
    # no model tag between the commas, or a negative noise level
    out = tmp_path / "x"
    code = run_cli(command + ["--out", str(out)] + FAST_OVERRIDES)
    assert code == 1
    assert capsys.readouterr().err == f"error: config: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["noise.sigma_x", "noise.sigma_v"])
def test_noise_sweep_rejects_a_fixed_noise(tmp_path, capsys, key):
    # each level sets the noise, so a configured one would be ignored
    out = tmp_path / "sweep"
    code = run_cli(
        ["noise-sweep", "--models", "reynolds", "--levels", "0", "--set", f"{key}=5"]
        + ["--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: config: noise-sweep sets each level's noise; {key} must be 0\n"
    assert not out.exists()


def test_duplicate_levels_rejected(tmp_path, capsys):
    out = tmp_path / "dup"
    # repeated levels, and level lists that are not integers
    for levels in ("3,1,3", "1..x", "1..3,5", "a"):
        code = run_cli(
            ["noise-sweep", "--models", "reynolds", "--levels", levels]
            + ["--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: config: ")
        assert not out.exists()


def test_noise_sweep_rejects_a_level_too_large_for_a_float(tmp_path, capsys):
    # 0.2 * level used to raise an uncaught OverflowError after the output
    # directory and its effective_config.txt were written
    out = tmp_path / "sweep"
    code = run_cli(
        ["noise-sweep", "--models", "reynolds", "--levels", "1" + "0" * 400, "--runs", "1"]
        + ["--set", "n=3", "--set", "steps=1", "--out", str(out)]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ValueError: ")
    assert not out.exists()


@pytest.mark.parametrize("key", ["noise.sigma_x", "r", "mpc.d"])
def test_nan_setting_fails(tmp_path, capsys, key):
    code = run_cli(
        ["simulate", "--model", "df_distributed", "--out", str(tmp_path / "x")]
        + ["--set", f"{key}=nan"]
        + FAST_OVERRIDES
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ValueError: ")


def test_infinite_time_step_fails_before_any_output(tmp_path, capsys):
    # limits.dt=inf used to create the output directory, warn twice and fail
    # on non-finite positions at step 1
    out = tmp_path / "x"
    code = run_cli(
        ["simulate", "--model", "reynolds", "--out", str(out)]
        + ["--set", "limits.dt=inf"]
        + FAST_OVERRIDES
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: ValueError: time step dt must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["mpc.lam", "mpc.omega", "mpc.d"])
def test_infinite_mpc_weight_fails_before_any_output(tmp_path, capsys, key):
    # mpc.lam=inf and mpc.omega=inf used to pass the config and die at step 0
    # with a SolverError, after effective_config.txt was written; mpc.d=inf
    # fails too, though df_centralized never reads d
    out = tmp_path / "x"
    code = run_cli(
        ["simulate", "--model", "df_centralized", "--out", str(out)]
        + ["--set", f"{key}=inf"]
        + FAST_OVERRIDES
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: ") and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "model, setting",
    [
        ("reynolds", "noise.sigma_x=inf"),
        ("reynolds", "noise.sigma_v=inf"),
        ("reynolds", "reynolds.w_c=inf"),
        ("reynolds", "init.position_min=-inf"),
        ("reynolds", "init.velocity_max=inf"),
        ("olfati_saber", "olfati.epsilon=inf"),
        ("olfati_saber", "olfati.b=inf"),
        ("olfati_saber", "olfati.c_alignment=inf"),
    ],
)
def test_infinite_setting_fails_before_any_output(tmp_path, capsys, model, setting):
    # each used to write effective_config.txt and then fail on non-finite
    # positions or velocities
    out = tmp_path / "x"
    code = run_cli(
        ["simulate", "--model", model, "--out", str(out), "--set", setting]
        + FAST_OVERRIDES
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: ") and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("dimension", ["0", "-1"])
def test_nonpositive_dimension_fails(tmp_path, capsys, dimension):
    out = tmp_path / "x"
    code = run_cli(
        ["simulate", "--model", "reynolds", "--out", str(out)]
        + ["--set", f"dimension={dimension}"]
        + FAST_OVERRIDES
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key", ["init.position_min", "init.velocity_max", "r"])
def test_non_numeric_box_bound_fails(tmp_path, capsys, key):
    code = run_cli(
        ["simulate", "--model", "reynolds", "--out", str(tmp_path / "x")]
        + ["--set", f"{key}=abc"]
        + FAST_OVERRIDES
    )
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: config: config key {key} is not a number: 'abc'\n"
    )


def test_noise_sweep_outputs(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli(
        [
            "noise-sweep",
            "--models",
            "reynolds",
            "--levels",
            "0,2",
            "--runs",
            "2",
            "--seed",
            "4",
            "--out",
            str(out),
            "--workers",
            "1",
        ]
        + FAST_OVERRIDES
    )
    assert code == 0
    assert (out / "steps_level0.csv").exists()
    assert (out / "steps_level2.csv").exists()
    assert (out / "noise_summary.csv").exists()
    header = (out / "noise_summary.csv").read_text().splitlines()[0]
    assert header.startswith("model,level,sigma_x,sigma_v,")


def test_cli_determinism_across_processes(tmp_path):
    # same seeds, separate processes, different worker counts: identical CSVs
    env = child_env()
    outputs = []
    for name, workers in (("one", "1"), ("two", "2")):
        out = tmp_path / name
        cmd = [
            sys.executable,
            "-m",
            "flockbench",
            "compare",
            "--models",
            "reynolds,df_distributed",
            "--runs",
            "2",
            "--seed",
            "21",
            "--out",
            str(out),
            "--workers",
            workers,
            "--set",
            "n=4",
            "--set",
            "steps=3",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "steps.csv").read_bytes())
        outputs.append((out / "summary.csv").read_bytes())
    assert outputs[0] == outputs[2]
    assert outputs[1] == outputs[3]


def test_model_rejects_unknown_choice():
    with pytest.raises(SystemExit):
        run_cli(["simulate", "--model", "nonsense", "--out", "/tmp/unused"])


def test_readme_config_block_lists_defaults():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Configuration", 1)[1]
    block = section.split("```", 2)[1]
    listed = {}
    for line in block.splitlines():
        for key, value in re.findall(r"([\w.]+) = (\S+)", line.split("#", 1)[0]):
            assert key not in listed, f"{key} listed twice"
            listed[key] = value
    assert listed == DEFAULTS


@pytest.mark.parametrize("tag", MODEL_TAGS)
def test_cli_defaults_build_the_dataclass_defaults(tag):
    # with the README block above, this ties the three places a default is
    # written: the CLI's DEFAULTS strings must parse back to the dataclass
    # defaults exactly (a default that "%g" would round fails here)
    assert build_experiment(DEFAULTS, tag) == ExperimentConfig(
        model=default_model_spec(tag)
    )


def test_model_spec_reads_section_keys():
    settings = dict(DEFAULTS, r="9.5")
    settings.update({"mpc.horizon": "5", "mpc.omega": "20", "olfati.d": "6.5"})
    mpc = build_model_spec(settings, "df_centralized").params
    assert (mpc.horizon, mpc.omega, mpc.r) == (5, 20.0, 9.5)
    assert isinstance(mpc.horizon, int)
    assert build_model_spec(settings, "olfati_saber").params.d == 6.5
    settings["mpc.horizon"] = "2.5"
    with pytest.raises(CliError):
        build_model_spec(settings, "df_centralized")
