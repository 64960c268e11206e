"""Golden outputs: exact bytes that a refactor must leave unchanged.

The digests below pin the result files of short seeded runs of every model
(two MPC models also at horizon 9, and two at a speed limit their predicted
rollouts reach), the summaries and charts of a short
`compare` and `noise-sweep`, the configuration echo of a default `simulate`,
the final state of a short `simulate`, and the head of the noise stream.
They hold on the x86-64 host they were generated on (Python 3.11, numpy
2.4); `RandomStream.normals` goes through numpy's `log`/`cos`/`sin`, whose
vectorized rounding may differ on other CPUs, so a mismatch there is a
platform difference before it is a regression.

Regenerate (only for an intended change of output bytes, recorded in
CHANGES.md) with ``PYTHONPATH=src python tests/test_golden.py``.  It prints
the fresh digests as JSON, then one line on stderr for each pinned entry
whose fresh digest differs, such as ``changed: steps_n30/df_centralized@0``.
"""

import csv
import hashlib
import json
import sys

import numpy as np
import pytest

from flockbench import (
    ExperimentConfig,
    ModelSpec,
    MotionLimits,
    MpcParams,
    RandomStream,
    default_model_spec,
    run_noise_sweep,
    simulate,
)
from flockbench.cli import main
from flockbench.output import write_steps_csv

GOLDEN_STEPS = {
    "reynolds@0": "900687af7f8d58f0874a98a499f8e315d0c11939ae479397efaea4b5d43f33b5",
    "reynolds@3": "335cda4d2cfdedac7489653084c0cda75a5288a858030a02a408320a62c74491",
    "olfati_saber@0": "2d990c79cad36617aecaeb73f3e82409fde3bee14a21923fb1e0fce1f749b0ba",
    "olfati_saber@3": "8c37d263f67942ff7c00a02e34cee9e7b23a6e154b5180c44323086fb915811b",
    "lattice_centralized@0": "1ab5cb23c7c50dc1d055a48bcac7ac6ea6ed40911ee6e06f784991324f4f1c9f",
    "lattice_centralized@3": "ea0e60cbe10eb53a023ec9c4d0ba996dc807d631cd14b56c388169831fd7e98d",
    "lattice_distributed@0": "7e615282a8817ebe511aaf202eb610cfe84972ebafb2243400ba59f2fc53b67f",
    "lattice_distributed@3": "e034261b9a4a5e209b10b1370205f13c784d11313584c90d1a3a5893e630bd71",
    "df_centralized@0": "750d782c994f9b2edb827a482cd21364d822c0ec0a19e74c17a2c27c8fc54ff4",
    "df_centralized@3": "068c0e28a95686bcd3309cedacb2a40b1efb16417e878c793266b81b76afbbd3",
    "df_distributed@0": "046bac98de24543ef9af383a6be1e1001beb1739035c986c2089a152305f6838",
    "df_distributed@3": "92fff10dde8d16d37fbfc2afa8ad8c9f1e3d7aa9e740818e6a98874efef52a9d",
}

# Runs at the paper's flock size, where solves reach long line searches and
# stalls that the n = 8 runs above seldom do: the centralized models
# noiseless, the distributed ones under noise.
GOLDEN_STEPS_N30 = {
    "lattice_centralized@0": "04e7f4aa9c0de61b58a93f3f7eea34282b3eb1a0ed8ef51acf05737dd2e97439",
    "df_centralized@0": "35b5085c2fb15272093a1c0741f37646a8ee26501fcbc1e53e8a4dd1b773f05a",
    "lattice_distributed@10": "de782915c2e613aa15c8af56b739bb244692eb5c891de87b8b9517335e43eb90",
    "df_distributed@10": "6dde037fcb699c4b274c748104f1d7aabbcb401d01e3072718bdd2c2468b7546",
}

# Runs at mpc.horizon = 9, where each row's (or edge's) stage costs are
# more terms than numpy sums in order: the steps are folded in order.
GOLDEN_STEPS_H9 = {
    "df_distributed@3": "c4ebfc0259800529ada01e12e26af9e73e3171a1fca056d5e4aadcb2717e8c04",
    "df_centralized@0": "19077a62eecbd44451a5656a7231fc64a50009e69a2197868ec90aeda58133a9",
}

# Runs at limits.v_max = 2.0, below the initial speeds of up to 2.83: most
# predicted rollouts clamp a velocity, so the horizon passes take their
# per-step path, which the runs above never reach.
VCLAMP_LIMITS = MotionLimits(v_max=2.0)
GOLDEN_STEPS_VCLAMP = {
    "lattice_centralized@0": "f462fc559374f7aeaa29f65f29098e516f88bd6815958330d3f383d7b2f60281",
    "df_distributed@0": "247277ddf1041853f2b0322a26b43b1080a4b878cf3336cb67f1cd07af79ddb9",
}

GOLDEN_EFFECTIVE_CONFIG = (
    "723d20ce3c3f75437218dbd570883386d020634c9d4cdaae14e091b81aeda7e6"
)

# final_state.csv of a short `simulate` (FINAL_STATE_RUN)
GOLDEN_FINAL_STATE = (
    "d2e8ad14b51132484dcccecba0786c9849d21ccdfc56c297b9396d192d512fa6"
)
FINAL_STATE_RUN = {"model": "df_centralized", "seed": 11, "n": 6, "steps": 5}

# The summary CSV and every chart of SUMMARY_RUNS, keyed "command/file".
GOLDEN_SUMMARIES = {
    "compare/summary.csv": "35ad65d8df75d5a2ee1a10f9d0526e20c6b165ff7c1b76a7b97bd42c5aaf5b15",
    "compare/irregularity.svg": "7138ef40084f901e33a154684def958e41d8e746ce0124d89232e70c04c790be",
    "compare/max_diameter.svg": "b226745cb339c23c5fe3d2074273426ba4c47ae4376695fc85e1faaaee058413",
    "compare/num_components.svg": "5b707c89356396700f0c75555351bfb1f0c98f0f62e700e53248e6a0a9631dd6",
    "compare/velocity_convergence.svg": "e59c898f6a5d58a4d3cdc7be093275074a4bd9b29f5608c9b8f650d69a245464",
    "noise-sweep/noise_summary.csv": "cf6a94e625ab6213baadadcc585aa0ecc640efe935f8c5f1c44f5aca6ab94132",
    "noise-sweep/irregularity.svg": "d438f4c8d5d04bb18fbde62dedadbe60309f0bf174af7ded0fc20e939dc6556f",
    "noise-sweep/max_diameter.svg": "0df7489a9090a0d58d2343622955aab8da29c66d9111dfd8fb1baaee1195adf3",
    "noise-sweep/num_components.svg": "071404d60aeda4ce3985aed4261f3df1be06a1d714cd98318e980ae4b43fd0a9",
    "noise-sweep/velocity_convergence.svg": "32a4956712cbe4dd3bd53d9a27f20a3ae899ea68daa00c4391ae4c80c5d10678",
}

# Two rule models at a radius where some steps leave every agent isolated,
# so the empty mean diameter, a nonzero none count and the chart gaps are
# pinned too.
SUMMARY_ARGS = [
    "--models", "reynolds,olfati_saber", "--runs", "2", "--seed", "1",
    "--workers", "1", "--set", "n=6", "--set", "steps=8", "--set", "r=3",
    "--set", "olfati.d=2",
]
SUMMARY_RUNS = {
    "compare": ([], "summary.csv"),
    "noise-sweep": (["--levels", "0,3"], "noise_summary.csv"),
}

GOLDEN_NORMALS = [
    "0x1.1a0e7968905f6p+0",
    "-0x1.6af3c51f13955p-2",
    "0x1.ddd9ed8673eb3p+0",
    "-0x1.3f8484b65ca98p-1",
    "-0x1.5a55b43c20fbep+0",
    "0x1.6a28344bee112p-1",
    "-0x1.0900773f23e04p-1",
    "0x1.541a869d3e2d8p-2",
    "0x1.13e9847a0b784p+0",
    "0x1.82147644d7cd6p-3",
    "-0x1.7630720013e29p-1",
    "-0x1.6dbe96aa74e35p-3",
    "0x1.6cbcfff2fee8fp-2",
    "-0x1.72477265c977cp+0",
    "-0x1.7abc65b60a50dp+0",
    "0x1.c7ae0bddcb8c8p-2",
]


# The pinned values by the keys of the regenerated JSON.
PINNED = {
    "steps": GOLDEN_STEPS,
    "steps_n30": GOLDEN_STEPS_N30,
    "steps_h9": GOLDEN_STEPS_H9,
    "steps_vclamp": GOLDEN_STEPS_VCLAMP,
    "summaries": GOLDEN_SUMMARIES,
    "effective_config": GOLDEN_EFFECTIVE_CONFIG,
    "final_state": GOLDEN_FINAL_STATE,
    "normals": GOLDEN_NORMALS,
}


def changed_entries(fresh) -> list:
    """The pinned entries whose value in `fresh` (the regenerated JSON)
    differs, as "steps_n30/df_centralized@0" for a keyed entry and
    "final_state" for a single one; a key on one side only differs too."""
    changed = []
    for name, pinned in PINNED.items():
        value = fresh.get(name)
        if isinstance(pinned, dict) and isinstance(value, dict):
            for key in dict.fromkeys([*pinned, *value]):
                if value.get(key) != pinned.get(key):
                    changed.append(f"{name}/{key}")
        elif value != pinned:
            changed.append(name)
    return changed


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def steps_digest(
    tag, level, tmp_path, n=8, steps=10, horizon=None, limits=MotionLimits()
) -> str:
    """sha256 of steps.csv for 2 runs of `tag` at n agents, `steps` steps,
    noise `level`, motion `limits`, and the MPC `horizon` where given."""
    model = default_model_spec(tag)
    if horizon is not None:
        model = ModelSpec(tag, MpcParams(horizon=horizon))
    cfg = ExperimentConfig(model=model, n=n, steps=steps, runs=2, limits=limits)
    records = run_noise_sweep(cfg, [cfg.model], [level])
    path = tmp_path / f"steps_{tag}_{level}.csv"
    write_steps_csv(path, {tag: records[(tag, level)]})
    return _sha256(path)


def effective_config_digest(tmp_path) -> str:
    """sha256 of effective_config.txt from `simulate` with every default."""
    out = tmp_path / "sim"
    assert main(["simulate", "--model", "df_distributed", "--out", str(out)]) == 0
    return _sha256(out / "effective_config.txt")


def final_state_path(tmp_path):
    """final_state.csv written by `simulate` for FINAL_STATE_RUN."""
    run, out = FINAL_STATE_RUN, tmp_path / "final"
    args = ["simulate", "--model", run["model"], "--seed", str(run["seed"])]
    args += ["--set", f"n={run['n']}", "--set", f"steps={run['steps']}"]
    assert main(args + ["--out", str(out)]) == 0
    return out / "final_state.csv"


def summary_digests(command, tmp_path) -> dict:
    """sha256 of the summary CSV and of each chart that `command` writes
    for SUMMARY_RUNS."""
    extra, summary = SUMMARY_RUNS[command]
    out = tmp_path / command
    assert main([command, *extra, *SUMMARY_ARGS, "--out", str(out)]) == 0
    paths = [out / summary, *sorted(out.glob("*.svg"))]
    return {f"{command}/{path.name}": _sha256(path) for path in paths}


def normals_hex() -> list:
    return [float(z).hex() for z in RandomStream(1).normals(16)]


@pytest.mark.parametrize("key", sorted(GOLDEN_STEPS))
def test_steps_csv_matches_golden(key, tmp_path):
    tag, level = key.split("@")
    assert steps_digest(tag, int(level), tmp_path) == GOLDEN_STEPS[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_STEPS_N30))
def test_steps_csv_matches_golden_n30(key, tmp_path):
    tag, level = key.split("@")
    digest = steps_digest(tag, int(level), tmp_path, n=30, steps=15)
    assert digest == GOLDEN_STEPS_N30[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_STEPS_H9))
def test_steps_csv_matches_golden_horizon_9(key, tmp_path):
    tag, level = key.split("@")
    assert steps_digest(tag, int(level), tmp_path, horizon=9) == GOLDEN_STEPS_H9[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_STEPS_VCLAMP))
def test_steps_csv_matches_golden_clamped_velocities(key, tmp_path):
    tag, level = key.split("@")
    digest = steps_digest(tag, int(level), tmp_path, limits=VCLAMP_LIMITS)
    assert digest == GOLDEN_STEPS_VCLAMP[key]


@pytest.mark.parametrize("command", sorted(SUMMARY_RUNS))
def test_summary_and_charts_match_golden(command, tmp_path):
    expected = {
        key: digest
        for key, digest in GOLDEN_SUMMARIES.items()
        if key.startswith(f"{command}/")
    }
    assert summary_digests(command, tmp_path) == expected


def test_effective_config_matches_golden(tmp_path):
    assert effective_config_digest(tmp_path) == GOLDEN_EFFECTIVE_CONFIG


def test_final_state_matches_golden_and_parses_back(tmp_path):
    path = final_state_path(tmp_path)
    assert _sha256(path) == GOLDEN_FINAL_STATE
    run = FINAL_STATE_RUN
    cfg = ExperimentConfig(
        model=default_model_spec(run["model"]), n=run["n"], steps=run["steps"]
    )
    final = simulate(cfg, seed=run["seed"]).final
    with open(path, newline="") as handle:
        header, *rows = csv.reader(handle)
    assert header == ["agent", "x0", "x1", "v0", "v1"]
    assert [row[0] for row in rows] == [str(i) for i in range(run["n"])]
    values = np.array([[float(v) for v in row[1:]] for row in rows])
    expected = np.hstack([final.positions, final.velocities])
    assert values.tobytes() == expected.tobytes()


def test_random_stream_normals_match_golden():
    assert normals_hex() == GOLDEN_NORMALS


def test_changed_entries_names_each_differing_pin():
    fresh = json.loads(json.dumps(PINNED))
    assert changed_entries(fresh) == []
    fresh["steps_n30"]["df_centralized@0"] = "0" * 64
    fresh["summaries"]["compare/extra.svg"] = "0" * 64
    del fresh["steps"]["reynolds@0"]
    fresh["final_state"] = "0" * 64
    fresh["normals"] = fresh["normals"][:-1]
    assert changed_entries(fresh) == [
        "steps/reynolds@0",
        "steps_n30/df_centralized@0",
        "summaries/compare/extra.svg",
        "final_state",
        "normals",
    ]


if __name__ == "__main__":
    import contextlib
    import io
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = pathlib.Path(tmp)
        steps = {}
        for key in GOLDEN_STEPS:
            tag, level = key.split("@")
            steps[key] = steps_digest(tag, int(level), tmp_path)
        steps_n30 = {}
        for key in GOLDEN_STEPS_N30:
            tag, level = key.split("@")
            steps_n30[key] = steps_digest(tag, int(level), tmp_path, n=30, steps=15)
        steps_h9 = {}
        for key in GOLDEN_STEPS_H9:
            tag, level = key.split("@")
            steps_h9[key] = steps_digest(tag, int(level), tmp_path, horizon=9)
        steps_vclamp = {}
        for key in GOLDEN_STEPS_VCLAMP:
            tag, level = key.split("@")
            steps_vclamp[key] = steps_digest(
                tag, int(level), tmp_path, limits=VCLAMP_LIMITS
            )
        with contextlib.redirect_stdout(io.StringIO()):
            config_digest = effective_config_digest(tmp_path)
            final_state_digest = _sha256(final_state_path(tmp_path))
            summaries = {}
            for command in SUMMARY_RUNS:
                summaries.update(summary_digests(command, tmp_path))
        golden = {
            "steps": steps,
            "steps_n30": steps_n30,
            "steps_h9": steps_h9,
            "steps_vclamp": steps_vclamp,
            "summaries": summaries,
            "effective_config": config_digest,
            "final_state": final_state_digest,
            "normals": normals_hex(),
        }
    print(json.dumps(golden, indent=4))
    for entry in changed_entries(golden):
        print(f"changed: {entry}", file=sys.stderr)
