"""
Acceptance suite: every criterion at its stated tolerance, one printed
PASS/FAIL line per criterion.

The benchmark reproductions (criteria 6-9) run the real experiments
(n = 30, 100 steps, 20 runs per model / per noise level) and take several
minutes; run with ``pytest tests/test_acceptance.py -v -s`` to watch
progress.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from flockbench import (
    ExperimentConfig,
    FlockConfiguration,
    MotionLimits,
    MpcParams,
    connected_components,
    default_model_spec,
    irregularity,
    is_quasi_alpha_lattice,
    lattice_deviation_centralized,
    mpc_objective,
    mpc_objective_gradient,
    neighbors,
    olfati_saber_accel,
    proximity_net,
    rollout_centralized,
    rollout_distributed,
    simulate,
)
from flockbench.harness import run_comparison, run_noise_sweep
from flockbench.mpc import CENTRALIZED_MPC_TAGS, MPC_TAGS
from conftest import child_env, hexagonal_patch

LIMITS = MotionLimits()
PARAMS = MpcParams()
WORKERS = os.cpu_count() or 1
BASE_SEED = 1


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


# --------------------------------------------------------------------------
# shared experiment fixtures
# --------------------------------------------------------------------------


@pytest.fixture(scope="session")
def comparison():
    """Noiseless comparison: all six models, n=30, 100 steps, 20 paired runs."""
    models = [default_model_spec(tag) for tag in (
        "reynolds",
        "olfati_saber",
        "lattice_centralized",
        "lattice_distributed",
        "df_centralized",
        "df_distributed",
    )]
    cfg = ExperimentConfig(model=models[0], n=30, steps=100, runs=20, base_seed=BASE_SEED)
    return run_comparison(cfg, models, workers=WORKERS)


@pytest.fixture(scope="session")
def noise_sweep():
    """Noise sweep over levels 1..10, 20 runs per level, for the three
    models criterion 9 constrains."""
    models = [default_model_spec(tag) for tag in (
        "reynolds",
        "olfati_saber",
        "df_distributed",
    )]
    cfg = ExperimentConfig(model=models[0], n=30, steps=100, runs=20, base_seed=BASE_SEED)
    return run_noise_sweep(cfg, models, levels=range(1, 11), workers=WORKERS)


def final_means(records):
    finals = [rec.metrics[-1] for rec in records]
    diams = [m.max_diameter for m in finals if m.max_diameter is not None]
    return {
        "cc": float(np.mean([m.num_components for m in finals])),
        "diameter": float(np.mean(diams)) if diams else None,
        "vc": float(np.mean([m.velocity_convergence for m in finals])),
        "irr": float(np.mean([m.irregularity for m in finals])),
    }


# --------------------------------------------------------------------------
# criterion 1: gradient oracle
# --------------------------------------------------------------------------


def _fd_gradient(tag, view, controls, agent=None, neighbor_set=None, h=1e-5):
    grad = np.zeros_like(controls)
    it = np.nditer(controls, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        up, down = controls.copy(), controls.copy()
        up[idx] += h
        down[idx] -= h
        values = []
        for u in (up, down):
            if tag in CENTRALIZED_MPC_TAGS:
                traj = rollout_centralized(view, u, LIMITS)
                values.append(mpc_objective(tag, traj, u, PARAMS))
            else:
                traj = rollout_distributed(agent, view, u, neighbor_set, LIMITS)
                values.append(
                    mpc_objective(
                        tag, traj, u, PARAMS, agent=agent, neighbor_set=neighbor_set
                    )
                )
        grad[idx] = (values[0] - values[1]) / (2 * h)
    return grad


def test_criterion_1_gradient_oracle():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for tag in MPC_TAGS:
        for _ in range(100):
            n = int(rng.integers(2, 7))
            view = FlockConfiguration(
                rng.uniform(-10, 10, (n, 2)), rng.uniform(-7, 7, (n, 2))
            )
            if tag in CENTRALIZED_MPC_TAGS:
                u = rng.uniform(-1, 1, (3, n, 2))
                analytic = mpc_objective_gradient(tag, view, u, PARAMS, LIMITS)
                numeric = _fd_gradient(tag, view, u)
            else:
                agent = int(rng.integers(0, n))
                ns = neighbors(view, agent, PARAMS.r)
                u = rng.uniform(-1, 1, (3, 2))
                analytic = mpc_objective_gradient(
                    tag, view, u, PARAMS, LIMITS, agent=agent, neighbor_set=ns
                )
                numeric = _fd_gradient(tag, view, u, agent=agent, neighbor_set=ns)
            scale = np.maximum(np.abs(analytic), np.abs(numeric))
            check = scale > 1e-8
            if check.any():
                worst = max(
                    worst, float((np.abs(analytic - numeric)[check] / scale[check]).max())
                )
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 60.0
    assert report(
        1, ok, f"4 models x 100 instances, worst rel err {worst:.2e}, {elapsed:.1f}s"
    )


# --------------------------------------------------------------------------
# criterion 2: graph oracles
# --------------------------------------------------------------------------


def test_criterion_2_graph_oracles():
    rng = np.random.default_rng(202)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        cfg = FlockConfiguration(rng.uniform(-12, 12, (n, 2)), np.zeros((n, 2)))
        r = float(rng.uniform(1.0, 16.0))
        net = proximity_net(cfg, r)
        brute_edges = set()
        for i in range(n):
            for j in range(i + 1, n):
                if np.linalg.norm(cfg.positions[i] - cfg.positions[j]) < r:
                    brute_edges.add((i, j))
        if net.edges != frozenset(brute_edges):
            mismatches += 1
            continue
        adjacency = {i: set() for i in range(n)}
        for i, j in brute_edges:
            adjacency[i].add(j)
            adjacency[j].add(i)
        seen, brute_comps = set(), []
        for i in range(n):
            if i in seen:
                continue
            stack, comp = [i], set()
            while stack:
                k = stack.pop()
                if k in comp:
                    continue
                comp.add(k)
                stack.extend(adjacency[k] - comp)
            seen |= comp
            brute_comps.append(comp)
        if connected_components(net) != brute_comps:
            mismatches += 1
    assert report(2, mismatches == 0, f"1000 random configurations, {mismatches} mismatches")


# --------------------------------------------------------------------------
# criterion 3: exact alpha-lattice fixtures
# --------------------------------------------------------------------------


def test_criterion_3_exact_lattice_fixtures():
    pos = hexagonal_patch(rows=3, cols=4, d=7.0)
    cfg = FlockConfiguration(pos, np.tile([1.0, 0.5], (len(pos), 1)))
    deviation = lattice_deviation_centralized(cfg, 8.4, 7.0)
    net = proximity_net(cfg, 8.4)
    irr = irregularity(cfg, connected_components(net))
    quasi = is_quasi_alpha_lattice(cfg, 8.4, 7.0, 0.0)
    os_spec = default_model_spec("olfati_saber")
    worst_accel = max(
        float(np.linalg.norm(olfati_saber_accel(i, cfg, os_spec.params)))
        for i in range(cfg.n)
    )
    ok = deviation <= 1e-9 and irr <= 1e-9 and quasi and worst_accel <= 1e-9
    assert report(
        3,
        ok,
        f"deviation={deviation:.2e}, irregularity={irr:.2e}, quasi(delta=0)={quasi}, "
        f"max |OS accel|={worst_accel:.2e}",
    )


# --------------------------------------------------------------------------
# criterion 4: two-agent DF equilibria
# --------------------------------------------------------------------------


def test_criterion_4_two_agent_df_equilibria():
    start = FlockConfiguration([[0.0, 0.0], [6.0, 0.0]], np.zeros((2, 2)))
    gaps = {}
    for tag, target in (
        ("df_distributed", 50.0**0.25),
        ("df_centralized", 100.0**0.25),
    ):
        cfg = ExperimentConfig(
            model=default_model_spec(tag), n=2, steps=100, base_seed=BASE_SEED
        )
        rec = simulate(cfg, seed=BASE_SEED, initial=start)
        gap = float(np.linalg.norm(rec.final.positions[0] - rec.final.positions[1]))
        gaps[tag] = (gap, target)
    ok = all(abs(gap / target - 1.0) <= 0.05 for gap, target in gaps.values())
    detail = ", ".join(
        f"{tag}: {gap:.4f} vs {target:.4f}" for tag, (gap, target) in gaps.items()
    )
    assert report(4, ok, detail)


# --------------------------------------------------------------------------
# criterion 5: CLI determinism
# --------------------------------------------------------------------------


def test_criterion_5_cli_determinism(tmp_path):
    csvs = []
    for name in ("first", "second"):
        out = tmp_path / name
        cmd = [
            sys.executable,
            "-m",
            "flockbench",
            "compare",
            "--runs",
            "3",
            "--models",
            "all",
            "--seed",
            "1302",
            "--out",
            str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        csvs.append(
            (
                (out / "steps.csv").read_bytes(),
                (out / "summary.csv").read_bytes(),
            )
        )
    ok = csvs[0] == csvs[1]
    assert report(5, ok, "two `compare --runs 3` executions byte-identical")


# --------------------------------------------------------------------------
# criteria 6-8: noiseless comparison reproductions
# --------------------------------------------------------------------------


def test_criterion_6_fragmentation_ordering(comparison):
    means = {tag: final_means(recs) for tag, recs in comparison.items()}
    cc = {tag: m["cc"] for tag, m in means.items()}
    checks = [
        ("df_centralized <= 1.2", cc["df_centralized"] <= 1.2),
        ("df_distributed <= 1.6", cc["df_distributed"] <= 1.6),
        ("reynolds <= 1.6", cc["reynolds"] <= 1.6),
        ("lattice_centralized >= 3", cc["lattice_centralized"] >= 3.0),
        ("olfati_saber >= 5", cc["olfati_saber"] >= 5.0),
        ("lattice_distributed >= 1.8", cc["lattice_distributed"] >= 1.8),
    ]
    failed = [name for name, ok in checks if not ok]
    detail = (
        "mean final |CC|: "
        + ", ".join(f"{tag}={value:.2f}" for tag, value in sorted(cc.items()))
        + (f"; failed: {failed}" if failed else "")
    )
    assert report(6, not failed, detail)


def test_criterion_7_irregularity_ordering(comparison):
    means = {tag: final_means(recs)["irr"] for tag, recs in comparison.items()}
    regular = ("lattice_centralized", "lattice_distributed", "olfati_saber")
    irregular = ("df_centralized", "reynolds")
    failures = [
        f"{a} ({means[a]:.3f}) !< {b} ({means[b]:.3f})"
        for a in regular
        for b in irregular
        if not means[a] < means[b]
    ]
    lattice_mean = 0.5 * (means["lattice_centralized"] + means["lattice_distributed"])
    within = means["df_distributed"] <= 2.0 * lattice_mean
    if not within:
        failures.append(
            f"df_distributed ({means['df_distributed']:.3f}) > 2x lattice mean "
            f"({lattice_mean:.3f})"
        )
    detail = "mean final I: " + ", ".join(
        f"{tag}={value:.3f}" for tag, value in sorted(means.items())
    )
    if failures:
        detail += "; failed: " + "; ".join(failures)
    assert report(7, not failures, detail)


def test_criterion_8_velocity_convergence(comparison):
    means = {tag: final_means(recs)["vc"] for tag, recs in comparison.items()}
    failures = [tag for tag, value in means.items() if not value < 0.1]
    detail = "mean final VC: " + ", ".join(
        f"{tag}={value:.3f}" for tag, value in sorted(means.items())
    )
    if failures:
        detail += f"; failed: {failures}"
    assert report(8, not failures, detail)


# --------------------------------------------------------------------------
# criterion 9: noise sweep reproductions
# --------------------------------------------------------------------------


def test_criterion_9_noise_resilience(noise_sweep):
    means = {
        key: final_means(recs) for key, recs in noise_sweep.items()
    }
    failures = []
    os_cc = means[("olfati_saber", 10)]["cc"]
    if not os_cc >= 0.8 * 30:
        failures.append(f"olfati_saber |CC| at level 10 = {os_cc:.1f} < 24")
    for tag in ("df_distributed", "reynolds"):
        for level in range(1, 11):
            cc = means[(tag, level)]["cc"]
            if not cc <= 1.5:
                failures.append(f"{tag} |CC| at level {level} = {cc:.2f} > 1.5")
    df_diam = means[("df_distributed", 10)]["diameter"]
    rey_diam = means[("reynolds", 10)]["diameter"]
    if df_diam is None or rey_diam is None or not df_diam <= rey_diam:
        failures.append(
            f"df_distributed diameter {df_diam} !<= reynolds diameter {rey_diam} at level 10"
        )
    detail = (
        f"olfati_saber |CC|@10={os_cc:.1f}; "
        f"df_distributed D@10={df_diam if df_diam is None else round(df_diam, 2)}; "
        f"reynolds D@10={rey_diam if rey_diam is None else round(rey_diam, 2)}"
    )
    if failures:
        detail += "; failed: " + "; ".join(failures)
    assert report(9, not failures, detail)
