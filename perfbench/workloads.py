"""The benchmark workloads and the closed loop that drives them.

Each workload is a set of (model, noise level) cells at the paper setting
(n = 30, 100 steps, r = 8.4, default limits and parameters).  One *round*
runs every cell once, at run index j, with the seed the harness itself would
derive: ``mix_seed(seed, level * LEVEL_SEED_STRIDE + j)``, which for level 0
is the comparison seed ``mix_seed(seed, j)``.  Rounds run back to back with
one client and no worker pool (a closed loop: the next run starts when the
previous one returns).

The work of an invocation is fixed by its time budget, not by the clock:
``rounds_for(seconds)`` is the number of whole rounds that take about that
long at the workload's nominal round time, measured on a 2-core Xeon.  So
the same seed and budget run the same runs on every commit and machine, and
a faster program is not charged for extra, different runs.

After the runs the results go through the public API exactly as the CLI
does: a single-level workload is a comparison (``steps.csv``,
``aggregate_steps`` -> ``summary.csv``, charts over steps); a multi-level
workload is a noise sweep (``steps_level<L>.csv``, ``aggregate_finals`` ->
``noise_summary.csv``, charts over levels).
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import time
import traceback
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    models: tuple
    levels: tuple
    round_s: float  # nominal wall time of one round, n = 30, 2-core Xeon

    def rounds_for(self, seconds: float) -> int:
        return max(1, int(seconds / self.round_s + 0.5))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("rule_based", ("reynolds", "olfati_saber"), (0, 5), 1.6),
        Workload("centralized_mpc", ("lattice_centralized", "df_centralized"), (0,), 12.0),
        Workload("distributed_mpc", ("lattice_distributed", "df_distributed"), (0, 10), 12.0),
    )
}

# the paper setting, and the reduced one of --smoke
FULL_SIZE = {"n": 30, "steps": 100}
SMOKE_SIZE = {"n": 6, "steps": 5}


@dataclass
class RunFailure:
    tag: str
    level: int
    run_id: int
    reason: str


class ClosedLoop:
    """Runs one workload's rounds and writes its outputs."""

    def __init__(self, fb, workload: Workload, seed: int, size: dict):
        self.fb = fb
        self.workload = workload
        self.seed = seed
        self.n = size["n"]
        self.steps = size["steps"]
        self.cells = [(tag, level) for level in workload.levels for tag in workload.models]
        self.configs = {
            (tag, level): fb.harness.ExperimentConfig(
                model=fb.harness.default_model_spec(tag),
                n=self.n,
                steps=self.steps,
                noise=fb.harness.noise_for_level(level),
                base_seed=seed,
            )
            for tag, level in self.cells
        }

    def run_seed(self, level: int, run_id: int) -> int:
        harness = self.fb.harness
        return self.fb.core.mix_seed(self.seed, level * harness.LEVEL_SEED_STRIDE + run_id)

    def run(self, out_dir, rounds: int):
        """Run `rounds` rounds, then aggregate and write.  Returns a `Pass`."""
        started = time.perf_counter()
        records = {cell: [] for cell in self.cells}
        failures = []
        attempted = 0
        for run_id in range(rounds):
            for tag, level in self.cells:
                attempted += 1
                try:
                    record = self.fb.harness.simulate(
                        self.configs[tag, level], self.run_seed(level, run_id), run_id
                    )
                except Exception:  # one failed run is counted, not fatal
                    failures.append(
                        RunFailure(tag, level, run_id, traceback.format_exc(limit=3))
                    )
                    continue
                records[tag, level].append(record)
        files = self.write_outputs(out_dir, records)
        wall = time.perf_counter() - started
        return Pass(records, failures, attempted, rounds, files, wall)

    def write_outputs(self, out_dir, records):
        fb = self.fb
        os.makedirs(out_dir, exist_ok=True)
        present = {cell: recs for cell, recs in records.items() if recs}
        steps_files = []
        if len(self.workload.levels) == 1:
            by_tag = {tag: recs for (tag, _), recs in present.items()}
            path = os.path.join(out_dir, "steps.csv")
            fb.output.write_steps_csv(path, by_tag)
            steps_files.append(path)
            summary = fb.harness.aggregate_steps(by_tag)
            summary_path = os.path.join(out_dir, "summary.csv")
            fields, x_key = fb.output.COMPARISON_SUMMARY_FIELDS, "step"
        else:
            for level in self.workload.levels:
                at_level = {tag: recs for (tag, lv), recs in present.items() if lv == level}
                path = os.path.join(out_dir, f"steps_level{level}.csv")
                fb.output.write_steps_csv(path, at_level)
                steps_files.append(path)
            summary = fb.harness.aggregate_finals(present)
            summary_path = os.path.join(out_dir, "noise_summary.csv")
            fields, x_key = fb.output.NOISE_SUMMARY_FIELDS, "level"
        fb.output.write_summary_csv(summary_path, summary, fields)
        charts = fb.output.emit_plots(summary, out_dir, x_key=x_key)
        return {"steps": steps_files, "other": [summary_path, *charts]}


@dataclass
class Pass:
    """One pass over a workload: its records and what it wrote."""

    records: dict
    failures: list
    attempted: int
    rounds: int
    files: dict
    wall_s: float

    @property
    def completed(self) -> int:
        return sum(len(recs) for recs in self.records.values())

    def bytes_written(self) -> int:
        return sum(os.path.getsize(p) for p in self.files["steps"] + self.files["other"])

    def steps_sha256(self) -> dict:
        return {os.path.basename(p): sha256_file(p) for p in self.files["steps"]}


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def check_steps_csv(path, level, n, steps, expected_runs):
    """Validate every metric row of one steps CSV.

    Each (model, run) present must have exactly `steps` rows numbered
    0..steps-1; `num_components` must be an integer in 1..n, `max_diameter`
    empty or a finite positive number, and the other two metrics finite and
    nonnegative.  `expected_runs` is the set of (model, run_id) pairs that
    completed.  Returns a list of RunFailure, one per bad run.
    """
    bad = {}
    seen = {}
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            key = (row["model"], int(row["run_id"]))
            seen.setdefault(key, []).append(int(row["step"]))
            reason = _row_problem(row, n)
            if reason and key not in bad:
                bad[key] = f"step {row['step']}: {reason}"
    for key in expected_runs:
        if key not in seen:
            bad.setdefault(key, "no rows written")
        elif seen[key] != list(range(steps)):
            bad.setdefault(key, f"{len(seen[key])} rows, expected steps 0..{steps - 1}")
    for key in seen:
        if key not in expected_runs:
            bad.setdefault(key, "rows for a run that did not complete")
    return [RunFailure(tag, level, run_id, reason) for (tag, run_id), reason in sorted(bad.items())]


def _row_problem(row, n):
    try:
        components = int(row["num_components"])
        diameter = None if row["max_diameter"] == "" else float(row["max_diameter"])
        convergence = float(row["velocity_convergence"])
        irregularity = float(row["irregularity"])
    except ValueError as err:
        return f"unparsable field ({err})"
    if not 1 <= components <= n:
        return f"num_components {components} outside 1..{n}"
    if diameter is not None and not (math.isfinite(diameter) and diameter > 0):
        return f"max_diameter {diameter} is not empty or positive"
    for name, value in (("velocity_convergence", convergence), ("irregularity", irregularity)):
        if not (math.isfinite(value) and value >= 0):
            return f"{name} {value} is not finite and nonnegative"
    return None


def check_pass(loop: ClosedLoop, result: Pass):
    """Output checks of one pass; returns the failed runs (raised or bad rows)."""
    failures = list(result.failures)
    for level, path in zip(loop.workload.levels, result.files["steps"]):
        expected = {
            (tag, rec.run_id)
            for (tag, lv), recs in result.records.items()
            if lv == level
            for rec in recs
        }
        failures += check_steps_csv(path, level, loop.n, loop.steps, expected)
    return failures


def run_digests(loop: ClosedLoop, result: Pass, scratch_dir, max_rounds: int) -> dict:
    """sha256 of each single run's steps CSV, for runs 0..max_rounds-1.

    Keys are ``<model>@<level>#<run>``.  These are what the stored digests
    hold, since the whole-workload CSV depends on the time budget.
    """
    os.makedirs(scratch_dir, exist_ok=True)
    path = os.path.join(scratch_dir, "one_run.csv")
    out = {}
    for (tag, level), recs in result.records.items():
        for rec in recs:
            if rec.run_id < max_rounds:
                loop.fb.output.write_steps_csv(path, {tag: [rec]})
                out[f"{tag}@{level}#{rec.run_id}"] = sha256_file(path)
    os.remove(path)
    return dict(sorted(out.items()))
