"""flockbench benchmark: one workload, one process, closed loop, one client.

    python3 perfbench/run.py --workload rule_based --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, and the command fails (exit code 1, no result
line) when it is missing.  Workloads are defined in ``workloads.py``;
metric names, units and the layer table are in ``README.md``.

--trace 0  times the workload untraced and reports the end-to-end metrics:
           setup_s, agent_steps_per_ref_s, peak_rss_mib, completed_run_ratio
           (``hostspeed.py`` explains the reference seconds).
--trace 1  runs the workload untraced for part of the budget, then replays
           the same runs with every layer entry point wrapped in spans
           (``tracing.py``), and reports the per-layer metrics.
--smoke    uses n = 6 agents and 5 steps, for a quick check of the plumbing.

Every invocation prints one ``metric <name> = <value> <unit>`` line per
metric, an ``env`` line, the steps-CSV digests, and as its last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Outputs, the
full result with its environment record, and the spans of a traced run go
to ``.perfbench_out/<workload>-seed<seed>-trace<t>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# The default workload seed, and a held-out one: a gain tuned on the default
# seed should be confirmed on the held-out seed before it is claimed.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017

SETUP_PROBES = 7
# share of --seconds a traced invocation spends on its untraced pass; the
# traced replay of the same runs takes as long again plus the overhead
UNTRACED_SHARE = 0.5
# stored per-run digests cover run indices below this
STORED_ROUNDS = 2
DIGESTS_PATH = BENCH_DIR / "digests.json"


def import_flockbench():
    """Import flockbench from this checkout's src/, and nowhere else."""
    package_dir = ROOT / "src" / "flockbench"
    if not (package_dir / "__init__.py").is_file():
        sys.exit(f"perfbench: no flockbench sources at {package_dir}")
    sys.path.insert(0, str(ROOT / "src"))
    fb = importlib.import_module("flockbench")
    if Path(fb.__file__).resolve().parent != package_dir.resolve():
        sys.exit(f"perfbench: flockbench imported from {fb.__file__}, not {package_dir}")
    for name in ("core", "harness", "mpc", "output"):
        importlib.import_module(f"flockbench.{name}")
    return fb


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="n = 6, 5 steps")
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help=f"store this seed's per-run digests in {DIGESTS_PATH.name}",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# --------------------------------------------------------------------------
# Environment record
# --------------------------------------------------------------------------


def environment(fb, args) -> dict:
    import numpy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        pass
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "flockbench": getattr(fb, "__version__", None),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    also where no git commit is available."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "flockbench").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# --------------------------------------------------------------------------
# Set-up time
# --------------------------------------------------------------------------


def setup_probe(args) -> None:
    """What a workload process does before its first run."""
    fb = import_flockbench()
    workloads.ClosedLoop(fb, workloads.WORKLOADS[args.workload], args.seed, size_of(args))


def measure_setup(args) -> list:
    """Wall times of fresh processes from spawn to the end of set-up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        subprocess.run(command, check=True, timeout=120, cwd=ROOT)
        times.append(time.perf_counter() - started)
    return times


def size_of(args) -> dict:
    return workloads.SMOKE_SIZE if args.smoke else workloads.FULL_SIZE


def rounds_for(workload, args, share=1.0) -> int:
    """Rounds that fill `share` of --seconds; a smoke run does one."""
    return 1 if args.smoke else workload.rounds_for(args.seconds * share)


# --------------------------------------------------------------------------
# Digests
# --------------------------------------------------------------------------


def compare_stored(loop, digests: dict) -> str:
    """Compare per-run digests with those stored for this seed.  A mismatch
    means the program's output changed; it is reported, not failed."""
    if not DIGESTS_PATH.is_file():
        return f"no stored digests ({DIGESTS_PATH.name} missing)"
    stored = json.loads(DIGESTS_PATH.read_text())
    stored = stored.get(loop.workload.name, {}).get(str(loop.seed))
    if not stored:
        return f"no stored digests for seed {loop.seed}"
    common = sorted(set(stored) & set(digests))
    changed = [key for key in common if stored[key] != digests[key]]
    if changed:
        return f"output changed: {len(changed)} of {len(common)} stored run digests differ ({', '.join(changed)})"
    return f"output unchanged: {len(common)} stored run digests match"


def record_digests(loop, digests: dict) -> None:
    stored = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.is_file() else {}
    by_seed = stored.setdefault(loop.workload.name, {})
    by_seed[str(loop.seed)] = digests
    DIGESTS_PATH.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# Per-layer metrics from the spans
# --------------------------------------------------------------------------

LAYER_SHARES = ("controllers", "core.sense", "metrics", "mpc.solve")


def layer_metrics(fb, tracer, traced, untraced, solve_results) -> dict:
    selves = tracer.self_times()
    self_s, calls = {}, {}
    solve_ms, run_s = [], {tag: [] for tag in fb.harness.MODEL_TAGS}
    for (name, detail, start, end, _), own in zip(tracer.spans, selves):
        layer = tracing.LAYER_OF_SPAN.get(name)
        if layer is None:
            continue
        self_s[layer] = self_s.get(layer, 0.0) + own
        calls[layer] = calls.get(layer, 0) + 1
        if layer == "mpc.solve":
            solve_ms.append((end - start) * 1e3)
        elif name == "harness.simulate":
            run_s[detail].append(end - start)
    wall = traced.wall_s
    out = {}
    for layer in LAYER_SHARES:
        out[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        out[f"{layer}.share"] = (self_s.get(layer, 0.0) / wall, "ratio")
    out["core.dynamics.self_s"] = (self_s.get("core.dynamics", 0.0), "s")
    out["mpc.solve.ms_p50"] = (tracing.percentile(solve_ms, 50), "ms")
    out["mpc.solve.ms_p90"] = (tracing.percentile(solve_ms, 90), "ms")
    solves = len(solve_results)
    max_iter = fb.mpc.MAX_ITER
    out["mpc.solve_results"] = (solves, "count")
    out["mpc.iterations_per_solve"] = (
        sum(it for it, _ in solve_results) / solves if solves else 0.0, "iter/solve"
    )
    out["mpc.converged_ratio"] = (
        sum(1 for _, ok in solve_results if ok) / solves if solves else 0.0, "ratio"
    )
    out["mpc.stalled_ratio"] = (
        sum(1 for it, ok in solve_results if not ok and it < max_iter) / solves
        if solves else 0.0,
        "ratio",
    )
    out["harness.self_s"] = (self_s.get("harness", 0.0), "s")
    out["harness.aggregate_s"] = (self_s.get("harness.aggregate", 0.0), "s")
    for tag, times in run_s.items():
        out[f"harness.run_s_p50.{tag}"] = (statistics.median(times) if times else 0.0, "s")
    out["output.self_s"] = (self_s.get("output", 0.0), "s")
    out["output.bytes"] = (traced.bytes_written(), "bytes")
    out["trace.overhead_ratio"] = (traced.wall_s / untraced.wall_s, "ratio")
    return out


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------


def traced_pass(fb, loop, out_dir, rounds):
    solve_results = []

    def observe_solve(result):
        solve_results.append((result.iterations, bool(result.converged)))

    tracer = tracing.Tracer(
        {"harness": fb.harness, "output": fb.output},
        details={"harness.simulate": lambda args, kwargs: args[0].model.tag},
        observers={"mpc.solve_mpc": observe_solve},
    )
    with tracer, tracer.span("workload", loop.workload.name):
        result = loop.run(out_dir, rounds)
    return tracer, result, solve_results


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    fb = import_flockbench()
    setup_times = measure_setup(args) if args.trace == 0 else []

    workload = workloads.WORKLOADS[args.workload]
    out_root = ROOT / ".perfbench_out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_root, ignore_errors=True)
    loop = workloads.ClosedLoop(fb, workload, args.seed, size_of(args))
    # warm-up at the smoke size: imports inside numpy and the writers settle
    warm = workloads.ClosedLoop(fb, workload, args.seed, workloads.SMOKE_SIZE)
    warm.run(out_root / "warmup", 1)

    notes, extra = [], {}
    if args.trace == 0:
        speed = hostspeed.Speedometer()
        with speed.during(fb.harness):
            main_pass = loop.run(out_root / "run", rounds_for(workload, args))
        passes = [main_pass]
    else:
        main_pass = loop.run(out_root / "untraced", rounds_for(workload, args, UNTRACED_SHARE))
        tracer, traced, solve_results = traced_pass(fb, loop, out_root / "traced", main_pass.rounds)
        passes = [main_pass, traced]
        tracer.write_csv(out_root / "spans.csv")

    failures = [(i, f) for i, p in enumerate(passes) for f in workloads.check_pass(loop, p)]
    failed = len({(i, f.tag, f.level, f.run_id) for i, f in failures})
    attempted = sum(p.attempted for p in passes)
    digests = main_pass.steps_sha256()
    correct = not failures
    if args.trace == 1 and traced.steps_sha256() != digests:
        correct = False
        notes.append("traced and untraced steps CSVs differ")
    per_run = workloads.run_digests(loop, main_pass, out_root / "digest", STORED_ROUNDS)
    if not args.smoke:
        notes.append(compare_stored(loop, per_run))
        if args.record_digests:
            record_digests(loop, per_run)
            notes.append(f"recorded {len(per_run)} run digests in {DIGESTS_PATH.name}")

    if args.trace == 0:
        wall_steps_per_s = loop.n * loop.steps * main_pass.completed / (main_pass.wall_s - speed.spent_s)
        notes.append(f"wall-clock agent_steps_per_s = {wall_steps_per_s:.6g} 1/s, host factor "
                     f"{speed.host_factor():.4f} from {len(speed.samples)} kernel samples")
        extra = {"wall_agent_steps_per_s": wall_steps_per_s, "host_factor": speed.host_factor(),
                 "kernel_samples_s": speed.samples, "setup_samples_s": setup_times}
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "agent_steps_per_ref_s": (wall_steps_per_s * speed.host_factor(), "1/ref_s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "completed_run_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        metrics = layer_metrics(fb, tracer, traced, main_pass, solve_results)

    env = environment(fb, args)
    print(f"perfbench workload={workload.name} seed={args.seed} trace={args.trace} "
          f"n={loop.n} steps={loop.steps} rounds={main_pass.rounds} "
          f"runs={main_pass.completed}/{main_pass.attempted} wall_s={main_pass.wall_s:.3f}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"failed_run_ratio = {failed}/{attempted}")
    for _, f in failures:
        print(f"failed run {f.tag}@{f.level}#{f.run_id}: {f.reason.strip()}")
    for name, digest in digests.items():
        print(f"sha256 {name} {digest}")
    for note in notes:
        print(note)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, env=env, steps_sha256=digests, run_sha256=per_run, notes=notes, **extra)
    (out_root / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
