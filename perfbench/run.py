"""Seeded benchmark of tadkit: end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload stream_default --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same job alternately untraced and traced, then calls single layers
directly, and reports the per-layer metrics.  Metric names and units come
from ``BENCHMARK.json``.  The last line of standard output is the result
object; the line before it holds run metadata, the quality guards and
``error_rate``.  Seed 1 is the default; confirm a claim on seed 2 as well.

One closed-loop client in one process, no worker pools.  Inputs, reports
and span files go under ``.perfbench_runs/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
DEFAULT_SEED = 1
CONFIRM_SEED = 2
SETUP_REPEATS = 5
MIN_ROUNDS = 3
TIME_UNITS = {"s", "ms", "us"}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import tadkit.cli; print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; confirm claims on {CONFIRM_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.split()[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=60)
    return done.stdout.strip() or "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def round_percentiles(np, times) -> dict:
    return {
        "points_per_round": len(times.raw),
        "p50_us": float(np.percentile(times.scaled, 50)) / 1e3,
        "p99_us": float(np.percentile(times.scaled, 99)) / 1e3,
        "raw_p50_us": float(np.percentile(times.raw, 50)) / 1e3,
        "raw_p99_us": float(np.percentile(times.raw, 99)) / 1e3,
    }


def metadata(np) -> dict:
    gates = RUNS / "gates.json"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "gates": json.loads(gates.read_text()) if gates.exists() else "not measured; run perfbench/gates.py",
    }


def measure(args, work: Path):
    import numpy as np
    import workloads
    from spans import NullTracer, Tracer, write_spans
    from speed import NOMINAL_S, Speed

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    ops = workloads.Ops()
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    speed = Speed()

    imports, generates = [], []
    for _ in range(SETUP_REPEATS):
        before = speed.last or speed.probe()
        seconds = import_seconds()
        imports.append(seconds * speed.scale(before, speed.probe()))
        shutil.rmtree(workload.inputs, ignore_errors=True)
        workload.inputs.mkdir(parents=True)
        generates.append(speed.timed(partial(ops.run, "setup", workload.setup)))
    workload.load_inputs()

    ref, job_dir = work / "ref", work / "job"
    untraced, traced, samples = [], [], {}
    job_tracer = Tracer(run_id + "-job")
    started = perf_counter()
    rounds = 0
    min_rounds = 2 * MIN_ROUNDS if args.trace else MIN_ROUNDS
    # round 0 warms caches and lazy imports and is not timed; its outputs are
    # the reference every later round must reproduce
    while rounds <= min_rounds or perf_counter() - started < args.seconds:
        tracing = bool(args.trace) and rounds % 2 == 0 and rounds > 0
        rounds += 1
        shutil.rmtree(job_dir, ignore_errors=True)
        tracer = job_tracer if tracing else NullTracer()
        try:
            with job_tracer.patched(workloads.cli, workloads.CLI_SPANS) if tracing else nullcontext():
                # each step is scaled by the speed probes taken around it
                timed = [speed.timed(step) for step in workload.steps(job_dir, ops, tracer)]
            latency = ops.run("latency", workload.latency, ref if ref.exists() else job_dir, speed)
            if not ref.exists():
                job_dir.rename(ref)
                continue
            ops.check("repeat matches first run", lambda: workloads.diff_outputs(ref, job_dir))
            (traced if tracing else untraced).append(tuple(map(sum, zip(*timed))))
            # keep each round's percentiles, not its samples, so memory does
            # not grow with the number of rounds
            for name, times in latency.items():
                samples.setdefault(name, []).append(round_percentiles(np, times))
        except workloads.OperationFailed:
            continue
    if not untraced or not samples:
        raise RuntimeError("no round completed: " + "; ".join(ops.failures[:5]))
    try:
        workload.checks(ref, ops)
    except Exception as err:  # a check that cannot even run is a failed check
        ops.attempted += 1
        ops.failed += 1
        ops.failures.append(f"checks: {type(err).__name__}: {err}")

    quality = workload.quality(ref)
    # percentiles per round, then the median over rounds, so that one round
    # caught by a burst of machine noise cannot move the result
    by_config = {
        name: {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}
        for name, per_round in samples.items()
    }
    run_scale = speed.run_scale()
    units = {"f1": "ratio", "regret": "cost", "period_acc": "ratio", "rule_hit": "ratio"}
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "decide_by_config": by_config,
        "raw_and_scaled_s": {"job": untraced, "job_traced": traced, "generate": generates},
        "speed": {"probes": len(speed.probes), "median_probe_s": statistics.median(speed.probes),
                  "nominal_probe_s": NOMINAL_S},
        "guards": {
            "error_rate": {"value": ops.failed / ops.attempted, "unit": "ratio"},
            **{k: {"value": v, "unit": units[k]} for k, v in quality.items()},
        },
        "failures": ops.failures[:20],
        "run": metadata(np),
    }

    if args.trace:
        layer_tracer = Tracer(run_id + "-layers")
        job_summary = job_tracer.summary()
        values = workload.per_layer(layer_tracer, job_summary)
        values.update({f"quality.{k}": v for k, v in quality.items()})
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unknown = sorted(set(values) - set(declared))
        if unknown:
            raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        # a layer the workload does not exercise did no work: 0.  Layer times
        # were not probed one by one; they take the run's median probe.
        metrics = {
            name: {"value": float(values.get(name, 0.0)) * (run_scale if unit in TIME_UNITS else 1.0), "unit": unit}
            for name, unit in declared.items()
        }
        job_s = statistics.median(t[1] for t in untraced)
        traced_s = statistics.median(t[1] for t in traced)
        metrics["trace.job_s_traced"]["value"] = traced_s
        metrics["trace.job_overhead_ratio"]["value"] = traced_s / job_s - 1.0
        meta["job_spans_ms_per_job"] = {
            name: {"calls": row["calls"] / len(traced), "self_ms": row["self_ns"] / len(traced) / 1e6}
            for name, row in sorted(job_summary.items())
        }
        trace_file = RUNS / f"trace-{args.workload}-seed{args.seed}.jsonl"
        write_spans(trace_file, job_tracer, layer_tracer)
        meta["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        values = {
            "job_s": statistics.median(t[1] for t in untraced),
            "setup_s": statistics.median(imports) + statistics.median(t[1] for t in generates),
            "decide_p50_us": max(c["p50_us"] for c in by_config.values()),
            "decide_p99_us": max(c["p99_us"] for c in by_config.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in spec["end_to_end"]}

    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}
    return meta, result


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import tadkit
    except ImportError as err:
        print(f"perfbench: cannot import tadkit from {SRC}: {err}", file=sys.stderr)
        return 2
    if Path(tadkit.__file__).resolve().parent.parent != SRC.resolve():
        print(f"perfbench: tadkit imported from {tadkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        meta, result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
