"""Record a parent/change benchmark comparison as ``BENCH_<pr>.json``.

Run from the repository root::

    python3 tools/bench_record.py --parent HEAD~1 --change HEAD --pr 6 \\
        --scratch /tmp/tadkit-bench --seeds 1 2

For every ``BENCHMARK.json`` workload (or those named with ``--workloads``)
and every seed, ``perfbench/run.py --trace 0`` runs in ``PAIRS``
parent/change pairs, alternating which side runs first, each for the
benchmark's ``run_seconds``.  Each run gets a fresh export of its
commit under ``--scratch`` (``git archive``, so the repository and its
``.git`` are never touched), removed when the run ends.  ``TRACED_RUNS``
traced runs per side and workload, at the first seed and alternating which
side runs first, give the layers and the job's span self times: every run,
and each layer's and span's median, min and max over them.  ``perfbench/gates.py`` (the
C2/C4 margins) and the Tier-1 suite then run once in an export of the
change.

The file holds, per workload, seed and side, the median, quartiles and
every run of each end-to-end metric, the failed/attempted counts, and how
many pairs the change won on each metric; beside them the commit hashes,
nproc, python, numpy, ``PYTHONDONTWRITEBYTECODE``, the ``src/`` line count
of both sides, the Tier-1 count and seconds, and the gate margins.  It is
rewritten after every run, so an interrupted recording keeps what it
measured.  ``--merge`` keeps the workload entries of an existing file that
this invocation does not rerun.  Compare files only from the same machine.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
PAIRS = 10  # alternating parent/change pairs per workload and seed
# Traced runs per side and workload: one traced run's layers moved by up to
# 45% on unchanged code, so each layer is the median of several.
TRACED_RUNS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="commit measured as the baseline")
    parser.add_argument("--change", required=True, help="commit measured against it")
    parser.add_argument("--pr", required=True, type=int, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--scratch", required=True, type=Path, help="directory for the per-run exports")
    parser.add_argument("--workloads", nargs="+", help="default: every BENCHMARK.json workload")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--merge", action="store_true", help="keep other workloads of an existing file")
    return parser.parse_args(argv)


def git(*args: str) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True)
    return done.stdout.strip()


def export(commit: str, dest: Path) -> Path:
    """A fresh copy of the files of ``commit`` at ``dest``."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def src_lines(copy: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (copy / "src").rglob("*.py"))


def perfbench(copy: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=copy, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "failed": result["failed"],
        "attempted": result["attempted"],
        "job_spans_self_ms": {name: row["self_ms"] for name, row in meta.get("job_spans_ms_per_job", {}).items()},
    }


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def traced_spreads(runs: list[dict], seed: int) -> dict:
    """Each layer's and job span's median, min and max over ``runs``, beside every run.

    A layer whose min-max range over the parent's runs overlaps the change's
    did not move by more than the runs' own spread.
    """
    def spreads(key: str) -> dict:
        names = dict.fromkeys(name for run in runs for name in run[key])
        values = {name: [run[key][name] for run in runs if name in run[key]] for name in names}
        return {
            name: {"median": statistics.median(v), "min": min(v), "max": max(v)} for name, v in values.items()
        }

    return {
        "seed": seed,
        "layers": spreads("layers"),
        "job_spans_self_ms": spreads("job_spans_self_ms"),
        "failed": [run["failed"] for run in runs],
        "runs": runs,
    }


def compare(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per side, each metric's median, quartiles and runs; the change's wins."""
    out = {}
    for side in ("parent", "change"):
        out[side] = {m["name"]: summary([p[side]["metrics"][m["name"]] for p in pairs]) for m in end_to_end}
        out[side]["failed"] = [p[side]["failed"] for p in pairs]
        out[side]["attempted"] = [p[side]["attempted"] for p in pairs]
    better = {m["name"]: (lambda a, b: a < b) if m["better"] == "lower" else (lambda a, b: a > b) for m in end_to_end}
    out["change_wins"] = {
        name: sum(wins(p["change"]["metrics"][name], p["parent"]["metrics"][name]) for p in pairs)
        for name, wins in better.items()
    }
    out["pairs"] = len(pairs)
    out["first"] = [p["first"] for p in pairs]
    return out


def tier1(copy: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": "src"}
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=copy, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - started
    tail = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|errors?|skipped)", tail)}
    return {"exit": done.returncode, "summary": tail, "seconds": round(seconds, 1), **counts}


def gates(copy: Path) -> dict:
    done = subprocess.run([sys.executable, "perfbench/gates.py"], cwd=copy, capture_output=True, text=True)
    path = copy / ".perfbench_runs" / "gates.json"
    if not path.exists():
        return {"exit": done.returncode, "error": done.stderr[-2000:]}
    return json.loads(path.read_text())


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    out_path = ROOT / f"BENCH_{args.pr}.json"

    import numpy

    record = json.loads(out_path.read_text()) if args.merge and out_path.exists() else {}
    if record and record.get("commits") != commits:
        raise SystemExit(f"{out_path.name} records other commits: {record.get('commits')}")
    record.update({
        "pr": args.pr,
        "commits": commits,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        },
        "settings": {"seconds": spec["run_seconds"], "quartiles": "statistics.quantiles(n=4, method='inclusive')"},
    })
    record.setdefault("workloads", {})

    def save() -> None:
        out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    made = itertools.count()

    def in_fresh_copy(side: str, tag: str, work, *rest):
        copy = export(commits[side], args.scratch / f"bench-{tag}-{next(made)}")
        try:
            return work(copy, *rest)
        finally:
            shutil.rmtree(copy, ignore_errors=True)

    record["src_lines"] = {side: in_fresh_copy(side, "lines", src_lines) for side in commits}

    def run(side: str, workload: str, seed: int, trace: int) -> dict:
        result = in_fresh_copy(side, side, perfbench, workload, seed, spec["run_seconds"], trace)
        job = result["metrics"].get("job_s", result["metrics"].get("trace.job_s_traced"))
        print(f"{workload} seed {seed} {side} trace {trace}: job {job:.3f} s, failed {result['failed']}",
              file=sys.stderr, flush=True)
        return result

    for workload in workloads:
        entry = record["workloads"][workload] = {"settings": {"seeds": args.seeds, "pairs": PAIRS}}
        for seed in args.seeds:
            pairs = []
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run(side, workload, seed, 0)
                pairs.append(pair)
                entry[f"seed{seed}"] = compare(pairs, spec["end_to_end"])
                save()
        traced = {"parent": [], "change": []}
        for i in range(TRACED_RUNS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run(side, workload, args.seeds[0], 1)
                traced[side].append({
                    "first": order[0],
                    "layers": result["metrics"],
                    "failed": result["failed"],
                    "job_spans_self_ms": result["job_spans_self_ms"],
                })
                entry["traced"] = {s: traced_spreads(runs, args.seeds[0]) for s, runs in traced.items() if runs}
                save()
    record["gates"] = in_fresh_copy("change", "gates", gates)
    save()
    record["tier1"] = in_fresh_copy("change", "tier1", tier1)
    save()
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
