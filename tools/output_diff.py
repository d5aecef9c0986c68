"""Check that two commits write the same outputs for every ``tad`` task.

Run from the repository root::

    python3 tools/output_diff.py 8875fc1 HEAD

Both commits are exported with ``git archive`` into a temporary directory,
so the repository and its ``.git`` are never touched.  Fixed inputs are
drawn once from a seeded generator: a labeled series, a separate label
file, an event stream, a covariate table, an anomaly matrix and its
attributes.  Each run in ``RUNS`` then goes through each commit's own
``tad`` command, writing to the same output path, so the paths echoed into
the reports match.  Every report is compared record by record after the
keys in ``TIMING_FIELDS`` are dropped, and every CSV byte for byte, except
the wall-clock ``mean_runtime_s`` column of the period table: that file is
compared cell by cell without the column.  A difference names the report
keys or the CSV columns that differ.  Where every differing value of a key
or column is a finite number on both sides, the name carries the largest
absolute difference and the largest relative one (to the larger magnitude of
the pair), as in ``score (abs 7.1e-15, rel 6e-13)``.  The exit status
is 0 when every output is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bench_record import export  # noqa: E402
from tadkit.cli import TIMING_FIELDS, strip_timings  # noqa: E402

SEED = 20260101
WALL_CLOCK_COLUMN = "mean_runtime_s"
CLI = "from tadkit.cli import main; main()"

# Every task at least once, from the inputs that write_inputs() draws: both
# protocols, inline and file labels, a weighted loss, int64's maximum grace,
# both cohort modes, a period table on one and on two worker processes, and
# each conditional mode.
RUNS = {
    "datagen": ["datagen", "--n-series", "3", "--length", "400", "--inject-rate", "0.02", "--seed", "4"],
    "datagen-uniform": ["datagen", "--n-series", "2", "--length", "300", "--inject-rate", "0.03",
                        "--inject-kind", "uniform", "--seed", "5"],
    "resample-events": ["resample", "--input", "inputs/events.csv", "--interval", "60", "--agg", "mean",
                        "--policy", "carry_forward", "--anchor", "0"],
    "resample-series": ["resample", "--input", "inputs/series.csv", "--interval", "180", "--agg", "max"],
    "detect": ["detect", "--input", "inputs/series.csv", "--method", "ewma_residual", "--window", "16",
               "--threshold-kind", "k_sigma"],
    "detect-batch": ["detect", "--input", "inputs/series.csv", "--protocol", "batch", "--window", "32"],
    "evaluate": ["evaluate", "--input", "inputs/series.csv", "--window", "32"],
    "evaluate-batch-labels": ["evaluate", "--input", "inputs/series.csv", "--labels", "inputs/labels.csv",
                              "--protocol", "batch", "--window", "32", "--max-delay", "2",
                              "--loss-kind", "weighted", "--fn-cost", "5"],
    "hil": ["hil", "--input", "inputs/series.csv", "--method", "ewma_residual",
            "--threshold-kind", "feedback_adaptive", "--threshold-value", "4"],
    "hil-max-delay": ["hil", "--input", "inputs/series.csv", "--method", "ewma_residual",
                      "--max-delay", "9223372036854775807"],
    "bench-period": ["bench-period", "--n-series", "40", "--permutations", "20", "--seed", "2"],
    "bench-period-threads": ["bench-period", "--n-series", "24", "--methods", "peaks,acf,fft",
                             "--threads", "2", "--seed", "3"],
    "conditional": ["conditional", "--input", "inputs/covariates.csv"],
    "conditional-joint": ["conditional", "--input", "inputs/covariates.csv", "--mode", "joint"],
    "conditional-lagged": ["conditional", "--input", "inputs/covariates.csv", "--mode", "conditional",
                           "--ar-order", "3", "--cov-lags", "2"],
    "cohort-rules": ["cohort", "--matrix", "inputs/matrix.csv", "--attributes", "inputs/attributes.csv"],
    "cohort-top": ["cohort", "--matrix", "inputs/matrix.csv", "--attributes", "inputs/attributes.csv",
                   "--top", "2"],
    "cohort-timeline": ["cohort", "--mode", "timeline", "--matrix", "inputs/matrix.csv",
                        "--attributes", "inputs/attributes.csv", "--min-support", "2"],
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="commit whose outputs are the reference")
    parser.add_argument("change", help="commit compared with it")
    return parser.parse_args(argv)


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_inputs(inputs: Path) -> None:
    """Seeded inputs for every run: the same files for both commits."""
    inputs.mkdir(parents=True)
    rng = np.random.default_rng(SEED)
    n = 600
    t = np.arange(n)
    values = np.sin(2 * np.pi * t / 24) + 0.1 * rng.standard_normal(n)
    labels = (rng.random(n) < 0.02).astype(int)
    # one event inside the warmup of evaluate --window 32, one ending on the last point
    labels[[10, n - 1]] = 1
    values[labels == 1] += 4.0
    stamps = 1767312000 + 60 * t
    write_csv(inputs / "series.csv", ["timestamp", "value", "label"],
              zip(stamps.tolist(), values.tolist(), labels.tolist()))
    write_csv(inputs / "labels.csv", ["timestamp", "label"], zip(stamps.tolist(), labels.tolist()))
    events = np.sort(rng.integers(0, 60 * n, size=2 * n))
    write_csv(inputs / "events.csv", ["timestamp", "value"],
              zip(events.tolist(), rng.standard_normal(events.size).tolist()))
    temp = np.sin(2 * np.pi * t / 24) + 0.05 * rng.standard_normal(n)
    sales = 40.0 + 3.5 * temp + rng.standard_normal(n)
    sales[rng.choice(n, size=6, replace=False)] += 15.0
    write_csv(inputs / "covariates.csv", ["timestamp", "sales", "temp"],
              zip(stamps.tolist(), sales.tolist(), temp.tolist()))
    members, steps = 30, 50
    matrix = (rng.random((members, steps)) < 0.05).astype(int)
    attributes = [[f"s{i:02d}", "abc"[i % 3], ["eu", "us"][i % 2]] for i in range(members)]
    matrix[[i for i, (_, device, region) in enumerate(attributes) if (device, region) == ("a", "eu")], 20:23] = 1
    write_csv(inputs / "matrix.csv", ["series_id", *map(str, 60 * np.arange(steps))],
              ([sid, *row] for (sid, *_), row in zip(attributes, matrix.tolist())))
    write_csv(inputs / "attributes.csv", ["series_id", "device", "region"], attributes)


def run_all(copy: Path, work: Path) -> dict[str, str]:
    """Run every entry of ``RUNS`` with the ``tad`` of ``copy``; failures by run name."""
    failures = {}
    for name, args in RUNS.items():
        done = subprocess.run(
            [sys.executable, "-c", CLI, *args, "--out", f"out/{name}"],
            cwd=work, env={**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True, text=True,
        )
        if done.returncode != 0:
            failures[name] = done.stderr.strip().splitlines()[-1] if done.stderr.strip() else f"exit {done.returncode}"
    return failures


def without_wall_clock(data: bytes) -> list[list[str]] | None:
    """The cells of a CSV with the wall-clock column, that column dropped; None without it."""
    rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    if not rows or WALL_CLOCK_COLUMN not in rows[0]:
        return None
    drop = rows[0].index(WALL_CLOCK_COLUMN)
    return [row[:drop] + row[drop + 1 :] for row in rows]


def dumped(record: dict, key: str) -> str:
    """``record[key]`` dumped again, so that NaN equals NaN; an absent key differs from null."""
    return json.dumps([key in record, record.get(key)], sort_keys=True)


def sized(name: str, pairs: list[tuple]) -> str:
    """``name``, with the largest absolute and relative difference of ``pairs``
    when every pair is two finite numbers."""
    try:
        ours, theirs = (np.array([float(v) for v in side]) for side in zip(*pairs))
    except (TypeError, ValueError):
        return name
    if not (np.isfinite(ours).all() and np.isfinite(theirs).all()):
        return name
    diff = np.abs(theirs - ours)
    rel = diff / np.maximum(np.abs(ours), np.abs(theirs))
    return f"{name} (abs {diff.max():.2g}, rel {rel.max():.2g})"


def number(value) -> float | None:
    """A report value that is a number, else None (booleans are not numbers here)."""
    return value if isinstance(value, (int, float)) and not isinstance(value, bool) else None


def compare(path: Path, other: Path) -> str | None:
    """None when the two files match, else what differs."""
    if path.suffix == ".jsonl":
        ours, theirs = ([strip_timings(json.loads(line)) for line in p.read_text().splitlines()]
                        for p in (path, other))
        if len(ours) != len(theirs):
            return "record counts differ"
        pairs = {}
        for a, b in zip(ours, theirs):
            for key in a.keys() | b.keys():
                if dumped(a, key) != dumped(b, key):
                    pairs.setdefault(key, []).append((number(a.get(key)), number(b.get(key))))
        keys = [sized(key, pairs[key]) for key in sorted(pairs)]
        return f"records differ outside TIMING_FIELDS, in {keys}" if keys else None
    ours, theirs = path.read_bytes(), other.read_bytes()
    if ours == theirs:
        return None
    if path.suffix != ".csv":
        return "bytes differ"
    kept = without_wall_clock(ours)
    if kept is not None and kept == without_wall_clock(theirs):
        return None
    ours, theirs = (list(csv.reader(io.StringIO(data.decode(), newline=""))) for data in (ours, theirs))
    if len(ours) != len(theirs) or ours[:1] != theirs[:1]:
        return "bytes differ"
    columns = []
    for j, name in enumerate(ours[0]):
        pairs = [(a[j] if j < len(a) else None, b[j] if j < len(b) else None)
                 for a, b in zip(ours, theirs) if a[j:j + 1] != b[j:j + 1]]
        if pairs:
            columns.append(sized(name, pairs))
    return f"bytes differ, in columns {columns}"


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="tadkit-output-diff-") as tmp:
        tmp = Path(tmp)
        work = tmp / "work"
        write_inputs(work / "inputs")
        results, failures = {}, {}
        for side, commit in (("parent", args.parent), ("change", args.change)):
            copy = export(commit, tmp / side)
            failures[side] = run_all(copy, work)
            (work / "out").mkdir(exist_ok=True)  # when every run failed
            results[side] = tmp / f"{side}-out"
            shutil.move(work / "out", results[side])
        files = sorted({p.relative_to(results[s]) for s in results for p in results[s].rglob("*") if p.is_file()})
        problems = {f"{side} run {run}": f"failed: {message}" for side, runs in failures.items()
                    for run, message in runs.items()}
        for name in files:
            there = [results[side] / name for side in results]
            if not all(p.is_file() for p in there):
                problems[str(name)] = "written by one commit only"
            elif (diff := compare(*there)) is not None:
                problems[str(name)] = diff
    for name, problem in problems.items():
        print(f"{name}: {problem}")
    runs = ", ".join(RUNS)
    verdict = "all identical" if not problems else f"{len(problems)} differ"
    print(f"{len(RUNS)} runs ({runs}), {len(files)} files: {verdict} "
          f"(reports minus {sorted(TIMING_FIELDS)}, CSVs byte for byte minus {WALL_CLOCK_COLUMN})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
