"""Time per-point layers of two commits against each other, in paired rounds.

Run from the repository root::

    python3 tools/layer_pairs.py c4b5d54 HEAD --rounds 12 --calls 3

Both commits are exported with ``git archive`` into a temporary directory,
so the repository and its ``.git`` are never touched.  One long-lived
worker process per side runs this file with ``--worker`` and imports
``tadkit`` from its side's export, so both sides run the same timing code.
Each round asks both workers for every layer in turn, alternating which
side goes first, and a worker answers with the fastest of ``--calls``
calls of that layer.  Layers go through public names only, so older
commits resolve too:

- each detector's ``update`` over one seeded series;
- spectral residual's ``run_streaming`` at windows 32 and 128, and its
  ``run_batch``, over the same series;
- each threshold kind's ``update`` over the EWMA scores of that series
  (``trailing_percentile`` over EWMA is aim 1's "decision <= detector" pair);
- the trailing percentile over the EWMA scores of a 20,000-point series, so
  its default 4,096-score reservoir is full and sampling;
- ``run_conditional`` with the default config over a 40,000-point random
  walk whose one covariate is stuck at 4.0;
- ``DetectorThresholdPolicy.decide`` in an interactive loop, EWMA under
  ``feedback_adaptive``, with feedback on every flagged point;
- ``run_hil`` over 10,000 points in hil_feedback's shape (period 96, 1% of
  the points spiked and labelled), EWMA under ``feedback_adaptive`` with up
  1.0005 and down 0.98, which flags about 40% of them, per point;
- ``write_report`` of that run's report, one ``hil`` record and a
  ``feedback`` record per flagged point, into a temporary directory, per
  record;
- ``write_report`` of a ``tad resample`` run's one-record report, each call
  into a new directory, as each of fleet_cohort's runs writes it, per call;
- ``detection_delay`` over 10,000 points in hil_feedback's shape: about 1%
  of the points labelled, one by one, and 40% flagged;
- ``mine_rules_over_time`` over an 80 x 1,000 anomaly matrix, 3% anomalous,
  with fleet_cohort's attribute schema and ``min_support`` 3, per call;
- ``run_population`` over a seeded 80-series population, EWMA under
  k-sigma, per point;
- one fleet tick: the newest point of 80 series through EWMA and k-sigma,
  as ``perfbench`` times it.

It prints each side's median, the change in percent, the median of the
per-round change/parent ratios and the rounds the change won, ties counting
for neither.  A round's ratio compares two calls made moments apart, so it
follows the host's drift within a run, which the two medians taken apart
do not.  No assertion rests on these timings; compare them only between
runs on one machine.
"""

from __future__ import annotations

import argparse
import itertools
import os
import statistics
import subprocess
import sys
import tempfile
from dataclasses import asdict
from functools import partial
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SEED = 20261019
N = 2000  # points per series
WINDOW_N = 600  # points for the window detectors, whose update grows with history
WINDOW = 32
SR_WINDOWS = (32, 128)  # spectral residual's run_streaming windows
FLEET = (80, 1000)  # series, ticks
FULL_RESERVOIR_N = 20_000  # EWMA scores, past the default 4,096-score reservoir
STUCK_N = 40_000  # points of the stuck-covariate conditional run
DELAY_N = 10_000  # points of the detection-delay input
HIL_N, HIL_PERIOD = 10_000, 96  # hil_feedback's series

METHODS = ("spectral_residual", "ewma_residual", "left_discord", "kmeans_window")
KINDS = ("fixed_value", "trailing_percentile", "k_sigma", "feedback_adaptive")

# name -> (unit, what one call's time in µs is divided by; 1,000 gives ms per call)
LAYERS = {
    **{f"detectors.{m}.update": ("us/pt", WINDOW_N if m in ("left_discord", "kmeans_window") else N)
       for m in METHODS},
    **{f"detectors.spectral_residual.run_streaming_w{w}": ("us/pt", N) for w in SR_WINDOWS},
    "detectors.spectral_residual.run_batch": ("us/pt", N),
    **{f"thresholds.{k}.update_over_ewma": ("us/pt", N) for k in KINDS},
    "thresholds.trailing_percentile.update_full_reservoir": ("us/pt", FULL_RESERVOIR_N),
    "conditional.run_conditional_stuck_covariate": ("us/pt", STUCK_N),
    "evaluation.hil_decide": ("us/pt", N),
    "evaluation.run_hil": ("us/pt", HIL_N),
    "cli.write_report": ("us/record", None),  # the divisor is the report's record count
    "cli.write_report_one_record": ("us/call", 1),
    "evaluation.detection_delay": ("us/pt", DELAY_N),
    "cohort.mine_rules_over_time": ("ms/call", 1_000),
    "evaluation.run_population": ("us/pt", FLEET[0] * FLEET[1]),
    "fleet.tick_ewma_k_sigma": ("us/tick", FLEET[1]),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", nargs="?", help="commit measured as the baseline")
    parser.add_argument("change", nargs="?", help="commit measured against it")
    parser.add_argument("--rounds", type=int, default=12, help="alternating rounds (default 12)")
    parser.add_argument("--calls", type=int, default=3, help="calls per layer and round; the fastest counts")
    parser.add_argument("--layers", nargs="+", choices=sorted(LAYERS), help="default: every layer")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.worker and (args.parent is None or args.change is None):
        parser.error("PARENT and CHANGE are required")
    return args


class Calls:
    """The layers, built on seeded inputs of fixed shape with the side's ``tadkit``."""

    def __init__(self):
        import numpy as np
        from tadkit import cli, cohort, conditional, core, detectors, evaluation, thresholds

        self.det, self.ev, self.thr, self.cond, self.cohort = detectors, evaluation, thresholds, conditional, cohort
        rng = np.random.default_rng(SEED)
        t = np.arange(N)
        values = np.sin(2 * np.pi * t / 24) + 0.3 * rng.standard_normal(N)
        spikes = rng.random(N) < 0.01
        values[spikes] += 4.0
        self.values, self.points = values, values.tolist()
        self.series = core.TimeSeries(0, 60, values)
        self.labels = spikes.astype(int).tolist()
        ewma = detectors.make_detector(detectors.DetectorConfig(method="ewma_residual"))
        self.ewma_scores = [ewma.update(x) for x in self.points]
        fleet = np.sin(2 * np.pi * np.arange(FLEET[1]) / 24) + 0.3 * rng.standard_normal(FLEET)
        self.fleet = fleet.T.tolist()
        self.population = core.PopulationDataset(
            tuple(core.TimeSeries(0, 60, row) for row in fleet), tuple({"g": "x"} for _ in fleet)
        )
        long = np.sin(2 * np.pi * np.arange(FULL_RESERVOIR_N) / 24) + 0.3 * rng.standard_normal(FULL_RESERVOIR_N)
        ewma = detectors.make_detector(detectors.DetectorConfig(method="ewma_residual"))
        self.long_ewma_scores = [ewma.update(x) for x in long.tolist()]
        walk = core.TimeSeries(0, 60, np.cumsum(rng.standard_normal(STUCK_N)))
        self.stuck = core.CovariateSet(walk, {"c": core.TimeSeries(0, 60, np.full(STUCK_N, 4.0))})
        self.delay_labels = (rng.random(DELAY_N) < 0.01).astype(np.int8)
        self.delay_flags = (rng.random(DELAY_N) < 0.4).astype(np.int8)
        self.matrix = (rng.random(FLEET) < 0.03).astype(int)
        self.attributes = [{"device": str(rng.choice(list("abcd"))), "region": str(rng.choice(["eu", "us", "ap"])),
                            "os": str(rng.choice(["1", "2"]))} for _ in range(FLEET[0])]
        hil_values = np.sin(2 * np.pi * np.arange(HIL_N) / HIL_PERIOD) + 0.3 * rng.standard_normal(HIL_N)
        hil_spikes = rng.random(HIL_N) < 0.01
        hil_values[hil_spikes] += 4.0
        self.hil_series, self.hil_labels = core.TimeSeries(0, 60, hil_values), hil_spikes.astype(np.int8)
        report, log = self.run_hil()
        records = [{**asdict(report), "record": "hil", "input": "series_0000.csv"}]
        records += [{"record": "feedback", "t": t, "label": label} for t, label in log.entries]
        self.report = cli.RunReport(config={"task": "hil", "seed": SEED}, environment={"package": "tadkit"},
                                    records=tuple(records), timings={"wall_s": 0.0})
        self.report_dir = tempfile.TemporaryDirectory(prefix="tadkit-layer-pairs-report-")
        record = {"record": "resample", "file": "resampled.csv", "n_events": 1000, "n_bins": 1000,
                  "missing_bins": 0, "start": 0, "interval": 3600, "aggregation": "mean", "policy": "missing"}
        config = {"task": "resample", "seed": SEED, "out": "out/resample_00", "input": "inputs/events_00.csv",
                  "interval": 3600, "agg": "mean", "policy": "missing", "anchor": None, "max_carry": None}
        self.one_record = cli.RunReport(config=config, environment={"package": "tadkit"}, records=(record,),
                                        timings={"wall_s": 0.0})
        self.one_record_dirs = (Path(self.report_dir.name) / f"run_{i}" for i in itertools.count())
        self.units = {layer: count for layer, (_, count) in LAYERS.items()}
        self.units["cli.write_report"] = len(records)
        self.layers = {
            **{f"detectors.{m}.update": partial(self.detector, m) for m in METHODS},
            **{f"detectors.spectral_residual.run_streaming_w{w}": partial(self.sr_run, detectors.run_streaming, w)
               for w in SR_WINDOWS},
            "detectors.spectral_residual.run_batch": partial(self.sr_run, detectors.run_batch, 128),
            **{f"thresholds.{k}.update_over_ewma": partial(self.threshold, k, self.ewma_scores) for k in KINDS},
            "thresholds.trailing_percentile.update_full_reservoir":
                partial(self.threshold, "trailing_percentile", self.long_ewma_scores),
            "conditional.run_conditional_stuck_covariate": self.stuck_conditional,
            "evaluation.hil_decide": self.hil_decide,
            "evaluation.run_hil": self.run_hil,
            "cli.write_report": partial(cli.write_report, self.report, self.report_dir.name),
            "cli.write_report_one_record": lambda: cli.write_report(self.one_record, next(self.one_record_dirs)),
            "evaluation.detection_delay":
                partial(evaluation.detection_delay, self.delay_flags, self.delay_labels, 0),
            "cohort.mine_rules_over_time":
                partial(cohort.mine_rules_over_time, self.matrix, self.attributes, None, 3),
            "evaluation.run_population": self.run_population,
            "fleet.tick_ewma_k_sigma": self.fleet_tick,
        }

    def detector(self, method: str) -> None:
        config = self.det.DetectorConfig(method=method, window=WINDOW if method != "spectral_residual" else 128)
        update = self.det.make_detector(config).update
        n = N if method in ("spectral_residual", "ewma_residual") else WINDOW_N
        for x in self.points[:n]:
            update(x)

    def sr_run(self, run, window: int) -> None:
        run(self.det.DetectorConfig(method="spectral_residual", window=window), self.series)

    def threshold(self, kind: str, scores: list) -> None:
        update = self.thr.Thresholder(self.thr.ThresholdSpec(kind=kind, value=2.5)).update
        for s in scores:
            update(s)

    def stuck_conditional(self) -> None:
        self.cond.run_conditional(self.cond.ConditionalConfig(), self.stuck)

    def hil_decide(self) -> None:
        policy = self.ev.DetectorThresholdPolicy(
            self.det.DetectorConfig(method="ewma_residual"),
            self.thr.ThresholdSpec(kind="feedback_adaptive", value=2.5),
        )
        log, values, labels = self.ev.FeedbackLog(), self.values, self.labels
        for t in range(N):
            if policy.decide(values[: t + 1], log) == 1:
                log.record(t, labels[t])

    def run_hil(self):
        policy = self.ev.DetectorThresholdPolicy(
            self.det.DetectorConfig(method="ewma_residual"),
            self.thr.ThresholdSpec(kind="feedback_adaptive", value=1.0, up=1.0005, down=0.98),
        )
        return self.ev.run_hil(policy, self.hil_series, self.hil_labels)

    def run_population(self) -> None:
        self.ev.run_population(
            self.det.DetectorConfig(method="ewma_residual"),
            self.thr.ThresholdSpec(kind="k_sigma", k=3.0),
            self.population,
        )

    def fleet_tick(self) -> None:
        config = self.det.DetectorConfig(method="ewma_residual")
        spec = self.thr.ThresholdSpec(kind="k_sigma", k=3.0)
        members = [(self.det.make_detector(config), self.thr.Thresholder(spec)) for _ in range(FLEET[0])]
        for column in self.fleet:
            step = [(d.update(x), th) for (d, th), x in zip(members, column)]
            [th.update(score) for score, th in step]

    def run(self, layer: str, calls: int) -> float:
        """The fastest of ``calls`` calls of ``layer``, in ns per unit of ``LAYERS``."""
        fn = self.layers[layer]
        best = None
        for _ in range(calls):
            start = perf_counter_ns()
            fn()
            took = perf_counter_ns() - start
            best = took if best is None else min(best, took)
        return best / self.units[layer]


def worker() -> int:
    """Answer ``<layer> <calls>`` lines with the fastest call in ns per unit, until EOF."""
    calls = Calls()
    for line in sys.stdin:
        layer, count = line.split()
        print(calls.run(layer, int(count)), flush=True)
    return 0


def start_worker(src: Path) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--worker"],
                            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def ask(proc: subprocess.Popen, layer: str, calls: int) -> float:
    proc.stdin.write(f"{layer} {calls}\n")
    proc.stdin.flush()
    answer = proc.stdout.readline()
    if not answer:
        raise RuntimeError(f"worker exited while timing {layer}")
    return float(answer)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker()
    sys.path.insert(0, str(ROOT / "tools"))
    from bench_record import export

    layers = args.layers or list(LAYERS)
    times = {layer: {"parent": [], "change": []} for layer in layers}
    with tempfile.TemporaryDirectory(prefix="tadkit-layer-pairs-") as tmp:
        procs = {side: start_worker(export(commit, Path(tmp) / side) / "src")
                 for side, commit in (("parent", args.parent), ("change", args.change))}
        try:
            for r in range(args.rounds):
                order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
                for layer in layers:
                    for side in order:
                        times[layer][side].append(ask(procs[side], layer, args.calls) / 1e3)
        finally:
            for proc in procs.values():
                proc.stdin.close()
                proc.wait(timeout=60)
    width = max(map(len, layers))
    print(f"{'layer':{width}} {'unit':8} {'parent':>9} {'change':>9} {'delta':>7} {'ratio':>6}  wins")
    for layer in layers:
        unit = LAYERS[layer][0]
        parent, change = times[layer]["parent"], times[layer]["change"]
        p, c = statistics.median(parent), statistics.median(change)
        ratio = statistics.median(b / a for a, b in zip(parent, change))
        wins = sum(b < a for a, b in zip(parent, change))
        print(f"{layer:{width}} {unit:8} {p:9.3f} {c:9.3f} {100 * (c - p) / p:+6.1f}% {ratio:6.3f}  {wins}/{len(parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
