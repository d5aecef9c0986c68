"""The benchmark's workloads.

Each workload drives tadkit from outside, through public functions and the
``tad`` command line run in process, and has these parts:

- ``setup``: generate the seeded inputs with ``datagen`` and write them to
  disk (timed by the caller as ``setup_s``);
- ``steps``: the job, inputs on disk to every report written, through the
  CLI wherever the CLI has a task for the step (timed as ``job_s``);
- ``latency``: a closed loop with one client -- the next point goes in only
  after the previous decision came back -- timing each decision;
- ``checks``: correctness checks on the outputs that do not trust the code
  under test;
- ``quality``: the deterministic detection-quality guards (f1, regret and,
  on the fleet, period accuracy and planted-rule hits);
- ``per_layer``: the traced run's direct calls into single layers, giving
  the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from functools import partial
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from tadkit import cli
from tadkit.conditional import ConditionalConfig, JointConfig, run_conditional, run_joint
from tadkit.core import CovariateSet, EventStream, PopulationDataset, TimeSeries, slice_prefix
from tadkit.datagen import InjectionConfig, PeriodicGeneratorConfig, generate_periodic, inject_point_anomalies
from tadkit.detectors import DetectorConfig, make_detector, run_batch, run_streaming
from tadkit.evaluation import DetectorThresholdPolicy, run_hil, run_population
from tadkit.periodicity import detect_period_acf, detect_period_fft, detect_period_peaks
from tadkit.thresholds import Thresholder, ThresholdSpec, apply_batch

from speed import ItemTimes

# ---------------------------------------------------------------------------
# Shared plumbing


class OperationFailed(Exception):
    """An operation raised; it has been counted, the round is abandoned."""


class Ops:
    """Operations attempted and failed.  A failure is an exception or a
    failed correctness check; ``error_rate`` is failed / attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except (Exception, SystemExit) as err:  # the CLI reports errors as SystemExit(2)
            self.failed += 1
            self.failures.append(f"{name}: {type(err).__name__}: {err}")
            raise OperationFailed(name) from err

    def check(self, name, fn) -> None:
        """``fn()`` returns None when the check passes, else what differed."""
        self.attempted += 1
        try:
            problem = fn()
        except Exception as err:
            problem = f"{type(err).__name__}: {err}"
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{name}: {problem}")


def tad(*args) -> None:
    """One ``tad`` command, in process, through the CLI's own parser."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main.main(args=[str(a) for a in args], prog_name="tad", standalone_mode=False)


def call(ops, tracer, name, fn, *args):
    with tracer.span(name):
        return ops.run(name, fn, *args)


def read_records(report_dir) -> list[dict]:
    with open(Path(report_dir) / "report.jsonl") as handle:
        return [json.loads(line) for line in handle]


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k not in cli.TIMING_FIELDS}
    return value


def _canonical(path: Path) -> list:
    """A file's content with wall-clock fields removed."""
    if path.suffix == ".jsonl":
        with open(path) as handle:
            return [_strip(json.loads(line)) for line in handle]
    if path.suffix == ".csv":
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        keep = [i for i, name in enumerate(rows[0] if rows else []) if name not in cli.TIMING_FIELDS]
        return [[row[i] for i in keep if i < len(row)] for row in rows]
    return [path.read_bytes()]


def diff_outputs(ref: Path, other: Path) -> str | None:
    """None when two job outputs agree once timing fields are stripped."""
    names = sorted(p.relative_to(ref) for p in ref.rglob("*") if p.is_file())
    if names != sorted(p.relative_to(other) for p in other.rglob("*") if p.is_file()):
        return "different file sets"
    for name in names:
        if _canonical(ref / name) != _canonical(other / name):
            return f"{name} differs"
    return None


def prefix_check(config, series: TimeSeries, full_scores: np.ndarray, cut: int):
    cut_scores = run_streaming(config, slice_prefix(series, cut)).scores
    if not np.array_equal(cut_scores, full_scores[:cut], equal_nan=True):
        return f"scores of the first {cut} points differ from the full run's prefix"
    return None


def seeded_cut(seed: int, stream: int, low: int, high: int) -> int:
    """One cut in [low, high], a function of the seed alone."""
    return int(np.random.default_rng([seed, stream]).integers(low, high + 1))


def prf(decisions: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Precision and recall, recounted; no alerts and no events is perfect."""
    tp = int(np.sum((decisions == 1) & (labels == 1)))
    fp = int(np.sum((decisions == 1) & (labels == 0)))
    fn = int(np.sum((decisions == 0) & (labels == 1)))
    if tp == fp == fn == 0:
        return 1.0, 1.0
    return (tp / (tp + fp) if tp + fp else 0.0), (tp / (tp + fn) if tp + fn else 0.0)


def report_counts_check(record: dict, decisions: np.ndarray, labels: np.ndarray, warmup: int):
    precision, recall = prf(decisions[warmup:], labels[warmup:])
    got = (record["alert_count"], record["precision"], record["recall"])
    want = (int(decisions.sum()), precision, recall)
    if got[0] != want[0] or not all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got[1:], want[1:])):
        return f"report (alerts, precision, recall) = {got}, recounted {want}"
    return None


def leading_nan(scores: np.ndarray) -> int:
    finite = np.nonzero(~np.isnan(scores))[0]
    return int(finite[0]) if finite.size else len(scores)


def pooled_quality(records: list[dict]) -> dict:
    """Pooled f1 and total regret of zero-one-loss evaluation records."""
    tp = fp = fn = 0
    regret = 0.0
    for r in records:
        alerts = r["alert_count"]
        hits = round(r["precision"] * alerts)
        tp += hits
        fp += alerts - hits
        fn += round(r["regret"]) - (alerts - hits)  # zero-one regret = fp + fn
        regret += r["regret"]
    return {"f1": 2 * tp / (2 * tp + fp + fn) if tp else 0.0, "regret": regret}


def stream_closed_loop(detector, thresholder, values, times: ItemTimes, offset: int = 0):
    """Feed points one at a time; time each point from input to decision
    into ``times`` from index ``offset`` on."""
    n = len(values)
    scores = np.empty(n)
    decisions = np.empty(n, dtype=np.int8)
    clock = perf_counter_ns
    for i, x in enumerate(values):
        start = clock()
        score = detector.update(x)
        decision = thresholder.update(score)
        times.record(offset + i, clock() - start)
        scores[i] = score
        decisions[i] = decision
    return scores, decisions


def timed_stream(tracer, name, detector, values):
    """Traced per-update spans; returns the scores."""
    out = np.empty(len(values))
    for i, x in enumerate(values):
        with tracer.span(name):
            out[i] = detector.update(x)
    return out


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _rows(args, result) -> int:
    return len(result[0]) if isinstance(result, tuple) else len(result)


def _min_support_steps(args, result) -> int:
    matrix, min_support = np.asarray(args[0]), (args[3] if len(args) > 3 else 1)
    return int(np.sum(matrix.sum(axis=0) >= min_support))


#: Names in :mod:`tadkit.cli` wrapped with spans in the traced job, as
#: attribute -> (span name, count of the unit the layer metric is per).
CLI_SPANS = {
    "run_experiment": ("cli.run_experiment", None),
    "write_report": ("cli.write_report", lambda args, result: len(args[0].records) + 1),
    "load_labeled_csv": ("cli.ingest", _rows),
    "load_series_csv": ("cli.ingest", _rows),
    "load_covariates_csv": ("cli.ingest", _rows),
    "load_matrix_csv": ("cli.load_matrix_csv", None),
    "load_attributes_csv": ("cli.load_attributes_csv", None),
    "write_series_csv": ("cli.write_series_csv", None),
    "evaluate_streaming": ("evaluation.evaluate_streaming", None),
    "evaluate_batch": ("evaluation.evaluate_batch", None),
    "run_hil": ("evaluation.run_hil", None),
    "run_conditional": ("conditional.run_conditional", None),
    "run_joint": ("conditional.run_joint", None),
    "run_period_benchmark": ("periodicity.run_period_benchmark", None),
    "resample": ("resample.resample", lambda args, result: len(args[0])),
    "mine_rules_over_time": ("cohort.mine_rules_over_time", _min_support_steps),
}


def labeled_series(seed: int, index: int, n: int, period: int, rate: float):
    drawn = generate_periodic(
        PeriodicGeneratorConfig(seed=seed, fixed_length=n, fixed_period=period), index
    )
    child = int(np.random.SeedSequence([seed, index, 0xEC]).generate_state(1)[0])
    return inject_point_anomalies(drawn.series, InjectionConfig(rate=rate, seed=child))


class Workload:
    name = ""

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.inputs = root / "inputs"
        self.latency_out: dict = {}


def ingest_and_write(job: dict) -> dict:
    """cli.* per-layer metrics from the traced job's span summary."""
    out = {}
    ingest = job.get("cli.ingest")
    if ingest and ingest["n"]:
        out["cli.ingest_us_per_row"] = ingest["self_ns"] / ingest["n"] / 1e3
    write = job.get("cli.write_report")
    if write and write["n"]:
        out["cli.report_write_us_per_record"] = write["self_ns"] / write["n"] / 1e3
    return out


# ---------------------------------------------------------------------------
# stream_default


class StreamDefault(Workload):
    name = "stream_default"
    N, PERIOD, SERIES, WINDOW = 4000, 96, 1, 128
    DETECTOR = DetectorConfig(method="spectral_residual", window=WINDOW)
    CONDITIONAL = ConditionalConfig(ar_order=2, covariate_lags=0, forgetting=0.999, ridge=1e-3)
    JOINT = JointConfig(forgetting=0.999, ridge=1e-3)

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.spec = ThresholdSpec(kind="trailing_percentile", percentile=0.999, seed=seed)
        self.covariate_file = self.inputs / "sales_temp.csv"

    def setup(self) -> None:
        tad(
            "datagen", "--n-series", self.SERIES, "--length", self.N, "--period", self.PERIOD,
            "--inject-rate", 0.01, "--seed", self.seed, "--out", self.inputs,
        )
        # target = linear response to a periodic covariate, plus noise and
        # injected excess the covariate cannot explain
        temp = generate_periodic(
            PeriodicGeneratorConfig(seed=self.seed, fixed_length=self.N, fixed_period=self.PERIOD),
            self.SERIES,
        ).series
        noise = np.random.default_rng([self.seed, 0xC0]).standard_normal(self.N)
        sales = inject_point_anomalies(
            temp.with_values(40.0 + 3.5 * temp.values + noise), InjectionConfig(rate=0.01, seed=self.seed)
        ).series
        stamps = sales.timestamps()
        write_csv(
            self.covariate_file,
            ["timestamp", "sales", "temp"],
            ([int(t), repr(float(s)), repr(float(c))] for t, s, c in zip(stamps, sales.values, temp.values)),
        )

    def series_files(self):
        return [self.inputs / f"series_{i:04d}.csv" for i in range(self.SERIES)]

    def load_inputs(self) -> None:
        self.series, self.labels = cli.load_labeled_csv(self.series_files()[0])
        self.values = self.series.values.tolist()
        self.covariates = cli.load_covariates_csv(self.covariate_file)

    def steps(self, out: Path, ops: Ops, tracer) -> list:
        evaluate = [
            partial(call, ops, tracer, "tad evaluate", tad,
                    "evaluate", "--input", path, "--protocol", "streaming",
                    "--method", "spectral_residual", "--window", self.WINDOW,
                    "--threshold-kind", "trailing_percentile", "--percentile", 0.999,
                    "--seed", self.seed, "--out", out / f"evaluate_{i}")
            for i, path in enumerate(self.series_files())
        ]
        conditional = partial(
            call, ops, tracer, "tad conditional", tad,
            "conditional", "--input", self.covariate_file, "--mode", "both",
            "--ar-order", 2, "--cov-lags", 0, "--forgetting", 0.999, "--ridge", 1e-3,
            "--seed", self.seed, "--out", out / "conditional")
        return evaluate + [conditional]

    def latency(self, ref: Path, speed) -> dict:
        times = ItemTimes(speed, self.N)
        scores, decisions = stream_closed_loop(
            make_detector(self.DETECTOR), Thresholder(self.spec), self.values, times
        )
        self.latency_out = {"scores": scores, "decisions": decisions}
        return {"spectral_residual+trailing_percentile": times.finish()}

    def checks(self, ref: Path, ops: Ops) -> None:
        scores, decisions = self.latency_out["scores"], self.latency_out["decisions"]
        warmup = leading_nan(scores)
        cut = seeded_cut(self.seed, 1, warmup + 1, self.N)
        ops.check("prefix spectral_residual", lambda: prefix_check(self.DETECTOR, self.series, scores, cut))
        record = read_records(ref / "evaluate_0")[1]
        ops.check("evaluate counts", lambda: report_counts_check(
            record, decisions, self.labels.labels, warmup))

        with open(ref / "conditional" / "scores.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        columns = {name: np.array([float(r[i]) for r in rows[1:]]) for i, name in enumerate(rows[0])}
        data = self.covariates
        cut = seeded_cut(self.seed, 2, 1, self.N)
        sliced = CovariateSet(
            target=slice_prefix(data.target, cut),
            covariates={k: slice_prefix(v, cut) for k, v in data.covariates.items()},
        )
        for mode, fn, config in (("conditional", run_conditional, self.CONDITIONAL),
                                 ("joint", run_joint, self.JOINT)):
            ops.check(f"prefix {mode}", lambda fn=fn, config=config, mode=mode: None if np.array_equal(
                fn(config, sliced).scores, columns[mode][:cut], equal_nan=True
            ) else f"{mode} scores of the first {cut} points differ from the job's")

    def quality(self, ref: Path) -> dict:
        return pooled_quality([read_records(ref / f"evaluate_{i}")[1] for i in range(self.SERIES)])

    def per_layer(self, tracer, job_summary) -> dict:
        n = self.N
        with tracer.span("detectors.spectral_residual"):
            scores = run_streaming(self.DETECTOR, self.series).scores
        thresholder = Thresholder(self.spec)
        with tracer.span("thresholds.trailing_percentile"):
            for s in scores.tolist():
                thresholder.update(s)
        with tracer.span("conditional.conditional"):
            run_conditional(self.CONDITIONAL, self.covariates)
        with tracer.span("conditional.joint"):
            run_joint(self.JOINT, self.covariates)
        t = tracer.summary()
        detector_us = t["detectors.spectral_residual"]["total_ns"] / n / 1e3
        threshold_us = t["thresholds.trailing_percentile"]["total_ns"] / n / 1e3
        warmup = leading_nan(scores)
        # window_detectors is not in BENCHMARK.json (see perfbench/README.md),
        # so its layers are measured here, on a prefix of the same series
        window = window_layers(tracer, slice_prefix(self.series, WindowDetectors.N), self.seed)
        return {
            **window,
            "detectors.spectral_residual.us_per_pt": detector_us,
            "thresholds.trailing_percentile.us_per_pt": threshold_us,
            "thresholds.decision_over_detector": threshold_us / detector_us,
            "conditional.conditional_us_per_pt": t["conditional.conditional"]["total_ns"] / n / 1e3,
            "conditional.joint_us_per_pt": t["conditional.joint"]["total_ns"] / n / 1e3,
            "detectors.points_scored": n - warmup + window["detectors.points_scored"],
            "detectors.warmup_points": warmup + window["detectors.warmup_points"],
            **ingest_and_write(job_summary),
        }


# ---------------------------------------------------------------------------
# window_detectors


class WindowDetectors(Workload):
    name = "window_detectors"
    N, PERIOD, WINDOW, CLUSTERS = 1500, 32, 32, 4
    METHODS = ("left_discord", "kmeans_window")

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.spec = ThresholdSpec(kind="k_sigma", k=3.0, seed=seed)
        self.configs = {
            m: DetectorConfig(method=m, window=self.WINDOW, n_clusters=self.CLUSTERS) for m in self.METHODS
        }

    def setup(self) -> None:
        tad(
            "datagen", "--n-series", 1, "--length", self.N, "--period", self.PERIOD,
            "--inject-rate", 0.01, "--seed", self.seed, "--out", self.inputs,
        )

    def load_inputs(self) -> None:
        self.series, self.labels = cli.load_labeled_csv(self.inputs / "series_0000.csv")
        self.values = self.series.values.tolist()

    def steps(self, out, ops, tracer) -> list:
        return [
            partial(call, ops, tracer, "tad evaluate", tad,
                    "evaluate", "--input", self.inputs / "series_0000.csv", "--protocol", protocol,
                    "--method", method, "--window", self.WINDOW, "--n-clusters", self.CLUSTERS,
                    "--threshold-kind", "k_sigma", "--k", 3.0,
                    "--seed", self.seed, "--out", out / f"{method}_{protocol}")
            for method in self.METHODS
            for protocol in ("streaming", "batch")
        ]

    def latency(self, ref: Path, speed) -> dict:
        samples = {}
        for method, config in self.configs.items():
            times = ItemTimes(speed, self.N)
            scores, decisions = stream_closed_loop(
                make_detector(config), Thresholder(self.spec), self.values, times
            )
            samples[f"{method}+k_sigma"] = times.finish()
            self.latency_out[method] = (scores, decisions)
        return samples

    def checks(self, ref, ops) -> None:
        labels = self.labels.labels
        for method, config in self.configs.items():
            scores, decisions = self.latency_out[method]
            warmup = leading_nan(scores)
            cut = seeded_cut(self.seed, 3, warmup + 1, self.N)
            ops.check(f"prefix {method}", lambda: prefix_check(config, self.series, scores, cut))
            record = read_records(ref / f"{method}_streaming")[1]
            ops.check(f"evaluate counts {method} streaming",
                      lambda: report_counts_check(record, decisions, labels, warmup))
            batch_scores = run_batch(config, self.series)
            batch_decisions = apply_batch(self.spec, batch_scores)
            record = read_records(ref / f"{method}_batch")[1]
            ops.check(f"evaluate counts {method} batch", lambda: report_counts_check(
                record, batch_decisions, labels, batch_scores.warmup))

    def quality(self, ref) -> dict:
        return pooled_quality([read_records(ref / f"{m}_streaming")[1] for m in self.METHODS])

    def per_layer(self, tracer, job_summary) -> dict:
        return {**window_layers(tracer, self.series, self.seed), **ingest_and_write(job_summary)}


def window_layers(tracer, series: TimeSeries, seed: int) -> dict:
    """Per-layer costs of the window detectors on ``series``: per-update
    spans for both detectors, k_sigma over the discord scores, and the batch
    kernels."""
    w, n = WindowDetectors.WINDOW, len(series)
    configs = {
        m: DetectorConfig(method=m, window=w, n_clusters=WindowDetectors.CLUSTERS)
        for m in WindowDetectors.METHODS
    }
    values = series.values.tolist()
    discord = timed_stream(tracer, "detectors.left_discord.update", make_detector(configs["left_discord"]), values)
    kmeans = timed_stream(tracer, "detectors.kmeans_window.update", make_detector(configs["kmeans_window"]), values)
    thresholder = Thresholder(ThresholdSpec(kind="k_sigma", k=3.0, seed=seed))
    with tracer.span("thresholds.k_sigma"):
        for s in discord.tolist():
            thresholder.update(s)
    for method, config in configs.items():
        with tracer.span(f"detectors.batch.{method}"):
            run_batch(config, series)

    def durations(name):
        return np.array([s["end"] - s["start"] for s in tracer.spans if s["name"] == name])

    d_ns = durations("detectors.left_discord.update")
    d_warm = leading_nan(discord)
    tenth = (n - d_warm) // 10
    scored = d_ns[d_warm:]
    k_ns = durations("detectors.kmeans_window.update")
    k_warm = leading_nan(kmeans)
    # refit schedule of DetectorConfig.refit_cadence (None -> window):
    # the first scored update and every window-th one after it
    refit_steps = np.arange(k_warm, n, w)
    t = tracer.summary()
    return {
        "detectors.left_discord.us_per_pt": d_ns.sum() / n / 1e3,
        "detectors.left_discord.growth": scored[-tenth:].mean() / scored[:tenth].mean(),
        "detectors.kmeans_window.us_per_pt": k_ns.sum() / n / 1e3,
        "detectors.kmeans_window.refits": len(refit_steps),
        "detectors.kmeans_window.refit_share": len(refit_steps) / (n - k_warm),
        "detectors.kmeans_window.refit_ms": float(np.median(k_ns[refit_steps])) / 1e6,
        "detectors.batch.left_discord_s": t["detectors.batch.left_discord"]["total_ns"] / 1e9,
        "detectors.batch.kmeans_window_s": t["detectors.batch.kmeans_window"]["total_ns"] / 1e9,
        "thresholds.k_sigma.us_per_pt": t["thresholds.k_sigma"]["total_ns"] / n / 1e3,
        "detectors.points_scored": (n - d_warm) + (n - k_warm),
        "detectors.warmup_points": d_warm + k_warm,
    }


# ---------------------------------------------------------------------------
# hil_feedback


class TimedPolicy:
    """Times each ``decide`` of the wrapped policy and keeps its answer."""

    def __init__(self, inner, times: ItemTimes | None = None):
        self.inner = inner
        self.times = times
        self.ns: list[int] = []
        self.decisions: list[int] = []

    @property
    def warmup(self) -> int:
        return self.inner.warmup

    def decide(self, prefix, log) -> int:
        start = perf_counter_ns()
        decision = self.inner.decide(prefix, log)
        elapsed = perf_counter_ns() - start
        if self.times is not None:
            self.times.record(len(self.decisions), elapsed)
        self.ns.append(elapsed)
        self.decisions.append(decision)
        return decision


class HilFeedback(Workload):
    name = "hil_feedback"
    N, PERIOD = 10000, 96
    DETECTOR = DetectorConfig(method="ewma_residual", alpha=0.1)
    START, UP, DOWN = 1.0, 1.0005, 0.98

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.spec = ThresholdSpec(
            kind="feedback_adaptive", value=self.START, up=self.UP, down=self.DOWN, seed=seed
        )

    def setup(self) -> None:
        tad(
            "datagen", "--n-series", 1, "--length", self.N, "--period", self.PERIOD,
            "--inject-rate", 0.01, "--seed", self.seed, "--out", self.inputs,
        )

    def load_inputs(self) -> None:
        self.series, self.labels = cli.load_labeled_csv(self.inputs / "series_0000.csv")

    def steps(self, out, ops, tracer) -> list:
        return [partial(
            call, ops, tracer, "tad hil", tad,
            "hil", "--input", self.inputs / "series_0000.csv",
            "--method", "ewma_residual", "--alpha", self.DETECTOR.alpha,
            "--threshold-kind", "feedback_adaptive", "--threshold-value", self.START,
            "--up", self.UP, "--down", self.DOWN,
            "--seed", self.seed, "--out", out / "hil")]

    def latency(self, ref: Path, speed) -> dict:
        times = ItemTimes(speed, self.N)
        policy = TimedPolicy(DetectorThresholdPolicy(self.DETECTOR, self.spec), times)
        run_hil(policy, self.series, self.labels)
        self.latency_out = {"decisions": np.array(policy.decisions, dtype=np.int8)}
        return {"ewma_residual+feedback_adaptive": times.finish()}

    def checks(self, ref, ops) -> None:
        scores = run_streaming(self.DETECTOR, self.series).scores
        cut = seeded_cut(self.seed, 4, 2, self.N)
        ops.check("prefix ewma_residual", lambda: prefix_check(self.DETECTOR, self.series, scores, cut))
        records = read_records(ref / "hil")
        flagged = np.nonzero(self.latency_out["decisions"] == 1)[0]
        labels = self.labels.labels
        feedback = [(r["t"], r["label"]) for r in records if r.get("record") == "feedback"]
        hil = next(r for r in records if r.get("record") == "hil")
        ops.check("hil feedback equals flagged set", lambda: None if (
            feedback == [(int(t), int(labels[t])) for t in flagged] and hil["alert_count"] == len(flagged)
        ) else f"{len(feedback)} feedback records, {len(flagged)} flagged points")

    def quality(self, ref) -> dict:
        hil = next(r for r in read_records(ref / "hil") if r.get("record") == "hil")
        return pooled_quality([hil])

    def per_layer(self, tracer, job_summary) -> dict:
        n = self.N
        with tracer.span("detectors.ewma_residual"):
            scores = run_streaming(self.DETECTOR, self.series).scores
        thresholder = Thresholder(self.spec)
        labels = self.labels.labels
        events = 0
        with tracer.span("thresholds.feedback_adaptive"):
            for i, s in enumerate(scores.tolist()):
                if thresholder.update(s):
                    thresholder.feedback(int(labels[i]))
                    events += 1
        policy = TimedPolicy(DetectorThresholdPolicy(self.DETECTOR, self.spec))
        with tracer.span("evaluation.run_hil"):
            run_hil(policy, self.series, self.labels)
        decide = np.array(policy.ns, dtype=np.float64)
        tenth = n // 10
        t = tracer.summary()
        warmup = leading_nan(scores)
        return {
            "detectors.ewma_residual.us_per_pt": t["detectors.ewma_residual"]["total_ns"] / n / 1e3,
            "thresholds.feedback_adaptive.us_per_pt": t["thresholds.feedback_adaptive"]["total_ns"] / n / 1e3,
            "thresholds.feedback_events": events,
            "evaluation.hil_decide_us_per_pt": decide.sum() / n / 1e3,
            "evaluation.hil_loop_us_per_pt": (t["evaluation.run_hil"]["total_ns"] - decide.sum()) / n / 1e3,
            "evaluation.hil_growth": decide[-tenth:].mean() / decide[:tenth].mean(),
            "evaluation.flagged_share": float(np.mean(policy.decisions)),
            "detectors.points_scored": n - warmup,
            "detectors.warmup_points": warmup,
            **ingest_and_write(job_summary),
        }


# ---------------------------------------------------------------------------
# fleet_cohort


class FleetCohort(Workload):
    name = "fleet_cohort"
    SERIES, BINS, INTERVAL, PERIOD = 80, 1000, 3600, 24
    DRAWS = 400                                  # generator draws in the period table
    BURST = 6                                    # steps of the planted cohort burst
    PLANTED = (("device", "a"), ("region", "eu"))
    MIN_SUPPORT = 3
    DETECTOR = DetectorConfig(method="ewma_residual", alpha=0.1)

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.spec = ThresholdSpec(kind="k_sigma", k=3.0, seed=seed)
        self.attributes_file = self.inputs / "attributes.csv"

    def event_file(self, i: int) -> Path:
        return self.inputs / f"events_{i:03d}.csv"

    def _fleet(self):
        """Grid values, labels, attributes and the planted burst start."""
        rng = np.random.default_rng([self.seed, 0xF1EE7])
        attributes = [
            {"device": str(rng.choice(list("abcd"))), "region": str(rng.choice(["eu", "us", "ap"])),
             "os": str(rng.choice(["1", "2"]))}
            for _ in range(self.SERIES)
        ]
        for row in attributes[:5]:  # a cohort of at least five members
            row.update(self.PLANTED)
        burst_start = int(rng.integers(self.BINS // 2, self.BINS - self.BURST - 10))
        values, labels = [], []
        for i in range(self.SERIES):
            drawn = labeled_series(self.seed, i, self.BINS, self.PERIOD, 0.005)
            v, lab = drawn.series.values.copy(), drawn.labels.labels.copy()
            if all(attributes[i][a] == val for a, val in self.PLANTED):
                span = slice(burst_start, burst_start + self.BURST)
                step = float(np.mean(np.abs(np.diff(v))))
                v[span] += 30.0 * step * rng.choice([-1.0, 1.0], size=self.BURST)
                lab[span] = 1
            values.append(v)
            labels.append(lab)
        return np.array(values), np.array(labels), attributes, burst_start

    def setup(self) -> None:
        values, labels, attributes, _ = self._fleet()
        for i in range(self.SERIES):
            rng = np.random.default_rng([self.seed, i, 0xE7])
            counts = rng.choice(4, size=self.BINS, p=[0.25, 0.4, 0.25, 0.1])
            # events in the first and last bin put every series on one grid;
            # anomalous bins and the bins after them are never carried over
            forced = labels[i].astype(bool)
            forced[1:] |= forced[:-1]
            forced[[0, -1]] = True
            counts[forced] = np.maximum(counts[forced], 1)
            bins = np.repeat(np.arange(self.BINS), counts)
            offsets = rng.integers(0, self.INTERVAL, size=bins.size)
            order = np.lexsort((offsets, bins))
            bins, offsets = bins[order], offsets[order]
            jitter = rng.normal(0.0, 0.01, size=bins.size)
            events = EventStream(bins * self.INTERVAL + offsets, values[i][bins] + jitter)
            cli.write_series_csv(self.event_file(i), events)
        write_csv(
            self.attributes_file,
            ["series_id", "device", "os", "region"],
            ([f"s{i:03d}", a["device"], a["os"], a["region"]] for i, a in enumerate(attributes)),
        )

    def load_inputs(self) -> None:
        _, self.labels, self.attributes, self.burst_start = self._fleet()

    def steps(self, out, ops, tracer) -> list:
        period = partial(
            call, ops, tracer, "tad bench-period", tad,
            "bench-period", "--methods", "peaks,acf,fft", "--n-series", self.DRAWS,
            "--threads", 1, "--seed", self.seed, "--out", out / "period")
        cohort = partial(
            call, ops, tracer, "tad cohort", tad,
            "cohort", "--mode", "timeline", "--matrix", out / "matrix.csv",
            "--attributes", self.attributes_file, "--max-depth", 2, "--quality", "f1",
            "--min-support", self.MIN_SUPPORT, "--seed", self.seed, "--out", out / "cohort")
        return [period, partial(self._resample_all, out, ops, tracer),
                partial(self._population, out, ops, tracer), cohort]

    def _resample_all(self, out, ops, tracer) -> None:
        for i in range(self.SERIES):
            call(ops, tracer, "tad resample", tad,
                 "resample", "--input", self.event_file(i), "--interval", self.INTERVAL,
                 "--agg", "mean", "--policy", "carry_forward", "--anchor", 0,
                 "--max-carry", self.BINS, "--out", out / "resample" / f"{i:03d}")

    def _population(self, out, ops, tracer) -> None:
        series = [
            ops.run("load resampled", cli.load_series_csv, out / "resample" / f"{i:03d}" / "resampled.csv")
            for i in range(self.SERIES)
        ]
        population = PopulationDataset(tuple(series), tuple(self.attributes))
        matrix = call(ops, tracer, "evaluation.run_population", run_population,
                      self.DETECTOR, self.spec, population)
        write_csv(
            out / "matrix.csv",
            ["series_id"] + [str(t) for t in series[0].timestamps()],
            ([f"s{i:03d}"] + row for i, row in enumerate(matrix.tolist())),
        )

    def _grid(self, ref: Path) -> list:
        if "grid" not in self.latency_out:
            self.latency_out["grid"] = [
                cli.load_series_csv(ref / "resample" / f"{i:03d}" / "resampled.csv")
                for i in range(self.SERIES)
            ]
        return self.latency_out["grid"]

    def latency(self, ref: Path, speed) -> dict:
        # one closed-loop step hands in the newest point of every series and
        # gets the fleet's decisions back
        grid = np.array([series.values for series in self._grid(ref)])
        detectors = [make_detector(self.DETECTOR) for _ in grid]
        thresholders = [Thresholder(self.spec) for _ in grid]
        members = list(zip(detectors, thresholders))
        times = ItemTimes(speed, self.BINS)
        scores = np.empty(grid.shape)
        decisions = np.empty(grid.shape, dtype=np.int8)
        clock = perf_counter_ns
        for t, column in enumerate(grid.T.tolist()):
            start = clock()
            step = [(d.update(x), th) for (d, th), x in zip(members, column)]
            out = [th.update(score) for score, th in step]
            times.record(t, clock() - start)
            scores[:, t] = [score for score, _ in step]
            decisions[:, t] = out
        self.latency_out["scores"] = scores
        self.latency_out["decisions"] = decisions
        return {"fleet step, ewma_residual+k_sigma": times.finish()}

    def _matrix(self, ref: Path) -> np.ndarray:
        with open(ref / "matrix.csv", newline="") as handle:
            return np.array([[int(c) for c in row[1:]] for row in list(csv.reader(handle))[1:]])

    def checks(self, ref, ops) -> None:
        grid = self._grid(ref)
        scores = self.latency_out["scores"][0]
        cut = seeded_cut(self.seed, 5, 2, self.BINS)
        ops.check("prefix ewma_residual", lambda: prefix_check(self.DETECTOR, grid[0], scores, cut))
        matrix = self._matrix(ref)
        ops.check("population decisions", lambda: None if np.array_equal(
            matrix, self.latency_out["decisions"]) else "alert matrix differs from streamed decisions")
        intervals = [r for r in read_records(ref / "cohort") if r.get("record") == "interval"]
        ops.check("cohort intervals", lambda: None if intervals else "no rule intervals")
        for r in intervals:
            ops.check(f"cohort rule score at step {r['start']}",
                      lambda r=r: self._brute_rule_check(r, matrix[:, r["start"]]))

    def _brute_rule_check(self, record: dict, column: np.ndarray):
        """Recount the rule's f1 from raw rows, as gate C9 does."""
        matched = np.array([all(row[a] == v for a, v in record["terms"]) for row in self.attributes])
        tp = int(np.sum(matched & (column == 1)))
        fp = int(np.sum(matched & (column == 0)))
        fn = int(column.sum()) - tp
        brute = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
        if not math.isclose(record["score"], brute, rel_tol=1e-9):
            return f"report score {record['score']}, recounted {brute}"
        return None

    def quality(self, ref) -> dict:
        matrix = self._matrix(ref)
        warmup = make_detector(self.DETECTOR).warmup
        pred, lab = matrix[:, warmup:], self.labels[:, warmup:]
        tp = int(np.sum((pred == 1) & (lab == 1)))
        fp = int(np.sum((pred == 1) & (lab == 0)))
        fn = int(np.sum((pred == 0) & (lab == 1)))
        peaks = next(r for r in read_records(ref / "period") if r.get("method") == "peaks")
        planted = sorted([list(term) for term in self.PLANTED])
        hits = 0
        for r in read_records(ref / "cohort"):
            if r.get("record") == "interval" and sorted(r["terms"]) == planted:
                lo = max(r["start"], self.burst_start)
                hi = min(r["end"], self.burst_start + self.BURST)
                hits += max(0, hi - lo)
        return {
            "f1": 2 * tp / (2 * tp + fp + fn) if tp else 0.0,
            "regret": float(fp + fn),
            "period_acc": peaks["accuracy"],
            "rule_hit": hits / self.BURST,
        }

    def per_layer(self, tracer, job_summary) -> dict:
        config = PeriodicGeneratorConfig(seed=self.seed)
        for i in range(self.DRAWS):
            with tracer.span("datagen.generate_periodic"):
                drawn = generate_periodic(config, i)
            for method, fn in (("peaks", detect_period_peaks), ("acf", detect_period_acf),
                               ("fft", detect_period_fft)):
                with tracer.span(f"periodicity.{method}"):
                    fn(drawn.series)
        grid = self.latency_out["grid"]
        n = len(grid[0])
        with tracer.span("detectors.ewma_residual"):
            scores = run_streaming(self.DETECTOR, grid[0]).scores
        thresholder = Thresholder(self.spec)
        with tracer.span("thresholds.k_sigma"):
            for s in scores.tolist():
                thresholder.update(s)
        t = {**job_summary, **tracer.summary()}
        points = self.SERIES * n
        warmup = leading_nan(scores)
        out = {
            "datagen.generate_ms_per_series": t["datagen.generate_periodic"]["total_ns"] / self.DRAWS / 1e6,
            "detectors.ewma_residual.us_per_pt": t["detectors.ewma_residual"]["total_ns"] / n / 1e3,
            "thresholds.k_sigma.us_per_pt": t["thresholds.k_sigma"]["total_ns"] / n / 1e3,
            "evaluation.population_us_per_pt": t["evaluation.run_population"]["self_ns"] / points / 1e3,
            "resample.us_per_event": t["resample.resample"]["self_ns"] / t["resample.resample"]["n"] / 1e3,
            "detectors.points_scored": self.SERIES * (n - warmup),
            "detectors.warmup_points": self.SERIES * warmup,
            **ingest_and_write(job_summary),
        }
        for method in ("peaks", "acf", "fft"):
            out[f"periodicity.{method}_ms_per_series"] = t[f"periodicity.{method}"]["total_ns"] / self.DRAWS / 1e6
        timeline = t["cohort.mine_rules_over_time"]
        out["cohort.steps_mined"] = timeline["n"] / timeline["calls"]
        out["cohort.timeline_ms_per_step"] = timeline["self_ns"] / max(timeline["n"], 1) / 1e6
        return out


WORKLOADS = {w.name: w for w in (StreamDefault, WindowDetectors, HilFeedback, FleetCohort)}
