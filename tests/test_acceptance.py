"""End-to-end gates for the whole toolkit, one test per criterion.

These are the headline guarantees: the period-detection table and its
method ranking, exact resampling arithmetic, bit-level prefix consistency
under every detector/threshold pairing, the interactive protocol's cost
identities and censorship rule, the value of feedback, the conditional vs.
joint split, injection calibration, and rule recovery under noise.  Each
test prints as one pass/fail line; most re-verify results against an
independent brute-force route before trusting them.
"""

import time

import numpy as np
import pytest
from scipy import stats

from tadkit.core import CovariateSet, EventStream, TimeSeries
from tadkit.cohort import CohortMinerConfig, Rule, mine_rules
from tadkit.conditional import ConditionalConfig, JointConfig, run_conditional, run_joint
from tadkit.datagen import (
    InjectionConfig,
    PeriodicGeneratorConfig,
    generate_periodic,
    inject_point_anomalies,
)
from tadkit.detectors import DetectorConfig, METHODS, make_detector, run_streaming
from tadkit.evaluation import (
    AlwaysFlagPolicy,
    DetectorThresholdPolicy,
    LossSpec,
    NeverFlagPolicy,
    run_hil,
)
from tadkit.periodicity import run_period_benchmark
from tadkit.resample import ResampleSpec, resample
from tadkit.thresholds import (
    KINDS,
    Thresholder,
    ThresholdSpec,
    oracle_fixed_threshold,
)


@pytest.fixture(scope="module")
def benchmark_1000():
    started = time.monotonic()
    result = run_period_benchmark(
        n_series=1000, config=PeriodicGeneratorConfig(seed=0), random_permutations=100
    )
    return result, time.monotonic() - started


def test_c1_period_detection_accuracy_table(benchmark_1000):
    result, elapsed = benchmark_1000
    expected = {
        "peaks": (0.754, 0.08),
        "acf": (0.687, 0.08),
        "autoperiod": (0.512, 0.08),
        "fft": (0.169, 0.08),
        "random": (0.007, 0.02),
    }
    for method, (target, tol) in expected.items():
        accuracy = {r.method: r for r in result.results}[method].accuracy
        assert abs(accuracy - target) <= tol, (
            f"{method}: accuracy {accuracy:.3f} outside {target}±{tol}"
        )
    assert elapsed < 300.0, f"benchmark took {elapsed:.1f}s"


def test_c2_method_ranking_and_runtime_ratio(benchmark_1000):
    result, _ = benchmark_1000
    acc = {r.method: r.accuracy for r in result.results}
    assert (
        acc["peaks"] >= acc["acf"] >= acc["autoperiod"] >= acc["fft"] >= acc["random"]
    ), acc
    runtime = {r.method: r.mean_runtime_s for r in result.results}
    assert runtime["autoperiod"] / runtime["acf"] >= 50.0
    assert runtime["autoperiod"] / runtime["peaks"] >= 50.0


def test_c3_resampling_arithmetic_is_exact():
    # two sales inside one hour bin: 18 at 10:10, 19 at 10:20
    ten_ten = 10 * 3600 + 600
    ten_twenty = 10 * 3600 + 1200
    events = EventStream(
        np.array([ten_ten, ten_twenty]), np.array([18.0, 19.0])
    )
    mean = resample(events, ResampleSpec(interval=3600, aggregation="mean"))
    total = resample(events, ResampleSpec(interval=3600, aggregation="sum"))
    assert mean.values.tolist() == [18.5]
    assert total.values.tolist() == [37.0]
    assert mean.start == 10 * 3600


def _pseudo_label(series_index: int, t: int) -> int:
    return (series_index * 7919 + t * 104729) % 2


def _decide_stream(spec, scores, series_index):
    """Thresholder decisions with deterministic index-keyed feedback."""
    thresholder = Thresholder(spec)
    out = []
    for t, s in enumerate(scores):
        decision = thresholder.update(float(s))
        out.append(decision)
        if decision == 1:
            thresholder.feedback(_pseudo_label(series_index, t))
    return out


def test_c4_streaming_equals_prefix_refit_for_every_pairing():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    configs = {
        method: DetectorConfig(method=method, window=8, n_clusters=2, refit_cadence=5)
        for method in METHODS
    }
    specs = {
        kind: ThresholdSpec(kind=kind, value=1.5, percentile=0.9, k=2.0, seed=11)
        for kind in KINDS
    }
    n_series = 200
    for i in range(n_series):
        n = int(rng.integers(20, 501))
        values = np.cumsum(rng.standard_normal(n)) * 0.5 + np.where(
            rng.random(n) < 0.03, 6.0, 0.0
        )
        series = TimeSeries(0, 60, values)
        exhaustive = n <= 90  # full quadratic oracle on the short ones
        cuts = (
            range(1, n + 1)
            if exhaustive
            else sorted(set(int(c) for c in rng.integers(1, n + 1, size=3)))
        )
        for method, config in configs.items():
            streamed = run_streaming(config, series).scores
            if exhaustive:
                refit = np.empty(n)
                for t in cuts:
                    fresh = make_detector(config)
                    for x in values[:t]:
                        last = fresh.update(float(x))
                    refit[t - 1] = last
                assert np.array_equal(streamed, refit, equal_nan=True), (i, method)
            else:
                for t in cuts:
                    cut_scores = run_streaming(config, TimeSeries(0, 60, values[:t])).scores
                    assert np.array_equal(streamed[:t], cut_scores, equal_nan=True), (
                        i,
                        method,
                        t,
                    )
            for kind, spec in specs.items():
                full_decisions = _decide_stream(spec, streamed, i)
                t = cuts[-1]
                assert (
                    _decide_stream(spec, streamed[:t], i) == full_decisions[:t]
                ), (i, method, kind)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"prefix-consistency sweep took {elapsed:.1f}s"


def test_c5_hil_cost_identities_and_censorship():
    loss = LossSpec(kind="weighted", fn_cost=3.0, fp_cost=0.5)
    rng = np.random.default_rng(77)
    for trial in range(20):
        n = int(rng.integers(50, 400))
        values = rng.normal(size=n)
        labels = (rng.random(n) < 0.1).astype(np.int8)
        m = int(labels.sum())
        series = TimeSeries(0, 60, values)

        always, always_log = run_hil(AlwaysFlagPolicy(), series, labels, loss)
        assert always.regret == (n - m) * 0.5
        assert always_log.indices() == tuple(range(n))

        never, never_log = run_hil(NeverFlagPolicy(), series, labels, loss)
        assert never.regret == m * 3.0
        assert len(never_log) == 0

        policy = DetectorThresholdPolicy(
            DetectorConfig(method="ewma_residual"),
            ThresholdSpec(kind="feedback_adaptive", value=2.0),
        )
        report, log = run_hil(policy, series, labels, loss)
        assert len(log) == report.alert_count  # censorship: log == flagged set
        assert all(labels[t] == lab for t, lab in log.entries)


def test_c6_feedback_lowers_regret_on_miscalibrated_thresholds():
    fixed_regrets, adaptive_regrets = [], []
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = 600
        values = rng.normal(0.0, 1.0, size=n)
        labels = np.zeros(n, dtype=np.int8)
        spots = rng.choice(np.arange(50, n), size=5, replace=False)
        values[spots] += 9.0
        labels[spots] = 1
        series = TimeSeries(0, 60, values)
        detector = DetectorConfig(method="ewma_residual", alpha=0.2)

        # the starting threshold is far too low: everything trips it
        for kind, bucket in (
            ("fixed_value", fixed_regrets),
            ("feedback_adaptive", adaptive_regrets),
        ):
            policy = DetectorThresholdPolicy(
                detector, ThresholdSpec(kind=kind, value=0.25)
            )
            report, _ = run_hil(policy, series, labels)
            bucket.append(report.regret)

    wins = sum(a < f for a, f in zip(adaptive_regrets, fixed_regrets))
    ties = sum(a == f for a, f in zip(adaptive_regrets, fixed_regrets))
    trials = 30 - ties
    assert np.mean(adaptive_regrets) < np.mean(fixed_regrets)
    p = stats.binomtest(wins, trials, 0.5, alternative="greater").pvalue
    assert p < 0.05, f"sign test p={p:.4g} ({wins}/{trials} wins)"


def brute_refit_residuals(target, covariate):
    """Residual of x_t against an ordinary least-squares fit on the prefix."""
    out = np.full(len(target), np.nan)
    for t in range(30, len(target)):
        design = np.column_stack(
            [np.ones(t), covariate[:t], np.arange(t, dtype=float)]
        )
        theta, *_ = np.linalg.lstsq(design, target[:t], rcond=None)
        out[t] = target[t] - (theta[0] + theta[1] * covariate[t] + theta[2] * t)
    return out


def test_c7_conditional_vs_joint_separation():
    rng = np.random.default_rng(404)
    n = 1200
    temp = (
        22.0
        + 6.0 * np.sin(2 * np.pi * np.arange(n) / 96.0)
        + 0.4 * rng.standard_normal(n)
    )
    heatwave = slice(900, 915)
    temp[heatwave] += 10.0
    sales = 40.0 + 3.5 * temp + 0.8 * rng.standard_normal(n)

    spots = np.array([150, 240, 333, 410, 500, 587, 660, 741, 820, 870])
    labels = np.zeros(n, dtype=np.int8)
    sales[spots] += 14.0  # excess sales the temperature cannot explain
    labels[spots] = 1

    data = CovariateSet(
        target=TimeSeries(0, 900, sales),
        covariates={"temp": TimeSeries(0, 900, temp)},
    )
    conditional = run_conditional(ConditionalConfig(forgetting=0.999), data)

    # the injected points really are residual anomalies by an independent
    # route: ordinary least squares refit on every prefix
    oracle = brute_refit_residuals(sales, temp)
    baseline = np.nanmedian(np.abs(oracle))
    assert all(abs(oracle[s]) > 5 * baseline for s in spots)

    # best fixed threshold in hindsight (diagnostic) reaches the gates
    threshold, _ = oracle_fixed_threshold(conditional.scores, labels)
    pred = np.nan_to_num(conditional.scores, nan=-np.inf) > threshold
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    fn = int(labels.sum()) - tp
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    assert precision >= 0.8, f"precision {precision:.3f}"
    assert recall >= 0.8, f"recall {recall:.3f}"

    # the heatwave tracks the relationship: conditionally unremarkable
    trailing = Thresholder(
        ThresholdSpec(kind="trailing_percentile", percentile=0.95, seed=5)
    )
    flagged_in_heatwave = False
    for t, score in enumerate(conditional.scores):
        decision = trailing.update(float(score))
        if heatwave.start <= t < heatwave.stop:
            assert score < trailing.threshold or np.isnan(score)
            flagged_in_heatwave |= decision == 1
    assert not flagged_in_heatwave

    # but the joint view sees the level shift
    joint = run_joint(JointConfig(forgetting=0.999), data)
    joint_thr = Thresholder(
        ThresholdSpec(kind="trailing_percentile", percentile=0.95, seed=5)
    )
    joint_flagged = False
    for t, score in enumerate(joint.scores):
        decision = joint_thr.update(float(score))
        if heatwave.start <= t < heatwave.stop:
            joint_flagged |= decision == 1
    assert joint_flagged


def test_c8_injection_rate_is_binomially_calibrated():
    n, rate = 100_000, 0.01
    lo = stats.binom.ppf(0.0005, n, rate)
    hi = stats.binom.ppf(0.9995, n, rate)
    base = TimeSeries(0, 60, np.zeros(n))
    inside = 0
    for seed in range(100):
        injected = inject_point_anomalies(
            base, InjectionConfig(rate=rate, kind="constant", constant=1.0, seed=seed)
        )
        inside += lo <= injected.labels.positive_count <= hi
    assert inside >= 99, f"only {inside}/100 seeds inside the 99.9% interval"


def test_c9_planted_rule_recovery_under_one_sided_noise():
    planted = (("device", "a"), ("region", "eu"))
    recovered = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        attributes = [
            {
                "device": str(rng.choice(("a", "b", "c"))),
                "region": str(rng.choice(("eu", "us"))),
                "os": str(rng.choice(("1", "2"))),
            }
            for _ in range(400)
        ]
        anomalous = np.array(
            [all(row[a] == v for a, v in planted) for row in attributes], dtype=int
        )
        anomalous[(rng.random(400) < 0.10) & (anomalous == 1)] = 0
        top = mine_rules(anomalous, attributes, CohortMinerConfig(max_depth=2))[0]

        # trust nothing: recount the top rule's f1 from raw rows
        matched = np.array([all(row[a] == v for a, v in top.terms) for row in attributes])
        tp = int(np.sum(matched & (anomalous == 1)))
        brute = (
            0.0
            if tp == 0
            else 2 * tp / (2 * tp + int(np.sum(matched & (anomalous == 0))) + int(anomalous.sum()) - tp)
        )
        assert top.score == pytest.approx(brute)
        if top.terms == planted and top.score >= 0.85:
            recovered += 1
    assert recovered >= 45, f"planted rule recovered on {recovered}/50 seeds"
