"""Cost accounting, event delays, and the censored feedback loop."""

import numpy as np
import pytest

from tadkit.core import (
    AlignmentError,
    InputError,
    LabelSequence,
    PopulationDataset,
    ProtocolError,
    SpecError,
    TimeSeries,
)
from tadkit.detectors import DetectorConfig, make_detector, run_streaming
from tadkit.evaluation import (
    AlwaysFlagPolicy,
    DetectorThresholdPolicy,
    EvalReport,
    FeedbackLog,
    LossSpec,
    NeverFlagPolicy,
    detection_delay,
    evaluate_batch,
    evaluate_streaming,
    run_hil,
    run_population,
    score_and_decide,
)
from tadkit.thresholds import KINDS, Thresholder, ThresholdSpec


def _series(values):
    return TimeSeries(0, 60, np.asarray(values, dtype=float))


def _spiky(n=160, seed=2, spikes=(40, 90, 140)):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 0.4, size=n)
    labels = np.zeros(n, dtype=np.int8)
    for s in spikes:
        values[s] += 8.0
        labels[s] = 1
    return _series(values), labels


class TestLossSpec:
    def test_zero_one_pins_both_costs(self):
        loss = LossSpec(kind="zero_one", fn_cost=9.0, fp_cost=3.0)
        assert loss.fn_cost == 1.0 and loss.fp_cost == 1.0

    def test_weighted_keeps_costs(self):
        loss = LossSpec(kind="weighted", fn_cost=5.0, fp_cost=0.5)
        assert loss.cost(label=1, decision=0) == 5.0
        assert loss.cost(label=0, decision=1) == 0.5
        assert loss.cost(label=1, decision=1) == 0.0
        assert loss.cost(label=0, decision=0) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [dict(kind="hinge"), dict(fn_cost=-1.0), dict(fp_cost=float("nan"))],
    )
    def test_validation(self, kwargs):
        with pytest.raises(SpecError):
            LossSpec(**kwargs)


class TestFeedbackLog:
    def test_appends_and_exposes_entries(self):
        log = FeedbackLog()
        log.record(3, 1)
        log.record(7, 0)
        assert log.entries == ((3, 1), (7, 0))
        assert log.indices() == (3, 7)
        assert len(log) == 2

    def test_since_is_the_tail_of_entries(self):
        log = FeedbackLog()
        for index, label in [(2, 0), (5, 1), (9, 1), (12, 0)]:
            log.record(index, label)
        for k in range(len(log) + 2):
            assert log.since(k) == log.entries[k:]

    def test_indices_must_strictly_increase(self):
        log = FeedbackLog()
        log.record(5, 1)
        with pytest.raises(ProtocolError):
            log.record(5, 0)
        with pytest.raises(ProtocolError):
            log.record(2, 0)

    def test_labels_are_binary(self):
        with pytest.raises(SpecError):
            FeedbackLog().record(0, 3)


class TestDetectionDelay:
    def test_alert_at_event_start_is_zero_delay(self):
        out = detection_delay(np.array([0, 1, 0, 0]), np.array([0, 1, 1, 0]))
        assert out.delays == (0,) and out.missed == 0

    def test_alert_inside_the_event_counts_its_offset(self):
        out = detection_delay(np.array([0, 0, 1, 0]), np.array([0, 1, 1, 0]))
        assert out.delays == (1,)

    def test_grace_window_extends_past_the_event_end(self):
        pred = np.array([0, 0, 0, 1, 0])
        lab = np.array([0, 1, 1, 0, 0])
        assert detection_delay(pred, lab, max_delay=0).missed == 1
        assert detection_delay(pred, lab, max_delay=1).delays == (2,)

    def test_window_is_clipped_at_the_end_of_the_series(self):
        out = detection_delay(np.array([0, 0, 0]), np.array([0, 1, 1]), max_delay=50)
        assert out.missed == 1

    def test_multiple_events_are_scored_independently(self):
        lab = np.array([1, 1, 0, 0, 1, 0, 1])
        pred = np.array([0, 1, 0, 0, 0, 0, 1])
        out = detection_delay(pred, lab, max_delay=0)
        assert out.delays == (1, 0) and out.missed == 1
        assert out.mean_delay == 0.5

    def test_no_events_means_no_delays(self):
        out = detection_delay(np.ones(4, dtype=int), np.zeros(4, dtype=int))
        assert out.delays == () and out.missed == 0 and out.mean_delay is None

    def test_validation(self):
        with pytest.raises(SpecError):
            detection_delay(np.zeros(3), np.zeros(3), max_delay=-1)
        with pytest.raises(AlignmentError):
            detection_delay(np.zeros(3), np.zeros(4))


def test_report_field_ranges_are_enforced():
    kwargs = dict(
        protocol="batch", regret=0.0, precision=0.5, recall=0.5, f1=0.5,
        alert_count=0, warmup_excluded=0, detection_delays=(), missed_events=0,
    )
    EvalReport(**kwargs)
    with pytest.raises(SpecError):
        EvalReport(**{**kwargs, "regret": -1.0})
    with pytest.raises(SpecError):
        EvalReport(**{**kwargs, "precision": 1.5})


class TestRunHil:
    def test_always_flag_pays_for_every_normal_point(self):
        series, labels = _spiky()
        loss = LossSpec(kind="weighted", fn_cost=4.0, fp_cost=0.25)
        report, log = run_hil(AlwaysFlagPolicy(), series, labels, loss=loss)
        assert report.protocol == "hil"
        assert report.alert_count == len(series.values)
        assert report.regret == 0.25 * int((labels == 0).sum())
        assert report.recall == 1.0
        # the log holds the true label of every (flagged) point, in order
        assert log.indices() == tuple(range(len(series.values)))
        assert [l for _, l in log.entries] == labels.tolist()

    def test_never_flag_pays_for_every_event_point(self):
        series, labels = _spiky()
        loss = LossSpec(kind="weighted", fn_cost=4.0, fp_cost=0.25)
        report, log = run_hil(NeverFlagPolicy(), series, labels, loss=loss)
        assert report.alert_count == 0
        assert report.regret == 4.0 * int(labels.sum())
        assert report.missed_events == int(labels.sum())
        assert len(log) == 0

    def test_vacuous_perfection_when_nothing_happens_and_nothing_is_flagged(self):
        series = _series(np.zeros(10))
        report, _ = run_hil(NeverFlagPolicy(), series, np.zeros(10, dtype=int))
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
        assert report.regret == 0.0

    def test_policy_only_ever_sees_labels_of_flagged_points(self):
        observed = []

        class EveryThirdPolicy:
            warmup = 0

            def decide(self, prefix, log):
                t = len(prefix) - 1
                observed.append(log.entries)
                # everything visible so far was flagged strictly earlier
                assert all(i < t for i, _ in log.entries)
                return 1 if t % 3 == 0 else 0

        series, labels = _spiky(n=30, spikes=(7, 20))
        _, log = run_hil(EveryThirdPolicy(), series, labels)
        flagged = tuple(range(0, 30, 3))
        assert log.indices() == flagged
        # the final view the policy got contains only flagged indices
        assert set(i for i, _ in observed[-1]) <= set(flagged)

    def test_non_binary_policy_output_is_rejected(self):
        class Broken:
            warmup = 0

            def decide(self, prefix, log):
                return 2

        with pytest.raises(ProtocolError):
            run_hil(Broken(), _series(np.zeros(3)), np.zeros(3, dtype=int))

    def test_detector_policy_matches_streaming_when_feedback_is_ignored(self):
        series, labels = _spiky()
        config = DetectorConfig(method="ewma_residual", window=16)
        spec = ThresholdSpec(kind="trailing_percentile", percentile=0.95, horizon=64)
        report, _ = run_hil(DetectorThresholdPolicy(config, spec), series, labels)
        streaming = evaluate_streaming(config, spec, series, labels)
        assert report.regret == streaming.regret
        assert report.alert_count == streaming.alert_count
        assert report.detection_delays == streaming.detection_delays

    def test_adaptive_threshold_rises_once_per_false_alarm(self):
        series, _ = _spiky(n=200, spikes=(50, 80, 110, 140, 170))
        labels = np.zeros(200, dtype=np.int8)  # every alert is a false alarm
        config = DetectorConfig(method="ewma_residual", window=16)
        spec = ThresholdSpec(kind="feedback_adaptive", value=3.0)
        policy = DetectorThresholdPolicy(config, spec)
        report, log = run_hil(policy, series, labels, loss=LossSpec())
        assert len(log) == report.alert_count > 0
        assert all(label == 0 for _, label in log.entries)
        assert policy._thresholder.threshold == pytest.approx(3.0 * 1.1 ** len(log))

    def test_log_and_alerts_always_agree(self):
        series, labels = _spiky()
        config = DetectorConfig(method="spectral_residual", window=24)
        spec = ThresholdSpec(kind="k_sigma", k=3.0)
        report, log = run_hil(DetectorThresholdPolicy(config, spec), series, labels)
        assert len(log) == report.alert_count

    @pytest.mark.parametrize("kind", KINDS)
    def test_detector_policy_decides_as_a_direct_update_and_feedback_loop(self, kind):
        # spikes every 9 points, half of them labelled, so feedback carries both labels
        series, labels = _spiky(n=400, seed=5, spikes=range(20, 400, 9))
        labels[20::18] = 0
        config = DetectorConfig(method="ewma_residual")
        spec = ThresholdSpec(kind=kind, value=2.0, percentile=0.9, k=2.0, up=1.05, down=0.9, horizon=50)
        seen = []

        class Recorded(DetectorThresholdPolicy):
            def decide(self, prefix, log):
                seen.append(super().decide(prefix, log))
                return seen[-1]

        report, log = run_hil(Recorded(config, spec), series, labels)
        detector, thresholder = make_detector(config), Thresholder(spec)
        direct = []
        for t, x in enumerate(series.values.tolist()):
            direct.append(thresholder.update(detector.update(x)))
            if direct[-1] == 1:
                thresholder.feedback(int(labels[t]))
        assert seen == direct
        assert log.indices() == tuple(t for t, d in enumerate(direct) if d == 1)
        assert {label for _, label in log.entries} == {0, 1}
        assert report.alert_count == sum(direct) > 10

    def test_a_non_finite_value_reaches_the_detector_as_a_python_float(self):
        values = np.zeros(20)
        values[7] = np.nan
        policy = DetectorThresholdPolicy(DetectorConfig(method="ewma_residual"), ThresholdSpec())
        with pytest.raises(InputError, match=r"must be finite, got nan$"):
            run_hil(policy, _series(values), np.zeros(20, dtype=int))

    @pytest.mark.parametrize("answer", [0, 1], ids=["unflagged", "flagged"])
    def test_a_policy_that_writes_the_log_itself_is_refused(self, answer):
        class Forger:
            warmup = 0

            def decide(self, prefix, log):
                t = len(prefix) - 1
                if t == 4:
                    log.record(t, 0)  # the harness alone reveals labels
                return answer if t == 4 else 0

        with pytest.raises(ProtocolError):
            run_hil(Forger(), _series(np.zeros(10)), np.zeros(10, dtype=int))

    @pytest.mark.parametrize(
        "yes, no", [(True, False), (np.int8(1), np.int8(0)), (np.bool_(True), np.bool_(False))],
        ids=["bool", "int8", "numpy_bool"],
    )
    def test_any_integral_zero_or_one_answer_gives_the_same_report(self, yes, no):
        class EveryFifth:
            warmup = 2

            def __init__(self, one, zero):
                self.one, self.zero = one, zero

            def decide(self, prefix, log):
                return self.one if len(prefix) % 5 == 0 else self.zero

        series, labels = _spiky(n=60, spikes=(9, 10, 30))
        report, log = run_hil(EveryFifth(yes, no), series, labels, max_delay=3)
        want_report, want_log = run_hil(EveryFifth(1, 0), series, labels, max_delay=3)
        assert report == want_report and report.alert_count == 12
        assert log.entries == want_log.entries


def _manual_report_fields(pred, labels, warmup, fn_cost, fp_cost):
    p, l = pred[warmup:], labels[warmup:]
    tp = int(np.sum((p == 1) & (l == 1)))
    fp = int(np.sum((p == 1) & (l == 0)))
    fn = int(np.sum((p == 0) & (l == 1)))
    regret = fn_cost * fn + fp_cost * fp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return regret, precision, recall


def test_streaming_report_is_recomputable_by_hand():
    series, labels = _spiky(seed=9)
    config = DetectorConfig(method="ewma_residual", window=16)
    spec = ThresholdSpec(kind="k_sigma", k=4.0)
    report = evaluate_streaming(
        config, spec, series, labels,
        loss=LossSpec(kind="weighted", fn_cost=2.0, fp_cost=0.5),
    )
    scores = run_streaming(config, series)
    thr = Thresholder(spec)
    pred = np.array([thr.update(float(s)) for s in scores.scores])
    regret, precision, recall = _manual_report_fields(
        pred, labels, scores.warmup, 2.0, 0.5
    )
    assert report.regret == regret
    assert report.precision == precision
    assert report.recall == recall
    assert report.warmup_excluded == scores.warmup
    assert report.alert_count == int(pred.sum())


@pytest.mark.parametrize("protocol", ["streaming", "hil"])
def test_a_warmup_covering_the_whole_series_reports_no_missed_event(protocol):
    # delays and missed events count the scored points only, as precision and recall do
    series, labels = _spiky()
    config = DetectorConfig(method="spectral_residual", window=400)
    spec = ThresholdSpec(kind="k_sigma", k=3.0)
    if protocol == "streaming":
        report = evaluate_streaming(config, spec, series, labels)
    else:
        report, _ = run_hil(DetectorThresholdPolicy(config, spec), series, labels)
    assert labels.sum() == 3
    assert report.warmup_excluded == len(series.values)
    assert report.missed_events == 0
    assert report.detection_delays == ()


def test_batch_report_uses_the_batch_protocol_label():
    series, labels = _spiky(seed=4)
    report = evaluate_batch(
        DetectorConfig(method="spectral_residual", window=32),
        ThresholdSpec(kind="trailing_percentile", percentile=0.98),
        series,
        labels,
    )
    assert report.protocol == "batch"
    assert report.recall > 0.0


def test_score_and_decide_refuses_an_unknown_protocol():
    series, _ = _spiky()
    with pytest.raises(SpecError, match="protocol"):
        score_and_decide("hil", DetectorConfig(method="ewma_residual"), ThresholdSpec(), series)


def test_label_alignment_is_checked():
    series, _ = _spiky()
    with pytest.raises(AlignmentError):
        evaluate_streaming(
            DetectorConfig(method="ewma_residual"),
            ThresholdSpec(kind="fixed_value", value=1.0),
            series,
            np.zeros(3, dtype=int),
        )


def test_label_sequences_are_accepted():
    series, labels = _spiky()
    report = evaluate_streaming(
        DetectorConfig(method="ewma_residual", window=16),
        ThresholdSpec(kind="k_sigma", k=4.0),
        series,
        LabelSequence(labels),
    )
    assert isinstance(report, EvalReport)


def test_population_recall_on_planted_spikes():
    from tadkit.datagen import PeriodicGeneratorConfig, generate_periodic

    members, spots = [], []
    for i in range(50):
        drawn = generate_periodic(
            PeriodicGeneratorConfig(seed=7, fixed_length=600), i
        )
        values = drawn.series.values.copy()
        spot = 150 + int(np.random.default_rng(i).integers(0, 400))
        values[spot] += 5.0 * values.std()
        members.append(TimeSeries(drawn.series.start, drawn.series.interval, values))
        spots.append(spot)
    population = PopulationDataset(
        series=tuple(members),
        attributes=tuple({"src": "synth"} for _ in members),
    )
    matrix = run_population(
        DetectorConfig(method="ewma_residual"),
        ThresholdSpec(kind="k_sigma", k=3.0),
        population,
    )
    assert matrix.shape == (50, 600)
    hit = 0
    for row, spot in zip(matrix, spots):
        labels = np.zeros(600, dtype=int)
        labels[spot] = 1
        hit += detection_delay(row, labels, max_delay=5).missed == 0
    assert hit >= 45


def test_population_rows_match_independent_runs():
    rng = np.random.default_rng(6)
    members = [_series(rng.normal(size=80)) for _ in range(3)]
    population = PopulationDataset(
        series=tuple(members),
        attributes=({"region": "a"}, {"region": "b"}, {"region": "a"}),
    )
    config = DetectorConfig(method="ewma_residual", window=8)
    spec = ThresholdSpec(kind="k_sigma", k=2.0)
    matrix = run_population(config, spec, population)
    assert matrix.shape == (3, 80)
    for row, member in zip(matrix, members):
        scores = run_streaming(config, member)
        thr = Thresholder(spec)
        expected = [thr.update(float(s)) for s in scores.scores]
        assert row.tolist() == expected


def population_oracle(config, spec, population):
    """One series at a time: a streaming run, then one ``Thresholder.update`` per score."""
    rows = []
    for member in population.series:
        thresholder = Thresholder(spec)
        rows.append([thresholder.update(float(s)) for s in run_streaming(config, member).scores])
    return np.array(rows, dtype=np.int8).reshape(population.n_series, population.n_points)


def _population(rows):
    return PopulationDataset(
        series=tuple(_series(r) for r in rows), attributes=tuple({"g": "x"} for _ in rows)
    )


_LANE_SPECS = [
    ThresholdSpec(kind="k_sigma", k=2.0),
    ThresholdSpec(kind="fixed_value", value=1.5),
    ThresholdSpec(kind="feedback_adaptive", value=2.5),
    ThresholdSpec(kind="trailing_percentile", reservoir_size=8),  # the reservoir evicts
    ThresholdSpec(kind="trailing_percentile", horizon=5),
]


@pytest.mark.parametrize("spec", _LANE_SPECS, ids=lambda s: s.kind)
@pytest.mark.parametrize(
    "config",
    [
        DetectorConfig(method="ewma_residual"),
        DetectorConfig(method="ewma_residual", alpha=1.0),
        DetectorConfig(method="ewma_residual", alpha=0.005),  # calibration outlasts the series
        DetectorConfig(method="ewma_residual", alpha=0.3, scale_floor=0.8),  # the floor binds
    ],
    ids=["default", "alpha_one", "long_calibration", "scale_floor"],
)
@pytest.mark.parametrize("shape", [(5, 120), (1, 60), (4, 2), (3, 1), (2, 0)])
def test_population_lanes_equal_one_series_at_a_time(config, spec, shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    rows = rng.normal(size=shape).cumsum(axis=1)
    rows[rows.shape[0] // 2 :, : shape[1] // 2] = 3.0  # constant stretches
    if shape[0] > 1:
        rows[0] = -1.25  # a constant member
    population = _population(rows)
    got = run_population(config, spec, population)
    assert got.dtype == np.int8 and got.flags.c_contiguous
    assert got.tobytes() == population_oracle(config, spec, population).tobytes()


def test_population_lanes_leave_overflowing_scores_to_the_per_series_path():
    config, spec = DetectorConfig(method="ewma_residual"), ThresholdSpec(kind="k_sigma")
    # every score of the first member past its warmup overflows to NaN
    population = _population([[1e308, -1e308] * 20, np.linspace(0.0, 4.0, 40) ** 2])
    with pytest.raises(InputError, match="finite"):
        population_oracle(config, spec, population)
    with pytest.raises(InputError, match="finite"):
        run_population(config, spec, population)
    # a jump off a flat stretch scores past the float range after the warmup
    jump = _population([np.zeros(40), np.r_[np.zeros(30), np.full(10, 1e300)]])
    with pytest.raises(InputError, match="finite"):
        population_oracle(config, spec, jump)
    with pytest.raises(InputError, match="finite"):
        run_population(config, spec, jump)


def test_population_lanes_refuse_gaps_as_one_series_does():
    gappy = _population([np.arange(6.0), [0.0, 1.0, np.nan, 3.0, 4.0, 5.0]])
    for spec in (ThresholdSpec(kind="k_sigma"), ThresholdSpec()):  # lanes, then per series
        with pytest.raises(InputError, match="gap-free"):
            run_population(DetectorConfig(method="ewma_residual"), spec, gappy)


@pytest.mark.parametrize(
    "values",
    [np.r_[np.zeros(60), 1e308, -1e308, np.zeros(58)], np.array([1e308, -1e308] * 60)],
    ids=["adjacent_pair", "alternation"],
)
@pytest.mark.parametrize(
    "spec", [ThresholdSpec(kind="k_sigma"), ThresholdSpec()], ids=["lanes", "per_series"]
)
def test_hil_and_population_raise_on_a_non_finite_score_past_the_warmup(values, spec):
    # finite input whose EWMA residual overflows must not pass for no alert and F1 1.0
    config = DetectorConfig(method="ewma_residual")
    with np.errstate(all="ignore"):
        with pytest.raises(InputError, match="past the warmup"):
            run_hil(DetectorThresholdPolicy(config, spec), _series(values), np.zeros(len(values)))
        with pytest.raises(InputError, match="past the warmup"):
            run_population(config, spec, _population([values, np.zeros(len(values))]))
