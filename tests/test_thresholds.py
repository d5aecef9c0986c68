"""Thresholder strategies against brute-force reference computations."""

import math
import pickle
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tadkit.core import ProtocolError, ScoreSequence, SpecError
from tadkit.detectors import DetectorConfig, make_detector
from tadkit.thresholds import (
    KINDS,
    Thresholder,
    ThresholdSpec,
    apply_batch,
    oracle_fixed_threshold,
)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="nope"),
        dict(kind="fixed_value", value=float("inf")),
        dict(percentile=0.0),
        dict(percentile=1.0),
        dict(kind="k_sigma", k=0.0),
        dict(kind="feedback_adaptive", up=1.0),
        dict(kind="feedback_adaptive", down=0.0),
        dict(kind="feedback_adaptive", down=1.2),
        dict(kind="feedback_adaptive", value=0.0),
        dict(kind="feedback_adaptive", value=-0.5),
        dict(horizon=0),
        dict(reservoir_size=0),
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(SpecError):
        ThresholdSpec(**kwargs)


def test_fixed_value_is_a_plain_comparison():
    thr = Thresholder(ThresholdSpec(kind="fixed_value", value=2.0))
    scores = [1.0, 2.0, 2.0001, 5.0, -3.0]
    assert [thr.update(s) for s in scores] == [0, 0, 1, 1, 0]


def test_trailing_percentile_horizon_matches_quantile_of_window():
    rng = np.random.default_rng(11)
    scores = rng.exponential(1.0, size=300)
    spec = ThresholdSpec(kind="trailing_percentile", percentile=0.9, horizon=25)
    thr = Thresholder(spec)
    for t, s in enumerate(scores):
        window = scores[max(0, t - 25) : t]
        expected = np.inf if t == 0 else float(np.quantile(window, 0.9))
        assert thr.threshold == expected
        assert thr.update(s) == (1 if s > expected else 0)


def test_reservoir_is_exact_until_it_overflows():
    rng = np.random.default_rng(12)
    scores = rng.normal(size=500)  # well under the 4096 default
    thr = Thresholder(ThresholdSpec(kind="trailing_percentile", percentile=0.95))
    for t, s in enumerate(scores):
        expected = np.inf if t == 0 else float(np.quantile(scores[:t], 0.95))
        assert thr.threshold == expected
        thr.update(s)


def test_overflowing_reservoir_stays_inside_the_seen_range_and_is_seeded():
    rng = np.random.default_rng(13)
    scores = rng.uniform(10.0, 20.0, size=400)

    def run(seed):
        t = Thresholder(
            ThresholdSpec(
                kind="trailing_percentile", percentile=0.5, reservoir_size=32, seed=seed
            )
        )
        out = []
        for s in scores:
            out.append(t.update(s))
            assert 10.0 <= t.threshold <= 20.0
            assert set(t._reservoir) <= set(scores.tolist())
        return out

    assert run(7) == run(7)
    # a different sample of history is allowed to flip some decisions
    assert len(run(7)) == len(run(8))


def test_k_sigma_matches_mean_plus_k_population_std():
    rng = np.random.default_rng(14)
    scores = rng.normal(5.0, 2.0, size=200)
    spec = ThresholdSpec(kind="k_sigma", k=2.5)
    thr = Thresholder(spec)
    for t, s in enumerate(scores):
        before = thr.threshold
        if t < 2:
            assert before == np.inf
        else:
            prefix = scores[:t]
            assert before == pytest.approx(prefix.mean() + 2.5 * prefix.std(), abs=1e-10)
        assert thr.update(s) == (1 if s > before else 0)
    # huge early scores still pass while the estimate is undefined
    cold = Thresholder(spec)
    assert cold.update(1e9) == 0
    assert cold.update(1e9) == 0


def test_nan_does_not_advance_the_reservoir_rng():
    spec = ThresholdSpec(kind="trailing_percentile", percentile=0.5, reservoir_size=8, seed=3)
    rng = np.random.default_rng(15)
    scores = rng.normal(size=120)
    plain = Thresholder(spec)
    for s in scores:
        plain.update(s)
    holed = Thresholder(spec)
    for s in scores:
        holed.update(s)
        assert holed.update(float("nan")) == 0
    assert holed._reservoir == plain._reservoir
    assert holed.threshold == plain.threshold


class TestFeedbackProtocol:
    def _flagged(self):
        thr = Thresholder(ThresholdSpec(kind="feedback_adaptive", value=1.0))
        assert thr.update(2.0) == 1
        return thr

    def test_feedback_before_any_decision_is_rejected(self):
        thr = Thresholder(ThresholdSpec(kind="feedback_adaptive"))
        with pytest.raises(ProtocolError):
            thr.feedback(1)

    def test_feedback_on_an_unflagged_point_is_rejected(self):
        thr = Thresholder(ThresholdSpec(kind="feedback_adaptive", value=10.0))
        assert thr.update(1.0) == 0
        with pytest.raises(ProtocolError):
            thr.feedback(0)

    def test_feedback_cannot_be_given_twice_for_one_alert(self):
        thr = self._flagged()
        thr.feedback(1)
        with pytest.raises(ProtocolError):
            thr.feedback(1)

    def test_labels_outside_binary_are_rejected(self):
        thr = self._flagged()
        with pytest.raises(SpecError):
            thr.feedback(2)

    def test_false_positive_raises_and_true_positive_lowers(self):
        thr = Thresholder(ThresholdSpec(kind="feedback_adaptive", value=10.0))
        assert thr.update(20.0) == 1
        thr.feedback(0)
        assert thr.threshold == 10.0 * 1.1
        assert thr.update(20.0) == 1
        thr.feedback(1)
        assert thr.threshold == 10.0 * 1.1 * 0.98

    def test_other_kinds_accept_feedback_but_ignore_it(self):
        thr = Thresholder(ThresholdSpec(kind="fixed_value", value=1.0))
        assert thr.update(5.0) == 1
        before = thr.threshold
        thr.feedback(0)
        assert thr.threshold == before


def test_decision_uses_only_strictly_prior_scores():
    # horizon=1: step t is judged against the quantile of {score_{t-1}} alone
    thr = Thresholder(ThresholdSpec(kind="trailing_percentile", percentile=0.5, horizon=1))
    assert thr.update(100.0) == 0  # empty history -> +inf
    assert thr.update(100.5) == 1  # judged against 100.0, not itself
    assert thr.update(100.25) == 0  # judged against 100.5


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    kind=st.sampled_from(KINDS),
)
def test_apply_batch_matches_a_one_shot_fit(seed, kind):
    rng = np.random.default_rng(seed)
    arr = rng.exponential(1.0, size=60)
    arr[:5] = np.nan
    spec = ThresholdSpec(kind=kind, value=1.2, percentile=0.8, k=1.5)
    finite = arr[~np.isnan(arr)]
    if kind in ("fixed_value", "feedback_adaptive"):
        expected_thr = 1.2
    elif kind == "trailing_percentile":
        expected_thr = float(np.quantile(finite, 0.8))
    else:
        expected_thr = float(finite.mean() + 1.5 * finite.std())
    decisions = apply_batch(spec, arr)
    manual = np.where(np.nan_to_num(arr, nan=-np.inf) > expected_thr, 1, 0)
    assert np.array_equal(decisions, manual)
    assert decisions[:5].sum() == 0


def test_apply_batch_accepts_score_sequences():
    seq = ScoreSequence(np.array([np.nan, 0.5, 3.0]), warmup=1)
    out = apply_batch(ThresholdSpec(kind="fixed_value", value=1.0), seq)
    assert out.tolist() == [0, 0, 1]


@pytest.mark.parametrize("scores", [[], [np.nan], [np.nan, 5.0], [np.nan, np.nan, -3.0]])
def test_apply_batch_k_sigma_flags_nothing_below_two_finite_scores(scores):
    out = apply_batch(ThresholdSpec(kind="k_sigma", k=0.5), np.array(scores, dtype=float))
    assert out.dtype == np.int8 and out.tolist() == [0] * len(scores)


def brute_best_f1(scores, labels):
    """Try every achievable prediction set induced by a threshold."""
    finite = np.unique(scores[~np.isnan(scores)])
    candidates = list(finite) + [np.nextafter(finite.min(), -np.inf)] if finite.size else []
    best = 0.0 if labels.sum() else None
    for thr in candidates:
        pred = np.nan_to_num(scores, nan=-np.inf) > thr
        tp = int(np.sum(pred & (labels == 1)))
        fp = int(np.sum(pred & (labels == 0)))
        fn = int(labels.sum()) - tp
        if tp == fp == fn == 0:
            f1 = 1.0
        elif tp == 0:
            f1 = 0.0
        else:
            f1 = 2 * tp / (2 * tp + fp + fn)
        best = f1 if best is None else max(best, f1)
    return best


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_oracle_threshold_reaches_the_brute_force_optimum(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    scores = np.round(rng.normal(size=n), 1)  # force ties
    labels = (rng.random(n) < 0.3).astype(int)
    thr, f1 = oracle_fixed_threshold(scores, labels)
    assert f1 == pytest.approx(brute_best_f1(scores, labels))
    # the returned threshold actually achieves the returned f1
    pred = scores > thr
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    fn = int(labels.sum()) - tp
    achieved = 1.0 if tp == fp == fn == 0 else (0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn))
    assert achieved == pytest.approx(f1)


def test_oracle_threshold_edge_cases():
    assert oracle_fixed_threshold(np.array([np.nan, np.nan]), np.array([0, 1])) == (np.inf, 0.0)
    # no positives: flagging nothing is perfect
    thr, f1 = oracle_fixed_threshold(np.array([1.0, 2.0]), np.array([0, 0]))
    assert f1 == 1.0
    assert not np.any(np.array([1.0, 2.0]) > thr)
    # perfectly separable
    thr, f1 = oracle_fixed_threshold(np.array([0.1, 0.2, 5.0]), np.array([0, 0, 1]))
    assert f1 == 1.0
    assert (np.array([0.1, 0.2, 5.0]) > thr).tolist() == [False, False, True]


def test_oracle_threshold_separates_scores_whose_sum_overflows():
    scores = np.array([1e308, 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        thr, f1 = oracle_fixed_threshold(scores, np.array([0, 1]))
    assert f1 == 1.0
    assert np.isfinite(thr) and 1e308 < thr < 1.7e308


def oracle_fixed_threshold_scan(scores, labels):
    """The former candidate loop: recount every point at each candidate."""
    arr = np.asarray(scores, dtype=np.float64)
    lab = np.asarray(labels)
    finite = np.unique(arr[~np.isnan(arr)])
    if finite.size == 0:
        return np.inf, 0.0
    with np.errstate(over="ignore"):
        mids = (finite[:-1] + finite[1:]) / 2.0
    mids = np.where(np.isinf(mids), finite[:-1] / 2.0 + finite[1:] / 2.0, mids)
    candidates = np.concatenate([[np.nextafter(finite[0], -np.inf)], mids, [finite[-1]]])
    best_thr, best_f1 = np.inf, -1.0
    positives = int(lab.sum())
    for thr in candidates:
        pred = np.nan_to_num(arr, nan=-np.inf) > thr
        tp = int(np.sum(pred & (lab == 1)))
        fp = int(np.sum(pred & (lab == 0)))
        fn = positives - tp
        if tp == 0 and fp == 0 and fn == 0:
            f1 = 1.0
        elif tp == 0:
            f1 = 0.0
        else:
            f1 = 2.0 * tp / (2.0 * tp + fp + fn)
        if f1 > best_f1:
            best_thr, best_f1 = float(thr), f1
    return best_thr, best_f1


def _threshold_corpus():
    rng = np.random.default_rng(41)
    yield "ties", np.round(rng.normal(size=300), 1), (rng.random(300) < 0.2).astype(int)
    spiked = rng.normal(size=200)
    spiked[::7] = np.nan
    yield "nans", spiked, (rng.random(200) < 0.1).astype(int)
    yield "all_nan_but_one", np.array([np.nan, 2.0, np.nan]), np.array([1, 0, 1])
    yield "all_negative", rng.normal(size=150), np.zeros(150, dtype=int)
    yield "all_positive", np.round(rng.normal(size=150), 2), np.ones(150, dtype=int)
    yield "bool_labels", rng.exponential(size=100), rng.random(100) < 0.3
    yield "one_point", np.array([3.0]), np.array([1])
    yield "constant", np.full(50, 1.5), (np.arange(50) % 5 == 0).astype(int)
    yield "adjacent_floats", np.array([1.0, np.nextafter(1.0, 2.0), 1.0, 2.0]), np.array([0, 1, 1, 0])
    yield "infinities", np.array([-np.inf, 0.0, np.inf, np.nan, 1.0]), np.array([0, 1, 1, 0, 1])
    yield "huge", np.array([-1e308, 1e308, 1.7e308, 0.0]), np.array([0, 1, 1, 0])
    n = 100_000  # a few hundred distinct scores keep the scan oracle quick
    yield "1e5_points", np.round(rng.standard_t(3, size=n), 2), (rng.random(n) < 0.01).astype(int)


@pytest.mark.parametrize("name, scores, labels", list(_threshold_corpus()))
def test_oracle_threshold_equals_the_candidate_scan(name, scores, labels):
    with np.errstate(over="ignore", invalid="ignore"):
        expected = oracle_fixed_threshold_scan(scores, labels)
        got = oracle_fixed_threshold(scores, labels)
    assert [type(v) for v in got] == [type(v) for v in expected]
    assert np.array([got]).tobytes() == np.array([expected]).tobytes()


@pytest.mark.parametrize("q", [0.123, 0.5, 0.9, 0.999])
@pytest.mark.parametrize("horizon, reservoir_size", [(None, 4096), (None, 8), (1, 4096), (7, 4096), (40, 4096)])
def test_trailing_percentile_equals_quantile_of_its_pool_at_every_step(q, horizon, reservoir_size):
    rng = np.random.default_rng(16)
    spec = ThresholdSpec(
        kind="trailing_percentile", percentile=q, horizon=horizon,
        reservoir_size=reservoir_size, seed=5,
    )
    streams = [
        rng.normal(size=300),
        rng.integers(-3, 4, size=300).astype(float),  # heavy ties
        np.round(rng.exponential(1.0, size=300) * 1e6, -5),  # large, tied
    ]
    for scores in streams:
        thr = Thresholder(spec)
        for s in scores:
            pool = thr._window if horizon is not None else thr._reservoir
            expected = float(np.quantile(np.asarray(pool), q)) if len(pool) else np.inf
            assert thr.threshold == expected
            assert thr.update(s) == (1 if s > expected else 0)


SPIKES = (90, 150, 200)


def _restart_run(spec, values, cut=None, method="spectral_residual"):
    """A detector + thresholder, pickled and restored after ``cut`` points; each
    flagged point gets its label as feedback (1 on a planted spike)."""
    detector = make_detector(DetectorConfig(method=method, window=16))
    thresholder = Thresholder(spec)
    out = []
    for t, x in enumerate(values):
        if t == cut:
            detector, thresholder = pickle.loads(pickle.dumps((detector, thresholder)))
        threshold = thresholder.threshold
        decision = thresholder.update(detector.update(float(x)))
        if decision == 1:
            thresholder.feedback(1 if t in SPIKES else 0)
        out.append((threshold, decision))
    return out


@pytest.mark.parametrize(
    "method, spec",
    [
        ("spectral_residual", ThresholdSpec(kind="trailing_percentile", percentile=0.9, reservoir_size=32, seed=4)),
        ("spectral_residual", ThresholdSpec(kind="trailing_percentile", percentile=0.9, horizon=25)),
        ("spectral_residual", ThresholdSpec(kind="fixed_value", value=0.5)),
        ("spectral_residual", ThresholdSpec(kind="k_sigma", k=2.0)),
        ("spectral_residual", ThresholdSpec(kind="feedback_adaptive", value=0.5)),
        ("ewma_residual", ThresholdSpec(kind="trailing_percentile", percentile=0.9, reservoir_size=32, seed=4)),
        ("ewma_residual", ThresholdSpec(kind="trailing_percentile", percentile=0.9, horizon=25)),
        ("ewma_residual", ThresholdSpec(kind="fixed_value", value=2.0)),
        ("ewma_residual", ThresholdSpec(kind="k_sigma", k=2.0)),
        ("ewma_residual", ThresholdSpec(kind="feedback_adaptive", value=2.0)),
    ],
    ids=["reservoir", "horizon", "fixed_value", "k_sigma", "feedback_adaptive",
         "ewma-reservoir", "ewma-horizon", "ewma-fixed_value", "ewma-k_sigma", "ewma-feedback_adaptive"],
)
def test_a_pickled_detector_and_thresholder_continue_bit_for_bit(method, spec):
    rng = np.random.default_rng(17)
    values = np.sin(np.arange(240) / 5.0) + 0.2 * rng.standard_normal(240)
    values[list(SPIKES)] += 4.0
    whole = _restart_run(spec, values, method=method)
    assert 0 < sum(d for _, d in whole) < len(whole) / 4
    for cut in (30, 120, 239):
        resumed = _restart_run(spec, values, cut, method)
        assert [struct.pack("<d", thr) for thr, _ in resumed] == [
            struct.pack("<d", thr) for thr, _ in whole
        ]
        assert [d for _, d in resumed] == [d for _, d in whole]


@pytest.mark.parametrize("kind", KINDS)
def test_each_kind_decides_against_the_threshold_read_just_before(kind):
    rng = np.random.default_rng(18)
    scores = rng.exponential(1.0, size=400)
    scores[::7] = np.nan
    for spec in (ThresholdSpec(kind=kind, value=2.0, reservoir_size=16, seed=3),
                 ThresholdSpec(kind=kind, value=2.0, horizon=20)):
        thr = Thresholder(spec)
        flagged = 0
        for t, s in enumerate(scores.tolist()):
            before, state = thr.threshold, pickle.dumps(thr)
            decision = thr.update(s)
            if np.isnan(s):
                assert decision == 0
                assert struct.pack("<d", thr.threshold) == struct.pack("<d", before)
                assert pickle.dumps(thr) == state
            else:
                assert decision == int(s > before)
            if decision == 1:
                flagged += 1
                thr.feedback(t % 2)
        assert flagged > 0


@pytest.mark.parametrize(
    "spec",
    [
        ThresholdSpec(kind="fixed_value", value=2.0),
        ThresholdSpec(kind="feedback_adaptive", value=2.0),
        ThresholdSpec(kind="k_sigma", k=3.0),
        ThresholdSpec(kind="trailing_percentile", percentile=0.9, reservoir_size=16, seed=3),
        ThresholdSpec(kind="trailing_percentile", percentile=0.9, horizon=20),
    ],
    ids=["fixed_value", "feedback_adaptive", "k_sigma", "trailing_percentile_reservoir",
         "trailing_percentile_horizon"],
)
def test_a_score_at_the_threshold_decides_against_the_threshold_read_just_before(spec):
    # drawn scores seldom land between two nearby thresholds; these sit on each one
    drawn = np.random.default_rng(26).exponential(1.0, size=400).tolist()
    thr, placed = Thresholder(spec), 0
    for t, base in enumerate(drawn):
        before = thr.threshold
        if math.isfinite(before):
            score = (math.nextafter(before, math.inf), before, math.nextafter(before, -math.inf))[placed % 3]
            placed += 1
        else:
            score = base
        decision = thr.update(score)
        assert decision == int(score > before), (t, score, before)
        if decision == 1:
            thr.feedback(t % 2)
    assert placed > 300
