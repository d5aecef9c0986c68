"""Conjunctive rule mining over fleet attributes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tadkit.core import INT64_MAX, SchemaError, SpecError
from tadkit.cohort import (
    CohortMinerConfig,
    Rule,
    RuleInterval,
    mine_rules,
    mine_rules_over_time,
)


def _fleet(rng, n, attrs):
    """Random attribute rows: attrs maps name -> tuple of possible values."""
    return [
        {a: str(rng.choice(values)) for a, values in attrs.items()} for _ in range(n)
    ]


def matches(rule, row):
    """Whether ``row`` holds every term of ``rule``."""
    return all(row.get(a) == v for a, v in rule.terms)


def brute_f1(rule, anomalous, attributes):
    matched = np.array([matches(rule, row) for row in attributes])
    anom = np.asarray(anomalous, dtype=bool)
    tp = int(np.sum(matched & anom))
    if tp == 0:
        return 0.0
    precision = tp / int(matched.sum())
    recall = tp / int(anom.sum())
    return 2 * precision * recall / (precision + recall)


class TestRule:
    def test_terms_are_sorted_and_stringified(self):
        rule = Rule(terms=(("region", "eu"), ("device", "a")), score=0.5, coverage=3)
        assert rule.terms == (("device", "a"), ("region", "eu"))
        assert str(rule) == "device=a AND region=eu"

    def test_validation(self):
        with pytest.raises(SpecError):
            Rule(terms=(), score=0.5, coverage=0)
        with pytest.raises(SpecError):
            Rule(terms=(("a", "1"), ("a", "2")), score=0.5, coverage=0)
        with pytest.raises(SpecError):
            Rule(terms=(("a", "1"),), score=1.5, coverage=0)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_depth=0),
            dict(min_score=0.0),
            dict(min_score=1.1),
            dict(quality="accuracy"),
            dict(min_recall=0.0),
            dict(max_candidates=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(SpecError):
            CohortMinerConfig(**kwargs)


def test_perfectly_aligned_rule_wins_with_f1_one():
    attributes = [
        {"device": "a", "region": "eu"},
        {"device": "a", "region": "us"},
        {"device": "b", "region": "eu"},
        {"device": "b", "region": "us"},
        {"device": "a", "region": "eu"},
    ]
    anomalous = [1, 1, 0, 0, 1]  # exactly the device=a rows
    ranked = mine_rules(anomalous, attributes)
    assert ranked[0].terms == (("device", "a"),)
    assert ranked[0].score == 1.0
    assert ranked[0].coverage == 3


def test_generality_breaks_score_ties():
    # (device=a AND color=red) ties device=a on f1; the shorter rule must win
    attributes = [
        {"device": "a", "color": "red"},
        {"device": "a", "color": "red"},
        {"device": "b", "color": "blue"},
        {"device": "b", "color": "red"},
    ]
    ranked = mine_rules([1, 1, 0, 0], attributes)
    perfect = [r for r in ranked if r.score == 1.0]
    assert [r.terms for r in perfect] == [
        (("device", "a"),),
        (("color", "red"), ("device", "a")),
    ]


def test_scores_match_a_brute_force_recount():
    rng = np.random.default_rng(31)
    attributes = _fleet(
        rng, 60, {"device": ("a", "b", "c"), "region": ("eu", "us"), "hw": ("1", "2")}
    )
    anomalous = (rng.random(60) < 0.3).astype(int)
    if anomalous.sum() == 0:
        anomalous[0] = 1
    ranked = mine_rules(anomalous, attributes)
    for rule in ranked[:50]:
        assert rule.score == pytest.approx(brute_f1(rule, anomalous, attributes))
        matched = sum(matches(rule, row) for row in attributes)
        assert rule.coverage == matched


def test_ranking_is_a_total_deterministic_order():
    rng = np.random.default_rng(32)
    attributes = _fleet(rng, 40, {"x": ("1", "2", "3"), "y": ("p", "q")})
    anomalous = (rng.random(40) < 0.4).astype(int)
    ranked = mine_rules(anomalous, attributes)
    keys = [(-r.score, len(r.terms), r.terms) for r in ranked]
    assert keys == sorted(keys)
    assert len(set(r.terms for r in ranked)) == len(ranked)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_row_order_does_not_change_the_result(seed):
    rng = np.random.default_rng(seed)
    attributes = _fleet(rng, 30, {"d": ("a", "b"), "r": ("x", "y", "z")})
    anomalous = (rng.random(30) < 0.35).astype(int)
    baseline = mine_rules(anomalous, attributes)
    perm = rng.permutation(30)
    shuffled = mine_rules(anomalous[perm], [attributes[i] for i in perm])
    assert [(r.terms, r.score, r.coverage) for r in baseline] == [
        (r.terms, r.score, r.coverage) for r in shuffled
    ]


def test_planted_depth_two_rule_survives_label_noise():
    rng = np.random.default_rng(33)
    attributes = _fleet(
        rng, 400, {"device": ("a", "b", "c"), "region": ("eu", "us"), "os": ("1", "2")}
    )
    truth = Rule(terms=(("device", "a"), ("region", "eu")), score=1.0, coverage=0)
    anomalous = np.array([matches(truth, row) for row in attributes], dtype=int)
    flips = rng.random(400) < 0.08
    anomalous[flips & (anomalous == 1)] = 0  # one-sided: some positives unseen
    ranked = mine_rules(anomalous, attributes)
    assert ranked[0].terms == truth.terms
    assert ranked[0].score > 0.85


def test_precision_at_min_recall_quality():
    attributes = [
        {"d": "a"}, {"d": "a"}, {"d": "a"}, {"d": "a"},
        {"d": "b"}, {"d": "b"},
    ]
    anomalous = [1, 1, 1, 0, 1, 0]
    config = CohortMinerConfig(quality="precision_at_min_recall", min_recall=0.5)
    ranked = mine_rules(anomalous, attributes, config)
    by_terms = {r.terms: r.score for r in ranked}
    # d=a: precision 3/4, recall 3/4 -> kept; d=b: recall 1/4 < 0.5 -> dropped
    assert by_terms[(("d", "a"),)] == pytest.approx(0.75)
    assert (("d", "b"),) not in by_terms


def test_no_anomalies_means_no_rules():
    assert mine_rules([0, 0], [{"d": "a"}, {"d": "b"}]) == []


def test_min_score_filters_weak_rules():
    attributes = [{"d": "a"}, {"d": "b"}]
    ranked = mine_rules([1, 0], attributes, CohortMinerConfig(min_score=0.9))
    assert [r.terms for r in ranked] == [(("d", "a"),)]


def test_schema_and_alignment_errors():
    with pytest.raises(SchemaError, match="series 1"):
        mine_rules([1, 0], [{"d": "a"}, {"x": "a"}])
    with pytest.raises(SchemaError):
        mine_rules([1, 0, 1], [{"d": "a"}, {"d": "b"}])
    with pytest.raises(SpecError):
        mine_rules([1], [])


def test_candidate_guardrail_refuses_explosions():
    rng = np.random.default_rng(34)
    # two attributes with ~200 distinct values each -> ~40k pair candidates
    attributes = [
        {"u": str(rng.integers(200)), "v": str(rng.integers(200))} for _ in range(300)
    ]
    with pytest.raises(SpecError, match="guardrail"):
        mine_rules(
            np.ones(300, dtype=int),
            attributes,
            CohortMinerConfig(max_candidates=10_000),
        )


class TestOverTime:
    attributes = [
        {"device": "a"}, {"device": "a"}, {"device": "b"}, {"device": "b"},
    ]

    def test_constant_top_rule_merges_into_one_interval(self):
        matrix = np.zeros((4, 20), dtype=int)
        matrix[0, 5:12] = 1
        matrix[1, 5:12] = 1
        intervals = mine_rules_over_time(matrix, self.attributes)
        assert len(intervals) == 1
        (iv,) = intervals
        assert (iv.start, iv.end) == (5, 12)
        assert iv.rule.terms == (("device", "a"),)

    def test_quiet_gaps_split_intervals(self):
        matrix = np.zeros((4, 10), dtype=int)
        matrix[0, 1:3] = 1
        matrix[0, 6:8] = 1
        intervals = mine_rules_over_time(matrix, self.attributes)
        assert [(iv.start, iv.end) for iv in intervals] == [(1, 3), (6, 8)]

    def test_topper_change_closes_the_interval(self):
        matrix = np.zeros((4, 6), dtype=int)
        matrix[0, 0:3] = 1  # device=a leads
        matrix[2, 3:6] = 1  # then device=b
        intervals = mine_rules_over_time(matrix, self.attributes)
        assert [iv.rule.terms for iv in intervals] == [
            (("device", "a"),),
            (("device", "b"),),
        ]
        assert [(iv.start, iv.end) for iv in intervals] == [(0, 3), (3, 6)]

    def test_min_support_suppresses_thin_timesteps(self):
        matrix = np.zeros((4, 5), dtype=int)
        matrix[0, 1] = 1  # a single anomalous series
        assert mine_rules_over_time(matrix, self.attributes, min_support=2) == ()
        assert len(mine_rules_over_time(matrix, self.attributes, min_support=1)) == 1

    def test_min_support_counts_anomalous_series_not_cell_values(self):
        attributes = [{"d": "a"}, {"d": "b"}]
        assert mine_rules_over_time([[2], [0]], attributes, min_support=2) == ()
        assert len(mine_rules_over_time([[2], [0]], attributes, min_support=1)) == 1

    def test_interval_runs_to_the_end_when_the_rule_holds(self):
        matrix = np.zeros((4, 4), dtype=int)
        matrix[2, 2:] = 1
        intervals = mine_rules_over_time(matrix, self.attributes)
        assert [(iv.start, iv.end) for iv in intervals] == [(2, 4)]

    def test_validation(self):
        with pytest.raises(SpecError):
            RuleInterval(3, 3, Rule(terms=(("d", "a"),), score=1.0, coverage=1))
        with pytest.raises(SpecError):
            mine_rules_over_time(np.zeros((2, 2)), self.attributes[:2], min_support=0)
        with pytest.raises(SpecError):
            mine_rules_over_time(np.zeros(3), self.attributes[:3])
        with pytest.raises(SchemaError):
            mine_rules_over_time(np.zeros((3, 4)), self.attributes)
        assert mine_rules_over_time(np.zeros((0, 0)), self.attributes) == ()


def timeline_oracle(matrix, attributes, config, min_support):
    """The former loop: ``mine_rules(...)[0]`` at every step with enough support."""
    intervals, open_rule, open_start = [], None, 0
    for t in range(matrix.shape[1]):
        column = matrix[:, t]
        top = None
        if int(column.sum()) >= min_support:
            ranked = mine_rules(column, attributes, config)
            top = ranked[0] if ranked else None
        if open_rule is not None and (top is None or top.terms != open_rule.terms):
            intervals.append(RuleInterval(open_start, t, open_rule))
            open_rule = None
        if top is not None and open_rule is None:
            open_rule, open_start = top, t
    if open_rule is not None:
        intervals.append(RuleInterval(open_start, matrix.shape[1], open_rule))
    return tuple(intervals)


@pytest.mark.parametrize("quality", ["f1", "precision_at_min_recall"])
@pytest.mark.parametrize("seed", range(6))
def test_timeline_equals_a_per_step_mine_rules_loop(quality, seed):
    rng = np.random.default_rng(seed)
    # few series and few values make score ties between rules common
    attributes = _fleet(rng, int(rng.integers(2, 25)),
                        {"d": ("a", "b", "c"), "r": ("eu", "us"), "o": ("1", "2", "3", "4")})
    matrix = (rng.random((len(attributes), 40)) < rng.uniform(0.05, 0.5)).astype(int)
    for min_support in (1, 2, 4):
        for max_depth, min_score in ((1, 1e-6), (2, 1e-6), (3, 0.4)):
            config = CohortMinerConfig(max_depth=max_depth, min_score=min_score,
                                       quality=quality, min_recall=0.4)
            got = mine_rules_over_time(matrix, attributes, config, min_support)
            expected = timeline_oracle(matrix, attributes, config, min_support)
            assert got == expected
            assert [iv.rule.score.hex() for iv in got] == [iv.rule.score.hex() for iv in expected]


def test_timeline_guardrail_fires_only_when_a_step_is_mined():
    rng = np.random.default_rng(35)
    attributes = [{"u": str(rng.integers(200)), "v": str(rng.integers(200))} for _ in range(300)]
    config = CohortMinerConfig(max_candidates=10_000)
    matrix = np.zeros((300, 5), dtype=int)
    matrix[:2, 3] = 1  # below min_support 3: nothing is mined, nothing is refused
    assert mine_rules_over_time(matrix, attributes, config, min_support=3) == ()
    matrix[:3, 4] = 1
    with pytest.raises(SpecError, match="guardrail"):
        mine_rules_over_time(matrix, attributes, config, min_support=3)


def test_depth_past_the_schema_mines_the_full_schema_depth():
    rng = np.random.default_rng(19)
    attributes = _fleet(rng, 12, {"d": ("a", "b"), "r": ("eu", "us", "ap")})
    matrix = (rng.random((12, 10)) < 0.4).astype(int)
    deep, full = CohortMinerConfig(max_depth=INT64_MAX), CohortMinerConfig(max_depth=2)
    # depths past the schema's length add no candidate, so the search stops there
    assert mine_rules(matrix[:, 0], attributes, deep) == mine_rules(matrix[:, 0], attributes, full)
    assert mine_rules_over_time(matrix, attributes, deep) == mine_rules_over_time(matrix, attributes, full)
