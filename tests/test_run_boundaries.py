"""Detection delays and cohort intervals, found from run boundaries, equal the
per-point loops they replaced.

Each oracle below is the former loop: it walks the points or the mined steps
one at a time and carries the open run with it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tadkit.cohort import CohortMinerConfig, Rule, RuleInterval, _candidates, _scores, mine_rules_over_time
from tadkit.evaluation import detection_delay


def delay_oracle(pred, lab, max_delay):
    """The former per-point loop: walk each run of 1-labels, then search its grace window."""
    n = len(lab)
    delays, missed, t = [], 0, 0
    while t < n:
        if lab[t] == 1:
            start = t
            while t + 1 < n and lab[t + 1] == 1:
                t += 1
            hits = np.nonzero(pred[start : min(t + max_delay, n - 1) + 1] == 1)[0]
            if hits.size:
                delays.append(int(hits[0]))
            else:
                missed += 1
        t += 1
    return tuple(delays), missed


@settings(max_examples=300, deadline=None)
@given(
    cells=st.lists(st.tuples(st.sampled_from([0, 0, 1, 1, 2]), st.sampled_from([0, 0, 0, 1, 2])), max_size=39),
    dtypes=st.tuples(*[st.sampled_from([np.int8, np.int64, np.float64])] * 2),
    grace=st.sampled_from(["0..5", "n", "n+1", 2**62, 2**63 - 1]),
    small=st.integers(0, 5),
)
def test_detection_delay_equals_the_per_point_loop(cells, dtypes, grace, small):
    lab, pred = (np.array([c[i] for c in cells], dtype=d) for i, d in zip((0, 1), dtypes))
    n = len(lab)
    # the stray 2s are neither events nor alerts; int64's maximum must not wrap
    max_delay = {"0..5": small, "n": n, "n+1": n + 1}.get(grace, grace)
    out = detection_delay(pred, lab, max_delay)
    assert (out.delays, out.missed) == delay_oracle(pred, lab, max_delay)
    assert all(type(d) is int for d in out.delays)


@pytest.mark.parametrize("max_delay", [0, 2, 2**63 - 1])
def test_events_at_the_first_and_the_last_index(max_delay):
    lab = np.array([1, 0, 0, 1, 1, 0, 0, 1])
    for pred in ([0, 0, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0, 0, 0]):
        out = detection_delay(np.array(pred), lab, max_delay)
        assert (out.delays, out.missed) == delay_oracle(np.array(pred), lab, max_delay)


def test_a_grace_of_int64s_maximum_does_not_wrap():
    # end + grace would wrap in int64 and read the caught event as missed
    assert detection_delay(np.array([0, 0, 0, 0, 1]), np.array([0, 1, 1, 0, 0]), 2**63 - 1).delays == (3,)


def interval_oracle(matrix, attributes, config, min_support):
    """The former interval loop over the candidate table: one open interval at a
    time, closed when the step index jumps or the top rule changes, then flushed."""
    anomalous = matrix.astype(bool)
    positives = anomalous.sum(axis=0)
    terms, masks, coverage = _candidates(attributes, tuple(sorted(attributes[0])), config)
    intervals, open_index, open_start, end = [], None, 0, 0
    for t in np.flatnonzero(positives >= min_support).tolist():
        scores = _scores(config, masks @ anomalous[:, t], coverage, int(positives[t]))
        best = int(np.argmax(scores))
        top = best if scores[best] >= config.min_score else None
        if open_index is not None and (t != end or top != open_index):
            intervals.append(RuleInterval(open_start, end, open_rule))
            open_index = None
        if top is not None and open_index is None:
            open_index, open_start = top, t
            open_rule = Rule(terms[top], float(scores[top]), int(coverage[top]))
        end = t + 1
    if open_index is not None:
        intervals.append(RuleInterval(open_start, end, open_rule))
    return tuple(intervals)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    series=st.integers(1, 12),
    steps=st.integers(1, 30),
    rate=st.sampled_from([0.05, 0.2, 0.5, 0.9]),
    min_support=st.integers(1, 4),
    quality=st.sampled_from(["f1", "precision_at_min_recall"]),
    min_score=st.sampled_from([1e-6, 0.4, 0.8]),
)
def test_timeline_equals_the_interval_loop(seed, series, steps, rate, min_support, quality, min_score):
    rng = np.random.default_rng(seed)
    attributes = [{"d": str(rng.choice(["a", "b"])), "r": str(rng.choice(["eu", "us", "ap"]))}
                  for _ in range(series)]
    matrix = (rng.random((series, steps)) < rate).astype(int)
    config = CohortMinerConfig(min_score=min_score, quality=quality, min_recall=0.4)
    got = mine_rules_over_time(matrix, attributes, config, min_support)
    expected = interval_oracle(matrix, attributes, config, min_support)
    assert got == expected
    assert [iv.rule.score.hex() for iv in got] == [iv.rule.score.hex() for iv in expected]
