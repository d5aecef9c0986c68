import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tadkit.core import EventStream, SpecError
from tadkit.resample import ResampleSpec, resample, suggest_rate


def brute_resample(events: EventStream, spec: ResampleSpec):
    """Literal per-bin loop; the fixture against which resample() is judged."""
    ts = events.timestamps.tolist()
    vals = events.values.tolist()
    if not ts:
        return spec.bin_anchor, []
    first = math.floor((min(ts) - spec.bin_anchor) / spec.interval)
    last = math.floor((max(ts) - spec.bin_anchor) / spec.interval)
    out = []
    last_real = None
    carried = 0
    for b in range(first, last + 1):
        members = [v for t, v in zip(ts, vals)
                   if math.floor((t - spec.bin_anchor) / spec.interval) == b]
        if members:
            agg = {
                "mean": lambda m: sum(m) / len(m),
                "sum": sum,
                "count": len,
                "min": min,
                "max": max,
                "last": lambda m: m[-1],
            }[spec.aggregation](members)
            out.append(float(agg))
            last_real = float(agg)
            carried = 0
        elif spec.empty_bin_policy == "zero":
            out.append(0.0)
        elif spec.empty_bin_policy == "carry_forward" and last_real is not None and carried < spec.max_carry_bins:
            out.append(last_real)
            carried += 1
        else:
            out.append(float("nan"))
    start = spec.bin_anchor + first * spec.interval
    return start, out


HOUR = 3600
TEN_TEN = 10 * HOUR + 10 * 60
TEN_TWENTY = 10 * HOUR + 20 * 60


def _sales_events():
    return EventStream(np.array([TEN_TEN, TEN_TWENTY]), np.array([18.0, 19.0]))


def test_hourly_mean_is_exact():
    out = resample(_sales_events(), ResampleSpec(interval=HOUR, aggregation="mean"))
    assert out.start == 10 * HOUR
    assert out.interval == HOUR
    assert out.values.tolist() == [18.5]


def test_hourly_sum_is_exact():
    out = resample(_sales_events(), ResampleSpec(interval=HOUR, aggregation="sum"))
    assert out.values.tolist() == [37.0]


def test_count_and_last():
    events = EventStream(np.array([0, 10, 70]), np.array([5.0, -1.0, 2.0]))
    counted = resample(events, ResampleSpec(interval=60, aggregation="count"))
    assert counted.values.tolist() == [2.0, 1.0]
    last = resample(events, ResampleSpec(interval=60, aggregation="last"))
    assert last.values.tolist() == [-1.0, 2.0]


def test_empty_bins_become_missing_by_default():
    events = EventStream(np.array([0, 200]), np.array([1.0, 3.0]))
    out = resample(events, ResampleSpec(interval=60))
    assert len(out) == 4
    assert np.isnan(out.values[1]) and np.isnan(out.values[2])


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(interval=0), "interval"),
        (dict(interval=-60), "interval"),
        (dict(interval=60, aggregation="median"), "aggregation"),
        (dict(interval=60, empty_bin_policy="interpolate"), "policy"),
        (dict(interval=60, empty_bin_policy="carry_forward", max_carry_bins=-1), "max_carry_bins"),
    ],
)
def test_spec_refuses_bad_fields(kwargs, match):
    with pytest.raises(SpecError, match=match):
        ResampleSpec(**kwargs)


def test_zero_policy_only_for_additive_aggregations():
    with pytest.raises(SpecError):
        ResampleSpec(interval=60, aggregation="mean", empty_bin_policy="zero")
    events = EventStream(np.array([0, 200]), np.array([1.0, 3.0]))
    out = resample(
        events, ResampleSpec(interval=60, aggregation="sum", empty_bin_policy="zero")
    )
    assert out.values.tolist() == [1.0, 0.0, 0.0, 3.0]


def test_carry_forward_is_bounded():
    events = EventStream(np.array([0, 60 * 9]), np.array([5.0, 7.0]))
    out = resample(
        events,
        ResampleSpec(
            interval=60, empty_bin_policy="carry_forward", max_carry_bins=3
        ),
    )
    # bins 1-3 carry the 5.0; bins 4-8 exceed the bound and go missing
    assert out.values[:4].tolist() == [5.0, 5.0, 5.0, 5.0]
    assert np.isnan(out.values[4:9]).all()
    assert out.values[9] == 7.0


@pytest.mark.parametrize(
    "kwargs", [dict(interval=2**63), dict(interval=60, bin_anchor=-(2**63) - 1), dict(interval=60.0)]
)
def test_spec_grid_fields_are_int64_integers(kwargs):
    with pytest.raises(SpecError, match="int64"):
        ResampleSpec(**kwargs)


def test_event_offsets_from_the_anchor_stay_inside_int64():
    spec = ResampleSpec(interval=60, bin_anchor=-(2**63))
    with pytest.raises(SpecError, match="int64"):
        resample(EventStream(np.array([0, 60]), np.array([1.0, 2.0])), spec)
    edge = EventStream(np.array([-(2**63) + 1, -(2**63) + 61]), np.array([1.0, 2.0]))
    out = resample(edge, spec)
    assert out.start == -(2**63) and out.values.tolist() == [1.0, 2.0]


def test_empty_stream_resamples_to_empty_series():
    out = resample(EventStream(np.array([], int), np.array([])), ResampleSpec(interval=60))
    assert len(out) == 0


def test_bin_anchor_shifts_edges():
    events = EventStream(np.array([59, 60]), np.array([1.0, 2.0]))
    plain = resample(events, ResampleSpec(interval=60))
    assert plain.values.tolist() == [1.0, 2.0]
    shifted = resample(events, ResampleSpec(interval=60, bin_anchor=30))
    assert shifted.start == 30
    assert shifted.values.tolist() == [1.5]


event_streams = st.lists(
    st.tuples(st.integers(min_value=-500, max_value=500),
              st.floats(min_value=-100, max_value=100, allow_nan=False)),
    min_size=0, max_size=40,
).map(lambda pairs: sorted(pairs, key=lambda p: p[0])).map(
    lambda pairs: EventStream(np.array([t for t, _ in pairs], np.int64), np.array([v for _, v in pairs]))
)

specs = st.builds(
    ResampleSpec,
    interval=st.sampled_from([7, 60, 101]),
    aggregation=st.sampled_from(["mean", "sum", "count", "min", "max", "last"]),
    empty_bin_policy=st.just("missing"),
    bin_anchor=st.integers(min_value=-90, max_value=90),
)


@settings(max_examples=150, deadline=None)
@given(events=event_streams, spec=specs)
def test_matches_brute_force(events, spec):
    got = resample(events, spec)
    start, expected = brute_resample(events, spec)
    if expected:
        assert got.start == start
    assert np.array_equal(got.values, np.array(expected), equal_nan=True)


@settings(max_examples=60, deadline=None)
@given(events=event_streams, anchor=st.integers(min_value=-90, max_value=90),
       interval=st.sampled_from([7, 60]))
def test_carry_forward_matches_brute_force(events, anchor, interval):
    # 1,000 bins is longer than any gap the drawn streams can leave
    for max_carry_bins in (0, 1, 2, 3, 1000):
        spec = ResampleSpec(
            interval=interval, empty_bin_policy="carry_forward",
            max_carry_bins=max_carry_bins, bin_anchor=anchor,
        )
        got = resample(events, spec)
        _, expected = brute_resample(events, spec)
        assert np.array_equal(got.values, np.array(expected), equal_nan=True)


@settings(max_examples=60, deadline=None)
@given(events=event_streams)
def test_every_event_lands_in_exactly_one_bin(events):
    out = resample(events, ResampleSpec(interval=60, aggregation="count"))
    total = np.nansum(out.values) if len(out) else 0.0
    assert total == len(events)


def test_suggest_rate_picks_smallest_adequate():
    events = EventStream(np.arange(0, 600, 10), np.ones(60))
    # 10s bins hold exactly 1 event, 60s bins hold 6
    assert suggest_rate(events, [10, 60, 300], min_mean_count=4.0) == 60
    assert suggest_rate(events, [10, 60, 300], min_mean_count=1.0) == 10


def test_suggest_rate_falls_back_to_largest():
    events = EventStream(np.array([0, 1000]), np.array([1.0, 1.0]))
    assert suggest_rate(events, [10, 60], min_mean_count=50.0) == 60


def test_suggest_rate_validation():
    events = EventStream(np.array([0]), np.array([1.0]))
    with pytest.raises(SpecError):
        suggest_rate(events, [], 1.0)
    with pytest.raises(SpecError):
        suggest_rate(events, [60, 10], 1.0)
    with pytest.raises(SpecError):
        suggest_rate(EventStream(np.array([], int), np.array([])), [60], 1.0)
