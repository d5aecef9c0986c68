from typing import get_args

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tadkit.cli import _BINDINGS, write_series_csv
from tadkit.core import (
    MISSING,
    AlignmentError,
    CovariateSet,
    EventStream,
    InputError,
    LabelSequence,
    OrderingError,
    PopulationDataset,
    SchemaError,
    ScoreSequence,
    SpecError,
    TimeSeries,
    align,
    as_label_array,
    check_schema,
    field_specs,
    slice_prefix,
)
from tadkit.detectors import DetectorConfig
from tadkit.evaluation import AlwaysFlagPolicy, evaluate_batch, evaluate_streaming, run_hil
from tadkit.periodicity import AcfProfile
from tadkit.resample import ResampleSpec
from tadkit.thresholds import ThresholdSpec


def test_time_series_basics():
    ts = TimeSeries(100, 60, np.array([1.0, 2.0, 3.0]))
    assert len(ts) == 3
    assert ts.end == 100 + 3 * 60
    assert ts.timestamps().tolist() == [100, 160, 220]
    assert ts.timestamps()[0] == 100
    assert ts.timestamps()[-1] == 220
    with pytest.raises(IndexError):
        ts.timestamps()[3]


def test_time_series_rejects_bad_interval():
    with pytest.raises(SpecError):
        TimeSeries(0, 0, np.array([1.0]))
    with pytest.raises(SpecError):
        TimeSeries(0, -60, np.array([1.0]))


@pytest.mark.parametrize(
    "start, interval, n",
    [(-(2**63) - 1, 60, 1), (2**63, 60, 0), (0, 2**63, 1), (-(2**63), 2**63, 2), (2**63 - 120, 60, 3)],
)
def test_time_series_stamps_stay_inside_int64(start, interval, n):
    with pytest.raises(SpecError, match="int64"):
        TimeSeries(start, interval, np.zeros(n))


def test_time_series_may_reach_the_int64_edges():
    assert TimeSeries(2**63 - 121, 60, np.zeros(3)).timestamps()[-1] == 2**63 - 1
    assert len(TimeSeries(np.int64(-(2**63)), np.int64(2**63 - 1), np.zeros(1))) == 1
    assert len(TimeSeries(-(2**63), 60, np.zeros(0))) == 0


def test_time_series_values_are_read_only():
    ts = TimeSeries(0, 1, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ts.values[0] = 9.0


def test_time_series_missing_sentinel():
    ts = TimeSeries(0, 1, np.array([1.0, MISSING, 3.0]))
    assert bool(np.isnan(ts.values).any())
    assert np.isnan(ts.values[1])
    assert not np.isnan(ts.values[0])


def test_time_series_rejects_inf():
    with pytest.raises(InputError):
        TimeSeries(0, 1, np.array([1.0, np.inf]))


def test_with_values_keeps_grid():
    ts = TimeSeries(7, 5, np.array([1.0, 2.0]))
    other = ts.with_values(np.array([3.0, 4.0]))
    assert other.start == 7 and other.interval == 5
    assert other.values.tolist() == [3.0, 4.0]


def test_label_sequence_validation():
    labels = LabelSequence(np.array([0, 1, 1, 0]))
    assert labels.positive_count == 2
    with pytest.raises(InputError):
        LabelSequence(np.array([0, 2]))


@pytest.mark.parametrize(
    "labels, valid",
    [
        (np.array([True, False]), True),
        (np.array([0.0, 1.0]), True),
        (np.array([0.0, 0.5]), False),
        (np.array([1.0, np.nan]), False),
        (np.array([0, 2], dtype=np.uint8), False),
        (np.array(["0", "1"]), False),
        (np.array([0, 1], dtype=object), True),
        (np.array([True, 0.0], dtype=object), True),
        (np.array(["0", 1], dtype=object), False),
    ],
    ids=["bool", "float", "half", "nan", "uint8_two", "strings", "object", "object_mixed",
         "object_string"],
)
def test_label_sequence_accepts_exactly_zero_and_one(labels, valid):
    if valid:
        assert LabelSequence(labels).labels.tolist() == [int(v) for v in labels]
    else:
        with pytest.raises(InputError):
            LabelSequence(labels)


# Each container's fields, then (field, value) pairs that each change one field.
# A ScoreSequence's warmup is fixed by its NaN sentinels, so only its scores can
# differ alone.
_CONTAINERS = [
    (TimeSeries, {"start": 60, "interval": 30, "values": [1.0, MISSING, 3.0]},
     [("start", 0), ("interval", 60), ("values", [1.0, MISSING, 4.0]), ("values", [1.0, MISSING])]),
    (LabelSequence, {"labels": [0, 1, 1]}, [("labels", [0, 1, 0]), ("labels", [0, 1])]),
    (ScoreSequence, {"scores": [MISSING, 2.0, 0.5], "warmup": 1},
     [("scores", [MISSING, 2.0, 0.25]), ("scores", [MISSING, 2.0])]),
    (EventStream, {"timestamps": [0, 5, 5], "values": [1.0, 2.0, 3.0]},
     [("timestamps", [0, 5, 6]), ("values", [1.0, 2.0, 3.5])]),
]


@pytest.mark.parametrize("cls, fields, changes", _CONTAINERS, ids=[c.__name__ for c, *_ in _CONTAINERS])
def test_container_equals_a_rebuilt_copy_and_is_unhashable(cls, fields, changes):
    built = cls(**fields)
    assert built == cls(**fields) and not built != cls(**fields)
    for name, value in changes:
        assert built != cls(**{**fields, name: value}), (name, value)
    for other in [c(**f) for c, f, _ in _CONTAINERS if c is not cls]:
        assert built != other and other != built
    with pytest.raises(TypeError):
        hash(built)


def test_acf_profiles_compare_field_by_field():
    profile = AcfProfile([1.0, 0.5, MISSING], 2)
    assert profile == AcfProfile([1.0, 0.5, MISSING], 2)
    assert profile != AcfProfile([1.0, 0.5, 0.25], 2) and profile != AcfProfile([1.0, 0.5, MISSING], 1)
    assert profile != TimeSeries(0, 1, [1.0, 0.5, MISSING])
    with pytest.raises(TypeError):
        hash(profile)


@pytest.mark.parametrize("build, name", [
    (lambda v: TimeSeries(0, 1, v), "values"),
    (lambda v: LabelSequence(v), "labels"),
    (lambda v: ScoreSequence(v), "scores"),
    (lambda v: EventStream(np.arange(len(v)), v), "values"),
    (lambda v: EventStream(v, np.ones(len(v))), "timestamps"),
    (lambda v: AcfProfile(v, 1), "values"),
], ids=["series", "labels", "scores", "event_values", "event_timestamps", "acf"])
def test_container_arrays_are_read_only_one_dimensional_copies(build, name):
    source = np.array([0, 1, 1])
    held = getattr(build(source), name)
    source[0] = 1
    assert held.tolist() == [0, 1, 1] and not held.flags.writeable
    with pytest.raises(ValueError):
        held[0] = 1
    with pytest.raises(InputError, match="one-dimensional"):
        build(np.ones((2, 2)))


_LABEL_TABLE = test_label_sequence_accepts_exactly_zero_and_one.pytestmark[0]


@pytest.mark.parametrize(*_LABEL_TABLE.args, **_LABEL_TABLE.kwargs)
def test_raw_label_arrays_obey_the_label_sequence_rule(labels, valid, tmp_path):
    series = TimeSeries(0, 1, np.sin(np.arange(len(labels)) / 5))
    detector, threshold = DetectorConfig(method="ewma_residual", window=2), ThresholdSpec(kind="fixed_value")
    calls = {
        "as_label_array": lambda lab: as_label_array(lab, len(series)).tolist(),
        "evaluate_batch": lambda lab: evaluate_batch(detector, threshold, series, lab),
        "evaluate_streaming": lambda lab: evaluate_streaming(detector, threshold, series, lab),
        "run_hil": lambda lab: run_hil(AlwaysFlagPolicy(), series, lab)[0],
        "write_series_csv": lambda lab: write_series_csv(tmp_path / "s.csv", series, lab).read_text(),
    }
    for name, call in calls.items():
        if valid:
            assert call(labels) == call(LabelSequence(labels)), name
        else:
            with pytest.raises(InputError, match="0 or 1"):
                call(labels)


def test_score_sequence_warmup_discipline():
    ScoreSequence(np.array([np.nan, np.nan, 1.0]), warmup=2)
    with pytest.raises(InputError):
        # finite value inside the declared warmup
        ScoreSequence(np.array([0.0, np.nan, 1.0]), warmup=2)
    with pytest.raises(InputError):
        # sentinel after the warmup
        ScoreSequence(np.array([np.nan, 1.0, np.nan]), warmup=1)
    with pytest.raises(SpecError):
        ScoreSequence(np.array([1.0]), warmup=2)


def test_score_sequence_valid_slice():
    seq = ScoreSequence(np.array([np.nan, 2.0, 3.0]), warmup=1)
    assert seq.valid.tolist() == [2.0, 3.0]


def test_event_stream_ordering():
    EventStream(np.array([0, 0, 5]), np.array([1.0, 2.0, 3.0]))  # ties are fine
    with pytest.raises(OrderingError, match="position 2"):
        EventStream(np.array([0, 5, 3]), np.array([1.0, 2.0, 3.0]))


def test_event_stream_rejects_fractional_timestamps():
    with pytest.raises(InputError):
        EventStream(np.array([0.5, 1.0]), np.array([1.0, 2.0]))


def test_event_stream_rejects_nan_values():
    with pytest.raises(InputError):
        EventStream(np.array([0, 1]), np.array([1.0, np.nan]))


def test_event_stream_iterates_as_pairs():
    ev = EventStream(np.array([0, 10], np.int64), np.array([1.5, -2.0]))
    assert list(ev) == [(0, 1.5), (10, -2.0)]
    assert list(EventStream(np.array([], np.int64), np.array([]))) == []


def test_population_requires_shared_grid_and_schema():
    a = TimeSeries(0, 60, np.zeros(5))
    b = TimeSeries(0, 60, np.zeros(5))
    pop = PopulationDataset((a, b), ({"region": "x"}, {"region": "y"}))
    assert len(pop.series) == 2 and len(pop.series[0]) == 5
    assert check_schema(pop.attributes) == ("region",)
    with pytest.raises(AlignmentError):
        PopulationDataset((a, TimeSeries(60, 60, np.zeros(5))), ({}, {}))
    with pytest.raises(SchemaError):
        PopulationDataset((a, b), ({"region": "x"}, {"device": "y"}))


def test_covariate_set_grid_check():
    target = TimeSeries(0, 60, np.zeros(4))
    good = CovariateSet(target, {"temp": TimeSeries(0, 60, np.ones(4))})
    assert good.names == ("temp",)
    with pytest.raises(AlignmentError):
        CovariateSet(target, {"temp": TimeSeries(0, 30, np.ones(4))})


def test_slice_prefix_bounds():
    ts = TimeSeries(0, 1, np.arange(5, dtype=float))
    assert len(slice_prefix(ts, 0)) == 0
    assert slice_prefix(ts, 5) == ts
    assert slice_prefix(ts, 3).values.tolist() == [0.0, 1.0, 2.0]
    with pytest.raises(IndexError):
        slice_prefix(ts, 6)


@given(st.integers(min_value=0, max_value=20))
def test_slice_prefix_idempotent(t):
    ts = TimeSeries(0, 2, np.arange(20, dtype=float))
    once = slice_prefix(ts, t)
    assert slice_prefix(once, t) == once


def test_align_trims_to_overlap():
    a = TimeSeries(0, 10, np.arange(6, dtype=float))     # covers [0, 60)
    b = TimeSeries(20, 10, np.arange(6, dtype=float))    # covers [20, 80)
    ta, tb = align([a, b])
    assert ta.start == tb.start == 20
    assert len(ta) == len(tb) == 4
    assert ta.values.tolist() == [2.0, 3.0, 4.0, 5.0]
    assert tb.values.tolist() == [0.0, 1.0, 2.0, 3.0]


def test_align_idempotent_on_aligned_inputs():
    a = TimeSeries(0, 10, np.arange(6, dtype=float))
    b = TimeSeries(20, 10, np.arange(6, dtype=float))
    first = align([a, b])
    assert align(first) == first


def test_align_errors():
    a = TimeSeries(0, 10, np.arange(3, dtype=float))
    with pytest.raises(AlignmentError):
        align([a, TimeSeries(0, 5, np.arange(3, dtype=float))])
    with pytest.raises(AlignmentError):
        align([a, TimeSeries(3, 10, np.arange(3, dtype=float))])  # off-grid start
    with pytest.raises(AlignmentError):
        align([a, TimeSeries(100, 10, np.arange(3, dtype=float))])  # disjoint


# the fields without a default of the config dataclasses the command line builds
_REQUIRED = {"ExperimentConfig": {"task": "detect"}, "ResampleSpec": {"interval": 60}}


def _refused_values():
    """``(class, field, value)``: for each declared field of a config class, a
    bogus choice, values of a wrong type, a value below its range and one
    above it if it has a high end."""
    for cls in _BINDINGS:
        for name, (kind, numbers, choices) in field_specs(cls).items():
            if choices is not None:
                yield cls, name, "bogus"
            if numbers is None:
                if choices is not None:
                    yield cls, name, 1
                continue
            integer = int in (get_args(kind) or (kind,))
            yield from ((cls, name, value) for value in ("x", True, 2.5 if integer else float("nan")))
            if numbers.lo is not None:
                yield cls, name, numbers.lo - 1
            if numbers.hi is not None:
                yield cls, name, numbers.hi + 1


@pytest.mark.parametrize(
    "cls, name, value", list(_refused_values()), ids=lambda v: v.__name__ if isinstance(v, type) else repr(v)
)
def test_config_fields_refuse_values_their_declarations_do_not_take(cls, name, value):
    with pytest.raises(SpecError, match=f"^{cls.__name__}.{name} must be "):
        cls(**{**_REQUIRED.get(cls.__name__, {}), name: value})


def test_config_fields_take_numpy_integers_as_ints():
    spec = ResampleSpec(interval=np.int64(60), bin_anchor=np.int32(-5))
    assert (spec.interval, spec.bin_anchor) == (60, -5) and type(spec.bin_anchor) is int
    assert type(DetectorConfig(window=np.int64(16)).window) is int
