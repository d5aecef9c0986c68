"""Core value types shared by every other module.

Conventions used throughout the package:

- Timestamps are integer epoch seconds.  A regular series is fully described by
  ``start`` (epoch seconds of the first point), ``interval`` (seconds between
  points, > 0) and its values.
- Missing readings inside a regular series are carried as NaN.  Irregular data
  lives in an :class:`EventStream` until it is resampled onto a grid.
- Containers are immutable after construction; the numpy buffers they hold are
  marked read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "MISSING",
    "TadError",
    "SpecError",
    "AlignmentError",
    "DegenerateScaleError",
    "OrderingError",
    "InputError",
    "ProtocolError",
    "SchemaError",
    "FormatError",
    "TimeSeries",
    "LabelSequence",
    "ScoreSequence",
    "EventStream",
    "PopulationDataset",
    "CovariateSet",
    "is_missing",
    "slice_prefix",
    "align",
]

#: Sentinel for a missing reading inside a regular series.
MISSING = float("nan")

#: Every value an epoch-second timestamp, an interval or a grid offset may take.
INT64 = range(-(2**63), 2**63)


class TadError(Exception):
    """Base class for every error raised by this package."""


class SpecError(TadError, ValueError):
    """A configuration object is internally inconsistent."""


class AlignmentError(TadError, ValueError):
    """Series do not share a compatible time grid / range."""


class DegenerateScaleError(TadError, ValueError):
    """An operation needed spread in the data and found none (constant input)."""


class OrderingError(TadError, ValueError):
    """Event timestamps are not sorted."""


class InputError(TadError, ValueError):
    """A value fed to a detector or container is outside its domain."""


class ProtocolError(TadError, RuntimeError):
    """An interaction rule was violated (e.g. feedback for an unflagged point)."""


class SchemaError(TadError, ValueError):
    """Attribute vectors do not share a common schema."""


class FormatError(TadError, ValueError):
    """A file could not be parsed."""


def is_missing(x) -> np.ndarray | bool:
    """True where ``x`` is the missing-value sentinel."""
    return np.isnan(x)


def as_int64(value, what: str) -> int:
    """``value`` as a Python int, refusing bools, non-integers and values outside int64."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or int(value) not in INT64:
        raise SpecError(f"{what} must be an integer inside the int64 range, got {value!r}")
    return int(value)


def as_label_array(labels: LabelSequence | np.ndarray, n: int) -> np.ndarray:
    """``labels`` as an int8 array, refusing a length other than ``n``."""
    arr = labels.labels if isinstance(labels, LabelSequence) else np.asarray(labels)
    if len(arr) != n:
        raise AlignmentError(f"labels length {len(arr)} != series length {n}")
    return arr.astype(np.int8)


def _readonly_float_array(values, *, allow_nan: bool, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InputError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if np.isinf(arr).any():
        raise InputError(f"{what} may not contain infinities")
    if not allow_nan and np.isnan(arr).any():
        raise InputError(f"{what} may not contain NaN")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """A regularly spaced series of readings.

    ``values[i]`` was observed at epoch second ``start + i * interval``.
    NaN marks a missing reading.  Instances may be empty (length 0), which is
    what prefix-slicing at t=0 produces; operations that need data state their
    own minimum-length preconditions.
    """

    start: int
    interval: int
    values: np.ndarray

    def __post_init__(self) -> None:
        interval = as_int64(self.interval, "interval (seconds)")
        start = as_int64(self.start, "start (epoch seconds)")
        if interval <= 0:
            raise SpecError(f"interval must be positive, got {interval}")
        arr = _readonly_float_array(self.values, allow_nan=True, what="series values")
        as_int64(start + max(len(arr) - 1, 0) * interval, "the last timestamp")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "interval", interval)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (
            self.start == other.start
            and self.interval == other.interval
            and len(self) == len(other)
            and bool(np.array_equal(self.values, other.values, equal_nan=True))
        )

    __hash__ = None  # type: ignore[assignment]

    @property
    def end(self) -> int:
        """Exclusive end timestamp: one interval past the last point."""
        return self.start + len(self) * self.interval

    def timestamps(self) -> np.ndarray:
        return self.start + self.interval * np.arange(len(self), dtype=np.int64)

    def timestamp_at(self, i: int) -> int:
        if not -len(self) <= i < len(self):
            raise IndexError(f"index {i} out of range for series of length {len(self)}")
        if i < 0:
            i += len(self)
        return self.start + i * self.interval

    @property
    def has_missing(self) -> bool:
        return bool(np.isnan(self.values).any())

    def with_values(self, values) -> "TimeSeries":
        """Same grid, different readings."""
        return TimeSeries(self.start, self.interval, values)


@dataclass(frozen=True)
class LabelSequence:
    """Per-point binary ground truth, aligned positionally with a series."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.labels)
        if arr.ndim != 1:
            raise InputError(f"labels must be one-dimensional, got shape {arr.shape}")
        if arr.size and not ((arr == 0) | (arr == 1)).all():
            raise InputError("labels must be 0 or 1")
        arr = arr.astype(np.int8).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "labels", arr)

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelSequence):
            return NotImplemented
        return bool(np.array_equal(self.labels, other.labels))

    __hash__ = None  # type: ignore[assignment]

    @property
    def positive_count(self) -> int:
        return int(self.labels.sum())


@dataclass(frozen=True)
class ScoreSequence:
    """Detector output: one score per input point.

    The first ``warmup`` entries are the NaN sentinel (the detector had not
    seen enough history to score them); every entry past the warmup is finite.
    Scorers declare their warmup, so a score that overflows past it raises
    :class:`InputError` instead of lengthening the warmup.
    """

    scores: np.ndarray
    warmup: int = 0

    def __post_init__(self) -> None:
        arr = np.asarray(self.scores, dtype=np.float64).copy()
        if arr.ndim != 1:
            raise InputError(f"scores must be one-dimensional, got shape {arr.shape}")
        if not isinstance(self.warmup, (int, np.integer)) or isinstance(self.warmup, bool):
            raise SpecError(f"warmup must be an integer, got {self.warmup!r}")
        warmup = int(self.warmup)
        if warmup < 0 or warmup > arr.shape[0]:
            raise SpecError(f"warmup {warmup} out of range for {arr.shape[0]} scores")
        if not np.isnan(arr[:warmup]).all():
            raise InputError("warmup entries must carry the NaN sentinel")
        if not np.isfinite(arr[warmup:]).all():
            raise InputError("scores past the warmup must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "scores", arr)
        object.__setattr__(self, "warmup", warmup)

    def __len__(self) -> int:
        return int(self.scores.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScoreSequence):
            return NotImplemented
        return self.warmup == other.warmup and bool(
            np.array_equal(self.scores, other.scores, equal_nan=True)
        )

    __hash__ = None  # type: ignore[assignment]

    @property
    def valid(self) -> np.ndarray:
        """Scores past the warmup."""
        return self.scores[self.warmup :]


@dataclass(frozen=True)
class EventStream:
    """Irregular (timestamp, value) readings, sorted by time.

    Ties are allowed; values must be finite (an event is an actual reading,
    never a gap marker).
    """

    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps)
        if ts.ndim != 1:
            raise InputError(f"timestamps must be one-dimensional, got shape {ts.shape}")
        if ts.size and not np.issubdtype(ts.dtype, np.integer):
            ts_float = np.asarray(ts, dtype=np.float64)
            if not np.all(ts_float == np.round(ts_float)):
                raise InputError("event timestamps must be integer epoch seconds")
        ts = ts.astype(np.int64).copy()
        vals = _readonly_float_array(self.values, allow_nan=False, what="event values")
        if ts.shape[0] != vals.shape[0]:
            raise InputError(
                f"timestamps ({ts.shape[0]}) and values ({vals.shape[0]}) differ in length"
            )
        if ts.size > 1 and np.any(np.diff(ts) < 0):
            bad = int(np.argmax(np.diff(ts) < 0)) + 1
            raise OrderingError(f"event timestamps decrease at position {bad}")
        ts.flags.writeable = False
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])

    def __iter__(self):
        return zip(self.timestamps.tolist(), self.values.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return bool(
            np.array_equal(self.timestamps, other.timestamps)
            and np.array_equal(self.values, other.values)
        )

    __hash__ = None  # type: ignore[assignment]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "EventStream":
        pairs = list(pairs)
        if pairs:
            ts, vals = zip(*pairs)
        else:
            ts, vals = (), ()
        return cls(np.asarray(ts, dtype=np.int64), np.asarray(vals, dtype=np.float64))


def _check_same_grid(series: Sequence[TimeSeries], what: str) -> None:
    first = series[0]
    for s in series[1:]:
        if s.interval != first.interval:
            raise AlignmentError(f"{what}: intervals differ ({s.interval} vs {first.interval})")
        if s.start != first.start:
            raise AlignmentError(f"{what}: starts differ ({s.start} vs {first.start})")
        if len(s) != len(first):
            raise AlignmentError(f"{what}: lengths differ ({len(s)} vs {len(first)})")


@dataclass(frozen=True)
class PopulationDataset:
    """A fleet of aligned series plus one categorical attribute vector each.

    Every member shares the same grid, and every attribute dict covers the
    same key set (the schema).
    """

    series: tuple[TimeSeries, ...]
    attributes: tuple[Mapping[str, str], ...]

    def __post_init__(self) -> None:
        series = tuple(self.series)
        attributes = tuple(dict(a) for a in self.attributes)
        if not series:
            raise SpecError("a population needs at least one series")
        if len(series) != len(attributes):
            raise SchemaError(
                f"{len(series)} series but {len(attributes)} attribute vectors"
            )
        _check_same_grid(series, "population members")
        schema = frozenset(attributes[0])
        for i, attrs in enumerate(attributes):
            if frozenset(attrs) != schema:
                raise SchemaError(
                    f"attribute vector {i} keys {sorted(attrs)} do not match schema {sorted(schema)}"
                )
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "attributes", attributes)

    @property
    def n_series(self) -> int:
        return len(self.series)

    @property
    def n_points(self) -> int:
        return len(self.series[0])

    @property
    def schema(self) -> tuple[str, ...]:
        return tuple(sorted(self.attributes[0]))


@dataclass(frozen=True)
class CovariateSet:
    """A target series plus named side-information series on the same grid."""

    target: TimeSeries
    covariates: Mapping[str, TimeSeries]

    def __post_init__(self) -> None:
        covariates = dict(self.covariates)
        _check_same_grid([self.target, *covariates.values()], "covariates")
        object.__setattr__(self, "covariates", covariates)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.covariates)

    def __len__(self) -> int:
        return len(self.target)


def slice_prefix(series: TimeSeries, t: int) -> TimeSeries:
    """The first ``t`` points of ``series``; grid metadata unchanged.

    ``t`` may be 0 (empty prefix) up to ``len(series)`` (the whole series).
    """
    if not 0 <= t <= len(series):
        raise IndexError(f"prefix length {t} out of range for series of length {len(series)}")
    return TimeSeries(series.start, series.interval, series.values[:t])


def align(series: Sequence[TimeSeries]) -> tuple[TimeSeries, ...]:
    """Trim every series to the maximal time range they all cover.

    All inputs must share the same interval and sit on the same grid (starts
    congruent modulo the interval).  Raises :class:`AlignmentError` when the
    ranges are disjoint or the grids are incompatible.
    """
    series = list(series)
    if not series:
        raise SpecError("align() needs at least one series")
    interval = series[0].interval
    for s in series[1:]:
        if s.interval != interval:
            raise AlignmentError(f"intervals differ: {s.interval} vs {interval}")
        if (s.start - series[0].start) % interval != 0:
            raise AlignmentError(
                f"starts {s.start} and {series[0].start} are not on the same {interval}s grid"
            )
    common_start = max(s.start for s in series)
    common_end = min(s.end for s in series)
    if common_end <= common_start:
        raise AlignmentError("series time ranges are disjoint")
    out = []
    for s in series:
        lo = (common_start - s.start) // interval
        hi = (common_end - s.start) // interval
        out.append(TimeSeries(common_start, interval, s.values[lo:hi]))
    return tuple(out)
