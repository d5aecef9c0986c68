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
from dataclasses import MISSING as _REQUIRED, dataclass, field, fields
from functools import cache
from typing import Any, Iterable, Mapping, Sequence, get_args, get_type_hints

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

#: The ends of int64: the widest a timestamp, a grid offset or a size may be.
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
#: Every value an epoch-second timestamp, an interval or a grid offset may take.
INT64 = range(INT64_MIN, INT64_MAX + 1)


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


@dataclass(frozen=True)
class Range:
    """The numbers from ``lo`` to ``hi``: an end is included unless ``open_lo`` /
    ``open_hi`` says otherwise, and ``None`` leaves that side unbounded."""

    lo: float | None = None
    hi: float | None = None
    open_lo: bool = False
    open_hi: bool = False

    def __contains__(self, x) -> bool:
        above = self.lo is None or (self.lo < x if self.open_lo else self.lo <= x)
        return above and (self.hi is None or (x < self.hi if self.open_hi else x <= self.hi))

    def __str__(self) -> str:
        named = {INT64_MIN: "int64 min", INT64_MAX: "int64 max"}
        lo, hi = (named.get(end, end) for end in (self.lo, self.hi))
        if hi is None:
            return "" if lo is None else f"{'>' if self.open_lo else '>='} {lo}"
        return f"in {'(' if self.open_lo else '['}{lo}, {hi}{')' if self.open_hi else ']'}"


def declared(default: Any = _REQUIRED, numbers: Range | None = None, choices: tuple | None = None):
    """A dataclass field whose value must be a number in ``numbers`` or one of ``choices``."""
    return field(default=default, metadata={"range": numbers, "choices": choices})


@cache
def field_specs(cls: type) -> dict[str, tuple[Any, Range | None, tuple | None]]:
    """The type, range and choices of each field of the dataclass ``cls``, resolved once."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.metadata.get("range"), f.metadata.get("choices")) for f in fields(cls)}


def describe(kind: Any, numbers: Range | None, choices: tuple | None) -> str:
    """The values a key of type ``kind`` with this range and these choices takes, in words."""
    number = "an integer" if int in (get_args(kind) or (kind,)) else "a finite number"
    words = [] if numbers is None else [f"{number} {numbers}".rstrip()]
    return " or ".join(words + ([f"one of {list(choices)}"] if choices else []))


def refusal(name: str, value: Any, kind: Any, numbers: Range | None, choices: tuple | None) -> str | None:
    """Why ``value`` is no value for the key ``name`` of type ``kind``, or None when it is one.

    A string must be one of ``choices``; a number must lie in ``numbers`` and be
    finite, not a bool, and an integer where ``kind`` admits no float.
    """
    kinds = get_args(kind) or (kind,)
    if numbers is None and choices is None or value is None and type(None) in kinds:
        return None
    if isinstance(value, str):
        ok = choices is not None and value in choices
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        ok = numbers is not None and (int in kinds or float in kinds) and value in numbers
    elif isinstance(value, (float, np.floating)):
        ok = numbers is not None and float in kinds and math.isfinite(value) and value in numbers
    else:
        ok = False
    return None if ok else f"{name} must be {describe(kind, numbers, choices)}, got {value!r}"


def check_fields(obj) -> None:
    """Refuse the dataclass ``obj`` unless each field holds a value its declaration takes;
    store each ``np.integer`` as the ``int`` it equals."""
    for name, (kind, numbers, choices) in field_specs(type(obj)).items():
        value = getattr(obj, name)
        if (problem := refusal(name, value, kind, numbers, choices)) is not None:
            raise SpecError(f"{type(obj).__name__}.{problem}")  # the name ``--help`` gives the field
        if isinstance(value, np.integer):
            object.__setattr__(obj, name, int(value))


def as_label_array(labels: LabelSequence | np.ndarray, n: int) -> np.ndarray:
    """``labels`` as a :class:`LabelSequence`'s read-only int8 array, refusing a length other than ``n``."""
    arr = (labels if isinstance(labels, LabelSequence) else LabelSequence(labels)).labels
    if len(arr) != n:
        raise AlignmentError(f"labels length {len(arr)} != series length {n}")
    return arr


def check_schema(attributes: Sequence[Mapping[str, str]]) -> tuple[str, ...]:
    """The sorted attribute names that every row of ``attributes`` must share."""
    if not attributes:
        raise SpecError("need at least one series")
    schema = tuple(sorted(attributes[0]))
    for i, row in enumerate(attributes):
        if tuple(sorted(row)) != schema:
            raise SchemaError(f"series {i} has attributes {sorted(row)}, expected {list(schema)}")
    return schema


def frozen(values, dtype, what: str) -> np.ndarray:
    """A read-only one-dimensional copy of ``values`` as ``dtype``; other shapes are refused."""
    arr = np.array(values, dtype=dtype)
    if arr.ndim != 1:
        raise InputError(f"{what} must be one-dimensional, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _readonly_float_array(values, *, allow_nan: bool, what: str) -> np.ndarray:
    arr = frozen(values, np.float64, what)
    if np.isinf(arr).any():
        raise InputError(f"{what} may not contain infinities")
    if not allow_nan and np.isnan(arr).any():
        raise InputError(f"{what} may not contain NaN")
    return arr


def _equal(self, other) -> bool:
    """Field-wise equality of two containers of one type; arrays match NaN for NaN."""
    if not isinstance(other, type(self)):
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    return all(np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b
               for a, b in pairs)


@dataclass(frozen=True)
class TimeSeries:
    """A regularly spaced series of readings.

    ``values[i]`` was observed at epoch second ``start + i * interval``.
    NaN marks a missing reading.  Instances may be empty (length 0), which is
    what prefix-slicing at t=0 produces; operations that need data state their
    own minimum-length preconditions.
    """

    start: int = declared(numbers=Range(INT64_MIN, INT64_MAX))  # epoch seconds
    interval: int = declared(numbers=Range(1, INT64_MAX))  # seconds
    values: np.ndarray

    def __post_init__(self) -> None:
        check_fields(self)
        arr = _readonly_float_array(self.values, allow_nan=True, what="series values")
        if (last := self.start + max(len(arr) - 1, 0) * self.interval) not in INT64:
            raise SpecError(f"the last timestamp must be inside the int64 range, got {last}")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    __eq__ = _equal

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
        if arr.size and not ((arr == 0) | (arr == 1)).all():  # before the cast: 0.5 would become 0
            raise InputError("labels must be 0 or 1")
        object.__setattr__(self, "labels", frozen(arr, np.int8, "labels"))

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    __eq__ = _equal

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
    warmup: int = declared(0, Range(0, INT64_MAX))

    def __post_init__(self) -> None:
        check_fields(self)
        arr = frozen(self.scores, np.float64, "scores")
        if self.warmup > arr.shape[0]:
            raise SpecError(f"warmup {self.warmup} out of range for {arr.shape[0]} scores")
        if not np.isnan(arr[: self.warmup]).all():
            raise InputError("warmup entries must carry the NaN sentinel")
        if not np.isfinite(arr[self.warmup :]).all():
            raise InputError("scores past the warmup must be finite")
        object.__setattr__(self, "scores", arr)

    def __len__(self) -> int:
        return int(self.scores.shape[0])

    __eq__ = _equal

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
        if ts.size and not np.issubdtype(ts.dtype, np.integer):  # before the cast: 1.5 would become 1
            ts_float = np.asarray(ts, dtype=np.float64)
            if not np.all(ts_float == np.round(ts_float)):
                raise InputError("event timestamps must be integer epoch seconds")
        ts = frozen(ts, np.int64, "timestamps")
        vals = _readonly_float_array(self.values, allow_nan=False, what="event values")
        if ts.shape[0] != vals.shape[0]:
            raise InputError(
                f"timestamps ({ts.shape[0]}) and values ({vals.shape[0]}) differ in length"
            )
        if ts.size > 1 and np.any(np.diff(ts) < 0):
            bad = int(np.argmax(np.diff(ts) < 0)) + 1
            raise OrderingError(f"event timestamps decrease at position {bad}")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])

    def __iter__(self):
        return zip(self.timestamps.tolist(), self.values.tolist())

    __eq__ = _equal

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
        check_schema(attributes)
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
