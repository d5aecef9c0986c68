"""Synthetic data: periodic series with known period, and point-anomaly injection.

The generator composes three ingredients on top of each other:

    x[t] = walk[t] + noise_strength * eps[t] + period_strength * template[t mod period]

where ``walk`` is a Gaussian random walk over the whole series, ``eps`` is
i.i.d. standard Gaussian noise, and ``template`` is an independent Gaussian
random walk over one period.  Series length and period are drawn per series,
so a benchmark over many seeds sweeps a wide range of signal-to-noise ratios.

Injection replaces each point independently with a corrupted reading with a
fixed probability and returns the replacement mask as labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    INT64_MAX,
    INT64_MIN,
    DegenerateScaleError,
    InputError,
    LabelSequence,
    Range,
    SpecError,
    TimeSeries,
    check_fields,
    declared,
)

__all__ = [
    "PeriodicGeneratorConfig",
    "InjectionConfig",
    "LabeledSeries",
    "series_rng",
    "generate_periodic",
    "inject_point_anomalies",
]

# One series is held whole, with about eight float arrays and its CSV text
# beside it: about 200 MB at this length.
_MAX_LENGTH = 10**6


def series_rng(base_seed: int, index: int) -> np.random.Generator:
    """Independent per-series generator, keyed by (seed, index).

    Streams are a function of the key alone, so running series in parallel or
    out of order cannot change what any one series looks like.
    """
    return np.random.default_rng(np.random.SeedSequence([int(base_seed), int(index)]))


@dataclass(frozen=True)
class PeriodicGeneratorConfig:
    """Knobs for :func:`generate_periodic`.

    The strength ranges are sampled uniformly per series; collapse a range to
    a single value (e.g. ``(10.0, 10.0)``) to pin it.  ``fixed_length`` /
    ``fixed_period`` override the per-series draws, and ``include_walk=False``
    drops the long-range random walk term (useful when an exactly periodic
    series is needed).
    """

    length_range: tuple[int, int] = (60, 10000)
    noise_strength_range: tuple[float, float] = (0.0, 10.0)
    period_strength_range: tuple[float, float] = (0.0, 10.0)
    seed: int = 0
    start: int = declared(0, Range(INT64_MIN, INT64_MAX))
    interval: int = declared(60, Range(1, INT64_MAX))
    fixed_length: int | None = declared(None, Range(60, _MAX_LENGTH))  # at least 60, so a valid period exists
    fixed_period: int | None = declared(None, Range(3, INT64_MAX, open_lo=True))
    include_walk: bool = True

    def __post_init__(self) -> None:
        check_fields(self)
        for name, floor, ceiling in (("length_range", 60, _MAX_LENGTH), ("noise_strength_range", 0, math.inf),
                                     ("period_strength_range", 0, math.inf)):
            lo, hi = getattr(self, name)
            if not floor <= lo <= hi <= ceiling:
                raise SpecError(f"{name} must satisfy {floor} <= lo <= hi <= {ceiling}, got {(lo, hi)}")


@dataclass(frozen=True)
class LabeledSeries:
    """A series together with its ground truth."""

    series: TimeSeries
    labels: LabelSequence
    true_period: int | None = None

    def __post_init__(self) -> None:
        if len(self.series) != len(self.labels):
            raise InputError(
                f"series length {len(self.series)} != labels length {len(self.labels)}"
            )


def generate_periodic(config: PeriodicGeneratorConfig, index: int = 0) -> LabeledSeries:
    """Draw one periodic series; labels are all zero, true period recorded.

    Per series: length n uniform over ``length_range``; period uniform over
    the integers strictly between 3 and n/10; strengths uniform over their
    ranges.  Deterministic given (config.seed, index).
    """
    rng = series_rng(config.seed, index)

    lo, hi = config.length_range
    n = int(rng.integers(lo, hi + 1))
    if config.fixed_length is not None:
        n = config.fixed_length

    # the largest integer strictly below n/10; at least 5, as n >= 60
    period = int(rng.integers(4, (n - 1) // 10 + 1))
    if config.fixed_period is not None:
        period = int(config.fixed_period)
        if not 3 < period < n / 10:
            raise SpecError(f"fixed_period {period} outside (3, {n / 10:g}) for length {n}")

    noise_strength = rng.uniform(*config.noise_strength_range)
    period_strength = rng.uniform(*config.period_strength_range)

    walk = np.cumsum(rng.standard_normal(n))
    if not config.include_walk:
        walk = np.zeros(n)
    noise = rng.standard_normal(n)
    template = np.cumsum(rng.standard_normal(period))

    idx = np.arange(n) % period
    values = walk + noise_strength * noise + period_strength * template[idx]

    series = TimeSeries(config.start, config.interval, values)
    labels = LabelSequence(np.zeros(n, dtype=np.int8))
    return LabeledSeries(series, labels, true_period=period)


@dataclass(frozen=True)
class InjectionConfig:
    """How to corrupt points.

    kind:
        ``"offset"``   — replaced value is the reading plus ``offset_sigmas``
                         sample standard deviations of the input series;
        ``"uniform"``  — replaced value drawn uniformly over the observed range;
        ``"constant"`` — replaced value is ``constant``.
    """

    rate: float = declared(0.0, Range(0, 1))
    seed: int = 0
    kind: str = declared("offset", choices=("offset", "uniform", "constant"))
    offset_sigmas: float = 5.0
    constant: float = 0.0

    __post_init__ = check_fields


def inject_point_anomalies(series: TimeSeries, config: InjectionConfig) -> LabeledSeries:
    """Independently replace each point with probability ``config.rate``.

    Returns the corrupted series plus labels marking exactly the replaced
    positions.  The replacement mask is drawn before anything else, so label
    positions depend only on (seed, length), never on the values.
    """
    values = series.values
    if np.isnan(values).any():
        raise InputError("cannot inject into a series with missing readings")
    n = len(series)
    rng = np.random.default_rng(config.seed)
    mask = rng.random(n) < config.rate

    out = values.copy()
    if config.kind == "offset":
        sigma = float(np.std(values))
        if n and sigma == 0.0:
            raise DegenerateScaleError("offset injection needs a non-constant series")
        out[mask] = values[mask] + config.offset_sigmas * sigma
    elif config.kind == "uniform":
        lo = float(values.min()) if n else 0.0
        hi = float(values.max()) if n else 0.0
        out[mask] = rng.uniform(lo, hi, size=int(mask.sum()))
    else:  # constant
        out[mask] = config.constant

    labels = LabelSequence(mask.astype(np.int8))
    return LabeledSeries(series.with_values(out), labels, true_period=None)
