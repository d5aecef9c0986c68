"""Turn irregular event streams into regular series.

Bins are left-closed right-open, anchored at ``bin_anchor``:
``[anchor + m*interval, anchor + (m+1)*interval)``.  The output series is
stamped with left bin edges and spans the first through last non-empty bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    INT64, INT64_MAX, INT64_MIN, MISSING, EventStream, Range, SpecError, TimeSeries, check_fields, declared,
)

__all__ = ["ResampleSpec", "resample", "suggest_rate"]

_AGGREGATIONS = ("mean", "sum", "count", "min", "max", "last")
_POLICIES = ("missing", "zero", "carry_forward")


@dataclass(frozen=True)
class ResampleSpec:
    """Target grid and aggregation for :func:`resample`.

    ``empty_bin_policy`` decides what an empty bin becomes: the missing
    sentinel, a literal zero (only meaningful for sum/count, and rejected
    otherwise), or a copy of the previous bin's value (``carry_forward``,
    bounded by ``max_carry_bins`` consecutive copies — longer gaps go back
    to missing).
    """

    interval: int = declared(numbers=Range(1, INT64_MAX))
    aggregation: str = declared("mean", choices=_AGGREGATIONS)
    empty_bin_policy: str = declared("missing", choices=_POLICIES)
    bin_anchor: int = declared(0, Range(INT64_MIN, INT64_MAX))
    max_carry_bins: int = declared(5, Range(0, INT64_MAX))

    def __post_init__(self) -> None:
        check_fields(self)
        if self.empty_bin_policy == "zero" and self.aggregation not in ("sum", "count"):
            raise SpecError(
                "a zero bin is only a faithful default for sum/count; "
                f"got aggregation {self.aggregation!r}"
            )


def resample(events: EventStream, spec: ResampleSpec) -> TimeSeries:
    """Aggregate ``events`` onto the grid described by ``spec``.

    The EventStream constructor already guarantees sorted timestamps; empty
    input produces an empty series anchored at the first bin edge.
    """
    if len(events) == 0:
        return TimeSeries(spec.bin_anchor, spec.interval, np.empty(0))

    ts = events.timestamps.astype(np.int64)
    # sorted stamps: the first and the last bound every offset from the anchor
    if int(ts[0]) - spec.bin_anchor not in INT64 or int(ts[-1]) - spec.bin_anchor not in INT64:
        raise SpecError(f"event stamps lie farther than int64 allows from bin_anchor {spec.bin_anchor}")
    vals = events.values
    bins = (ts - spec.bin_anchor) // spec.interval
    first_bin = int(bins[0])
    last_bin = int(bins[-1])
    n_bins = last_bin - first_bin + 1
    rel = (bins - first_bin).astype(np.int64)

    counts = np.bincount(rel, minlength=n_bins).astype(np.float64)
    occupied = counts > 0

    agg = spec.aggregation
    if agg == "count":
        out = counts.copy()
    elif agg in ("mean", "sum"):
        sums = np.bincount(rel, weights=vals, minlength=n_bins)
        out = sums / np.where(occupied, counts, 1.0) if agg == "mean" else sums.copy()
    elif agg == "last":
        out = np.empty(n_bins)
        out[rel] = vals  # later events overwrite earlier ones within a bin
    else:  # min / max
        fill = np.inf if agg == "min" else -np.inf
        out = np.full(n_bins, fill)
        ufunc = np.minimum if agg == "min" else np.maximum
        ufunc.at(out, rel, vals)

    # Empty bins start out missing for every aggregation (a count of zero is
    # only asserted under the zero policy); the policy then decides what, if
    # anything, fills them in.  The first and last bins are occupied by
    # construction, so carry_forward always has a real value to copy from.
    out[~occupied] = MISSING

    if spec.empty_bin_policy == "zero":
        out[~occupied] = 0.0
    elif spec.empty_bin_policy == "carry_forward":
        # each bin's gap is its distance from the last occupied bin at or before it
        index = np.arange(n_bins)
        source = np.maximum.accumulate(np.where(occupied, index, 0))
        carried = index - source <= spec.max_carry_bins
        out[carried] = out[source[carried]]

    start = spec.bin_anchor + first_bin * spec.interval
    return TimeSeries(int(start), spec.interval, out)


def suggest_rate(
    events: EventStream, candidate_intervals: Sequence[int], min_mean_count: float
) -> int:
    """Smallest candidate interval that keeps bins adequately populated.

    "Adequately populated" means the mean number of events per bin, taken
    over the span from the first to the last non-empty bin, is at least
    ``min_mean_count``.  Falls back to the largest candidate when none
    qualifies.  Candidates must be sorted ascending.
    """
    candidates = [int(c) for c in candidate_intervals]
    if not candidates:
        raise SpecError("need at least one candidate interval")
    if any(c <= 0 for c in candidates):
        raise SpecError("candidate intervals must be positive")
    if candidates != sorted(candidates):
        raise SpecError("candidate intervals must be sorted ascending")
    if min_mean_count <= 0:
        raise SpecError(f"min_mean_count must be positive, got {min_mean_count}")
    if len(events) == 0:
        raise SpecError("cannot suggest a rate for an empty event stream")

    ts = events.timestamps.astype(np.int64)
    for interval in candidates:
        first = ts[0] // interval
        last = ts[-1] // interval
        n_bins = int(last - first + 1)
        if len(events) / n_bins >= min_mean_count:
            return interval
    return candidates[-1]
