"""Turn streaming scores into binary alert decisions.

A :class:`Thresholder` consumes one score per step and answers 0/1.  The
threshold in force at step t is computed from scores (and feedback) seen
strictly before t — decide first, then fold the new score into state — so
the same truncation invariance that detectors guarantee holds here too.
Warmup sentinel scores (NaN) map to decision 0 and leave every piece of
state untouched, including the reservoir RNG.

Four strategies:

- ``fixed_value`` — constant threshold.
- ``trailing_percentile`` — percentile of past scores over a pool: a
  bounded seeded reservoir, or the exact trailing ``horizon`` window.  The
  percentile is exact over the pool: a sorted mirror of the pool is kept
  with ``bisect``, and numpy's ``linear`` quantile formula is applied to
  it, so each step costs O(pool) list moves instead of a fresh sort.
- ``k_sigma`` — running mean plus k running standard deviations.
- ``feedback_adaptive`` — a fixed starting threshold that multiplies up on
  annotated false positives and down on annotated true positives.

Feedback is censored by protocol: it may only describe a point that was
actually flagged, which is exactly the one-sided labeling a human operator
working through an alert queue can produce.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from math import floor, inf, isnan, sqrt

import numpy as np

from .core import INT64_MAX, ProtocolError, Range, ScoreSequence, SpecError, check_fields, declared

__all__ = [
    "ThresholdSpec",
    "Thresholder",
    "apply_batch",
    "oracle_fixed_threshold",
    "KINDS",
]

KINDS = ("fixed_value", "trailing_percentile", "k_sigma", "feedback_adaptive")


@dataclass(frozen=True)
class ThresholdSpec:
    kind: str = declared("trailing_percentile", choices=KINDS)
    value: float = declared(1.0, Range())  # fixed_value / feedback_adaptive start
    percentile: float = declared(0.999, Range(0, 1, open_lo=True, open_hi=True))  # trailing_percentile
    k: float = declared(3.0, Range(0, open_lo=True))  # k_sigma multiplier
    up: float = declared(1.1, Range(1, open_lo=True))  # feedback_adaptive false-positive factor
    down: float = declared(0.98, Range(0, 1, open_lo=True))  # feedback_adaptive true-positive factor
    horizon: int | None = declared(None, Range(1, INT64_MAX))  # exact trailing window; None -> reservoir
    reservoir_size: int = declared(4096, Range(1, INT64_MAX))
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind == "feedback_adaptive" and self.value <= 0.0:
            # feedback scales the threshold, so a start <= 0 would move the wrong way
            raise SpecError(f"feedback_adaptive start value must be > 0, got {self.value}")


class Thresholder:
    """Streaming score -> decision converter with prefix-only state.

    ``Thresholder(spec)`` builds the class of ``spec.kind``, as ``pathlib.Path``
    builds its flavour's, so the kind is chosen once and no step compares
    kinds.  Each kind's ``update(score)`` decides 1 iff ``score`` exceeds
    ``threshold``, the threshold in force, then absorbs the score into state.
    NaN (warmup sentinel) returns 0 and touches nothing.  ``threshold`` is
    +inf until the strategy has any state to speak from, so nothing is
    flagged off an empty history.
    """

    def __new__(cls, spec: ThresholdSpec):
        return super().__new__(_KIND_CLASSES[spec.kind] if cls is Thresholder else cls)

    def __getnewargs__(self) -> tuple[ThresholdSpec]:
        return (self.spec,)  # what unpickling and copying pass to __new__

    def __init__(self, spec: ThresholdSpec):
        self.spec = spec
        self._awaiting_feedback = False

    def feedback(self, label: int) -> None:
        """Annotate the most recent decision; only flagged points qualify.

        ``label`` is the true status of the flagged point: 0 means the alert
        was a false positive (threshold multiplies by ``up``), 1 a true
        positive (multiplies by ``down``).  Strategies other than
        feedback_adaptive accept and ignore the annotation; the censorship
        rule is enforced for all of them.
        """
        if not self._awaiting_feedback:
            raise ProtocolError(
                "feedback is only accepted for the most recent flagged point"
            )
        if label not in (0, 1):
            raise SpecError(f"label must be 0 or 1, got {label!r}")
        self._awaiting_feedback = False


class _FixedValue(Thresholder):
    """A constant threshold."""

    def __init__(self, spec: ThresholdSpec):
        super().__init__(spec)
        self._value = spec.value

    @property
    def threshold(self) -> float:
        return self._value

    def update(self, score: float) -> int:
        if isnan(score):
            return 0
        decision = 1 if score > self._value else 0
        self._awaiting_feedback = decision == 1
        return decision


class _FeedbackAdaptive(_FixedValue):
    """A fixed value that feedback multiplies."""

    def feedback(self, label: int) -> None:
        super().feedback(label)
        self._value *= self.spec.up if label == 0 else self.spec.down


class _TrailingPercentile(Thresholder):
    """Percentile of a pool of past scores: the trailing window, or a seeded reservoir."""

    def __init__(self, spec: ThresholdSpec):
        super().__init__(spec)
        self._reservoir: list[float] = []
        self._seen = 0
        self._rng = np.random.default_rng(np.random.SeedSequence([spec.seed]))
        self._window: deque[float] | None = (
            deque(maxlen=spec.horizon) if spec.horizon is not None else None
        )
        self._sorted: list[float] = []  # the pool (window or reservoir), ascending
        self._percentile: float | None = None  # cached until the pool changes

    @property
    def threshold(self) -> float:
        if self._percentile is None:
            self._percentile = _linear_quantile(self._sorted, self.spec.percentile)
        return self._percentile

    def update(self, score: float) -> int:
        if isnan(score):
            return 0
        decision = 1 if score > self.threshold else 0
        self._awaiting_feedback = decision == 1
        score = float(score)
        window = self._window
        if window is not None:
            if len(window) == window.maxlen:
                _discard(self._sorted, window[0])
            window.append(score)
        else:
            self._seen += 1
            size = self.spec.reservoir_size
            if len(self._reservoir) < size:
                self._reservoir.append(score)
            else:
                j = int(self._rng.integers(1, self._seen + 1))
                if j > size:
                    return decision
                _discard(self._sorted, self._reservoir[j - 1])
                self._reservoir[j - 1] = score
        insort(self._sorted, score)
        self._percentile = None
        return decision


class _KSigma(Thresholder):
    """Running mean plus ``k`` running standard deviations (Welford)."""

    def __init__(self, spec: ThresholdSpec):
        super().__init__(spec)
        self._k = spec.k
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0

    @property
    def threshold(self) -> float:
        n = self._n
        return self._mean + self._k * sqrt(self._m2 / n) if n >= 2 else inf

    def update(self, score: float) -> int:
        if isnan(score):
            return 0
        n, mean = self._n, self._mean
        decision = 1 if n >= 2 and score > mean + self._k * sqrt(self._m2 / n) else 0
        score = float(score)
        self._n = n = n + 1
        delta = score - mean
        self._mean = mean = mean + delta / n
        self._m2 += delta * (score - mean)
        self._awaiting_feedback = decision == 1
        return decision


_KIND_CLASSES = {
    "fixed_value": _FixedValue,
    "trailing_percentile": _TrailingPercentile,
    "k_sigma": _KSigma,
    "feedback_adaptive": _FeedbackAdaptive,
}


def _discard(ordered: list[float], value: float) -> None:
    del ordered[bisect_left(ordered, value)]


def _linear_quantile(ordered: list[float], q: float) -> float:
    """``np.quantile(ordered, q)`` (method ``linear``) of an ascending list.

    Repeats numpy's float operations in numpy's order (``_get_indexes``,
    ``_get_gamma``, ``_lerp``), so the result is numpy's bit for bit without
    building an array.  The one exception is the sign of a zero result:
    numpy's partition leaves tied -0.0 and 0.0 in no fixed order, so the two
    may disagree on it, never on ``==`` or on any decision.  Past the last
    index numpy points both neighbours at the last element (index -1),
    which also fixes gamma.
    """
    n = len(ordered)
    if n == 0:
        return inf
    virtual = (n - 1) * q
    if virtual >= n - 1:
        lo = hi = -1
    else:
        lo = floor(virtual)
        hi = lo + 1
    gamma = virtual - lo
    a, b = ordered[lo], ordered[hi]
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1 - gamma)
    return a + diff * gamma


def apply_batch(spec: ThresholdSpec, scores: ScoreSequence | np.ndarray) -> np.ndarray:
    """Batch decisions: one threshold fit on the full score set.

    The batch protocol may look at everything, so trailing_percentile uses
    the percentile of all finite scores and k_sigma their global mean/std.
    feedback_adaptive stays at its starting value — there is no feedback
    loop outside the interactive protocol.  Sentinels decide 0.
    """
    arr = scores.scores if isinstance(scores, ScoreSequence) else np.asarray(scores, float)
    finite = arr[~np.isnan(arr)]
    kind = spec.kind
    if kind == "fixed_value" or kind == "feedback_adaptive":
        thr = spec.value
    elif kind == "trailing_percentile":
        thr = float(np.quantile(finite, spec.percentile)) if finite.size else np.inf
    else:  # k_sigma
        if finite.size >= 2:
            thr = float(finite.mean() + spec.k * finite.std())
        else:
            thr = np.inf
    decisions = np.zeros(len(arr), dtype=np.int8)
    with np.errstate(invalid="ignore"):
        decisions[np.nan_to_num(arr, nan=-np.inf) > thr] = 1
    return decisions


def oracle_fixed_threshold(
    scores: np.ndarray, labels: np.ndarray
) -> tuple[float, float]:
    """Best-F1 fixed threshold in hindsight. DIAGNOSTIC ONLY.

    Needs the ground truth of every point, which no deployed system has,
    so no report carries it.  Returns ``(threshold, f1)`` maximizing F1 of
    ``score > threshold``.
    """
    arr = np.asarray(scores, dtype=np.float64)
    lab = np.asarray(labels)
    finite = np.unique(arr[~np.isnan(arr)])
    if finite.size == 0:
        return np.inf, 0.0
    # candidate thresholds: one just below each distinct score, plus one above all
    lo, hi = finite[:-1], finite[1:]
    with np.errstate(over="ignore"):
        mids = (lo + hi) / 2.0
    mids = np.where(np.isinf(mids), lo / 2.0 + hi / 2.0, mids)  # where lo + hi overflowed
    candidates = np.concatenate([[np.nextafter(finite[0], -np.inf)], mids, [finite[-1]]])
    positives = int(lab.sum())
    # rank the points once; those above a candidate are a suffix of the ranking
    ranked = np.nan_to_num(arr, nan=-np.inf).ravel()
    order = np.argsort(ranked)
    ranked = ranked[order]
    flat = np.broadcast_to(lab, arr.shape).ravel()[order]
    below = np.searchsorted(ranked, candidates, side="right")
    tp = _count_above(flat == 1, below)
    fp = _count_above(flat == 0, below)
    fn = positives - tp
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = 2.0 * tp / (2.0 * tp + fp + fn)
    f1 = np.where(tp == 0, np.where((fp == 0) & (fn == 0), 1.0, 0.0), ratio)
    best = int(np.argmax(f1))  # the first maximum, as a scan keeping strict gains
    return float(candidates[best]), float(f1[best])


def _count_above(hits: np.ndarray, below: np.ndarray) -> np.ndarray:
    """Per cut, how many of the ranked ``hits`` sit at or after it."""
    before = np.concatenate([[0], np.cumsum(hits)])
    return before[-1] - before[below]
