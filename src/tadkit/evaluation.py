"""Evaluation protocols: batch, streaming, and human-in-the-loop.

The three protocols answer the same question — how much does a detector's
alert stream cost against the truth — under different information rules:

- batch: fit once on everything, then judge (the optimistic bound).
- streaming: one forward pass; by the detectors' prefix-consistency law
  this equals refitting on every prefix, at a single pass's cost.
- human-in-the-loop (HIL): the policy sees the raw stream plus an
  append-only feedback log holding the true labels of exactly the points
  it flagged so far.  Labels of unflagged points never leave the harness,
  which is the one-sided censorship a real alert queue imposes.

Regret is the cost sum fn_cost·[miss] + fp_cost·[false alarm] over scored
(non-warmup) points.  Reports always say which protocol produced them —
batch and streaming numbers are never interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .core import (
    AlignmentError,
    LabelSequence,
    PopulationDataset,
    ProtocolError,
    Range,
    ScoreSequence,
    SpecError,
    TimeSeries,
    as_label_array,
    check_fields,
    declared,
)
from .detectors import DetectorConfig, make_detector, run_batch, run_streaming
from .thresholds import ThresholdSpec, Thresholder, apply_batch

__all__ = [
    "LossSpec",
    "FeedbackLog",
    "EvalReport",
    "DelaySummary",
    "Policy",
    "AlwaysFlagPolicy",
    "NeverFlagPolicy",
    "DetectorThresholdPolicy",
    "detection_delay",
    "evaluate_batch",
    "evaluate_streaming",
    "run_hil",
    "run_population",
    "score_and_decide",
]


@dataclass(frozen=True)
class LossSpec:
    """Per-point cost of wrong answers.

    ``zero_one`` pins both costs to 1; ``weighted`` keeps what you pass.
    """

    kind: str = declared("zero_one", choices=("zero_one", "weighted"))
    fn_cost: float = declared(1.0, Range(0))
    fp_cost: float = declared(1.0, Range(0))

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind == "zero_one":
            object.__setattr__(self, "fn_cost", 1.0)
            object.__setattr__(self, "fp_cost", 1.0)


class FeedbackLog:
    """Append-only record of (index, true label) for flagged points only."""

    def __init__(self) -> None:
        self._entries: list[tuple[int, int]] = []

    def record(self, index: int, label: int) -> None:
        if self._entries and index <= self._entries[-1][0]:
            raise ProtocolError(
                f"feedback indices must be strictly increasing, got {index} after "
                f"{self._entries[-1][0]}"
            )
        if label not in (0, 1):
            raise SpecError(f"label must be 0 or 1, got {label!r}")
        self._entries.append((int(index), int(label)))

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        return tuple(self._entries)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self._entries)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class DelaySummary:
    """Per-event detection delays plus the count of undetected events."""

    delays: tuple[int, ...]
    missed: int


@dataclass(frozen=True)
class EvalReport:
    protocol: str
    regret: float = declared(numbers=Range(0))
    precision: float = declared(numbers=Range(0, 1))
    recall: float = declared(numbers=Range(0, 1))
    f1: float = declared(numbers=Range(0, 1))
    alert_count: int
    warmup_excluded: int
    detection_delays: tuple[int, ...]
    missed_events: int

    __post_init__ = check_fields


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    if tp == 0 and fp == 0 and fn == 0:
        # no alerts and nothing to find: vacuously perfect
        return 1.0, 1.0, 1.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
    return precision, recall, f1


def detection_delay(
    predictions: np.ndarray, labels: np.ndarray, max_delay: int = 0
) -> DelaySummary:
    """Delay from each event's start to its first alert, within a grace window.

    An event is a maximal contiguous run of 1-labels.  Its delay is the
    distance from the event start to the first prediction 1 inside
    [start, end + max_delay]; events with no alert there count as missed.
    """
    if max_delay < 0:
        raise SpecError(f"max_delay must be >= 0, got {max_delay}")
    pred = np.asarray(predictions)
    lab = np.asarray(labels)
    if len(pred) != len(lab):
        raise AlignmentError(f"predictions length {len(pred)} != labels length {len(lab)}")
    n = len(lab)
    edges = np.flatnonzero(np.diff(np.concatenate([[False], lab == 1, [False]])))
    starts, ends = edges[::2], edges[1::2] - 1  # each event's first and last index
    alerts = np.append(np.flatnonzero(pred == 1), n)  # n stands for "no alert left"
    first = alerts[np.searchsorted(alerts, starts)]
    # the grace is clipped to n before it is added, so the sum cannot overflow int64
    caught = first <= np.minimum(ends + min(max_delay, n), n - 1)
    return DelaySummary(delays=tuple((first - starts)[caught].tolist()), missed=int(np.count_nonzero(~caught)))


def _build_report(
    protocol: str,
    pred: np.ndarray,
    lab: np.ndarray,
    loss: LossSpec,
    warmup: int,
    max_delay: int,
) -> EvalReport:
    scored_pred, scored_lab = pred[warmup:], lab[warmup:]
    # labels and decisions are 0/1, so 2·label + decision counts tn, fp, fn and tp
    _, fp, fn, tp = np.bincount(2 * scored_lab + scored_pred, minlength=4).tolist()
    precision, recall, f1 = _prf(tp, fp, fn)
    summary = detection_delay(scored_pred, scored_lab, max_delay)
    return EvalReport(
        protocol=protocol,
        regret=float(loss.fn_cost * fn + loss.fp_cost * fp),
        precision=precision,
        recall=recall,
        f1=f1,
        alert_count=int(pred.sum()),
        warmup_excluded=min(warmup, len(pred)),
        detection_delays=summary.delays,
        missed_events=summary.missed,
    )


def score_and_decide(
    protocol: str, detector_config: DetectorConfig, threshold: ThresholdSpec, series: TimeSeries
) -> tuple[ScoreSequence, np.ndarray]:
    """Scores of ``series`` and the 0/1 decision at each point under ``protocol``.

    ``"batch"`` fits the detector and the threshold once on everything;
    ``"streaming"`` runs one forward pass and one :class:`Thresholder` over it.
    """
    if protocol == "batch":
        scores = run_batch(detector_config, series)
        return scores, apply_batch(threshold, scores)
    if protocol != "streaming":
        raise SpecError(f"unknown protocol {protocol!r}")
    scores = run_streaming(detector_config, series)
    decide = Thresholder(threshold).update
    return scores, np.array([decide(s) for s in scores.scores.tolist()], dtype=np.int8)


def _evaluate(protocol, detector_config, threshold, series, labels, loss, max_delay) -> EvalReport:
    lab = as_label_array(labels, len(series.values))
    scores, pred = score_and_decide(protocol, detector_config, threshold, series)
    return _build_report(protocol, pred, lab, loss or LossSpec(), scores.warmup, max_delay)


def evaluate_batch(
    detector_config: DetectorConfig,
    threshold: ThresholdSpec,
    series: TimeSeries,
    labels: LabelSequence | np.ndarray,
    loss: LossSpec | None = None,
    max_delay: int = 0,
) -> EvalReport:
    """Fit-once evaluation: scores and threshold see the whole series."""
    return _evaluate("batch", detector_config, threshold, series, labels, loss, max_delay)


def evaluate_streaming(
    detector_config: DetectorConfig,
    threshold: ThresholdSpec,
    series: TimeSeries,
    labels: LabelSequence | np.ndarray,
    loss: LossSpec | None = None,
    max_delay: int = 0,
) -> EvalReport:
    """Single forward pass; equals a per-prefix refit by prefix consistency."""
    return _evaluate("streaming", detector_config, threshold, series, labels, loss, max_delay)


@runtime_checkable
class Policy(Protocol):
    """Decision maker for the interactive protocol.

    ``decide`` sees the value prefix x_1..x_t and the feedback log (true
    labels of previously flagged points only) and answers 0 or 1 for t.
    ``warmup`` is how many leading decisions are formality (excluded from
    regret, like detector warmup).
    """

    @property
    def warmup(self) -> int: ...

    def decide(self, prefix: np.ndarray, log: FeedbackLog) -> int: ...


class AlwaysFlagPolicy:
    warmup = 0

    def decide(self, prefix: np.ndarray, log: FeedbackLog) -> int:
        return 1


class NeverFlagPolicy:
    warmup = 0

    def decide(self, prefix: np.ndarray, log: FeedbackLog) -> int:
        return 0


class DetectorThresholdPolicy:
    """Streaming detector + thresholder composed into a HIL policy.

    New feedback entries are forwarded to the thresholder at the start of
    each decision, so a feedback_adaptive threshold reacts from the very
    next point on; other threshold kinds simply ignore the annotations.
    """

    def __init__(self, detector_config: DetectorConfig, threshold: ThresholdSpec):
        self._detector = make_detector(detector_config)
        self._thresholder = Thresholder(threshold)
        self._consumed = 0

    @property
    def warmup(self) -> int:
        return self._detector.warmup

    def decide(self, prefix: np.ndarray, log: FeedbackLog) -> int:
        entries = log._entries  # the list itself, without a len(log) call and a since() copy per step
        while self._consumed < len(entries):
            self._thresholder.feedback(entries[self._consumed][1])
            self._consumed += 1
        # item() hands over a Python float, so a NaN's InputError reads "got nan"
        return self._thresholder.update(self._detector.update(prefix.item(-1)))


def run_hil(
    policy: Policy,
    series: TimeSeries,
    labels: LabelSequence | np.ndarray,
    loss: LossSpec | None = None,
    max_delay: int = 0,
) -> tuple[EvalReport, FeedbackLog]:
    """Interactive loop with one-sided feedback.

    At each t the policy decides from (x_{<=t}, feedback so far); iff it
    flags, the true label of t is appended to the log before t+1.  The
    label array itself never reaches the policy.
    """
    loss = loss or LossSpec()
    values = series.values
    lab = as_label_array(labels, len(values))
    log = FeedbackLog()
    truth, decisions = lab.tolist(), []
    decide, record = policy.decide, log.record
    for t in range(len(values)):
        decision = decide(values[: t + 1], log)
        if decision not in (0, 1):
            raise ProtocolError(f"policy returned {decision!r}, expected 0 or 1")
        decisions.append(decision)
        if decision == 1:
            record(t, truth[t])
    pred = np.array(decisions, dtype=np.int8)
    if log.indices() != tuple(np.flatnonzero(pred).tolist()):
        raise ProtocolError("feedback log out of sync with flagged points")
    warmup = int(policy.warmup)
    return _build_report("hil", pred, lab, loss, warmup, max_delay), log


def run_population(
    detector_config: DetectorConfig,
    threshold: ThresholdSpec,
    population: PopulationDataset,
) -> np.ndarray:
    """Independent streaming decisions per series; rows follow input order."""
    return np.vstack(
        [score_and_decide("streaming", detector_config, threshold, s)[1] for s in population.series]
    )
