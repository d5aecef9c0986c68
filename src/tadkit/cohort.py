"""Attribute-rule mining over a population of series.

Given "series i is anomalous right now" bits and categorical attributes per
series (device type, region, ...), find simple conjunctive rules such as
(device = A AND region = B) whose matched set lines up with the anomalous
set.  Search is exhaustive over conjunctions of up to ``max_depth``
distinct attributes, which is tractable precisely because real fleets have
few categorical dimensions — a guardrail refuses absurd candidate counts
rather than silently sampling.

Ranking prefers, in order: higher quality score, fewer terms (a more
general rule beats its refinements on ties), then lexicographic order for
full determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import prod
from typing import Mapping, Sequence

import numpy as np

from .core import INT64_MAX, Range, SchemaError, SpecError, check_fields, check_schema, declared

__all__ = [
    "Rule",
    "CohortMinerConfig",
    "RuleInterval",
    "mine_rules",
    "mine_rules_over_time",
]


@dataclass(frozen=True)
class Rule:
    """Conjunction of (attribute = value) terms with its quality score."""

    terms: tuple[tuple[str, str], ...]
    score: float = declared(numbers=Range(0, 1))
    coverage: int

    def __post_init__(self) -> None:
        check_fields(self)
        attrs = [a for a, _ in self.terms]
        if len(set(attrs)) != len(attrs):
            raise SpecError("rule attributes must be distinct")
        if not self.terms:
            raise SpecError("a rule needs at least one term")
        object.__setattr__(self, "terms", tuple(sorted(self.terms)))

    def matches(self, attributes: Mapping[str, str]) -> bool:
        return all(attributes.get(a) == v for a, v in self.terms)

    def __str__(self) -> str:
        return " AND ".join(f"{a}={v}" for a, v in self.terms)


@dataclass(frozen=True)
class CohortMinerConfig:
    max_depth: int = declared(2, Range(1, INT64_MAX))
    min_score: float = declared(1e-6, Range(0, 1, open_lo=True))  # rules scoring below this are not returned
    quality: str = declared("f1", choices=("f1", "precision_at_min_recall"))
    min_recall: float = declared(0.5, Range(0, 1, open_lo=True))  # only used by precision_at_min_recall
    max_candidates: int = declared(1_000_000, Range(1, INT64_MAX))

    __post_init__ = check_fields


def _term_masks(
    attributes: Sequence[Mapping[str, str]], schema: tuple[str, ...]
) -> dict[str, dict[str, np.ndarray]]:
    masks: dict[str, dict[str, np.ndarray]] = {a: {} for a in schema}
    for attr in schema:
        column = np.array([row[attr] for row in attributes])
        for value in np.unique(column):
            masks[attr][str(value)] = column == value
    return masks


def _candidates(
    attributes: Sequence[Mapping[str, str]],
    schema: tuple[str, ...],
    config: CohortMinerConfig,
) -> tuple[list[tuple[tuple[str, str], ...]], np.ndarray, np.ndarray]:
    """Every candidate rule's terms, its (candidates x series) 0/1 masks and coverage.

    Candidates are ranked by term count, then terms, so a first maximum of
    any score vector is the rule the ranking puts first.
    """
    masks = _term_masks(attributes, schema)
    shapes = [attrs for depth in range(1, min(config.max_depth, len(schema)) + 1)
              for attrs in combinations(schema, depth)]
    total = sum(prod(len(masks[a]) for a in attrs) for attrs in shapes)
    if total > config.max_candidates:
        raise SpecError(
            f"{total} candidate rules exceed the guardrail of {config.max_candidates}; "
            "reduce max_depth or pre-bin attributes coarser"
        )
    candidates = []
    for attrs in shapes:
        for values in product(*(sorted(masks[a]) for a in attrs)):
            mask = masks[attrs[0]][values[0]]
            for a, v in zip(attrs[1:], values[1:]):
                mask = mask & masks[a][v]
            candidates.append((len(attrs), tuple(zip(attrs, values)), mask))
    candidates.sort(key=lambda c: c[:2])
    table = np.array([mask for *_, mask in candidates], dtype=np.intp)
    table = table.reshape(len(candidates), len(attributes))
    return [terms for _, terms, _ in candidates], table, table.sum(axis=1)


def _scores(
    config: CohortMinerConfig, tp: np.ndarray, coverage: np.ndarray, positives: int
) -> np.ndarray:
    """Each candidate's quality from its true positives; 0 without one."""
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = tp / coverage
        recall = tp / positives
        if config.quality == "f1":
            score = 2 * precision * recall / (precision + recall)
        else:
            score = np.where(recall >= config.min_recall, precision, 0.0)
    return np.where(tp > 0, score, 0.0)


def mine_rules(
    anomalous,
    attributes: Sequence[Mapping[str, str]],
    config: CohortMinerConfig | None = None,
) -> list[Rule]:
    """Ranked conjunctive rules explaining which series are anomalous.

    ``anomalous`` is one 0/1 entry per series, aligned with ``attributes``.
    Returns an empty list when nothing is anomalous — there is nothing to
    explain.  The result order is total: score descending, then term count
    ascending (generality preference), then lexicographic.
    """
    config = config or CohortMinerConfig()
    schema = check_schema(attributes)
    anom = np.asarray(anomalous).astype(bool)
    if len(anom) != len(attributes):
        raise SchemaError(
            f"anomaly vector length {len(anom)} != series count {len(attributes)}"
        )
    positives = int(anom.sum())
    if positives == 0:
        return []
    terms, masks, coverage = _candidates(attributes, schema, config)
    scores = _scores(config, masks @ anom, coverage, positives)
    kept = np.flatnonzero(scores >= config.min_score)
    kept = kept[np.argsort(-scores[kept], kind="stable")]
    return [Rule(terms[i], float(scores[i]), int(coverage[i])) for i in kept]


@dataclass(frozen=True)
class RuleInterval:
    """Half-open time range [start, end) during which one rule was on top."""

    start: int
    end: int
    rule: Rule

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise SpecError("interval must be non-empty")


def mine_rules_over_time(
    anomaly_matrix,
    attributes: Sequence[Mapping[str, str]],
    config: CohortMinerConfig | None = None,
    min_support: int = 1,
) -> tuple[RuleInterval, ...]:
    """Top rule per timestep, merged into intervals while it stays the same.

    ``anomaly_matrix`` is (series x time).  Timesteps with fewer than
    ``min_support`` anomalous series (or where no rule clears min_score)
    produce no rule and break any open interval.  Every config scores each
    mined step against one candidate table built up front, one product of
    its masks with the step's column, and keeps the first-ranked top rule:
    the same rule as ``mine_rules(column, ...)[0]``.
    """
    config = config or CohortMinerConfig()
    if min_support < 1:
        raise SpecError("min_support must be >= 1")
    matrix = np.asarray(anomaly_matrix)
    if matrix.size == 0:
        return ()
    if matrix.ndim != 2:
        raise SpecError(f"anomaly matrix must be 2-D, got shape {matrix.shape}")
    schema = check_schema(attributes)
    if matrix.shape[0] != len(attributes):
        raise SchemaError(
            f"matrix has {matrix.shape[0]} rows but {len(attributes)} attribute rows"
        )

    anomalous = matrix.astype(bool)
    positives = anomalous.sum(axis=0)
    steps = np.flatnonzero(positives >= min_support)
    if steps.size == 0 or not schema:  # nothing to mine, or no rule to mine
        return ()
    terms, masks, coverage = _candidates(attributes, schema, config)
    # each mined step's top rule, -1 where none clears min_score, and its score
    top, best = np.full(len(steps), -1), np.zeros(len(steps))
    for j, t in enumerate(steps.tolist()):
        scores = _scores(config, masks @ anomalous[:, t], coverage, int(positives[t]))
        i = int(np.argmax(scores))
        if scores[i] >= config.min_score:
            top[j], best[j] = i, scores[i]
    # an interval ends where the step index jumps or the top rule changes
    cuts = [0, *(np.flatnonzero((np.diff(steps) != 1) | (np.diff(top) != 0)) + 1).tolist(), len(steps)]
    return tuple(
        RuleInterval(int(steps[a]), int(steps[b - 1]) + 1,
                     Rule(terms[top[a]], float(best[a]), int(coverage[top[a]])))
        for a, b in zip(cuts, cuts[1:]) if top[a] >= 0
    )
