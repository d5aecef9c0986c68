"""Conditional vs. joint anomaly scoring for related series.

Two views of "anomalous" for a target x with covariates y, z, ...:

- conditional: is x_t surprising *given* the covariates at t and everything
  before?  Scored from the residual of a recursive-least-squares regression
  of x_t on lagged x and current+lagged covariates.  A heatwave that lifts
  both ice-cream sales and temperature is NOT conditionally anomalous —
  the relationship held.
- joint: is the vector (x_t, y_t, ...) itself surprising?  Scored as the
  Mahalanobis distance of the (optionally first-differenced) vector under
  exponentially weighted mean/covariance.  The same heatwave IS jointly
  anomalous.

Both scorers honor the detectors' prefix-only contract: covariates at t may
inform the score at t, the target only up to t-1, and state updates strictly
after scoring.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import CovariateSet, InputError, MISSING, ScoreSequence, SpecError

__all__ = [
    "ConditionalConfig",
    "ConditionalScorer",
    "JointConfig",
    "JointScorer",
    "run_conditional",
    "run_joint",
]


@dataclass(frozen=True)
class ConditionalConfig:
    ar_order: int = 2            # lags of the target
    covariate_lags: int = 0      # lags of each covariate (contemporaneous is free)
    forgetting: float = 0.999
    ridge: float = 1e-3
    scale_floor: float = 1e-9

    def __post_init__(self) -> None:
        if self.ar_order < 0:
            raise SpecError("ar_order must be >= 0")
        if self.covariate_lags < 0:
            raise SpecError("covariate_lags must be >= 0")
        if not 0.9 < self.forgetting <= 1.0:
            raise SpecError(f"forgetting must be in (0.9, 1], got {self.forgetting}")
        if self.ridge <= 0.0:
            raise SpecError("ridge must be > 0")
        if self.scale_floor <= 0.0:
            raise SpecError("scale_floor must be > 0")


class ConditionalScorer:
    """Recursive least squares with forgetting; score = scaled |residual|.

    Regressors: intercept, x_{t-1..t-ar}, and for each covariate its value
    at t plus ``covariate_lags`` lags.  The inverse normal equations start
    at I/ridge, so the system is never singular.  The residual scale is an
    exponentially weighted mean absolute deviation with the same forgetting
    factor, floored so a perfectly explained target scores 0, not NaN.
    """

    def __init__(self, config: ConditionalConfig, n_covariates: int):
        if n_covariates < 0:
            raise SpecError("n_covariates must be >= 0")
        if config.ar_order + n_covariates < 1:
            raise SpecError("need at least one regressor besides the intercept")
        self.config = config
        self.n_covariates = n_covariates
        self._p = 1 + config.ar_order + n_covariates * (1 + config.covariate_lags)
        self._max_lag = max(config.ar_order, config.covariate_lags)
        self._theta = np.zeros(self._p)
        self._P = np.eye(self._p) / config.ridge
        self._x_hist: deque[float] = deque(maxlen=max(config.ar_order, 1))
        self._cov_hist: deque[np.ndarray] = deque(maxlen=max(config.covariate_lags, 1))
        self._scale = 0.0
        self.count = 0

    @property
    def warmup(self) -> int:
        return self._max_lag + self._p

    def update(self, x: float, covariates=()) -> float:
        cov = np.asarray(covariates, dtype=np.float64).reshape(-1)
        if len(cov) != self.n_covariates:
            raise InputError(
                f"expected {self.n_covariates} covariates, got {len(cov)}"
            )
        if not np.isfinite(x) or not np.all(np.isfinite(cov)):
            raise InputError("conditional scorer inputs must be finite")
        t = self.count
        self.count += 1
        score = MISSING
        if t >= self._max_lag:
            score = self._score_and_train(float(x), cov, scoring=t >= self.warmup)
        self._x_hist.appendleft(float(x))
        self._cov_hist.appendleft(cov)
        return score

    def _score_and_train(self, x: float, cov: np.ndarray, scoring: bool) -> float:
        cfg = self.config
        a = np.empty(self._p)
        a[0] = 1.0
        pos = 1
        for i in range(cfg.ar_order):
            a[pos] = self._x_hist[i]
            pos += 1
        for c in range(self.n_covariates):
            a[pos] = cov[c]
            pos += 1
            for i in range(cfg.covariate_lags):
                a[pos] = self._cov_hist[i][c]
                pos += 1
        err = x - float(self._theta @ a)
        score = (
            abs(err) / max(self._scale, cfg.scale_floor) if scoring else MISSING
        )
        lam = cfg.forgetting
        Pa = self._P @ a
        gain = Pa / (lam + float(a @ Pa))
        self._theta += gain * err
        self._P = (self._P - np.outer(gain, Pa)) / lam
        self._P = (self._P + self._P.T) / 2.0
        self._scale = lam * self._scale + (1.0 - lam) * abs(err)
        return score


@dataclass(frozen=True)
class JointConfig:
    forgetting: float = 0.999
    ridge: float = 1e-3
    differencing: bool = True    # score first differences (kills random walks)
    min_history: int | None = None  # vectors absorbed before scoring; None -> dim+1

    def __post_init__(self) -> None:
        if not 0.9 < self.forgetting <= 1.0:
            raise SpecError(f"forgetting must be in (0.9, 1], got {self.forgetting}")
        if self.ridge <= 0.0:
            raise SpecError("ridge must be > 0")
        if self.min_history is not None and self.min_history < 1:
            raise SpecError("min_history must be >= 1")


class JointScorer:
    """Mahalanobis distance under exponentially weighted mean/covariance."""

    def __init__(self, config: JointConfig, dim: int):
        if dim < 1:
            raise SpecError("dim must be >= 1")
        self.config = config
        self.dim = dim
        self._min_history = config.min_history or dim + 1
        self._prev: np.ndarray | None = None
        self._mean: np.ndarray | None = None
        self._cov = np.zeros((dim, dim))
        self._seen = 0
        self.count = 0

    @property
    def warmup(self) -> int:
        return self._min_history + (1 if self.config.differencing else 0)

    def update(self, vector) -> float:
        vec = np.asarray(vector, dtype=np.float64).reshape(-1)
        if len(vec) != self.dim:
            raise InputError(f"expected dimension {self.dim}, got {len(vec)}")
        if not np.all(np.isfinite(vec)):
            raise InputError("joint scorer inputs must be finite")
        self.count += 1
        if self.config.differencing:
            if self._prev is None:
                self._prev = vec
                return MISSING
            d = vec - self._prev
            self._prev = vec
        else:
            d = vec
        score = MISSING
        if self._seen >= self._min_history:
            e = d - self._mean
            sigma = self._cov + self.config.ridge * np.eye(self.dim)
            score = float(np.sqrt(max(0.0, float(e @ np.linalg.solve(sigma, e)))))
        self._absorb(d)
        return score

    def _absorb(self, d: np.ndarray) -> None:
        lam = self.config.forgetting
        if self._mean is None:
            self._mean = d.copy()
        else:
            e = d - self._mean
            self._mean = self._mean + (1.0 - lam) * e
            self._cov = lam * self._cov + (1.0 - lam) * np.outer(e, e)
        self._seen += 1


def run_conditional(config: ConditionalConfig, data: CovariateSet) -> ScoreSequence:
    """Conditional scores for the target of ``data``, one per point."""
    names = data.names
    target = data.target.values
    if np.isnan(target).any() or any(
        np.isnan(data.covariates[n].values).any() for n in names
    ):
        raise InputError("conditional scoring needs gap-free inputs; resample first")
    cov_matrix = (
        np.column_stack([data.covariates[n].values for n in names])
        if names
        else np.zeros((len(target), 0))
    )
    scorer = ConditionalScorer(config, n_covariates=len(names))
    scores = np.empty(len(target))
    for i, x in enumerate(target):
        scores[i] = scorer.update(float(x), cov_matrix[i])
    return ScoreSequence.from_scores(scores)


def run_joint(config: JointConfig, data: CovariateSet) -> ScoreSequence:
    """Joint scores over the stacked vector (target, covariates...)."""
    names = data.names
    cols = [data.target.values] + [data.covariates[n].values for n in names]
    matrix = np.column_stack(cols)
    if np.isnan(matrix).any():
        raise InputError("joint scoring needs gap-free inputs; resample first")
    scorer = JointScorer(config, dim=matrix.shape[1])
    scores = np.empty(len(matrix))
    for i in range(len(matrix)):
        scores[i] = scorer.update(matrix[i])
    return ScoreSequence.from_scores(scores)
