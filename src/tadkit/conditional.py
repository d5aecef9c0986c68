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

from dataclasses import dataclass
from math import isfinite

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

_BLOCK = 256  # steps per block in the run drivers; bounds their transient arrays


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

    One layout, ``_offsets``, serves ``update`` and :func:`run_conditional`:
    regressor ``j + 1`` of step ``t`` is entry ``t * width + _offsets[j]`` of
    the row-major ``(target, covariates...)`` inputs.  ``update`` gathers it
    from its buffer of recent rows and :func:`run_conditional` from all the
    inputs, a block of steps at a time; both then take the same RLS step,
    ``_train``.
    """

    def __init__(self, config: ConditionalConfig, n_covariates: int):
        if n_covariates < 0:
            raise SpecError("n_covariates must be >= 0")
        if config.ar_order + n_covariates < 1:
            raise SpecError("need at least one regressor besides the intercept")
        self.config = config
        self.n_covariates = n_covariates
        self._p = 1 + config.ar_order + n_covariates * (1 + config.covariate_lags)
        self._max_lag = m = max(config.ar_order, config.covariate_lags)
        self._width = width = 1 + n_covariates
        self._offsets = np.array(
            [-i * width for i in range(1, config.ar_order + 1)]
            + [c - i * width for c in range(1, width) for i in range(config.covariate_lags + 1)],
            dtype=np.intp,
        )
        self._theta = np.zeros(self._p)
        self._P = np.eye(self._p) / config.ridge
        # 2·(m+1) input rows; when full, the newest m move to the front
        self._rows = np.empty((2 * (m + 1), width))
        self._n = 0
        self._gather = [n * width + self._offsets for n in range(len(self._rows))]
        self._a = np.ones(self._p)
        self._lagged = self._a[1:]
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
        if not isfinite(x) or not np.isfinite(cov).all():
            raise InputError("conditional scorer inputs must be finite")
        t, m, n = self.count, self._max_lag, self._n
        self.count += 1
        if n == len(self._rows):
            self._rows[:m] = self._rows[n - m :]
            n = m
        self._rows[n, 0] = x
        self._rows[n, 1:] = cov
        self._n = n + 1
        if t < m:
            return MISSING
        # every index is in range; "clip" lets take write to ``out`` unbuffered
        self._rows.take(self._gather[n], out=self._lagged, mode="clip")
        score = self._train(self._a, float(x), scoring=t >= self.warmup)
        if not isfinite(score) and self.count > self.warmup:
            raise InputError("scores past the warmup must be finite")
        return score

    def _train(self, a: np.ndarray, x: float, scoring: bool) -> float:
        """One RLS step on regressor ``a`` and target ``x``: score, then learn."""
        cfg = self.config
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
    """Mahalanobis distance under exponentially weighted mean/covariance.

    One kernel serves ``update`` (a block of one vector) and
    :func:`run_joint` (blocks of ``_BLOCK`` vectors).  The mean and
    covariance recursions are elementwise, so the kernel runs them as scalar
    loops per component and per upper-triangle entry, with the IEEE
    operations of ``mean + (1-lam)*e`` and ``lam*cov + (1-lam)*outer(e, e)``
    in the same order.  It then solves every scored step with one stacked
    ``np.linalg.solve``, which calls LAPACK ``gesv`` once per matrix as a
    single solve does.
    """

    def __init__(self, config: JointConfig, dim: int):
        if dim < 1:
            raise SpecError("dim must be >= 1")
        self.config = config
        self.dim = dim
        self._min_history = config.min_history or dim + 1
        self._prev: np.ndarray | None = None
        self._mean: list[float] | None = None
        self._cov = [[0.0] * dim for _ in range(dim)]
        self._ridge = config.ridge * np.eye(dim)
        self._seen = 0
        self.count = 0

    @property
    def warmup(self) -> int:
        return self._min_history + (1 if self.config.differencing else 0)

    def update(self, vector) -> float:
        vec = np.asarray(vector, dtype=np.float64).reshape(-1)
        if len(vec) != self.dim:
            raise InputError(f"expected dimension {self.dim}, got {len(vec)}")
        if not np.isfinite(vec).all():
            raise InputError("joint scorer inputs must be finite")
        self.count += 1
        score = float(self._block(vec[None, :])[0])
        if not isfinite(score) and self.count > self.warmup:
            raise InputError("scores past the warmup must be finite")
        return score

    def _block(self, rows: np.ndarray) -> np.ndarray:
        """Scores of the finite ``(m, dim)`` vectors ``rows``; state moves past them."""
        scores = np.full(len(rows), MISSING)
        steps = rows
        if self.config.differencing and len(rows):
            if self._prev is not None:
                rows = np.concatenate([self._prev, rows])
            self._prev = rows[-1:].copy()
            steps = rows[1:] - rows[:-1]
        skip = len(scores) - len(steps)
        if self._mean is None and len(steps):
            self._mean = steps[0].tolist()
            self._seen = 1
            steps, skip = steps[1:], skip + 1
        if not len(steps):
            return scores
        lam = self.config.forgetting
        keep = 1.0 - lam
        errors = []
        for j, column in enumerate(steps.T.tolist()):
            mu = self._mean[j]
            ej = []
            for value in column:
                e = value - mu
                mu = mu + keep * e
                ej.append(e)
            self._mean[j] = mu
            errors.append(ej)
        history = [[None] * self.dim for _ in range(self.dim)]  # entries before each step
        for i in range(self.dim):
            for k in range(i, self.dim):
                acc = self._cov[i][k]
                before = []
                for ei, ek in zip(errors[i], errors[k]):
                    before.append(acc)
                    acc = lam * acc + keep * (ei * ek)
                self._cov[i][k] = self._cov[k][i] = acc
                history[i][k] = history[k][i] = before
        first = max(0, self._min_history - self._seen)
        self._seen += len(steps)
        if first < len(steps):
            E = np.array(errors).T[first:].copy()
            covs = np.array(history)[:, :, first:].transpose(2, 0, 1)
            solved = np.linalg.solve(covs + self._ridge, E[:, :, None])
            q = np.matmul(E[:, None, :], solved)[:, 0, 0]
            scores[skip + first :] = np.sqrt(np.where(q <= 0.0, 0.0, q))
        return scores


def run_conditional(config: ConditionalConfig, data: CovariateSet) -> ScoreSequence:
    """Conditional scores for the target of ``data``, one per point.

    The regressors are gathered ``_BLOCK`` rows at a time through the
    scorer's offsets, then each row takes the same RLS step as
    :meth:`ConditionalScorer.update`.
    """
    target = data.target.values
    inputs = np.column_stack([target] + [data.covariates[n].values for n in data.names])
    if np.isnan(inputs).any():
        raise InputError("conditional scoring needs gap-free inputs; resample first")
    scorer = ConditionalScorer(config, n_covariates=len(data.names))
    scores = np.full(len(target), MISSING)
    warmup = scorer.warmup
    # rows start at the largest lag, so every offset is in range
    for start in range(scorer._max_lag, len(target), _BLOCK):
        steps = np.arange(start, min(start + _BLOCK, len(target)))
        block = np.ones((len(steps), scorer._p))
        block[:, 1:] = inputs.reshape(-1)[steps[:, None] * scorer._width + scorer._offsets]
        for t, a in zip(steps.tolist(), block):
            scores[t] = scorer._train(a, float(target[t]), t >= warmup)
    return ScoreSequence(scores, min(warmup, len(target)))


def run_joint(config: JointConfig, data: CovariateSet) -> ScoreSequence:
    """Joint scores over the stacked vector (target, covariates...)."""
    names = data.names
    cols = [data.target.values] + [data.covariates[n].values for n in names]
    matrix = np.column_stack(cols)
    if np.isnan(matrix).any():
        raise InputError("joint scoring needs gap-free inputs; resample first")
    scorer = JointScorer(config, dim=matrix.shape[1])
    scores = np.empty(len(matrix))
    for start in range(0, len(matrix), _BLOCK):
        scores[start : start + _BLOCK] = scorer._block(matrix[start : start + _BLOCK])
    return ScoreSequence(scores, min(scorer.warmup, len(matrix)))
