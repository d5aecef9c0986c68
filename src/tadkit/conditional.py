"""Conditional vs. joint anomaly scoring for related series.

Two views of "anomalous" for a target x with covariates y, z, ...:

- conditional: is x_t surprising *given* the covariates at t and everything
  before?  Scored from the residual of an exponentially weighted
  least-squares regression of x_t on lagged x and current+lagged
  covariates.  A heatwave that lifts both ice-cream sales and temperature
  is NOT conditionally anomalous — the relationship held.
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

from .core import (
    INT64_MAX, MISSING, CovariateSet, InputError, Range, ScoreSequence, SpecError, check_fields, declared,
)

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
    ar_order: int = declared(2, Range(0, INT64_MAX))  # lags of the target
    covariate_lags: int = declared(0, Range(0, INT64_MAX))  # lags of each covariate; contemporaneous is free
    forgetting: float = declared(0.999, Range(0.9, 1, open_lo=True))
    ridge: float = declared(1e-3, Range(0, open_lo=True))
    scale_floor: float = declared(1e-9, Range(0, open_lo=True))

    __post_init__ = check_fields


class ConditionalScorer:
    """Exponentially weighted least squares; score = scaled |residual|.

    Regressors: intercept, x_{t-1..t-ar}, and for each covariate its value
    at t plus ``covariate_lags`` lags.  The score at t uses θ solving
    ``A θ = b`` over the steps before t, ``A ← λ·A + a aᵀ`` from ``ridge·I``
    and ``b ← λ·b + a·x``; an exactly singular ``A`` takes the minimum-norm
    least-squares θ.  The residual scale is an exponentially weighted mean
    absolute deviation, floored so a perfect fit scores 0, not NaN.

    One kernel, ``_block``, serves ``update`` (a block of one step) and
    :func:`run_conditional`.  A step's row is 1, then entry
    ``t * width + o`` of the row-major ``(target, covariates...)`` inputs
    for each ``o`` in ``_offsets``: the regressors, then the target.  Its
    one stacked solve costs O(p³) a step against recursive least squares'
    O(p²): at n = 4000 it was 5× as fast at p = 4 (the CLI's defaults), 3×
    at p = 12, even near p = 35 and 1.5× as slow at p = 63.
    """

    def __init__(self, config: ConditionalConfig, n_covariates: int):
        if n_covariates < 0:
            raise SpecError("n_covariates must be >= 0")
        if config.ar_order + n_covariates < 1:
            raise SpecError("need at least one regressor besides the intercept")
        self.config = config
        self.n_covariates = n_covariates
        self._p, self._max_lag = p, m = _order(config, n_covariates)
        self._width = width = 1 + n_covariates
        self._offsets = np.array(
            [-i * width for i in range(1, config.ar_order + 1)]
            + [c - i * width for c in range(1, width) for i in range(config.covariate_lags + 1)]
            + [0],
            dtype=np.intp,
        )
        # moments: the upper triangle of the running sum of z zᵀ, z = (a, x), less x²
        i, k, at = _triangle(p + 1)
        self._i, self._k = i[:-1], k[:-1]
        self._A, self._b = at[:p, :p], at[:p, p]
        self._moments = np.where(self._i == self._k, config.ridge, 0.0)
        self._lam = np.full(len(self._moments), config.forgetting)
        # 2·(m+1) input rows; when full, the newest m move to the front
        self._rows = np.empty((2 * (m + 1), width))
        self._n = 0
        self._gather = [n * width + self._offsets for n in range(len(self._rows))]
        self._z = np.ones((1, p + 1))
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
        self._rows.take(self._gather[n], out=self._z[0, 1:], mode="clip")
        score = float(self._block(self._z, skip=int(t < self.warmup))[0])
        if not isfinite(score) and self.count > self.warmup:
            raise InputError("scores past the warmup must be finite")
        return score

    def _block(self, z: np.ndarray, skip: int) -> np.ndarray:
        """Scores of the steps with rows ``z``, the first ``skip`` of them ``MISSING``; then learn."""
        lam, p = self.config.forgetting, self._p
        moments = _decay(self._moments, z[:, self._i] * z[:, self._k], self._lam)
        self._moments = moments[-1]
        theta = _solve(moments[:-1, self._A], moments[:-1, self._b])
        scores = []
        scale, floor = self._scale, self.config.scale_floor
        for err in np.abs(z[:, p] - (z[:, :p] * theta).sum(axis=1)).tolist():
            scores.append(err / max(scale, floor))
            scale = lam * scale + (1.0 - lam) * err
        self._scale = scale
        scores = np.array(scores)
        scores[:skip] = MISSING
        return scores


def _order(config: ConditionalConfig, n_covariates: int) -> tuple[int, int]:
    """The regressor count p, the intercept included, and the largest lag."""
    ar, lags = config.ar_order, config.covariate_lags
    return 1 + ar + n_covariates * (1 + lags), max(ar, lags)


def _triangle(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows and columns of an n-square upper triangle, and each entry's place in it."""
    i, k = np.triu_indices(n)
    at = np.empty((n, n), dtype=np.intp)
    at[i, k] = at[k, i] = np.arange(len(i))
    return i, k, at


def _decay(state: np.ndarray, terms: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Rows ``s_0 = state``, ``s_{t+1} = lam·s_t + terms[t]``: ``len(terms) + 1`` of them.

    Each row takes a scalar loop's IEEE operations, so blocking changes no bit.
    ``lam`` is λ in every entry of the state's shape: a float would cost
    ``np.multiply`` about a fifth more per row, for the same bits.
    """
    out = np.empty((len(terms) + 1, len(state)))
    out[0] = state
    for before, after, term in zip(out, out[1:], terms):
        np.multiply(before, lam, out=after)
        after += term
    return out


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """θ with ``A[i] θ[i] = b[i]`` for each stacked system (``gesv`` once each); never raises.

    If one is exactly singular, each is solved alone; a singular one takes its
    minimum-norm ``lstsq`` θ, or NaN if non-finite (``gelsd`` may hang on those).
    """
    try:
        return np.linalg.solve(A, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        pass
    theta = np.full(b.shape, np.nan)
    for i in range(len(b)):
        try:
            theta[i] = np.linalg.solve(A[i : i + 1], b[i : i + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            if np.isfinite(A[i]).all() and np.isfinite(b[i]).all():
                theta[i] = np.linalg.lstsq(A[i], b[i], rcond=None)[0]
    return theta


@dataclass(frozen=True)
class JointConfig:
    forgetting: float = declared(0.999, Range(0.9, 1, open_lo=True))
    ridge: float = declared(1e-3, Range(0, open_lo=True))
    differencing: bool = True    # score first differences (kills random walks)
    min_history: int | None = declared(None, Range(1, INT64_MAX))  # vectors before scoring; None -> dim+1

    __post_init__ = check_fields


class JointScorer:
    """Mahalanobis distance under exponentially weighted mean/covariance.

    One kernel serves ``update`` (a block of one vector) and
    :func:`run_joint` (blocks of ``_BLOCK`` vectors).  The mean and
    covariance recursions are elementwise, so the kernel runs the mean as a
    scalar loop per component and the covariance's upper triangle through
    :func:`_decay`, with the IEEE operations of ``mean + (1-lam)*e`` and
    ``lam*cov + (1-lam)*outer(e, e)`` in the same order.  It then solves
    every scored step with one stacked ``np.linalg.solve``, which calls
    LAPACK ``gesv`` once per matrix as a single solve does.
    """

    def __init__(self, config: JointConfig, dim: int):
        if dim < 1:
            raise SpecError("dim must be >= 1")
        self.config = config
        self.dim = dim
        self._min_history = config.min_history or dim + 1
        self._prev: np.ndarray | None = None
        self._mean: list[float] | None = None
        self._i, self._k, self._at = _triangle(dim)
        self._cov = np.zeros(len(self._i))  # the upper triangle, row by row
        self._lam = np.full(len(self._cov), config.forgetting)
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
        keep = 1.0 - self.config.forgetting
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
        E = np.array(errors).T
        covs = _decay(self._cov, keep * (E[:, self._i] * E[:, self._k]), self._lam)
        self._cov = covs[-1]
        first = max(0, self._min_history - self._seen)
        self._seen += len(steps)
        if first < len(steps):
            E = E[first:].copy()
            solved = np.linalg.solve(covs[first:-1, self._at] + self._ridge, E[:, :, None])
            q = np.matmul(E[:, None, :], solved)[:, 0, 0]
            scores[skip + first :] = np.sqrt(np.where(q <= 0.0, 0.0, q))
        return scores


def run_conditional(config: ConditionalConfig, data: CovariateSet) -> ScoreSequence:
    """Conditional scores for the target of ``data``, one per point.

    Steps are gathered through the scorer's offsets and scored by its kernel
    in blocks of up to ``_BLOCK``, fewer as p grows so a block's matrices stay near 1 MB.
    """
    target = data.target.values
    inputs = np.column_stack([target] + [data.covariates[n].values for n in data.names])
    if np.isnan(inputs).any():
        raise InputError("conditional scoring needs gap-free inputs; resample first")
    p, lag = _order(config, len(data.names))
    warmup = lag + p
    if warmup >= len(target) and p > 1:
        # no point is scorable: answer before building anything of the order's
        # size (the scorer refuses p == 1, no regressor besides the intercept)
        return ScoreSequence(np.full(len(target), MISSING), len(target))
    scorer = ConditionalScorer(config, n_covariates=len(data.names))
    scores = np.full(len(target), MISSING)
    rows = max(1, min(_BLOCK, (1 << 17) // (p * p)))
    # steps start at the largest lag, so every offset is in range
    for start in range(lag, len(target), rows):
        steps = np.arange(start, min(start + rows, len(target)))
        z = np.ones((len(steps), p + 1))
        z[:, 1:] = inputs.reshape(-1)[steps[:, None] * scorer._width + scorer._offsets]
        scores[steps] = scorer._block(z, skip=max(0, warmup - start))
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
