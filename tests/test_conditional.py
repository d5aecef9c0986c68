"""Conditional (regression-residual) and joint (Mahalanobis) scorers.

The conditional scorer's recursion is checked against a brute-force oracle
that re-solves the exponentially weighted ridge normal equations

    theta_k = argmin  sum_s lam^(k-s) (y_s - a_s.theta)^2 + lam^k * ridge * |theta|^2

from scratch at every step.  The scorer accumulates the same sums
recursively and the oracle re-weights them each step, so agreement is to
tolerance, not bit-level.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from tadkit import conditional
from tadkit.core import CovariateSet, InputError, SpecError, TimeSeries
from tadkit.conditional import (
    ConditionalConfig,
    ConditionalScorer,
    JointConfig,
    JointScorer,
    _solve,
    run_conditional,
    run_joint,
)


def _series(values):
    return TimeSeries(0, 3600, np.asarray(values, dtype=float))


def _dataset(target, **covariates):
    return CovariateSet(
        target=_series(target),
        covariates={k: _series(v) for k, v in covariates.items()},
    )


def brute_conditional(config, target, cov_matrix):
    """Re-solve the weighted least-squares problem at every step."""
    ar, clags = config.ar_order, config.covariate_lags
    ncov = cov_matrix.shape[1]
    p = 1 + ar + ncov * (1 + clags)
    max_lag = max(ar, clags)
    lam = config.forgetting
    scores = np.full(len(target), np.nan)
    samples: list[tuple[np.ndarray, float]] = []
    scale = 0.0
    for t in range(len(target)):
        if t < max_lag:
            continue
        a = np.empty(p)
        a[0] = 1.0
        pos = 1
        for i in range(ar):
            a[pos] = target[t - 1 - i]
            pos += 1
        for c in range(ncov):
            a[pos] = cov_matrix[t, c]
            pos += 1
            for i in range(clags):
                a[pos] = cov_matrix[t - 1 - i, c]
                pos += 1
        k = len(samples)
        A = lam**k * config.ridge * np.eye(p)
        b = np.zeros(p)
        for j, (a_j, y_j) in enumerate(samples):
            w = lam ** (k - 1 - j)
            A += w * np.outer(a_j, a_j)
            b += w * a_j * y_j
        theta = np.linalg.solve(A, b)
        err = target[t] - float(theta @ a)
        if t >= max_lag + p:
            scores[t] = abs(err) / max(scale, config.scale_floor)
        samples.append((a, float(target[t])))
        scale = lam * scale + (1.0 - lam) * abs(err)
    return scores


def test_recursion_matches_the_per_step_normal_equations():
    rng = np.random.default_rng(21)
    n = 110
    y = np.sin(np.arange(n) / 5.0) + 0.2 * rng.standard_normal(n)
    z = rng.standard_normal(n)
    x = 1.5 * y - 0.7 * z + 0.1 * rng.standard_normal(n)
    config = ConditionalConfig(
        ar_order=2, covariate_lags=1, forgetting=0.99, ridge=1e-2
    )
    got = run_conditional(config, _dataset(x, temp=y, load=z))
    expected = brute_conditional(config, x, np.column_stack([y, z]))
    assert got.warmup == max(2, 1) + (1 + 2 + 2 * 2)
    assert np.isnan(got.scores[: got.warmup]).all()
    np.testing.assert_allclose(
        got.scores[got.warmup :], expected[got.warmup :], rtol=1e-6, atol=1e-8
    )


def test_oracle_agreement_without_covariates():
    rng = np.random.default_rng(22)
    x = np.cumsum(rng.standard_normal(90)) * 0.3
    config = ConditionalConfig(ar_order=3, forgetting=0.995, ridge=1e-3)
    got = run_conditional(config, _dataset(x))
    expected = brute_conditional(config, x, np.zeros((len(x), 0)))
    np.testing.assert_allclose(
        got.scores[got.warmup :], expected[got.warmup :], rtol=1e-6, atol=1e-8
    )


def test_a_held_relationship_scores_low_and_a_break_scores_high():
    rng = np.random.default_rng(23)
    n = 300
    y = 10.0 + 3.0 * np.sin(np.arange(n) / 12.0) + 0.1 * rng.standard_normal(n)
    x = 2.0 * y + 0.05 * rng.standard_normal(n)
    x[220] += 6.0  # the relationship breaks at one point
    scores = run_conditional(ConditionalConfig(forgetting=0.99), _dataset(x, temp=y))
    assert int(np.nanargmax(scores.scores)) == 220
    others = np.delete(scores.scores[scores.warmup :], 220 - scores.warmup)
    assert scores.scores[220] > 10 * np.median(others)


def test_heatwave_is_jointly_but_not_conditionally_surprising():
    rng = np.random.default_rng(24)
    n = 400
    temp = 20.0 + 5.0 * np.sin(np.arange(n) / 20.0) + 0.3 * rng.standard_normal(n)
    temp[350:360] += 12.0  # heatwave lifts temperature...
    sales = 3.0 * temp + 0.5 * rng.standard_normal(n)  # ...and sales follow suit
    data = _dataset(sales, temp=temp)

    conditional = run_conditional(ConditionalConfig(forgetting=0.99), data)
    joint = run_joint(JointConfig(forgetting=0.99), data)

    window = slice(350, 360)
    cond_base = np.median(conditional.scores[conditional.warmup : 350])
    joint_base = np.median(joint.scores[joint.warmup : 350])
    # the linear relationship held, so the conditional view stays calm
    assert np.max(conditional.scores[window]) < 6 * cond_base + 6
    # the level shift itself is far outside the joint history
    assert np.max(joint.scores[window]) > 10 * joint_base


def brute_joint(config, matrix):
    lam = config.forgetting
    dim = matrix.shape[1]
    min_history = config.min_history or dim + 1
    scores = np.full(len(matrix), np.nan)
    mean = None
    cov = np.zeros((dim, dim))
    seen = 0
    prev = None
    for t in range(len(matrix)):
        if config.differencing:
            if prev is None:
                prev = matrix[t]
                continue
            d = matrix[t] - prev
            prev = matrix[t]
        else:
            d = matrix[t]
        if seen >= min_history:
            e = d - mean
            sigma = cov + config.ridge * np.eye(dim)
            scores[t] = np.sqrt(max(0.0, float(e @ np.linalg.solve(sigma, e))))
        if mean is None:
            mean = d.copy()
        else:
            e = d - mean
            mean = mean + (1 - lam) * e
            cov = lam * cov + (1 - lam) * np.outer(e, e)
        seen += 1
    return scores


def test_joint_scores_match_the_reference_loop():
    rng = np.random.default_rng(25)
    n = 150
    a = np.cumsum(rng.standard_normal(n))
    b = 0.5 * a + rng.standard_normal(n)
    config = JointConfig(forgetting=0.98)
    got = run_joint(config, _dataset(a, other=b))
    expected = brute_joint(config, np.column_stack([a, b]))
    assert np.array_equal(got.scores, expected, equal_nan=True)
    assert got.warmup == 3 + 1  # min_history dim+1, plus one for differencing


def _joint_corpus_matrix(dim, kind, n=513, seed=0):
    rng = np.random.default_rng(seed + 10 * dim)
    walk = np.cumsum(rng.standard_normal((n, dim)), axis=0)
    if kind == "rounded":
        return np.round(walk, 1)
    if kind == "tied":
        return rng.integers(0, 3, size=(n, dim)).astype(float)
    if kind == "constant_covariate":
        walk[:, -1] = 4.0
    return walk


@pytest.mark.parametrize("kind", ["walk", "rounded", "tied", "constant_covariate"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_joint_scores_match_the_reference_loop_on_a_corpus(dim, kind):
    # block edges sit at 256 and 512; the reference loop is prefix-consistent,
    # so one run of it serves every length
    matrix = _joint_corpus_matrix(dim, kind)
    columns = [matrix[:, j] for j in range(dim)]
    for differencing in (True, False):
        for min_history in (1, 7, 600):
            for forgetting in (0.95, 0.999, 1.0):
                config = JointConfig(
                    forgetting=forgetting, differencing=differencing, min_history=min_history
                )
                expected = brute_joint(config, matrix)
                for n in (0, 1, 2, 255, 256, 257, 513):
                    data = _dataset(columns[0][:n], **{f"c{j}": c[:n] for j, c in enumerate(columns[1:])})
                    got = run_joint(config, data).scores
                    assert np.array_equal(got, expected[:n], equal_nan=True), (config, n)


@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize(
    "config",
    [JointConfig(), JointConfig(differencing=False, min_history=300), JointConfig(forgetting=0.95)],
)
def test_joint_update_loop_equals_run_joint(dim, config):
    # update feeds the kernel blocks of one vector, run_joint blocks of 256
    matrix = _joint_corpus_matrix(dim, "walk", n=600, seed=1)
    scorer = JointScorer(config, dim=dim)
    looped = np.array([scorer.update(row) for row in matrix])
    data = _dataset(matrix[:, 0], **{f"c{j}": matrix[:, j] for j in range(1, dim)})
    assert looped.tobytes() == run_joint(config, data).scores.tobytes()


@pytest.mark.parametrize(
    "ar_order, n_covariates",
    [(ar, ncov) for ar in range(4) for ncov in range(4) if ar + ncov >= 1],
)
def test_run_conditional_equals_an_update_loop(ar_order, n_covariates):
    rng = np.random.default_rng(31 + 4 * ar_order + n_covariates)
    n = 300
    covariates = np.cumsum(rng.standard_normal((n, n_covariates)), axis=0)
    target = covariates.sum(axis=1) + np.cumsum(rng.standard_normal(n)) * 0.3
    for covariate_lags in (0, 1, 2):
        config = ConditionalConfig(ar_order=ar_order, covariate_lags=covariate_lags, forgetting=0.99)
        scorer = ConditionalScorer(config, n_covariates=n_covariates)
        looped = np.array([scorer.update(x, row) for x, row in zip(target, covariates)])
        for length in (0, 1, 2, 5, n):
            data = _dataset(
                target[:length], **{f"c{c}": covariates[:length, c] for c in range(n_covariates)}
            )
            got = run_conditional(config, data).scores
            assert got.tobytes() == looped[:length].tobytes(), (covariate_lags, length)


def _degenerate_corpus(n=600):
    t = np.arange(n)
    wave = np.sin(t / 3.0)  # exactly w_t = 2cos(1/3)·w_{t-1} - w_{t-2}, so its lags are collinear
    walk = np.cumsum(np.random.default_rng(32).standard_normal(n))
    yield "covariate_is_the_target", ConditionalConfig(), walk, [walk]
    yield "ar2_covariate", ConditionalConfig(covariate_lags=2), walk, [wave]
    yield "constant_target", ConditionalConfig(ar_order=3), np.full(n, 2.5), [wave]
    yield "all_zero", ConditionalConfig(), np.zeros(n), [np.zeros(n)]
    # the intercept and a constant 4 are exactly collinear once the ridge term has decayed
    yield "constant_covariate", ConditionalConfig(forgetting=0.91), walk, [np.full(n, 4.0)]


_DEGENERATE = pytest.mark.parametrize(
    "config, target, covariates",
    [case[1:] for case in _degenerate_corpus()],
    ids=[case[0] for case in _degenerate_corpus()],
)


@_DEGENERATE
@pytest.mark.parametrize("forgetting", [None, 0.95, 1.0])
def test_update_loop_equals_run_conditional_on_degenerate_inputs(config, target, covariates, forgetting):
    if forgetting is not None:
        config = replace(config, forgetting=forgetting)
    scorer = ConditionalScorer(config, n_covariates=len(covariates))
    with np.errstate(all="ignore"):
        looped = np.array([scorer.update(x, row) for x, row in zip(target, np.column_stack(covariates))])
        got = run_conditional(config, _dataset(target, **{f"c{i}": c for i, c in enumerate(covariates)}))
    assert got.scores.tobytes() == looped.tobytes()
    assert np.isfinite(got.scores[got.warmup :]).all()


@pytest.mark.parametrize("n", [9, 10, 11])
def test_a_warmup_that_covers_the_series_matches_the_update_loop(n):
    # ar 3 and 2 covariate lags give p = 7 and a largest lag of 3: warmup 10
    config = ConditionalConfig(ar_order=3, covariate_lags=2)
    rng = np.random.default_rng(n)
    target, cov = rng.standard_normal(n), rng.standard_normal(n)
    scorer = ConditionalScorer(config, n_covariates=1)
    looped = np.array([scorer.update(x, (c,)) for x, c in zip(target, cov)])
    got = run_conditional(config, _dataset(target, c=cov))
    assert got.scores.tobytes() == looped.tobytes() and got.warmup == min(scorer.warmup, n) == min(10, n)


@pytest.mark.parametrize("order", [dict(ar_order=10**18), dict(covariate_lags=10**18), dict(ar_order=2**63 - 1)])
def test_an_order_past_the_series_is_all_warmup_before_allocating(order):
    got = run_conditional(ConditionalConfig(**order), _dataset(np.arange(300.0), c=np.ones(300)))
    assert got.warmup == 300 and np.isnan(got.scores).all()
    # no regressor besides the intercept is still refused, however short the series
    with pytest.raises(SpecError, match="at least one regressor"):
        run_conditional(ConditionalConfig(ar_order=0), _dataset(np.arange(3.0)))


@_DEGENERATE
def test_block_size_does_not_change_a_bit(monkeypatch, config, target, covariates):
    data = _dataset(target, **{f"c{i}": c for i, c in enumerate(covariates)})
    runs = []
    for block in (1, 7, 256):
        monkeypatch.setattr(conditional, "_BLOCK", block)
        with np.errstate(all="ignore"):
            runs.append(run_conditional(config, data).scores.tobytes())
    assert runs[0] == runs[1] == runs[2]


def test_a_constant_covariate_does_not_wind_up():
    # recursive least squares divides its inverse by the forgetting factor each
    # step, so along the intercept-covariate direction it grows by 1/0.91 a
    # step until it overflows; the normal equations stay bounded
    n = 10_000
    target = np.cumsum(np.random.default_rng(33).standard_normal(n))
    config = ConditionalConfig(forgetting=0.91)
    with np.errstate(all="ignore"):
        scores = run_conditional(config, _dataset(target, c=np.full(n, 4.0)))
    assert np.isfinite(scores.scores[scores.warmup :]).all()
    assert scores.warmup == 2 + 4


def test_a_singular_system_takes_the_least_squares_solution_and_none_raises():
    A = np.array([np.eye(3), [[1.0, 2, 0], [2, 4, 0], [0, 0, 1]], [[np.inf, 0, 0], [0, 1, 1], [0, 1, 1]]])
    b = np.array([[1.0, 2, 3]] * 3)
    with np.errstate(all="ignore"):
        theta = _solve(A, b)
    assert theta[0].tolist() == [1.0, 2.0, 3.0]
    assert theta[1].tobytes() == np.linalg.lstsq(A[1], b[1], rcond=None)[0].tobytes()
    assert np.isnan(theta[2]).all()


def test_joint_distances_look_chi_distributed_on_gaussian_steps():
    rng = np.random.default_rng(26)
    walk = np.cumsum(rng.standard_normal((2000, 3)), axis=0)
    data = _dataset(walk[:, 0], b=walk[:, 1], c=walk[:, 2])
    scores = run_joint(JointConfig(forgetting=0.99), data).scores
    tail = scores[500:]
    expected_median = np.sqrt(stats.chi2.ppf(0.5, df=3))
    assert expected_median * 0.75 < np.median(tail) < expected_median * 1.35


def test_both_scorers_are_prefix_consistent():
    rng = np.random.default_rng(27)
    n = 120
    y = rng.standard_normal(n)
    x = 0.8 * y + 0.1 * rng.standard_normal(n)
    full_data = _dataset(x, y=y)
    cut_data = _dataset(x[:70], y=y[:70])
    for run, config in (
        (run_conditional, ConditionalConfig(forgetting=0.99)),
        (run_joint, JointConfig(forgetting=0.99)),
    ):
        full = run(config, full_data).scores
        cut = run(config, cut_data).scores
        assert np.array_equal(full[:70], cut, equal_nan=True)


_RUNS = [
    (run_conditional, ConditionalConfig()),
    (run_conditional, ConditionalConfig(ar_order=0, covariate_lags=2)),
    (run_joint, JointConfig()),
    (run_joint, JointConfig(differencing=False)),
    (run_joint, JointConfig(min_history=5)),
]
_RUN_IDS = ["conditional", "conditional_lagged_covariate", "joint", "joint_undifferenced",
            "joint_min_history"]


@pytest.mark.parametrize("run, config", _RUNS, ids=_RUN_IDS)
def test_declared_warmup_is_the_leading_sentinel_run_on_ordinary_input(run, config):
    rng = np.random.default_rng(28)
    y = rng.standard_normal(16)
    x = 0.8 * y + 0.1 * rng.standard_normal(16)
    for n in range(len(x) + 1):
        out = run(config, _dataset(x[:n], y=y[:n]))
        real = np.nonzero(~np.isnan(out.scores))[0]
        assert out.warmup == (int(real[0]) if real.size else n), n


_OVERFLOWING = pytest.mark.parametrize(
    "target",
    [np.r_[np.zeros(60), 1e308, -1e308, np.zeros(58)], np.array([1e308, -1e308] * 60)],
    ids=["adjacent_pair", "alternation"],
)


@pytest.mark.parametrize("run, config", _RUNS, ids=_RUN_IDS)
@_OVERFLOWING
def test_an_overflowing_score_past_the_warmup_raises(run, config, target):
    # finite input whose arithmetic overflows must not pass for warmup or for a score of 0
    data = _dataset(target, y=np.arange(len(target)) % 7.0)
    with np.errstate(all="ignore"), pytest.raises(InputError, match="past the warmup"):
        run(config, data)


@pytest.mark.parametrize("run, config", _RUNS, ids=_RUN_IDS)
@_OVERFLOWING
def test_update_raises_on_an_overflowing_score_past_the_warmup(run, config, target):
    # the per-point scorers refuse what their run drivers refuse
    conditional = run is run_conditional
    scorer = ConditionalScorer(config, n_covariates=1) if conditional else JointScorer(config, dim=2)
    with np.errstate(all="ignore"), pytest.raises(InputError, match="past the warmup"):
        for x, y in zip(target.tolist(), (np.arange(len(target)) % 7.0).tolist()):
            score = scorer.update(x, (y,)) if conditional else scorer.update((x, y))
            assert np.isfinite(score) == (scorer.count > scorer.warmup)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(ar_order=-1),
            dict(covariate_lags=-1),
            dict(forgetting=0.5),
            dict(forgetting=1.01),
            dict(ridge=0.0),
            dict(scale_floor=0.0),
        ],
    )
    def test_conditional_config(self, kwargs):
        with pytest.raises(SpecError):
            ConditionalConfig(**kwargs)

    def test_need_some_regressor(self):
        with pytest.raises(SpecError):
            ConditionalScorer(ConditionalConfig(ar_order=0), n_covariates=0)

    def test_covariate_count_is_checked_each_step(self):
        scorer = ConditionalScorer(ConditionalConfig(), n_covariates=2)
        with pytest.raises(InputError):
            scorer.update(1.0, covariates=(1.0,))

    def test_non_finite_inputs_are_rejected(self):
        scorer = ConditionalScorer(ConditionalConfig(), n_covariates=1)
        with pytest.raises(InputError):
            scorer.update(float("nan"), covariates=(1.0,))
        with pytest.raises(InputError):
            scorer.update(1.0, covariates=(float("inf"),))

    def test_gaps_must_be_resampled_away_first(self):
        x = np.ones(50)
        y = np.ones(50)
        y[10] = np.nan
        with pytest.raises(InputError, match="resample"):
            run_conditional(ConditionalConfig(), _dataset(x, y=y))
        with pytest.raises(InputError, match="resample"):
            run_joint(JointConfig(), _dataset(x, y=y))

    @pytest.mark.parametrize("run, config", [
        (run_conditional, ConditionalConfig()),
        (run_joint, JointConfig()),
    ])
    @pytest.mark.parametrize("column", ["target", "covariate"])
    def test_run_drivers_reject_non_finite_inputs(self, run, config, column):
        x = np.ones(50)
        y = np.arange(50.0)
        (x if column == "target" else y)[30] = np.inf
        with pytest.raises(InputError, match="infinities"):
            _dataset(x, y=y)
        (x if column == "target" else y)[30] = np.nan
        with pytest.raises(InputError, match="resample first"):
            run(config, _dataset(x, y=y))

    @pytest.mark.parametrize(
        "kwargs",
        [dict(forgetting=0.2), dict(ridge=-1.0), dict(min_history=0)],
    )
    def test_joint_config(self, kwargs):
        with pytest.raises(SpecError):
            JointConfig(**kwargs)

    def test_joint_dimension_is_checked(self):
        scorer = JointScorer(JointConfig(), dim=2)
        with pytest.raises(InputError):
            scorer.update((1.0, 2.0, 3.0))
        with pytest.raises(SpecError):
            JointScorer(JointConfig(), dim=0)
