import concurrent.futures

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tadkit import periodicity
from tadkit.core import DegenerateScaleError, InputError, SpecError, TimeSeries
from tadkit.datagen import PeriodicGeneratorConfig, generate_periodic
from tadkit.periodicity import (
    DEFAULT_METHODS,
    MAX_CANDIDATE_LAG,
    MIN_CANDIDATE_LAG,
    PERMUTATIONS,
    _bench_one,
    _local_maxima,
    _next_fast_len,
    autocorrelation,
    default_max_lag,
    detect_period_acf,
    detect_period_autoperiod,
    detect_period_fft,
    detect_period_peaks,
    run_period_benchmark,
)


def brute_acf(values: np.ndarray, max_lag: int) -> np.ndarray:
    """Direct O(n * max_lag) biased autocorrelation."""
    x = values - values.mean()
    n = len(x)
    acov0 = float(np.dot(x, x)) / n
    out = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        out[lag] = (float(np.dot(x[: n - lag], x[lag:])) / n) / acov0
    return out


def oracle_local_maxima(v: np.ndarray, min_index: int) -> list[int]:
    """The former scalar plateau scan: strict local maxima, plateaus at their left edge."""
    n = len(v)
    peaks: list[int] = []
    i = 1
    while i < n:
        if v[i] > v[i - 1]:
            j = i
            while j + 1 < n and v[j + 1] == v[i]:
                j += 1
            if j + 1 < n and v[j + 1] < v[i]:
                if i >= min_index:
                    peaks.append(i)
            i = j + 1
        else:
            i += 1
    return peaks


def test_local_maxima_match_the_plateau_scan_on_tie_heavy_arrays():
    rng = np.random.default_rng(20)
    draws = {
        "integers": lambda n: rng.integers(0, 4, n).astype(float),
        "tenths": lambda n: np.round(rng.random(n), 1),
        "nan_and_inf": lambda n: rng.choice([0.0, 1.0, 2.0, np.nan, np.inf, -np.inf], n),
        "distinct": lambda n: rng.standard_normal(n),
    }
    for draw in draws.values():
        for _ in range(2500):
            v = draw(int(rng.integers(0, 41)))
            min_index = int(rng.integers(0, 5))
            got = _local_maxima(v, min_index)
            assert got.dtype == np.intp
            assert got.tolist() == oracle_local_maxima(v, min_index), (v.tolist(), min_index)


def test_next_fast_len_is_the_smallest_5_smooth_size():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    expected = 1
    for m in range(1, 5001):
        while expected < m or not smooth(expected):
            expected += 1
        assert _next_fast_len(m) == expected, m


def _series(values):
    return TimeSeries(0, 60, np.asarray(values, dtype=float))


def _sine(n, period, amplitude=1.0, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return _series(amplitude * np.sin(2 * np.pi * t / period) + noise * rng.standard_normal(n))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=30, max_value=400),
)
def test_autocorrelation_matches_brute_force(seed, n):
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.standard_normal(n))  # correlated, non-degenerate
    max_lag = min(n - 1, 50)
    profile = autocorrelation(_series(values), max_lag=max_lag)
    np.testing.assert_allclose(profile.values, brute_acf(values, max_lag), atol=1e-9)


def test_autocorrelation_lag_zero_is_one():
    profile = autocorrelation(_sine(200, 20), max_lag=40)
    assert profile.values[0] == 1.0
    assert len(profile.values) == 41


def test_autocorrelation_guards():
    with pytest.raises(DegenerateScaleError):
        autocorrelation(_series(np.full(50, 3.0)), max_lag=10)
    with pytest.raises(SpecError):
        autocorrelation(_series(np.arange(10.0)), max_lag=10)  # lag >= n
    with pytest.raises(SpecError):
        autocorrelation(_series(np.arange(10.0)), max_lag=0)
    with pytest.raises(InputError):
        autocorrelation(_series([1.0, np.nan, 2.0]), max_lag=1)


def test_default_max_lag_is_half():
    assert default_max_lag(100) == 50
    assert default_max_lag(101) == 50


def test_clean_sine_is_recovered_by_every_method():
    series = _sine(600, 50)
    assert detect_period_peaks(series).period == 50
    assert detect_period_acf(series).period == 50
    assert detect_period_fft(series).period == 50
    assert detect_period_autoperiod(series, seed=0).period in (49, 50, 51)


def test_noisy_sine_is_recovered_by_acf_and_peaks():
    series = _sine(2000, 120, amplitude=3.0, noise=1.0, seed=4)
    # noise jitters the ACF maximum by at most a lag here
    assert detect_period_peaks(series).period in (119, 120, 121)
    assert detect_period_acf(series).period in (119, 120, 121)


def test_estimates_respect_candidate_range():
    for seed in range(10):
        drawn = generate_periodic(PeriodicGeneratorConfig(seed=77), seed)
        for detect in (detect_period_peaks, detect_period_acf, detect_period_fft):
            estimate = detect(drawn.series)
            if estimate.period is not None:
                assert MIN_CANDIDATE_LAG <= estimate.period < MAX_CANDIDATE_LAG


def test_monotone_series_yields_no_answer():
    # a ramp's autocorrelation decays without local maxima, so there is
    # no candidate peak to report
    ramp = _series(np.arange(400, dtype=float))
    assert detect_period_peaks(ramp).period is None
    assert detect_period_acf(ramp).period is None


def test_autoperiod_is_deterministic_given_seed():
    series = _sine(1500, 90, noise=0.5, seed=2)
    a = detect_period_autoperiod(series, seed=123)
    b = detect_period_autoperiod(series, seed=123)
    assert a.period == b.period


@pytest.mark.parametrize("arguments, message", [
    ({"n_permutations": 0}, "n_permutations must be an integer in [1, 1000000], got 0"),
    ({"n_permutations": -3}, "n_permutations must be an integer"),
    ({"n_permutations": 2.0}, "n_permutations must be an integer"),
    ({"n_permutations": True}, "n_permutations must be an integer"),
    ({"percentile": 150}, "percentile must be a finite number in [0, 100], got 150"),
    ({"percentile": -0.5}, "percentile must be a finite number in [0, 100]"),
    ({"percentile": float("nan")}, "percentile must be a finite number in [0, 100]"),
    ({"percentile": "99"}, "percentile must be a finite number in [0, 100]"),
], ids=["permutations_zero", "permutations_negative", "permutations_float", "permutations_bool",
        "percentile_150", "percentile_negative", "percentile_nan", "percentile_string"])
def test_autoperiod_refuses_bad_permutation_arguments(arguments, message):
    with pytest.raises(SpecError) as refused:
        detect_period_autoperiod(_sine(200, 20), **arguments)
    assert str(refused.value).startswith(message)


@pytest.mark.parametrize("count", [PERMUTATIONS.hi + 1, 10**18, 2**63 - 1])
def test_permutation_counts_above_the_maximum_are_refused_before_allocating(count):
    # each count sizes an array before the first shuffle; 10**18 floats are 8 EB
    assert PERMUTATIONS.hi == 10**6
    with pytest.raises(SpecError, match=r"n_permutations must be an integer in \[1, 1000000\]"):
        detect_period_autoperiod(_sine(200, 20), n_permutations=count)
    with pytest.raises(SpecError, match=r"random_permutations must be an integer in \[1, 1000000\]"):
        run_period_benchmark(1, methods=("random",), random_permutations=count)


def test_autoperiod_takes_the_ends_of_its_argument_ranges():
    series = _sine(200, 20)
    for arguments in ({"n_permutations": 1}, {"percentile": 0}, {"percentile": 100.0}):
        assert detect_period_autoperiod(series, **arguments).method == "autoperiod"


def test_elapsed_is_recorded():
    estimate = detect_period_peaks(_sine(400, 40))
    assert estimate.elapsed >= 0.0


def test_benchmark_structure_and_determinism():
    config = PeriodicGeneratorConfig(seed=0)
    result = run_period_benchmark(40, config=config)
    assert result.n_series == 40
    assert {r.method for r in result.results} == {"peaks", "acf", "autoperiod", "fft", "random"}
    for row in result.results:
        assert 0.0 <= row.accuracy <= 1.0
        assert row.accuracy <= row.accuracy_within_1
    assert result.by_method("random").accuracy < 0.1
    again = run_period_benchmark(40, config=config)
    assert [(r.method, r.accuracy) for r in again.results] == [
        (r.method, r.accuracy) for r in result.results
    ]


def test_benchmark_thread_count_does_not_change_numbers():
    config = PeriodicGeneratorConfig(seed=5)
    serial = run_period_benchmark(16, config=config)
    parallel = run_period_benchmark(16, config=config, threads=2)
    assert [(r.method, r.accuracy, r.accuracy_within_1) for r in serial.results] == [
        (r.method, r.accuracy, r.accuracy_within_1) for r in parallel.results
    ]


@pytest.mark.parametrize(
    "threads, n_series, cpus, workers",
    [(10**9, 3, 8, 3), (10**9, 12, 2, 2), (4, 12, 8, 4), (8, 1, 8, None), (8, 12, None, None)],
)
def test_benchmark_starts_at_most_one_worker_per_series_and_cpu(
    monkeypatch, threads, n_series, cpus, workers
):
    # a stand-in pool records its size and maps in this process, so no worker is started
    made = []

    class Pool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    config = PeriodicGeneratorConfig(seed=6)
    serial = run_period_benchmark(n_series, config=config, methods=("fft", "random"))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(periodicity.os, "cpu_count", lambda: cpus)
    capped = run_period_benchmark(n_series, config=config, methods=("fft", "random"), threads=threads)
    assert made == ([] if workers is None else [workers])
    assert [(r.method, r.accuracy, r.accuracy_within_1) for r in capped.results] == [
        (r.method, r.accuracy, r.accuracy_within_1) for r in serial.results
    ]


def test_benchmark_rejects_unknown_method():
    with pytest.raises(SpecError):
        run_period_benchmark(4, methods=("peaks", "nope"))


@pytest.mark.parametrize("methods", [DEFAULT_METHODS, ("acf", "fft"), ("fft", "peaks", "acf"), ("peaks",)])
def test_benchmark_answers_match_the_public_detectors_draw_by_draw(methods):
    config = PeriodicGeneratorConfig(seed=7, length_range=(60, 2000))
    public = {
        "peaks": detect_period_peaks,
        "acf": detect_period_acf,
        "fft": detect_period_fft,
    }
    for index in range(12):
        true_period, answers = _bench_one(config, index, methods)
        drawn = generate_periodic(config, index)
        assert true_period == drawn.true_period
        assert set(answers) == set(methods) - {"random"}
        for method, (period, elapsed) in answers.items():
            if method == "autoperiod":
                expected = detect_period_autoperiod(drawn.series, seed=(config.seed, index, 1))
            else:
                expected = public[method](drawn.series)
            assert period == expected.period, (index, method)
            assert elapsed > 0.0
