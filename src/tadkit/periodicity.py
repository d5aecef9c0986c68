"""Period estimation from a single series, plus a benchmark harness.

Four estimators with very different cost/robustness trade-offs:

- ``detect_period_acf`` — highest sufficiently-prominent ACF peak.
- ``detect_period_peaks`` — first ACF peak that is strictly higher than
  everything after it (skips small spurious early bumps).
- ``detect_period_fft`` — period of the dominant periodogram bin.
- ``detect_period_autoperiod`` — periodogram candidates filtered by a
  permutation-based power threshold, then validated on the ACF by a
  two-segment line fit (the candidate must sit on a rise-then-fall hill).

The ACF-based estimators only consider candidate lags in
``[MIN_CANDIDATE_LAG, MAX_CANDIDATE_LAG)``: shorter lags are treated as
noise ripple and longer ones as trend, which keeps random-walk energy from
hijacking the answer.  The FFT estimator applies the same range to the
candidate periods.

``run_period_benchmark`` draws labeled series from the synthetic generator,
scores every estimator by exact-match accuracy (with a ±1 column on the
side), and includes a shuffled-answers baseline for calibration.
"""

from __future__ import annotations

import os
import time
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

from .core import INT64_MAX, DegenerateScaleError, InputError, Range, SpecError, TimeSeries
from .core import _equal, frozen, refusal
from .datagen import PeriodicGeneratorConfig, generate_periodic

__all__ = [
    "AcfProfile",
    "PeriodEstimate",
    "MethodResult",
    "BenchmarkResult",
    "DEFAULT_METHODS",
    "MIN_CANDIDATE_LAG",
    "MAX_CANDIDATE_LAG",
    "autocorrelation",
    "detect_period_acf",
    "detect_period_peaks",
    "detect_period_fft",
    "detect_period_autoperiod",
    "run_period_benchmark",
]

# Candidate-period convention shared by the estimators (half-open range).
MIN_CANDIDATE_LAG = 10
MAX_CANDIDATE_LAG = 1000

# Shuffle counts autoperiod's threshold and the random baseline take.  A
# count sizes an array before the first shuffle runs, so it is refused above
# this; a million shuffles already rank a percentile to a millionth.
PERMUTATIONS = Range(1, 10**6)
# Generator draws ``run_period_benchmark`` scores, refused above this before
# the first draw: a million draws already read an accuracy to a millionth.
BENCH_SERIES = Range(1, 10**6)

# ACF peaks with less prominence than this (in normalized-ACF units, so the
# scale is [-1, 1]) are treated as noise ripple by ``detect_period_acf``.
_MIN_PROMINENCE = 0.15


def default_max_lag(n: int) -> int:
    return min(n // 2, MAX_CANDIDATE_LAG)


@dataclass(frozen=True)
class AcfProfile:
    """Sample autocorrelation at lags 0..max_lag (index == lag)."""

    values: np.ndarray
    max_lag: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", frozen(self.values, np.float64, "ACF values"))

    __eq__ = _equal


@dataclass(frozen=True)
class PeriodEstimate:
    """An estimator's answer: the period in samples, or None for "no period"."""

    period: int | None
    method: str
    elapsed: float


@lru_cache(maxsize=1)
def _fast_lens() -> tuple[int, ...]:
    """Every 5-smooth integer up to 2**40 (far past any in-memory series), ascending."""
    limit = 1 << 40
    sizes = []
    f5 = 1
    while f5 <= limit:
        f35 = f5
        while f35 <= limit:
            size = f35
            while size <= limit:
                sizes.append(size)
                size *= 2
            f35 *= 3
        f5 *= 5
    return tuple(sorted(sizes))


def _next_fast_len(m: int) -> int:
    """Smallest 5-smooth integer >= m (a fast FFT size for pocketfft)."""
    sizes = _fast_lens()
    return sizes[bisect_left(sizes, m)]


def autocorrelation(series: TimeSeries, max_lag: int | None = None) -> AcfProfile:
    """Biased sample ACF, normalized so lag 0 is exactly 1.

    Computed via FFT in O(n log n); padding to n + max_lag keeps the kept
    lags free of circular wrap-around, so the straightforward O(n*max_lag)
    sum gives the same numbers (tests compare the two routes).
    """
    x = series.values
    n = len(x)
    if np.isnan(x).any():
        raise InputError("autocorrelation needs a gap-free series")
    if max_lag is None:
        max_lag = default_max_lag(n)
    if max_lag < 1:
        raise SpecError(f"max_lag must be >= 1, got {max_lag}")
    if n <= max_lag:
        raise SpecError(f"series length {n} must exceed max_lag {max_lag}")

    xc = x - x.mean()
    nfft = _next_fast_len(n + max_lag + 1)
    f = np.fft.rfft(xc, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[: max_lag + 1]
    if acov[0] <= 0.0:
        raise DegenerateScaleError("constant series has no autocorrelation structure")
    values = acov / acov[0]
    values[0] = 1.0
    return AcfProfile(values=values, max_lag=max_lag)


def _local_maxima(v: np.ndarray, min_index: int) -> np.ndarray:
    """Indices of strict local maxima, plateaus reported at their left edge.

    Works on runs of equal values (NaN equals nothing, so each NaN is a run
    of its own): a run is a peak when it is strictly above the runs on both
    sides, so runs touching either end of the array never count.
    """
    if len(v) < 3:
        return np.empty(0, dtype=np.intp)
    starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    runs = v[starts]
    peaks = starts[1:-1][(runs[1:-1] > runs[:-2]) & (runs[1:-1] > runs[2:])]
    return peaks[peaks >= min_index]


def _prominence(v: np.ndarray, p: int) -> float:
    """Height of peak ``p`` above the higher of its two bases.

    Each base is the minimum between the peak and the nearest position with
    a value >= v[p] on that side (or the array edge).
    """
    vp = v[p]
    head = v[p - 1 :: -1] if p else v[:0]
    mask = head >= vp
    k = int(np.argmax(mask)) if mask.any() else len(head)
    lmin = min(head[:k].min(), vp) if k else vp
    tail = v[p + 1 :]
    mask = tail >= vp
    k = int(np.argmax(mask)) if mask.any() else len(tail)
    rmin = min(tail[:k].min(), vp) if k else vp
    return float(vp - max(lmin, rmin))


def _candidate_peaks(profile: AcfProfile) -> np.ndarray:
    hi = min(MAX_CANDIDATE_LAG, profile.max_lag + 1)
    peaks = _local_maxima(profile.values, MIN_CANDIDATE_LAG)
    return peaks[peaks < hi]


def detect_period_acf(series: TimeSeries, max_lag: int | None = None) -> PeriodEstimate:
    """Candidate-range ACF peak with the highest value, noise ripple excluded.

    Peaks whose prominence falls below 0.15 are skipped, so a broad slow
    undulation with shallow wiggles on top does not produce an answer.
    Returns None when no candidate peak is prominent enough.
    """
    t0 = time.perf_counter()
    period = _pick_acf(autocorrelation(series, max_lag))
    return PeriodEstimate(period, "acf", time.perf_counter() - t0)


def _pick_acf(profile: AcfProfile) -> int | None:
    v = profile.values
    peaks = _candidate_peaks(profile)
    if peaks.size:
        # Cheap upper bound first: a peak's bases can never lie below the
        # running minimum on its side, so most ripple dies without the
        # exact two-sided walk in _prominence.
        bound = v[peaks] - np.maximum(
            np.minimum.accumulate(v)[peaks],
            np.minimum.accumulate(v[::-1])[::-1][peaks],
        )
        peaks = peaks[bound >= _MIN_PROMINENCE]
        # Highest-valued survivor that passes the exact filter; descending
        # value order lets us stop at the first pass.
        for p in peaks[np.argsort(-v[peaks], kind="stable")]:
            if _prominence(v, int(p)) >= _MIN_PROMINENCE:
                return int(p)
    return None


def detect_period_peaks(series: TimeSeries, max_lag: int | None = None) -> PeriodEstimate:
    """First non-dominated ACF peak in the candidate range.

    Non-dominated means the peak's ACF value strictly exceeds every ACF value
    at every larger lag up to max_lag, so a small early bump in front of the
    real periodic peak is skipped rather than returned.
    """
    t0 = time.perf_counter()
    period = _pick_peaks(autocorrelation(series, max_lag))
    return PeriodEstimate(period, "peaks", time.perf_counter() - t0)


def _pick_peaks(profile: AcfProfile) -> int | None:
    v = profile.values
    peaks = _candidate_peaks(profile)
    if peaks.size:
        # suffix[i] = max(v[i:]), so "dominated" is one comparison per peak
        suffix = np.maximum.accumulate(v[::-1])[::-1]
        for p in peaks:
            if p + 1 >= len(v) or v[p] > suffix[p + 1]:
                return int(p)
    return None


def detect_period_fft(series: TimeSeries) -> PeriodEstimate:
    """Period of the dominant periodogram bin within the candidate range.

    The bin's frequency j/n maps to the integer period round(n/j).  Bins
    whose period falls outside [MIN_CANDIDATE_LAG, MAX_CANDIDATE_LAG) are
    ignored; with only mean removal as detrending, low-frequency trend
    energy still leaks into the surviving bins — a known, deliberate
    weakness of this estimator.
    """
    t0 = time.perf_counter()
    x = series.values
    n = len(x)
    if np.isnan(x).any():
        raise InputError("detect_period_fft needs a gap-free series")
    if n < 8:
        raise SpecError(f"series too short for spectral estimation ({n} < 8)")
    xc = x - x.mean()
    if not np.any(xc):
        raise DegenerateScaleError("constant series has no dominant frequency")
    power = np.abs(np.fft.rfft(xc))
    bins = np.arange(1, len(power))
    periods = np.floor(n / bins + 0.5).astype(np.int64)
    ok = (periods >= MIN_CANDIDATE_LAG) & (periods < MAX_CANDIDATE_LAG)
    period = None
    if ok.any():
        j = bins[ok][np.argmax(power[1:][ok])]
        period = int(np.floor(n / j + 0.5))
    return PeriodEstimate(period, "fft", time.perf_counter() - t0)


def _two_line_split(seg: np.ndarray) -> tuple[float, float]:
    """Slopes of the best two-piece straight-line fit to ``seg``.

    Every split point t gets a least-squares line over seg[:t+1] and another
    over seg[t:] (the split point belongs to both); the split with the
    smallest total squared error wins.  The left piece needs >= 3 points and
    the right >= 2.  All splits are evaluated at once from running sums.
    """
    y = seg
    m = len(y)
    x = np.arange(m, dtype=np.float64)
    cx = np.cumsum(x)
    cxx = np.cumsum(x * x)
    cy = np.cumsum(y)
    cxy = np.cumsum(x * y)
    cyy = np.cumsum(y * y)

    t = np.arange(2, m - 1)
    n1 = (t + 1).astype(np.float64)
    sxx1 = cxx[t] - cx[t] ** 2 / n1
    sxy1 = cxy[t] - cx[t] * cy[t] / n1
    syy1 = cyy[t] - cy[t] ** 2 / n1
    slope1 = sxy1 / sxx1
    sse1 = syy1 - sxy1 ** 2 / sxx1

    n2 = (m - t).astype(np.float64)
    sx2 = cx[-1] - cx[t - 1]
    sxx2 = (cxx[-1] - cxx[t - 1]) - sx2 ** 2 / n2
    sy2 = cy[-1] - cy[t - 1]
    sxy2 = (cxy[-1] - cxy[t - 1]) - sx2 * (cy[-1] - cy[t - 1]) / n2
    syy2 = (cyy[-1] - cyy[t - 1]) - sy2 ** 2 / n2
    slope2 = sxy2 / sxx2
    sse2 = syy2 - sxy2 ** 2 / sxx2

    k = int(np.argmin(sse1 + sse2))
    return float(slope1[k]), float(slope2[k])


def detect_period_autoperiod(
    series: TimeSeries,
    max_lag: int | None = None,
    n_permutations: int = 100,
    percentile: float = 99.0,
    seed: int | tuple[int, ...] = 0,
) -> PeriodEstimate:
    """Permutation-thresholded periodogram candidates, validated on the ACF.

    The periodogram is zero-padded to the next power of two.  A candidate
    bin must carry more power than the ``percentile`` of the max power seen
    across ``n_permutations`` shuffles of the series (shuffling destroys
    periodic structure but keeps the value distribution).  Candidates are
    tried in decreasing-power order; each one's period uncertainty range
    (between the neighboring bins) is cut out of the ACF and fit with two
    straight lines.  The first candidate whose best split rises then falls
    — a genuine hill — wins, refined to the ACF argmax inside the range.
    """
    t0 = time.perf_counter()
    for problem in (refusal("n_permutations", n_permutations, int, PERMUTATIONS, None),
                    refusal("percentile", percentile, float, Range(0, 100), None)):
        if problem is not None:
            raise SpecError(problem)
    x = series.values
    n = len(x)
    if np.isnan(x).any():
        raise InputError("detect_period_autoperiod needs a gap-free series")
    if n < 8:
        raise SpecError(f"series too short for spectral estimation ({n} < 8)")
    if max_lag is None:
        # No candidate-range cap here: validation segments may sit anywhere
        # below n/2, and the hill test itself rejects trend lags.
        max_lag = n // 2

    acf = autocorrelation(series, max_lag).values  # raises on constant input

    xc = x - x.mean()
    nf = 1 << int(n).bit_length()
    power = np.abs(np.fft.rfft(xc, nf)) ** 2

    entropy = list(seed) if isinstance(seed, tuple) else [int(seed)]
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    max_powers = np.empty(n_permutations)
    for i in range(n_permutations):
        shuffled = rng.permutation(xc)
        max_powers[i] = (np.abs(np.fft.rfft(shuffled, nf)) ** 2)[1:].max()
    threshold = float(np.percentile(max_powers, percentile))

    hints = np.nonzero(power[1:] > threshold)[0] + 1
    hints = hints[np.argsort(-power[hints], kind="stable")]

    period = None
    for j in hints:
        lo = max(2, int(np.floor(nf / (j + 1))))
        hi = int(np.ceil(nf / (j - 1))) if j > 1 else max_lag
        hi = min(hi, max_lag)
        if hi - lo + 1 < 5:
            continue
        seg = acf[lo : hi + 1]
        up, down = _two_line_split(seg)
        if up > 0.0 and down < 0.0:
            period = lo + int(np.argmax(seg))
            break
    return PeriodEstimate(period, "autoperiod", time.perf_counter() - t0)


DEFAULT_METHODS = ("peaks", "acf", "autoperiod", "fft", "random")

# the ACF methods pick from one profile, which the benchmark computes once per draw
_ACF_PICKERS = {"acf": _pick_acf, "peaks": _pick_peaks}


@dataclass(frozen=True)
class MethodResult:
    method: str
    accuracy: float
    accuracy_within_1: float
    mean_runtime_s: float


@dataclass(frozen=True)
class BenchmarkResult:
    n_series: int
    seed: int
    results: tuple[MethodResult, ...]


def _bench_one(
    config: PeriodicGeneratorConfig, index: int, methods: tuple[str, ...]
) -> tuple[int, dict[str, tuple[int | None, float]]]:
    """One draw's ``(true period, {method: (period, elapsed)})``.

    An ACF method's elapsed is the shared profile's time plus its own pick,
    so each still reads as the cost of running that method alone.
    """
    drawn = generate_periodic(config, index)
    out: dict[str, tuple[int | None, float]] = {}
    profile = None
    for m in methods:
        if m == "autoperiod":
            est = detect_period_autoperiod(drawn.series, seed=(config.seed, index, 1))
            out[m] = (est.period, est.elapsed)
        elif m == "fft":
            est = detect_period_fft(drawn.series)
            out[m] = (est.period, est.elapsed)
        elif m in _ACF_PICKERS:
            if profile is None:
                t0 = time.perf_counter()
                profile = autocorrelation(drawn.series)
                profile_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            period = _ACF_PICKERS[m](profile)
            out[m] = (period, profile_s + time.perf_counter() - t0)
    return drawn.true_period, out


def run_period_benchmark(
    n_series: int,
    config: PeriodicGeneratorConfig | None = None,
    methods: tuple[str, ...] = DEFAULT_METHODS,
    threads: int = 1,
    random_permutations: int = 100,
) -> BenchmarkResult:
    """Accuracy / runtime table over ``n_series`` generator draws.

    Per-series work is keyed by series index, so the thread count changes
    wall-clock time but never the numbers.  It starts at most one worker
    process per series and per CPU.  The ``random`` baseline answers
    by permuting the true periods across series; its accuracy is averaged
    over ``random_permutations`` shuffles and its runtime reported as 0.
    """
    counts = {"n_series": (n_series, BENCH_SERIES), "threads": (threads, Range(1, INT64_MAX)),
              "random_permutations": (random_permutations, PERMUTATIONS)}
    for name, (count, numbers) in counts.items():
        if (problem := refusal(name, count, int, numbers, None)) is not None:
            raise SpecError(problem)
    config = config or PeriodicGeneratorConfig()
    if not methods:
        raise SpecError("methods must name at least one period method")
    if len(set(methods)) != len(methods):
        raise SpecError(f"methods must not repeat, got {methods!r}")
    for m in methods:
        if m not in DEFAULT_METHODS:
            raise SpecError(f"unknown period method {m!r}")

    workers = min(threads, n_series, os.cpu_count() or 1)
    if workers > 1:
        # imported here: it loads multiprocessing, which no other task needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_one, repeat(config), range(n_series), repeat(methods),
                                 chunksize=max(1, n_series // (8 * workers))))
    else:
        rows = [_bench_one(config, i, methods) for i in range(n_series)]

    true_periods = np.array([r[0] for r in rows], dtype=np.int64)
    results = []
    for m in methods:
        if m == "random":
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xA11]))
            accs = np.empty(random_permutations)
            accs1 = np.empty(random_permutations)
            for i in range(random_permutations):
                shuffled = true_periods[rng.permutation(n_series)]
                accs[i] = np.mean(shuffled == true_periods)
                accs1[i] = np.mean(np.abs(shuffled - true_periods) <= 1)
            results.append(MethodResult(m, float(accs.mean()), float(accs1.mean()), 0.0))
            continue
        est = np.array(
            [r[1][m][0] if r[1][m][0] is not None else -1 for r in rows], dtype=np.int64
        )
        elapsed = float(np.mean([r[1][m][1] for r in rows]))
        acc = float(np.mean(est == true_periods))
        acc1 = float(np.mean(np.abs(est - true_periods) <= 1))
        results.append(MethodResult(m, acc, acc1, elapsed))
    return BenchmarkResult(n_series=n_series, seed=config.seed, results=tuple(results))
