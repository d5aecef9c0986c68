"""Streaming anomaly scorers with a strict prefix-only contract.

Every detector consumes one point per ``update`` call and emits one score
per call — a NaN sentinel for the ``warmup`` it declares, a finite value >= 0
after; a score that overflows past the warmup raises :class:`InputError`.
The central law is prefix consistency: the score emitted at step t depends
only on the first t points and the config, so streaming over a truncated
series reproduces the full run bit for bit.  Anything that could break
that (refit schedules, window resolution) is keyed to the update index,
never to wall clock or external state.

Four methods spanning the explainability spectrum:

- ``spectral_residual`` — saliency of the newest point in the trailing
  window's log-amplitude spectrum.
- ``ewma_residual`` — forecast error of an exponentially weighted mean,
  scaled by an exponentially weighted absolute deviation.
- ``left_discord`` — z-normalized distance from the newest window to its
  nearest non-overlapping earlier window.
- ``kmeans_window`` — distance from the newest window to the nearest
  centroid of periodically refit window clusters.

``run_batch`` adapts each method to fit-once-on-everything semantics for
the batch evaluation protocol.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from math import ceil, isfinite, sqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    INT64_MAX,
    MISSING,
    DegenerateScaleError,
    InputError,
    Range,
    ScoreSequence,
    SpecError,
    TimeSeries,
    check_fields,
    declared,
)
from .periodicity import detect_period_peaks

__all__ = [
    "DetectorConfig",
    "StreamingDetector",
    "make_detector",
    "run_streaming",
    "run_batch",
    "METHODS",
]

METHODS = ("spectral_residual", "ewma_residual", "left_discord", "kmeans_window")

# Guard for log(0) on exactly-zero spectrum bins.
_LOG_EPS = 1e-12
# Relative-saliency denominator guard.
_SAL_EPS = 1e-8
# Window standard deviations at or below this use the raw-distance fallback.
_ZNORM_EPS = 1e-12
# Windows ``run_streaming`` scores per spectral-residual kernel call: enough
# to amortize the per-call overhead, few enough that memory stays flat.
# Of 32, 48, 64 and 96 rows, 96 ran fastest at windows 32 and 128.
_SR_BLOCK_ROWS = 96
# Extrapolated points appended to each spectral-residual window.
_SR_PAD_POINTS = 5
# Terms from which OpenBLAS's x86-64 ddot, behind np.convolve, adds in SIMD lanes.
_SIMD_DOT_TERMS = 16


@dataclass(frozen=True)
class DetectorConfig:
    """Configuration shared by all detector methods.

    ``window`` may be the string "auto", in which case the detector buffers
    ``auto_resolve_at`` points, estimates the dominant period of that prefix,
    and uses it as the window from then on (``auto_fallback`` when no period
    is found).  Resolution happens at a fixed update index, so it is as
    prefix-consistent as everything else.
    """

    method: str = declared("spectral_residual", choices=METHODS)
    window: int | str = declared(128, Range(2, INT64_MAX), ("auto",))
    alpha: float = declared(0.1, Range(0, 1, open_lo=True))  # ewma smoothing factor
    scale_floor: float = declared(1e-9, Range(0, open_lo=True))  # minimum denominator for scaled residuals
    sr_ma_width: int = declared(3, Range(1, INT64_MAX))  # moving-average width on the log spectrum
    n_clusters: int = declared(4, Range(1, INT64_MAX))
    refit_cadence: int | None = declared(None, Range(1, INT64_MAX))  # kmeans refit period; None -> window
    auto_resolve_at: int = declared(256, Range(3, INT64_MAX))  # prefix length at which "auto" resolves
    auto_fallback: int = declared(125, Range(2, INT64_MAX))  # window when no period is detectable

    def __post_init__(self) -> None:
        check_fields(self)
        if self.method == "spectral_residual" and self.window != "auto":
            _check_ma_width(int(self.window), self.sr_ma_width, _SR_PAD_POINTS)


def _pad_count(n: int, pad_points: int) -> int:
    """Pad points a window of ``n`` gets: the slopes reach back from the second-newest point."""
    return max(0, min(pad_points, n - 2))


def _check_ma_width(n: int, ma_width: int, pad_points: int) -> None:
    extended = n + _pad_count(n, pad_points)
    if ma_width > extended:
        raise SpecError(
            f"sr_ma_width {ma_width} is wider than the {extended}-point extended window"
        )


class StreamingDetector(ABC):
    """One-in-one-out scorer over a single stream.

    Instances are single-stream and not safe for concurrent updates, but
    they are independent and may be moved between threads; the harness runs
    one instance per series.
    """

    def __init__(self, config: DetectorConfig):
        self.config = config
        self.count = 0

    @property
    @abstractmethod
    def warmup(self) -> int:
        """Number of leading sentinel scores before the first real one."""

    def _score(self, x: float) -> float:
        """Consume one point, return its score (MISSING while warming up).

        ``update`` calls it; a detector that scores in ``update`` itself has none.
        """
        raise NotImplementedError

    def update(self, x: float) -> float:
        if not isfinite(x):
            raise InputError(f"detector input must be finite, got {x!r}")
        self.count += 1
        score = self._score(float(x))
        if not isfinite(score) and self.count > self.warmup:
            raise InputError("scores past the warmup must be finite")
        return score


class _WindowStore:
    """Every completed ``w``-point window of a series, one row of ``rows[:n]``
    each, with its mean ``mu`` and standard deviation ``sd``, taken once, when
    the window completes.  Batch passes ``values``; streaming ``push``es.

    The first w - 1 pushed points wait in a list, and the rows are built with
    the w-th as batch builds them, so a window longer than the stream
    allocates nothing of its size."""

    def __init__(self, w: int, values: np.ndarray | None = None):
        self._w, self.n, self._head = w, 0, []
        if values is not None:
            self._take(values)

    def _take(self, values: np.ndarray) -> None:
        rows = sliding_window_view(values, self._w).copy()
        self.rows, self.mu, self.sd = rows, rows.mean(axis=1), rows.std(axis=1)
        self.n = len(rows)

    def push(self, x: float) -> None:
        """Complete row ``n`` with ``x``, from the w-th point on."""
        n = self.n
        if not n:
            self._head.append(x)
            if len(self._head) == self._w:
                self._take(np.array(self._head))
            return
        if n == len(self.rows):
            self.rows, self.mu, self.sd = (np.concatenate([a, a]) for a in (self.rows, self.mu, self.sd))
        row = self.rows[n]
        row[:-1] = self.rows[n - 1, 1:]
        row[-1] = x
        # np.mean and np.std, spelled out to skip their per-call overhead
        mu = np.add.reduce(row) / len(row)
        dev = row - mu
        self.mu[n], self.sd[n] = mu, sqrt(np.add.reduce(dev * dev) / len(row))
        self.n = n + 1


class _SaliencyKernel:
    """Spectral-residual saliency of equal-length windows: one as a 1-D array,
    or a block of them as the rows of a 2-D one.

    Each window is extended by extrapolated pad points.  Its spectral
    residual is the log-amplitude spectrum minus its moving average
    (edge-normalized, so a flat log spectrum has residual exactly zero).
    Each bin becomes exp(residual)·z/|z|, which is exp(residual + i·phase)
    without taking the phase; an exactly-zero bin takes arctan2's phasor,
    (copysign(1, z.real), 0).  The inverse FFT's magnitude is the saliency
    of each original point.  Every step indexes the last axis only:
    a block shares one FFT, one inverse FFT and one pass of each elementwise
    step, yet each row comes out bit for bit as if scored alone, so ``update``
    (one window), ``run_streaming`` (blocks) and ``run_batch`` agree.

    The kernel owns scratch for ``rows`` windows: the extended windows, as
    the real part of a complex array whose imaginary part stays 0, so the FFT
    reads them without a cast; the spectrum, its amplitude, the residual, the
    moving sums and the pad gradients.  A call takes the views it needs of
    that scratch, built at the first call of each input shape, and every step
    writes into them through ``out=``, the inverse FFT in place, so a call
    allocates no array of the window's size.  The saliency it returns is such
    a view, overwritten by the next call.  Scratch is not state: a kernel
    pickles as its constructor arguments and builds its scratch anew.
    """

    def __init__(self, n: int, ma_width: int, pad_points: int, rows: int = 1):
        _check_ma_width(n, ma_width, pad_points)
        self.n, self._args = n, (n, ma_width, pad_points, rows)
        self._m = m = _pad_count(n, pad_points)
        self._steps = np.arange(1.0, m + 1)
        self._ma_kernel = np.ones(ma_width)
        # term counts, exact in any order, so one np.convolve gives the bits _moving_sums would
        self._ma_denominator = np.convolve(np.ones(n + m), self._ma_kernel, "same")
        # flat, so that a 1-D window and a block of rows view them alike
        size = rows * (n + m)
        self._scratch = (np.zeros(size, dtype=np.complex128), np.empty(size, dtype=np.complex128),
                         np.empty(size), np.empty(size), np.empty(size), np.empty(rows * m))
        self._views: dict[tuple[int, ...], tuple] = {}

    def __reduce__(self):
        return type(self), self._args

    def _views_of(self, shape: tuple[int, ...]) -> tuple:
        """The scratch views that windows of ``shape`` use."""
        n, m = self.n, self._m
        lead = shape[:-1]
        k = shape[0] if lead else 1
        windows, z, amp, residual, sums = (a[: k * (n + m)].reshape(*lead, n + m) for a in self._scratch[:5])
        grads = self._scratch[5][: k * m].reshape(*lead, m)
        ext = windows.real
        # the grads' operands: the second-newest point and the m before it, newest first
        operands = ext[..., n - 2 : n - 1], ext[..., n - 2 - m : n - 2][..., ::-1]
        slices = _shifted_slices(residual, sums, len(self._ma_kernel))
        self._views[shape] = views = (
            windows, ext, ext[..., :n], *operands, ext[..., n:], grads, z, amp, residual, sums, slices, amp[..., :n]
        )
        return views

    def __call__(self, windows: np.ndarray) -> np.ndarray:
        """Saliency of ``windows``: ``n`` points, or at most ``rows`` rows of ``n``."""
        n, m = self.n, self._m
        views = self._views.get(windows.shape) or self._views_of(windows.shape)
        extended, ext, head, newest, earlier, pads, grads, z, amp, residual, sums, slices, sal = views
        head[...] = windows
        if m > 0:
            # The pad estimate must not see the newest point, or a spike there
            # would drag the pads to its own level and hide itself.
            np.divide(np.subtract(newest, earlier, out=grads), self._steps, out=grads)
            # .T[i] is ext[..., i] for one window or a block, but for one window
            # a scalar, whose arithmetic skips the array machinery (so sal.T[-1])
            pads[...] = (ext.T[n - 1 - m] + np.add.reduce(grads, axis=-1) / m * m)[..., None]
        np.abs(np.fft.fft(extended, axis=-1, out=z), out=amp)
        np.log(np.maximum(amp, _LOG_EPS, out=residual), out=residual)
        sums = _moving_sums(residual, self._ma_kernel, sums, slices)
        np.subtract(residual, np.divide(sums, self._ma_denominator, out=sums), out=residual)
        if not amp.all():
            # an exactly-zero bin keeps the phasor arctan2 gives it
            zero = amp == 0.0
            z[zero] = np.copysign(1.0, z.real[zero])
            amp[zero] = 1.0
        # exp(residual + i·phase) is exp(residual)·z/|z|
        np.multiply(z, np.divide(np.exp(residual, out=residual), amp, out=residual), out=z)
        np.abs(np.fft.ifft(z, axis=-1, out=z), out=amp)
        return sal

    def newest_scores(self, windows: np.ndarray) -> np.ndarray:
        """Relative saliency of the newest (last) point of each window, floored at 0; NaN stays NaN."""
        sal = self(windows)
        mean_sal = np.add.reduce(sal, axis=-1) / self.n
        return np.maximum((sal.T[-1] - mean_sal) / (mean_sal + _SAL_EPS), 0.0)


def _shifted_slices(rows: np.ndarray, sums: np.ndarray, width: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (``sums`` slice, ``rows`` slice) pairs, one per shift of a ``width``-term moving sum."""
    n, slices = rows.shape[-1], []
    for shift in range(-(width // 2), width - width // 2):
        if shift < 0:
            slices.append((sums[..., -shift:], rows[..., : n + shift]))
        else:
            slices.append((sums[..., : n - shift], rows[..., shift:]))
    return slices


def _moving_sums(rows: np.ndarray, ones: np.ndarray, sums: np.ndarray | None = None,
                 slices: list | None = None) -> np.ndarray:
    """``np.convolve(row, ones, "same")`` of each row (the last axis) of ``rows``; ``ones`` is all 1.0.

    The sums go into ``sums`` when given, an array of ``rows``' shape, and
    ``slices``, when given, are ``_shifted_slices(rows, sums, len(ones))``.

    Below ``_SIMD_DOT_TERMS`` terms, one row or a block adds the shifted
    slices onto zeros in index order, edges truncated; from it, each row goes
    through ``np.convolve``.  The path depends on the width alone, so one
    window and a block of windows get the same bits on any BLAS.  The slices
    match ``np.convolve`` bit for bit where its ``ddot`` adds fewer than 16
    terms one at a time, as OpenBLAS's x86-64 kernel does; ``ddot`` adds
    longer ones in SIMD lanes, whose sums can differ in the last bit.
    """
    n, width = rows.shape[-1], len(ones)
    sums = np.empty(rows.shape) if sums is None else sums
    if width >= _SIMD_DOT_TERMS:
        for row, out in zip(rows.reshape(-1, n), sums.reshape(-1, n)):
            out[:] = np.convolve(row, ones, mode="same")
        return sums
    sums.fill(0.0)
    for dst, src in slices or _shifted_slices(rows, sums, width):
        np.add(dst, src, out=dst)
    return sums


class _SpectralResidualDetector(StreamingDetector):
    """Holds 2·w values: when the buffer fills, its last w - 1 move to the front.

    The first w - 1 points wait in a list; the buffer and the kernel are built
    with the w-th, so a window longer than the stream allocates nothing of its size.
    """

    def __init__(self, config: DetectorConfig):
        super().__init__(config)
        self._w = int(config.window)
        self._kernel: _SaliencyKernel | None = None
        self._buf: list[float] | np.ndarray = []
        self._n = 0

    @property
    def warmup(self) -> int:
        return self._w - 1

    def _score(self, x: float) -> float:
        w, n = self._w, self._n
        if n == len(self._buf):
            if self.count < w:
                self._buf.append(x)
                self._n = n + 1
                return MISSING
            if self._kernel is None:
                self._kernel = _SaliencyKernel(w, self.config.sr_ma_width, _SR_PAD_POINTS)
                self._buf = np.concatenate([self._buf, np.empty(w + 1)])
            else:
                self._buf[: w - 1] = self._buf[n - w + 1 :]
                n = w - 1
        self._buf[n] = x
        self._n = n = n + 1
        return float(self._kernel.newest_scores(self._buf[n - w : n]))


class _EwmaResidualDetector(StreamingDetector):
    """Scores in ``update`` itself, one call per point, with both of its checks."""

    def __init__(self, config: DetectorConfig):
        super().__init__(config)
        self._mean = None
        self._scale = 0.0
        self._resid_count = 0
        self._resid_sum = 0.0
        # one EW span's worth of residuals before the scale stands alone
        self._calibration = ceil(1.0 / config.alpha)
        self._alpha = config.alpha
        self._keep = 1.0 - config.alpha
        self._floor = config.scale_floor

    @property
    def warmup(self) -> int:
        return 1

    def update(self, x: float) -> float:
        if not isfinite(x):
            raise InputError(f"detector input must be finite, got {x!r}")
        self.count += 1
        x = float(x)
        mean = self._mean
        if mean is None:
            self._mean = x
            return MISSING
        a, floor = self._alpha, self._floor
        resid = x - mean
        r = abs(resid)
        self._resid_count = count = self._resid_count + 1
        if count <= self._calibration:
            # a scale estimated from a handful of residuals is one unlucky
            # draw away from making the ratio arbitrary, so the current
            # residual takes part in its own normalization at first; this
            # caps early scores at the step count instead of 1/floor
            self._resid_sum = total = self._resid_sum + r
            scale = total / count
        else:
            scale = self._scale
        # max(scale, floor), which keeps a NaN scale
        score = r / (floor if floor > scale else scale)
        self._mean = mean + a * resid
        self._scale = r if count == 1 else self._keep * self._scale + a * r
        if not isfinite(score):  # every score after the first point is past the warmup
            raise InputError("scores past the warmup must be finite")
        return score


class _LeftDiscordDetector(StreamingDetector):
    def __init__(self, config: DetectorConfig):
        super().__init__(config)
        self._w = int(config.window)
        self._windows = _WindowStore(self._w)

    @property
    def warmup(self) -> int:
        return 2 * self._w - 1

    def _score(self, x: float) -> float:
        self._windows.push(x)
        w = self._w
        if self.count < 2 * w:
            return MISSING
        return _nearest_window_distance(self._windows, self._windows.n - 1, slice(self._windows.n - w))


def _nearest_window_distance(windows: _WindowStore, q: int, pool: slice | np.ndarray) -> float:
    """Distance from row ``q`` of ``windows`` to its nearest row in ``pool``.

    Pairs are compared z-normalized; any pair where either side has ~zero
    standard deviation falls back to the raw Euclidean distance for that
    pair (z-normalizing a flat window would be 0/0).  A standard deviation
    that overflowed makes the distance NaN, not a plain number.
    """
    query, q_mu, q_sd = windows.rows[q], windows.mu[q], windows.sd[q]
    candidates, c_mu, c_sd = windows.rows[pool], windows.mu[pool], windows.sd[pool]
    if not (isfinite(q_sd) and np.isfinite(c_sd).all()):
        return np.nan
    degenerate = (c_sd <= _ZNORM_EPS) | (q_sd <= _ZNORM_EPS)
    best = np.inf
    if not degenerate.all():
        fine = ~degenerate if degenerate.any() else slice(None)  # a mask would copy every row
        zq = (query - q_mu) / q_sd
        # ||zc - zq||^2 = 2w - 2 zc.zq because both sides have norm sqrt(w)
        dots = (candidates[fine] @ zq - c_mu[fine] * zq.sum()) / c_sd[fine]
        d2 = (2.0 * len(query) - 2.0 * dots).min()
        best = float(np.sqrt(0.0 if d2 <= 0.0 else d2))
    if degenerate.any():
        d2 = ((candidates[degenerate] - query) ** 2).sum(axis=1)
        best = min(best, float(np.sqrt(d2.min())))
    return best


def _maximin_centers(windows: np.ndarray, k: int) -> np.ndarray:
    """Deterministic k-means++-style seeding without randomness.

    The first center is the window farthest from the population mean; each
    subsequent center is the window farthest from all chosen centers.
    Ties break toward the lowest index.
    """
    chosen = [int(np.argmax(((windows - windows.mean(axis=0)) ** 2).sum(axis=1)))]
    min_d2 = np.inf
    while len(chosen) < k:
        min_d2 = np.minimum(min_d2, ((windows - windows[chosen[-1]]) ** 2).sum(axis=1))
        chosen.append(int(np.argmax(min_d2)))
    return windows[chosen]


def _lloyd(windows: np.ndarray, centers: np.ndarray, max_iter: int = 50) -> np.ndarray:
    """Plain Lloyd iterations; empty clusters grab the farthest point."""
    k = len(centers)
    assign = None
    for _ in range(max_iter):
        d2 = _center_distances(windows, centers)
        new_assign = d2.argmin(axis=1)
        nearest = d2[np.arange(len(windows)), new_assign]
        for c in range(k):
            members = windows[new_assign == c]
            if len(members):
                centers[c] = members.mean(axis=0)
            else:
                stray = int(np.argmax(nearest))
                centers[c] = windows[stray]
                new_assign[stray] = c
                nearest[stray] = 0.0
        if assign is not None and np.array_equal(assign, new_assign):
            break
        assign = new_assign
    return centers


def _fit_centers(windows: np.ndarray, k: int) -> np.ndarray:
    """k centers of ``windows``: maximin seeding, then Lloyd iterations."""
    return _lloyd(windows, _maximin_centers(windows, k))


def _center_distances(windows: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distance from each window (row) to each center (column)."""
    return ((windows[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


class _KmeansWindowDetector(StreamingDetector):
    def __init__(self, config: DetectorConfig):
        super().__init__(config)
        self._w = int(config.window)
        self._windows = _WindowStore(self._w)
        self._k = config.n_clusters
        self._cadence = config.refit_cadence or self._w
        self._centers: np.ndarray | None = None

    @property
    def warmup(self) -> int:
        return self._k * self._w - 1

    def _score(self, x: float) -> float:
        self._windows.push(x)
        w, k = self._w, self._k
        if self.count < k * w:
            return MISSING
        rows, n = self._windows.rows, self._windows.n
        if (self.count - k * w) % self._cadence == 0:
            self._centers = _fit_centers(rows[:n], k)
        return float(np.sqrt(_center_distances(rows[n - 1 : n], self._centers).min()))


class _AutoWindowDetector(StreamingDetector):
    """Buffers a prefix, resolves the window from its dominant period, then
    replays the buffer into the real detector.

    Sentinels cover the buffering phase; the inner detector may extend the
    warmup further (its own sentinel phase replays inside the buffer, and
    any real scores it would have produced there are discarded — they were
    already reported as sentinels, and re-reporting would break
    one-in-one-out).
    """

    def __init__(self, config: DetectorConfig):
        super().__init__(config)
        self._inner: StreamingDetector | None = None
        self._pending: list[float] = []

    @property
    def warmup(self) -> int:
        # the resolving update itself already reports a real score when the
        # inner detector's sentinel phase fits inside the buffered prefix
        resolve_at = self.config.auto_resolve_at
        if self._inner is None:
            return resolve_at - 1
        return max(resolve_at - 1, self._inner.warmup)

    def _score(self, x: float) -> float:
        if self._inner is not None:
            return self._inner.update(x)
        self._pending.append(x)
        if self.count < self.config.auto_resolve_at:
            return MISSING
        prefix = TimeSeries(start=0, interval=1, values=np.asarray(self._pending))
        self._inner = make_detector(replace(self.config, window=_resolve_window(self.config, prefix)))
        last = MISSING
        for v in self._pending:
            last = self._inner.update(v)
        self._pending = []
        return last


_DETECTORS = {
    "spectral_residual": _SpectralResidualDetector,
    "ewma_residual": _EwmaResidualDetector,
    "left_discord": _LeftDiscordDetector,
    "kmeans_window": _KmeansWindowDetector,
}


def make_detector(config: DetectorConfig) -> StreamingDetector:
    if config.window == "auto":
        return _AutoWindowDetector(config)
    return _DETECTORS[config.method](config)


def run_streaming(config: DetectorConfig, series: TimeSeries) -> ScoreSequence:
    """Score every point of ``series`` as a fresh streaming detector would.

    Fixed-window spectral residual scores blocks of trailing windows through
    the detector's kernel instead of one ``update`` per point.
    """
    values = series.values
    if np.isnan(values).any():
        raise InputError("detectors need a gap-free series; resample first")
    det = make_detector(config)
    if config.method == "spectral_residual" and config.window != "auto":
        scores = _spectral_residual_stream(config, values)
    else:
        scores = np.array([det.update(x) for x in values.tolist()], dtype=np.float64)
    return ScoreSequence(scores, min(det.warmup, len(values)))


def _spectral_residual_stream(config: DetectorConfig, values: np.ndarray) -> np.ndarray:
    """What ``update`` returns at every point, scored ``_SR_BLOCK_ROWS`` windows at a time."""
    w = int(config.window)
    scores = np.full(len(values), MISSING, dtype=np.float64)
    if len(values) >= w:
        windows = sliding_window_view(values, w)
        kernel = _SaliencyKernel(w, config.sr_ma_width, _SR_PAD_POINTS, min(_SR_BLOCK_ROWS, len(windows)))
        for start in range(0, len(windows), _SR_BLOCK_ROWS):
            block = windows[start : start + _SR_BLOCK_ROWS]
            scores[w - 1 + start : w - 1 + start + len(block)] = kernel.newest_scores(block)
    return scores


def run_batch(config: DetectorConfig, series: TimeSeries) -> ScoreSequence:
    """Fit once on the whole series, score every point.

    Used only by the batch evaluation protocol; the streaming contract does
    not apply here (later points may influence earlier scores).
    """
    values = series.values
    if np.isnan(values).any():
        raise InputError("detectors need a gap-free series; resample first")
    n = len(values)
    method = config.method
    scores = np.full(n, MISSING, dtype=np.float64)
    warmup = 0
    if method == "spectral_residual":
        if n:
            kernel = _SaliencyKernel(n, config.sr_ma_width, _SR_PAD_POINTS)
            sal = kernel(values)
            mean_sal = float(np.add.reduce(sal) / n)
            np.subtract(sal, mean_sal, out=scores)
            np.maximum(0.0, np.divide(scores, mean_sal + _SAL_EPS, out=scores), out=scores)
    elif method == "ewma_residual":
        a = config.alpha
        resid = np.empty(n)
        mean = 0.0
        for i, x in enumerate(values):
            resid[i] = 0.0 if i == 0 else x - mean
            mean = x if i == 0 else mean + a * resid[i]
        scale = max(float(np.abs(resid).mean()) if n else 0.0, config.scale_floor)
        # an overflowed scale would read every score as 0
        scores = np.abs(resid) / (scale if isfinite(scale) else np.nan)
    elif method == "left_discord":
        w = _resolve_window(config, series)
        # from 3w - 1 points on, every window has one it does not overlap
        warmup = w - 1 if n >= 3 * w - 1 else n
        if warmup < n:
            windows = _WindowStore(w, values)
            for s in range(windows.n):
                pool = np.r_[: max(0, s - w + 1), s + w : windows.n]
                scores[s + w - 1] = _nearest_window_distance(windows, s, pool)
    else:  # kmeans_window
        w, k = _resolve_window(config, series), config.n_clusters
        warmup = w - 1 if n >= k * w else n
        if warmup < n:
            windows = _WindowStore(w, values).rows
            centers = _fit_centers(windows, k)
            scores[w - 1 :] = np.sqrt(_center_distances(windows, centers).min(axis=1))
    return ScoreSequence(scores, warmup)


def _resolve_window(config: DetectorConfig, series: TimeSeries) -> int:
    """The window ``config`` gives a window method on ``series``.

    An "auto" window is the dominant period of ``series``, or
    ``auto_fallback`` when it has none: the whole series in batch, the
    buffered prefix when streaming.
    """
    if config.window != "auto":
        return int(config.window)
    try:
        period = detect_period_peaks(series).period
    except (SpecError, DegenerateScaleError):
        period = None
    return int(period) if period is not None else config.auto_fallback
