"""Left discord and k-means read one window store, bit for bit as before.

The oracles below rebuild each method's input the way it was built before
the store existed: a fresh ``sliding_window_view`` of the prefix per
streaming step, an ``np.delete`` copy of every other window per batch
discord point, and each candidate's statistics recomputed per query.  The
store must give the same bytes, so the comparisons use ``tobytes()``.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from tadkit.core import TimeSeries
from tadkit.detectors import (
    _ZNORM_EPS,
    DetectorConfig,
    _center_distances,
    _fit_centers,
    _WindowStore,
    run_batch,
    run_streaming,
)


def nearest_window_distance(query: np.ndarray, candidates: np.ndarray) -> float:
    """Distance from ``query`` to its nearest candidate window.

    Pairs are compared z-normalized; any pair where either side has ~zero
    standard deviation falls back to the raw Euclidean distance for that
    pair (z-normalizing a flat window would be 0/0).
    """
    w = len(query)
    q_mu = query.mean()
    q_sd = query.std()
    c_mu = candidates.mean(axis=1)
    c_sd = candidates.std(axis=1)

    degenerate = (c_sd <= _ZNORM_EPS) | (q_sd <= _ZNORM_EPS)
    best = np.inf
    if not degenerate.all():
        zq = (query - q_mu) / q_sd
        rows = candidates[~degenerate]
        # ||zc - zq||^2 = 2w - 2 zc.zq because both sides have norm sqrt(w)
        dots = (rows @ zq - c_mu[~degenerate] * zq.sum()) / c_sd[~degenerate]
        d2 = (2.0 * w - 2.0 * dots).min()
        best = float(np.sqrt(0.0 if d2 <= 0.0 else d2))
    if degenerate.any():
        rows = candidates[degenerate]
        d2 = ((rows - query) ** 2).sum(axis=1)
        best = min(best, float(np.sqrt(d2.min())))
    return best


def discord_stream_oracle(values, w):
    out = np.full(len(values), np.nan)
    for t in range(2 * w, len(values) + 1):
        out[t - 1] = nearest_window_distance(values[t - w : t], sliding_window_view(values[: t - w], w))
    return out


def discord_batch_oracle(values, w):
    out = np.full(len(values), np.nan)
    windows = sliding_window_view(values, w)
    for s in range(len(windows)):
        pool = np.delete(windows, slice(max(0, s - w + 1), s + w), axis=0)
        out[s + w - 1] = nearest_window_distance(windows[s], pool)
    return out


def kmeans_stream_oracle(values, w, k, cadence):
    out = np.full(len(values), np.nan)
    for t in range(k * w, len(values) + 1):
        windows = sliding_window_view(values[:t], w)
        if (t - k * w) % cadence == 0:
            centers = _fit_centers(windows.copy(), k)
        out[t - 1] = np.sqrt(_center_distances(windows[-1:], centers).min())
    return out


def kmeans_batch_oracle(values, w, k):
    out = np.full(len(values), np.nan)
    windows = sliding_window_view(values, w)
    out[w - 1 :] = np.sqrt(_center_distances(windows, _fit_centers(windows.copy(), k)).min(axis=1))
    return out


def _values(w, seed):
    """Noise with a flat run, a constant run and an exact repeat, each longer than ``w``."""
    rng = np.random.default_rng(seed)
    n = 6 * w + 20
    values = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2)
    values[w : 2 * w + 1] = 0.0
    values[3 * w : 4 * w + 2] = 1.5
    values[n - w - 3 :] = values[w + 3 : 2 * w + 6]
    return values


def _same_bytes(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


@pytest.mark.parametrize("w", [2, 3, 8, 32])
def test_pushed_store_is_the_batch_store(w):
    values = _values(w, seed=w)
    streamed = _WindowStore(w)
    for x in values.tolist():
        streamed.push(x)
    batch = _WindowStore(w, values)
    n = batch.n
    assert streamed.n == n == len(values) - w + 1
    assert _same_bytes(streamed.rows[:n], batch.rows)
    assert _same_bytes(streamed.mu[:n], batch.mu) and _same_bytes(streamed.sd[:n], batch.sd)
    assert _same_bytes(batch.mu, batch.rows.mean(axis=1)) and _same_bytes(batch.sd, batch.rows.std(axis=1))


@pytest.mark.parametrize("w", [2, 3, 8, 32])
@pytest.mark.parametrize("seed", [0, 1])
def test_left_discord_matches_the_per_step_oracle_bit_for_bit(w, seed):
    values = _values(w, seed)
    config = DetectorConfig(method="left_discord", window=w)
    assert _same_bytes(run_streaming(config, TimeSeries(0, 1, values)).scores,
                       discord_stream_oracle(values, w))
    assert _same_bytes(run_batch(config, TimeSeries(0, 1, values)).scores, discord_batch_oracle(values, w))


@pytest.mark.parametrize("w", [2, 3, 8, 32])
@pytest.mark.parametrize("k, cadence", [(1, None), (3, 2)])
def test_kmeans_matches_the_sliding_view_oracle_bit_for_bit(w, k, cadence):
    values = _values(w, seed=k)
    config = DetectorConfig(method="kmeans_window", window=w, n_clusters=k, refit_cadence=cadence)
    assert _same_bytes(run_streaming(config, TimeSeries(0, 1, values)).scores,
                       kmeans_stream_oracle(values, w, k, cadence or w))
    assert _same_bytes(run_batch(config, TimeSeries(0, 1, values)).scores, kmeans_batch_oracle(values, w, k))
