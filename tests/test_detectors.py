import math
import pickle

import numpy as np
import pytest

from tadkit import detectors
from tadkit.core import InputError, SpecError, TimeSeries
from tadkit.detectors import (
    _SR_BLOCK_ROWS,
    _SR_PAD_POINTS,
    METHODS,
    DetectorConfig,
    _SaliencyKernel,
    _moving_sums,
    make_detector,
    run_batch,
    run_streaming,
)


def _series(values):
    return TimeSeries(0, 60, np.asarray(values, dtype=float))


def _spiky_series(n=300, spike_at=220, seed=7):
    rng = np.random.default_rng(seed)
    values = np.sin(np.arange(n) / 8.0) + 0.05 * rng.standard_normal(n)
    values[spike_at] += 6.0
    return _series(values), spike_at


def test_config_validation():
    with pytest.raises(SpecError):
        DetectorConfig(method="unknown")
    with pytest.raises(SpecError):
        DetectorConfig(window=1)
    with pytest.raises(SpecError):
        DetectorConfig(window=True)
    with pytest.raises(SpecError):
        DetectorConfig(window="sometimes")
    with pytest.raises(SpecError):
        DetectorConfig(alpha=0.0)
    with pytest.raises(SpecError):
        DetectorConfig(n_clusters=0)
    with pytest.raises(SpecError):
        DetectorConfig(refit_cadence=0)
    for bad in (0.0, -1e-9):
        with pytest.raises(SpecError, match="scale_floor"):
            DetectorConfig(scale_floor=bad)
    with pytest.raises(SpecError, match="sr_ma_width"):
        DetectorConfig(sr_ma_width=0)
    with pytest.raises(SpecError, match="auto_resolve_at"):
        DetectorConfig(auto_resolve_at=2)
    with pytest.raises(SpecError, match="auto_fallback"):
        DetectorConfig(auto_fallback=1)


def test_update_rejects_non_finite():
    det = make_detector(DetectorConfig(method="ewma_residual"))
    with pytest.raises(InputError):
        det.update(float("nan"))
    with pytest.raises(InputError):
        det.update(float("inf"))


@pytest.mark.parametrize("method", METHODS)
def test_one_in_one_out_and_warmup_shape(method):
    config = DetectorConfig(method=method, window=8, n_clusters=2)
    series = _series(np.sin(np.arange(120) / 3.0))
    out = run_streaming(config, series)
    assert len(out) == len(series)
    assert out.warmup == make_detector(config).warmup
    assert np.isnan(out.scores[: out.warmup]).all()
    assert np.isfinite(out.scores[out.warmup :]).all()


def test_run_streaming_rejects_gaps():
    holed = TimeSeries(0, 60, np.array([1.0, np.nan, 2.0]))
    with pytest.raises(InputError):
        run_streaming(DetectorConfig(method="ewma_residual"), holed)


@pytest.mark.parametrize("method", METHODS)
def test_run_batch_rejects_gaps(method):
    holed = _series(np.r_[np.sin(np.arange(40) / 3.0), np.nan, np.zeros(10)])
    with pytest.raises(InputError, match="resample first"):
        run_batch(DetectorConfig(method=method, window=8, n_clusters=2), holed)


# --- spectral residual -------------------------------------------------------


def test_sr_constant_series_scores_zero():
    config = DetectorConfig(method="spectral_residual", window=32)
    out = run_streaming(config, _series(np.full(100, 4.0)))
    assert np.all(out.scores[out.warmup :] <= 1e-6)


def test_sr_scores_are_nonnegative():
    series, _ = _spiky_series()
    out = run_streaming(DetectorConfig(method="spectral_residual", window=64), series)
    assert np.all(out.scores[out.warmup :] >= 0.0)


def test_sr_spike_is_the_top_score():
    series, spike_at = _spiky_series()
    out = run_streaming(DetectorConfig(method="spectral_residual", window=64), series)
    assert int(np.nanargmax(out.scores)) == spike_at


def test_sr_batch_finds_the_spike_too():
    series, spike_at = _spiky_series()
    out = run_batch(DetectorConfig(method="spectral_residual", window=64), series)
    assert out.warmup == 0
    assert int(np.argmax(out.scores)) == spike_at


def _extended_spectrum(values, ma_width, pad_points):
    """The window extended by its pad points, that extension's spectrum and its spectral residual."""
    n = len(values)
    m = min(pad_points, n - 2)
    if m > 0:
        base = values[:-1]
        grads = (base[-1] - base[-1 - m : -1][::-1]) / np.arange(1, m + 1)
        ext = np.concatenate([values, np.full(m, base[-m] + grads.mean() * m)])
    else:
        ext = values
    spectrum = np.fft.fft(ext)
    log_amp = np.log(np.maximum(np.abs(spectrum), 1e-12))
    kernel = np.ones(ma_width)
    ma = np.convolve(log_amp, kernel, mode="same") / np.convolve(
        np.ones(len(ext)), kernel, mode="same"
    )
    return spectrum, log_amp - ma


def oracle_saliency(values, ma_width, pad_points):
    """The one-window-at-a-time saliency the row kernel must reproduce bit for bit.

    Each bin is exp(residual)·z/|z|; an exactly-zero bin takes arctan2's
    phasor, (copysign(1, z.real), 0).
    """
    spectrum, residual = _extended_spectrum(values, ma_width, pad_points)
    zero = spectrum == 0
    phasor = np.where(zero, np.copysign(1.0, spectrum.real), spectrum)
    amplitude = np.where(zero, 1.0, np.abs(spectrum))
    sal = np.abs(np.fft.ifft(phasor * (np.exp(residual) / amplitude)))
    return sal[: len(values)]


def angle_form_saliency(values, ma_width, pad_points):
    """The saliency as exp(residual + i·phase), the phase taken with ``np.angle``."""
    spectrum, residual = _extended_spectrum(values, ma_width, pad_points)
    sal = np.abs(np.fft.ifft(np.exp(residual + 1j * np.angle(spectrum))))
    return sal[: len(values)]


def newest_score(sal):
    mean_sal = float(sal.mean())
    return max(0.0, (float(sal[-1]) - mean_sal) / (mean_sal + 1e-8))


def oracle_newest_score(window, ma_width, pad_points):
    return newest_score(oracle_saliency(window, ma_width, pad_points))


def _kernel_rows(ma_width, pad_points, w):
    rng = np.random.default_rng(1000 * w + 10 * pad_points + ma_width)
    rows = rng.standard_normal((11, w)) * rng.choice([1e-3, 1.0, 1e4], size=(11, 1))
    rows[3] = 2.5                                   # flat: residual exactly zero
    rows[4, -1] += 50.0                             # spike on the newest point
    rows[5] = np.round(rows[5])                     # ties and exact zeros
    return rows


@pytest.mark.parametrize("w", [2, 3, 8, 128])
@pytest.mark.parametrize("pad_points", [0, 1, 5])
@pytest.mark.parametrize("ma_width", [1, 2, 3, 4, 7, 16, 17])
def test_sr_row_kernel_equals_the_one_window_oracle(ma_width, pad_points, w):
    # 16 and 17: the moving average's dot products take OpenBLAS's SIMD path
    rows = _kernel_rows(ma_width, pad_points, w)
    try:
        expected = np.array([oracle_saliency(row, ma_width, pad_points) for row in rows])
    except ValueError:
        # a moving average wider than the extended window fails in the
        # oracle; the kernel refuses it when built
        with pytest.raises(SpecError, match="sr_ma_width"):
            _SaliencyKernel(w, ma_width, pad_points, rows=len(rows))
        return
    kernel = _SaliencyKernel(w, ma_width, pad_points, rows=len(rows))
    for part in (slice(None), slice(0, 1), slice(4, 9)):
        got = kernel(rows[part])
        assert got.shape == expected[part].shape
        assert (got == expected[part]).all()
    expected_scores = [oracle_newest_score(row, ma_width, pad_points) for row in rows]
    assert kernel.newest_scores(rows).tobytes() == np.array(expected_scores).tobytes()
    for row, want, want_score in zip(rows, expected, expected_scores):
        # one window as a 1-D array, the way ``update`` scores it
        assert kernel(row).tobytes() == want.tobytes()
        assert kernel.newest_scores(row).tobytes() == np.float64(want_score).tobytes()


@pytest.mark.parametrize("w", [2, 3, 8, 128])
@pytest.mark.parametrize("pad_points", [0, 1, 5])
@pytest.mark.parametrize("ma_width", [1, 2, 3, 4, 7, 16, 17])
def test_sr_phasor_form_moves_the_angle_form_by_rounding_only(ma_width, pad_points, w):
    # exp(residual)·z/|z| in place of exp(residual + i·angle(z)) changes bits, within these bounds
    rows = _kernel_rows(ma_width, pad_points, w)
    try:
        kernel = _SaliencyKernel(w, ma_width, pad_points, rows=len(rows))
    except SpecError:
        return
    old = np.array([angle_form_saliency(row, ma_width, pad_points) for row in rows])
    assert (np.abs(kernel(rows) - old) <= 1e-12 * np.abs(old).max(axis=1, keepdims=True)).all()
    old_scores = np.array([newest_score(sal) for sal in old])
    assert (np.abs(kernel.newest_scores(rows) - old_scores) <= 1e-12).all()


def test_sr_an_exactly_zero_bin_takes_the_arctan2_phasor():
    # all -0.0: every bin is exactly zero and the DC bin's real part is -0.0,
    # whose arctan2 phase is pi; then +0.0 zeros, a zero DC bin, and flat
    windows = np.array([np.full(8, -0.0), np.zeros(8), np.tile([1.0, -1.0], 4), np.full(8, 2.5)])
    assert np.signbit(np.fft.fft(windows[0])[0].real)
    kernel = _SaliencyKernel(8, 3, 0, rows=len(windows))
    for row, sal in zip(windows, kernel(windows)):
        spectrum, residual = _extended_spectrum(row, 3, 0)
        assert (spectrum == 0).any()
        phasor = np.exp(1j * np.arctan2(spectrum.imag, spectrum.real))
        want = np.abs(np.fft.ifft(np.exp(residual) * phasor))
        assert np.abs(sal - want).max() <= 1e-15 * want.max()
        assert kernel(row).tobytes() == sal.tobytes() == oracle_saliency(row, 3, 0).tobytes()


@pytest.mark.parametrize("w", [3, 8, 128])
def test_fft_into_a_buffer_and_the_inverse_in_place_equal_the_allocating_calls(w):
    # the kernel transforms into its scratch through out= (numpy >= 2.0); a
    # numpy release that changes those bits fails here, not in a score oracle
    rng = np.random.default_rng(w)
    n = w + _SR_PAD_POINTS
    for x in (rng.standard_normal(n), rng.standard_normal((_SR_BLOCK_ROWS, n)) * 1e4):
        z = np.zeros(x.shape, dtype=np.complex128)
        z.real[...] = x
        out = np.empty(x.shape, dtype=np.complex128)
        assert np.fft.fft(z, axis=-1, out=out) is out
        assert out.tobytes() == np.fft.fft(x, axis=-1).tobytes() == np.fft.fft(z, axis=-1).tobytes()
        expected = np.fft.ifft(out, axis=-1)
        assert np.fft.ifft(out, axis=-1, out=out) is out
        assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("width", range(1, 18))
def test_moving_sums_equal_np_convolve_bit_for_bit(width):
    # Below 16 wide, one row or a block adds shifted slices; 16 and 17 take
    # np.convolve.  One row equals its block row on any BLAS.  The slices equal
    # np.convolve where its ddot adds fewer than 16 terms one at a time, as
    # OpenBLAS's x86-64 kernel does.
    rng = np.random.default_rng(width)
    for n in sorted({width, width + 1, 37, 133}):
        rows = rng.standard_normal((12, n)) * rng.choice([1e-3, 1.0, 1e4], size=(12, 1))
        rows[3] = np.round(rows[3])                 # ties and exact zeros
        rows[4, ::2] = -0.0                         # signed zeros
        rows[5] = 1e300                             # large, near overflow
        block = _moving_sums(rows, np.ones(width))
        for i in (1, 4):
            assert _moving_sums(rows[i], np.ones(width)).tobytes() == block[i].tobytes()
        expected = np.array([np.convolve(row, np.ones(width), mode="same") for row in rows])
        assert block.tobytes() == expected.tobytes()


def test_sr_moving_average_wider_than_the_extended_window_is_a_spec_error():
    with pytest.raises(SpecError, match="sr_ma_width"):
        DetectorConfig(window=3, sr_ma_width=7)
    DetectorConfig(window=3, sr_ma_width=4)  # 3 points plus 1 pad point
    DetectorConfig(method="ewma_residual", window=3, sr_ma_width=7)  # never reads it
    with pytest.raises(SpecError, match="sr_ma_width"):
        run_batch(DetectorConfig(window=64, sr_ma_width=9), _series([0.0, 1.0, 0.0, 2.0]))
    det = make_detector(DetectorConfig(window="auto", sr_ma_width=300, auto_resolve_at=10))
    with pytest.raises(SpecError, match="sr_ma_width"):
        for x in _spiky_series(n=10, spike_at=5)[0].values:
            det.update(x)  # the window resolved at the 10th point is too narrow


@pytest.mark.parametrize("method", ["spectral_residual", "ewma_residual"])
def test_batch_auto_window_skips_the_period_search_for_windowless_methods(method, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the period search ran")

    monkeypatch.setattr(detectors, "detect_period_peaks", refuse)
    series, _ = _spiky_series()
    auto = run_batch(DetectorConfig(method=method, window="auto"), series)
    fixed = run_batch(DetectorConfig(method=method, window=64), series)
    assert auto.warmup == fixed.warmup
    assert auto.scores.tobytes() == fixed.scores.tobytes()


def test_sr_batch_scores_the_whole_series_as_one_window():
    series, _ = _spiky_series()
    sal = oracle_saliency(series.values, 3, 5)
    mean_sal = float(sal.mean())
    expected = np.maximum(0.0, (sal - mean_sal) / (mean_sal + 1e-8))
    out = run_batch(DetectorConfig(method="spectral_residual", window=64), series)
    assert (out.scores == expected).all()


@pytest.mark.parametrize("w", [3, 16])
@pytest.mark.parametrize(
    "n_extra", [-1, 0, 1, _SR_BLOCK_ROWS - 1, _SR_BLOCK_ROWS, _SR_BLOCK_ROWS + 1, 2 * _SR_BLOCK_ROWS, 3 * _SR_BLOCK_ROWS + 5]
)
def test_sr_run_streaming_equals_the_update_loop(w, n_extra):
    # n_extra past w - 1 is the number of scored windows: 3 blocks + 5 crosses
    # every block edge, and n < w is warmup only
    n = w - 1 + n_extra
    rng = np.random.default_rng(n)
    values = np.sin(np.arange(n) / 4.0) + 0.3 * rng.standard_normal(n)
    config = DetectorConfig(method="spectral_residual", window=w)
    det = make_detector(config)
    looped = np.array([det.update(float(x)) for x in values])
    out = run_streaming(config, _series(values))
    assert out.scores.tobytes() == looped.tobytes()
    assert out.warmup == min(n, w - 1)
    if n < w:
        assert np.isnan(out.scores).all()
    oracle = [oracle_newest_score(values[t - w + 1 : t + 1], 3, 5) for t in range(w - 1, n)]
    assert out.scores[w - 1 :].tobytes() == np.array(oracle).tobytes()


def test_sr_detector_state_stays_bounded_by_the_window():
    w = 32
    det = make_detector(DetectorConfig(method="spectral_residual", window=w))
    rng = np.random.default_rng(5)
    sizes = []
    for stop in (w, 5 * w, 20 * w):
        while det.count < stop:
            det.update(float(rng.standard_normal()))
        sizes.append(len(pickle.dumps(det)))
    # a buffer of the whole stream would hold 20·w floats (160·w bytes); the
    # ring buffer, the kernel's row buffer and its constants hold about 4·w
    assert max(sizes) - min(sizes) <= 16
    assert max(sizes) <= 1024 + 48 * w


# --- ewma residual -----------------------------------------------------------


def test_ewma_step_after_a_long_constant_run_hits_the_scale_floor():
    config = DetectorConfig(method="ewma_residual", alpha=0.25, scale_floor=1e-9)
    det = make_detector(config)
    assert math.isnan(det.update(3.0))     # warmup: mean pinned to 3.0
    for _ in range(14):
        assert det.update(3.0) == 0.0      # zero residuals leave the scale at 0
    # residual 2.0 against a zero scale -> the floor sets the magnitude
    assert det.update(5.0) == 2.0 / 1e-9


def test_ewma_early_scores_are_self_calibrated():
    # alpha 0.5 -> the first ceil(1/alpha)=2 residuals normalize against a
    # mean that includes themselves, so a noisy start cannot explode
    det = make_detector(DetectorConfig(method="ewma_residual", alpha=0.5))
    det.update(0.0)
    assert det.update(4.0) == 1.0          # residual 4 over mean(|4|)
    assert det.update(6.0) == 1.0          # residual 4 over mean(|4|,|4|)
    # calibration over: residual 8 against the EW scale of 4
    assert det.update(12.0) == pytest.approx(8.0 / 4.0)


def test_ewma_noisy_start_does_not_emit_an_outlier_score():
    rng = np.random.default_rng(3)
    det = make_detector(DetectorConfig(method="ewma_residual", alpha=0.2))
    scores = [det.update(float(x)) for x in rng.normal(0.0, 0.5, size=50)]
    assert max(scores[1:]) < 20.0


def test_ewma_batch_uses_one_global_scale():
    values = np.zeros(50)
    values[20] = 10.0
    out = run_batch(DetectorConfig(method="ewma_residual", alpha=0.1), _series(values))
    assert len(out) == 50
    assert int(np.nanargmax(out.scores)) == 20


# --- left discord ------------------------------------------------------------


def brute_nearest_distance(query, candidates, eps=1e-12):
    """Plain-loop z-normalized nearest-window distance."""
    best = float("inf")
    q_sd = query.std()
    for cand in candidates:
        c_sd = cand.std()
        if q_sd <= eps or c_sd <= eps:
            d = math.sqrt(float(((query - cand) ** 2).sum()))
        else:
            zq = (query - query.mean()) / q_sd
            zc = (cand - cand.mean()) / c_sd
            d = math.sqrt(float(((zq - zc) ** 2).sum()))
        best = min(best, d)
    return best


def test_discord_matches_brute_force():
    rng = np.random.default_rng(0)
    values = rng.standard_normal(90)
    values[40:50] = 0.0  # plant some flat (degenerate) windows too
    w = 6
    out = run_streaming(DetectorConfig(method="left_discord", window=w), _series(values))
    for t in range(2 * w - 1, 90):
        query = values[t - w + 1 : t + 1]
        candidates = [values[s : s + w] for s in range(t - 2 * w + 2)]
        assert out.scores[t] == pytest.approx(
            brute_nearest_distance(query, candidates), abs=1e-8
        )


def test_discord_repeating_pattern_scores_near_zero():
    values = np.tile(np.array([0.0, 2.0, 1.0, -1.0, 0.5]), 30)
    out = run_streaming(DetectorConfig(method="left_discord", window=10), _series(values))
    assert np.all(out.scores[out.warmup :] < 1e-6)


def test_discord_novel_shape_scores_high():
    values = np.tile(np.array([0.0, 2.0, 1.0, -1.0, 0.5]), 30).copy()
    out_clean = run_streaming(DetectorConfig(method="left_discord", window=10), _series(values))
    values[120] = 25.0
    out = run_streaming(DetectorConfig(method="left_discord", window=10), _series(values))
    assert out.scores[120] > 10 * max(out_clean.scores[120], 1e-12)


def test_discord_is_scale_invariant_when_nondegenerate():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(70)
    a = run_streaming(DetectorConfig(method="left_discord", window=5), _series(values))
    b = run_streaming(
        DetectorConfig(method="left_discord", window=5), _series(7.0 * values + 100.0)
    )
    np.testing.assert_allclose(a.scores[a.warmup :], b.scores[b.warmup :], atol=1e-8)


def test_discord_batch_sees_both_sides():
    # batch may use future windows: a motif that only reappears later still
    # has a near-zero batch score at its first occurrence
    motif = np.array([0.0, 5.0, -5.0, 2.0])
    rng = np.random.default_rng(9)
    values = rng.standard_normal(80)
    values[10:14] = motif
    values[60:64] = motif
    config = DetectorConfig(method="left_discord", window=4)
    stream = run_streaming(config, _series(values))
    batch = run_batch(config, _series(values))
    assert batch.scores[13] < 1e-9          # future twin found
    assert stream.scores[13] > 0.1          # streaming could not see it


@pytest.mark.parametrize("w", [2, 3, 8])
def test_discord_batch_scores_once_every_window_has_a_disjoint_one(w):
    # below 3w - 1 points some middle window overlaps every other window
    rng = np.random.default_rng(w)
    config = DetectorConfig(method="left_discord", window=w)
    for n in range(2 * w - 1, 3 * w + 1):
        values = rng.standard_normal(n)
        out = run_batch(config, _series(values))
        assert out.warmup == (n if n < 3 * w - 1 else w - 1), n
        for t in range(out.warmup, n):
            s = t - w + 1
            disjoint = [values[j : j + w] for j in range(n - w + 1) if abs(j - s) >= w]
            # at w=2 every pair is a z-normalized twin, and the dot-product form
            # of a zero distance is the square root of a rounding error
            assert out.scores[t] == pytest.approx(
                brute_nearest_distance(values[s : t + 1], disjoint), abs=1e-6
            )


# --- k-means windows ---------------------------------------------------------


def test_kmeans_cyclic_stream_scores_zero():
    motif = np.array([0.0, 1.0, 3.0, -2.0])
    values = np.tile(motif, 20)
    config = DetectorConfig(method="kmeans_window", window=4, n_clusters=4)
    out = run_streaming(config, _series(values))
    assert out.warmup == 15
    assert np.all(out.scores[out.warmup :] == 0.0)


def test_kmeans_novelty_scores_positive():
    motif = np.array([0.0, 1.0, 3.0, -2.0])
    values = np.tile(motif, 20).copy()
    values[70] = 30.0
    config = DetectorConfig(method="kmeans_window", window=4, n_clusters=4)
    out = run_streaming(config, _series(values))
    assert out.scores[70] > 1.0


def test_kmeans_batch_scores_every_full_window():
    values = np.tile(np.array([0.0, 1.0, 3.0, -2.0]), 10)
    config = DetectorConfig(method="kmeans_window", window=4, n_clusters=4)
    out = run_batch(config, _series(values))
    assert out.warmup == 3
    assert np.all(out.scores[3:] == 0.0)


# --- auto window -------------------------------------------------------------


def test_auto_window_resolves_from_the_dominant_period():
    values = np.sin(2 * np.pi * np.arange(400) / 25.0)
    config = DetectorConfig(
        method="spectral_residual", window="auto", auto_resolve_at=200, auto_fallback=64
    )
    det = make_detector(config)
    assert det.warmup == 199
    out = run_streaming(config, _series(values))
    assert len(out) == 400
    assert out.warmup == 199
    assert np.isfinite(out.scores[199:]).all()
    assert det.config.window == "auto"  # the public config is untouched


def test_auto_window_falls_back_when_period_undetectable():
    ramp = np.arange(300, dtype=float)
    config = DetectorConfig(
        method="ewma_residual", window="auto", auto_resolve_at=100, auto_fallback=50
    )
    out = run_streaming(config, _series(ramp))
    assert out.warmup == 99
    assert np.isfinite(out.scores[99:]).all()


# --- declared warmup ---------------------------------------------------------


def leading_sentinel_count(scores):
    """How many scores lead before the first non-NaN one: the warmup read off the output."""
    real = np.nonzero(~np.isnan(scores))[0]
    return int(real[0]) if real.size else len(scores)


_SWEEP_K = 3
_SWEEP_RESOLVE_AT = 12


def _sweep_lengths(window):
    if window == "auto":  # the resolved window depends on the series, so take every length
        return range(3 * _SWEEP_RESOLVE_AT + 2)
    w, k = window, _SWEEP_K
    return sorted({0, 1, 2, w - 1, w, w + 1, 2 * w - 1, 2 * w, 3 * w - 2, 3 * w - 1, 3 * w,
                   k * w - 1, k * w, k * w + 1, 4 * w})


@pytest.mark.parametrize("window", [2, 3, 8, "auto"])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("run", [run_batch, run_streaming])
def test_declared_warmup_is_the_leading_sentinel_run_on_ordinary_input(run, method, window):
    # sr_ma_width 1 lets spectral residual take a 2-point window and batch series of 1 and 2
    config = DetectorConfig(method=method, window=window, n_clusters=_SWEEP_K, sr_ma_width=1,
                            auto_resolve_at=_SWEEP_RESOLVE_AT, auto_fallback=4)
    rng = np.random.default_rng(3)
    values = np.sin(2 * np.pi * np.arange(50) / 5.0) + 0.1 * rng.standard_normal(50)
    for n in _sweep_lengths(window):
        out = run(config, _series(values[:n]))
        assert out.warmup == leading_sentinel_count(out.scores), n


_ADJACENT_PAIR = np.r_[np.zeros(60), 1e308, -1e308, np.zeros(58)]
_ALTERNATION = np.array([1e308, -1e308] * 60)
_OVERFLOWS = [
    (run, method, name, values)
    for run in (run_batch, run_streaming)
    for method in METHODS
    for name, values in (("adjacent_pair", _ADJACENT_PAIR), ("alternation", _ALTERNATION))
]


@pytest.mark.parametrize(
    "run, method, name, values", _OVERFLOWS,
    ids=[f"{run.__name__}-{method}-{name}" for run, method, name, _ in _OVERFLOWS],
)
def test_a_non_finite_score_past_the_warmup_raises(run, method, name, values):
    # finite input whose arithmetic overflows must not pass for warmup or for a score of 0
    with np.errstate(all="ignore"), pytest.raises(InputError, match="past the warmup"):
        run(DetectorConfig(method=method, window=8), _series(values))


@pytest.mark.parametrize("method", METHODS)
def test_update_raises_on_a_non_finite_score_past_the_warmup(method):
    det = make_detector(DetectorConfig(method=method, window=8))
    with np.errstate(all="ignore"), pytest.raises(InputError, match="past the warmup"):
        for x in _ADJACENT_PAIR:
            score = det.update(x)
            assert np.isfinite(score) == (det.count > det.warmup)
