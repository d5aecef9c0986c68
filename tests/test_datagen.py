import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tadkit.core import DegenerateScaleError, InputError, SpecError, TimeSeries
from tadkit.datagen import (
    InjectionConfig,
    PeriodicGeneratorConfig,
    generate_periodic,
    inject_point_anomalies,
    series_rng,
)


def test_series_rng_is_keyed_by_seed_and_index():
    a = series_rng(0, 5).standard_normal(4)
    b = series_rng(0, 5).standard_normal(4)
    c = series_rng(0, 6).standard_normal(4)
    d = series_rng(1, 5).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_generate_periodic_respects_bounds():
    config = PeriodicGeneratorConfig(seed=3)
    for index in range(200):
        drawn = generate_periodic(config, index)
        n = len(drawn.series)
        assert 60 <= n <= 10000
        assert 3 < drawn.true_period <= n / 10
        assert drawn.labels.positive_count == 0
        assert len(drawn.labels) == n


def test_generate_periodic_is_deterministic_and_order_free():
    config = PeriodicGeneratorConfig(seed=11)
    direct = generate_periodic(config, 42)
    # drawing other indices in between must not disturb index 42
    for index in (0, 7, 99):
        generate_periodic(config, index)
    again = generate_periodic(config, 42)
    assert direct.series == again.series
    assert direct.true_period == again.true_period


def test_generate_periodic_pinning():
    config = PeriodicGeneratorConfig(seed=0, fixed_length=500, fixed_period=24)
    drawn = generate_periodic(config, 0)
    assert len(drawn.series) == 500
    assert drawn.true_period == 24
    with pytest.raises(SpecError):
        generate_periodic(
            PeriodicGeneratorConfig(seed=0, fixed_length=100, fixed_period=50), 0
        )


def test_generate_periodic_period_repeats_without_noise():
    config = PeriodicGeneratorConfig(
        seed=2,
        fixed_length=120,
        fixed_period=10,
        noise_strength_range=(0.0, 0.0),
        period_strength_range=(1.0, 1.0),
        include_walk=False,
    )
    values = generate_periodic(config, 0).series.values
    assert np.allclose(values[:-10], values[10:])


def test_length_range_validation():
    with pytest.raises(SpecError):
        PeriodicGeneratorConfig(length_range=(30, 100))
    with pytest.raises(SpecError):
        PeriodicGeneratorConfig(length_range=(100, 60))
    with pytest.raises(SpecError):
        PeriodicGeneratorConfig(noise_strength_range=(-1.0, 1.0))


# --- injection ---------------------------------------------------------------


def _sine(n, amplitude=1.0):
    return TimeSeries(0, 60, amplitude * np.sin(np.arange(n) / 5.0))


def test_injection_rate_extremes():
    series = _sine(300)
    none = inject_point_anomalies(series, InjectionConfig(rate=0.0, seed=1))
    assert none.labels.positive_count == 0
    assert none.series == series
    everything = inject_point_anomalies(series, InjectionConfig(rate=1.0, seed=1))
    assert everything.labels.positive_count == 300


def test_injection_offset_arithmetic_is_exact():
    series = _sine(200)
    sigma = float(np.std(series.values))
    out = inject_point_anomalies(
        series, InjectionConfig(rate=0.05, seed=9, kind="offset", offset_sigmas=5.0)
    )
    mask = out.labels.labels == 1
    assert mask.any()
    np.testing.assert_array_equal(
        out.series.values[mask], series.values[mask] + 5.0 * sigma
    )
    np.testing.assert_array_equal(out.series.values[~mask], series.values[~mask])


def test_injection_constant_kind():
    series = _sine(100)
    out = inject_point_anomalies(
        series, InjectionConfig(rate=0.2, seed=4, kind="constant", constant=99.0)
    )
    mask = out.labels.labels == 1
    assert np.all(out.series.values[mask] == 99.0)


def test_injection_uniform_kind_draws_inside_the_observed_range():
    series = _sine(400, amplitude=3.0)
    config = InjectionConfig(rate=0.1, seed=12, kind="uniform")
    out = inject_point_anomalies(series, config)
    replaced = out.series.values != series.values
    assert replaced.any()
    np.testing.assert_array_equal(out.labels.labels, replaced.astype(np.int8))
    lo, hi = series.values.min(), series.values.max()
    assert np.all((lo <= out.series.values[replaced]) & (out.series.values[replaced] <= hi))
    again = inject_point_anomalies(series, config)
    assert again.series.values.tobytes() == out.series.values.tobytes()
    assert again.labels.labels.tobytes() == out.labels.labels.tobytes()


def test_injection_offset_needs_spread():
    flat = TimeSeries(0, 60, np.full(50, 7.0))
    with pytest.raises(DegenerateScaleError):
        inject_point_anomalies(flat, InjectionConfig(rate=0.5, seed=0, kind="offset"))


def test_injection_rejects_missing_readings():
    holed = TimeSeries(0, 60, np.array([1.0, np.nan, 3.0]))
    with pytest.raises(InputError):
        inject_point_anomalies(holed, InjectionConfig(rate=0.1, seed=0))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_injection_mask_depends_only_on_seed_and_length(seed):
    """The replacement mask is drawn before any look at the values."""
    config = InjectionConfig(rate=0.1, seed=seed, kind="constant", constant=0.0)
    a = inject_point_anomalies(_sine(150), config)
    b = inject_point_anomalies(_sine(150, amplitude=40.0), config)
    assert a.labels == b.labels


def test_injection_count_tracks_rate():
    series = _sine(20000)
    out = inject_point_anomalies(series, InjectionConfig(rate=0.01, seed=3))
    count = out.labels.positive_count
    # 3-sigma band around Binomial(20000, 0.01)
    assert abs(count - 200) <= 3 * np.sqrt(20000 * 0.01 * 0.99)
