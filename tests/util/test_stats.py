"""Statistical estimators behind the paper's error bars."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.stats import (
    anytime_proportion_ci,
    half_width_for_proportion,
    poisson_ci,
    proportion_ci,
    required_events_for_relative_ci,
    two_proportion_z,
    wilson_ci,
)


def test_poisson_ci_zero_events():
    ci = poisson_ci(0)
    assert ci.lower == 0.0
    assert ci.upper == pytest.approx(3.6889, abs=1e-3)


def test_poisson_ci_100_events_is_about_20pct():
    # 100 Poisson events give a ~±20% interval; the paper's "CIs lower
    # than 10%" requires the ~385 events computed below.
    ci = poisson_ci(100)
    assert 0.18 < ci.relative_half_width() < 0.22


def test_poisson_ci_385_events_hits_10pct():
    ci = poisson_ci(385)
    assert ci.relative_half_width() < 0.105


def test_poisson_ci_contains_point():
    ci = poisson_ci(17)
    assert ci.lower < 17 < ci.upper


def test_poisson_ci_negative_raises():
    with pytest.raises(ValueError):
        poisson_ci(-1)


def test_poisson_ci_bad_confidence():
    with pytest.raises(ValueError):
        poisson_ci(5, confidence=1.5)


def test_wald_worst_case_is_1p96_pct_for_10000():
    # Section 6: 10,000 injections give worst-case error bars of 1.96%.
    assert half_width_for_proportion(10_000) == pytest.approx(0.0098, abs=1e-4)
    ci = proportion_ci(5_000, 10_000)
    assert (ci.upper - ci.lower) == pytest.approx(0.0196, abs=2e-4)


def test_proportion_ci_clipped_to_unit_interval():
    ci = proportion_ci(0, 10)
    assert ci.lower == 0.0
    ci = proportion_ci(10, 10)
    assert ci.upper == 1.0


def test_proportion_ci_validates():
    with pytest.raises(ValueError):
        proportion_ci(5, 0)
    with pytest.raises(ValueError):
        proportion_ci(11, 10)


def test_wilson_narrower_than_wald_at_extremes():
    wald = proportion_ci(1, 1000)
    wilson = wilson_ci(1, 1000)
    assert wilson.lower > 0.0 >= wald.lower


def test_wilson_validates():
    with pytest.raises(ValueError):
        wilson_ci(2, 0)
    with pytest.raises(ValueError):
        wilson_ci(-1, 5)


def test_required_events_for_10pct_ci():
    # (1.96 / 0.1)^2 ~ 385 events for a 10% relative CI at 95%.
    needed = required_events_for_relative_ci(0.10)
    assert 380 <= needed <= 390


def test_required_events_tighter_needs_more():
    assert required_events_for_relative_ci(0.05) > required_events_for_relative_ci(0.2)


def test_required_events_validates():
    with pytest.raises(ValueError):
        required_events_for_relative_ci(0.0)


@settings(max_examples=50, deadline=None)
@given(events=st.integers(1, 2000))
def test_poisson_ci_monotone_width(events):
    ci = poisson_ci(events)
    assert 0 <= ci.lower < events < ci.upper


@settings(max_examples=50, deadline=None)
@given(successes=st.integers(0, 100), extra=st.integers(1, 100))
def test_wilson_within_unit_interval(successes, extra):
    trials = successes + extra
    ci = wilson_ci(successes, trials)
    assert 0.0 <= ci.lower <= ci.value <= ci.upper <= 1.0


# -- anytime-valid proportion CI -------------------------------------------------


def test_anytime_ci_contains_point_and_unit_interval():
    ci = anytime_proportion_ci(30, 100)
    assert 0.0 <= ci.lower <= ci.value <= ci.upper <= 1.0
    assert ci.value == pytest.approx(0.3)


def test_anytime_ci_wider_than_wilson():
    # The price of validity under continuous monitoring: at any fixed n
    # the anytime interval is strictly more conservative.
    for n in (20, 200, 2000):
        anytime = anytime_proportion_ci(n // 4, n)
        wilson = wilson_ci(n // 4, n)
        assert (anytime.upper - anytime.lower) > (wilson.upper - wilson.lower)


def test_anytime_ci_shrinks_with_n():
    widths = [
        anytime_proportion_ci(n // 2, n).upper - anytime_proportion_ci(n // 2, n).lower
        for n in (10, 100, 1000, 10000)
    ]
    assert widths == sorted(widths, reverse=True)


def test_anytime_ci_validates():
    with pytest.raises(ValueError):
        anytime_proportion_ci(1, 0)
    with pytest.raises(ValueError):
        anytime_proportion_ci(5, 4)
    with pytest.raises(ValueError):
        anytime_proportion_ci(1, 10, confidence=0.0)


@settings(max_examples=50, deadline=None)
@given(successes=st.integers(0, 100), extra=st.integers(1, 100))
def test_anytime_within_unit_interval(successes, extra):
    trials = successes + extra
    ci = anytime_proportion_ci(successes, trials)
    assert 0.0 <= ci.lower <= ci.value <= ci.upper <= 1.0


# -- two-proportion z-test --------------------------------------------------------


def test_two_proportion_z_identical_rates():
    z, p = two_proportion_z(30, 100, 30, 100)
    assert z == pytest.approx(0.0)
    assert p == pytest.approx(1.0)


def test_two_proportion_z_detects_difference():
    z, p = two_proportion_z(80, 100, 20, 100)
    assert z > 5.0
    assert p < 1e-8


def test_two_proportion_z_antisymmetric():
    z_ab, p_ab = two_proportion_z(10, 50, 25, 50)
    z_ba, p_ba = two_proportion_z(25, 50, 10, 50)
    assert z_ab == pytest.approx(-z_ba)
    assert p_ab == pytest.approx(p_ba)


def test_two_proportion_z_degenerate_pool_is_null():
    # All successes (or all failures) in both samples: zero pooled
    # variance, no evidence of difference.
    assert two_proportion_z(50, 50, 30, 30) == (0.0, 1.0)
    assert two_proportion_z(0, 50, 0, 30) == (0.0, 1.0)


def test_two_proportion_z_validates():
    with pytest.raises(ValueError):
        two_proportion_z(1, 0, 1, 10)
    with pytest.raises(ValueError):
        two_proportion_z(11, 10, 1, 10)
