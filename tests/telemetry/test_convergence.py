"""Convergence monitor: streaming CIs and cross-shard drift."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry.convergence import ConvergenceMonitor, PVF_OUTCOMES
from repro.util.stats import anytime_proportion_ci, two_proportion_z, wilson_ci

OUTCOMES = ("masked", "sdc", "due")


def record(outcome, benchmark="nw", fault_model="single", run_index=0, window=0):
    return {
        "benchmark": benchmark,
        "fault_model": fault_model,
        "outcome": outcome,
        "run_index": run_index,
        "time_window": window,
    }


def feed(monitor, outcomes, shard=None, **kwargs):
    for i, outcome in enumerate(outcomes):
        monitor.observe(record(outcome, run_index=i, **kwargs), shard=shard)


# -- streaming vs batch (property-style) ---------------------------------------


@given(
    st.lists(st.sampled_from(OUTCOMES), min_size=1, max_size=200),
    st.sampled_from(["wilson", "anytime"]),
)
def test_streaming_ci_matches_batch(outcomes, interval):
    """Folding records one at a time gives exactly the batch interval."""
    monitor = ConvergenceMonitor(interval=interval)
    feed(monitor, outcomes)
    batch = {"wilson": wilson_ci, "anytime": anytime_proportion_ci}[interval]
    for outcome in ("sdc", "due"):
        expected = batch(outcomes.count(outcome), len(outcomes), 0.95)
        got = monitor.ci("nw", "single", outcome)
        assert got.value == pytest.approx(expected.value)
        assert got.lower == pytest.approx(expected.lower)
        assert got.upper == pytest.approx(expected.upper)


@given(st.lists(st.sampled_from(OUTCOMES), min_size=1, max_size=120))
def test_half_width_consistent_with_ci(outcomes):
    monitor = ConvergenceMonitor()
    feed(monitor, outcomes)
    est = monitor.ci("nw", "single", "sdc")
    assert monitor.half_width("nw", "single", "sdc") == pytest.approx(
        (est.upper - est.lower) / 2.0
    )


# -- cell bookkeeping ----------------------------------------------------------


def test_counts_and_cells():
    monitor = ConvergenceMonitor()
    feed(monitor, ["masked", "sdc", "masked"], benchmark="nw")
    feed(monitor, ["due"], benchmark="lud")
    assert monitor.cells() == [("lud", "single"), ("nw", "single")]
    assert monitor.counts("nw", "single") == {"masked": 2, "sdc": 1, "due": 0}
    assert sum(sum(monitor.counts(*cell).values()) for cell in monitor.cells()) == 4


def test_accepts_record_objects():
    class Rec:
        benchmark = "nw"
        fault_model = "single"

        class outcome:
            value = "sdc"

    monitor = ConvergenceMonitor()
    monitor.observe(Rec())
    assert monitor.counts("nw", "single")["sdc"] == 1


def test_summary_rows_shape():
    monitor = ConvergenceMonitor()
    feed(monitor, ["masked"] * 5 + ["sdc"] * 3)
    (row,) = monitor.summary_rows()
    assert row[:3] == ["nw", "single", 8]
    assert all("±" in cell for cell in row[3:])


def test_interval_and_confidence_validation():
    with pytest.raises(ValueError):
        ConvergenceMonitor(interval="wald")
    with pytest.raises(ValueError):
        ConvergenceMonitor(confidence=1.0)


# -- interval width ------------------------------------------------------------


def test_more_runs_never_widen_the_interval():
    monitor = ConvergenceMonitor()
    rng = np.random.default_rng(7)
    widths = []
    for chunk in range(1, 9):
        outcomes = rng.choice(OUTCOMES, size=50, p=[0.6, 0.25, 0.15])
        feed(monitor, list(outcomes))
        widths.append(max(monitor.half_width("nw", "single", o) for o in PVF_OUTCOMES))
    assert all(b <= a * 1.02 for a, b in zip(widths, widths[1:]))


# -- cross-shard drift ---------------------------------------------------------


def _identical_shard_monitor(seed=11, shards=8, per_shard=60, p_sdc=0.3):
    """Shards drawing from one Bernoulli — the healthy null hypothesis."""
    rng = np.random.default_rng(seed)
    monitor = ConvergenceMonitor()
    for shard in range(shards):
        outcomes = np.where(rng.random(per_shard) < p_sdc, "sdc", "masked")
        feed(monitor, list(outcomes), shard=shard)
    return monitor


def test_drift_false_positive_rate_on_identically_seeded_shards():
    """Identical distributions stay below the family-wise error budget.

    Each monitor is one family of 8 shards x 2 outcomes tested at
    family alpha=0.01, so across 20 deterministic replications the
    expected number of spuriously flagged families is 0.2; allowing one
    keeps the test honest about Bonferroni's guarantee without flaking
    (the seeds are fixed, so the outcome is reproducible either way).
    """
    flagged = sum(
        1 for seed in range(20) if _identical_shard_monitor(seed=seed).drift_flags()
    )
    assert flagged <= 1


def test_drift_flags_contaminated_shard():
    monitor = _identical_shard_monitor()
    # One mis-seeded shard whose SDC rate is wildly off its peers.
    feed(monitor, ["sdc"] * 60, shard=99)
    flags = monitor.drift_flags()
    assert flags, "contaminated shard must be flagged"
    assert {f.shard for f in flags} == {99}
    worst = flags[0]
    assert worst.outcome in PVF_OUTCOMES
    assert worst.shard_rate > worst.rest_rate
    payload = worst.to_dict()
    assert payload["event"] == "drift"
    assert payload["shard"] == 99
    assert payload["p_value"] < payload["alpha_per_test"]


def test_drift_ignores_thin_shards():
    monitor = ConvergenceMonitor()
    feed(monitor, ["masked"] * 100, shard=0)
    feed(monitor, ["sdc"] * 4, shard=1)  # extreme but below min_shard_runs
    assert monitor.drift_flags(min_shard_runs=8) == []


def test_drift_without_shard_attribution_is_empty():
    monitor = ConvergenceMonitor()
    feed(monitor, ["sdc", "masked"] * 50)  # shard=None throughout
    assert monitor.drift_flags() == []


def test_drift_alpha_validation():
    with pytest.raises(ValueError):
        ConvergenceMonitor().drift_flags(alpha=0.0)


def test_two_proportion_z_matches_flag_threshold():
    monitor = _identical_shard_monitor(shards=2, per_shard=100)
    stats = monitor.cell("nw", "single")
    shard0 = stats.shards[0].get("sdc", 0)
    rest = stats.outcomes.get("sdc", 0) - shard0
    z, p = two_proportion_z(shard0, 100, rest, stats.total - 100)
    assert math.isfinite(z) and 0.0 <= p <= 1.0
