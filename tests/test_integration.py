"""Cross-module integration: the full pipelines hang together.

These tests run small but complete pipelines (beam → FIT → tolerance →
mitigation; injection → criticality → plan → coverage; baseline vs
hardened) and assert the *consistency relations* between modules that
no unit test checks: partitions summing to totals, plans covering what
criticality says they cover, hardening never losing to the baseline.
"""

import numpy as np
import pytest

from repro.analysis.criticality import criticality_by_portion, portion_of_record
from repro.analysis.pvf import outcome_shares
from repro.analysis.relative_error import surviving_fraction
from repro.beam.experiment import BeamExperiment
from repro.beam.fit import estimate_fit
from repro.carolfi.campaign import CampaignConfig, run_campaign
from repro.faults.outcome import Outcome
from repro.hardening.evaluate import abft_beam_coverage, evaluate_plan
from repro.hardening.hardened import run_hardened_campaign
from repro.hardening.selective import RECOMMENDED_PLANS


@pytest.fixture(scope="module")
def lud_beam():
    return BeamExperiment("lud", seed=314).run_campaign(250)


@pytest.fixture(scope="module")
def lud_injection():
    return run_campaign(CampaignConfig(benchmark="lud", injections=200, seed=314))


# -- beam pipeline -------------------------------------------------------------


def test_pattern_partition_sums_to_sdc_fit(lud_beam):
    report = estimate_fit(lud_beam)
    partition = sum(e.fit for e in report.sdc_by_pattern.values())
    assert partition == pytest.approx(report.sdc.fit)


def test_tolerance_zero_keeps_every_sdc(lud_beam):
    errors = [r.sdc_metrics["max_rel_err"] for r in lud_beam.sdc_records()]
    assert surviving_fraction(errors, 0.0) == 1.0


def test_abft_census_consistent_with_patterns(lud_beam):
    census = abft_beam_coverage(lud_beam)
    manual = sum(
        1
        for r in lud_beam.sdc_records()
        if r.sdc_metrics.get("pattern") in ("single", "line", "random")
    )
    assert census.correctable == manual
    assert census.sdc_count == len(lud_beam.sdc_records())


def test_fit_report_event_counts_match_campaign(lud_beam):
    report = estimate_fit(lud_beam)
    assert report.sdc.events == lud_beam.count(Outcome.SDC)
    assert report.due.events == lud_beam.count(Outcome.DUE)


# -- injection pipeline ----------------------------------------------------------


def test_portion_counts_partition_campaign(lud_injection):
    reports = criticality_by_portion(lud_injection.records)
    assert sum(r.injections for r in reports) == len(lud_injection)


def test_recommended_plan_coverage_matches_portion_mass(lud_injection):
    plan = RECOMMENDED_PLANS["lud"]
    coverage = evaluate_plan(lud_injection.records, plan)
    harmful = [r for r in lud_injection.records if r.outcome is not Outcome.MASKED]
    manual_covered = sum(
        1 for r in harmful if plan.technique_for(portion_of_record(r)) is not None
    )
    assert coverage.covered_faults == manual_covered
    assert coverage.harmful_faults == len(harmful)


# -- hardened vs baseline ---------------------------------------------------------


def test_hardening_beats_baseline_on_same_inputs(lud_injection):
    hardened = run_hardened_campaign("lud", injections=200, seed=314)
    baseline = outcome_shares(lud_injection.records)
    before = baseline["sdc"] + baseline["due"]
    after = hardened.residual_harmful()
    assert after < before
    shares = hardened.shares()
    assert shares["detected"] > 0.0
    assert sum(shares.values()) == pytest.approx(1.0)


def test_hardened_and_baseline_share_the_input_dataset(lud_injection):
    # Both supervisors replay the same campaign input stream, so their
    # golden outputs must agree bit for bit.
    from repro.benchmarks.registry import create
    from repro.carolfi.supervisor import Supervisor
    from repro.hardening.hardened import HardenedSupervisor

    plain = Supervisor(create("lud"), seed=314)
    hard = HardenedSupervisor(create("lud"), seed=314)
    assert np.array_equal(plain.golden, hard.golden)
