"""Selective hardening plans and coverage evaluation."""

import pytest

from repro.faults.outcome import InjectionRecord, Outcome
from repro.faults.site import FaultSite
from repro.hardening.evaluate import (
    ABFT_CORRECTABLE_PATTERNS,
    abft_beam_coverage,
    evaluate_plan,
)
from repro.hardening.selective import (
    RECOMMENDED_PLANS,
    HardeningPlan,
    Technique,
    detection_probability,
)


def _record(var_class, outcome, model="single", pattern=None):
    metrics = {"pattern": pattern} if pattern else {}
    return InjectionRecord(
        benchmark="dgemm",
        run_index=0,
        site=FaultSite("f", "v", 0, "float64", var_class=var_class),
        fault_model=model,
        bits=(0,),
        interrupt_step=0,
        total_steps=10,
        time_window=0,
        num_windows=5,
        outcome=outcome,
        sdc_metrics=metrics,
    )


def test_recommended_plans_cover_all_benchmarks():
    assert set(RECOMMENDED_PLANS) == {"dgemm", "lud", "hotspot", "clamr", "nw", "lavamd"}
    for plan in RECOMMENDED_PLANS.values():
        assert plan.assignments
        assert plan.rationale


def test_paper_specific_choices():
    assert RECOMMENDED_PLANS["nw"].technique_for("matrices") is Technique.PARITY
    assert RECOMMENDED_PLANS["dgemm"].technique_for("control") is Technique.DWC
    assert RECOMMENDED_PLANS["dgemm"].technique_for("matrices") is Technique.RESIDUE_MOD15
    assert RECOMMENDED_PLANS["clamr"].technique_for("sort") is Technique.RMT


def test_detection_probabilities_by_model():
    assert detection_probability(Technique.DWC, "random") == 1.0
    assert detection_probability(Technique.PARITY, "single") == 1.0
    assert detection_probability(Technique.PARITY, "double") == 0.0
    assert detection_probability(Technique.RESIDUE_MOD3, "single") == 1.0
    assert detection_probability(Technique.RESIDUE_MOD15, "random") == pytest.approx(14 / 15)
    assert detection_probability(Technique.RMT, "zero") == 1.0
    assert detection_probability(Technique.ABFT, "double") == 1.0


def test_evaluate_plan_counts():
    records = (
        [_record("control", Outcome.DUE)] * 4
        + [_record("matrix", Outcome.SDC, model="single")] * 4
        + [_record("matrix", Outcome.MASKED)] * 12
    )
    plan = HardeningPlan("dgemm", {"control": Technique.DWC})
    report = evaluate_plan(records, plan)
    assert report.harmful_faults == 8
    assert report.covered_faults == 4
    assert report.coverage_fraction == pytest.approx(0.5)
    assert report.expected_detections == pytest.approx(4.0)


def test_evaluate_plan_abft_corrections_by_pattern():
    records = [
        _record("matrix", Outcome.SDC, pattern="line"),
        _record("matrix", Outcome.SDC, pattern="square"),
        _record("matrix", Outcome.SDC, pattern="single"),
    ]
    plan = HardeningPlan("dgemm", {"matrices": Technique.ABFT})
    report = evaluate_plan(records, plan)
    assert report.expected_corrections == pytest.approx(2.0)  # line + single


def test_evaluate_plan_empty_campaign():
    plan = HardeningPlan("dgemm", {"matrices": Technique.ABFT})
    report = evaluate_plan([], plan)
    assert report.coverage_fraction == 0.0
    assert report.expected_detection_fraction == 0.0


def test_abft_correctable_patterns_match_paper():
    assert ABFT_CORRECTABLE_PATTERNS == {"single", "line", "random"}


def test_abft_beam_coverage(dgemm_beam):
    census = abft_beam_coverage(dgemm_beam)
    assert census.sdc_count == len(dgemm_beam.sdc_records())
    assert 0 <= census.correctable <= census.sdc_count
    assert census.detectable == census.sdc_count
