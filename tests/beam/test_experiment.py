"""Event-driven beam campaign."""

import gc
import warnings

import numpy as np
import pytest

from repro.beam.experiment import BeamExperiment, BeamRecord
from repro.faults.outcome import DueKind, Outcome
from repro.util.jsonlog import load_records


def test_golden_is_bitwise_not_quantized():
    experiment = BeamExperiment("dgemm", seed=77)
    # Unlike CAROL-FI, beam comparison keeps full precision.
    assert not np.array_equal(experiment.golden, np.round(experiment.golden, 2))


def test_trial_record_fields(dgemm_beam):
    record = dgemm_beam.trials[0]
    assert record.benchmark == "dgemm"
    assert record.resource
    assert 0 <= record.strike_step < record.total_steps
    assert record.outcome in Outcome.all()


def test_unoccupied_strikes_are_masked(dgemm_beam):
    for record in dgemm_beam.trials:
        if not record.occupied:
            assert record.outcome is Outcome.MASKED
            assert record.effect == "dead_state"


def test_some_strikes_are_unoccupied(dgemm_beam):
    assert any(not r.occupied for r in dgemm_beam.trials)


def test_all_outcomes_observed(dgemm_beam):
    outcomes = {r.outcome for r in dgemm_beam.trials}
    assert outcomes == set(Outcome.all())


def test_sdc_records_have_patterns(dgemm_beam):
    sdcs = dgemm_beam.sdc_records()
    assert sdcs
    for record in sdcs:
        assert record.sdc_metrics["pattern"] in ("single", "line", "square", "cubic", "random")
        assert record.sdc_metrics["max_rel_err"] > 0


def test_probability_and_counts(dgemm_beam):
    total = sum(dgemm_beam.count(o) for o in Outcome.all())
    assert total == len(dgemm_beam)
    assert dgemm_beam.probability(Outcome.MASKED) > 0.3


def test_deterministic_trials():
    a = BeamExperiment("lud", seed=5).run_trial(3)
    b = BeamExperiment("lud", seed=5).run_trial(3)
    assert a.to_dict() == b.to_dict()


def test_record_roundtrip(dgemm_beam):
    record = dgemm_beam.trials[0]
    assert BeamRecord.from_dict(record.to_dict()) == record


def test_campaign_log(tmp_path):
    experiment = BeamExperiment("lud", seed=9)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        result = experiment.run_campaign(20, log_path=tmp_path / "beam.jsonl")
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]
    raw = load_records(tmp_path / "beam.jsonl")
    assert len(raw) == 20
    assert raw[0]["benchmark"] == "lud"
    assert len(result) == 20
    # A rerun rewrites the log whole instead of appending a second copy.
    first = (tmp_path / "beam.jsonl").read_bytes()
    experiment.run_campaign(20, log_path=tmp_path / "beam.jsonl")
    assert (tmp_path / "beam.jsonl").read_bytes() == first


def test_trials_validated():
    experiment = BeamExperiment("lud", seed=9)
    with pytest.raises(ValueError):
        experiment.run_campaign(0)


def test_benchmark_params_forwarded():
    experiment = BeamExperiment(
        "nw" if False else "lud", seed=9, benchmark_params={"n": 16, "block": 4}
    )
    assert experiment.total_steps == 4


def test_memory_error_after_strike_is_a_crash_due():
    """A corrupted size driving an absurd allocation is a crashed
    process, as in CAROL-FI runs: the trial records a crash DUE instead
    of letting the exception abort the campaign."""
    experiment = BeamExperiment("lud", seed=5)
    # An SDC trial never re-converges to a golden state, so it still
    # steps through its strike step.
    trial = next(t for t in range(200) if experiment.run_trial(t).outcome is Outcome.SDC)
    strike_step = experiment.run_trial(trial).strike_step
    original = experiment.benchmark.step

    def step(state, index):
        if index == strike_step:
            raise MemoryError("absurd allocation")
        return original(state, index)

    experiment.benchmark.step = step
    record = experiment.run_trial(trial)
    assert record.outcome is Outcome.DUE
    assert record.due_kind is DueKind.CRASH
    assert record.due_detail.startswith("MemoryError")
