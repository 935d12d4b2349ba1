"""Supervisor: golden management and outcome classification."""

import numpy as np
import pytest

from repro.benchmarks.registry import create
from repro.carolfi.supervisor import Supervisor
from repro.faults.models import FaultModel
from repro.faults.outcome import Outcome


@pytest.fixture(scope="module")
def supervisor() -> Supervisor:
    return Supervisor(create("dgemm"), seed=123)


def test_golden_computed_once_and_quantized(supervisor):
    assert supervisor.golden.shape == (60, 60)
    assert np.array_equal(supervisor.golden, np.round(supervisor.golden, 4))


def test_total_steps_recorded(supervisor):
    assert supervisor.total_steps == 22


def test_run_one_returns_complete_record(supervisor):
    record = supervisor.run_one(0, FaultModel.SINGLE)
    assert record.benchmark == "dgemm"
    assert record.fault_model == "single"
    assert 0 <= record.interrupt_step < record.total_steps
    assert record.outcome in Outcome.all()
    assert 0 <= record.time_window < record.num_windows
    assert record.site.variable != "unknown"


def test_run_one_deterministic(supervisor):
    a = supervisor.run_one(7, FaultModel.RANDOM)
    b = supervisor.run_one(7, FaultModel.RANDOM)
    assert a == b


def test_different_runs_differ(supervisor):
    records = [supervisor.run_one(i, FaultModel.SINGLE) for i in range(20)]
    sites = {(r.site.variable, r.site.flat_index) for r in records}
    assert len(sites) > 5


def test_sdc_records_carry_metrics(supervisor):
    for run in range(200):
        record = supervisor.run_one(run, FaultModel.RANDOM)
        if record.outcome is Outcome.SDC:
            assert record.sdc_metrics["wrong_elements"] >= 1
            assert record.sdc_metrics["max_rel_err"] > 0
            assert record.sdc_metrics["pattern"] in (
                "single",
                "line",
                "square",
                "cubic",
                "random",
            )
            break
    else:  # pragma: no cover
        pytest.fail("no SDC observed in 200 random-model runs")


def test_due_records_carry_kind(supervisor):
    for run in range(300):
        record = supervisor.run_one(run, FaultModel.RANDOM)
        if record.outcome is Outcome.DUE:
            assert record.due_kind is not None
            assert record.due_detail
            assert record.sdc_metrics == {}
            break
    else:  # pragma: no cover
        pytest.fail("no DUE observed in 300 random-model runs")


def test_forced_interrupt_step(supervisor):
    record = supervisor.run_one(0, FaultModel.SINGLE, interrupt_step=5)
    assert record.interrupt_step == 5


def test_interrupt_step_validated(supervisor):
    with pytest.raises(ValueError):
        supervisor.run_one(0, FaultModel.SINGLE, interrupt_step=999)


def test_integer_benchmark_compares_exactly():
    supervisor = Supervisor(create("nw", n=16, rows_per_step=4), seed=5)
    assert supervisor.golden.dtype == np.int32


def test_window_boundaries_cover_all_windows(supervisor):
    windows = {
        supervisor.run_one(0, FaultModel.SINGLE, interrupt_step=s).time_window
        for s in range(supervisor.total_steps)
    }
    assert windows == set(range(5))


def test_crash_net_covers_arithmetic_and_memory_errors():
    """Numeric aborts and allocation failures out of a corrupted run are
    process-death analogues and must classify as crash DUEs, not escape."""
    from repro.carolfi.supervisor import _CRASH_EXCEPTIONS

    for exc_type in (ZeroDivisionError, OverflowError, FloatingPointError, MemoryError):
        assert issubclass(exc_type, _CRASH_EXCEPTIONS)


def test_crash_net_classifies_arithmetic_error_as_due():
    supervisor = Supervisor(create("nw", n=16, rows_per_step=4), seed=3)
    original = supervisor.benchmark.step

    def explode(state, index):
        if index == 2:
            raise ZeroDivisionError("corrupted divisor")
        original(state, index)

    supervisor.benchmark.step = explode
    try:
        record = supervisor.run_one(0, FaultModel.SINGLE, interrupt_step=1)
    finally:
        supervisor.benchmark.step = original
    assert record.outcome is Outcome.DUE
    assert record.due_kind is not None and record.due_kind.value == "crash"
    assert "ZeroDivisionError" in record.due_detail


def test_golden_baseline_measured_after_warm_up():
    """Set-up makes exactly one golden walk: it captures the snapshots
    and its final state holds the golden output, so no second, timed
    ``run`` follows it."""
    bench = create("nw", n=16, rows_per_step=4)
    steps = []
    runs = []
    original_step = bench.step

    def counting_step(state, index):
        steps.append(index)
        return original_step(state, index)

    bench.step = counting_step
    bench.run = lambda state: runs.append(1)
    supervisor = Supervisor(bench, seed=1)
    assert steps == list(range(supervisor.total_steps)), "expected one golden walk"
    assert runs == []


def test_warm_up_does_not_change_golden():
    a = Supervisor(create("nw", n=16, rows_per_step=4), seed=1)
    b = Supervisor(create("nw", n=16, rows_per_step=4), seed=1)
    assert np.array_equal(a.golden, b.golden)
