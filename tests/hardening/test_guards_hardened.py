"""Runtime guards and hardened-execution campaigns."""

import numpy as np
import pytest

from repro.benchmarks.registry import create, names
from repro.faults.models import FaultModel
from repro.hardening.guards import (
    GUARD_SPECS,
    FaultDetected,
    GuardKind,
    VariableGuard,
    build_guards,
)
from repro.hardening.hardened import HardenedSupervisor, run_hardened_campaign
from repro.util.bits import flip_bit_inplace

# -- guards ---------------------------------------------------------------


def test_dwc_guard_detects_any_flip():
    guard = VariableGuard("x", GuardKind.DWC)
    arr = np.arange(8, dtype=np.int64)
    guard.resync(arr)
    assert guard.clean(arr)
    flip_bit_inplace(arr, 3, 60)
    assert not guard.clean(arr)
    with pytest.raises(FaultDetected) as excinfo:
        guard.verify(arr)
    assert excinfo.value.variable == "x"
    assert excinfo.value.kind is GuardKind.DWC


def test_parity_guard_misses_even_flips():
    guard = VariableGuard("x", GuardKind.PARITY)
    arr = np.arange(8, dtype=np.int32)
    guard.resync(arr)
    flip_bit_inplace(arr, 2, 5)
    assert not guard.clean(arr)
    flip_bit_inplace(arr, 2, 9)  # second flip in the same word: even
    assert guard.clean(arr)


def test_checksum_guard_detects_value_change():
    guard = VariableGuard("x", GuardKind.CHECKSUM)
    arr = np.linspace(1, 2, 16)
    guard.resync(arr)
    assert guard.clean(arr)
    arr[5] += 0.25
    assert not guard.clean(arr)


def test_checksum_guard_handles_nan():
    guard = VariableGuard("x", GuardKind.CHECKSUM)
    arr = np.ones(4)
    guard.resync(arr)
    arr[0] = np.nan
    assert not guard.clean(arr)


def test_guard_clean_before_resync():
    guard = VariableGuard("x", GuardKind.DWC)
    assert guard.clean(np.ones(3))


def test_guard_resync_accepts_legit_writes():
    guard = VariableGuard("x", GuardKind.CHECKSUM)
    arr = np.zeros(4)
    guard.resync(arr)
    arr[:] = 7.0  # legitimate program write
    guard.resync(arr)  # scheduled scrub point
    assert guard.clean(arr)


def test_guard_specs_cover_all_benchmarks():
    assert set(GUARD_SPECS) == set(names())


def test_guard_specs_reference_real_variables():
    from repro.util.rng import derive_rng

    for name, spec in GUARD_SPECS.items():
        bench = create(name)
        state = bench.make_state(derive_rng(1, "spec", name))
        exposed = set()
        for step in range(bench.num_steps(state)):
            exposed |= {v.name for v in bench.variables(state, step)}
            bench.step(state, step)
        missing = set(spec) - exposed
        assert not missing, (name, missing)


def test_build_guards_unknown_benchmark_is_empty():
    assert build_guards("unknown") == {}


# -- hardened execution -----------------------------------------------------


@pytest.fixture(scope="module")
def hardened_dgemm() -> HardenedSupervisor:
    return HardenedSupervisor(create("dgemm"), seed=44)


def test_hardened_fault_free_run_is_masked(hardened_dgemm):
    """The guards and ABFT find the golden output clean."""
    assert hardened_dgemm._classify(hardened_dgemm.prefix.output) == ("masked", "", "")


def test_hardened_overhead_measured(hardened_dgemm):
    """The protection cost is a work count: the same for every build."""
    assert hardened_dgemm.verify_kib_per_step > 0
    twin = HardenedSupervisor(create("dgemm"), seed=44)
    assert twin.verify_kib_per_step == hardened_dgemm.verify_kib_per_step
    assert hardened_dgemm.guard_bytes > 0


def test_hardened_setup_makes_one_golden_walk():
    """No run is repeated to measure it: the golden walk that records the
    store also counts the guarded bytes."""
    bench = create("lud", n=16, block=4)
    steps = []
    original_step = bench.step
    bench.step = lambda state, index: (steps.append(index), original_step(state, index))[1]
    supervisor = HardenedSupervisor(bench, seed=3)
    assert steps == list(range(supervisor.total_steps))
    assert supervisor.verify_kib_per_step > 0


def test_guarded_variable_faults_are_detected(hardened_dgemm):
    guarded = set(GUARD_SPECS["dgemm"])
    outcomes = []
    for run in range(120):
        record = hardened_dgemm.run_one(run, FaultModel.RANDOM)
        if record.site.variable in guarded and record.site.var_class in (
            "control",
            "pointer",
        ):
            outcomes.append(record.outcome)
    assert outcomes, "no guarded control/pointer faults sampled"
    assert outcomes.count("detected") / len(outcomes) > 0.9


def test_hardened_campaign_reduces_harm():
    result = run_hardened_campaign("dgemm", injections=120, seed=9)
    shares = result.shares()
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["sdc"] + shares["due"] < 0.10
    assert shares["detected"] + shares["corrected"] > 0.2


def test_hardened_campaign_abft_corrects_some():
    result = run_hardened_campaign("dgemm", injections=200, seed=10)
    assert result.shares()["corrected"] > 0.0


def test_hardened_nw_parity_misses_double():
    supervisor = HardenedSupervisor(create("nw"), seed=3)
    sdc_models = []
    for run in range(150):
        record = supervisor.run_one(run, FaultModel.DOUBLE)
        if record.outcome == "sdc":
            sdc_models.append(record.fault_model)
    # Double faults on the parity-protected matrix can escape: the
    # hardened NW still produces some SDCs under the Double model.
    assert len(sdc_models) >= 1


def test_hardened_campaign_validates():
    with pytest.raises(ValueError):
        run_hardened_campaign("dgemm", injections=0)
    with pytest.raises(ValueError):
        run_hardened_campaign("dgemm", injections=5, fault_models=())
