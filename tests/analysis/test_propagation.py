"""Propagation profiling."""

import warnings

import numpy as np
import pytest

from repro.analysis.propagation import PropagationProfile, _compare, propagation_profile
from repro.benchmarks.registry import create
from repro.faults.models import FaultModel
from repro.faults.site import FaultSite


def test_profile_structure():
    bench = create("lud", n=24, block=4)
    profile = propagation_profile(bench, seed=1, model=FaultModel.RANDOM, interrupt_step=1)
    assert profile.benchmark == "lud"
    assert profile.interrupt_step == 1
    assert profile.total_steps == 6
    if not profile.crashed:
        assert len(profile.points) == 5  # one sample per post-injection step
        for point in profile.points:
            assert point.steps_since_injection == point.step - 1
            assert 0.0 <= point.wrong_fraction <= 1.0


def test_profile_deterministic():
    bench = create("nw", n=16, rows_per_step=4)
    a = propagation_profile(bench, seed=5, model=FaultModel.SINGLE)
    b = propagation_profile(bench, seed=5, model=FaultModel.SINGLE)
    assert a.interrupt_step == b.interrupt_step
    assert [p.wrong_elements for p in a.points] == [p.wrong_elements for p in b.points]


def test_some_faults_propagate():
    bench = create("lud", n=24, block=4)
    spread = []
    for seed in range(15):
        profile = propagation_profile(bench, seed=seed, model=FaultModel.RANDOM)
        if not profile.crashed and profile.final_wrong > 1:
            spread.append(profile)
    assert spread, "no propagating fault in 15 profiles"
    # In-place LU compounds: corruption grows monotonically for at
    # least one observed fault.
    assert any(p.monotone_growth_fraction() == 1.0 for p in spread)


def test_crash_terminates_profile():
    bench = create("nw", n=16, rows_per_step=4)
    crashed = None
    for seed in range(40):
        profile = propagation_profile(bench, seed=seed, model=FaultModel.RANDOM)
        if profile.crashed:
            crashed = profile
            break
    assert crashed is not None
    assert crashed.crash_detail


def test_corrupted_replica_arithmetic_abort_is_a_crash():
    bench = create("nw", n=16, rows_per_step=4)
    original = bench.step
    stepped = set()

    def step(state, index):
        # Past the injection the clean replica steps first, so a second
        # call at the same index is the corrupted replica's.
        if index in stepped:
            raise ZeroDivisionError("division by zero")
        stepped.add(index)
        return original(state, index)

    bench.step = step
    profile = propagation_profile(bench, seed=3, interrupt_step=1)
    assert profile.crashed
    assert profile.crash_detail.startswith("ZeroDivisionError")
    assert profile.points == []


def test_interrupt_step_validated():
    bench = create("nw", n=16, rows_per_step=4)
    with pytest.raises(ValueError):
        propagation_profile(bench, seed=1, interrupt_step=999)


def test_empty_profile_properties():
    profile = PropagationProfile(
        benchmark="x",
        site=FaultSite("f", "v", 0, "float64"),
        fault_model="single",
        interrupt_step=0,
        total_steps=4,
        points=[],
    )
    assert profile.final_wrong == 0
    assert profile.peak_wrong == 0
    assert profile.monotone_growth_fraction() == 1.0


class _OutputIsState:
    """Minimal benchmark whose output is the state itself."""

    def output(self, state):
        return state


def test_compare_zero_golden_element_is_silent():
    golden = np.array([0.0, 2.0, 4.0])
    observed = np.array([1.0, 2.0, 5.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wrong, fraction, max_rel = _compare(_OutputIsState(), golden, observed)
    assert wrong == 2
    assert fraction == pytest.approx(2 / 3)
    assert max_rel == np.inf  # a wrong value where golden is zero
