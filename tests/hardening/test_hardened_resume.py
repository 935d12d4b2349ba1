"""Hardened runs resumed from the golden prefix equal full replays.

``HardenedSupervisor.run_one`` restores the deepest snapshot at or
below an injected run's interrupt step, rebuilds the guards there with
``sync_guards``, steps only the suffix and stops, masked, at the first
snapshot step from the interrupt on whose bytes it matches.  The
reference below is the loop it replaced: a fresh input, guards attached
at step 0 and walked through every verify/step/resync of the whole run.
Records must match field for field, every case must include runs that
stopped early, and the guard state itself must match at every step.
"""

from __future__ import annotations

import dataclasses
import random
from functools import lru_cache

import numpy as np
import pytest

from repro.analysis.spatial import wrong_mask
from repro.benchmarks.base import BenchmarkHang
from repro.benchmarks.registry import create, names
from repro.carolfi.prefixcache import PrefixStore
from repro.carolfi.supervisor import _CRASH_EXCEPTIONS
from repro.faults.models import FaultModel
from repro.faults.site import FaultSite
from repro.hardening.abft import AbftOutcome, abft_check, abft_checksums
from repro.hardening.guards import (
    DetectorEvent,
    FaultDetected,
    VariableGuard,
    attach_observer,
    build_guards,
    sync_guards,
)
from repro.hardening.hardened import HardenedRecord, HardenedSupervisor
from repro.telemetry import Telemetry, TelemetryConfig
from repro.util.rng import derive_rng

from tests.carolfi.test_prefixcache import SMALL_PARAMS
from tests.conftest import SMALL_DGEMM

PARAMS = {**SMALL_PARAMS, "dgemm": SMALL_DGEMM}


def replay_execute(
    sup: HardenedSupervisor,
    run_index: int,
    model: FaultModel | None,
    interrupt_step: int | None,
) -> HardenedRecord:
    """One hardened run replayed from step 0 on a freshly generated input."""
    bench = sup.benchmark
    rng = derive_rng(sup.seed, "hardened", bench.name, "run", str(run_index))
    if model is not None and interrupt_step is None:
        interrupt_step = int(rng.integers(0, sup.total_steps))

    state = bench.make_state(derive_rng(sup.seed, "carolfi", bench.name, "input"))
    checksums = abft_checksums(state.a_src, state.b_src) if sup.abft else None
    guards = build_guards(bench.name)
    if sup.detector_observer is not None:
        attach_observer(guards, sup.detector_observer)
    site = FaultSite("none", "none", 0, "none")
    outcome = "masked"
    detected_by = ""
    detail = ""

    def record(outcome: str, detected_by: str, detail: str) -> HardenedRecord:
        return HardenedRecord(
            bench.name,
            run_index,
            site,
            model.value if model else "none",
            interrupt_step if interrupt_step is not None else -1,
            outcome,
            detected_by,
            detail,
        )

    try:
        initial = {v.name: v.array for v in bench.variables(state, 0)}
        for name, guard in guards.items():
            if name in initial:
                guard.resync(initial[name])
        for index in range(sup.total_steps):
            if model is not None and index == interrupt_step:
                site, _bits = sup.flip.inject(bench, state, index, model, rng)
            arrays = {v.name: v.array for v in bench.variables(state, index)}
            for name, guard in guards.items():
                if name in arrays:
                    guard.verify(arrays[name])
            bench.step(state, index)
            arrays = {v.name: v.array for v in bench.variables(state, index + 1)}
            for name, guard in guards.items():
                if name in arrays:
                    guard.resync(arrays[name])
                else:
                    guard.detach()
        observed = bench.output(state)
        if checksums is not None:
            verdict = abft_check(observed, checksums[0], checksums[1])
            if sup.detector_observer is not None and verdict.outcome is not AbftOutcome.CLEAN:
                sup.detector_observer(DetectorEvent("output", "abft", verdict.outcome.value))
            if verdict.outcome is AbftOutcome.CORRECTED:
                observed = verdict.matrix
                if wrong_mask(sup.golden, sup.benchmark.quantize(observed)).any():
                    return record("sdc", "", "abft corrected but output still differs")
                return record("corrected", "abft", f"{verdict.corrections} element(s) repaired")
            if verdict.outcome is AbftOutcome.DETECTED:
                return record(
                    "detected", "abft", "output checksums mismatch (uncorrectable pattern)"
                )
        observed = sup.benchmark.quantize(observed)
        if wrong_mask(sup.golden, observed).any():
            outcome = "sdc"
    except FaultDetected as exc:
        outcome = "detected"
        detected_by = f"{exc.kind.value}:{exc.variable}"
        detail = str(exc)
    except BenchmarkHang as exc:
        outcome = "due"
        detail = f"timeout: {exc}"
    except _CRASH_EXCEPTIONS as exc:
        outcome = "due"
        detail = f"crash: {type(exc).__name__}: {exc}"
    return record(outcome, detected_by, detail)


def supervisor_for(name: str, seed: int, **kwargs) -> HardenedSupervisor:
    return HardenedSupervisor(create(name, **PARAMS[name]), seed=seed, **kwargs)


def plan(sup: HardenedSupervisor) -> list[tuple[int, FaultModel, int | None]]:
    """Every fault model forced at step 0, every snapshot boundary and the
    last step, plus as many runs at their own drawn steps."""
    store = PrefixStore(sup.benchmark, sup.prefix.pristine)
    steps = sorted({0, sup.total_steps - 1, *store.capture_points()})
    models = FaultModel.all()
    forced = [(step, model) for step in steps for model in models]
    jobs: list[tuple[int, FaultModel, int | None]] = [
        (run, model, step) for run, (step, model) in enumerate(forced)
    ]
    jobs += [
        (len(forced) + run, models[run % len(models)], None) for run in range(len(forced))
    ]
    return jobs


def ordered(jobs: list, order: str) -> list:
    jobs = list(jobs)
    if order == "reverse":
        jobs.reverse()
    elif order == "shuffled":
        random.Random(len(jobs)).shuffle(jobs)
    return jobs


@lru_cache(maxsize=None)
def reference(name: str, seed: int) -> dict[int, dict]:
    """The :func:`plan` runs replayed from step 0, by run index."""
    sup = supervisor_for(name, seed)
    return {
        run: dataclasses.asdict(replay_execute(sup, run, model, step))
        for run, model, step in plan(sup)
    }


def resumed(sup: HardenedSupervisor, order: str) -> dict[int, dict]:
    return {
        run: dataclasses.asdict(sup.run_one(run, model, interrupt_step=step))
        for run, model, step in ordered(plan(sup), order)
    }


@pytest.mark.parametrize("order", ["forward", "reverse", "shuffled"])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", names())
def test_resumed_runs_match_full_replay(name, seed, order):
    sup = supervisor_for(name, seed)
    tel = Telemetry(TelemetryConfig())
    with tel.activate():
        got = resumed(sup, order)
    assert got == reference(name, seed)
    assert len(sup.prefix) > 0
    converged = tel.registry.counter_values()["repro_steps_converged_total"]
    assert sum(converged.values()) > 0, "no run stopped at golden re-convergence"


@pytest.mark.parametrize("name", names())
def test_resume_between_sparse_snapshots_matches_full_replay(name):
    """One snapshot per window: most runs restore below their interrupt
    step, walk a guarded golden gap before it and can stop only at a
    window's snapshot."""
    sup = supervisor_for(name, 1)
    sup.prefix = PrefixStore(sup.benchmark, sup.prefix.pristine, density=1)
    sup.prefix.record()
    assert resumed(sup, "shuffled") == reference(name, 1)


def test_every_outcome_is_exercised():
    """The differential cases above reach every hardened outcome."""
    outcomes = {
        record["outcome"]
        for name in names()
        for seed in (1, 2)
        for record in reference(name, seed).values()
    }
    assert outcomes == {"masked", "sdc", "due", "detected", "corrected"}


@pytest.mark.parametrize("name", names())
def test_detector_events_match_full_replay(name):
    """Guards rebuilt at the resume step trip exactly when walked ones do."""
    got: list[DetectorEvent] = []
    expected: list[DetectorEvent] = []
    sup = supervisor_for(name, 1, detector_observer=got.append)
    oracle = supervisor_for(name, 1, detector_observer=expected.append)
    for run, model, step in plan(sup):
        got.append(DetectorEvent("run", str(run), ""))
        expected.append(DetectorEvent("run", str(run), ""))
        assert sup.run_one(run, model, interrupt_step=step) == replay_execute(
            oracle, run, model, step
        )
    assert got == expected
    assert any(event.action == "trip" for event in got)


# -- guard state at the resume step ---------------------------------------------


def guard_state(guard: VariableGuard) -> tuple:
    def raw(array: np.ndarray | None) -> tuple | None:
        if array is None:
            return None
        return (array.dtype.str, array.shape, array.tobytes())

    checksum = guard._checksum
    return (
        raw(guard._shadow),
        raw(guard._parity),
        None if checksum is None else ("nan" if np.isnan(checksum) else checksum),
    )


@pytest.mark.parametrize("name", names())
def test_synced_guards_equal_guards_walked_through_golden_prefix(name):
    """At every step k, resync-or-detach on a restored state reproduces
    the guards a fault-free walk from step 0 leaves: the same shadow
    bytes, parity words, checksum (NaN included) and ``None``-ness."""
    bench = create(name, **PARAMS[name])
    state = bench.make_state(derive_rng(5, "carolfi", name, "input"))
    total = bench.num_steps(state)
    walked = build_guards(name)
    initial = {v.name: v.array for v in bench.variables(state, 0)}
    for guard_name, guard in walked.items():
        if guard_name in initial:
            guard.resync(initial[guard_name])
    for k in range(total):
        restored = bench.restore(bench.snapshot(state))
        synced = build_guards(name)
        for guard in synced.values():  # stale state a detach must clear
            guard.resync(np.full(3, np.nan))
        sync_guards(synced, bench.variables(restored, k))
        assert {n: guard_state(g) for n, g in synced.items()} == {
            n: guard_state(g) for n, g in walked.items()
        }, f"{name}: guards differ at step {k}"
        arrays = {v.name: v.array for v in bench.variables(state, k)}
        for guard_name, guard in walked.items():
            if guard_name in arrays:
                guard.verify(arrays[guard_name])
        bench.step(state, k)
        after = {v.name: v.array for v in bench.variables(state, k + 1)}
        for guard_name, guard in walked.items():
            if guard_name in after:
                guard.resync(after[guard_name])
            else:
                guard.detach()
    assert any(guard_state(g) != (None, None, None) for g in walked.values())


# -- interrupt-step validation ----------------------------------------------------


@pytest.mark.parametrize("step", [12, 10_000, -1])
def test_out_of_range_interrupt_step_raises(step):
    sup = HardenedSupervisor(create("lud"), seed=1)
    assert sup.total_steps == 12
    with pytest.raises(ValueError, match="interrupt step .* out of range"):
        sup.run_one(0, FaultModel.SINGLE, interrupt_step=step)
