"""Beam trials resumed from the golden prefix equal full replays.

``BeamExperiment.run_trial`` restores the deepest snapshot at or below
the strike step and steps only the suffix.  The reference below is the
loop it replaced: a fresh input, every step from 0, the strike at the
entry of its step.  Records must match field for field on every
kernel, whichever order the trials run in (the order decides how the
lazily filled store grows, never what a trial sees).
"""

from __future__ import annotations

import random
import time
from functools import lru_cache
from typing import Any

import pytest

from repro.analysis.spatial import classify_mask, max_relative_error, wrong_mask
from repro.beam.experiment import _CRASH_EXCEPTIONS, BeamExperiment, BeamRecord
from repro.benchmarks.base import BenchmarkHang
from repro.benchmarks.registry import create, names
from repro.carolfi.prefixcache import PrefixStore
from repro.faults.outcome import DueKind, Outcome
from repro.phi.machine import MachineCheckError, SchedulerWedge
from repro.phi.resources import ResourceClass
from repro.util.rng import derive_rng

from tests.carolfi.test_prefixcache import SMALL_PARAMS
from tests.conftest import SMALL_DGEMM

PARAMS = {**SMALL_PARAMS, "dgemm": SMALL_DGEMM}

#: Most trials a campaign may need before its occupied trials have
#: struck every step.
MAX_TRIALS = 400


def replay_trial(experiment: BeamExperiment, trial: int) -> BeamRecord:
    """One trial replayed from step 0 on a freshly generated input."""
    bench = experiment.benchmark
    rng = derive_rng(experiment.seed, "beam", bench.name, "trial", str(trial))
    strike_step = int(rng.integers(0, experiment.total_steps))
    resource = experiment.sensitivity.sample_resource(rng)
    occupied = rng.random() < experiment.sensitivity.occupancy_of(resource)

    if not occupied:
        return BeamRecord(
            benchmark=bench.name,
            trial=trial,
            resource=resource.value,
            effect="dead_state",
            strike_step=strike_step,
            total_steps=experiment.total_steps,
            occupied=False,
            outcome=Outcome.MASKED,
        )

    state = bench.make_state(derive_rng(experiment.seed, "beam", bench.name, "input"))
    deadline = (
        time.perf_counter() + experiment.watchdog_factor * experiment.golden_runtime + 1.0
    )
    effect = "unapplied"
    outcome = Outcome.MASKED
    due_kind: DueKind | None = None
    due_detail = ""
    sdc_metrics: dict[str, Any] = {}
    try:
        for index in range(experiment.total_steps):
            if index == strike_step:
                result = experiment.machine.apply_strike(bench, state, index, resource, rng)
                effect = result.effect
            bench.step(state, index)
            if time.perf_counter() > deadline:
                raise BenchmarkHang("beam watchdog expired")
        observed = bench.output(state)
    except MachineCheckError as exc:
        outcome = Outcome.DUE
        due_kind = DueKind.MCA
        due_detail = str(exc)
        effect = "machine_check"
    except SchedulerWedge as exc:
        outcome = Outcome.DUE
        due_kind = DueKind.TIMEOUT
        due_detail = str(exc)
        effect = "scheduler_wedge"
    except BenchmarkHang as exc:
        outcome = Outcome.DUE
        due_kind = DueKind.TIMEOUT
        due_detail = str(exc)
    except _CRASH_EXCEPTIONS as exc:
        outcome = Outcome.DUE
        due_kind = DueKind.CRASH
        due_detail = f"{type(exc).__name__}: {exc}"
    else:
        mask = wrong_mask(experiment.golden, observed)
        if mask.any():
            outcome = Outcome.SDC
            pattern = classify_mask(mask, bench.output_dims)
            sdc_metrics = {
                "wrong_elements": int(mask.sum()),
                "wrong_fraction": float(mask.mean()),
                "max_rel_err": max_relative_error(experiment.golden, observed),
                "pattern": pattern.value,
            }
    return BeamRecord(
        benchmark=bench.name,
        trial=trial,
        resource=resource.value,
        effect=effect,
        strike_step=strike_step,
        total_steps=experiment.total_steps,
        occupied=True,
        outcome=outcome,
        due_kind=due_kind,
        due_detail=due_detail,
        sdc_metrics=sdc_metrics,
    )


def experiment_for(name: str, seed: int) -> BeamExperiment:
    return BeamExperiment(create(name, **PARAMS[name]), seed=seed)


@lru_cache(maxsize=None)
def reference(name: str, seed: int) -> tuple[dict, ...]:
    """Replayed trials 0..n-1, where n is the first count at which the
    occupied trials have struck step 0, every snapshot boundary and the
    last step (with the small parameters, every step is a boundary)."""
    experiment = experiment_for(name, seed)
    store = PrefixStore(experiment.benchmark, experiment.total_steps)
    wanted = {0, experiment.total_steps - 1, *store.capture_points()}
    records = []
    for trial in range(MAX_TRIALS):
        record = replay_trial(experiment, trial)
        records.append(record.to_dict())
        if record.occupied:
            wanted.discard(record.strike_step)
        if not wanted:
            return tuple(records)
    raise AssertionError(f"{name}: steps {sorted(wanted)} never struck")


def ordered(count: int, order: str) -> list[int]:
    trials = list(range(count))
    if order == "reverse":
        trials.reverse()
    elif order == "shuffled":
        random.Random(count).shuffle(trials)
    return trials


@pytest.mark.parametrize("order", ["forward", "reverse", "shuffled"])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", names())
def test_resumed_trials_match_full_replay(name, seed, order):
    expected = reference(name, seed)
    experiment = experiment_for(name, seed)
    got = {t: experiment.run_trial(t).to_dict() for t in ordered(len(expected), order)}
    assert [got[t] for t in range(len(expected))] == list(expected)
    assert len(experiment.prefix) > 0


@pytest.mark.parametrize("name", names())
def test_resume_between_sparse_snapshots_matches_full_replay(name):
    """One snapshot per window: most trials restore below their strike
    step and walk a golden gap before it."""
    expected = reference(name, 1)
    experiment = experiment_for(name, 1)
    experiment.prefix = PrefixStore(
        experiment.benchmark, experiment.total_steps, density=1
    )
    got = {t: experiment.run_trial(t).to_dict() for t in ordered(len(expected), "shuffled")}
    assert [got[t] for t in range(len(expected))] == list(expected)


def test_every_outcome_and_resource_is_exercised():
    """The differential cases above reach every outcome and strike path."""
    records = [r for name in names() for seed in (1, 2) for r in reference(name, seed)]
    assert {r["outcome"] for r in records} == {o.value for o in Outcome.all()}
    assert {r["due_kind"] for r in records} >= {"mca", "timeout", "crash"}
    occupied = {r["resource"] for r in records if r["occupied"]}
    assert occupied == {r.value for r in ResourceClass.all()}


def test_constructor_captures_nothing_and_trials_fill_lazily():
    experiment = experiment_for("dgemm", 3)
    assert len(experiment.prefix) == 0
    experiment.run_campaign(40)
    assert 0 < len(experiment.prefix) <= len(experiment.prefix.capture_points())
