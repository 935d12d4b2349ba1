"""Hardened runs batch: the batch path's records equal the scalar ones.

``HardenedSupervisor`` presents the batch runner's protocol, so a
hardened plan runs through :class:`~repro.carolfi.batchrunner.BatchRunner`
like a CAROL-FI one: members join the golden walk at their interrupt
steps, where :meth:`~repro.hardening.hardened.HardenedSupervisor.perturb`
syncs their guards, flips and verifies once, and
:meth:`~repro.hardening.hardened.HardenedSupervisor.finish` classifies
the flushed output.  A member whose guard trips at join is recorded
there, from the ``FaultDetected``; one whose control state leaves the
golden trajectory finishes through ``run_one``.  Either way each record
must equal the from-step-0 replay of ``test_hardened_resume``.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.benchmarks.registry import names
from repro.carolfi.batchrunner import BatchRunner
from repro.faults.models import FaultModel
from repro.hardening.guards import FaultDetected, GuardKind
from repro.telemetry import Telemetry, TelemetryConfig

from tests.hardening.test_hardened_resume import plan, reference, supervisor_for

#: Kernels whose plans hold a member the coherence gate turns away.
INCOHERENT = {"dgemm", "nw"}


def batched(sup, jobs, width: int):
    """``jobs`` through ``BatchRunner``, the rest through ``run_one``."""
    pins = {run: step for run, _model, step in jobs if step is not None}
    tel = Telemetry(TelemetryConfig())
    with tel.activate():
        records = BatchRunner(sup, width).run_many(
            [(run, model) for run, model, _step in jobs], interrupt_steps=pins
        )
    counters = tel.registry.counter_values()
    paths = {
        key.rpartition("=")[2]: value
        for key, value in counters.get("repro_batch_runs_total", {}).items()
    }
    reasons = {
        key.rpartition("=")[2]: value
        for key, value in counters.get("repro_batch_fallback_total", {}).items()
    }
    out = {}
    for run, model, step in jobs:
        record = records.get(run) or sup.run_one(run, model, interrupt_step=step)
        out[run] = dataclasses.asdict(record)
    return out, records, {**paths, **reasons}


@pytest.mark.parametrize("width", [2, 8])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", names())
def test_batched_records_match_full_replay(name, seed, width):
    """Every plan vectorizes members and records the members a guard
    detects at join in the batch pass itself; dgemm's and nw's send
    incoherent ones to the scalar fallback, and CLAMR, without
    ``step_batch``, runs every member scalar."""
    sup = supervisor_for(name, seed)
    jobs = plan(sup)
    got, records, reached = batched(sup, jobs, width)
    assert got == reference(name, seed)
    if sup.benchmark.supports_batching:
        assert reached["vectorized"] > 0
        detected = [
            r for r in records.values() if r.outcome == "detected" and r.detected_by != "abft"
        ]
        assert detected, "no guard tripped at join"
        assert "perturb" not in reached
        assert name not in INCOHERENT or reached["incoherent"] > 0
    else:
        assert records == {} and reached == {"fallback": len(jobs), "unsupported": len(jobs)}


def test_a_raising_perturb_leaves_the_rest_of_its_group_vectorized(monkeypatch):
    """A member whose ``perturb`` raises leaves the group alone: a
    ``FaultDetected`` is recorded at join as ``run_one`` records it, an
    ``OSError`` (outside the crash net) falls back.  Either way every
    other member the walk vectorizes without the raise, it vectorizes
    with it, to the same record."""
    sup = supervisor_for("lavamd", 1)
    models = FaultModel.all()
    runs = [(run, models[run % len(models)]) for run in range(16)]
    baseline = BatchRunner(sup, 8).run_many(runs)
    steps = Counter(record.interrupt_step for record in baseline.values())
    victim = min(
        (record for record in baseline.values() if steps[record.interrupt_step] == 1),
        key=lambda record: (record.interrupt_step, record.run_index),
    )
    original = sup.perturb
    assert len(baseline) > 2
    rest = {run: r for run, r in baseline.items() if run != victim.run_index}
    for error in (FaultDetected("box_ctl", GuardKind.DWC), OSError("outside the net")):

        def perturb(state, step, model, rng):
            if step == victim.interrupt_step:
                raise error
            return original(state, step, model, rng)

        monkeypatch.setattr(sup, "perturb", perturb)
        records = BatchRunner(sup, 8).run_many(runs)
        if isinstance(error, FaultDetected):
            scalar = sup.run_one(
                victim.run_index, victim.fault_model, interrupt_step=victim.interrupt_step
            )
            assert scalar.outcome == "detected"
            assert records == {**rest, victim.run_index: scalar}
        else:
            assert records == rest
