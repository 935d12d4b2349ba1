"""Records do not depend on the wall clock.

Every run loop steps a fixed number of quanta and every hang is a
deterministic loop guard, so a clock that jumps 1000 s per reading — a
host that stalls between any two readings — must leave every record of
every execution path as it is.
"""

from __future__ import annotations

import itertools
import time

import pytest

from repro.beam.experiment import BeamExperiment
from repro.benchmarks.registry import create
from repro.carolfi.campaign import CampaignConfig, run_campaign
from repro.faults.models import FaultModel
from repro.hardening.hardened import HardenedConfig, HardenedSupervisor


def under_stalling_clock(monkeypatch, call):
    """``call()`` with ``time.perf_counter`` advancing 1000 s per reading."""
    ticks = itertools.count()
    with monkeypatch.context() as patch:
        patch.setattr(time, "perf_counter", lambda: 1000.0 * next(ticks))
        return call()


@pytest.mark.parametrize("batch_size", [1, 8])
def test_carolfi_records_ignore_the_clock(monkeypatch, batch_size):
    config = CampaignConfig(benchmark="hotspot", injections=24, seed=5, batch_size=batch_size)
    expected = [r.to_dict() for r in run_campaign(config).records]
    stalled = under_stalling_clock(monkeypatch, lambda: run_campaign(config))
    assert [r.to_dict() for r in stalled.records] == expected


def test_beam_records_ignore_the_clock(monkeypatch):
    reference = BeamExperiment("lud", seed=5)
    expected = [reference.run_trial(trial) for trial in range(24)]
    experiment = BeamExperiment("lud", seed=5)
    stalled = under_stalling_clock(monkeypatch, lambda: experiment.run_campaign(24))
    assert [t.to_dict() for t in stalled.trials] == [t.to_dict() for t in expected]


def test_hardened_records_ignore_the_clock(monkeypatch):
    models = FaultModel.all()
    supervisor = HardenedSupervisor(create("lud"), seed=5)
    expected = [supervisor.run_one(i, models[i % len(models)]) for i in range(12)]
    config = HardenedConfig(benchmark="lud", injections=12, seed=5)
    stalled = under_stalling_clock(monkeypatch, lambda: run_campaign(config))
    assert stalled.records == expected
