"""Beam and hardened campaigns are engine kinds: every mode, one answer.

The reference for each kind is the plain loop ``run_campaign`` replaced,
kept here on a runner of its own:

* beam: ``[experiment.run_trial(t) for t in range(n)]``;
* hardened: ``[supervisor.run_one(i, models[i % 4]) for i in range(n)]``.

Every execution mode of :func:`~repro.carolfi.campaign.run_campaign` —
inline, pooled, in a subprocess lease worker, sharded differently,
checkpointed and resumed — must produce exactly those records.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from functools import lru_cache

import pytest

from repro.beam.experiment import BeamConfig, BeamExperiment
from repro.benchmarks.registry import BEAM_BENCHMARKS, INJECTION_BENCHMARKS, create
from repro.carolfi.campaign import CampaignConfig, CampaignKind, run_campaign
from repro.carolfi.engine import CheckpointError, RetryPolicy, campaign_fingerprint, shard_path
from repro.carolfi.isolation import IsolationConfig, IsolationMode
from repro.faults.models import FaultModel
from repro.faults.outcome import DueKind, Outcome
from repro.hardening.hardened import HardenedConfig, HardenedSupervisor
from repro.phi.machine import XeonPhiMachine
from repro.telemetry import Telemetry, TelemetryConfig

from tests.carolfi.test_prefixcache import SMALL_PARAMS
from tests.conftest import SMALL_DGEMM

PARAMS = {**SMALL_PARAMS, "dgemm": SMALL_DGEMM}
RUNS = 12
SUBPROC = IsolationConfig(mode=IsolationMode.SUBPROCESS)
FAST = RetryPolicy(backoff_base_s=0.001, backoff_cap_s=0.002)

#: name -> run_campaign keyword arguments.
MODES = {
    "inline": {"workers": 1},
    "inline-shard5": {"workers": 1, "shard_size": 5},
    "pool": {"workers": 2},
    "pool-shard5": {"workers": 2, "shard_size": 5},
    "sandbox-shard5": {"workers": 1, "shard_size": 5, "isolation": SUBPROC},
}


def beam_config(name: str, runs: int = RUNS) -> BeamConfig:
    return BeamConfig(benchmark=name, trials=runs, seed=7, benchmark_params=PARAMS[name])


def hardened_config(name: str, runs: int = RUNS) -> HardenedConfig:
    return HardenedConfig(benchmark=name, injections=runs, seed=7, benchmark_params=PARAMS[name])


@lru_cache(maxsize=None)
def beam_reference(name: str, runs: int = RUNS) -> tuple[dict, ...]:
    experiment = BeamExperiment(create(name, **PARAMS[name]), seed=7)
    return tuple(experiment.run_trial(t).to_dict() for t in range(runs))


@lru_cache(maxsize=None)
def hardened_reference(name: str, runs: int = RUNS) -> tuple[dict, ...]:
    supervisor = HardenedSupervisor(create(name, **PARAMS[name]), seed=7)
    models = FaultModel.all()
    return tuple(supervisor.run_one(i, models[i % 4]).to_dict() for i in range(runs))


def rows(records) -> tuple[dict, ...]:
    return tuple(record.to_dict() for record in records)


# -- mode parity ----------------------------------------------------------------


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", BEAM_BENCHMARKS)
def test_beam_campaign_matches_trial_loop_in_every_mode(name, mode):
    result = run_campaign(beam_config(name), **MODES[mode])
    assert rows(result.trials) == beam_reference(name)
    assert result.benchmark == name


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", INJECTION_BENCHMARKS)
def test_hardened_campaign_matches_run_one_loop_in_every_mode(name, mode):
    result = run_campaign(hardened_config(name), **MODES[mode])
    assert rows(result.records) == hardened_reference(name)
    twin = HardenedSupervisor(create(name, **PARAMS[name]), seed=7)
    assert (result.verify_kib_per_step, result.guard_bytes) == (
        twin.verify_kib_per_step,
        twin.guard_bytes,
    )


@pytest.mark.parametrize("name", INJECTION_BENCHMARKS)
def test_hardened_campaign_logs_are_equal_at_batch_1_and_8(tmp_path, name):
    """The hardened kind batches by default; its scalar reference width
    writes the same campaign log byte for byte."""
    logs = []
    for batch_size in (1, 8):
        log = tmp_path / f"batch{batch_size}.jsonl"
        tel = Telemetry(TelemetryConfig())
        config = replace(hardened_config(name, 24), batch_size=batch_size)
        run_campaign(config, log_path=log, telemetry=tel)
        logs.append(log.read_bytes())
        paths = tel.registry.counter_values().get("repro_batch_runs_total", {})
        vectorized = paths.get(f"benchmark={name},path=vectorized", 0)
        assert (vectorized > 0) == (batch_size > 1 and name != "clamr")
    assert logs[0] == logs[1]
    assert logs[0].count(b"\n") == 24


def test_beam_shortcut_runs_on_the_callers_experiment(monkeypatch):
    """``BeamExperiment.run_campaign`` builds no second experiment."""
    experiment = BeamExperiment(create("lud", **PARAMS["lud"]), seed=7)
    built = []
    original = BeamExperiment.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(BeamExperiment, "__init__", counting)
    result = experiment.run_campaign(RUNS)
    assert not built
    assert rows(result.trials) == beam_reference("lud")
    assert result.sensitivity is experiment.sensitivity


@pytest.mark.parametrize("mode", ["inline", "pool", "sandbox-shard5"])
def test_hardened_campaign_builds_one_runner_in_this_process(monkeypatch, mode):
    """The guard cost comes from the runner the campaign already built:
    the inline executor's, or the warm-up lease workers fork from."""
    built = []
    original = HardenedSupervisor.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(HardenedSupervisor, "__init__", counting)
    result = run_campaign(hardened_config("lud"), **MODES[mode])
    assert len(built) == 1
    assert rows(result.records) == hardened_reference("lud")


def test_callers_runner_is_refused_outside_this_process():
    experiment = BeamExperiment(create("lud", **PARAMS["lud"]), seed=7)
    with pytest.raises(ValueError, match="only in this process"):
        run_campaign(beam_config("lud"), workers=2, runner=experiment)


# -- checkpoints ----------------------------------------------------------------

#: kind -> (its config, its reference records), for one small campaign.
KINDS = {
    "beam": (lambda: beam_config("lud"), lambda: beam_reference("lud")),
    "hardened": (lambda: hardened_config("nw"), lambda: hardened_reference("nw")),
}


def records_of(result) -> tuple[dict, ...]:
    return rows(getattr(result, "trials", None) or result.records)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_killed_checkpointed_campaign_resumes_to_the_same_records(tmp_path, kind):
    make, reference = KINDS[kind]
    ckpt = tmp_path / "ckpt"
    run_campaign(make(), checkpoint_dir=ckpt, shard_size=4)
    # A campaign killed mid-run: one shard never completed.
    shard_path(ckpt, 1).unlink()
    events = []
    resumed = run_campaign(
        make(), workers=2, checkpoint_dir=ckpt, shard_size=4, progress=events.append
    )
    assert sorted(e.shard_index for e in events if e.event == "replayed") == [0, 2]
    assert [e.shard_index for e in events if e.event == "finished"] == [1]
    assert records_of(resumed) == reference()

    # A finished directory replays without running anything.
    events.clear()
    replayed = run_campaign(make(), checkpoint_dir=ckpt, shard_size=4, progress=events.append)
    assert {e.event for e in events} == {"replayed"}
    assert records_of(replayed) == reference()


def test_each_kind_refuses_every_other_kinds_checkpoints(tmp_path):
    configs: dict[str, CampaignKind] = {
        "carolfi": CampaignConfig(
            benchmark="nw", injections=8, seed=7, benchmark_params=PARAMS["nw"]
        ),
        "beam": BeamConfig(benchmark="nw", trials=8, seed=7, benchmark_params=PARAMS["nw"]),
        "hardened": hardened_config("nw", 8),
    }
    fingerprints = {campaign_fingerprint(config) for config in configs.values()}
    assert len(fingerprints) == len(configs)
    for name, config in configs.items():
        run_campaign(config, checkpoint_dir=tmp_path / name)
    markers = {
        name: json.loads((tmp_path / name / "campaign.json").read_text()) for name in configs
    }
    assert "kind" not in markers["carolfi"]  # as pinned before there were kinds
    assert markers["beam"]["kind"] == "beam" and markers["hardened"]["kind"] == "hardened"
    for name in configs:
        for other, config in configs.items():
            if other == name:
                run_campaign(config, checkpoint_dir=tmp_path / name)  # replays
            else:
                with pytest.raises(CheckpointError):
                    run_campaign(config, checkpoint_dir=tmp_path / name)


def test_configs_round_trip_the_wire_with_their_kind():
    # The wire form keys the fingerprint and the runner cache: it
    # is JSON, names the kind, and holds every field, so the kind's
    # constructor rebuilds an equal config from it.
    for config in (
        CampaignConfig(benchmark="nw", injections=8, seed=7, batch_size=4),
        beam_config("lud"),
        hardened_config("dgemm"),
    ):
        wire = json.loads(json.dumps(config.to_wire()))
        assert wire.pop("kind") == config.kind
        assert type(config)(**wire) == config


# -- quarantine -----------------------------------------------------------------


def chaos_hardened(failure: str) -> HardenedConfig:
    params = {"n": 64, "steps": 6, "failure": failure}
    return HardenedConfig(benchmark="chaos", injections=16, seed=5, benchmark_params=params)


def test_hardened_sandbox_death_is_quarantined_as_a_hardened_due():
    twin = run_campaign(chaos_hardened("none")).records
    result = run_campaign(
        chaos_hardened("exit"), shard_size=4, isolation=SUBPROC, retry=FAST
    ).records
    quarantined = [r for r in result if "quarantined" in r.detail]
    assert quarantined, "no run hit the trigger; the test is vacuous"
    for record, clean in zip(result, twin):
        if record in quarantined:
            assert record.outcome == "due"
            assert record.detail.startswith("crash: sandbox: quarantined")
            # Re-derived exactly as run_one draws them.
            assert record.interrupt_step == clean.interrupt_step
            assert record.fault_model == clean.fault_model
            assert clean.site.variable == "trigger"
        else:
            assert record == clean


def test_beam_sandbox_death_is_quarantined_as_a_beam_due(monkeypatch):
    reference = beam_reference("lud", 16)
    original = XeonPhiMachine.apply_strike

    def dying(self, bench, state, index, resource, rng):
        if index % 4 == 0:
            os._exit(86)
        return original(self, bench, state, index, resource, rng)

    # The forked lease worker inherits the patched machine model.
    monkeypatch.setattr(XeonPhiMachine, "apply_strike", dying)
    result = run_campaign(
        beam_config("lud", 16), shard_size=4, isolation=SUBPROC, retry=FAST
    ).trials
    quarantined = [t for t in result if "quarantined" in t.due_detail]
    assert quarantined, "no trial struck a dying step; the test is vacuous"
    for trial, clean in zip(result, reference):
        if trial in quarantined:
            assert trial.outcome is Outcome.DUE and trial.due_kind is DueKind.CRASH
            assert trial.effect == "unknown"
            # Re-derived in run_trial's draw order.
            assert (trial.strike_step, trial.resource, trial.occupied) == (
                clean["strike_step"],
                clean["resource"],
                clean["occupied"],
            )
            assert clean["occupied"] and clean["strike_step"] % 4 == 0
        else:
            assert trial.to_dict() == clean
