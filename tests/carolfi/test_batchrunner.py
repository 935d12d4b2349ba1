"""Vectorized batch runner: byte-identity with the scalar path.

The batch path's single hard invariant is that it changes *nothing*
observable: every record it produces — and every campaign.jsonl built
from them — must be byte-identical to the scalar serial run at any
batch size and worker count.  These tests pin that equivalence at the
record level across all batchable benchmarks and batch sizes, at the
interrupt-step extremes, through mid-batch DUEs, and when every member
diverges; then at the campaign level byte-for-byte.
"""

from __future__ import annotations

import weakref
from dataclasses import replace

import pytest

from repro.benchmarks.registry import INJECTION_BENCHMARKS, create
from repro.carolfi.batchrunner import BatchRunner
from repro.carolfi.campaign import CampaignConfig, run_campaign
from repro.carolfi.configfile import load_config
from repro.carolfi.engine import campaign_fingerprint
from repro.carolfi.supervisor import Supervisor
from repro.faults.models import FaultModel
from repro.faults.outcome import Outcome
from repro.telemetry import Telemetry, TelemetryConfig

from tests.conftest import SMALL_CLAMR

#: Small-but-real parameters so the parametrized sweeps stay fast.
SMALL_PARAMS: dict[str, dict] = {
    "clamr": SMALL_CLAMR,
    "dgemm": {},  # defaults are already small (n=60, 22 steps)
    "hotspot": {"rows": 16, "cols": 16, "iterations": 12},
    "lavamd": {"boxes1d": 2, "par_per_box": 4},
    "lud": {"n": 16, "block": 4},
    "nw": {"n": 16, "rows_per_step": 4},
}

RUNS = 48


def small(name: str):
    return create(name, **SMALL_PARAMS[name])


def runs_for(supervisor: Supervisor, count: int = RUNS):
    models = FaultModel.all()
    return [(run, models[run % len(models)]) for run in range(count)]


# -- batched records == scalar records ----------------------------------------


@pytest.mark.parametrize("name", sorted(INJECTION_BENCHMARKS))
@pytest.mark.parametrize("batch_size", [1, 3, 8, 64])
def test_batched_records_match_scalar(name, batch_size):
    """Property: for every benchmark and batch size, run_many's records
    plus scalar fallbacks equal a pure run_one sweep, field for field."""
    batched_sup = Supervisor(small(name), seed=11, snapshots=True)
    scalar_sup = Supervisor(small(name), seed=11, snapshots=True)
    runs = runs_for(batched_sup)

    records = BatchRunner(batched_sup, batch_size).run_many(runs)
    if not batched_sup.benchmark.supports_batching:
        assert records == {}, "unsupported benchmarks must decline every run"
    for run, model in runs:
        expected = scalar_sup.run_one(run, model)
        if run in records:
            assert records[run].to_dict() == expected.to_dict()
        else:
            assert batched_sup.run_one(run, model).to_dict() == expected.to_dict()


@pytest.mark.parametrize("name", sorted(INJECTION_BENCHMARKS))
def test_batched_matches_at_interrupt_extremes(name):
    """Pinned first- and last-step interrupts take the same record path
    as run_one's interrupt_step parameter."""
    batched_sup = Supervisor(small(name), seed=4, snapshots=True)
    scalar_sup = Supervisor(small(name), seed=4, snapshots=True)
    last = batched_sup.total_steps - 1
    pins = {0: 0, 1: last}
    runs = [(0, FaultModel.RANDOM), (1, FaultModel.RANDOM)]

    records = BatchRunner(batched_sup, 8).run_many(runs, interrupt_steps=pins)
    for run, model in runs:
        expected = scalar_sup.run_one(run, model, interrupt_step=pins[run])
        assert expected.interrupt_step == pins[run]
        got = records.get(run) or batched_sup.run_one(
            run, model, interrupt_step=pins[run]
        )
        assert got.to_dict() == expected.to_dict()


def test_mid_batch_due_does_not_poison_the_group():
    """dgemm's pointer/control faults DUE mid-walk; the surviving
    members' records must still match the scalar path exactly."""
    batched_sup = Supervisor(create("dgemm"), seed=11, snapshots=True)
    scalar_sup = Supervisor(create("dgemm"), seed=11, snapshots=True)
    runs = runs_for(batched_sup, 96)

    tel = Telemetry(TelemetryConfig())
    with tel.activate():
        records = BatchRunner(batched_sup, 16).run_many(runs)
    outcomes = set()
    for run, model in runs:
        expected = scalar_sup.run_one(run, model)
        outcomes.add(expected.outcome)
        got = records.get(run) or batched_sup.run_one(run, model)
        assert got.to_dict() == expected.to_dict()
    assert Outcome.DUE in outcomes, "sweep too small to exercise a DUE"

    counters = tel.registry.counter_values()
    fallbacks = sum(counters.get("repro_batch_fallback_total", {}).values())
    vectorized = counters["repro_batch_runs_total"]["benchmark=dgemm,path=vectorized"]
    assert fallbacks > 0, "dgemm's stack faults should route some members scalar"
    assert vectorized > 0


def test_all_diverge_batch_returns_empty(monkeypatch):
    """When every member fails the coherence gate, run_many returns {}
    and the scalar fallback still reproduces the records."""
    bench = small("nw")
    monkeypatch.setattr(
        type(bench), "batch_coherent", lambda self, state, golden, index: False
    )
    batched_sup = Supervisor(bench, seed=11, snapshots=True)
    scalar_sup = Supervisor(small("nw"), seed=11, snapshots=True)
    runs = runs_for(batched_sup, 16)

    records = BatchRunner(batched_sup, 8).run_many(runs)
    assert records == {}
    for run, model in runs:
        assert (
            batched_sup.run_one(run, model).to_dict()
            == scalar_sup.run_one(run, model).to_dict()
        )


def test_run_many_holds_one_group_of_member_states(monkeypatch):
    """A finished group drops its members' states: at every batched
    step of a many-group plan, at most ``batch_size`` member states are
    alive, so peak memory does not grow with the runs planned at once."""
    batch_size = 4
    sup = Supervisor(small("nw"), seed=11, snapshots=True)
    bench = sup.benchmark
    states: list[weakref.ref] = []
    live: list[int] = []
    inject, step_batch = sup.flip.inject, bench.step_batch

    def tracking_inject(benchmark, state, *args, **kwargs):
        states.append(weakref.ref(state))
        return inject(benchmark, state, *args, **kwargs)

    def counting_step_batch(*args, **kwargs):
        live.append(sum(ref() is not None for ref in states))
        return step_batch(*args, **kwargs)

    monkeypatch.setattr(sup.flip, "inject", tracking_inject)
    monkeypatch.setattr(bench, "step_batch", counting_step_batch)
    runs = runs_for(sup)
    records = BatchRunner(sup, batch_size).run_many(runs)
    assert len(records) > 2 * batch_size, "the plan must run several groups"
    assert len(states) == len(runs)
    assert live and max(live) <= batch_size


# -- campaign-level byte identity ---------------------------------------------


def test_campaign_jsonl_byte_identical_batched_vs_scalar(tmp_path):
    config = CampaignConfig(
        benchmark="nw",
        injections=60,
        seed=31,
        benchmark_params={"n": 16, "rows_per_step": 4},
    )
    run_campaign(config, log_path=tmp_path / "scalar.jsonl")
    run_campaign(replace(config, batch_size=8), log_path=tmp_path / "batched.jsonl")
    run_campaign(
        replace(config, batch_size=8),
        workers=2,
        shard_size=16,
        log_path=tmp_path / "sharded.jsonl",
    )
    scalar = (tmp_path / "scalar.jsonl").read_bytes()
    assert scalar == (tmp_path / "batched.jsonl").read_bytes()
    assert scalar == (tmp_path / "sharded.jsonl").read_bytes()


def test_fingerprint_ignores_batch_size():
    """batch_size is an execution knob, not an experiment parameter:
    checkpoints from a scalar campaign must resume under batching."""
    config = CampaignConfig(benchmark="nw", injections=60, seed=31)
    assert campaign_fingerprint(config) == campaign_fingerprint(
        replace(config, batch_size=8)
    )


# -- configuration surfaces ---------------------------------------------------


def test_configfile_parses_batch_size(tmp_path):
    ini = tmp_path / "campaign.ini"
    ini.write_text("[carol-fi]\nbenchmark = nw\ninjections = 10\nbatch_size = 8\n")
    config, _ = load_config(ini)
    assert config.batch_size == 8
    ini.write_text("[carol-fi]\nbenchmark = nw\ninjections = 10\n")
    config, _ = load_config(ini)
    assert config.batch_size == 1


def test_invalid_batch_size_rejected():
    with pytest.raises(ValueError):
        CampaignConfig(benchmark="nw", injections=10, batch_size=0)
    with pytest.raises(ValueError):
        BatchRunner(Supervisor(small("nw"), seed=1), 0)
