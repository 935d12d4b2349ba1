"""Execution-prefix snapshot cache: correctness of the injection fast path.

The fast path is only admissible because every fault model corrupts a
value the *unfaulted* program would have computed — the pre-injection
prefix of a run is bit-identical to the golden execution, so replaying
it from a snapshot must change nothing observable.  These tests pin
that equivalence at three levels: the ``snapshot``/``restore`` protocol
per benchmark, Supervisor records fast-vs-slow, and whole campaign
JSONL files byte-for-byte.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.carolfi.supervisor as supervisor_mod
from repro.benchmarks.registry import create, names
from repro.carolfi.campaign import CampaignConfig, run_campaign
from repro.carolfi.configfile import load_config
from repro.carolfi.prefixcache import (
    DEFAULT_SNAPSHOT_BUDGET,
    PrefixStore,
    snapshot_interval,
)
from repro.carolfi.supervisor import Supervisor
from repro.faults.models import FaultModel
from repro.faults.outcome import Outcome
from repro.telemetry import Telemetry, TelemetryConfig
from repro.util.rng import derive_rng

from tests.conftest import SMALL_CLAMR

#: Small-but-real parameters so the six-way parametrized tests stay fast.
SMALL_PARAMS: dict[str, dict] = {
    "clamr": SMALL_CLAMR,
    "dgemm": {},  # defaults are already small (n=60, 22 steps)
    "hotspot": {"rows": 16, "cols": 16, "iterations": 12},
    "lavamd": {"boxes1d": 2, "par_per_box": 4},
    "lud": {"n": 16, "block": 4},
    "nw": {"n": 16, "rows_per_step": 4},
}


def small(name: str):
    return create(name, **SMALL_PARAMS[name])


# -- snapshot/restore protocol ------------------------------------------------


@pytest.mark.parametrize("name", names())
def test_restore_then_replay_is_bit_identical(name):
    """Snapshot mid-run, finish; restore, finish again: same output."""
    bench = small(name)
    state = bench.make_state(derive_rng(7, "prefix", name))
    total = bench.num_steps(state)
    assert total >= 2, "benchmark too small to test a mid-run snapshot"
    half = total // 2
    for index in range(half):
        bench.step(state, index)
    snap = bench.snapshot(state)
    for index in range(half, total):
        bench.step(state, index)
    out_a = bench.run(state)

    resumed = bench.restore(snap)
    for index in range(half, total):
        bench.step(resumed, index)
    out_b = bench.run(resumed)
    assert np.array_equal(out_a, out_b, equal_nan=True)


@pytest.mark.parametrize("name", names())
def test_snapshot_survives_mutation_of_restored_state(name):
    """``restore`` must hand out a fresh copy: running one restored
    state to completion cannot leak into a second restore."""
    bench = small(name)
    state = bench.make_state(derive_rng(7, "prefix", name))
    total = bench.num_steps(state)
    half = total // 2
    for index in range(half):
        bench.step(state, index)
    snap = bench.snapshot(state)

    first = bench.restore(snap)
    for index in range(half, total):
        bench.step(first, index)
    out_first = bench.run(first)

    second = bench.restore(snap)
    for index in range(half, total):
        bench.step(second, index)
    assert np.array_equal(out_first, bench.run(second), equal_nan=True)


# -- PrefixStore unit behaviour -----------------------------------------------


def test_snapshot_interval_scales_with_windows():
    assert snapshot_interval(400, 10) == 10
    assert snapshot_interval(8, 10) == 1  # floors at one step
    assert snapshot_interval(22, 5) == 1


def test_prefix_store_capture_and_latest():
    bench = create("nw", n=16, rows_per_step=4)
    state = bench.make_state(derive_rng(3, "store"))
    total = bench.num_steps(state)
    store = PrefixStore(bench, total)
    points = list(store.capture_points())
    assert points and all(0 < p < total for p in points)

    replay = bench.restore(bench.snapshot(state))
    for index in range(total):
        if store.wants(index):
            store.capture(index, replay)
        bench.step(replay, index)
    assert len(store) == len(points)
    assert store.latest(0) is None  # nothing strictly before the first point
    deepest = store.latest(total - 1)
    assert deepest is not None and deepest.step == points[-1]
    mid = store.latest(points[0])
    assert mid is not None and mid.step == points[0]


def test_prefix_store_rejects_out_of_range_captures():
    bench = create("nw", n=16, rows_per_step=4)
    state = bench.make_state(derive_rng(3, "store"))
    store = PrefixStore(bench, bench.num_steps(state))
    with pytest.raises(ValueError):
        store.capture(0, state)
    with pytest.raises(ValueError):
        store.capture(10**6, state)


def test_prefix_store_resume_and_fill():
    """``resume`` hands out the deepest snapshot at or below the step, or
    a pristine clone at step 0; ``fill`` captures only up to the
    perturbation step, where the state is still a golden prefix."""
    bench = create("nw", n=16, rows_per_step=4)
    pristine = bench.make_state(derive_rng(3, "store"))
    total = bench.num_steps(pristine)
    store = PrefixStore(bench, total)
    assert store.interval == 1 and total == 4

    def fresh():
        return bench.restore(pristine)

    state, start = store.resume(total - 1, fresh)
    assert start == 0 and len(store) == 0
    entry_outputs = []
    for index in range(total):
        store.fill(index, state, 2)
        entry_outputs.append(bench.output(state))
        bench.step(state, index)
    assert len(store) == 2 and store.latest(total - 1).step == 2

    for step, anchor in ((0, 0), (1, 1), (2, 2), (3, 2)):
        state, start = store.resume(step, fresh)
        assert start == anchor
        assert np.array_equal(bench.output(state), entry_outputs[anchor])
        bench.step(state, start)  # a private copy: the snapshot is untouched
        again, _ = store.resume(step, fresh)
        assert np.array_equal(bench.output(again), entry_outputs[anchor])


def test_prefix_store_byte_budget_caps_captures():
    bench = create("nw", n=16, rows_per_step=4)
    state = bench.make_state(derive_rng(3, "store"))
    total = bench.num_steps(state)
    tiny = PrefixStore(bench, total, byte_budget=1)
    captured = 0
    for index in range(total):
        if tiny.wants(index):
            tiny.capture(index, state)
            captured += 1
    assert captured == 1, "budget admits the first snapshot then refuses"
    roomy = PrefixStore(bench, total, byte_budget=DEFAULT_SNAPSHOT_BUDGET)
    assert roomy.used_bytes == 0 and len(roomy) == 0


# -- Supervisor fast path == slow path ----------------------------------------


@pytest.mark.parametrize("name", ["nw", "dgemm"])
def test_fastpath_records_match_slowpath(name):
    fast = Supervisor(small(name), seed=11, snapshots=True)
    slow = Supervisor(small(name), seed=11, snapshots=False)
    assert fast.prefix is not None and len(fast.prefix) > 0
    assert slow.prefix is None
    models = FaultModel.all()
    for run in range(40):
        model = models[run % len(models)]
        assert fast.run_one(run, model) == slow.run_one(run, model)


def test_fastpath_matches_at_interrupt_extremes():
    fast = Supervisor(create("nw", n=16, rows_per_step=4), seed=4, snapshots=True)
    slow = Supervisor(create("nw", n=16, rows_per_step=4), seed=4, snapshots=False)
    last = fast.total_steps - 1
    for step in (0, 1, last):
        a = fast.run_one(0, FaultModel.RANDOM, interrupt_step=step)
        b = slow.run_one(0, FaultModel.RANDOM, interrupt_step=step)
        assert a == b
        assert a.interrupt_step == step


def test_campaign_jsonl_byte_identical_fast_vs_slow(tmp_path):
    from dataclasses import replace

    config = CampaignConfig(benchmark="nw", injections=60, seed=31,
                            benchmark_params={"n": 16, "rows_per_step": 4})
    run_campaign(config, log_path=tmp_path / "fast.jsonl")
    run_campaign(replace(config, snapshots=False), log_path=tmp_path / "slow.jsonl")
    assert (tmp_path / "fast.jsonl").read_bytes() == (tmp_path / "slow.jsonl").read_bytes()


def test_engine_workers_respect_snapshot_toggle(tmp_path):
    from dataclasses import replace

    config = CampaignConfig(benchmark="nw", injections=24, seed=31,
                            benchmark_params={"n": 16, "rows_per_step": 4})
    serial = run_campaign(config)
    fast = run_campaign(config, workers=2, shard_size=8)
    slow = run_campaign(replace(config, snapshots=False), workers=2, shard_size=8)
    as_dicts = lambda result: [r.to_dict() for r in result.records]  # noqa: E731
    assert as_dicts(fast) == as_dicts(serial)
    assert as_dicts(slow) == as_dicts(serial)


# -- telemetry counters -------------------------------------------------------


def test_snapshot_counters_emitted_on_serial_campaign():
    tel = Telemetry(TelemetryConfig())
    config = CampaignConfig(benchmark="nw", injections=40, seed=8,
                            benchmark_params={"n": 16, "rows_per_step": 4})
    run_campaign(config, telemetry=tel)
    counters = tel.registry.counter_values()
    restores = sum(counters["repro_snapshot_restores_total"].values())
    skipped = sum(counters["repro_steps_skipped_total"].values())
    assert restores > 0
    assert skipped >= restores, "every restore skips at least one step"
    assert sum(counters["repro_compare_fastpath_total"].values()) > 0


def test_snapshot_counters_emitted_on_beam_and_hardened_campaigns():
    from repro.beam.experiment import BeamExperiment
    from repro.hardening.hardened import HardenedSupervisor

    for campaign in ("beam", "hardened"):
        tel = Telemetry(TelemetryConfig())
        with tel.activate():
            if campaign == "beam":
                BeamExperiment(small("dgemm"), seed=8).run_campaign(60)
            else:
                supervisor = HardenedSupervisor(small("dgemm"), seed=8)
                for run in range(40):
                    supervisor.run_one(run, FaultModel.all()[run % 4])
        counters = tel.registry.counter_values()
        restores = sum(counters["repro_snapshot_restores_total"].values())
        skipped = sum(counters["repro_steps_skipped_total"].values())
        assert restores > 0, campaign
        assert skipped >= restores, campaign
        assert sum(counters["repro_snapshot_captures_total"].values()) > 0, campaign
        assert set(counters["repro_snapshot_restores_total"]) == {"benchmark=dgemm"}


# -- input memoisation and compare fast path ----------------------------------


def test_fresh_state_builds_inputs_once():
    bench = create("nw", n=16, rows_per_step=4)
    calls = []
    original_make = bench.make_state

    def counting_make(rng):
        calls.append(1)
        return original_make(rng)

    bench.make_state = counting_make
    supervisor = Supervisor(bench, seed=2)
    for run in range(12):
        supervisor.run_one(run, FaultModel.ZERO)
    assert len(calls) == 1, "pristine inputs must be memoised, not re-generated"


def test_wrong_mask_called_only_on_sdc(monkeypatch):
    supervisor = Supervisor(create("dgemm"), seed=123)
    assert not np.isnan(supervisor.golden).any()
    calls = []
    original = supervisor_mod.wrong_mask

    def counting_wrong_mask(golden, observed):
        calls.append(1)
        return original(golden, observed)

    monkeypatch.setattr(supervisor_mod, "wrong_mask", counting_wrong_mask)
    records = [supervisor.run_one(run, FaultModel.RANDOM) for run in range(30)]
    sdc = sum(1 for r in records if r.outcome is Outcome.SDC)
    # With a NaN-free golden, array_equal is an exact MASKED test: the
    # element-wise mask is only ever computed for genuine mismatches.
    assert len(calls) == sdc


# -- config file --------------------------------------------------------------


def test_configfile_parses_snapshot_toggle(tmp_path):
    ini = tmp_path / "campaign.ini"
    ini.write_text(
        "[carol-fi]\nbenchmark = nw\ninjections = 10\nsnapshots = false\n"
    )
    config, _ = load_config(ini)
    assert config.snapshots is False
    ini.write_text("[carol-fi]\nbenchmark = nw\ninjections = 10\n")
    config, _ = load_config(ini)
    assert config.snapshots is True
