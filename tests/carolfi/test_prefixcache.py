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
from repro.benchmarks.base import state_nbytes, states_equal
from repro.benchmarks.registry import create, names
from repro.carolfi.campaign import CampaignConfig, run_campaign
from repro.carolfi.configfile import load_config
from repro.carolfi import shmstore
from repro.carolfi.prefixcache import (
    DEFAULT_SNAPSHOT_BUDGET,
    PrefixStore,
    SharedPrefixStore,
    snapshot_interval,
)
from repro.carolfi.supervisor import Supervisor
from repro.faults.models import FaultModel
from repro.faults.outcome import Outcome
from repro.telemetry import Telemetry, TelemetryConfig
from repro.util.bits import flip_bit_inplace
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


# -- states_equal: the convergence comparison ---------------------------------

#: Every registered kernel plus the sandbox benchmark.
STATE_PARAMS: dict[str, dict] = {**SMALL_PARAMS, "chaos": {"n": 16, "steps": 6}}


@pytest.mark.parametrize("name", sorted(STATE_PARAMS))
def test_states_equal_is_bit_exact(name, shm_tmp):
    """At several steps a state equals its restored snapshot and the
    shared-memory view of that snapshot, and one flipped bit in any live
    variable makes it differ from both."""
    bench = create(name, **STATE_PARAMS[name])
    pristine = bench.make_state(derive_rng(7, "states_equal", name))
    state = bench.restore(pristine)
    total = bench.num_steps(state)
    steps = sorted({1, total // 2, total - 1})
    snaps = []
    for index in range(total):
        if index in steps:
            snap = bench.snapshot(state)
            snaps.append((index, snap, state_nbytes(snap)))
        bench.step(state, index)
    segment = shmstore.publish(
        shmstore.store_key(name, 7, bench.params),
        benchmark=name,
        total_steps=total,
        interval=1,
        degraded=False,
        pristine=pristine,
        snapshots=snaps,
        golden=bench.output(state),
    )
    assert segment is not None
    shared = SharedPrefixStore(bench, segment)
    flipped_any = False
    for step, snap, _ in snaps:
        view = shared.latest(step).state
        live = bench.restore(snap)
        assert states_equal(live, snap) and states_equal(snap, live)
        assert states_equal(live, bench.restore(bench.snapshot(live)))
        assert states_equal(live, view) and states_equal(view, live)
        for position, var in enumerate(bench.variables(live, step)):
            if var.size == 0:
                continue
            corrupted = bench.restore(snap)
            target = bench.variables(corrupted, step)[position]
            assert target.name == var.name
            flip_bit_inplace(target.array, target.size - 1, 0)
            assert not states_equal(corrupted, snap), f"{name}: {var.name} at {step}"
            assert not states_equal(view, corrupted), f"{name}: {var.name} at {step}"
            flipped_any = True
    assert flipped_any
    del shared, view  # the mapping closes only once no view is left
    segment.close()


def test_states_equal_on_scalars_arrays_and_containers():
    nan = np.array([np.nan, 1.0, -0.0])
    assert states_equal(nan, nan.copy())
    other_payload = nan.copy()
    other_payload.view(np.uint64)[0] ^= 1
    assert np.isnan(other_payload[0]) and not states_equal(nan, other_payload)
    assert not states_equal(np.array([0.0]), np.array([-0.0]))
    assert not states_equal(0.0, -0.0)
    assert states_equal(float("nan"), float("nan"))
    assert not states_equal(np.zeros(4), np.zeros(4, dtype=np.float32))
    assert not states_equal(np.zeros(4), np.zeros((2, 2)))
    assert not states_equal(1, 1.0) and not states_equal(True, 1)
    assert states_equal({"a": [1, (2.5, None)]}, {"a": [1, (2.5, None)]})
    assert not states_equal({"a": [1]}, {"b": [1]})
    assert not states_equal([1, 2], (1, 2)) and not states_equal([1], [1, 2])
    with pytest.raises(TypeError):
        states_equal(object(), object())
    with pytest.raises(TypeError):
        states_equal(np.array([None]), np.array([None]))


# -- PrefixStore unit behaviour -----------------------------------------------


def test_snapshot_interval_scales_with_windows():
    assert snapshot_interval(400, 10) == 10
    assert snapshot_interval(8, 10) == 1  # floors at one step
    assert snapshot_interval(22, 5) == 1


def test_prefix_store_capture_and_latest():
    bench = create("nw", n=16, rows_per_step=4)
    state = bench.make_state(derive_rng(3, "store"))
    total = bench.num_steps(state)
    store = PrefixStore(bench, state)
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
    store = PrefixStore(bench, state)
    with pytest.raises(ValueError):
        store.capture(0, state)
    with pytest.raises(ValueError):
        store.capture(10**6, state)


def test_prefix_store_resume_from_recorded_store():
    """``record`` walks the golden run from step 0, capturing every point
    the store wants, and keeps the golden output; ``resume`` then hands
    out the deepest snapshot at or below the step, or a pristine clone
    at step 0."""
    bench = create("nw", n=32, rows_per_step=4)
    pristine = bench.make_state(derive_rng(3, "store"))
    total = bench.num_steps(pristine)
    store = PrefixStore(bench, pristine, density=1)
    assert store.interval == 2 and total == 8

    walk = bench.restore(pristine)
    entry_states = []
    for index in range(total):
        entry_states.append(bench.snapshot(walk))
        bench.step(walk, index)

    store.record()
    assert len(store) == len(store.capture_points()) == 3
    assert np.array_equal(store.output, bench.output(walk))

    for step, anchor in ((0, 0), (1, 0), (2, 2), (3, 2), (6, 6), (7, 6)):
        state, start = store.resume(step)
        assert start == anchor
        assert states_equal(state, entry_states[anchor])
        bench.step(state, start)  # a private copy: the snapshot is untouched
        again, _ = store.resume(step)
        assert states_equal(again, entry_states[anchor])


def test_converged_only_at_stored_steps_on_golden_bytes():
    bench = create("nw", n=32, rows_per_step=4)
    pristine = bench.make_state(derive_rng(3, "store"))
    total = bench.num_steps(pristine)
    store = PrefixStore(bench, pristine, density=1)
    store.record()
    tel = Telemetry(TelemetryConfig())
    with tel.activate():
        state, start = store.resume(4)
        assert start == 4
        assert store.converged(4, state)
        assert not store.converged(3, state), "no snapshot at step 3"
        assert len(store) == 3, "converged captures nothing"
        flip_bit_inplace(bench.variables(state, 4)[0].array, 0, 0)
        assert not store.converged(4, state)
    converged = tel.registry.counter_values()["repro_steps_converged_total"]
    assert converged == {"benchmark=nw": float(total - 4)}


# -- PrefixStore.run: the one perturbed-run loop ------------------------------

#: The fast-path efficiency counters a store bumps.
STORE_COUNTERS = (
    "repro_snapshot_restores_total",
    "repro_steps_skipped_total",
    "repro_steps_converged_total",
)


def recorded_nw(snapshots: bool = True) -> PrefixStore:
    """An 8-step nw store, snapshots at steps 2, 4 and 6 when recorded."""
    bench = create("nw", n=32, rows_per_step=4)
    store = PrefixStore(bench, bench.make_state(derive_rng(3, "store")), density=1)
    store.record(snapshots=snapshots)
    return store


def noop(state, index):
    pass


class RecordingObserver:
    def __init__(self):
        self.events = []

    def enter(self, state, index):
        self.events.append(("enter", index))

    def check(self, state, index):
        self.events.append(("check", index))


def test_run_stops_at_first_snapshot_from_the_perturbation_on():
    """A no-op perturbation at step k leaves the run golden: it returns
    ``None`` at the first snapshot step j >= k, counting total - j
    converged steps, and steps to the end when no snapshot follows."""
    store = recorded_nw()
    total = store.total_steps
    for k in range(total):
        following = [j for j in (2, 4, 6) if j >= k]
        tel = Telemetry(TelemetryConfig())
        with tel.activate():
            final = store.run(k, noop)
        converged = tel.registry.counter_values().get("repro_steps_converged_total", {})
        if following:
            assert final is None, k
            assert converged == {"benchmark=nw": float(total - following[0])}, k
        else:
            assert np.array_equal(store.benchmark.output(final), store.output)
            assert converged == {}, k


def test_store_recorded_without_captures_replays_everything():
    """The ``snapshots=False`` contract the fast-vs-slow tests lean on:
    no snapshot, every run resumes at step 0 from a fresh clone and
    steps to the end, and no fast-path counter moves."""
    store = recorded_nw(snapshots=False)
    assert len(store) == 0
    assert np.array_equal(store.output, recorded_nw().output)
    tel = Telemetry(TelemetryConfig())
    with tel.activate():
        for k in range(store.total_steps):
            state, start = store.resume(k)
            assert start == 0 and states_equal(state, store.pristine)
            assert state is not store.pristine
            final = store.run(k, noop)
            assert final is not None
            assert np.array_equal(store.benchmark.output(final), store.output)
    counters = tel.registry.counter_values()
    assert all(sum(counters.get(name, {}).values()) == 0 for name in STORE_COUNTERS)


def test_run_calls_observer_around_every_step_and_perturbs_its_step():
    perturbed = []

    def perturb(state, index):
        perturbed.append(index)

    full = recorded_nw(snapshots=False)
    observer = RecordingObserver()
    assert full.run(3, perturb, observer) is not None
    assert perturbed == [3]
    expected = [("enter", 0)]
    for k in range(full.total_steps):
        expected += [("check", k), ("enter", k + 1)]
    assert observer.events == expected

    # Resumed at the snapshot below step 3, stopped at step 4 before its
    # check: golden again after the perturbation.
    perturbed.clear()
    observer = RecordingObserver()
    assert recorded_nw().run(3, perturb, observer) is None
    assert perturbed == [3]
    assert observer.events == [("enter", 2)] + [
        event for k in range(2, 4) for event in (("check", k), ("enter", k + 1))
    ]


def test_run_without_perturbations_is_a_full_replay():
    store = recorded_nw()
    observer = RecordingObserver()
    tel = Telemetry(TelemetryConfig())
    with tel.activate():
        final = store.run(None, noop, observer)
    assert final is not None
    assert np.array_equal(store.benchmark.output(final), store.output)
    assert observer.events[0] == ("enter", 0) and len(observer.events) == 2 * store.total_steps + 1
    counters = tel.registry.counter_values()
    assert all(sum(counters.get(name, {}).values()) == 0 for name in STORE_COUNTERS)


def test_prefix_store_byte_budget_caps_captures():
    bench = create("nw", n=16, rows_per_step=4)
    state = bench.make_state(derive_rng(3, "store"))
    total = bench.num_steps(state)
    tiny = PrefixStore(bench, state, byte_budget=1)
    captured = 0
    for index in range(total):
        if tiny.wants(index):
            tiny.capture(index, state)
            captured += 1
    assert captured == 1, "budget admits the first snapshot then refuses"
    roomy = PrefixStore(bench, state, byte_budget=DEFAULT_SNAPSHOT_BUDGET)
    assert roomy.used_bytes == 0 and len(roomy) == 0


# -- Supervisor fast path == slow path ----------------------------------------


@pytest.mark.parametrize("name", ["nw", "dgemm"])
def test_fastpath_records_match_slowpath(name):
    fast = Supervisor(small(name), seed=11, snapshots=True)
    slow = Supervisor(small(name), seed=11, snapshots=False)
    assert len(fast.prefix) > 0
    assert len(slow.prefix) == 0
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
    assert sum(counters["repro_steps_converged_total"].values()) > 0


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
        assert sum(counters["repro_steps_converged_total"].values()) > 0, campaign
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
    original = supervisor_mod.sdc_metrics

    def counting_sdc_metrics(golden, observed, dims):
        calls.append(1)
        return original(golden, observed, dims)

    monkeypatch.setattr(supervisor_mod, "sdc_metrics", counting_sdc_metrics)
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
