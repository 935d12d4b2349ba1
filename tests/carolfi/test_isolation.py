"""Process-isolated injection sandbox: observed deaths, kills, quarantine.

The chaos benchmark misbehaves only on runs whose injection corrupts its
trigger word to a non-zero value, so every campaign here has a *benign
twin* (``failure="none"``) with bit-identical records for all other
runs.  The acceptance bar: a campaign whose benchmark raises genuinely
uncatchable conditions completes, with the offending runs recorded as
DUEs carrying a ``sandbox:`` detail and everything else untouched.
"""

import os

import pytest

from repro.benchmarks.base import window_of_step
from repro.carolfi.campaign import CampaignConfig, run_campaign
from repro.carolfi.engine import RetryPolicy
from repro.carolfi.isolation import (
    InjectionSandbox,
    IsolationConfig,
    IsolationMode,
    SandboxError,
    rss_bytes,
)
from repro.faults.models import FaultModel
from repro.faults.outcome import DueKind, Outcome
from repro.util.jsonlog import load_records_tolerant

SUBPROC = IsolationConfig(mode=IsolationMode.SUBPROCESS)


def chaos_config(failure: str, injections: int = 16, **extra) -> CampaignConfig:
    params = {"n": 64, "steps": 6, "failure": failure}
    params.update(extra)
    return CampaignConfig(benchmark="chaos", injections=injections, seed=5, benchmark_params=params)


@pytest.fixture(scope="module")
def clean_twin():
    """Serial in-process campaign of the benign chaos twin."""
    return run_campaign(chaos_config("none"))


def assert_matches_twin_except_sandbox_dues(result, clean_twin):
    """Acceptance check: sandbox DUEs on trigger runs, all else identical."""
    sandbox_dues = []
    for twin, record in zip(clean_twin.records, result.records):
        if record.outcome is Outcome.DUE and record.due_detail.startswith("sandbox:"):
            sandbox_dues.append(record)
            # Only a corrupted trigger can misbehave.
            assert twin.site.variable == "trigger"
        else:
            assert record.to_dict() == twin.to_dict()
    assert sandbox_dues, "campaign never hit the trigger; test is vacuous"
    return sandbox_dues


# -- config validation ---------------------------------------------------------


def test_isolation_config_validation():
    assert IsolationConfig().mode is IsolationMode.INPROC
    assert IsolationConfig(mode="subprocess").mode is IsolationMode.SUBPROCESS
    with pytest.raises(ValueError):
        IsolationConfig(timeout_s=0)
    with pytest.raises(ValueError):
        IsolationConfig(mem_limit_mb=-1)
    with pytest.raises(ValueError):
        IsolationConfig(mode="gdb")


def test_isolation_config_round_trips_to_dict():
    cfg = IsolationConfig(mode="subprocess", timeout_s=9.0, mem_limit_mb=128)
    d = cfg.to_dict()
    assert d["mode"] == "subprocess"
    assert d["timeout_s"] == 9.0
    assert IsolationConfig(**d) == cfg


# -- synthetic DUE records -----------------------------------------------------


def test_due_record_re_derives_interrupt_step(clean_twin):
    supervisor = chaos_config("none").build_runner(shared=False)
    for twin in clean_twin.records[:4]:
        record = supervisor.due_record(
            twin.run_index,
            FaultModel(twin.fault_model),
            kind=DueKind.HANG,
            detail="sandbox: test",
        )
        # Same run stream => same interrupt step and time window as the
        # run would have drawn had it survived to report them.
        assert record.interrupt_step == twin.interrupt_step
        assert record.time_window == twin.time_window
        assert record.time_window == window_of_step(
            record.interrupt_step, record.total_steps, record.num_windows
        )
        assert record.outcome is Outcome.DUE
        assert record.site.variable == "unknown"


# -- clean benchmark: sandbox is transparent -----------------------------------


def test_sandbox_records_match_inproc_for_clean_benchmark():
    config = CampaignConfig(
        benchmark="nw", injections=8, seed=13, benchmark_params={"n": 16, "rows_per_step": 4}
    )
    inproc = run_campaign(config)
    sandboxed = run_campaign(config, workers=1, shard_size=4, isolation=SUBPROC)
    assert [r.to_dict() for r in sandboxed.records] == [r.to_dict() for r in inproc.records]


def test_sandbox_run_one_direct():
    config = chaos_config("none")
    with InjectionSandbox(config) as sandbox:
        record = sandbox.run_one(0, FaultModel.SINGLE)
    assert record.benchmark == "chaos"
    assert record.run_index == 0


# -- uncatchable failure modes (the acceptance criteria) -----------------------


def test_hard_exit_is_quarantined_as_crash_due(tmp_path, clean_twin):
    """``os._exit(86)`` kills the worker; the run ends up a DUE, twice-tried."""
    log = tmp_path / "failures.jsonl"
    result = run_campaign(
        chaos_config("exit"), workers=1, shard_size=4, isolation=SUBPROC, failure_log=log
    )
    dues = assert_matches_twin_except_sandbox_dues(result, clean_twin)
    assert any("quarantined" in r.due_detail for r in dues)
    assert all(r.due_kind is DueKind.CRASH for r in dues if "exit code 86" in r.due_detail)
    events, skipped = load_records_tolerant(log)
    assert skipped == 0
    kinds = [e["event"] for e in events]
    assert "sandbox_death" in kinds and "quarantine" in kinds
    # The sandbox only reports each death; the scheduler charges it to
    # the run as a failed execution and quarantines at the threshold.
    quarantined = {e["run"] for e in events if e["event"] == "quarantine"}
    assert len(quarantined) == sum("quarantined" in r.due_detail for r in dues)
    for run in quarantined:
        errors = [e for e in events if e["event"] == "run_error" and e["run"] == run]
        assert len(errors) == RetryPolicy().max_run_deaths
        assert max(e["deaths"] for e in errors) == RetryPolicy().max_run_deaths


def test_signal_death_classified_as_crash(clean_twin):
    """``os.abort()`` dies with SIGABRT; the detail names the signal."""
    result = run_campaign(chaos_config("abort"), workers=1, shard_size=4, isolation=SUBPROC)
    dues = assert_matches_twin_except_sandbox_dues(result, clean_twin)
    assert any("SIGABRT" in r.due_detail for r in dues)
    assert all(r.due_kind is DueKind.CRASH for r in dues)


def test_guard_free_spin_killed_at_deadline_as_hang(clean_twin):
    """A busy loop that never re-enters a guard only dies at the hard kill."""
    iso = IsolationConfig(mode=IsolationMode.SUBPROCESS, timeout_s=1.0)
    result = run_campaign(chaos_config("spin", spin_s=60.0), workers=1, shard_size=4, isolation=iso)
    dues = assert_matches_twin_except_sandbox_dues(result, clean_twin)
    assert all(r.due_kind is DueKind.HANG for r in dues)
    assert all("wall-clock deadline" in r.due_detail for r in dues)


def test_runaway_allocation_killed_at_rss_ceiling_as_oom(clean_twin):
    if rss_bytes(os.getpid()) is None:
        pytest.skip("no /proc RSS accounting on this platform")
    iso = IsolationConfig(mode=IsolationMode.SUBPROCESS, mem_limit_mb=200)
    result = run_campaign(
        chaos_config("alloc", alloc_cap_mb=600), workers=1, shard_size=4, isolation=iso
    )
    dues = assert_matches_twin_except_sandbox_dues(result, clean_twin)
    assert all(r.due_kind is DueKind.OOM for r in dues)
    assert all("ceiling" in r.due_detail for r in dues)


def test_parallel_sandbox_campaign_matches_twin(clean_twin):
    """Acceptance: pool + sandbox completes; non-poison records identical."""
    result = run_campaign(chaos_config("abort"), workers=2, shard_size=4, isolation=SUBPROC)
    assert_matches_twin_except_sandbox_dues(result, clean_twin)


# -- sandbox infrastructure failures ------------------------------------------


def test_unknown_benchmark_raises_sandbox_error():
    config = CampaignConfig(benchmark="no-such-benchmark", injections=1, seed=1)
    sandbox = InjectionSandbox(config)
    with pytest.raises(SandboxError):
        sandbox.run_one(0, FaultModel.SINGLE)
    sandbox.close()


def test_deadline_and_metadata_survive_worker_death():
    """Geometry stays available after a kill (no respawn just to classify)."""
    config = chaos_config("none")
    with InjectionSandbox(config) as sandbox:
        steps = sandbox.total_steps
        windows = sandbox.num_windows
        sandbox._teardown()
        assert sandbox.total_steps == steps
        assert sandbox.num_windows == windows
