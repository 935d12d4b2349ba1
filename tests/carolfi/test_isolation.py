"""Subprocess isolation: observed deaths, kills, quarantine.

Under subprocess isolation every lease runs in a forked lease worker,
at any worker count, and the local backend kills a worker whose run
passes its deadline or RSS ceiling.  The chaos benchmark misbehaves
only on runs whose injection corrupts its trigger word to a non-zero
value, so every campaign here has a *benign twin* (``failure="none"``)
with bit-identical records for all other runs.  The acceptance bar: a
campaign whose benchmark raises genuinely uncatchable conditions
completes, with the offending runs recorded as DUEs carrying a
``sandbox:`` detail and everything else untouched.

Workers get their runner by fork from the per-process cache
(``supervisor_for``), so the last tests pin that cache's lifetime.
"""

import os

import pytest

from repro.benchmarks.base import window_of_step
from repro.carolfi.campaign import CampaignConfig, run_campaign
from repro.carolfi.engine import RetryPolicy
from repro.carolfi.isolation import (
    _SUPERVISORS,
    IsolationConfig,
    IsolationMode,
    rss_bytes,
    supervisor_key,
)
from repro.faults.models import FaultModel
from repro.faults.outcome import DueKind, Outcome
from repro.telemetry import Telemetry, TelemetryConfig
from repro.util.jsonlog import load_records, load_records_tolerant

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


def assert_kills_are_outcomes(log, dues, event):
    """A kill is the killed run's outcome, not a failure: one ``event``
    per killed run, charged to its shard, and no failure event names
    that run."""
    events, skipped = load_records_tolerant(log)
    assert skipped == 0
    kills = [e for e in events if e["event"] == event]
    assert sorted(e["run"] for e in kills) == sorted(r.run_index for r in dues)
    assert all(e["shard"] == e["run"] // 4 for e in kills)  # shard_size=4
    killed = {r.run_index for r in dues}
    failures = ("run_error", "worker_death")
    assert not [e for e in events if e["event"] in failures and e["run"] in killed]
    assert not [e for e in events if e["event"] == "retry"]  # retries name no run


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


# -- synthetic DUE records -----------------------------------------------------


def test_due_record_re_derives_interrupt_step(clean_twin):
    supervisor = chaos_config("none").build_runner()
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


# -- uncatchable failure modes (the acceptance criteria) -----------------------


def test_hard_exit_is_quarantined_as_crash_due(tmp_path, clean_twin):
    """``os._exit(86)`` kills the lease worker; the run ends up a DUE,
    twice-tried."""
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
    assert "worker_death" in kinds and "quarantine" in kinds
    # The backend only reports each death; the scheduler charges it to
    # the run as a failed execution and quarantines at the threshold.
    quarantined = {e["run"] for e in events if e["event"] == "quarantine"}
    assert len(quarantined) == sum("quarantined" in r.due_detail for r in dues)
    for run in quarantined:
        deaths = [e for e in events if e["event"] == "worker_death" and e["run"] == run]
        assert len(deaths) == RetryPolicy().max_run_deaths
        assert max(e["deaths"] for e in deaths) == RetryPolicy().max_run_deaths
        assert all(e["detail"] == "shard worker exit code 86" for e in deaths)


def test_signal_death_classified_as_crash(clean_twin):
    """``os.abort()`` dies with SIGABRT; the detail names the signal."""
    result = run_campaign(chaos_config("abort"), workers=1, shard_size=4, isolation=SUBPROC)
    dues = assert_matches_twin_except_sandbox_dues(result, clean_twin)
    assert any("SIGABRT" in r.due_detail for r in dues)
    assert all(r.due_kind is DueKind.CRASH for r in dues)


def test_guard_free_spin_killed_at_deadline_as_hang(tmp_path, clean_twin):
    """A busy loop that never re-enters a guard only dies at the hard
    kill, with one lease worker or two."""
    iso = IsolationConfig(mode=IsolationMode.SUBPROCESS, timeout_s=1.0)
    for workers in (1, 2):
        log = tmp_path / f"failures-{workers}.jsonl"
        result = run_campaign(
            chaos_config("spin", spin_s=60.0),
            workers=workers,
            shard_size=4,
            isolation=iso,
            failure_log=log,
        )
        dues = assert_matches_twin_except_sandbox_dues(result, clean_twin)
        assert all(r.due_kind is DueKind.HANG for r in dues)
        assert all(
            r.due_detail == "sandbox: wall-clock deadline 1.0s exceeded; worker killed"
            for r in dues
        )
        assert_kills_are_outcomes(log, dues, "sandbox_timeout_kill")


def test_runaway_allocation_killed_at_rss_ceiling_as_oom(tmp_path, clean_twin):
    if rss_bytes(os.getpid()) is None:
        pytest.skip("no /proc RSS accounting on this platform")
    iso = IsolationConfig(mode=IsolationMode.SUBPROCESS, mem_limit_mb=200)
    for workers in (1, 2):
        log = tmp_path / f"failures-{workers}.jsonl"
        result = run_campaign(
            chaos_config("alloc", alloc_cap_mb=600),
            workers=workers,
            shard_size=4,
            isolation=iso,
            failure_log=log,
        )
        dues = assert_matches_twin_except_sandbox_dues(result, clean_twin)
        assert all(r.due_kind is DueKind.OOM for r in dues)
        assert all("ceiling" in r.due_detail for r in dues)
        assert_kills_are_outcomes(log, dues, "sandbox_oom_kill")


def test_parallel_sandbox_campaign_matches_twin(clean_twin):
    """Acceptance: a subprocess pool completes; non-poison records identical."""
    result = run_campaign(chaos_config("abort"), workers=2, shard_size=4, isolation=SUBPROC)
    assert_matches_twin_except_sandbox_dues(result, clean_twin)



# -- the runner cache forked workers inherit -----------------------------------

NW_PARAMS = {"n": 16, "rows_per_step": 4}


@pytest.mark.parametrize("workers, isolation", [(2, None), (1, SUBPROC)], ids=["pool", "sandbox"])
def test_forking_campaigns_walk_the_golden_run_once(tmp_path, workers, isolation):
    """A pool and a subprocess campaign warm the runner before forking;
    lease workers inherit it, so no process walks the golden run again."""
    config = CampaignConfig(
        benchmark="nw", injections=16, seed=37, benchmark_params=dict(NW_PARAMS)
    )
    trace = tmp_path / "trace.jsonl"
    tel = Telemetry(TelemetryConfig(trace_path=trace))
    run_campaign(config, workers=workers, shard_size=4, isolation=isolation, telemetry=tel)
    tel.finalize()
    assert [span["name"] for span in load_records(trace)].count("golden_run") == 1


def test_finished_pooled_campaigns_leave_no_cached_runner():
    """A process keeps no golden store of a campaign that has returned:
    its runner leaves the cache."""
    configs = [
        CampaignConfig(benchmark=name, injections=16, seed=3) for name in ("lud", "nw", "hotspot")
    ]
    for config in configs:
        assert len(run_campaign(config, workers=2).records) == 16
    assert not any(supervisor_key(config) in _SUPERVISORS for config in configs)


def test_serial_in_process_campaign_caches_no_runner():
    """No worker forks from a serial in-process campaign, so it caches no
    runner, mid-campaign included."""
    _SUPERVISORS.clear()
    config = CampaignConfig(
        benchmark="nw", injections=12, seed=31, benchmark_params=dict(NW_PARAMS)
    )
    seen = []

    def progress(event):
        if event.event == "finished":
            seen.append(dict(_SUPERVISORS))

    run_campaign(config, workers=1, shard_size=4, progress=progress)
    assert seen == [{}] * 3
    assert _SUPERVISORS == {}
