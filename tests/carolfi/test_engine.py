"""Sharded parallel campaign engine: determinism, resume, corruption."""

import io
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.carolfi.campaign import CampaignConfig, run_campaign
from repro.carolfi.engine import (
    FAILURE_LOG_NAME,
    CheckpointError,
    RetryPolicy,
    ShardFailure,
    ShardSpec,
    backoff_delay,
    campaign_fingerprint,
    plan_shards,
    resolve_workers,
    shard_path,
)
from repro.carolfi.isolation import IsolationConfig, IsolationMode
from repro.faults.models import FaultModel
from repro.faults.outcome import DueKind, InjectionRecord, Outcome
from repro.telemetry import Telemetry, TelemetryConfig
from repro.util.jsonlog import load_records, load_records_tolerant

#: Small, fast campaign: nw with 4 steps, 24 injections over 4 shards,
#: every run scalar (batch groups follow each lease's range, DESIGN §11.4).
CONFIG = CampaignConfig(
    benchmark="nw",
    injections=24,
    seed=13,
    benchmark_params={"n": 16, "rows_per_step": 4},
    batch_size=1,
)
SHARD_SIZE = 6


def dicts(result):
    return [r.to_dict() for r in result.records]


@pytest.fixture(scope="module")
def serial_result():
    return run_campaign(CONFIG)


# -- shard planning -----------------------------------------------------------


def test_plan_shards_partitions_runs():
    shards = plan_shards(25, 7)
    assert [s.index for s in shards] == [0, 1, 2, 3]
    assert shards[0].start == 0 and shards[-1].stop == 25
    covered = [i for s in shards for i in s.run_indices()]
    assert covered == list(range(25))


def test_plan_shards_default_is_worker_independent():
    shards = plan_shards(1600)
    assert len(shards) == 16
    assert sum(s.size for s in shards) == 1600


def test_plan_shards_rejects_bad_input():
    with pytest.raises(ValueError):
        plan_shards(0)
    with pytest.raises(ValueError):
        plan_shards(10, 0)
    with pytest.raises(ValueError):
        ShardSpec(index=0, start=5, stop=5)


def test_resolve_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert resolve_workers(None) == 3
    assert resolve_workers(2) == 2
    monkeypatch.delenv("REPRO_WORKERS")
    assert resolve_workers(None) >= 1
    with pytest.raises(ValueError):
        resolve_workers(0)


def test_fingerprint_tracks_config():
    base = campaign_fingerprint(CONFIG, SHARD_SIZE)
    assert base == campaign_fingerprint(CONFIG, SHARD_SIZE)
    other_seed = CampaignConfig(
        benchmark="nw", injections=24, seed=14,
        benchmark_params={"n": 16, "rows_per_step": 4},
    )
    assert campaign_fingerprint(other_seed, SHARD_SIZE) != base
    assert campaign_fingerprint(CONFIG, 3) != base


# -- determinism across worker counts (acceptance criterion) ------------------


def test_parallel_matches_serial_record_for_record(serial_result):
    parallel = run_campaign(CONFIG, workers=4, shard_size=SHARD_SIZE)
    assert dicts(parallel) == dicts(serial_result)


@pytest.mark.parametrize("shard_size", [5, SHARD_SIZE])
def test_sharding_layout_does_not_change_records(serial_result, shard_size):
    sharded = run_campaign(CONFIG, workers=1, shard_size=shard_size)
    assert dicts(sharded) == dicts(serial_result)


def test_engine_writes_campaign_log(tmp_path, serial_result):
    log_path = tmp_path / "campaign.jsonl"
    run_campaign(CONFIG, log_path, workers=2, shard_size=SHARD_SIZE)
    loaded = [InjectionRecord.from_dict(raw) for raw in load_records(log_path)]
    assert [r.to_dict() for r in loaded] == dicts(serial_result)


@pytest.mark.parametrize("workers", [1, 2])
def test_rerun_rewrites_the_campaign_log(tmp_path, workers):
    """A second run — serial and from scratch, or pooled and a pure
    replay of its checkpoints with the log inside the checkpoint
    directory — leaves one line per run, byte for byte the first run's."""
    ckpt = tmp_path / "ckpt" if workers > 1 else None
    log_path = tmp_path / "ckpt" / "campaign.jsonl"
    kwargs = dict(workers=workers, shard_size=SHARD_SIZE, checkpoint_dir=ckpt)
    run_campaign(CONFIG, log_path, **kwargs)
    first = log_path.read_bytes()
    run_campaign(CONFIG, log_path, **kwargs)
    assert len(first.splitlines()) == CONFIG.injections
    assert log_path.read_bytes() == first


# -- resumable checkpoints (acceptance criterion) -----------------------------


def test_resume_skips_completed_shards(tmp_path, serial_result):
    ckpt = tmp_path / "ckpt"
    run_campaign(CONFIG, workers=1, checkpoint_dir=ckpt, shard_size=SHARD_SIZE)
    # Simulate a campaign killed mid-run: two shards never completed.
    shard_path(ckpt, 2).unlink()
    shard_path(ckpt, 3).unlink()
    events = []
    resumed = run_campaign(
        CONFIG,
        workers=1,
        checkpoint_dir=ckpt,
        shard_size=SHARD_SIZE,
        progress=events.append,
    )
    replayed = sorted(e.shard_index for e in events if e.event == "replayed")
    finished = sorted(e.shard_index for e in events if e.event == "finished")
    assert replayed == [0, 1]
    assert finished == [2, 3]
    assert dicts(resumed) == dicts(serial_result)


def test_resume_tolerates_partial_trailing_line(tmp_path, serial_result):
    """A worker killed mid-append leaves a truncated line; the shard re-runs."""
    ckpt = tmp_path / "ckpt"
    run_campaign(CONFIG, workers=1, checkpoint_dir=ckpt, shard_size=SHARD_SIZE)
    path = shard_path(ckpt, 1)
    lines = path.read_text(encoding="utf-8").splitlines()
    truncated = "\n".join(lines[:4]) + '\n{"kind": "record", "data": {"tru'
    path.write_text(truncated, encoding="utf-8")
    events = []
    resumed = run_campaign(
        CONFIG,
        workers=1,
        checkpoint_dir=ckpt,
        shard_size=SHARD_SIZE,
        progress=events.append,
    )
    assert 1 in {e.shard_index for e in events if e.event == "finished"}
    assert dicts(resumed) == dicts(serial_result)
    # The re-run rewrote a complete checkpoint: a third invocation replays all.
    again = run_campaign(CONFIG, workers=1, checkpoint_dir=ckpt, shard_size=SHARD_SIZE)
    assert dicts(again) == dicts(serial_result)


def test_missing_done_footer_reruns_shard(tmp_path, serial_result):
    ckpt = tmp_path / "ckpt"
    run_campaign(CONFIG, workers=1, checkpoint_dir=ckpt, shard_size=SHARD_SIZE)
    path = shard_path(ckpt, 0)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[-1])["kind"] == "done"
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    events = []
    resumed = run_campaign(
        CONFIG,
        workers=1,
        checkpoint_dir=ckpt,
        shard_size=SHARD_SIZE,
        progress=events.append,
    )
    assert 0 in {e.shard_index for e in events if e.event == "finished"}
    assert dicts(resumed) == dicts(serial_result)


def test_parallel_resume_matches_serial(tmp_path, serial_result):
    ckpt = tmp_path / "ckpt"
    run_campaign(CONFIG, workers=1, checkpoint_dir=ckpt, shard_size=SHARD_SIZE)
    shard_path(ckpt, 1).unlink()
    resumed = run_campaign(
        CONFIG, workers=2, checkpoint_dir=ckpt, shard_size=SHARD_SIZE
    )
    assert dicts(resumed) == dicts(serial_result)


def test_mismatched_config_hash_rejected(tmp_path):
    ckpt = tmp_path / "ckpt"
    run_campaign(CONFIG, workers=1, checkpoint_dir=ckpt, shard_size=SHARD_SIZE)
    other = CampaignConfig(
        benchmark="nw", injections=24, seed=14,
        benchmark_params={"n": 16, "rows_per_step": 4},
    )
    with pytest.raises(CheckpointError):
        run_campaign(other, workers=1, checkpoint_dir=ckpt, shard_size=SHARD_SIZE)


def test_mismatched_shard_header_rejected(tmp_path):
    ckpt = tmp_path / "ckpt"
    run_campaign(CONFIG, workers=1, checkpoint_dir=ckpt, shard_size=SHARD_SIZE)
    # A shard file copied over another slot matches the campaign hash but
    # covers the wrong run range: loud failure, never silent reuse.
    shard_path(ckpt, 0).write_text(
        shard_path(ckpt, 1).read_text(encoding="utf-8"), encoding="utf-8"
    )
    with pytest.raises(CheckpointError):
        run_campaign(CONFIG, workers=1, checkpoint_dir=ckpt, shard_size=SHARD_SIZE)


def test_garbage_shard_file_reruns_shard(tmp_path, serial_result):
    ckpt = tmp_path / "ckpt"
    run_campaign(CONFIG, workers=1, checkpoint_dir=ckpt, shard_size=SHARD_SIZE)
    shard_path(ckpt, 2).write_text("complete garbage\nnot json\n", encoding="utf-8")
    resumed = run_campaign(CONFIG, workers=1, checkpoint_dir=ckpt, shard_size=SHARD_SIZE)
    assert dicts(resumed) == dicts(serial_result)


def test_killed_campaign_resumes_without_rerunning_finished_shards(tmp_path):
    """SIGKILL a checkpointing campaign mid-run, then resume in-process."""
    ckpt = tmp_path / "ckpt"
    script = (
        "from repro.carolfi.campaign import CampaignConfig, run_campaign\n"
        "config = CampaignConfig(benchmark='nw', injections=24, seed=13,\n"
        "                        benchmark_params={'n': 16, 'rows_per_step': 4})\n"
        "import time\n"
        "def slow(event):\n"
        "    time.sleep(0.05)  # stretch the campaign so the kill lands mid-run\n"
        f"run_campaign(config, workers=1, checkpoint_dir={str(ckpt)!r},\n"
        "             shard_size=6, progress=slow)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [env.get("PYTHONPATH", "")] + list(sys.path) if p
    )
    proc = subprocess.Popen([sys.executable, "-c", script], env=env)
    deadline = time.time() + 60
    try:
        # Wait until at least one shard checkpoint is complete, then kill.
        while time.time() < deadline and proc.poll() is None:
            done = [
                i for i in range(4)
                if shard_path(ckpt, i).exists()
                and '"kind": "done"' in shard_path(ckpt, i).read_text(encoding="utf-8")
            ]
            if done:
                break
            time.sleep(0.01)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait(timeout=60)

    events = []
    resumed = run_campaign(
        CONFIG,
        workers=1,
        checkpoint_dir=ckpt,
        shard_size=SHARD_SIZE,
        progress=events.append,
    )
    replayed = {e.shard_index for e in events if e.event == "replayed"}
    finished = {e.shard_index for e in events if e.event == "finished"}
    assert replayed, "kill landed before any shard completed"
    assert replayed | finished == {0, 1, 2, 3}
    assert replayed.isdisjoint(finished)
    assert dicts(resumed) == dicts(run_campaign(CONFIG))


# -- failures and heartbeats --------------------------------------------------


#: Near-zero backoff so retry-heavy tests stay fast.
FAST_RETRY = RetryPolicy(backoff_base_s=0.001, backoff_cap_s=0.002)


def test_unknown_benchmark_fails_with_retry(tmp_path):
    """A runner that cannot be built fails its lease, in process or in a
    forked lease worker; no run is charged, and the shard fails."""
    bad = CampaignConfig(benchmark="no-such-benchmark", injections=4, seed=1)
    for isolation in (None, IsolationConfig(mode=IsolationMode.SUBPROCESS)):
        events = []
        log = tmp_path / f"failures-{isolation is None}.jsonl"
        with pytest.raises(ShardFailure):
            run_campaign(
                bad,
                workers=1,
                shard_size=2,
                progress=events.append,
                retry=FAST_RETRY,
                isolation=isolation,
                failure_log=log,
            )
        kinds = [e.event for e in events]
        assert "retried" in kinds and "failed" in kinds
        errors = [e for e in load_records_tolerant(log)[0] if e["event"] == "run_error"]
        assert errors and all(e["run"] is None for e in errors)


def test_shard_failure_carries_attempt_count():
    bad = CampaignConfig(benchmark="no-such-benchmark", injections=2, seed=1)
    with pytest.raises(ShardFailure) as excinfo:
        run_campaign(bad, workers=1, shard_size=2, retry=FAST_RETRY)
    assert excinfo.value.attempts == FAST_RETRY.max_attempts
    assert excinfo.value.shard_index == 0


# -- backoff and retry policy -------------------------------------------------


def test_backoff_deterministic_under_fixed_seed():
    policy = RetryPolicy(backoff_base_s=0.25, backoff_cap_s=8.0)
    assert backoff_delay(13, 2, 1, policy) == backoff_delay(13, 2, 1, policy)
    # Jitter streams are keyed by shard and attempt: no stampede.
    assert backoff_delay(13, 2, 1, policy) != backoff_delay(13, 3, 1, policy)
    assert backoff_delay(13, 2, 1, policy) != backoff_delay(13, 2, 2, policy)
    assert backoff_delay(13, 2, 1, policy) != backoff_delay(14, 2, 1, policy)


def test_backoff_grows_exponentially_to_cap():
    policy = RetryPolicy(backoff_base_s=0.25, backoff_cap_s=8.0)
    for attempt in range(1, 12):
        expected = min(0.25 * 2 ** (attempt - 1), 8.0)
        delay = backoff_delay(13, 0, attempt, policy)
        assert 0.5 * expected <= delay <= 1.5 * expected
    with pytest.raises(ValueError):
        backoff_delay(13, 0, 0, policy)


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_base_s=2.0, backoff_cap_s=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(liveness_timeout_s=0)
    with pytest.raises(ValueError):
        RetryPolicy(max_run_deaths=0)


# -- failure-event log --------------------------------------------------------


def test_checkpoint_dir_gets_failure_log_eagerly(tmp_path):
    ckpt = tmp_path / "ckpt"
    run_campaign(CONFIG, workers=1, checkpoint_dir=ckpt, shard_size=SHARD_SIZE)
    log = ckpt / FAILURE_LOG_NAME
    assert log.exists(), "failure log must exist even for a clean campaign"
    events, skipped = load_records_tolerant(log)
    assert events == [] and skipped == 0


# -- fault domains: quarantine and reaping ------------------------------------


def _chaos(failure, injections=8, **extra):
    params = {"n": 64, "steps": 6, "failure": failure}
    params.update(extra)
    return CampaignConfig(benchmark="chaos", injections=injections, seed=5, benchmark_params=params)


def test_serial_escaped_exception_quarantined(tmp_path):
    """OSError escapes the Supervisor's crash net; the engine's fault
    domain retries, attributes, and quarantines the run as a DUE."""
    log = tmp_path / "failures.jsonl"
    events = []
    result = run_campaign(
        _chaos("oserror"),
        workers=1,
        shard_size=4,
        retry=FAST_RETRY,
        failure_log=log,
        progress=events.append,
    )
    twin = run_campaign(_chaos("none"))
    dues = []
    for clean, record in zip(twin.records, result.records):
        if record.outcome is Outcome.DUE and record.due_detail.startswith("sandbox:"):
            dues.append(record)
            assert clean.site.variable == "trigger"
        else:
            assert record.to_dict() == clean.to_dict()
    assert dues and all(r.due_kind is DueKind.CRASH for r in dues)
    assert all("quarantined" in r.due_detail for r in dues)
    assert "quarantined" in {e.event for e in events}
    kinds = [e["event"] for e in load_records_tolerant(log)[0]]
    assert "run_error" in kinds and "retry" in kinds and "quarantine" in kinds


def test_pool_reaps_hung_worker_and_quarantines_run(tmp_path):
    """A guard-free spin in inproc mode hangs the whole shard worker; the
    engine's liveness check reaps it and quarantines the run as a HANG."""
    log = tmp_path / "failures.jsonl"
    events = []
    policy = RetryPolicy(backoff_base_s=0.001, backoff_cap_s=0.002, liveness_timeout_s=1.0)
    result = run_campaign(
        _chaos("spin", spin_s=60.0),
        workers=2,
        shard_size=8,
        retry=policy,
        failure_log=log,
        progress=events.append,
    )
    twin = run_campaign(_chaos("none"))
    dues = []
    for clean, record in zip(twin.records, result.records):
        if record.outcome is Outcome.DUE and record.due_detail.startswith("sandbox:"):
            dues.append(record)
            assert clean.site.variable == "trigger"
        else:
            assert record.to_dict() == clean.to_dict()
    assert dues and all(r.due_kind is DueKind.HANG for r in dues)
    kinds = {e.event for e in events}
    assert "reaped" in kinds and "quarantined" in kinds
    log_kinds = [e["event"] for e in load_records_tolerant(log)[0]]
    assert "reap" in log_kinds and "quarantine" in log_kinds


SUBPROC = IsolationConfig(mode=IsolationMode.SUBPROCESS)


def quarantined_records(result):
    return [r for r in result.records if r.due_detail.startswith("sandbox: quarantined")]


@pytest.mark.parametrize(
    "failure, isolation",
    [("oserror", None), ("exit", SUBPROC), ("abort", SUBPROC), ("oserror", SUBPROC)],
    ids=["inproc-oserror", "subprocess-exit", "subprocess-abort", "subprocess-oserror"],
)
def test_quarantined_records_do_not_depend_on_worker_count(failure, isolation):
    """One scheduler decides quarantine over one kind of lease worker, so
    a poison run's record — its ``due_detail`` included — is the
    in-process pool's at any worker count and isolation mode."""
    reference = run_campaign(_chaos(failure), workers=2, shard_size=4, retry=FAST_RETRY)
    assert quarantined_records(reference)
    for workers in (1, 2):
        result = run_campaign(
            _chaos(failure), workers=workers, shard_size=4, retry=FAST_RETRY, isolation=isolation
        )
        assert dicts(result) == dicts(reference), workers


@pytest.mark.parametrize("workers", [1, 2])
def test_retried_lease_resumes_after_its_delivered_records(workers):
    """A failed lease is re-leased from its last delivered record, so no
    run is executed twice: executions equal records, serial and pooled."""
    tel = Telemetry(TelemetryConfig())
    result = run_campaign(
        _chaos("oserror"), workers=workers, shard_size=4, retry=FAST_RETRY, telemetry=tel
    )
    assert quarantined_records(result)
    executions = sum(tel.registry.counter_values()["repro_runs_total"].values())
    assert executions == len(result.records) == 8


@pytest.mark.parametrize("workers", [1, 2])
def test_subprocess_quarantines_reach_progress_metrics_and_status_line(workers):
    stream = io.StringIO()
    tel = Telemetry(TelemetryConfig(progress_interval_s=3600.0, progress_stream=stream))
    events = []
    result = run_campaign(
        _chaos("exit"),
        workers=workers,
        shard_size=4,
        retry=FAST_RETRY,
        isolation=SUBPROC,
        telemetry=tel,
        progress=events.append,
    )
    quarantined = len(quarantined_records(result))
    assert quarantined >= 1
    assert sum(e.event == "quarantined" for e in events) == quarantined
    counted = tel.registry.counter_values()["repro_failure_events_total"]
    assert counted.get("event=quarantine", 0.0) == quarantined
    status = re.search(r"quarantined (\d+)", stream.getvalue().splitlines()[-1])
    assert status is not None and int(status.group(1)) == quarantined


def _running(pid):
    """Whether ``pid`` is a live (not zombie) process, via ``/proc``."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_subprocess_campaigns_leave_no_lease_worker_alive(tmp_path):
    lud = CampaignConfig(benchmark="lud", injections=8, seed=13)
    for config, workers in ((CONFIG, 1), (lud, 1), (CONFIG, 2)):
        trace = tmp_path / f"{config.benchmark}-{workers}.jsonl"
        tel = Telemetry(TelemetryConfig(trace_path=trace))
        run_campaign(
            config, workers=workers, shard_size=SHARD_SIZE, isolation=SUBPROC, telemetry=tel
        )
        tel.finalize()
        children = [p.name for p in multiprocessing.active_children()]
        assert not [name for name in children if name.startswith("lease-")], children
        spawned = [
            int(span["attrs"]["worker"].rpartition("pid")[2])
            for span in load_records(trace)
            if span["name"] == "lease"
        ]
        assert spawned, "the campaign never ran a lease worker; test is vacuous"
        assert not [pid for pid in spawned if _running(pid)]


def test_progress_heartbeat_fields():
    events = []
    run_campaign(CONFIG, workers=1, shard_size=SHARD_SIZE, progress=events.append)
    finished = [e for e in events if e.event == "finished"]
    assert len(finished) == 4
    assert finished[-1].done_runs == CONFIG.injections
    assert finished[-1].total_runs == CONFIG.injections
    assert finished[-1].rate > 0
    assert finished[-1].eta_s == pytest.approx(0.0, abs=1e-6)
    assert all(e.shard_count == 4 for e in events)
    done = [e.done_runs for e in finished]
    assert done == sorted(done)


# -- telemetry (observability subsystem) --------------------------------------


def collected(workers, **kwargs):
    tel = Telemetry(TelemetryConfig())
    result = run_campaign(
        CONFIG, workers=workers, shard_size=SHARD_SIZE, telemetry=tel, **kwargs
    )
    return result, tel


def test_heartbeat_done_counts_monotonic_with_telemetry():
    events = []
    _, tel = collected(workers=2, progress=events.append)
    done = [e.done_runs for e in events]
    assert done == sorted(done), "heartbeat done_runs must never move backwards"
    assert done[-1] == CONFIG.injections
    assert tel.registry.gauge("repro_shard_runs_done").value(shard=0) == SHARD_SIZE


def test_final_heartbeat_totals_equal_merged_metric_totals():
    events = []
    result, tel = collected(workers=3, progress=events.append)
    finished = [e for e in events if e.event == "finished"]
    counters = tel.registry.counter_values()
    runs_total = sum(counters["repro_runs_total"].values())
    records_total = sum(counters["repro_records_total"].values())
    assert finished[-1].done_runs == runs_total == records_total == CONFIG.injections
    assert records_total == len(result.records)
    # Outcome mix in the registry matches the records themselves.
    for outcome in Outcome.all():
        assert counters["repro_records_total"].get(
            f"outcome={outcome.value}", 0.0
        ) == sum(1 for r in result.records if r.outcome is outcome)


def test_parallel_telemetry_counters_match_serial_twin(serial_result):
    serial, tel_serial = collected(workers=1)
    parallel, tel_parallel = collected(
        workers=3,
        isolation=IsolationConfig(mode=IsolationMode.SUBPROCESS),
    )
    assert dicts(serial) == dicts(serial_result)
    assert dicts(parallel) == dicts(serial_result)
    # Every lease worker ships its deltas back, prefix-cache counters
    # included, so the two registries hold equal totals in every family.
    assert tel_parallel.registry.counter_values() == tel_serial.registry.counter_values()


def test_disabled_telemetry_leaves_records_bit_identical(serial_result):
    enabled, tel = collected(workers=2)
    disabled = run_campaign(
        CONFIG, workers=2, shard_size=SHARD_SIZE, telemetry=Telemetry(enabled=False)
    )
    assert dicts(enabled) == dicts(serial_result)
    assert dicts(disabled) == dicts(serial_result)
    assert sum(tel.registry.counter_values()["repro_runs_total"].values()) > 0


def test_trace_jsonl_parses_and_shares_one_trace(tmp_path):
    tel = Telemetry(TelemetryConfig(trace_path=tmp_path / "trace.jsonl"))
    run_campaign(CONFIG, workers=2, shard_size=SHARD_SIZE, telemetry=tel)
    tel.finalize()
    records, skipped = load_records_tolerant(tmp_path / "trace.jsonl")
    assert skipped == 0 and records
    assert all(r["kind"] == "span" for r in records)
    assert len({r["trace"] for r in records}) == 1, "one campaign, one trace"
    names = {r["name"] for r in records}
    assert {"campaign", "shard", "run", "execute", "corrupt"} <= names
    by_id = {r["span"]: r for r in records}
    roots = [r for r in records if r["parent"] is None]
    assert [r["name"] for r in roots] == ["campaign"]
    # Worker-side spans chain back to the engine's campaign span.
    for record in records:
        if record["parent"] is not None:
            assert record["parent"] in by_id
    (campaign,) = roots
    assert campaign["attrs"]["records"] == CONFIG.injections


def test_run_replays_also_counted(tmp_path):
    ckpt = tmp_path / "ckpt"
    run_campaign(CONFIG, workers=1, checkpoint_dir=ckpt, shard_size=SHARD_SIZE)
    tel = Telemetry(TelemetryConfig())
    resumed = run_campaign(
        CONFIG, workers=1, checkpoint_dir=ckpt, shard_size=SHARD_SIZE, telemetry=tel
    )
    counters = tel.registry.counter_values()
    assert counters["repro_runs_replayed_total"][""] == CONFIG.injections
    assert "repro_runs_total" not in counters or not counters["repro_runs_total"]
    assert sum(counters["repro_records_total"].values()) == len(resumed.records)


def test_progress_reporter_emits_status_lines():
    for workers in (1, 2):
        stream = io.StringIO()
        tel = Telemetry(TelemetryConfig(progress_interval_s=0.001, progress_stream=stream))
        run_campaign(CONFIG, workers=workers, shard_size=SHARD_SIZE, telemetry=tel)
        lines = stream.getvalue().splitlines()
        assert lines, "an interval this short must emit at least one line"
        assert lines[-1].startswith(f"[nw] {CONFIG.injections}/{CONFIG.injections} runs")
        assert "masked" in lines[-1] and "eta" in lines[-1]


def test_failure_events_counted_by_kind(tmp_path):
    tel = Telemetry(TelemetryConfig())
    run_campaign(
        _chaos("oserror"),
        workers=1,
        shard_size=4,
        retry=FAST_RETRY,
        failure_log=tmp_path / "failures.jsonl",
        telemetry=tel,
    )
    events = tel.registry.counter_values()["repro_failure_events_total"]
    assert events.get("event=retry", 0.0) > 0
    assert events.get("event=quarantine", 0.0) > 0


# -- cross-shard drift detection ----------------------------------------------


DRIFT_CONFIG = CampaignConfig(
    benchmark="nw",
    injections=64,
    seed=13,
    fault_models=(FaultModel.SINGLE,),
    benchmark_params={"n": 16, "rows_per_step": 4},
)


def test_healthy_campaign_raises_no_drift_flags(tmp_path):
    tel = Telemetry(TelemetryConfig())
    run_campaign(
        DRIFT_CONFIG, workers=1, shard_size=16, checkpoint_dir=tmp_path / "s", telemetry=tel
    )
    events, _ = load_records_tolerant(tmp_path / "s" / FAILURE_LOG_NAME)
    assert [e for e in events if e.get("event") == "drift"] == []
    # Healthy serial and parallel twins must also export identical
    # registries, so the drift counter may not exist merely as a zero.
    assert "repro_drift_flags_total" not in tel.registry.snapshot()
    tel_par = Telemetry(TelemetryConfig())
    run_campaign(
        DRIFT_CONFIG, workers=2, shard_size=16, checkpoint_dir=tmp_path / "p", telemetry=tel_par
    )
    events_par, _ = load_records_tolerant(tmp_path / "p" / FAILURE_LOG_NAME)
    assert [e for e in events_par if e.get("event") == "drift"] == []


def test_drift_flags_doctored_shard_checkpoint(tmp_path):
    """A checkpoint whose outcomes were tampered with is statistically visible.

    The checkpoint fingerprint covers the campaign *plan*, not the
    outcomes, so a rewritten shard replays as trusted data — exactly
    the class of corruption (or seed bug) only the drift detector can
    catch.  Flipping every masked record of shard 1 to SDC makes its
    SDC rate incompatible with its three peers.
    """
    run_campaign(DRIFT_CONFIG, workers=1, shard_size=16, checkpoint_dir=tmp_path)
    doctored = shard_path(tmp_path, 1)
    rows = [json.loads(line) for line in doctored.read_text().splitlines()]
    for row in rows:
        if row.get("kind") == "record" and row["data"]["outcome"] == "masked":
            row["data"]["outcome"] = "sdc"
    doctored.write_text("".join(json.dumps(row) + "\n" for row in rows))

    tel = Telemetry(TelemetryConfig())
    resumed = run_campaign(
        DRIFT_CONFIG, workers=1, shard_size=16, checkpoint_dir=tmp_path, telemetry=tel
    )
    assert len(resumed.records) == DRIFT_CONFIG.injections
    events, _ = load_records_tolerant(tmp_path / FAILURE_LOG_NAME)
    drift = [e for e in events if e.get("event") == "drift"]
    assert drift, "tampered shard must be flagged"
    assert {e["shard"] for e in drift} == {1}
    assert all(e["p_value"] < e["alpha_per_test"] for e in drift)
    counter = tel.registry.counter("repro_drift_flags_total")
    assert sum(value for _, value in counter.items()) == len(drift)
