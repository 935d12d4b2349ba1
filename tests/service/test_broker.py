"""Broker-mode campaigns over real TCP with real worker processes.

The acceptance bar for the distributed service: the merged campaign
log from broker mode with two workers — including a forced mid-lease
worker kill and a forced straggler steal — must be byte-identical to
the serial log.  Workers here are genuine ``repro-worker`` subprocesses
talking to the broker over localhost sockets.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.beam.experiment import BeamConfig
from repro.carolfi.campaign import CampaignConfig, run_campaign
from repro.carolfi.engine import RetryPolicy
from repro.hardening.hardened import HardenedConfig
from repro.service.broker import BrokerBackend, lease_from_wire, lease_to_wire
from repro.service.backend import ShardLease
from repro.telemetry import Telemetry, TelemetryConfig
from repro.telemetry.exporters import parse_prometheus_samples

CONFIG = CampaignConfig(
    benchmark="nw",
    injections=16,
    seed=13,
    benchmark_params={"n": 16, "rows_per_step": 4},
)
#: The same campaign batched: broker leases run BatchRunner over the lease.
BATCHED = replace(CONFIG, batch_size=8)
FAST = RetryPolicy(max_attempts=8, backoff_base_s=0.01, backoff_cap_s=0.05)
SRC = str(Path(__file__).resolve().parents[2] / "src")


def _spawn_worker(address, name, **env_extra):
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("REPRO_WORKER_DIE_AFTER", "REPRO_WORKER_SLOW_S"):
        env.pop(var, None)  # never inherit chaos hooks from the outer env
    env.update({k: str(v) for k, v in env_extra.items()})
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service.worker",
            f"{address[0]}:{address[1]}",
            "--name",
            name,
            "--once",
        ],
        env=env,
    )


def _broker_campaign(tmp_path, *, worker_envs, shard_size=None, config=CONFIG, telemetry=None):
    serial_log = tmp_path / "serial.jsonl"
    run_campaign(config, log_path=serial_log)

    broker = BrokerBackend(config)
    log = tmp_path / "broker.jsonl"
    flog = tmp_path / "failures.jsonl"
    workers = [
        _spawn_worker(broker.address, f"w{i}", **env)
        for i, env in enumerate(worker_envs)
    ]
    try:
        # Don't lease until every worker is connected: on a loaded
        # 1-CPU host an early arrival can otherwise drain both shards
        # before the chaos worker's interpreter finishes booting, and
        # the kill/steal the test means to observe never happens.
        assert broker.wait_for_workers(len(workers), timeout=30.0)
        result = run_campaign(
            config,
            workers=len(workers),
            backend=broker,
            retry=FAST,
            shard_size=shard_size,
            log_path=log,
            failure_log=flog,
            telemetry=telemetry,
        )
    finally:
        broker.close()
        for proc in workers:
            proc.wait(timeout=20)
    events = [json.loads(line) for line in flog.read_text().splitlines()]
    return result, serial_log.read_bytes(), log.read_bytes(), events


def test_two_workers_merge_byte_identical(tmp_path):
    _result, serial_bytes, broker_bytes, events = _broker_campaign(
        tmp_path, worker_envs=[{}, {}]
    )
    assert broker_bytes == serial_bytes  # the cmp invariant, over real sockets
    kinds = {e["event"] for e in events}
    assert "lease" in kinds and "lease_done" in kinds and "worker_connected" in kinds


@pytest.mark.parametrize(
    "config",
    [
        BeamConfig(benchmark="lud", trials=24, seed=5, benchmark_params={"n": 16, "block": 4}),
        HardenedConfig(
            benchmark="nw", injections=24, seed=5, benchmark_params={"n": 16, "rows_per_step": 4}
        ),
    ],
    ids=["beam", "hardened"],
)
def test_beam_and_hardened_campaigns_through_the_broker_merge_byte_identical(tmp_path, config):
    """Workers decode any kind from the lease frame's config."""
    _result, serial_bytes, broker_bytes, events = _broker_campaign(
        tmp_path, worker_envs=[{}, {}], shard_size=6, config=config
    )
    assert broker_bytes == serial_bytes
    assert {"lease", "lease_done"} <= {e["event"] for e in events}


def test_killed_worker_is_re_leased_and_log_stays_identical(tmp_path):
    # Multi-run shards (8 runs each), so dying three records in is a
    # mid-lease death with work left to re-lease — at the default
    # shard size every lease here is a single run and a kill can only
    # land on a lease boundary.
    _result, serial_bytes, broker_bytes, events = _broker_campaign(
        tmp_path,
        worker_envs=[{"REPRO_WORKER_DIE_AFTER": 3}, {}],
        shard_size=8,
    )
    assert broker_bytes == serial_bytes
    kinds = {e["event"] for e in events}
    assert "worker_death" in kinds, "the kill must be observed"
    re_leases = [e for e in events if e["event"] == "re_lease"]
    assert re_leases, "the dead worker's lease must be re-leased"
    # Streamed records count: the re-lease resumes past at least one
    # record the dead worker delivered, not from scratch, whenever it
    # died mid-range with records already streamed.
    lease_starts = {
        (e["shard"], e["start"]): e for e in events if e["event"] == "lease"
    }
    for rl in re_leases:
        resumed = lease_starts.get((rl["shard"], rl["resume_from"]))
        assert resumed is not None, "a lease must cover the resumed range"


def test_straggler_lease_is_stolen_and_log_stays_identical(tmp_path):
    _result, serial_bytes, broker_bytes, events = _broker_campaign(
        tmp_path,
        worker_envs=[{"REPRO_WORKER_SLOW_S": 0.2}, {}],
        shard_size=CONFIG.injections,  # one shard: only a steal can share it
    )
    assert broker_bytes == serial_bytes
    steals = [e for e in events if e["event"] == "steal"]
    assert steals, "idle capacity plus a straggler must trigger a steal"
    split = steals[0]
    assert split["split"] < split["stop"] <= CONFIG.injections
    # The thief's lease covers [split, stop) — visible as a lease event.
    thief = [
        e
        for e in events
        if e["event"] == "lease" and e["start"] == split["split"]
    ]
    assert thief and thief[0]["stop"] == split["stop"]


@pytest.mark.parametrize("chaos", [{}, {"REPRO_WORKER_DIE_AFTER": 3}], ids=["clean", "kill"])
def test_batched_broker_leases_batch_and_stay_identical(tmp_path, chaos):
    # A worker runs the whole lease through BatchRunner, so batch groups
    # have several members: fewer groups than vectorized runs.
    tel = Telemetry(TelemetryConfig())
    _result, serial_bytes, broker_bytes, events = _broker_campaign(
        tmp_path, worker_envs=[chaos, {}], shard_size=8, config=BATCHED, telemetry=tel
    )
    assert broker_bytes == serial_bytes
    counters = tel.registry.counter_values()
    groups = sum(counters["repro_batch_groups_total"].values())
    vectorized = sum(
        value
        for labels, value in counters["repro_batch_runs_total"].items()
        if "path=vectorized" in labels
    )
    assert 0 < groups < vectorized
    if chaos:
        kinds = {e["event"] for e in events}
        assert "worker_death" in kinds and "re_lease" in kinds


def test_broker_trace_span_ids_are_unique(tmp_path):
    # A worker that serves several leases builds a tracer per lease;
    # span ids must still not repeat.  An unreachable CI target keeps
    # leases one shard wide without stopping early, so the two workers
    # share four leases.
    tel = Telemetry(TelemetryConfig(trace_path=tmp_path / "trace.jsonl"))
    config = replace(CONFIG, target_ci=0.001)
    result, *_ = _broker_campaign(
        tmp_path, worker_envs=[{}, {}], shard_size=4, config=config, telemetry=tel
    )
    tel.finalize()
    assert not result.stopped_early
    spans = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    ids = [s["span"] for s in spans]
    assert {s["name"] for s in spans} >= {"campaign", "lease", "shard", "run"}
    leases_by_pid: dict[int, int] = {}
    for span in spans:
        if span["name"] == "lease":
            leases_by_pid[span["pid"]] = leases_by_pid.get(span["pid"], 0) + 1
    assert sum(leases_by_pid.values()) >= 4 and max(leases_by_pid.values()) >= 2
    assert len(ids) == len(set(ids))


def test_fleet_trace_and_metrics_export(tmp_path):
    """The full observability acceptance drill, over real sockets.

    A forced-steal broker campaign (one straggler, one healthy worker,
    a single shard) must leave ``campaign.jsonl`` byte-identical to
    serial while producing (a) one merged ``trace.jsonl`` rooted at the
    campaign span with worker-side lease/run spans from two distinct
    worker processes, and (b) an exported ``metrics.prom`` whose fleet
    series reconcile with the campaign log.
    """
    serial_log = tmp_path / "serial.jsonl"
    run_campaign(CONFIG, log_path=serial_log)

    tel = Telemetry(
        TelemetryConfig(
            trace_path=tmp_path / "trace.jsonl",
            metrics_path=tmp_path / "metrics.prom",
        )
    )
    broker = BrokerBackend(CONFIG)
    log = tmp_path / "broker.jsonl"
    flog = tmp_path / "failures.jsonl"
    workers = [
        _spawn_worker(broker.address, "w0", REPRO_WORKER_SLOW_S=0.2),
        _spawn_worker(broker.address, "w1"),
    ]
    try:
        assert broker.wait_for_workers(len(workers), timeout=30.0)
        run_campaign(
            CONFIG,
            workers=len(workers),
            backend=broker,
            retry=FAST,
            shard_size=CONFIG.injections,  # one shard: only a steal can share it
            log_path=log,
            failure_log=flog,
            telemetry=tel,
        )
    finally:
        broker.close()
        for proc in workers:
            proc.wait(timeout=20)
    tel.finalize()
    events = [json.loads(line) for line in flog.read_text().splitlines()]

    # (1) Observability never perturbs records.
    assert log.read_bytes() == serial_log.read_bytes()

    # (2) One coherent trace tree across broker and worker processes.
    spans = [
        json.loads(line)
        for line in (tmp_path / "trace.jsonl").read_text().splitlines()
    ]
    assert spans and all(s["kind"] == "span" for s in spans)
    assert len({s["trace"] for s in spans}) == 1, "one campaign, one trace id"
    campaigns = [s for s in spans if s["name"] == "campaign"]
    assert len(campaigns) == 1 and campaigns[0].get("parent") is None
    campaign_id = campaigns[0]["span"]
    leases = [s for s in spans if s["name"] == "lease"]
    assert leases and all(s["parent"] == campaign_id for s in leases)
    assert len({s["pid"] for s in leases}) >= 2, (
        "spans from two worker processes; failures.jsonl events: "
        f"{[e['event'] for e in events]}"
    )
    assert {s["pid"] for s in leases}.isdisjoint({campaigns[0]["pid"]})
    # Workers nest spans as local lease workers do: lease -> shard -> run.
    by_id = {s["span"]: s for s in spans}
    runs = [s for s in spans if s["name"] == "run"]
    worker_runs = [s for s in runs if s["pid"] != campaigns[0]["pid"]]
    assert worker_runs
    for run in worker_runs:
        shard = by_id[run["parent"]]
        assert shard["name"] == "shard" and by_id[shard["parent"]]["name"] == "lease"
    assert not any(by_id[s["parent"]]["name"] == "run" for s in runs)
    # The whole forest is one rooted tree: every non-root parent resolves.
    all_ids = {s["span"] for s in spans}
    assert all(s["parent"] in all_ids for s in spans if s.get("parent") is not None)

    # (3) The exported metrics reconcile with the campaign log.
    final = parse_prometheus_samples((tmp_path / "metrics.prom").read_text())
    done = sum(
        value
        for (name, _labels), value in final.items()
        if name == "repro_shard_runs_done"
    )
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert done == len(records) == CONFIG.injections
    assert any(
        name == "repro_service_heartbeat_rtt_seconds_bucket" for name, _ in final
    ), "heartbeat RTT probes must have landed in the histogram"
    assert any(name == "repro_service_lease_turnaround_seconds_bucket" for name, _ in final)
    fleet = {
        dict(labels)["worker"]
        for (name, labels), _value in final.items()
        if name == "repro_service_worker_up"
    }
    assert {"w0", "w1"} <= fleet

    # (4) The steal decision carries its evidence.
    steals = [e for e in events if e["event"] == "steal"]
    assert steals, "idle capacity plus a straggler must trigger a steal"
    assert {"estimator", "remaining", "threshold_s", "quantile"} <= steals[0].keys()
    connected = [e for e in events if e["event"] == "worker_connected"]
    assert connected and all("addr" in e and "pid" in e for e in connected)


def test_lease_wire_round_trip():
    lease = ShardLease(
        lease_id="s00001.2",
        shard_index=1,
        start=4,
        stop=9,
        attempt=2,
        skip={5: ("crash", "sandbox: quarantined after 2 deaths")},
    )
    assert lease_from_wire(json.loads(json.dumps(lease_to_wire(lease)))) == lease


def test_lease_range_validation():
    with pytest.raises(ValueError):
        ShardLease(lease_id="x", shard_index=0, start=5, stop=5, attempt=1)
    with pytest.raises(ValueError):
        ShardLease(lease_id="x", shard_index=0, start=-1, stop=4, attempt=1)
