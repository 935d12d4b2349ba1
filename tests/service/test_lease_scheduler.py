"""Scheduler semantics through a scripted remote backend.

These tests drive ``run_campaign`` with an in-process fake that
speaks the lease protocol (``rec`` events, terminal lease results) as a
remote backend does and injects scripted faults: a worker death after N
records, a poison run that kills every worker that touches it.  They pin
down the service-layer contracts the broker relies on:

* a re-leased range resumes *after* the last streamed record;
* a poison run is quarantined exactly once — with the triggering lease
  on the event — and every subsequent lease ships it in its skip set;
* the merged campaign is byte-identical to serial wherever no run was
  quarantined, and complete either way.
"""

import json
import time

import pytest

from repro.carolfi.campaign import CampaignConfig, run_campaign
from repro.carolfi.engine import RetryPolicy, ShardFailure, ShardSpec, _execute_shard
from repro.carolfi.isolation import supervisor_for
from repro.service.backend import BackendEvent, LeaseResult, ShardBackend, ShardLease
from repro.service import scheduler
from repro.service.scheduler import _contiguous_ranges

CONFIG = CampaignConfig(
    benchmark="nw",
    injections=12,
    seed=13,
    benchmark_params={"n": 16, "rows_per_step": 4},
)
SHARD_SIZE = 6
FAST = RetryPolicy(max_attempts=6, backoff_base_s=0.005, backoff_cap_s=0.01)


def _row(config, lease, k):
    """Run ``k`` of ``lease`` through the engine; its record dict."""
    rows = []
    _execute_shard(
        config,
        ShardSpec(index=lease.shard_index, start=k, stop=k + 1),
        supervisor_for(config),
        skip_runs=lease.skip,
        on_record=lambda _k, row: rows.append(row),
    )
    return rows[0]


class ScriptedBackend(ShardBackend):
    """Executes leases synchronously, with scripted worker deaths."""

    supports_steal = False
    remote = True

    def __init__(self, config, *, poison=(), die_after=None):
        self.config = config
        self.poison = set(poison)  # runs that kill their worker every time
        self.die_after = dict(die_after or {})  # shard -> records before dying once
        self.submitted: list[ShardLease] = []
        self._pending: ShardLease | None = None
        self._events: list[BackendEvent] = []
        self._results: list[LeaseResult] = []

    def capacity(self) -> int:
        return 0 if self._pending is not None else 1

    def submit(self, lease: ShardLease) -> str:
        assert self._pending is None
        self.submitted.append(lease)
        self._pending = lease
        return "scripted/worker"

    def _execute(self, lease: ShardLease) -> None:
        budget = self.die_after.pop(lease.shard_index, None)
        sent = 0
        for k in range(lease.start, lease.stop):
            if k in self.poison and k not in lease.skip:
                self._events.append(BackendEvent("run", lease.lease_id, run=k))
                self._results.append(
                    LeaseResult(
                        lease.lease_id, "dead", detail="scripted poison run", worker="scripted/worker"
                    )
                )
                return
            self._events.append(BackendEvent("run", lease.lease_id, run=k))
            self._events.append(
                BackendEvent("rec", lease.lease_id, run=k, row=_row(self.config, lease, k))
            )
            sent += 1
            if budget is not None and sent >= budget:
                self._results.append(
                    LeaseResult(
                        lease.lease_id, "dead", detail="scripted mid-lease death", worker="scripted/worker"
                    )
                )
                return
        self._results.append(
            LeaseResult(lease.lease_id, "done", worker="scripted/worker")
        )

    def heartbeats(self) -> list[BackendEvent]:
        if self._pending is not None:
            lease, self._pending = self._pending, None
            self._execute(lease)
        out, self._events = self._events, []
        return out

    def results(self) -> list[LeaseResult]:
        out, self._results = self._results, []
        return out

    def cancel(self, lease_id: str, *, reap: bool = False) -> None:
        if self._pending is not None and self._pending.lease_id == lease_id:
            self._pending = None

    def close(self) -> None:
        self._pending = None


def _run_scripted(tmp_path, **script):
    backend = ScriptedBackend(CONFIG, **script)
    events = []
    result = run_campaign(
        CONFIG,
        workers=2,
        shard_size=SHARD_SIZE,
        backend=backend,
        retry=FAST,
        failure_log=tmp_path / "failures.jsonl",
        checkpoint_dir=tmp_path / "ckpt",
    )
    for line in (tmp_path / "failures.jsonl").read_text().splitlines():
        events.append(json.loads(line))
    return result, backend, events


@pytest.fixture(scope="module")
def serial_rows():
    return [r.to_dict() for r in run_campaign(CONFIG).records]


def test_streaming_backend_matches_serial(tmp_path, serial_rows):
    result, backend, _events = _run_scripted(tmp_path)
    assert [r.to_dict() for r in result.records] == serial_rows
    # One free slot: one lease over both shards, no retries.
    assert [(l.start, l.stop) for l in backend.submitted] == [(0, CONFIG.injections)]


def test_re_lease_resumes_after_last_streamed_record(tmp_path, serial_rows):
    result, backend, events = _run_scripted(tmp_path, die_after={0: 2})
    assert [r.to_dict() for r in result.records] == serial_rows
    re_leases = [e for e in events if e["event"] == "re_lease"]
    assert len(re_leases) == 1
    # Two records streamed before the death: resume at start + 2, not 0.
    assert re_leases[0]["resume_from"] == 2
    resumed = [l for l in backend.submitted if l.shard_index == 0 and l.start == 2]
    assert len(resumed) == 1 and resumed[0].stop == SHARD_SIZE


def test_poison_run_quarantined_once_with_lease_attribution(tmp_path, serial_rows):
    poison = 7  # second shard
    result, backend, events = _run_scripted(tmp_path, poison={poison})
    rows = [r.to_dict() for r in result.records]
    # Every non-poisoned record is still byte-identical to serial.
    assert [r for r in rows if r["run_index"] != poison] == [
        r for r in serial_rows if r["run_index"] != poison
    ]
    quarantined = rows[poison]
    assert quarantined["run_index"] == poison
    assert quarantined["outcome"] == "due"
    assert "sandbox:" in quarantined["due_detail"]

    quarantine_events = [e for e in events if e["event"] == "quarantine"]
    assert len(quarantine_events) == 1, "quarantine must be deduped"
    assert quarantine_events[0]["run"] == poison
    # The triggering lease (shard attempt) is on the record.
    assert quarantine_events[0]["lease"] in {l.lease_id for l in backend.submitted}
    # Every lease issued after the quarantine whose range covers the run
    # ships the skip entry: the run is never re-leased anywhere without
    # its sandbox event.
    seen_quarantine = False
    for lease in backend.submitted:
        if lease.lease_id == quarantine_events[0]["lease"]:
            seen_quarantine = True
            continue
        if seen_quarantine and lease.start <= poison < lease.stop:
            assert poison in lease.skip
    deaths = [e for e in events if e["event"] == "worker_death" and e.get("run") == poison]
    assert len(deaths) == FAST.max_run_deaths


def test_scheduler_writes_replayable_checkpoints(tmp_path, serial_rows):
    result, _backend, _events = _run_scripted(tmp_path)
    # A later campaign must replay entirely from the scheduler-written
    # checkpoints: no backend, no new executions.
    resumed = run_campaign(
        CONFIG, workers=1, shard_size=SHARD_SIZE, checkpoint_dir=tmp_path / "ckpt"
    )
    assert [r.to_dict() for r in resumed.records] == serial_rows


def test_lease_lifecycle_events_logged_for_streaming_backend(tmp_path):
    _result, backend, events = _run_scripted(tmp_path)
    kinds = {e["event"] for e in events}
    assert "lease" in kinds and "lease_done" in kinds
    leases = [e for e in events if e["event"] == "lease"]
    assert {l["lease"] for l in leases} == {l.lease_id for l in backend.submitted}
    assert all(l["worker"] == "scripted/worker" for l in leases)


class FailingBackend(ScriptedBackend):
    """Every lease fails before it delivers a record."""

    def _execute(self, lease: ShardLease) -> None:
        self._results.append(
            LeaseResult(lease.lease_id, "error", detail="scripted failure", worker="w")
        )


def test_failing_leases_get_exactly_max_attempts():
    # No record ever arrives, so no failure is progress: the shard is
    # abandoned after max_attempts leases, not one more.
    policy = RetryPolicy(max_attempts=4, backoff_base_s=0.001, backoff_cap_s=0.002)
    with pytest.raises(ShardFailure) as excinfo:
        run_campaign(
            CONFIG,
            workers=2,
            shard_size=SHARD_SIZE,
            backend=FailingBackend(CONFIG),
            retry=policy,
        )
    assert excinfo.value.attempts == policy.max_attempts


def test_contiguous_ranges_groups_runs():
    assert _contiguous_ranges([]) == []
    assert _contiguous_ranges([3]) == [(3, 4)]
    assert _contiguous_ranges([1, 2, 3, 7, 9, 10]) == [(1, 4), (7, 8), (9, 11)]


class StealableBackend(ShardBackend):
    """Two-slot streaming backend with one deliberately slow worker.

    The "slow" slot (first submit wins it) sleeps ``latency`` seconds
    and then streams exactly one record per ``heartbeats()`` drain; the
    "fast" slot executes its whole lease instantly.  ``shrink`` narrows
    the slow lease at the next run boundary — the same protocol the
    broker speaks over the wire, scripted deterministically here so the
    adaptive (EWMA) steal path can be pinned down in-process.
    """

    supports_steal = True
    remote = True

    def __init__(self, config, *, latency=0.0):
        self.config = config
        self.latency = latency
        self.slow: dict | None = None  # {"lease":, "next":, "stop":}
        self.fast: ShardLease | None = None
        self.submitted: list[ShardLease] = []
        self._events: list[BackendEvent] = []
        self._results: list[LeaseResult] = []

    def capacity(self) -> int:
        return int(self.slow is None) + int(self.fast is None)

    def submit(self, lease: ShardLease) -> str:
        self.submitted.append(lease)
        if self.slow is None:
            self.slow = {"lease": lease, "next": lease.start, "stop": lease.stop}
            return "slow"
        assert self.fast is None
        self.fast = lease
        return "fast"

    def _row(self, lease: ShardLease, k: int) -> dict:
        return _row(self.config, lease, k)

    def heartbeats(self) -> list[BackendEvent]:
        if self.fast is not None:
            lease, self.fast = self.fast, None
            for k in range(lease.start, lease.stop):
                self._events.append(BackendEvent("run", lease.lease_id, run=k))
                self._events.append(
                    BackendEvent("rec", lease.lease_id, run=k, row=self._row(lease, k))
                )
            self._results.append(LeaseResult(lease.lease_id, "done", worker="fast"))
        if self.slow is not None:
            st = self.slow
            k = st["next"]
            if k >= st["stop"]:
                self._results.append(
                    LeaseResult(st["lease"].lease_id, "done", worker="slow")
                )
                self.slow = None
            else:
                if self.latency:
                    time.sleep(self.latency)
                self._events.append(BackendEvent("run", st["lease"].lease_id, run=k))
                self._events.append(
                    BackendEvent(
                        "rec", st["lease"].lease_id, run=k, row=self._row(st["lease"], k)
                    )
                )
                st["next"] = k + 1
        out, self._events = self._events, []
        return out

    def results(self) -> list[LeaseResult]:
        out, self._results = self._results, []
        return out

    def shrink(self, lease_id: str, new_stop: int) -> bool:
        if self.slow is not None and self.slow["lease"].lease_id == lease_id:
            self.slow["stop"] = min(self.slow["stop"], new_stop)
            return True
        return False

    def cancel(self, lease_id: str, *, reap: bool = False) -> None:
        if self.slow is not None and self.slow["lease"].lease_id == lease_id:
            self.slow = None
        if self.fast is not None and self.fast.lease_id == lease_id:
            self.fast = None

    def close(self) -> None:
        self.slow = self.fast = None


def _run_stealable(tmp_path, *, latency):
    backend = StealableBackend(CONFIG, latency=latency)
    result = run_campaign(
        CONFIG,
        workers=2,
        shard_size=CONFIG.injections,  # one shard: the slow worker gets it all
        backend=backend,
        retry=FAST,
        failure_log=tmp_path / "failures.jsonl",
        checkpoint_dir=tmp_path / "ckpt",
    )
    events = [
        json.loads(line)
        for line in (tmp_path / "failures.jsonl").read_text().splitlines()
    ]
    return result, backend, events


def test_adaptive_steal_fires_on_latency_evidence(tmp_path, serial_rows, monkeypatch):
    # A floor of 100 runs blocks the evidence-free fallback entirely: the
    # only way this campaign can steal is the EWMA estimator judging the
    # slow worker's expected tail against the observed-latency bar.
    monkeypatch.setattr(scheduler, "STEAL_MIN_REMAINING", 100)
    monkeypatch.setattr(scheduler, "STEAL_MIN_BENEFIT_S", 0.01)
    result, backend, events = _run_stealable(tmp_path, latency=0.05)
    assert [r.to_dict() for r in result.records] == serial_rows
    steals = [e for e in events if e["event"] == "steal"]
    assert steals, "latency evidence must trigger an adaptive steal"
    first = steals[0]
    assert first["estimator"] == "ewma"
    assert first["victim_worker"] == "slow"
    assert first["observed_latency_s"] > 0
    assert first["threshold_s"] > 0
    assert first["expected_tail_s"] >= first["threshold_s"]
    assert first["remaining"] >= 2
    assert first["quantile"] == scheduler.STEAL_QUANTILE
    # The stolen tail landed on the fast slot as a real lease.
    stolen = [l for l in backend.submitted if l.start == first["split"]]
    assert stolen and stolen[0].stop == first["stop"]


def test_adaptive_steal_suppressed_below_benefit_floor(tmp_path, serial_rows, monkeypatch):
    # Same topology, same idle capacity — but the expected tail of a
    # near-instant worker never clears a 5 s benefit floor, so the
    # latency-driven policy leaves the lease alone instead of splitting
    # on raw run counts the way the old fixed threshold did.
    monkeypatch.setattr(scheduler, "STEAL_MIN_REMAINING", 100)
    monkeypatch.setattr(scheduler, "STEAL_MIN_BENEFIT_S", 5.0)
    result, _backend, events = _run_stealable(tmp_path, latency=0.0)
    assert [r.to_dict() for r in result.records] == serial_rows
    assert [e for e in events if e["event"] == "steal"] == []
