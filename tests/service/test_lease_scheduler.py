"""Scheduler semantics through a scripted backend.

These tests drive ``run_campaign`` with an in-process fake that
speaks the lease protocol (``rec`` events, terminal lease results) as
the pool's lease workers do and injects scripted faults: a worker death
after N records, a poison run that kills every worker that touches it.
They pin down the scheduler's contracts:

* a re-leased range resumes *after* the last streamed record;
* a poison run is quarantined exactly once — right after the death
  that crossed the threshold — and every subsequent lease ships it in
  its skip set;
* the merged campaign is byte-identical to serial wherever no run was
  quarantined, and complete either way.
"""

import json

import pytest

from repro.carolfi.campaign import CampaignConfig, run_campaign
from repro.carolfi.engine import RetryPolicy, ShardFailure, ShardSpec, _execute_shard
from repro.carolfi.isolation import supervisor_for
from repro.service.backend import BackendEvent, LeaseResult, ShardBackend, ShardLease
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

    def submit(self, lease: ShardLease) -> None:
        assert self._pending is None
        self.submitted.append(lease)
        self._pending = lease

    def _execute(self, lease: ShardLease) -> None:
        budget = self.die_after.pop(lease.shard_index, None)
        sent = 0
        for k in range(lease.start, lease.stop):
            if k in self.poison and k not in lease.skip:
                self._events.append(BackendEvent("run", lease.lease_id, run=k))
                self._results.append(
                    LeaseResult(lease.lease_id, "dead", detail="scripted poison run")
                )
                return
            self._events.append(BackendEvent("run", lease.lease_id, run=k))
            self._events.append(
                BackendEvent("rec", lease.lease_id, run=k, row=_row(self.config, lease, k))
            )
            sent += 1
            if budget is not None and sent >= budget:
                self._results.append(
                    LeaseResult(lease.lease_id, "dead", detail="scripted mid-lease death")
                )
                return
        self._results.append(LeaseResult(lease.lease_id, "done"))

    def heartbeats(self) -> list[BackendEvent]:
        if self._pending is not None:
            lease, self._pending = self._pending, None
            self._execute(lease)
        out, self._events = self._events, []
        return out

    def results(self) -> list[LeaseResult]:
        out, self._results = self._results, []
        return out

    def cancel(self, lease_id: str) -> None:
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
    assert [e["event"] for e in events] == ["worker_death", "retry"]
    # One re-lease of shard 0.  Two records streamed before the death:
    # it resumes at start + 2, not 0, and owes the rest of the shard.
    leases = [(l.start, l.stop) for l in backend.submitted if l.shard_index == 0]
    assert leases == [(0, CONFIG.injections), (2, SHARD_SIZE)]


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
    # The triggering death is on the record right before it: the lease
    # that died at the poison run for the max_run_deaths-th time.
    trigger = events[events.index(quarantine_events[0]) - 1]
    assert trigger["event"] == "worker_death" and trigger["run"] == poison
    assert trigger["deaths"] == FAST.max_run_deaths
    # Every lease issued after the triggering one whose range covers the
    # run ships the skip entry: the run is never re-leased without its
    # quarantine event.
    covering = [l for l in backend.submitted if l.start <= poison < l.stop]
    assert [poison in l.skip for l in covering] == [
        k >= FAST.max_run_deaths for k in range(len(covering))
    ]
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


class FailingBackend(ScriptedBackend):
    """Every lease fails before it delivers a record."""

    def _execute(self, lease: ShardLease) -> None:
        self._results.append(LeaseResult(lease.lease_id, "error", detail="scripted failure"))


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


def test_lease_range_validation():
    with pytest.raises(ValueError):
        ShardLease(lease_id="x", shard_index=0, start=5, stop=5, attempt=1)
    with pytest.raises(ValueError):
        ShardLease(lease_id="x", shard_index=0, start=-1, stop=4, attempt=1)
