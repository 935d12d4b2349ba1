"""Campaign scheduling: range leases, retries, quarantine.

This loop is the campaign engine's one control plane: every campaign
of every kind — serial or pooled — runs through it, and it is the only
place that decides retries and quarantine (deterministic backoff,
liveness reaping, poison-run quarantine at
``RetryPolicy.max_run_deaths`` failed executions, no-progress
abandonment).  It talks to a :class:`~repro.service.backend.
ShardBackend`, so the same scheduler drives the in-process inline
executor and the local pool's lease worker processes through one lease
protocol.

Two units are kept apart.  The **shard** is the unit of checkpoints,
resume and drift detection; its plan depends only on the campaign.
The **lease** is the unit of execution: a contiguous run range cut
from the pending runs at shard boundaries, one per free executor slot,
so an executor runs (and ``BatchRunner`` plans) as many runs at once
as it can take.  The inline executor gets the whole campaign, a local
pool one lease per worker.

* **lease ids** — ``s<shard>.<n>``: the ``n``-th lease whose range
  starts in shard ``<shard>`` (five-digit shard index);
* **record streaming** — every executor sends each record as one
  ``rec`` event, and a shard's checkpoint is written (one complete
  file, by the scheduler alone) the moment its last record arrives,
  even while the lease that delivered it is still running;
* **failure charging** — a failed lease is charged to the shard of its
  first undelivered run (that shard's no-progress count, backoff and
  failure events), the run it was executing is charged one failed
  execution, and its undelivered tail is re-queued, so it is re-leased
  from its last delivered record, never from the start of its range;
* **quarantine dedup** — a run is quarantined exactly once per
  campaign, keyed by ``(shard, run)``; every later lease ships the
  quarantined runs of its range, so a poison run is never re-executed
  in another worker without its ``quarantine`` event on record.

None of this can change campaign records: per-run RNG is keyed by run
index, so a re-leased run produces byte-identical rows wherever and
however often it executes, whatever range it was leased in; the
scheduler merges by run index and keeps the first copy of a row.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.carolfi.engine import (
    RetryPolicy,
    ShardFailure,
    ShardSpec,
    backoff_delay,
    write_shard_checkpoint,
)
from repro.faults.outcome import DueKind
from repro.service.backend import BackendEvent, LeaseResult, ShardBackend, ShardLease
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.carolfi.campaign import CampaignKind
    from repro.carolfi.engine import FailureSink, _Heartbeat

__all__ = ["run_shards"]

#: Scheduler poll period while leases are in flight.
_POLL_S = 0.005


@dataclass
class _Lease:
    """Runtime state of one active lease."""

    lease: ShardLease
    current_run: int | None = None
    done_through: int = -1  # last run index whose record arrived
    last_beat: float = 0.0

    def __post_init__(self) -> None:
        self.done_through = self.lease.start - 1


@dataclass
class _Shard:
    """Book-keeping for one shard across every lease that covers it."""

    spec: ShardSpec
    rows: dict[int, dict[str, Any]] = field(default_factory=dict)
    skip: dict[int, tuple[str, str]] = field(default_factory=dict)
    deaths: dict[int, int] = field(default_factory=dict)
    leases: int = 0  # leases whose range starts here (the n of their ids)
    failures: int = 0  # failed leases charged to this shard
    no_progress: int = 0
    progress_mark: int = 0  # records delivered at the last failure
    started: bool = False
    finished: bool = False
    eligible_at: float = 0.0
    dispatched_at: float = 0.0


def _contiguous_ranges(indices: list[int]) -> list[tuple[int, int]]:
    """Group sorted run indices into ``[start, stop)`` ranges."""
    ranges: list[tuple[int, int]] = []
    for k in indices:
        if ranges and ranges[-1][1] == k:
            ranges[-1] = (ranges[-1][0], k + 1)
        else:
            ranges.append((k, k + 1))
    return ranges


def run_shards(
    config: "CampaignKind[Any]",
    pending: list[ShardSpec],
    ckpt_file: Callable[[ShardSpec], str | None],
    fingerprint: str,
    heartbeat: "_Heartbeat",
    executed: dict[int, list[dict[str, Any]]],
    backend: ShardBackend,
    policy: RetryPolicy,
    sink: "FailureSink",
    tel: Telemetry,
    reporter: Any,
) -> None:
    """Drive ``pending`` shards to completion through ``backend``.

    The pending shards' runs are cut into range leases (see the module
    docstring); each shard completes, and is checkpointed through
    ``ckpt_file``, when its last record arrives.  Raises
    :class:`ShardFailure` when a shard keeps failing without making
    progress.  The backend is *not* closed on return — its
    lifetime belongs to the caller — but every lease this call opened
    is cancelled.
    """
    shard_done = tel.registry.gauge(
        "repro_shard_runs_done", help="Runs completed so far, by shard."
    )
    shard_seconds = tel.registry.histogram(
        "repro_shard_duration_seconds",
        help="Wall time from the dispatch of the lease that completed a shard "
        "to the shard's last record.",
    )
    order = sorted(pending, key=lambda spec: spec.start)
    by_start = [_Shard(spec=spec) for spec in order]
    starts = [spec.start for spec in order]
    # Run ranges owed by no lease, each inside one shard, in run order.
    queued: list[tuple[int, int]] = [(spec.start, spec.stop) for spec in order]
    active: dict[str, _Lease] = {}
    quarantined: set[tuple[int, int]] = set()

    def shard_of(run: int) -> _Shard:
        return by_start[bisect_right(starts, run) - 1]

    def spanned(start: int, stop: int) -> list[_Shard]:
        """The shards a run range overlaps, in run order."""
        lo = bisect_right(starts, start) - 1
        hi = bisect_left(starts, stop)
        return by_start[lo:hi]

    def charged(state: _Lease) -> _Shard:
        """The shard of a lease's first undelivered run (its last run
        when everything was delivered): the shard its failure is
        charged to."""
        return shard_of(min(state.done_through + 1, state.lease.stop - 1))

    def next_lease(now: float) -> tuple[int, int] | None:
        """Cut the next lease from the queued runs for one free slot.

        The lease starts at the first queued range whose shard is out of
        backoff and takes the contiguous ready ranges after it, whole
        shards at a time, until it holds at least its even share of the
        ready runs among the free slots.
        """
        ready = [r for r in queued if shard_of(r[0]).eligible_at <= now]
        if not ready:
            return None
        slots = max(1, backend.capacity())
        share = -(-sum(stop - start for start, stop in ready) // slots)
        start, stop = ready[0]
        taken = 1
        for lo, hi in ready[1:]:
            if lo != stop or stop - start >= share:
                break
            stop = hi
            taken += 1
        for r in ready[:taken]:
            queued.remove(r)
        return start, stop

    def dispatch(start: int, stop: int, now: float) -> None:
        covered = spanned(start, stop)
        first = covered[0]
        first.leases += 1
        lease_id = f"s{first.spec.index:05d}.{first.leases}"
        lease = ShardLease(
            lease_id=lease_id,
            shard_index=first.spec.index,
            start=start,
            stop=stop,
            attempt=first.leases,
            skip={k: v for shard in covered for k, v in shard.skip.items() if start <= k < stop},
        )
        backend.submit(lease)
        active[lease_id] = _Lease(lease=lease, last_beat=now)
        mark = time.perf_counter()
        for shard in covered:
            shard.dispatched_at = mark
            if not shard.started:
                shard.started = True
                heartbeat.emit("started", shard.spec)

    def finish_shard(shard: _Shard) -> None:
        index = shard.spec.index
        rows = [shard.rows[k] for k in shard.spec.run_indices()]
        path = ckpt_file(shard.spec)
        if path is not None:
            with tel.tracer.span("checkpoint_write", shard=index, records=len(rows)):
                write_shard_checkpoint(path, fingerprint, shard.spec, rows)
        executed[index] = rows
        shard.finished = True
        heartbeat.record_done(shard.spec.size, live=True)
        heartbeat.emit("finished", shard.spec)
        shard_done.set(shard.spec.size, shard=index)
        if tel.registry.enabled:
            shard_seconds.observe(time.perf_counter() - shard.dispatched_at)

    def quarantine(shard: _Shard, run: int, due_kind: DueKind, detail: str) -> bool:
        """Record one poison run exactly once; True if newly quarantined.

        Dedupe by ``(shard, run)``: only the first failure past the
        threshold emits the quarantine event and extends the skip set,
        so no lease ever skips a run without its ``quarantine`` event
        on record.
        """
        key = (shard.spec.index, run)
        if key in quarantined:
            return False
        quarantined.add(key)
        count = shard.deaths.get(run, 0)
        shard.skip[run] = (
            due_kind.value,
            f"sandbox: quarantined after {count} failed executions ({detail})",
        )
        sink(
            {
                "event": "quarantine",
                "shard": shard.spec.index,
                "run": run,
                "detail": detail,
            }
        )
        heartbeat.emit("quarantined", shard.spec, detail=f"run {run}: {detail}")
        return True

    def handle_failure(
        state: _Lease, detail: str, event: str, due_kind: DueKind = DueKind.CRASH
    ) -> None:
        """Judge one failed lease: charge its shard and run, then retry or give up.

        ``event`` is ``run_error`` (the executor reported an exception)
        or ``worker_death`` (the executor died, or was reaped as hung —
        ``due_kind`` ``hang``).  The failure is charged to the shard of
        the lease's first undelivered run, and the run it was executing
        is charged one failed execution.
        """
        shard = charged(state)
        index = shard.spec.index
        run = state.current_run
        progressed = len(shard.rows) > shard.progress_mark
        shard.progress_mark = len(shard.rows)
        shard.failures += 1
        owner = shard if run is None else shard_of(run)
        count = None
        if run is not None:
            count = owner.deaths[run] = owner.deaths.get(run, 0) + 1
        sink(
            {
                "event": event,
                "shard": index,
                "run": run,
                "attempt": shard.failures,
                **({} if count is None else {"deaths": count}),
                "detail": detail,
            }
        )
        if (
            run is not None
            and owner.deaths[run] >= policy.max_run_deaths
            and quarantine(owner, run, due_kind, detail)
        ):
            progressed = True
        if progressed:
            shard.no_progress = 0
        else:
            shard.no_progress += 1
            if shard.no_progress >= policy.max_attempts:
                sink(
                    {
                        "event": "shard_failed",
                        "shard": index,
                        "attempt": shard.failures,
                        "detail": detail,
                    }
                )
                heartbeat.emit("failed", shard.spec, detail=detail)
                raise ShardFailure(index, shard.failures, detail)
        delay = backoff_delay(config.seed, index, shard.failures, policy)
        sink(
            {
                "event": "retry",
                "shard": index,
                "attempt": shard.failures,
                "delay_s": round(delay, 3),
                "detail": detail,
            }
        )
        heartbeat.emit("retried", shard.spec, detail=detail)
        shard.eligible_at = time.monotonic() + delay

    def settle() -> None:
        """Queue the runs no lease owes any more.

        Called whenever a lease ends (done, failed, reaped).  A failed
        lease's undelivered tail is owed by nobody, so it is queued
        here, split at shard boundaries; a ``done`` lease's range is
        covered; other live leases and queued ranges still owe their
        own runs.
        """
        owed = {k for st in active.values() for k in range(st.done_through + 1, st.lease.stop)}
        owed.update(k for start, stop in queued for k in range(start, stop))
        for shard in by_start:
            if shard.finished:
                continue
            orphans = [
                k for k in shard.spec.run_indices() if k not in shard.rows and k not in owed
            ]
            queued.extend(_contiguous_ranges(orphans))
        queued.sort()

    def handle_result(result: LeaseResult) -> None:
        state = active.pop(result.lease_id, None)
        if state is None:
            return  # cancelled lease racing its own result: already judged
        if result.status == "error":
            # The executor attributes its own exception: a run-level
            # error names the run, an infrastructure one (a runner that
            # cannot be built) names none and charges no run.
            state.current_run = result.error_run
            handle_failure(state, result.detail, "run_error")
        elif result.status == "dead":
            handle_failure(state, result.detail, "worker_death")
        # ``done`` and ``killed`` are no failures: a killed lease's
        # record of its killed run has arrived, and settle() re-queues
        # the rest of its range.
        settle()

    def handle_event(event: BackendEvent, now: float) -> None:
        if event.kind == "metrics":
            tel.registry.merge(event.payload)
            return
        if event.kind == "spans":
            for record in event.payload:
                tel.trace_write(record)
            return
        state = active.get(event.lease_id)
        if state is None:
            return  # stale event from a lease judged earlier this drain
        state.last_beat = now
        if event.kind == "run":
            state.current_run = event.run
        elif event.kind == "rec":
            state.current_run = None
            assert event.run is not None and event.row is not None
            state.done_through = max(state.done_through, event.run)
            shard = shard_of(event.run)
            if shard.finished:
                return  # a duplicate of a checkpointed shard's record
            # Keep-first: a duplicate row is byte-identical to the first.
            shard.rows.setdefault(event.run, event.row)
            shard_done.set(len(shard.rows), shard=shard.spec.index)
            if len(shard.rows) == shard.spec.size:
                finish_shard(shard)
        elif event.kind == "failure":
            sink({"shard": charged(state).spec.index, **event.payload})

    # A backend that runs leases inside heartbeats() hands each event
    # over as it happens, so shards finish (and checkpoint) mid-lease.
    backend.stream_events(lambda event: handle_event(event, time.monotonic()))

    try:
        while True:
            if not active and all(s.finished for s in by_start):
                break
            if not active and not queued:
                # Every unfinished shard lacks records that no lease owes
                # and none is queued: waiting could never end.
                raise RuntimeError("scheduler stalled: unfinished shards with no work to lease")
            now = time.monotonic()
            reporter.tick()
            for event in backend.heartbeats():
                handle_event(event, now)
            busy = False
            for result in backend.results():
                handle_result(result)
                busy = True
            # Liveness: a lease whose executor sent nothing for too long
            # is reaped — cancelled at the backend, its in-flight run
            # charged a death, its remaining range re-queued.
            for lease_id, state in list(active.items()):
                if now - state.last_beat <= policy.liveness_timeout_s:
                    continue
                shard = charged(state)
                sink(
                    {
                        "event": "reap",
                        "shard": shard.spec.index,
                        "run": state.current_run,
                        "attempt": shard.failures + 1,
                        "detail": f"no heartbeat for "
                        f"{policy.liveness_timeout_s:.0f}s; worker killed",
                    }
                )
                heartbeat.emit(
                    "reaped",
                    shard.spec,
                    detail=f"no heartbeat for {policy.liveness_timeout_s:.0f}s",
                )
                backend.cancel(lease_id)
                del active[lease_id]
                handle_failure(
                    state,
                    f"hung: no heartbeat for {policy.liveness_timeout_s:.0f}s; "
                    "worker reaped",
                    "worker_death",
                    DueKind.HANG,
                )
                settle()
            # Cut queued runs into leases for the free slots, in run order.
            while backend.capacity() > 0:
                cut = next_lease(now)
                if cut is None:
                    break
                dispatch(*cut, now)
                busy = True
            # Poll again at once after a pass that moved work: an inline
            # backend has its next result ready, not in _POLL_S.
            if not busy:
                time.sleep(_POLL_S)
    finally:
        backend.stream_events(None)
        for lease_id in active:  # a raised ShardFailure leaves leases in flight
            backend.cancel(lease_id)
