"""Transport-agnostic campaign scheduling: range leases, retries, steals.

This loop is the campaign engine's one control plane: every campaign
of every kind — serial, pooled or distributed — runs through it, and
it is the only place that decides retries and quarantine (deterministic
backoff, liveness reaping, poison-run quarantine at
``RetryPolicy.max_run_deaths`` failed executions, no-progress
abandonment).  It talks to a :class:`~repro.service.backend.
ShardBackend`, so the same scheduler drives the in-process inline
executor, local worker processes and remote ``repro-worker`` agents
behind a broker, all through one lease protocol.

Two units are kept apart.  The **shard** is the unit of checkpoints,
resume, drift detection and early stop; its plan depends only on the
campaign.  The **lease** is the unit of execution: a contiguous run
range cut from the pending runs at shard boundaries, one per free
executor slot, so an executor runs (and ``BatchRunner`` plans) as many
runs at once as it can take.  The inline executor gets the whole
campaign, a local pool one lease per worker, each idle broker worker
one lease.  While the convergence gate has an early-stop target,
leases stay one shard wide, so it can stop the campaign between shards.

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
* **work stealing** — on backends that support it, when nothing is
  pending and capacity is idle, the straggler lease with the most
  remaining runs is split at the midpoint of its remaining range (a
  pure function of its progress, so the split is deterministic given
  the same state) and the tail half is leased to the idle worker;
* **quarantine dedup** — a run is quarantined exactly once per
  campaign, keyed by ``(shard, run)``; every later lease ships the
  quarantined runs of its range, so a poison run is never re-executed
  on another host without its ``sandbox:`` failure event on record
  (events carry the id of the lease that triggered them).

None of this can change campaign records: per-run RNG is keyed by run
index, so a stolen, re-leased or duplicated run produces byte-identical
rows wherever and however often it executes, whatever range it was
leased in; the scheduler merges by run index and keeps the first copy.
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
from repro.telemetry.metrics import NULL_REGISTRY, Histogram

if TYPE_CHECKING:  # pragma: no cover
    from repro.carolfi.campaign import CampaignKind
    from repro.carolfi.engine import FailureSink, _ConvergenceGate, _Heartbeat

__all__ = ["run_shards"]

#: Scheduler poll period while leases are in flight.
_POLL_S = 0.005


# When to split a straggler lease's remaining range.  The threshold is
# an estimate from the observed latency distribution: the scheduler
# keeps a per-worker EWMA of record inter-arrival gaps plus a fleet-wide
# latency histogram, and a lease is only split when the victim's
# expected remaining wall time (remaining × EWMA) exceeds the larger of
# STEAL_MIN_BENEFIT_S, the fleet's STEAL_QUANTILE latency and four
# heartbeat round trips (the coordination cost of the split).

#: Evidence-free fallback: a worker that has not streamed a record yet
#: is only split when at least this many runs remain; below that the
#: steal costs more coordination than it saves.
STEAL_MIN_REMAINING = 4

#: Fleet latency / heartbeat-RTT quantile used as the overhead estimate
#: a steal must beat.
STEAL_QUANTILE = 0.95

#: Smoothing factor of the per-worker record-gap EWMA (1 = only the
#: latest observation counts).
STEAL_EWMA_ALPHA = 0.25

#: Absolute floor on the expected tail time worth stealing.
STEAL_MIN_BENEFIT_S = 0.05


@dataclass
class _Lease:
    """Runtime state of one active lease."""

    lease: ShardLease
    worker: str
    stop: int  # effective stop; shrinks when the lease is stolen from
    current_run: int | None = None
    done_through: int = -1  # last run index whose record arrived
    last_beat: float = 0.0
    dispatched_mono: float = 0.0  # monotonic submit time (turnaround base)
    last_rec_mono: float | None = None  # monotonic arrival of latest record

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
    gate: "_ConvergenceGate",
) -> None:
    """Drive ``pending`` shards to completion through ``backend``.

    The pending shards' runs are cut into range leases (see the module
    docstring); each shard completes, and is checkpointed through
    ``ckpt_file``, when its last record arrives.  Raises
    :class:`ShardFailure` when a shard keeps failing without making
    progress.  The backend is *not* closed on return — its
    lifetime belongs to the caller (a broker outlives the campaigns it
    serves) — but every lease this call opened is cancelled.
    """
    remote = backend.remote  # lease lifecycle events only exist off-host
    # Hand the backend the campaign's telemetry bundle before anything
    # is dispatched: a broker registers its fleet-only series here and
    # captures the campaign span context (run_shards executes inside it)
    # so lease frames can carry the trace across hosts.
    backend.attach_telemetry(tel)
    shard_done = tel.registry.gauge(
        "repro_shard_runs_done", help="Runs completed so far, by shard."
    )
    shard_seconds = tel.registry.histogram(
        "repro_shard_duration_seconds",
        help="Wall time from the dispatch of the lease that completed a shard "
        "to the shard's last record.",
    )
    # Service counters exist only for remote backends: a local
    # campaign's registry must stay counter-for-counter identical to its
    # serial twin (tested), and leases are invisible implementation
    # detail there anyway.
    if remote:
        lease_counter = tel.registry.counter(
            "repro_service_leases_total", help="Shard leases issued, by disposition."
        )
        steal_counter = tel.registry.counter(
            "repro_service_steals_total", help="Straggler leases split by work stealing."
        )
        turnaround_hist = tel.registry.histogram(
            "repro_service_lease_turnaround_seconds",
            help="Dispatch-to-done wall time of completed leases, by worker.",
        )
        run_latency_hist = tel.registry.histogram(
            "repro_service_run_latency_seconds",
            help="Gap between consecutive streamed records of a lease, by worker.",
        )
        slowest_gauge = tel.registry.gauge(
            "repro_service_lease_slowest_seconds",
            help="Slowest completed lease turnaround so far, by worker.",
        )
    else:
        lease_counter = NULL_REGISTRY.counter("repro_service_leases_total")
        steal_counter = NULL_REGISTRY.counter("repro_service_steals_total")
        turnaround_hist = NULL_REGISTRY.histogram("repro_service_lease_turnaround_seconds")
        run_latency_hist = NULL_REGISTRY.histogram("repro_service_run_latency_seconds")
        slowest_gauge = NULL_REGISTRY.gauge("repro_service_lease_slowest_seconds")
    # Adaptive-steal evidence lives outside the registry so the
    # estimator works even with telemetry disabled (the broker
    # byte-identity drills): a per-worker EWMA of record gaps plus one
    # private fleet-wide latency histogram for the quantile threshold.
    worker_ewma: dict[str, float] = {}
    slowest_by_worker: dict[str, float] = {}
    fleet_latency = Histogram("fleet_run_latency_seconds")
    rtt_hist: Histogram | None = None
    if remote and tel.registry.enabled:
        for metric in tel.registry.metrics():
            if metric.name == "repro_service_heartbeat_rtt_seconds" and isinstance(
                metric, Histogram
            ):
                rtt_hist = metric  # registered by the broker's attach hook

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
        return shard_of(min(state.done_through + 1, state.stop - 1))

    def next_lease(now: float) -> tuple[int, int] | None:
        """Cut the next lease from the queued runs for one free slot.

        The lease starts at the first queued range whose shard is out of
        backoff and takes the contiguous ready ranges after it, whole
        shards at a time, until it holds at least its even share of the
        ready runs among the free slots.  While the gate has an
        early-stop target a lease never leaves its first shard.
        """
        ready = [r for r in queued if shard_of(r[0]).eligible_at <= now]
        if not ready:
            return None
        slots = max(1, backend.capacity())
        share = -(-sum(stop - start for start, stop in ready) // slots)
        start, stop = ready[0]
        taken = 1
        if gate.target is None:
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
        worker = backend.submit(lease)
        active[lease_id] = _Lease(
            lease=lease, worker=worker, stop=stop, last_beat=now, dispatched_mono=now
        )
        mark = time.perf_counter()
        lease_counter.inc(event="issued")
        if remote:
            sink(
                {
                    "event": "lease",
                    "shard": first.spec.index,
                    "lease": lease_id,
                    "worker": worker,
                    "start": start,
                    "stop": stop,
                    "attempt": first.leases,
                    "resume_from": start if start > first.spec.start else None,
                }
            )
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
        gate.mark_complete(index)

    def quarantine(shard: _Shard, run: int, due_kind: DueKind, detail: str, lease_id: str) -> bool:
        """Record one poison run exactly once; True if newly quarantined.

        Dedupe by ``(shard, run)``: concurrent leases (a victim and its
        thief, or racing re-leases) may both die on the same run, but
        only the first failure past the threshold emits the quarantine
        event and extends the skip set — a run re-leased to another
        host never silently skips a run without its ``sandbox:`` event
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
                **({"lease": lease_id} if remote else {}),
            }
        )
        lease_counter.inc(event="quarantine")
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
        lease_id = state.lease.lease_id
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
                **({"lease": lease_id, "worker": state.worker} if remote else {}),
            }
        )
        if (
            run is not None
            and owner.deaths[run] >= policy.max_run_deaths
            and quarantine(owner, run, due_kind, detail, lease_id)
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
        # The failed lease still owes the runs after its last delivered
        # record; settle() queues exactly those.
        resume = state.done_through + 1
        if remote and resume < state.stop:
            sink(
                {
                    "event": "re_lease",
                    "shard": index,
                    "lease": lease_id,
                    "resume_from": resume,
                    "stop": state.stop,
                    "detail": detail,
                }
            )
            lease_counter.inc(event="re_lease")

    def settle() -> None:
        """Queue the runs no lease owes any more.

        Called whenever a lease ends (done, failed, reaped).  A failed
        lease's undelivered tail is owed by nobody, so it is queued
        here, split at shard boundaries; a ``done`` lease's range is
        covered unless it was narrowed; other live leases (after a
        steal) and queued ranges still owe their own runs.
        """
        owed = {k for st in active.values() for k in range(st.done_through + 1, st.stop)}
        owed.update(k for start, stop in queued for k in range(start, stop))
        for shard in by_start:
            if shard.finished:
                continue
            orphans = [
                k for k in shard.spec.run_indices() if k not in shard.rows and k not in owed
            ]
            queued.extend(_contiguous_ranges(orphans))
        queued.sort()

    def handle_result(result: LeaseResult, now: float) -> None:
        state = active.pop(result.lease_id, None)
        if state is None:
            return  # cancelled lease racing its own result: already judged
        if result.status == "done":
            lease_counter.inc(event="done")
            turnaround = max(0.0, now - state.dispatched_mono)
            turnaround_hist.observe(turnaround, worker=state.worker)
            if turnaround > slowest_by_worker.get(state.worker, 0.0):
                slowest_by_worker[state.worker] = turnaround
                slowest_gauge.set(round(turnaround, 6), worker=state.worker)
            if remote:
                sink(
                    {
                        "event": "lease_done",
                        "shard": state.lease.shard_index,
                        "lease": result.lease_id,
                        "worker": state.worker,
                        "runs": state.stop - state.lease.start,
                    }
                )
        elif result.status == "error":
            # The executor attributes its own exception: a run-level
            # error names the run, an infrastructure one (a sandbox that
            # cannot start) names none and charges no run.
            state.current_run = result.error_run
            handle_failure(state, result.detail, "run_error")
        else:  # dead
            handle_failure(state, result.detail, "worker_death")
        settle()

    def handle_event(event: BackendEvent, now: float) -> None:
        if event.kind == "metrics":
            tel.registry.merge(event.payload)
            return
        if event.kind == "spans":
            for record in event.payload:
                tel.trace_write(record)
            return
        if event.kind == "worker":
            if remote:
                sink(dict(event.payload))
            return
        state = active.get(event.lease_id or "")
        if state is None:
            return  # stale event from a lease judged earlier this drain
        state.last_beat = now
        if event.kind == "run":
            state.current_run = event.run
        elif event.kind == "rec":
            state.current_run = None
            assert event.run is not None and event.row is not None
            state.done_through = max(state.done_through, event.run)
            # Record-gap latency: evidence for the adaptive stealer and
            # the per-worker run-latency histogram.
            gap = now - (
                state.last_rec_mono if state.last_rec_mono is not None else state.dispatched_mono
            )
            state.last_rec_mono = now
            if gap >= 0:
                fleet_latency.observe(gap)
                run_latency_hist.observe(gap, worker=state.worker)
                prev = worker_ewma.get(state.worker)
                worker_ewma[state.worker] = (
                    gap
                    if prev is None
                    else STEAL_EWMA_ALPHA * gap + (1.0 - STEAL_EWMA_ALPHA) * prev
                )
            shard = shard_of(event.run)
            if shard.finished:
                return  # duplicate (steal overshoot) of a checkpointed shard
            # Keep-first: duplicates (steal overshoot) are byte-identical.
            shard.rows.setdefault(event.run, event.row)
            shard_done.set(len(shard.rows), shard=shard.spec.index)
            if len(shard.rows) == shard.spec.size:
                finish_shard(shard)
        elif event.kind == "failure":
            sink({"shard": charged(state).spec.index, **event.payload})

    # A backend that runs leases inside heartbeats() hands each event
    # over as it happens, so shards finish (and checkpoint) mid-lease.
    backend.stream_events(lambda event: handle_event(event, time.monotonic()))

    def steal_overhead() -> tuple[float, float | None, float | None]:
        """``(overhead_s, fleet_q, rtt_q)`` — the latency bar a steal must beat.

        The overhead estimate is the largest of the absolute floor
        (``STEAL_MIN_BENEFIT_S``), the fleet's ``STEAL_QUANTILE`` record
        latency (a healthy worker would clear that much tail itself
        almost immediately) and four heartbeat round trips (shrink +
        re-lease coordination cost).
        """
        fleet_q = fleet_latency.quantile(STEAL_QUANTILE)
        rtt_q = rtt_hist.quantile(STEAL_QUANTILE) if rtt_hist is not None else None
        overhead = STEAL_MIN_BENEFIT_S
        if fleet_q is not None:
            overhead = max(overhead, fleet_q)
        if rtt_q is not None:
            overhead = max(overhead, 4.0 * rtt_q)
        return overhead, fleet_q, rtt_q

    def try_steal(now: float) -> None:
        if not backend.supports_steal:
            return
        if queued or backend.capacity() < 1:
            return
        overhead, fleet_q, rtt_q = steal_overhead()
        # Candidate score: the victim's expected remaining wall time
        # (runs × EWMA latency) when latency evidence exists, else the
        # raw remaining-run count behind the fixed STEAL_MIN_REMAINING floor.
        best: tuple[float, _Lease, int, float | None, str] | None = None
        for state in active.values():
            remaining = state.stop - (state.done_through + 1)
            if remaining < 2:  # victim and thief both keep work
                continue
            latency = worker_ewma.get(state.worker)
            if latency is None:
                if remaining < STEAL_MIN_REMAINING:
                    continue
                score, estimator = float(remaining), "fixed"
            else:
                expected = remaining * latency
                if expected < overhead:
                    continue
                score, estimator = expected, "ewma"
            if best is None or score > best[0]:
                best = (score, state, remaining, latency, estimator)
        if best is None:
            return
        _score, victim, remaining, latency, estimator = best
        next_undone = victim.done_through + 1
        mid = next_undone + (remaining + 1) // 2  # victim keeps the in-flight half
        if mid >= victim.stop or not backend.shrink(victim.lease.lease_id, mid):
            return
        old_stop = victim.stop
        victim.stop = mid
        shard = shard_of(mid)
        steal_counter.inc()
        lease_counter.inc(event="steal")
        sink(
            {
                "event": "steal",
                "shard": shard.spec.index,
                "victim": victim.lease.lease_id,
                "victim_worker": victim.worker,
                "split": mid,
                "stop": old_stop,
                # Evidence behind the decision: what was observed, what
                # threshold it had to beat, and which estimator judged it.
                "estimator": estimator,
                "remaining": remaining,
                "observed_latency_s": None if latency is None else round(latency, 6),
                "expected_tail_s": None if latency is None else round(remaining * latency, 6),
                "threshold_s": round(overhead, 6),
                "fleet_latency_q": None if fleet_q is None else round(fleet_q, 6),
                "heartbeat_rtt_q": None if rtt_q is None else round(rtt_q, 6),
                "quantile": STEAL_QUANTILE,
            }
        )
        heartbeat.emit(
            "stolen",
            shard.spec,
            detail=f"lease {victim.lease.lease_id} split at run {mid} ({estimator})",
        )
        dispatch(mid, old_stop, now)

    def abandon(owing_only: bool) -> None:
        """Cancel in-flight leases (with ``owing_only``, just those that
        still owe records; the others owe only their terminal frame)."""
        for lease_id, state in list(active.items()):
            if not owing_only or state.done_through + 1 < state.stop:
                backend.cancel(lease_id)
                del active[lease_id]

    try:
        while True:
            if gate.stopped:
                # A converged gate ends the campaign: leases beyond the
                # stop point are abandoned (shards they had not finished
                # have no checkpoint and re-run on a later resume).  A
                # lease that delivered its whole range is still drained,
                # so the telemetry it sends before its terminal frame is
                # merged, as when a lease ends before its last shard does.
                abandon(owing_only=True)
            if not active and (gate.stopped or all(s.finished for s in by_start)):
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
                handle_result(result, now)
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
                        **({"lease": lease_id, "worker": state.worker} if remote else {}),
                    }
                )
                heartbeat.emit(
                    "reaped",
                    shard.spec,
                    detail=f"no heartbeat for {policy.liveness_timeout_s:.0f}s",
                )
                backend.cancel(lease_id, reap=True)
                del active[lease_id]
                handle_failure(
                    state,
                    f"hung: no heartbeat for {policy.liveness_timeout_s:.0f}s; "
                    "worker reaped",
                    "worker_death",
                    DueKind.HANG,
                )
                settle()
            # Cut queued runs into leases for the free slots, in run
            # order (none once the gate has stopped the campaign).
            while not gate.stopped and backend.capacity() > 0:
                cut = next_lease(now)
                if cut is None:
                    break
                dispatch(*cut, now)
                busy = True
            try_steal(now)
            # Poll again at once after a pass that moved work: an inline
            # backend has its next result ready, not in _POLL_S.
            if not busy:
                time.sleep(_POLL_S)
    finally:
        backend.stream_events(None)
        abandon(owing_only=False)  # a raised ShardFailure leaves some
