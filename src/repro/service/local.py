"""The lease body, and the local backends that run it.

:func:`_run_lease` is the one lease body of every executor:
``_execute_shard`` over the lease range, each record streamed as a
``rec`` event, ending in a ``done`` or ``error`` lease result (the
protocol of :mod:`repro.service.backend`).  The two executors differ
only in which process runs it:

* :class:`InlineBackend` — serial in-process campaigns: each lease
  (normally the whole campaign) runs synchronously in the calling
  process, inside the campaign's own telemetry scope, its events
  streamed to the scheduler as they happen;
* :class:`LocalBackend` — pooled campaigns, and every campaign under
  subprocess isolation: one disposable, individually supervised OS
  process per lease (normally one per worker), heartbeating over a
  pipe.  Under subprocess isolation it is also the sandbox: it kills a
  worker whose run passes its deadline or RSS ceiling.

A lease is a run range over one or more shards; ``_execute_shard``
runs it as one ``BatchRunner`` plan, and the scheduler checkpoints each
shard as its last record arrives.

Over the pipe, each event and the lease result travel as one pickled
object (``Connection.send``, which length-prefixes every message);
inline they reach the scheduler as they are.  No executor writes
checkpoints: the scheduler does, from the streamed records.  Each
executor runs its leases through the campaign's runner: its own in the
calling process, or, in a lease worker, the one the worker inherited
at fork.

Semantics preserved from the original pool: a dying worker is observed
through its exit code, a lease result still sitting in the pipe is
drained before the death is judged, and the campaign's fork-method
runner warm-up keeps golden runs amortised across workers.
"""

from __future__ import annotations

import os
import pickle
import time
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from repro.carolfi.engine import ShardRunError, ShardSpec, _execute_shard, count_run
from repro.carolfi.isolation import (
    EventCallback,
    IsolationConfig,
    IsolationMode,
    describe_exitcode,
    mp_context,
    rss_bytes,
    supervisor_for,
)
from repro.faults.outcome import DueKind
from repro.service.backend import BackendEvent, LeaseResult, ShardBackend, ShardLease
from repro.telemetry import ShardTelemetry, Telemetry, WorkerTelemetry

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.connection import Connection

    from repro.carolfi.campaign import CampaignKind

__all__ = ["InlineBackend", "LocalBackend"]


def _run_lease(
    config: "CampaignKind[Any]",
    lease: ShardLease,
    runner: Callable[[EventCallback], Any],
    send: Callable[[BackendEvent], None],
    stop: Callable[[], int] | None = None,
) -> LeaseResult:
    """The one lease body: run ``[start, stop)``, report it as events.

    The runs go through the runner that ``runner(on_event)`` returns —
    the process's cached one (:func:`supervisor_for`) or the campaign's
    own in the calling process — built inside the lease's error net: a
    runner that cannot be built fails the lease like a run error, and
    the scheduler retries it.

    Progress goes out through ``send`` as ``run`` / ``rec`` /
    ``failure`` events, one ``rec`` (run and row) per record; ``stop``
    is ``_execute_shard``'s run-boundary hook.  The lease result is
    *returned*, so the executor can release what it holds before the
    scheduler learns the lease is over.  It is ``done``, or ``error``
    with the detail and — for a :class:`ShardRunError` — the run to
    charge.
    """
    spec = ShardSpec(index=lease.shard_index, start=lease.start, stop=lease.stop)
    lease_id = lease.lease_id

    def on_failure(event: dict[str, Any]) -> None:
        send(BackendEvent("failure", lease_id, payload=event))

    try:
        _execute_shard(
            config,
            spec,
            runner(on_failure),
            skip_runs=lease.skip,
            on_run=lambda k: send(BackendEvent("run", lease_id, run=k)),
            on_record=lambda k, row: send(BackendEvent("rec", lease_id, run=k, row=row)),
            stop=stop,
        )
    except Exception as exc:  # noqa: BLE001 — the scheduler judges it
        run = exc.run_index if isinstance(exc, ShardRunError) else None
        detail = f"{type(exc).__name__}: {exc}"
        return LeaseResult(lease_id, "error", detail=detail, error_run=run)
    return LeaseResult(lease_id, "done")


def _send(conn: "Connection", message: BackendEvent | LeaseResult) -> None:
    try:
        conn.send(message)
    except (OSError, ValueError):  # pragma: no cover — parent already gone
        pass


def _lease_worker_main(
    config: "CampaignKind[Any]",
    lease: ShardLease,
    shard_tel: ShardTelemetry,
    conn: "Connection",
) -> None:
    """Entry point of one disposable lease worker process.

    Telemetry is rebuilt locally from the picklable ``shard_tel``
    coordinates: metrics accumulate in a worker-private registry and
    spans buffer in memory, and both are drained over the pipe after
    every record (``metrics`` / ``spans`` events).  Draining before the
    lease result keeps merging at-most-once: a killed worker loses only
    its undrained tail, never double-counts.

    With ``REPRO_WORKER_DIE_AFTER=N`` set, the process exits with code
    7 — no lease result, no clean-up — right after streaming its
    ``N``-th record: a worker dying mid-lease, which the scheduler must
    re-lease from the next run.
    """
    worker_tel = WorkerTelemetry(shard_tel)
    die_after = int(os.environ.get("REPRO_WORKER_DIE_AFTER", "0") or 0)
    records = 0

    def flush_telemetry() -> None:
        delta, spans = worker_tel.drain()
        if delta:
            _send(conn, BackendEvent("metrics", lease.lease_id, payload=delta))
        if spans:
            _send(conn, BackendEvent("spans", lease.lease_id, payload=spans))

    def send(event: BackendEvent) -> None:
        nonlocal records
        _send(conn, event)
        if event.kind == "rec":
            flush_telemetry()
            records += 1
            if records == die_after:
                os._exit(7)

    # A ``lease`` span around the lease body, under the campaign span.
    with worker_tel.activate(), worker_tel.tracer.span(
        "lease",
        lease=lease.lease_id,
        shard=lease.shard_index,
        start=lease.start,
        stop=lease.stop,
        attempt=lease.attempt,
        worker=f"local/pid{os.getpid()}",
    ):
        # The campaign's warm runner, inherited at fork (or built here,
        # golden walk and all, under spawn).
        result = _run_lease(config, lease, partial(supervisor_for, config), send)
    flush_telemetry()  # tail: the shard and lease spans
    _send(conn, result)
    conn.close()


class _LeaseProc:
    """One live lease: its process, pipe, staged lease result, and the
    scalar run in flight (from its ``run`` beat to its ``rec``)."""

    __slots__ = ("lease", "proc", "conn", "result", "run", "began")

    def __init__(self, lease: ShardLease, proc: Any, conn: Any):
        self.lease = lease
        self.proc = proc
        self.conn = conn
        self.result: LeaseResult | None = None
        self.run: int | None = None
        self.began = 0.0


class LocalBackend(ShardBackend):
    """One supervised ``mp.Process`` per lease on the local host.

    Unlike a shared process pool, each in-flight lease owns its worker:
    the backend observes that worker's exit code directly, the
    scheduler reaps it when its heartbeat stalls, and one pathological
    run can never poison a neighbouring shard's executor.  The campaign
    warms its runner before building the backend, so workers inherit
    the golden run (spawn-started, each walks its own).

    Under subprocess isolation the backend also kills a worker whose
    in-flight run passes ``timeout_s`` or whose RSS passes
    ``mem_limit_mb`` (:meth:`_enforce`).  A batch pass has no run in
    flight, so neither kill applies during it.
    """

    def __init__(
        self,
        config: "CampaignKind[Any]",
        *,
        workers: int,
        isolation: IsolationConfig | None = None,
        telemetry: Telemetry | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        self._config = config
        self._workers = workers
        self._isolation = isolation or IsolationConfig()
        self._telemetry = telemetry
        self._ctx = mp_context()
        self._live: dict[str, _LeaseProc] = {}
        self._results: list[LeaseResult] = []
        self._mem_unreadable = False

    def capacity(self) -> int:
        return self._workers - len(self._live)

    def submit(self, lease: ShardLease) -> None:
        conn_r, conn_w = self._ctx.Pipe(duplex=False)
        shard_tel = (
            self._telemetry.shard_telemetry()
            if self._telemetry is not None
            else ShardTelemetry()
        )
        # Not a daemon: the backend kills and reaps its workers itself
        # (cancel, close), so nothing relies on multiprocessing's
        # exit-time termination of daemonic children.
        proc = self._ctx.Process(
            target=_lease_worker_main,
            args=(self._config, lease, shard_tel, conn_w),
            daemon=False,
            name=f"lease-{lease.lease_id}",
        )
        proc.start()
        conn_w.close()
        self._live[lease.lease_id] = _LeaseProc(lease, proc, conn_r)

    def _drain_conn(self, live: _LeaseProc, events: list[BackendEvent]) -> None:
        while live.conn is not None:
            try:
                if not live.conn.poll(0):
                    return
                message = live.conn.recv()
            except (EOFError, OSError):
                return  # closed, or a message torn by a dying worker
            except pickle.UnpicklingError:
                continue  # skip it; the lease is judged by its exit code
            if isinstance(message, LeaseResult):
                live.result = message
                continue
            if message.kind == "run":
                live.run, live.began = message.run, time.monotonic()
            elif message.kind == "rec" and message.run == live.run:
                live.run = None
            events.append(message)

    def heartbeats(self) -> list[BackendEvent]:
        events: list[BackendEvent] = []
        for live in list(self._live.values()):
            self._drain_conn(live, events)
            if not self._enforce(live, events):
                self._judge(live, events)
        return events

    def _enforce(self, live: _LeaseProc, events: list[BackendEvent]) -> bool:
        """Kill the worker if its in-flight run is past the deadline or
        the RSS ceiling; True if it did.

        A kill is the run's outcome, not a failure: the backend sends a
        ``sandbox_timeout_kill`` or ``sandbox_oom_kill`` failure event,
        then the run's ``hang`` or ``oom`` DUE record, built here, and
        ends the lease ``killed``, so the scheduler re-cuts the rest of
        its range with no retry charged.  The event goes first, so the
        scheduler charges it to the killed run's shard.
        """
        iso = self._isolation
        run = live.run
        if (
            iso.mode is not IsolationMode.SUBPROCESS
            or run is None
            or live.result is not None
            or not live.proc.is_alive()
        ):
            return False
        lease_id = live.lease.lease_id
        limit = iso.mem_limit_mb
        if time.monotonic() - live.began > iso.timeout_s:
            kind, event = DueKind.HANG, "sandbox_timeout_kill"
            detail = f"wall-clock deadline {iso.timeout_s:.1f}s exceeded; worker killed"
        elif limit is None or self._mem_unreadable:
            return False
        else:
            rss = rss_bytes(live.proc.pid)
            if rss is None:
                self._mem_unreadable = True
                event = "sandbox_mem_limit_unenforceable"
                detail = "cannot read worker RSS on this platform"
                events.append(self._failure(lease_id, event, run, detail))
                return False
            if rss <= int(limit * (1 << 20)):
                return False
            kind, event = DueKind.OOM, "sandbox_oom_kill"
            detail = (
                f"rss {rss / (1 << 20):.0f} MiB exceeded the "
                f"{limit:.0f} MiB ceiling; worker killed"
            )
        self._retire(live)
        events.append(self._failure(lease_id, event, run, detail))
        config = self._config
        record = supervisor_for(config).due_record(
            run, *config.run_args(run), kind=kind, detail=f"sandbox: {detail}"
        )
        row = record.to_dict()
        count_run(row, time.monotonic() - live.began)
        events.append(BackendEvent("rec", lease_id, run=run, row=row))
        self._results.append(LeaseResult(lease_id, "killed", detail=detail))
        del self._live[lease_id]
        return True

    def _failure(self, lease_id: str, event: str, run: int, detail: str) -> BackendEvent:
        benchmark = self._config.benchmark
        payload = {"event": event, "benchmark": benchmark, "run": run, "detail": detail}
        return BackendEvent("failure", lease_id, payload=payload)

    def _judge(self, live: _LeaseProc, events: list[BackendEvent]) -> None:
        """Stage a terminal result once the lease's fate is knowable."""
        if live.result is None:
            if live.proc is None or live.proc.is_alive():
                return
            live.proc.join(timeout=5.0)
            # A lease result may still sit in the pipe: drain once more
            # before judging the death.
            self._drain_conn(live, events)
        lease_id = live.lease.lease_id
        result = live.result
        if result is None:
            detail = f"shard worker {describe_exitcode(live.proc.exitcode)}"
            result = LeaseResult(lease_id, "dead", detail=detail)
        self._retire(live)
        self._results.append(result)
        del self._live[lease_id]

    def results(self) -> list[LeaseResult]:
        out = self._results
        self._results = []
        return out

    def _retire(self, live: _LeaseProc) -> None:
        if live.conn is not None:
            try:
                live.conn.close()
            except OSError:  # pragma: no cover
                pass
            live.conn = None
        if live.proc is not None and live.proc.is_alive():
            live.proc.kill()
            live.proc.join(timeout=5.0)

    def cancel(self, lease_id: str) -> None:
        live = self._live.pop(lease_id, None)
        if live is not None:
            self._retire(live)

    def close(self) -> None:
        for lease_id in list(self._live):
            self.cancel(lease_id)

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"LocalBackend(workers={self._workers}, live={len(self._live)}, pid={os.getpid()})"


class InlineBackend(ShardBackend):
    """Runs each lease synchronously in the calling process (serial mode).

    :meth:`submit` only stages the lease; the next :meth:`heartbeats`
    runs it to completion through the shared lease body, in the
    campaign's own telemetry scope.  Each event goes to the scheduler's
    :meth:`stream_events` handler as it happens, so a shard finishes
    and checkpoints while the lease (normally the whole campaign) runs
    on.  One lease at a time: capacity is 0 while a lease is staged or its
    result is still undrained.  ``on_run_done`` is called after every
    record (the live progress line's tick).  The runs go through
    ``runner(on_event)``, the campaign's runner in this process.  No
    liveness to lose: a run that hangs or kills this process takes the
    campaign with it — subprocess isolation, which runs every lease in
    a :class:`LocalBackend` worker, exists for exactly that.
    """

    def __init__(
        self,
        config: "CampaignKind[Any]",
        *,
        runner: Callable[[EventCallback], Any],
        on_run_done: Callable[[], Any] | None = None,
    ):
        self._config = config
        self._runner = runner
        self._on_run_done = on_run_done
        self._lease: ShardLease | None = None
        self._events: list[BackendEvent] = []
        self._handler: Callable[[BackendEvent], None] | None = None
        self._handler_error: BaseException | None = None
        self._results: list[LeaseResult] = []

    def stream_events(self, handler: Callable[[BackendEvent], None] | None) -> None:
        self._handler = handler

    def capacity(self) -> int:
        return 0 if self._lease is not None or self._results else 1

    def submit(self, lease: ShardLease) -> None:
        self._lease = lease

    def _send(self, event: BackendEvent) -> None:
        if self._handler is None:
            self._events.append(event)
        elif self._handler_error is None:
            # The handler's failure (a checkpoint that cannot be
            # written) is the scheduler's, not the lease's: keep it
            # from the lease body's error net and raise it below.
            try:
                self._handler(event)
            except BaseException as exc:  # noqa: BLE001 — re-raised by heartbeats()
                self._handler_error = exc
        if event.kind == "rec" and self._on_run_done is not None:
            self._on_run_done()

    def heartbeats(self) -> list[BackendEvent]:
        lease, self._lease = self._lease, None
        if lease is not None:
            result = _run_lease(
                self._config,
                lease,
                self._runner,
                self._send,
                # A failed handler ends the lease at the next run.
                stop=lambda: lease.stop if self._handler_error is None else lease.start,
            )
            error, self._handler_error = self._handler_error, None
            if error is not None:
                raise error
            self._results.append(result)
        events, self._events = self._events, []
        return events

    def results(self) -> list[LeaseResult]:
        results, self._results = self._results, []
        return results

    def cancel(self, lease_id: str) -> None:
        if self._lease is not None and self._lease.lease_id == lease_id:
            self._lease = None
        self._results = [r for r in self._results if r.lease_id != lease_id]

    def close(self) -> None:
        self._lease = None
