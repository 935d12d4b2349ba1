"""The lease body, and the local backends that run it.

:func:`_run_lease` is the one lease body of every executor:
``_execute_shard`` over the lease range, each record streamed as a
``rec`` frame, ending in a bare ``done`` or an ``error`` (the protocol
of :mod:`repro.service.backend`).  ``repro-worker`` runs it behind the
broker; the two local executors here differ only in which process runs
it:

* :class:`InlineBackend` — serial campaigns: each lease (normally the
  whole campaign) runs synchronously in the calling process, inside
  the campaign's own telemetry scope, its events streamed to the
  scheduler as they happen;
* :class:`LocalBackend` — pooled campaigns: one disposable,
  individually supervised OS process per lease (normally one per
  worker), heartbeating over a pipe.

A lease is a run range over one or more shards; ``_execute_shard``
runs it as one ``BatchRunner`` plan, and the scheduler checkpoints each
shard as its last record arrives.

Over the pipe, frames are tagged and checksummed
(:mod:`repro.service.wire`; ``Connection.send_bytes`` is already
message-oriented, so framing adds validation); inline they are decoded
in place.  No executor writes checkpoints: the scheduler does, from the
streamed records.  Each executor owns the
:class:`~repro.carolfi.isolation.InjectionSandbox` its leases run
through — built on first use, closed when the executor ends — so no
sandbox outlives its campaign.

Semantics preserved from the original pool: workers are not daemons
(they must be able to spawn sandbox children), a dying worker is
observed through its exit code, a final ``done``/``error`` frame still
sitting in the pipe is drained before the death is judged, and the
fork-method supervisor warm-up keeps golden runs amortised across
workers.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable

from repro.carolfi import shmstore
from repro.carolfi.engine import ShardRunError, ShardSpec, _execute_shard
from repro.carolfi.isolation import (
    InjectionSandbox,
    IsolationConfig,
    IsolationMode,
    describe_exitcode,
    mp_context,
    supervisor_for,
)
from repro.service.backend import (
    BackendEvent,
    LeaseResult,
    ShardBackend,
    ShardLease,
    event_from_frame,
    result_from_frame,
)
from repro.service.wire import FrameError, decode_frame, encode_frame
from repro.telemetry import ShardTelemetry, Telemetry, WorkerTelemetry

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.connection import Connection

    from repro.carolfi.campaign import CampaignConfig

__all__ = ["InlineBackend", "LocalBackend"]

Frame = dict[str, Any]


def _new_sandbox(
    config: "CampaignConfig",
    isolation: IsolationConfig,
    send: Callable[[Frame], None],
) -> InjectionSandbox | None:
    """The executor's own sandbox, or ``None`` for in-process runs."""
    if isolation.mode is not IsolationMode.SUBPROCESS:
        return None
    return InjectionSandbox(
        config,
        isolation,
        on_event=lambda event: send({"kind": "failure", "event": event}),
    )


def _run_lease(
    config: "CampaignConfig",
    lease: ShardLease,
    sandbox: InjectionSandbox | None,
    send: Callable[[Frame], None],
    stop: Callable[[], int] | None = None,
) -> Frame:
    """The one lease body: run ``[start, stop)``, report it as frames.

    Progress goes out through ``send`` as ``run`` / ``rec`` /
    ``failure`` frames, one ``rec`` (run and row) per record; ``stop``
    is ``_execute_shard``'s run-boundary hook.  The terminal frame is
    *returned*, so the executor can release what it holds before the
    scheduler learns the lease is over.  It is a bare ``done``, or
    ``error`` with the detail and — for a :class:`ShardRunError` — the
    run to charge.
    """
    spec = ShardSpec(index=lease.shard_index, start=lease.start, stop=lease.stop)
    try:
        _execute_shard(
            config,
            spec,
            sandbox=sandbox,
            skip_runs=lease.skip,
            on_run=lambda k: send({"kind": "run", "run": k}),
            on_record=lambda k, row: send({"kind": "rec", "run": k, "row": row}),
            on_failure=lambda event: send({"kind": "failure", "event": event}),
            stop=stop,
        )
    except Exception as exc:  # noqa: BLE001 — the scheduler judges it
        run = exc.run_index if isinstance(exc, ShardRunError) else None
        return {"kind": "error", "detail": f"{type(exc).__name__}: {exc}", "run": run}
    return {"kind": "done"}


def _send(conn: "Connection", frame: Frame) -> None:
    try:
        conn.send_bytes(encode_frame(frame))
    except (OSError, ValueError):  # pragma: no cover — parent already gone
        pass


def _lease_worker_main(
    config: "CampaignConfig",
    lease: ShardLease,
    isolation: IsolationConfig,
    shard_tel: ShardTelemetry,
    conn: "Connection",
) -> None:
    """Entry point of one disposable lease worker process.

    Telemetry is rebuilt locally from the picklable ``shard_tel``
    coordinates: metrics accumulate in a worker-private registry and
    spans buffer in memory, and both are drained over the pipe after
    every record (``metrics`` / ``spans`` frames).  Draining before the
    final ``done`` keeps merging at-most-once: a killed worker loses
    only its undrained tail, never double-counts.
    """
    worker_tel = WorkerTelemetry(shard_tel)

    def flush_telemetry() -> None:
        delta, spans = worker_tel.drain()
        if delta:
            _send(conn, {"kind": "metrics", "delta": delta})
        if spans:
            _send(conn, {"kind": "spans", "batch": spans})

    def send(frame: Frame) -> None:
        _send(conn, frame)
        if frame["kind"] == "rec":
            flush_telemetry()

    sandbox = _new_sandbox(config, isolation, send)
    try:
        with worker_tel.activate():
            terminal = _run_lease(config, lease, sandbox, send)
        flush_telemetry()  # tail: the shard span
    finally:
        # Multiprocessing children skip regular atexit (os._exit), so
        # nothing here is released unless we do it — and before the
        # terminal frame, since the backend kills a worker once it has
        # reported.  Close our sandbox (an orphaned one would only die
        # on EOF) and reap any segment *this* process published
        # (normally none: the backend publishes before forking; the pid
        # guard protects the parent's segments from us).
        if sandbox is not None:
            sandbox.close()
        shmstore.release_published()
    _send(conn, terminal)
    conn.close()


class _LeaseProc:
    """One live lease: its process, pipe, and staged terminal frame."""

    __slots__ = ("lease", "proc", "conn", "terminal", "worker")

    def __init__(self, lease: ShardLease, proc: Any, conn: Any, worker: str):
        self.lease = lease
        self.proc = proc
        self.conn = conn
        self.worker = worker
        self.terminal: Frame | None = None


class LocalBackend(ShardBackend):
    """One supervised ``mp.Process`` per lease on the local host.

    Unlike a shared process pool, each in-flight lease owns its worker:
    the backend observes that worker's exit code directly, the
    scheduler reaps it when its heartbeat stalls, and one pathological
    run can never poison a neighbouring shard's executor.
    """

    def __init__(
        self,
        config: "CampaignConfig",
        *,
        workers: int,
        isolation: IsolationConfig | None = None,
        telemetry: Telemetry | None = None,
        on_event: Any = None,
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
        if self._ctx.get_start_method() == "fork" or config.shared_store:
            # Warm the per-process supervisor cache so every forked
            # worker (and, under subprocess isolation, every sandbox
            # grandchild) inherits the golden run — prefix-snapshot
            # store included — instead of recomputing it.  With the
            # shared store on, this is also the publication point of
            # the host-wide shared-memory segment, so the warm-up pays
            # off under *any* start method: spawn-started workers
            # attach the segment instead of walking the golden run
            # (and ``on_event`` — the engine's failure sink — receives
            # the budget-degradation event exactly once per host).
            try:
                supervisor_for(config, on_event=on_event)
            except Exception:  # noqa: BLE001 — let workers report the real failure
                pass

    def capacity(self) -> int:
        return self._workers - len(self._live)

    def submit(self, lease: ShardLease) -> str:
        conn_r, conn_w = self._ctx.Pipe(duplex=False)
        shard_tel = (
            self._telemetry.shard_telemetry()
            if self._telemetry is not None
            else ShardTelemetry()
        )
        # Not a daemon: under subprocess isolation the lease worker must
        # spawn sandbox children, which daemonic processes may not do.
        # The scheduler reaps these workers itself (cancel) and the
        # sandbox children ARE daemons, so a dying worker takes its
        # sandbox down with it.
        proc = self._ctx.Process(
            target=_lease_worker_main,
            args=(self._config, lease, self._isolation, shard_tel, conn_w),
            daemon=False,
            name=f"lease-{lease.lease_id}",
        )
        proc.start()
        conn_w.close()
        worker = f"local/pid{proc.pid}"
        self._live[lease.lease_id] = _LeaseProc(lease, proc, conn_r, worker)
        return worker

    def _drain_conn(self, live: _LeaseProc, events: list[BackendEvent]) -> None:
        while live.conn is not None:
            try:
                if not live.conn.poll(0):
                    return
                raw = live.conn.recv_bytes()
            except (EOFError, OSError):
                return
            try:
                frame = decode_frame(raw)
            except FrameError:
                continue  # torn frame from a dying worker: skip, judge by exit code
            if frame.get("kind") in ("done", "error"):
                live.terminal = frame
                continue
            event = event_from_frame(live.lease.lease_id, frame)
            if event is not None:
                events.append(event)

    def heartbeats(self) -> list[BackendEvent]:
        events: list[BackendEvent] = []
        for live in list(self._live.values()):
            self._drain_conn(live, events)
            self._judge(live, events)
        return events

    def _judge(self, live: _LeaseProc, events: list[BackendEvent]) -> None:
        """Stage a terminal result once the lease's fate is knowable."""
        if live.terminal is None:
            if live.proc is None or live.proc.is_alive():
                return
            live.proc.join(timeout=5.0)
            # A final done/error frame may still sit in the pipe: drain
            # once more before judging the death.
            self._drain_conn(live, events)
        lease_id = live.lease.lease_id
        if live.terminal is not None:
            result = result_from_frame(lease_id, live.terminal, live.worker)
        else:
            detail = f"shard worker {describe_exitcode(live.proc.exitcode)}"
            result = LeaseResult(lease_id, "dead", detail=detail, worker=live.worker)
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

    def cancel(self, lease_id: str, *, reap: bool = False) -> None:
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
    campaign's own telemetry scope, and decodes its frames in place.
    Each event goes to the scheduler's :meth:`stream_events` handler as
    it happens, so a shard finishes and checkpoints while the lease
    (normally the whole campaign) runs on.
    One lease at a time: capacity is 0 while a lease is staged or its
    result is still undrained.  ``on_run_done`` is called after every
    record (the live progress line's tick).  No stealing, no liveness
    to lose: a run that hangs or kills this process takes the campaign
    with it — subprocess isolation exists for exactly that.
    """

    #: Worker label of every inline lease.
    WORKER = "inline"

    def __init__(
        self,
        config: "CampaignConfig",
        *,
        isolation: IsolationConfig | None = None,
        on_run_done: Callable[[], Any] | None = None,
    ):
        self._config = config
        self._isolation = isolation or IsolationConfig()
        self._on_run_done = on_run_done
        self._sandbox: InjectionSandbox | None = None
        self._lease: ShardLease | None = None
        self._running = ""
        self._events: list[BackendEvent] = []
        self._handler: Callable[[BackendEvent], None] | None = None
        self._handler_error: BaseException | None = None
        self._results: list[LeaseResult] = []

    def stream_events(self, handler: Callable[[BackendEvent], None] | None) -> None:
        self._handler = handler

    def capacity(self) -> int:
        return 0 if self._lease is not None or self._results else 1

    def submit(self, lease: ShardLease) -> str:
        self._lease = lease
        return self.WORKER

    def _send(self, frame: Frame) -> None:
        event = event_from_frame(self._running, frame)
        if event is not None:
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
        if frame["kind"] == "rec" and self._on_run_done is not None:
            self._on_run_done()

    def heartbeats(self) -> list[BackendEvent]:
        lease, self._lease = self._lease, None
        if lease is not None:
            self._running = lease.lease_id
            if self._sandbox is None:
                self._sandbox = _new_sandbox(self._config, self._isolation, self._send)
            terminal = _run_lease(
                self._config,
                lease,
                self._sandbox,
                self._send,
                # A failed handler ends the lease at the next run.
                stop=lambda: lease.stop if self._handler_error is None else lease.start,
            )
            error, self._handler_error = self._handler_error, None
            if error is not None:
                raise error
            self._results.append(result_from_frame(lease.lease_id, terminal, self.WORKER))
        events, self._events = self._events, []
        return events

    def results(self) -> list[LeaseResult]:
        results, self._results = self._results, []
        return results

    def cancel(self, lease_id: str, *, reap: bool = False) -> None:
        if self._lease is not None and self._lease.lease_id == lease_id:
            self._lease = None
        self._results = [r for r in self._results if r.lease_id != lease_id]

    def close(self) -> None:
        self._lease = None
        if self._sandbox is not None:
            self._sandbox.close()
            self._sandbox = None
