"""The transport-agnostic shard backend protocol.

The campaign scheduler (:mod:`repro.service.scheduler`) never talks to
processes, pipes or sockets directly: it leases contiguous run ranges
to a :class:`ShardBackend` and reacts to the events the backend drains
back.  Three implementations exist:

* :class:`repro.service.local.InlineBackend` — serial campaigns: each
  lease runs synchronously in the calling process;
* :class:`repro.service.local.LocalBackend` — the engine's
  fault-domain pool: one disposable ``mp.Process`` per lease (one
  lease per worker), heartbeats over a pipe;
* :class:`repro.service.broker.BrokerBackend` — a TCP work-queue
  server leasing run ranges to connected ``repro-worker`` agents, with
  work stealing and re-lease on worker loss.

A **lease** is one attempt to execute one contiguous run range, which
may span several shards: the scheduler cuts one per free executor slot
(at shard boundaries), and the shard stays the unit of checkpoints.  A
shard may be covered by several leases over its lifetime (retries
after a worker death, a steal splitting a straggler's remaining range);
the scheduler owns that bookkeeping, the backend only executes leases
and reports what happened to them.

Every executor speaks one lease protocol, whatever carries it (an
in-process call, a pipe, a socket): it runs
:func:`repro.service.local._run_lease` and sends one frame per event::

    {"kind": "run", "run": k}                  # liveness beat
    {"kind": "rec", "run": k, "row": {...}}    # run k's record
    {"kind": "metrics", "delta": {...}} / {"kind": "spans", "batch": [...]}
    {"kind": "failure", "event": {...}}
    {"kind": "done"} / {"kind": "error", "detail": s, "run": k | None}

:func:`event_from_frame` and :func:`result_from_frame` turn those frames
into the :class:`BackendEvent` / :class:`LeaseResult` the scheduler
drains.  Records reach the scheduler only as ``rec`` frames, so it can
re-lease a failed lease from its last delivered record and is the only
writer of shard checkpoints.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "BackendEvent",
    "LeaseResult",
    "ShardBackend",
    "ShardLease",
    "event_from_frame",
    "result_from_frame",
]


@dataclass(frozen=True)
class ShardLease:
    """One attempt to execute the run range ``[start, stop)``.

    The range may span several shards; ``shard_index`` is the shard of
    its first run, and ``lease_id`` is ``s<shard_index>.<attempt>``:
    the ``attempt``-th lease whose range starts in that shard.
    ``start`` is the *resume point*, not necessarily a shard's first
    run index: a re-lease after a worker death starts where the dead
    lease's streamed records end, and a lease minted by a steal starts
    at the split point.  ``skip`` maps quarantined run indices to their
    ``(due_kind, detail)`` — the executing worker records them as
    synthetic DUEs without running them, on whatever host the lease
    lands.
    """

    lease_id: str
    shard_index: int
    start: int
    stop: int
    attempt: int
    skip: dict[int, tuple[str, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.stop:
            raise ValueError(f"bad lease range [{self.start}, {self.stop})")

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class BackendEvent:
    """One incremental event drained from a backend.

    ``kind`` is one of:

    * ``"run"`` — the lease began executing run ``run`` (liveness beat);
    * ``"rec"`` — run ``run`` completed and ``row`` is its record dict;
    * ``"metrics"`` / ``"spans"`` — a telemetry delta / span batch in
      ``payload``;
    * ``"failure"`` — a worker-side failure event dict in ``payload``;
    * ``"worker"`` — worker membership changed (connected/lost);
      ``payload`` is the event dict, ``lease_id`` is ``None``.
    """

    kind: str
    lease_id: str | None = None
    run: int | None = None
    row: dict[str, Any] | None = None
    payload: Any = None


@dataclass(frozen=True)
class LeaseResult:
    """Terminal outcome of one lease attempt.

    ``status`` is ``"done"`` (range fully executed, every record already
    streamed), ``"error"`` (one run raised an exception that escaped the
    crash net; ``error_run`` attributes it) or ``"dead"`` (the executor
    vanished — process exit, connection loss — without reporting).
    """

    lease_id: str
    status: str
    detail: str = ""
    error_run: int | None = None
    worker: str = ""


class ShardBackend(abc.ABC):
    """Executes shard leases somewhere; the scheduler does not care where."""

    #: Whether :meth:`shrink` can split a running lease's remaining
    #: range (work stealing).  Backends whose executors cannot be
    #: re-scoped mid-flight leave this False.
    supports_steal: bool = False

    #: Whether executors run off-host.  Only remote backends get the
    #: lease-lifecycle events and the ``repro_service_*`` series: a
    #: local campaign's registry must equal its serial twin's.
    remote: bool = False

    def attach_telemetry(self, telemetry: Any) -> None:
        """Optional hook: the scheduler hands over the campaign's
        :class:`~repro.telemetry.Telemetry` bundle before dispatching.

        Backends that observe fleet state the scheduler cannot see
        (worker membership, heartbeat round trips) register their
        fleet-only series on the campaign registry here, and backends
        that ship work to other hosts capture the current span context
        so remote executors can continue the campaign trace.  The
        default is a no-op — local backends receive telemetry at
        construction and have nothing host-level to add.
        """

    def stream_events(self, handler: Callable[[BackendEvent], None] | None) -> None:
        """Optional hook: hand each event to ``handler`` as it happens.

        Only a backend that runs a whole lease inside :meth:`heartbeats`
        needs it: without it, a lease's records would reach the
        scheduler only when the lease ends, so no shard could finish —
        or be checkpointed — before then.  The scheduler sets the
        handler before dispatching and clears it (``None``) when it
        returns.  The default keeps every event for :meth:`heartbeats`.
        """

    @abc.abstractmethod
    def capacity(self) -> int:
        """Free executor slots right now (0 = submit would have to wait)."""

    @abc.abstractmethod
    def submit(self, lease: ShardLease) -> str:
        """Dispatch a lease to an executor; returns a worker label."""

    @abc.abstractmethod
    def heartbeats(self) -> list[BackendEvent]:
        """Drain incremental events (runs, records, telemetry, failures)."""

    @abc.abstractmethod
    def results(self) -> list[LeaseResult]:
        """Drain terminal lease outcomes (done / error / dead)."""

    @abc.abstractmethod
    def cancel(self, lease_id: str, *, reap: bool = False) -> None:
        """Abandon a lease.  ``reap`` kills an unresponsive executor
        outright (the liveness path); a cancelled lease emits no
        further events and no result."""

    def shrink(self, lease_id: str, new_stop: int) -> bool:
        """Narrow a running lease to ``[start, new_stop)`` (steal prep).

        Best-effort: the executor may already be past ``new_stop``; any
        overshoot produces byte-identical duplicate records the
        scheduler deduplicates.  Returns False when unsupported.
        """
        return False

    @abc.abstractmethod
    def close(self) -> None:
        """Release every executor and transport resource."""

    def __enter__(self) -> "ShardBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: Payload field of each non-terminal frame kind that carries one.
_PAYLOADS = {"metrics": "delta", "spans": "batch", "failure": "event"}


def event_from_frame(lease_id: str | None, frame: dict[str, Any]) -> BackendEvent | None:
    """The backend event a non-terminal frame stands for (``None``: unknown)."""
    kind = frame.get("kind")
    if kind == "run":
        return BackendEvent(kind, lease_id, run=int(frame["run"]))
    if kind == "rec":
        return BackendEvent(kind, lease_id, run=int(frame["run"]), row=frame["row"])
    if kind in _PAYLOADS:
        return BackendEvent(kind, lease_id, payload=frame[_PAYLOADS[kind]])
    return None


def result_from_frame(lease_id: str, frame: dict[str, Any], worker: str) -> LeaseResult:
    """The lease result a terminal ``done``/``error`` frame stands for."""
    if frame["kind"] == "done":
        return LeaseResult(lease_id, "done", worker=worker)
    run = frame.get("run")
    return LeaseResult(
        lease_id,
        "error",
        detail=str(frame.get("detail", "worker error")),
        error_run=None if run is None else int(run),
        worker=worker,
    )
