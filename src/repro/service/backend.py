"""The shard backend protocol.

The campaign scheduler (:mod:`repro.service.scheduler`) never talks to
processes or pipes directly: it leases contiguous run ranges to a
:class:`ShardBackend` and reacts to the events the backend drains
back.  Two implementations exist:

* :class:`repro.service.local.InlineBackend` — serial in-process
  campaigns: each lease runs synchronously in the calling process;
* :class:`repro.service.local.LocalBackend` — the engine's
  fault-domain pool, and every campaign under subprocess isolation:
  one disposable ``mp.Process`` per lease (one lease per worker),
  heartbeats over a pipe.

A **lease** is one attempt to execute one contiguous run range, which
may span several shards: the scheduler cuts one per free executor slot
(at shard boundaries), and the shard stays the unit of checkpoints.  A
shard may be covered by several leases over its lifetime (retries
after a worker death); the scheduler owns that bookkeeping, the
backend only executes leases and reports what happened to them.

Every executor speaks one lease protocol, whatever carries it (an
in-process call or a pipe): it runs
:func:`repro.service.local._run_lease`, which sends one
:class:`BackendEvent` per run beat, record, telemetry batch and failure
event, and ends the lease with one :class:`LeaseResult`.  A pipe
carries both as plain pickled objects.  Records reach the scheduler
only as ``rec`` events, so it can re-lease a failed lease from its last
delivered record and is the only writer of shard checkpoints.
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
]


@dataclass(frozen=True)
class ShardLease:
    """One attempt to execute the run range ``[start, stop)``.

    The range may span several shards; ``shard_index`` is the shard of
    its first run, and ``lease_id`` is ``s<shard_index>.<attempt>``:
    the ``attempt``-th lease whose range starts in that shard.
    ``start`` is the *resume point*, not necessarily a shard's first
    run index: a re-lease after a worker death starts where the dead
    lease's streamed records end.  ``skip`` maps quarantined run
    indices to their ``(due_kind, detail)`` — the executing worker
    records them as synthetic DUEs without running them.
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
    * ``"failure"`` — a worker-side failure event dict in ``payload``.
    """

    kind: str
    lease_id: str
    run: int | None = None
    row: dict[str, Any] | None = None
    payload: Any = None


@dataclass(frozen=True)
class LeaseResult:
    """Terminal outcome of one lease attempt.

    ``status`` is ``"done"`` (range fully executed, every record already
    streamed), ``"error"`` (one run raised an exception that escaped the
    crash net; ``error_run`` attributes it), ``"dead"`` (the executor
    process exited without reporting) or ``"killed"`` (the backend killed
    the executor at its run's deadline or RSS ceiling, after streaming
    that run's DUE record; not a failure, so the scheduler re-queues the
    rest of the range).
    """

    lease_id: str
    status: str
    detail: str = ""
    error_run: int | None = None


class ShardBackend(abc.ABC):
    """Executes shard leases somewhere; the scheduler does not care where."""

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
    def submit(self, lease: ShardLease) -> None:
        """Dispatch a lease to an executor."""

    @abc.abstractmethod
    def heartbeats(self) -> list[BackendEvent]:
        """Drain incremental events (runs, records, telemetry, failures)."""

    @abc.abstractmethod
    def results(self) -> list[LeaseResult]:
        """Drain terminal lease outcomes (done / error / dead / killed)."""

    @abc.abstractmethod
    def cancel(self, lease_id: str) -> None:
        """Abandon a lease, killing its executor if it still runs; a
        cancelled lease emits no further events and no result."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release every executor and transport resource."""

    def __enter__(self) -> "ShardBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
