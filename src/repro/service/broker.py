"""BrokerBackend: a TCP work-queue leasing run ranges to repro-worker agents.

The broker is a plain, synchronous, non-blocking stdlib TCP server
embedded in the scheduler's poll loop — ``heartbeats()`` doubles as the
event pump (accept, read, flush), so no extra thread is needed and the
scheduler stays single-threaded.  Workers connect, announce themselves
(``hello``), and then hold at most one lease each; everything on the
socket is the tagged JSON frame format of :mod:`repro.service.wire`.

Frames the broker **sends**::

    {"kind": "lease", "lease": {...}, "config": {...}, "trace": {...}?}
    {"kind": "shrink", "lease": id, "stop": n}     # work stealing
    {"kind": "cancel", "lease": id}                # abandon politely
    {"kind": "ping", "seq": n}                     # heartbeat RTT probe

Frames the broker **receives** are ``hello`` (``worker``, ``pid``),
``pong`` (``seq``), and the lease protocol of
:mod:`repro.service.backend` — ``run`` / ``rec`` / ``metrics`` /
``spans`` / ``failure`` / ``done`` / ``error`` — each tagged with its
``lease`` id, exactly the frames a local lease worker sends over its
pipe.

Observability: when the scheduler attaches its telemetry bundle
(:meth:`BrokerBackend.attach_telemetry`), lease frames carry the
campaign span's :class:`~repro.telemetry.spans.SpanContext` — workers
continue the trace and stream their spans back as ``spans`` frames —
and the broker registers its fleet-only series (``repro_service_
worker_up``, per-worker heartbeat-RTT histograms, disconnect and
per-worker run counters) on the campaign registry.  These series exist
*only* behind a broker, so a local campaign's registry stays
counter-for-counter identical to its serial twin.  They leave the
process with the rest of the registry, in the metrics file the
campaign's telemetry exports (``repro-inspect service`` reads them).

Fault model: a worker that disconnects (or is reaped) while holding a
lease yields a ``dead`` :class:`~repro.service.backend.LeaseResult`;
the scheduler re-leases the remaining range to any other worker,
resuming after the last streamed record.  Records are keyed by run
index, so none of this can change campaign bytes — a lease executed
one-and-a-half times produces some byte-identical duplicate records
and the scheduler keeps the first of each.
"""

from __future__ import annotations

import selectors
import socket
import time
from typing import TYPE_CHECKING, Any

from repro.service.backend import (
    BackendEvent,
    LeaseResult,
    ShardBackend,
    ShardLease,
    event_from_frame,
    result_from_frame,
)
from repro.service.wire import FrameDecoder, encode_frame
from repro.telemetry.metrics import NULL_REGISTRY, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.carolfi.campaign import CampaignKind
    from repro.telemetry import Telemetry
    from repro.telemetry.spans import SpanContext

__all__ = ["BrokerBackend", "RTT_BUCKETS", "lease_to_wire", "lease_from_wire"]

#: Heartbeat-RTT histogram bounds (seconds): localhost round trips
#: (~100µs) through congested cross-host links (~seconds).
RTT_BUCKETS: tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)

#: Seconds between heartbeat-RTT pings to each connected worker.
_PING_INTERVAL_S = 0.5


def lease_to_wire(lease: ShardLease) -> dict[str, Any]:
    """JSON-safe dict for one lease (inverted by :func:`lease_from_wire`)."""
    return {
        "lease_id": lease.lease_id,
        "shard_index": lease.shard_index,
        "start": lease.start,
        "stop": lease.stop,
        "attempt": lease.attempt,
        "skip": {str(k): [kind, detail] for k, (kind, detail) in lease.skip.items()},
    }


def lease_from_wire(data: dict[str, Any]) -> ShardLease:
    return ShardLease(
        lease_id=str(data["lease_id"]),
        shard_index=int(data["shard_index"]),
        start=int(data["start"]),
        stop=int(data["stop"]),
        attempt=int(data["attempt"]),
        skip={
            int(k): (str(v[0]), str(v[1])) for k, v in dict(data.get("skip") or {}).items()
        },
    )


class _Agent:
    """One connected worker: socket, frame decoder, outbox, lease."""

    __slots__ = (
        "sock",
        "decoder",
        "name",
        "lease_id",
        "outbox",
        "closed",
        "addr",
        "pid",
        "ping_seq",
        "ping_sent",
    )

    def __init__(self, sock: socket.socket, addr: str = "?"):
        self.sock = sock
        self.decoder = FrameDecoder()
        self.name: str | None = None  # set by hello
        self.lease_id: str | None = None
        self.outbox = bytearray()
        self.closed = False
        self.addr = addr  # peer address, for disruption attribution
        self.pid: int | None = None  # set by hello
        self.ping_seq = 0
        self.ping_sent: float | None = None  # monotonic send time of open ping


class BrokerBackend(ShardBackend):
    """Lease run ranges to remote ``repro-worker`` agents over TCP."""

    supports_steal = True
    remote = True

    def __init__(
        self,
        config: "CampaignKind[Any]",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self._config_wire = config.to_wire()
        self._selector = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self._listener.setblocking(False)
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._agents: list[_Agent] = []
        self._leases: dict[str, _Agent] = {}
        self._events: list[BackendEvent] = []
        self._results: list[LeaseResult] = []
        self._seq = 0
        # Fleet telemetry: null until the scheduler attaches its bundle.
        self._registry: MetricsRegistry | None = None
        self._trace_context: "SpanContext | None" = None
        self._worker_up = NULL_REGISTRY.gauge("repro_service_worker_up")
        self._rtt_hist = NULL_REGISTRY.histogram("repro_service_heartbeat_rtt_seconds")
        self._worker_runs = NULL_REGISTRY.counter("repro_service_worker_runs_total")
        self._disconnects = NULL_REGISTRY.counter("repro_service_disconnects_total")
        self._last_ping = 0.0

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` workers should connect to."""
        host, port = self._listener.getsockname()[:2]
        return str(host), int(port)

    def attach_telemetry(self, telemetry: "Telemetry") -> None:
        """Adopt the campaign's registry and span context (scheduler hook).

        The fleet-only series registered here exist exclusively behind a
        broker: local campaigns never reach this code, so their registry
        stays identical to a serial run's (the equality invariant).
        """
        if telemetry.registry.enabled:
            reg = telemetry.registry
            self._registry = reg
            self._worker_up = reg.gauge(
                "repro_service_worker_up",
                help="1 while the named worker is connected to the broker.",
            )
            self._rtt_hist = reg.histogram(
                "repro_service_heartbeat_rtt_seconds",
                help="Broker<->worker heartbeat round-trip time, by worker.",
                buckets=RTT_BUCKETS,
            )
            self._worker_runs = reg.counter(
                "repro_service_worker_runs_total",
                help="Records streamed through the broker, by worker and outcome.",
            )
            self._disconnects = reg.counter(
                "repro_service_disconnects_total",
                help="Unexpected worker disconnects observed by the broker.",
            )
            # Workers routinely say hello before the campaign attaches
            # its telemetry (wait_for_workers runs first): backfill the
            # membership gauge so they are not invisible until they
            # reconnect.
            for agent in self._agents:
                if agent.name is not None and not agent.closed:
                    self._worker_up.set(1, worker=agent.name)
        self._trace_context = (
            telemetry.tracer.current_context() if telemetry.tracing else None
        )

    # -- scheduler-facing protocol -------------------------------------------

    def capacity(self) -> int:
        self._pump()
        return sum(
            1
            for a in self._agents
            if a.name is not None and a.lease_id is None and not a.closed
        )

    def submit(self, lease: ShardLease) -> str:
        self._pump()
        idle = [
            a
            for a in self._agents
            if a.name is not None and a.lease_id is None and not a.closed
        ]
        if not idle:
            raise RuntimeError("broker has no idle worker (capacity() said otherwise?)")
        # Deterministic choice given the same membership: by name.
        agent = min(idle, key=lambda a: a.name or "")
        agent.lease_id = lease.lease_id
        self._leases[lease.lease_id] = agent
        frame = {"kind": "lease", "lease": lease_to_wire(lease), "config": self._config_wire}
        if self._trace_context is not None:
            # The worker opens its lease/run spans as children of the
            # campaign span, so the merged trace.jsonl is one tree.
            frame["trace"] = self._trace_context.to_wire()
        self._send(agent, frame)
        return agent.name or "worker"

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> bool:
        """Pump until ``count`` workers have said hello, or ``timeout``.

        Campaign kick-off helper: leases dispatched before every worker
        has connected all land on the early arrivals, which makes any
        orchestration that expects a particular worker to hold a lease
        (chaos drills, the broker acceptance tests) a scheduling race.
        Only the socket pump runs here — queued events stay queued for
        the next :meth:`heartbeats` call.
        """
        deadline = time.monotonic() + timeout
        while True:
            self._pump()
            connected = sum(
                1 for a in self._agents if a.name is not None and not a.closed
            )
            if connected >= count:
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.02)

    def heartbeats(self) -> list[BackendEvent]:
        self._pump()
        out = self._events
        self._events = []
        return out

    def results(self) -> list[LeaseResult]:
        # No pump here: a lease's terminal frame must not be judged
        # before the records and spans that preceded it on the socket,
        # and those are drained by the heartbeats() call before this.
        out = self._results
        self._results = []
        return out

    def cancel(self, lease_id: str, *, reap: bool = False) -> None:
        agent = self._leases.pop(lease_id, None)
        if agent is None:
            return
        agent.lease_id = None
        if reap:
            # Presumed hung: a cancel frame would sit unread forever.
            self._drop(agent, announce=True, detail="reaped by scheduler")
        else:
            self._send(agent, {"kind": "cancel", "lease": lease_id})

    def shrink(self, lease_id: str, new_stop: int) -> bool:
        agent = self._leases.get(lease_id)
        if agent is None or agent.closed:
            return False
        self._send(agent, {"kind": "shrink", "lease": lease_id, "stop": new_stop})
        return True

    def close(self) -> None:
        for agent in list(self._agents):
            self._drop(agent, announce=False)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):  # pragma: no cover
            pass
        self._listener.close()
        self._selector.close()

    # -- socket plumbing ------------------------------------------------------

    def _send(self, agent: _Agent, frame: dict[str, Any]) -> None:
        if agent.closed:
            return
        agent.outbox.extend(encode_frame(frame))
        self._flush(agent)

    def _flush(self, agent: _Agent) -> None:
        while agent.outbox and not agent.closed:
            try:
                sent = agent.sock.send(agent.outbox)
            except (BlockingIOError, InterruptedError):
                return  # try again next pump
            except OSError:
                self._drop(agent, announce=True, detail="send failed")
                return
            del agent.outbox[:sent]

    def _pump(self) -> None:
        """One non-blocking pass: accept, read, flush, ping, judge."""
        while True:
            ready = self._selector.select(timeout=0)
            if not ready:
                break
            for key, _mask in ready:
                if key.fileobj is self._listener:
                    self._accept()
                else:
                    self._read(key.data)
        for agent in self._agents:
            self._flush(agent)
        if self._registry is not None:
            self._ping_cycle()

    def _ping_cycle(self) -> None:
        """Probe each connected worker's heartbeat RTT.

        One outstanding ping per worker at a time; a lost pong (worker
        died) is simply superseded by the next probe.  Runs only when a
        registry is attached — without one there is nowhere to record
        the observation and no reason to put frames on the wire.
        """
        now = time.monotonic()
        if now - self._last_ping < _PING_INTERVAL_S:
            return
        self._last_ping = now
        for agent in self._agents:
            if agent.name is None or agent.closed:
                continue
            if agent.ping_sent is None:
                agent.ping_seq += 1
                agent.ping_sent = now
                self._send(agent, {"kind": "ping", "seq": agent.ping_seq})

    def _accept(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # pragma: no cover — listener closing
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            agent = _Agent(sock, addr=f"{addr[0]}:{addr[1]}")
            self._agents.append(agent)
            self._selector.register(sock, selectors.EVENT_READ, agent)

    def _read(self, agent: _Agent) -> None:
        while not agent.closed:
            try:
                data = agent.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._drop(agent, announce=True, detail="connection error")
                return
            if not data:
                self._drop(agent, announce=True, detail="connection closed")
                return
            for frame in agent.decoder.feed(data):
                self._dispatch(agent, frame)

    def _dispatch(self, agent: _Agent, frame: dict[str, Any]) -> None:
        kind = frame.get("kind")
        if kind == "hello":
            self._seq += 1
            base = str(frame.get("worker") or f"worker-{self._seq}")
            names = {a.name for a in self._agents if a is not agent}
            name = base if base not in names else f"{base}#{self._seq}"
            agent.name = name
            if frame.get("pid") is not None:
                agent.pid = int(frame["pid"])
            self._worker_up.set(1, worker=name)
            self._events.append(
                BackendEvent(
                    "worker",
                    payload={
                        "event": "worker_connected",
                        "worker": name,
                        "addr": agent.addr,
                        "pid": agent.pid,
                    },
                )
            )
            return
        if kind == "pong":
            if agent.ping_sent is not None and int(frame.get("seq", -1)) == agent.ping_seq:
                self._rtt_hist.observe(
                    time.monotonic() - agent.ping_sent, worker=agent.name or "worker"
                )
                agent.ping_sent = None
            return
        lease_id = frame.get("lease")
        worker = agent.name or "worker"
        active = lease_id is not None and self._leases.get(lease_id) is agent
        if kind in ("done", "error"):
            if active:
                self._leases.pop(lease_id, None)
                agent.lease_id = None
                self._results.append(result_from_frame(lease_id, frame, worker))
            return
        if not active and kind not in ("metrics", "spans"):
            return  # a stale lease's frame (cancelled, already judged)
        if kind == "rec":
            outcome = str(frame["row"].get("outcome", "?"))
            self._worker_runs.inc(worker=worker, outcome=outcome)
        event = event_from_frame(lease_id, frame)
        if event is not None:
            self._events.append(event)

    def _drop(self, agent: _Agent, announce: bool, detail: str = "") -> None:
        if agent.closed:
            return
        agent.closed = True
        try:
            self._selector.unregister(agent.sock)
        except (KeyError, ValueError):  # pragma: no cover
            pass
        try:
            agent.sock.close()
        except OSError:  # pragma: no cover
            pass
        if agent in self._agents:
            self._agents.remove(agent)
        name = agent.name or "worker"
        if agent.lease_id is not None:
            lease_id = agent.lease_id
            agent.lease_id = None
            self._leases.pop(lease_id, None)
            self._results.append(
                LeaseResult(
                    lease_id,
                    "dead",
                    detail=f"worker {name} lost ({detail})" if detail else f"worker {name} lost",
                    worker=name,
                )
            )
        if announce and agent.name is not None:
            self._worker_up.set(0, worker=name)
            self._disconnects.inc(worker=name)
            self._events.append(
                BackendEvent(
                    "worker",
                    payload={
                        "event": "worker_lost",
                        "worker": name,
                        "addr": agent.addr,
                        "pid": agent.pid,
                        "detail": detail,
                    },
                )
            )

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        host, port = self.address
        return f"BrokerBackend({host}:{port}, agents={len(self._agents)})"
