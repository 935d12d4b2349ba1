"""repro-worker: a remote lease executor for the campaign broker.

One worker process connects to a :class:`repro.service.broker.
BrokerBackend`, announces itself, and then executes the leases the
broker sends, one at a time.  Each lease runs through the engine's one
lease body, :func:`repro.service.local._run_lease` — the code a local
lease worker runs — so the whole lease range gets ``BatchRunner``
batching and every record is produced byte-for-byte as in a local
campaign; each record streams back as a ``rec`` frame the moment it
exists.  This module only adds the socket: frames are tagged with the
lease id, and the lease body's run-boundary ``stop`` hook polls for
control frames, so a ``shrink`` (work stealing) or ``cancel`` takes
effect before the next run and a ``ping`` (the broker's heartbeat-RTT
probe) is answered there.  A worker is therefore silent while its
lease's batch groups run, as a local lease worker is.  Leases run in
this process (no sandbox), and the wire carries no checkpoint path or
fingerprint: the broker's scheduler writes the checkpoints.

Observability: when the lease frame carries a span context, the worker
continues the broker's campaign trace — a ``lease`` span around the
lease body's ``shard`` span and its ``run`` spans — and streams
finished spans back as ``spans`` frames, with the metric delta, after
every record and once more *before* the terminal ``done``/``error``
frame, so they arrive while the scheduler is still draining events for
this lease.  None of this touches record production: spans and metrics
never draw from the campaign's RNG streams, and a campaign without
tracing sends no span frames at all, so ``campaign.jsonl`` stays
byte-identical to serial either way.

Failure injection for tests (and chaos drills):

* ``REPRO_WORKER_DIE_AFTER=N`` — the process exits abruptly (no
  goodbye, no flush) after streaming its N-th record, simulating a
  worker host dying mid-lease;
* ``REPRO_WORKER_SLOW_S=x`` — sleep ``x`` seconds before streaming
  each record (batched runs send no ``run`` frame, so the record is
  the one per-run point), turning this worker into the straggler a
  steal rescues.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import time
from typing import Any, Sequence

from repro.carolfi.campaign import CampaignConfig
from repro.service.broker import lease_from_wire
from repro.service.local import _run_lease
from repro.service.wire import FrameDecoder, encode_frame
from repro.telemetry import ShardTelemetry, WorkerTelemetry
from repro.telemetry.spans import SpanContext

__all__ = ["main", "run_worker"]


class _SessionClosed(Exception):
    """The broker connection ended (EOF, reset, or broker shutdown)."""


class _Link:
    """Blocking socket + frame decoder + a queue of undelivered frames."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.decoder = FrameDecoder()
        self.queue: list[dict[str, Any]] = []

    def send(self, frame: dict[str, Any]) -> None:
        try:
            self.sock.sendall(encode_frame(frame))
        except OSError as exc:
            raise _SessionClosed(str(exc)) from exc

    def poll(self, timeout: float) -> list[dict[str, Any]]:
        """Frames available within ``timeout`` seconds (possibly none)."""
        if self.queue:
            out, self.queue = self.queue, []
            return out
        self.sock.settimeout(timeout if timeout > 0 else 0.000001)
        try:
            data = self.sock.recv(1 << 16)
        except (TimeoutError, socket.timeout):
            return []
        except OSError as exc:
            raise _SessionClosed(str(exc)) from exc
        if not data:
            raise _SessionClosed("connection closed by broker")
        return self.decoder.feed(data)

    def wait(self, timeout: float) -> dict[str, Any] | None:
        """The next frame, or ``None`` after ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        while True:
            frames = self.poll(min(1.0, max(0.001, deadline - time.monotonic())))
            if frames:
                first, rest = frames[0], frames[1:]
                self.queue.extend(rest)
                return first
            if time.monotonic() >= deadline:
                return None


def _execute_lease(
    link: _Link,
    frame: dict[str, Any],
    state: dict[str, int],
    worker_name: str = "worker",
) -> None:
    """Run one lease through the lease body; returns when the lease ends."""
    lease = lease_from_wire(frame["lease"])
    config = CampaignConfig.from_wire(frame["config"])
    lease_id = lease.lease_id
    end = lease.stop
    cancelled = False
    die_after = int(os.environ.get("REPRO_WORKER_DIE_AFTER", "0") or 0)
    slow_s = float(os.environ.get("REPRO_WORKER_SLOW_S", "0") or 0)
    # Continue the broker's campaign trace when the lease carries its
    # span context: our spans become children of the campaign span, and
    # the merged trace.jsonl is one tree across hosts.
    trace = frame.get("trace")
    tel = WorkerTelemetry(
        ShardTelemetry(
            metrics=True,
            trace=trace is not None,
            context=None if trace is None else SpanContext.from_wire(trace),
        )
    )

    def flush_telemetry() -> None:
        delta, spans = tel.drain()
        if delta:
            link.send({"kind": "metrics", "lease": lease_id, "delta": delta})
        if spans:
            link.send({"kind": "spans", "lease": lease_id, "batch": spans})

    def send(out: dict[str, Any]) -> None:
        if out["kind"] == "rec" and slow_s > 0:
            time.sleep(slow_s)
        link.send({**out, "lease": lease_id})
        if out["kind"] == "rec":
            flush_telemetry()
            state["records"] += 1
            if die_after and state["records"] >= die_after:
                # Chaos hook: vanish mid-lease with no goodbye — exactly
                # what a dying worker host looks like to the broker.
                os._exit(7)

    def stop() -> int:
        # Control frames act at run boundaries: shrink narrows the range
        # (steal), cancel empties it, ping is answered in place.  Frames
        # after a cancel belong to the next lease and stay queued.
        nonlocal end, cancelled
        frames = link.poll(0)
        while frames and not cancelled:
            control = frames.pop(0)
            kind = control.get("kind")
            if kind == "ping":
                link.send({"kind": "pong", "seq": control.get("seq")})
            elif kind == "shrink" and control.get("lease") == lease_id:
                end = min(end, int(control["stop"]))
            elif kind == "cancel" and control.get("lease") == lease_id:
                cancelled = True
        link.queue[:0] = frames
        return lease.start if cancelled else end

    with tel.activate(), tel.tracer.span(
        "lease",
        lease=lease_id,
        shard=lease.shard_index,
        start=lease.start,
        stop=lease.stop,
        attempt=lease.attempt,
        worker=worker_name,
    ) as lease_span:
        terminal = _run_lease(config, lease, None, send, stop=stop)
        outcome = "cancelled" if cancelled else terminal["kind"]
        if outcome != "done":
            lease_span.set_attr("outcome", outcome)
    # The lease span is finished now; ship it (and any stragglers)
    # before the terminal frame so the scheduler still drains it.
    flush_telemetry()
    if not cancelled:  # a cancelled lease ends silently: already dropped
        link.send({**terminal, "lease": lease_id})


def run_worker(
    host: str,
    port: int,
    *,
    name: str | None = None,
    once: bool = False,
    reconnect_delay: float = 0.5,
) -> int:
    """Serve leases from the broker at ``host:port``.

    With ``once`` the worker exits when its session ends (broker gone
    or unreachable); otherwise it reconnects forever — the behaviour a
    long-lived worker host wants.
    """
    from repro.carolfi import shmstore

    worker_name = name or f"{socket.gethostname()}/pid{os.getpid()}"
    state = {"records": 0}
    try:
        while True:
            try:
                sock = socket.create_connection((host, port), timeout=10)
            except OSError:
                if once:
                    return 1
                time.sleep(reconnect_delay)
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            link = _Link(sock)
            try:
                link.send({"kind": "hello", "worker": worker_name, "pid": os.getpid()})
                while True:
                    frame = link.wait(timeout=3600.0)
                    if frame is None:
                        continue
                    kind = frame.get("kind")
                    if kind == "ping":
                        link.send({"kind": "pong", "seq": frame.get("seq")})
                    elif kind == "lease":
                        _execute_lease(link, frame, state, worker_name)
            except _SessionClosed:
                pass
            finally:
                try:
                    sock.close()
                except OSError:  # pragma: no cover
                    pass
            if once:
                return 0
            time.sleep(reconnect_delay)
    finally:
        # Unlink any shared-memory snapshot segments this agent
        # published (first agent on a host publishes; later ones
        # attach).  Best effort — an abrupt death leaves the atexit
        # hook, and the engine-side teardown, as backstops.
        shmstore.release_published()


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Execute campaign shard leases from a repro broker.",
    )
    parser.add_argument("broker", help="broker address as host:port")
    parser.add_argument("--name", default=None, help="worker name (default host/pid)")
    parser.add_argument(
        "--once",
        action="store_true",
        help="exit when the broker goes away instead of reconnecting",
    )
    args = parser.parse_args(argv)
    host, _, port_text = args.broker.rpartition(":")
    if not host or not port_text.isdigit():
        parser.error(f"broker must be host:port, got {args.broker!r}")
    return run_worker(host, int(port_text), name=args.name, once=args.once)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
