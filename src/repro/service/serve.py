"""repro-serve: an HTTP front door for injection campaigns.

Clients POST a campaign config — either the artifact's INI format
(Appendix A.4) or the JSON wire form of
:meth:`~repro.carolfi.campaign.CampaignConfig.to_wire` — and get back a
job id.  Jobs run one at a time in a background thread (campaign
determinism makes queueing trivial: nothing about a result depends on
*when* it ran), each in its own directory with the engine's full
artifact set: ``campaign.jsonl``, ``failures.jsonl``, per-shard
checkpoints, and a final metrics snapshot.

Progress is assembled from the live telemetry registry (merged worker
counters) plus the engine's heartbeat callback, so ``GET
/campaigns/<id>`` reports done/total runs, rate and outcome mix while
the campaign is still running, and ``/stream`` pushes those snapshots
as JSON lines until the job ends.

The HTTP layer is a small stdlib ``asyncio`` server (no framework, no
dependency): request framing is strict (content-length required for
bodies), responses are JSON except the artifact downloads, and every
connection closes after one exchange.

Routes::

    POST /campaigns                  INI or JSON config -> {"id": ...}
    GET  /campaigns                  job list
    GET  /campaigns/<id>             status + progress + outcome counters
    GET  /campaigns/<id>/stream      JSONL progress until terminal
    GET  /campaigns/<id>/log         merged campaign.jsonl (when done)
    GET  /campaigns/<id>/failures    failure-event JSONL
    GET  /campaigns/<id>/metrics     registry snapshot (live)
    GET  /metrics                    Prometheus scrape: all jobs merged

``/metrics`` is the fleet scrape endpoint: every job's live registry —
for a broker-backed job that includes the continuously merged worker
deltas and the broker's fleet series — folded into one exposition-text
page, each sample labelled with its ``job`` id.

With ``--broker-port`` each campaign executes through a
:class:`~repro.service.broker.BrokerBackend` bound to that port and
remote ``repro-worker`` agents do the work; otherwise the local
fault-domain pool runs it in-process.  ``--broker-metrics-port``
additionally exposes the broker's own ``/metrics`` scrape endpoint.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import queue
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.carolfi.campaign import CampaignConfig
from repro.carolfi.configfile import parse_config_text
from repro.telemetry import Telemetry, TelemetryConfig
from repro.telemetry.exporters import prometheus_text, snapshot_record, write_metrics_file
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["CampaignService", "main"]


@dataclass
class CampaignJob:
    """One submitted campaign and everything known about it."""

    job_id: str
    config: CampaignConfig
    workers: int
    job_dir: Path
    status: str = "queued"  # queued | running | done | failed
    error: str = ""
    records: int = 0
    stopped_early: bool = False
    progress: dict[str, Any] = field(default_factory=dict)
    telemetry: Telemetry | None = None

    @property
    def terminal(self) -> bool:
        return self.status in ("done", "failed")

    def summary(self) -> dict[str, Any]:
        out = {
            "id": self.job_id,
            "status": self.status,
            "benchmark": self.config.benchmark,
            "injections": self.config.injections,
            "seed": self.config.seed,
            "workers": self.workers,
            "records": self.records,
            "stopped_early": self.stopped_early,
            "progress": self.progress,
        }
        if self.error:
            out["error"] = self.error
        tel = self.telemetry
        if tel is not None and tel.registry.enabled:
            try:
                counters = tel.registry.counter_values()
            except RuntimeError:  # pragma: no cover — racing a writer
                counters = {}
            out["outcomes"] = counters.get("repro_records_total", {}) or counters.get(
                "repro_runs_total", {}
            )
        return out


class CampaignService:
    """The job store, the runner thread, and the HTTP server."""

    def __init__(
        self,
        data_dir: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        broker_host: str = "127.0.0.1",
        broker_port: int | None = None,
        broker_metrics_port: int | None = None,
    ):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.host = host
        self.port = port  # rewritten with the bound port after start()
        self.default_workers = workers
        self.broker_host = broker_host
        self.broker_port = broker_port
        self.broker_metrics_port = broker_metrics_port
        self.jobs: dict[str, CampaignJob] = {}
        self._order: list[str] = []
        self._lock = threading.Lock()
        self._queue: "queue.Queue[str | None]" = queue.Queue()
        self._runner: threading.Thread | None = None
        self._http: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = threading.Event()
        self._seq = 0

    # -- job lifecycle --------------------------------------------------------

    def submit(self, config: CampaignConfig, workers: int | None = None) -> CampaignJob:
        with self._lock:
            self._seq += 1
            job_id = f"job-{self._seq:04d}"
            job = CampaignJob(
                job_id=job_id,
                config=config,
                workers=workers or self.default_workers,
                job_dir=self.data_dir / job_id,
            )
            self.jobs[job_id] = job
            self._order.append(job_id)
        job.job_dir.mkdir(parents=True, exist_ok=True)
        self._queue.put(job_id)
        return job

    def _run_jobs(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            self._run_one(self.jobs[job_id])

    def _run_one(self, job: CampaignJob) -> None:
        from repro.carolfi.engine import run_sharded_campaign

        tel = Telemetry(TelemetryConfig())
        job.telemetry = tel
        job.status = "running"

        def on_progress(p: Any) -> None:
            job.progress = {
                "event": p.event,
                "shard": p.shard_index,
                "shards": p.shard_count,
                "done_runs": p.done_runs,
                "total_runs": p.total_runs,
                "elapsed_s": round(p.elapsed_s, 3),
                "rate": round(p.rate, 3),
            }

        backend = None
        try:
            if self.broker_port is not None:
                from repro.service.broker import BrokerBackend

                backend = BrokerBackend(
                    job.config,
                    host=self.broker_host,
                    port=self.broker_port,
                    metrics_port=self.broker_metrics_port,
                )
            result = run_sharded_campaign(
                job.config,
                workers=job.workers,
                checkpoint_dir=job.job_dir / "checkpoints",
                log_path=job.job_dir / "campaign.jsonl",
                failure_log=job.job_dir / "failures.jsonl",
                telemetry=tel,
                progress=on_progress,
                backend=backend,
            )
            job.records = len(result.records)
            job.stopped_early = result.stopped_early
            write_metrics_file(tel.registry, job.job_dir / "metrics.json")
            job.status = "done"
        except Exception as exc:  # noqa: BLE001 — job failure is a result
            job.error = f"{type(exc).__name__}: {exc}"
            job.status = "failed"
        finally:
            if backend is not None:
                backend.close()

    def _fleet_registry(self) -> MetricsRegistry:
        """Every job's live registry merged into one, samples labelled ``job``.

        The ``job`` label keeps jobs' series apart (merging would
        otherwise add their counters together) and lets one scrape
        follow a whole fleet of campaigns.  Snapshots race the runner
        thread's writes; a registry that grew a series mid-iteration
        raises ``RuntimeError`` and that job is retried, then skipped
        for this scrape.
        """
        merged = MetricsRegistry()
        with self._lock:
            jobs = [(job_id, self.jobs[job_id].telemetry) for job_id in self._order]
        for job_id, tel in jobs:
            if tel is None or not tel.registry.enabled:
                continue
            snap: dict[str, Any] | None = None
            for _attempt in range(3):
                try:
                    snap = tel.registry.snapshot()
                    break
                except RuntimeError:  # pragma: no cover — racing a writer
                    continue
            if snap is None:  # pragma: no cover — persistent race
                continue
            for wire in snap.values():
                for pair in wire.get("values", []):
                    pair[0] = list(pair[0]) + [["job", job_id]]
            merged.merge(snap)
        return merged

    # -- HTTP ----------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, path, body = await self._read_request(reader)
        except (asyncio.IncompleteReadError, ValueError, ConnectionError):
            writer.close()
            return
        try:
            await self._route(method, path, body, writer)
        except ConnectionError:  # pragma: no cover — client went away
            pass
        except Exception as exc:  # noqa: BLE001 — one bad request, not the server
            try:
                await self._respond_json(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except ConnectionError:  # pragma: no cover
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # client gone or server stopping: nothing left to say

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            raise ValueError(f"bad request line: {request_line!r}")
        method, target = parts[0].upper(), parts[1]
        length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = await reader.readexactly(length) if length else b""
        return method, target, body

    async def _route(
        self, method: str, path: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if method == "POST" and path == "/campaigns":
            await self._post_campaign(body, writer)
            return
        if method != "GET":
            await self._respond_json(writer, 405, {"error": "method not allowed"})
            return
        if path == "/metrics":
            body = prometheus_text(self._fleet_registry()).encode("utf-8")
            writer.write(
                f"HTTP/1.1 200 OK\r\n"
                f"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n".encode("latin-1")
                + body
            )
            await writer.drain()
            return
        if path == "/campaigns":
            with self._lock:
                jobs = [self.jobs[j].summary() for j in self._order]
            await self._respond_json(writer, 200, {"campaigns": jobs})
            return
        if path.startswith("/campaigns/"):
            rest = path[len("/campaigns/") :]
            job_id, _, artifact = rest.partition("/")
            job = self.jobs.get(job_id)
            if job is None:
                await self._respond_json(writer, 404, {"error": f"no job {job_id}"})
                return
            if not artifact:
                await self._respond_json(writer, 200, job.summary())
            elif artifact == "stream":
                await self._stream_progress(job, writer)
            elif artifact == "log":
                await self._respond_file(
                    writer, job.job_dir / "campaign.jsonl", ready=job.status == "done"
                )
            elif artifact == "failures":
                await self._respond_file(
                    writer, job.job_dir / "failures.jsonl", ready=True, default=b""
                )
            elif artifact == "metrics":
                tel = job.telemetry
                snap = (
                    snapshot_record(tel.registry)
                    if tel is not None and tel.registry.enabled
                    else {}
                )
                await self._respond_json(writer, 200, snap)
            else:
                await self._respond_json(writer, 404, {"error": f"no artifact {artifact}"})
            return
        await self._respond_json(writer, 404, {"error": f"no route {path}"})

    async def _post_campaign(self, body: bytes, writer: asyncio.StreamWriter) -> None:
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError:
            await self._respond_json(writer, 400, {"error": "body must be UTF-8"})
            return
        workers: int | None = None
        try:
            if text.lstrip().startswith("{"):
                payload = json.loads(text)
                if not isinstance(payload, dict):
                    raise ValueError("JSON body must be an object")
                if "config" in payload:
                    if payload.get("workers") is not None:
                        workers = int(payload["workers"])
                    config = CampaignConfig.from_wire(dict(payload["config"]))
                else:
                    config = CampaignConfig.from_wire(payload)
            else:
                config, _log = parse_config_text(text)
        except (ValueError, KeyError, TypeError) as exc:
            await self._respond_json(writer, 400, {"error": str(exc)})
            return
        job = self.submit(config, workers=workers)
        await self._respond_json(
            writer,
            202,
            {
                "id": job.job_id,
                "status": job.status,
                "links": {
                    "self": f"/campaigns/{job.job_id}",
                    "stream": f"/campaigns/{job.job_id}/stream",
                    "log": f"/campaigns/{job.job_id}/log",
                    "failures": f"/campaigns/{job.job_id}/failures",
                    "metrics": f"/campaigns/{job.job_id}/metrics",
                },
            },
        )

    async def _stream_progress(
        self, job: CampaignJob, writer: asyncio.StreamWriter
    ) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/jsonl\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        last: Any = None
        while True:
            snapshot = job.summary()
            if snapshot != last:
                writer.write(json.dumps(snapshot, sort_keys=True).encode() + b"\n")
                await writer.drain()
                last = snapshot
            if job.terminal:
                return
            await asyncio.sleep(0.1)

    async def _respond_json(
        self, writer: asyncio.StreamWriter, status: int, payload: dict[str, Any]
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 409: "Conflict", 500: "Internal Server Error"}
        writer.write(
            f"HTTP/1.1 {status} {reason.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode("latin-1")
            + body
        )
        await writer.drain()

    async def _respond_file(
        self,
        writer: asyncio.StreamWriter,
        path: Path,
        *,
        ready: bool,
        default: bytes | None = None,
    ) -> None:
        if not ready or not path.exists():
            if default is not None and ready:
                data = default
            else:
                await self._respond_json(
                    writer, 409 if not ready else 404, {"error": "artifact not ready"}
                )
                return
        else:
            data = path.read_bytes()
        writer.write(
            f"HTTP/1.1 200 OK\r\n"
            f"Content-Type: application/jsonl\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: close\r\n\r\n".encode("latin-1")
            + data
        )
        await writer.drain()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "CampaignService":
        """Start the runner thread and the HTTP server (background)."""
        self._runner = threading.Thread(
            target=self._run_jobs, name="repro-serve-jobs", daemon=True
        )
        self._runner.start()
        self._http = threading.Thread(
            target=self._serve_http, name="repro-serve-http", daemon=True
        )
        self._http.start()
        if not self._started.wait(timeout=10):
            raise RuntimeError("repro-serve HTTP server failed to start")
        return self

    def _serve_http(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def _main() -> None:
            server = await asyncio.start_server(self._handle, self.host, self.port)
            self.port = server.sockets[0].getsockname()[1]
            self._started.set()
            async with server:
                await server.serve_forever()

        try:
            loop.run_until_complete(_main())
        except asyncio.CancelledError:  # pragma: no cover — normal stop
            pass
        finally:
            loop.close()

    def stop(self) -> None:
        self._queue.put(None)
        loop = self._loop
        if loop is not None and loop.is_running():
            for task in asyncio.all_tasks(loop):
                loop.call_soon_threadsafe(task.cancel)
        if self._http is not None:
            self._http.join(timeout=10)
        if self._runner is not None:
            self._runner.join(timeout=60)

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="HTTP submission API for injection campaigns.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8757)
    parser.add_argument(
        "--data", default="repro-serve-data", help="artifact directory (one subdir per job)"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="local worker processes per campaign"
    )
    parser.add_argument(
        "--broker-port",
        type=int,
        default=None,
        help="lease shards to repro-worker agents on this TCP port "
        "instead of running them locally",
    )
    parser.add_argument(
        "--broker-metrics-port",
        type=int,
        default=None,
        help="also expose the broker's own /metrics scrape endpoint "
        "on this TCP port (requires --broker-port)",
    )
    args = parser.parse_args(argv)
    if args.broker_metrics_port is not None and args.broker_port is None:
        parser.error("--broker-metrics-port requires --broker-port")
    service = CampaignService(
        args.data,
        host=args.host,
        port=args.port,
        workers=args.workers,
        broker_port=args.broker_port,
        broker_metrics_port=args.broker_metrics_port,
    )
    service.start()
    print(f"repro-serve listening on http://{args.host}:{service.port}", flush=True)
    if service.broker_port is not None:
        print(f"leasing shards to workers on port {service.broker_port}", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        service.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
