"""``repro-inspect service``: lease table and disruption log rendering."""

import io
import json

from repro.telemetry.inspect import main

EVENTS = [
    {"event": "worker_connected", "worker": "w0"},
    {"event": "worker_connected", "worker": "w1"},
    {"event": "lease", "shard": 0, "lease": "s00000.1", "worker": "w0",
     "start": 0, "stop": 8, "attempt": 1, "resume_from": None},
    {"event": "lease", "shard": 1, "lease": "s00001.1", "worker": "w1",
     "start": 8, "stop": 16, "attempt": 1, "resume_from": None},
    {"event": "steal", "shard": 1, "victim": "s00001.1", "victim_worker": "w1",
     "split": 13, "stop": 16},
    {"event": "lease", "shard": 1, "lease": "s00001.2", "worker": "w0",
     "start": 13, "stop": 16, "attempt": 2, "resume_from": 13},
    {"event": "worker_death", "shard": 0, "run": 3, "attempt": 1, "deaths": 1,
     "detail": "exit code 7", "lease": "s00000.1", "worker": "w0"},
    {"event": "retry", "shard": 0, "attempt": 1, "delay_s": 0.01,
     "detail": "exit code 7"},
    {"event": "re_lease", "shard": 0, "lease": "s00000.1", "resume_from": 3,
     "stop": 8, "detail": "exit code 7"},
    {"event": "worker_lost", "worker": "w0", "detail": "connection dropped"},
    {"event": "lease", "shard": 0, "lease": "s00000.2", "worker": "w1",
     "start": 3, "stop": 8, "attempt": 2, "resume_from": 3},
    {"event": "quarantine", "shard": 0, "run": 5,
     "detail": "sandbox: quarantined after 2 worker deaths", "lease": "s00000.2"},
    {"event": "lease_done", "shard": 1, "lease": "s00001.1", "worker": "w1",
     "runs": 5},
    {"event": "lease_done", "shard": 1, "lease": "s00001.2", "worker": "w0",
     "runs": 3},
    {"event": "lease_done", "shard": 0, "lease": "s00000.2", "worker": "w1",
     "runs": 5},
]


def _write_log(tmp_path):
    log = tmp_path / "failures.jsonl"
    log.write_text("".join(json.dumps(e) + "\n" for e in EVENTS))
    return log


def test_service_view_renders_leases_workers_and_disruptions(tmp_path):
    log = _write_log(tmp_path)
    out = io.StringIO()
    assert main(["service", str(log)], stream=out) == 0
    text = out.getvalue()

    # Lease table: every lease appears, with its fate.
    assert "s00000.1" in text and "s00001.2" in text
    assert "stolen@13, done" in text  # the victim finished its shrunk half
    assert "re-leased@3" in text  # the dead worker's lease
    # Worker summary: both workers, w0 carries the death and the drop.
    assert "w0" in text and "w1" in text
    # Disruption log includes the steal, the death and the quarantine.
    assert "steal" in text
    assert "worker_death" in text
    assert "quarantine" in text
    assert "run 5 quarantined" in text


def test_service_view_lists_run_errors(tmp_path):
    log = tmp_path / "failures.jsonl"
    run_error = {
        "event": "run_error",
        "shard": 1,
        "run": 9,
        "attempt": 1,
        "deaths": 1,
        "detail": "ShardRunError: run 9 (shard 1) raised OSError: boom",
        "lease": "s00001.1",
        "worker": "w1",
    }
    log.write_text("".join(json.dumps(e) + "\n" for e in EVENTS + [run_error]))
    out = io.StringIO()
    assert main(["service", str(log)], stream=out) == 0
    text = out.getvalue()
    assert "run_error" in text
    assert "w1 raised at run 9: ShardRunError" in text


def test_service_view_accepts_campaign_directory(tmp_path):
    _write_log(tmp_path)
    out = io.StringIO()
    assert main(["service", str(tmp_path)], stream=out) == 0
    assert "lease table" in out.getvalue()


def test_service_view_rejects_non_distributed_log(tmp_path):
    log = tmp_path / "failures.jsonl"
    log.write_text(json.dumps({"event": "retry", "shard": 0}) + "\n")
    assert main(["service", str(log)], stream=io.StringIO()) == 2


def test_service_view_missing_file(tmp_path):
    assert main(["service", str(tmp_path / "nope.jsonl")], stream=io.StringIO()) == 2


def _service_registry():
    from repro.telemetry.metrics import MetricsRegistry

    reg = MetricsRegistry()
    leases = reg.counter("repro_service_leases_total")
    leases.inc(4, event="issued")
    leases.inc(3, event="done")
    leases.inc(1, event="steal")
    reg.counter("repro_service_steals_total").inc()
    reg.counter("repro_service_disconnects_total").inc(worker="w0")
    runs = reg.counter("repro_service_worker_runs_total")
    runs.inc(5, worker="w0", outcome="masked")
    runs.inc(3, worker="w0", outcome="sdc")
    runs.inc(8, worker="w1", outcome="masked")
    rtt = reg.histogram(
        "repro_service_heartbeat_rtt_seconds", buckets=(0.001, 0.01, 0.1)
    )
    for _ in range(6):
        rtt.observe(0.004, worker="w0")
        rtt.observe(0.004, worker="w1")
    reg.gauge("repro_service_worker_up").set(1, worker="w1")
    reg.gauge("repro_service_worker_up").set(0, worker="w0")
    reg.gauge("repro_service_worker_idle_seconds").set(0.5, worker="w1")
    reg.gauge("repro_service_lease_slowest_seconds").set(1.25, worker="w0")
    return reg


def test_service_view_joins_metrics_snapshot(tmp_path):
    from repro.telemetry.exporters import prometheus_text

    log = _write_log(tmp_path)
    (tmp_path / "metrics.prom").write_text(prometheus_text(_service_registry()))
    out = io.StringIO()
    assert main(["service", str(log)], stream=out) == 0
    text = out.getvalue()
    # Broker-only counters are no longer dropped when a snapshot exists.
    assert "service counters" in text
    assert "leases issued" in text and "leases done" in text
    assert "steals" in text and "worker disconnects" in text
    # Per-worker join: records streamed and heartbeat RTT columns.
    assert "recs" in text and "rtt p50 ms" in text


def test_service_view_attributes_worker_loss_with_addr_and_pid(tmp_path):
    events = list(EVENTS)
    events[0] = {
        "event": "worker_connected", "worker": "w0",
        "addr": "10.0.0.5:51000", "pid": 4242,
    }
    events[9] = {
        "event": "worker_lost", "worker": "w0", "detail": "connection dropped",
        "addr": "10.0.0.5:51000", "pid": 4242,
    }
    log = tmp_path / "failures.jsonl"
    log.write_text("".join(json.dumps(e) + "\n" for e in events))
    out = io.StringIO()
    assert main(["service", str(log)], stream=out) == 0
    text = out.getvalue()
    assert "10.0.0.5:51000" in text  # workers table carries the peer addr
    assert "4242" in text
    assert "(10.0.0.5:51000, pid 4242): connection dropped" in text


def test_live_view_renders_fleet_table_from_scrape(tmp_path):
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    from repro.telemetry.exporters import prometheus_text

    body = prometheus_text(_service_registry()).encode("utf-8")

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        out = io.StringIO()
        host, port = server.server_address[:2]
        assert main(["live", f"{host}:{port}", "--once"], stream=out) == 0
        text = out.getvalue()
        assert "fleet:" in text and "16 runs streamed" in text
        assert "leases 3/4 done" in text and "steals 1" in text
        assert "workers 1/2 up" in text
        assert "w0" in text and "DOWN" in text  # worker_up 0 renders as DOWN
        assert "w1" in text and "up" in text
        assert "masked:5 sdc:3" in text  # outcome mix column
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_live_view_scrape_failure_is_exit_2(tmp_path):
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # nothing listens here now
    assert main(["live", f"127.0.0.1:{port}", "--once"], stream=io.StringIO()) == 2
