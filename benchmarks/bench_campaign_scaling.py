"""Campaign engine scaling — injections/sec at 1/2/4 workers.

Times the sharded campaign engine end-to-end and records the
injections/sec achieved at each worker count (``benchmark.extra_info``
lands in the ``BENCH_*.json`` exports, so the parallel-scaling
trajectory is tracked across commits alongside the timing itself).
Speedup tops out at the machine's core count; on a single-core box the
sweep degenerates to measuring the engine's fan-out overhead, which is
worth tracking too.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from repro.carolfi.campaign import CampaignConfig, run_campaign
from repro.telemetry import Telemetry, TelemetryConfig

from _artifacts import register_artifact, register_artifact_json

WORKER_COUNTS = (1, 2, 4)
BROKER_WORKERS = 2

#: Rate-sweep campaign: dgemm injections are heavy enough (~10ms each)
#: that pool start-up does not swamp the per-worker throughput.
SCALING_CONFIG = CampaignConfig(benchmark="dgemm", injections=96, seed=11)
SCALING_SHARD_SIZE = 8

#: Cheap campaign for the serial-engine-overhead timing loop.
QUICK_CONFIG = CampaignConfig(
    benchmark="nw",
    injections=96,
    seed=11,
    benchmark_params={"n": 24, "rows_per_step": 4},
)


def _rate(workers: int, telemetry: Telemetry | None = None) -> float:
    start = time.perf_counter()
    result = run_campaign(
        SCALING_CONFIG,
        workers=workers,
        shard_size=SCALING_SHARD_SIZE,
        telemetry=telemetry,
    )
    elapsed = time.perf_counter() - start
    assert len(result) == SCALING_CONFIG.injections
    return SCALING_CONFIG.injections / elapsed


def _broker_rate() -> tuple[float, float | None, float | None]:
    """Broker-mode throughput plus heartbeat-RTT p50/p99 over localhost.

    Same campaign as the pool sweep, but executed by real
    ``repro-worker`` subprocesses behind a TCP broker with telemetry
    attached, so the fleet RTT histogram fills in — the latency floor
    the adaptive stealer's coordination-cost estimate rests on.
    """
    from repro.carolfi.engine import run_sharded_campaign
    from repro.service.broker import BrokerBackend
    from repro.telemetry.metrics import Histogram

    tel = Telemetry(TelemetryConfig())
    broker = BrokerBackend(SCALING_CONFIG)
    host, port = broker.address
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.service.worker",
             f"{host}:{port}", "--name", f"bench-w{i}", "--once"],
            env=env,
        )
        for i in range(BROKER_WORKERS)
    ]
    try:
        assert broker.wait_for_workers(BROKER_WORKERS, timeout=30.0)
        start = time.perf_counter()
        result = run_sharded_campaign(
            SCALING_CONFIG,
            workers=BROKER_WORKERS,
            shard_size=SCALING_SHARD_SIZE,
            backend=broker,
            telemetry=tel,
        )
        elapsed = time.perf_counter() - start
    finally:
        broker.close()
        for proc in workers:
            proc.wait(timeout=30)
    assert len(result.records) == SCALING_CONFIG.injections
    rtt = next(
        (
            m
            for m in tel.registry.metrics()
            if m.name == "repro_service_heartbeat_rtt_seconds"
            and isinstance(m, Histogram)
        ),
        None,
    )
    p50 = rtt.quantile(0.5) if rtt is not None else None
    p99 = rtt.quantile(0.99) if rtt is not None else None
    return SCALING_CONFIG.injections / elapsed, p50, p99


def test_campaign_scaling(benchmark):
    rates = {w: _rate(w) for w in WORKER_COUNTS}
    # Same campaign with full metrics collection: the gap against the
    # plain serial rate is the telemetry overhead, tracked across commits.
    rate_with_metrics = _rate(1, telemetry=Telemetry(TelemetryConfig()))
    broker_rate, rtt_p50, rtt_p99 = _broker_rate()
    lines = ["workers  injections/sec  speedup"]
    for w in WORKER_COUNTS:
        lines.append(f"{w:>7}  {rates[w]:>14.1f}  {rates[w] / rates[1]:>6.2f}x")
    lines.append(
        f"1 (telemetry on)  {rate_with_metrics:>7.1f}  "
        f"{rate_with_metrics / rates[1]:>6.2f}x"
    )
    fmt_ms = lambda v: "-" if v is None else f"{v * 1000:.2f}ms"  # noqa: E731
    lines.append(
        f"{BROKER_WORKERS} (broker)  {broker_rate:>13.1f}  "
        f"{broker_rate / rates[1]:>6.2f}x  "
        f"rtt p50 {fmt_ms(rtt_p50)} p99 {fmt_ms(rtt_p99)}"
    )
    register_artifact("campaign_scaling", "\n".join(lines))
    register_artifact_json(
        "campaign_scaling",
        {
            "benchmark": SCALING_CONFIG.benchmark,
            "injections": SCALING_CONFIG.injections,
            "shard_size": SCALING_SHARD_SIZE,
            "runs_per_sec": {str(w): rates[w] for w in WORKER_COUNTS},
            "runs_per_sec_serial_telemetry": rate_with_metrics,
            "speedup_4_over_1": rates[4] / rates[1],
            "broker": {
                "workers": BROKER_WORKERS,
                "runs_per_sec": broker_rate,
                "heartbeat_rtt_p50_s": rtt_p50,
                "heartbeat_rtt_p99_s": rtt_p99,
            },
        },
    )
    benchmark.extra_info.update(
        {f"rate_workers_{w}": rates[w] for w in WORKER_COUNTS}
    )
    benchmark.extra_info["rate_serial_telemetry"] = rate_with_metrics
    benchmark.extra_info["rate_broker"] = broker_rate
    if rtt_p50 is not None:
        benchmark.extra_info["broker_rtt_p50_s"] = rtt_p50
    if rtt_p99 is not None:
        benchmark.extra_info["broker_rtt_p99_s"] = rtt_p99
    benchmark.extra_info["speedup_4_over_1"] = rates[4] / rates[1]
    # Time the parallel path itself (pool start-up included).
    benchmark.pedantic(
        lambda: run_campaign(
            SCALING_CONFIG, workers=4, shard_size=SCALING_SHARD_SIZE
        ),
        rounds=1,
        iterations=1,
    )


def test_campaign_serial_engine_overhead(benchmark):
    """The engine's serial path should cost about the same as the legacy loop."""
    result = benchmark.pedantic(
        lambda: run_campaign(QUICK_CONFIG, workers=1, shard_size=8),
        rounds=3,
        iterations=1,
    )
    assert len(result) == QUICK_CONFIG.injections
