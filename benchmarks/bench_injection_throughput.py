"""Injection fast paths — prefix-cache, batching, and shared-store throughput.

Three gated speedups and one gated memory check share this module:

* **Scalar prefix cache** — ``Supervisor.run_one`` with the snapshot
  cache on vs off for every registered injection benchmark, exactly the
  PR-4 bench.  Disabling the cache must cost at least
  ``MIN_SCALAR_SPEEDUP`` overall.
* **Vectorized batching** — ``BatchRunner.run_many`` (plus the scalar
  fallback for members it declines) vs a pure ``run_one`` loop over the
  same runs, both sides with the prefix cache on, so the ratio isolates
  the batching win.  Floor: ``MIN_BATCHED_SPEEDUP`` aggregate.
* **Full fast path** — the configuration a campaign actually runs
  (prefix cache + shared-memory store + vectorized batching) against
  the no-fast-path baseline (snapshots off, scalar ``run_one``), all
  three sides interleaved and measured on the same run plan.  Floor:
  ``MIN_FULL_SPEEDUP`` aggregate.
* **Per-worker RSS flatness** — a shared segment is published at a
  sparse and a dense snapshot cadence and a fresh attacher process maps
  each, restores a prefix, and reports its resident set.  Because
  restores are copy-on-write views, the attacher's RSS must not scale
  with the snapshot-set size: the dense/sparse ratio is capped at
  ``MAX_RSS_RATIO`` even though the dense store holds several times the
  payload bytes.

The batched sweep runs under a live metrics registry and the artifact
reports each benchmark's fallback fraction derived from the
``repro_batch_fallback_total`` / ``repro_batch_runs_total`` counters —
the same families a campaign exports.

Timings use ``time.process_time`` with the sides interleaved and a
median over ``REPS`` so a loaded runner inflates no side: CPU time
ignores scheduling gaps, interleaving exposes every path to the same
frequency-boost phases, and the median discards the odd perturbed rep.
The numbers land in
``benchmarks/out/BENCH_injection_throughput.json`` (and the rendered
table in ``benchmarks/out/injection_throughput.txt``) so CI can chart
the fast paths across commits.

Run as a script to enforce the floors from CI::

    python benchmarks/bench_injection_throughput.py --floor 6.0

The process exits nonzero when any aggregate lands below its floor.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections.abc import Sequence
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.benchmarks.registry import INJECTION_BENCHMARKS, create
from repro.carolfi import shmstore
from repro.carolfi.batchrunner import BatchRunner
from repro.carolfi.isolation import rss_bytes
from repro.carolfi.supervisor import Supervisor
from repro.faults.models import FaultModel
from repro.telemetry import NOOP_TRACER, activate
from repro.telemetry.metrics import MetricsRegistry

#: Where the rendered table and its JSON companion are written.
OUT_DIR = Path(__file__).parent / "out"

#: Injections timed per (benchmark, mode) in the scalar cache sweep.
#: Heavy kernels (clamr) run ~10ms/injection on the slow path, so the
#: sweep stays under a minute.
RUNS_PER_MODE = 40

#: Injections per benchmark in the batched sweep.  Large enough for
#: three full-width groups at ``BATCH_SIZE`` so the stacked kernels
#: amortise their setup, small enough to keep the sweep under a minute.
BATCHED_RUNS = 192

#: Batch width for the throughput measurement.  Wider than the
#: campaign default (8): the bench measures the kernels' amortisation
#: ceiling, not a shard-friendly operating point.
BATCH_SIZE = 64

#: Median-of reps per timed side.
REPS = 3

SEED = 2017

#: The bench fails if disabling the cache costs less than this overall:
#: a silent fall-back to full replays is a performance regression.  The
#: gate is deliberately below the ~1.5-2x measured locally so it flags
#: the regression without flaking on a loaded CI runner.
MIN_SCALAR_SPEEDUP = 1.2

#: Aggregate floor for the vectorized batch path over the cache-on
#: scalar loop.  Locally the sweep measures ~3.0-3.4x under load and
#: more on a quiet machine.
MIN_BATCHED_SPEEDUP = 2.5

#: Aggregate floor for the full fast path (cache + shared store +
#: batching) over the no-fast-path baseline.  Locally the sweep
#: measures ~7.5-8x; the CI gate runs at 6.0 so a genuine regression
#: in either layer trips it while runner noise does not.
MIN_FULL_SPEEDUP = 6.0

#: Cap on attacher-RSS growth between the sparse and the dense shared
#: store.  The dense store holds several times the snapshot payload;
#: copy-on-write restores keep the worker's resident set flat.
MAX_RSS_RATIO = 1.10

#: Snapshot cadences for the RSS-flatness probe, and the probe's
#: benchmark geometry (big enough that the dense store's extra payload
#: dwarfs the RSS noise floor, small enough to publish in seconds).
PROBE_DENSITIES = {"sparse": 2, "dense": 12}
PROBE_BENCHMARK = "hotspot"
PROBE_PARAMS = {"rows": 256, "cols": 256, "iterations": 120}

_MODELS = FaultModel.all()


def _rate(supervisor: Supervisor) -> float:
    start = time.perf_counter()
    for run in range(RUNS_PER_MODE):
        supervisor.run_one(run, _MODELS[run % len(_MODELS)])
    return RUNS_PER_MODE / (time.perf_counter() - start)


def scalar_sweep() -> tuple[dict[str, dict[str, float]], float]:
    """Cache-on vs cache-off rates for every injection benchmark."""
    per_bench: dict[str, dict[str, float]] = {}
    for name in INJECTION_BENCHMARKS:
        fast = Supervisor(create(name), seed=SEED, snapshots=True)
        slow = Supervisor(create(name), seed=SEED, snapshots=False)
        rate_fast = _rate(fast)
        rate_slow = _rate(slow)
        per_bench[name] = {
            "runs_per_sec_cache_on": rate_fast,
            "runs_per_sec_cache_off": rate_slow,
            "speedup": rate_fast / rate_slow,
            "snapshots": float(len(fast.prefix)),
            "total_steps": float(fast.total_steps),
        }
    total_fast = sum(1.0 / row["runs_per_sec_cache_on"] for row in per_bench.values())
    total_slow = sum(1.0 / row["runs_per_sec_cache_off"] for row in per_bench.values())
    return per_bench, total_slow / total_fast


def _batched_runs() -> list[tuple[int, FaultModel]]:
    return [(run, _MODELS[run % len(_MODELS)]) for run in range(BATCHED_RUNS)]


def _median(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


def _time_scalar_once(supervisor: Supervisor) -> float:
    start = time.process_time()
    for run, model in _batched_runs():
        supervisor.run_one(run, model)
    return time.process_time() - start


def _time_batched_once(supervisor: Supervisor) -> tuple[float, int]:
    start = time.process_time()
    runner = BatchRunner(supervisor, BATCH_SIZE)
    records = runner.run_many(_batched_runs())
    fallbacks = 0
    for run, model in _batched_runs():
        if run not in records:
            supervisor.run_one(run, model)
            fallbacks += 1
    return time.process_time() - start, fallbacks


def _fallback_fractions(registry: MetricsRegistry) -> dict[str, float]:
    """Per-benchmark fallback share from the live batch-path counters.

    ``repro_batch_runs_total{benchmark, path}`` counts every run the
    batch runner finished (``vectorized``) or declined (``fallback``);
    the ratio is the fraction of the campaign's runs that will not see
    the vectorized win.
    """
    per: dict[str, dict[str, float]] = {}
    for key, value in registry.counter_values().get("repro_batch_runs_total", {}).items():
        labels = dict(part.split("=", 1) for part in key.split(",") if "=" in part)
        per.setdefault(labels.get("benchmark", "?"), {})[labels.get("path", "?")] = value
    out: dict[str, float] = {}
    for name, paths in per.items():
        total = paths.get("vectorized", 0.0) + paths.get("fallback", 0.0)
        out[name] = paths.get("fallback", 0.0) / total if total else 0.0
    return out


def batched_sweep() -> tuple[dict[str, dict[str, float]], float, float]:
    """Batched vs cache-on scalar vs no-fast-path scalar suffixes.

    Returns per-benchmark rows plus two aggregates: batched over
    cache-on scalar (the batching win in isolation) and batched over
    the no-fast-path baseline (the full fast path a campaign gets).
    """
    per_bench: dict[str, dict[str, float]] = {}
    total_scalar = 0.0
    total_batched = 0.0
    total_nocache = 0.0
    registry = MetricsRegistry()
    with activate(registry, NOOP_TRACER):
        for name in INJECTION_BENCHMARKS:
            bench = create(name)
            if not bench.supports_batching:
                continue
            # The fast side is the real campaign configuration: prefix
            # cache plus the host-wide shared-memory store (restores are
            # copy-on-write mappings of the published segment).
            supervisor = Supervisor(bench, seed=SEED, snapshots=True, shared=True)
            nocache = Supervisor(create(name), seed=SEED, snapshots=False)
            # Warm the snapshot store the way a campaign's golden pass would.
            for run, model in _batched_runs()[:4]:
                supervisor.run_one(run, model)
            # Alternate the sides inside each rep so frequency-boost
            # phases and cache state hit all of them equally, then take
            # medians: one boosted rep skews a best-of measurement
            # toward whichever side it happened to land on.
            scalar_reps: list[float] = []
            batched_reps: list[float] = []
            nocache_reps: list[float] = []
            fallbacks = 0
            for _ in range(REPS):
                nocache_reps.append(_time_scalar_once(nocache))
                scalar_reps.append(_time_scalar_once(supervisor))
                rep, fallbacks = _time_batched_once(supervisor)
                batched_reps.append(rep)
            scalar = _median(scalar_reps)
            batched = _median(batched_reps)
            slow = _median(nocache_reps)
            total_scalar += scalar
            total_batched += batched
            total_nocache += slow
            per_bench[name] = {
                "nocache_seconds": slow,
                "scalar_seconds": scalar,
                "batched_seconds": batched,
                "speedup": scalar / batched,
                "full_speedup": slow / batched,
                "fallback_runs": float(fallbacks),
                "runs": float(BATCHED_RUNS),
            }
    shmstore.release_published()
    for name, fraction in _fallback_fractions(registry).items():
        if name in per_bench:
            per_bench[name]["fallback_fraction"] = fraction
    return per_bench, total_scalar / total_batched, total_nocache / total_batched


def _touch(node: Any) -> int:
    """Fault a restored state's array pages into the resident set."""
    if isinstance(node, np.ndarray):
        if node.size == 0:
            return 0
        flat = np.ascontiguousarray(node).reshape(-1).view(np.uint8)
        return int(flat[:: 1024].sum())
    if is_dataclass(node) and not isinstance(node, type):
        return sum(_touch(getattr(node, f.name)) for f in fields(node))
    if isinstance(node, dict):
        return sum(_touch(v) for v in node.values())
    if isinstance(node, (list, tuple)):
        return sum(_touch(v) for v in node)
    if hasattr(node, "__dict__"):
        return sum(_touch(v) for v in vars(node).values())
    return 0


def _attach_probe_main(key: str) -> int:
    """Child side of the RSS probe: attach, restore, report RSS.

    Mimics one worker's steady state — map the host segment, restore
    the pristine input and one mid-trajectory snapshot as copy-on-write
    views, touch every page a restore hands out — then print the
    resident set in bytes.  Exits nonzero if the segment is missing.
    """
    segment = shmstore.attach(key)
    if segment is None:
        return 2
    steps = segment.snapshot_steps
    sink = _touch(segment.materialize(None))
    if steps:
        sink += _touch(segment.materialize(steps[len(steps) // 2]))
    rss = rss_bytes(os.getpid())
    if rss is None or sink < 0:
        return 3
    print(rss)
    return 0


def _attacher_rss(key: str) -> float | None:
    """Median RSS of fresh attacher processes mapped to ``key``."""
    samples: list[float] = []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--attach-probe", key],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            return None
        samples.append(float(proc.stdout.split()[0]))
    return statistics.median(samples)


def memory_sweep() -> dict[str, Any]:
    """Attacher RSS at a sparse vs a dense snapshot cadence.

    Publishes the probe benchmark's golden prefix at both densities
    (distinct store keys), has fresh processes attach and restore from
    each, and reports payload sizes and worker RSS.  Returns an empty
    dict when shared memory is unavailable (``REPRO_SHM=0`` or no
    writable segment directory) — the floors then skip the check.
    """
    if not shmstore.shm_enabled():
        return {}
    out: dict[str, Any] = {}
    try:
        for label, density in PROBE_DENSITIES.items():
            supervisor = Supervisor(
                create(PROBE_BENCHMARK, **PROBE_PARAMS),
                seed=SEED,
                snapshots=True,
                snapshot_density=density,
                shared=True,
            )
            segment = supervisor.prefix.segment
            if segment is None:
                return {}
            rss = _attacher_rss(segment.key)
            if rss is None:
                return {}
            out[label] = {
                "snapshots": float(len(segment.snapshot_steps)),
                "payload_mb": segment.payload_bytes / (1 << 20),
                "worker_rss_mb": rss / (1 << 20),
            }
    finally:
        shmstore.release_published()
    out["rss_ratio"] = out["dense"]["worker_rss_mb"] / out["sparse"]["worker_rss_mb"]
    return out


def _render(
    scalar: dict[str, dict[str, float]],
    scalar_aggregate: float,
    batched: dict[str, dict[str, float]],
    batched_aggregate: float,
    full_aggregate: float,
    memory: dict[str, Any],
) -> str:
    lines = ["benchmark  cache on/s  cache off/s  speedup  snapshots"]
    for name, row in sorted(scalar.items()):
        lines.append(
            f"{name:>9}  {row['runs_per_sec_cache_on']:>10.1f}  "
            f"{row['runs_per_sec_cache_off']:>11.1f}  "
            f"{row['speedup']:>6.2f}x  {int(row['snapshots']):>9}"
        )
    lines.append(f"aggregate prefix-cache speedup: {scalar_aggregate:.2f}x")
    lines.append("")
    lines.append("benchmark  nocache s  scalar s  batched s  batch-x   full-x  fallback")
    for name, row in sorted(batched.items()):
        fraction = row.get("fallback_fraction", 0.0)
        lines.append(
            f"{name:>9}  {row['nocache_seconds']:>9.3f}  {row['scalar_seconds']:>8.3f}  "
            f"{row['batched_seconds']:>9.3f}  {row['speedup']:>6.2f}x  "
            f"{row['full_speedup']:>6.2f}x  {fraction:>7.1%}"
        )
    lines.append(
        f"aggregate batched speedup (batch {BATCH_SIZE}, median of {REPS}): "
        f"{batched_aggregate:.2f}x"
    )
    lines.append(
        f"aggregate full fast path (cache + shared store + batching): "
        f"{full_aggregate:.2f}x"
    )
    if memory:
        lines.append("")
        lines.append("store    snapshots  payload MB  worker RSS MB")
        for label in ("sparse", "dense"):
            row = memory[label]
            lines.append(
                f"{label:>6}  {int(row['snapshots']):>9}  {row['payload_mb']:>10.1f}  "
                f"{row['worker_rss_mb']:>13.1f}"
            )
        lines.append(
            f"attacher RSS ratio (dense/sparse): {memory['rss_ratio']:.3f} "
            f"(cap {MAX_RSS_RATIO})"
        )
    return "\n".join(lines)


def _publish(
    scalar: dict[str, dict[str, float]],
    scalar_aggregate: float,
    batched: dict[str, dict[str, float]],
    batched_aggregate: float,
    full_aggregate: float,
    memory: dict[str, Any],
) -> str:
    text = _render(
        scalar, scalar_aggregate, batched, batched_aggregate, full_aggregate, memory
    )
    payload = {
        "runs_per_mode": RUNS_PER_MODE,
        "batched_runs": BATCHED_RUNS,
        "batch_size": BATCH_SIZE,
        "reps": REPS,
        "seed": SEED,
        "per_benchmark": scalar,
        "aggregate_speedup": scalar_aggregate,
        "batched_per_benchmark": batched,
        "batched_aggregate_speedup": batched_aggregate,
        "full_aggregate_speedup": full_aggregate,
        "memory": memory,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "injection_throughput.txt").write_text(text + "\n", encoding="utf-8")
    (OUT_DIR / "BENCH_injection_throughput.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return text


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--floor",
        type=float,
        default=MIN_FULL_SPEEDUP,
        help="minimum aggregate full-fast-path speedup (default %(default)s)",
    )
    parser.add_argument(
        "--batched-floor",
        type=float,
        default=MIN_BATCHED_SPEEDUP,
        help="minimum aggregate batched-vs-scalar speedup (default %(default)s)",
    )
    parser.add_argument(
        "--scalar-floor",
        type=float,
        default=MIN_SCALAR_SPEEDUP,
        help="minimum aggregate cache-on-vs-off speedup (default %(default)s)",
    )
    parser.add_argument(
        "--rss-cap",
        type=float,
        default=MAX_RSS_RATIO,
        help="maximum dense/sparse attacher RSS ratio (default %(default)s)",
    )
    parser.add_argument(
        "--attach-probe",
        metavar="KEY",
        default=None,
        help=argparse.SUPPRESS,  # internal: child side of the RSS probe
    )
    args = parser.parse_args(argv)
    if args.attach_probe is not None:
        return _attach_probe_main(args.attach_probe)

    scalar, scalar_aggregate = scalar_sweep()
    batched, batched_aggregate, full_aggregate = batched_sweep()
    memory = memory_sweep()
    print(
        _publish(
            scalar, scalar_aggregate, batched, batched_aggregate, full_aggregate, memory
        )
    )

    status = 0
    if scalar_aggregate < args.scalar_floor:
        print(
            f"FAIL: prefix cache speedup {scalar_aggregate:.2f}x "
            f"below the {args.scalar_floor}x floor"
        )
        status = 1
    if batched_aggregate < args.batched_floor:
        print(
            f"FAIL: batched speedup {batched_aggregate:.2f}x "
            f"below the {args.batched_floor}x floor"
        )
        status = 1
    if full_aggregate < args.floor:
        print(
            f"FAIL: full fast path {full_aggregate:.2f}x "
            f"below the {args.floor}x floor"
        )
        status = 1
    if memory and memory["rss_ratio"] > args.rss_cap:
        print(
            f"FAIL: attacher RSS ratio {memory['rss_ratio']:.3f} exceeds the "
            f"{args.rss_cap} cap — worker memory scales with the snapshot set"
        )
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
