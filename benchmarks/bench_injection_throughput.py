"""Injection fast paths — prefix-cache and batching throughput, and worker memory.

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
  (prefix cache + vectorized batching) against the no-fast-path
  baseline (snapshots off, scalar ``run_one``), all three sides
  interleaved and measured on the same run plan.  Floor:
  ``MIN_FULL_SPEEDUP`` aggregate.
* **Per-worker memory flatness** — this process records the probe
  benchmark's golden store at a sparse and a dense snapshot cadence and
  forks a worker from each, as a campaign forks its lease workers.  The worker restores the pristine input and a mid-run
  snapshot and touches their pages; the probe then reads the worker's
  private pages (``Private_Clean + Private_Dirty`` in
  ``/proc/<pid>/smaps_rollup``).  The store's pages stay shared with the
  parent, so the worker holds no private copy of the snapshot set: the
  dense/sparse ratio is capped at ``MAX_PRIVATE_RATIO`` even though the
  dense store holds several times the snapshot bytes.  RSS would not
  show this, because a forked worker's RSS also counts the parent's
  pages it shares.  The check is skipped where ``smaps_rollup`` cannot
  be read.

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
import sys
import time
from collections.abc import Sequence
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.benchmarks.registry import INJECTION_BENCHMARKS, create
from repro.carolfi.batchrunner import BatchRunner
from repro.carolfi.isolation import mp_context
from repro.carolfi.prefixcache import PrefixStore
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

#: Aggregate floor for the full fast path (cache + batching) over the
#: no-fast-path baseline.  Locally the sweep
#: measures ~7.5-8x; the CI gate runs at 6.0 so a genuine regression
#: in either layer trips it while runner noise does not.
MIN_FULL_SPEEDUP = 6.0

#: Cap on the growth of a forked worker's private memory between the
#: sparse and the dense store.  The dense store holds several times the
#: snapshot bytes; a worker that only reads the store it inherited
#: keeps them shared with its parent.
MAX_PRIVATE_RATIO = 1.10

#: Snapshot cadences for the memory-flatness probe, and the probe's
#: benchmark geometry (big enough that the dense store's extra bytes
#: dwarf the memory noise floor, small enough to record in seconds).
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
            # The fast side is the real campaign configuration: the
            # prefix cache, under batching.
            supervisor = Supervisor(bench, seed=SEED, snapshots=True)
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


def _private_bytes(pid: int) -> int | None:
    """Private memory of ``pid`` in bytes, or ``None`` if unreadable.

    ``Private_Clean + Private_Dirty`` of ``/proc/<pid>/smaps_rollup``:
    the pages no other process maps.
    """
    try:
        rollup = Path(f"/proc/{pid}/smaps_rollup").read_text(encoding="ascii")
    except OSError:
        return None
    total = 0
    for line in rollup.splitlines():
        field, _, rest = line.partition(":")
        if field in ("Private_Clean", "Private_Dirty"):
            total += int(rest.split()[0]) * 1024
    return total


def _probe_worker(store: PrefixStore, conn: Any) -> None:
    """Forked side of the memory probe: one worker's steady state.

    Restores the pristine input and a mid-run snapshot from the store
    it inherited, touches every page the restores hand out, and keeps
    them alive until the parent has read its private pages.
    """
    fresh = store.fresh()
    mid, _ = store.resume(store.total_steps // 2)
    conn.send(_touch(fresh) + _touch(mid))
    conn.recv()


def _worker_private_bytes(store: PrefixStore) -> float:
    """Median private memory of workers forked while this process holds
    ``store``."""
    ctx = mp_context()
    samples: list[float] = []
    for _ in range(3):
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_probe_worker, args=(store, child_conn), daemon=True)
        proc.start()
        child_conn.close()  # a worker that dies early ends recv with EOFError
        try:
            parent_conn.recv()
            private = _private_bytes(proc.pid)
            parent_conn.send("done")
        finally:
            parent_conn.close()
            proc.join(timeout=30)
        if private is None or proc.exitcode != 0:
            raise RuntimeError(f"memory probe worker failed (exit code {proc.exitcode})")
        samples.append(float(private))
    return statistics.median(samples)


def memory_sweep() -> dict[str, Any]:
    """Forked-worker private memory at a sparse vs a dense cadence.

    Records the probe benchmark's golden store at both densities, forks
    workers from this process while it holds each, and reports the
    store sizes and the workers' private memory.  Returns an empty dict
    where ``smaps_rollup`` cannot be read — the floors then skip the
    check.
    """
    if _private_bytes(os.getpid()) is None:
        return {}
    out: dict[str, Any] = {}
    for label, density in PROBE_DENSITIES.items():
        supervisor = Supervisor(
            create(PROBE_BENCHMARK, **PROBE_PARAMS),
            seed=SEED,
            snapshots=True,
            snapshot_density=density,
        )
        private = _worker_private_bytes(supervisor.prefix)
        out[label] = {
            "snapshots": float(len(supervisor.prefix)),
            "store_mb": supervisor.prefix.used_bytes / (1 << 20),
            "worker_private_mb": private / (1 << 20),
        }
    out["private_ratio"] = out["dense"]["worker_private_mb"] / out["sparse"]["worker_private_mb"]
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
    lines.append(f"aggregate full fast path (cache + batching): {full_aggregate:.2f}x")
    if memory:
        lines.append("")
        lines.append("store    snapshots  store MB  worker private MB")
        for label in ("sparse", "dense"):
            row = memory[label]
            lines.append(
                f"{label:>6}  {int(row['snapshots']):>9}  {row['store_mb']:>8.1f}  "
                f"{row['worker_private_mb']:>17.1f}"
            )
        lines.append(
            f"forked-worker private memory ratio (dense/sparse): "
            f"{memory['private_ratio']:.3f} (cap {MAX_PRIVATE_RATIO})"
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
        default=MAX_PRIVATE_RATIO,
        help="maximum dense/sparse forked-worker private-memory ratio (default %(default)s)",
    )
    args = parser.parse_args(argv)

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
    if memory and memory["private_ratio"] > args.rss_cap:
        print(
            f"FAIL: worker private memory ratio {memory['private_ratio']:.3f} exceeds "
            f"the {args.rss_cap} cap — worker memory scales with the snapshot set"
        )
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
