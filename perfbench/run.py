"""The benchmark's entry point: wall time, throughput, set-up and memory of the
paper's beam, CAROL-FI and hardened campaigns, with a traced per-layer
breakdown.

One run measures one workload.  It starts a fresh process per execution
(see ``workloads.py``), takes medians over the executions and prints one
JSON object as its last line::

    python3 perfbench/run.py --workload beam --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced executions,
with wall and set-up times scaled to a reference host speed
(``hostspeed.py``); ``--trace 1`` pairs each traced execution with an
untraced one on the same inputs and reports the per-layer metrics plus
the tracing overhead.
Without ``--workload`` every workload runs both ways and every metric is
printed with its unit.  ``--write-spec`` rewrites ``BENCHMARK.json``
from the definitions below.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any

from hostspeed import REFERENCE_S
from workloads import PINNED_SEED, WORKLOADS, Workload, execute_cold, input_seed, preload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seconds one run measures unless ``--seconds`` says otherwise.
RUN_SECONDS = 25

#: A run must end well inside the three minutes a caller allows it.
RUN_DEADLINE_S = 170.0

#: Fewest untraced executions a run takes its medians over.
MIN_EXECUTIONS = 3

#: Record digests of execution 0 (seed 2017) of each workload.  The
#: two CAROL-FI workloads run the same campaigns, so they share one.
PINS = {
    "beam": "6baf002f426da886a62b1147620861688cc414c8fd6ebf2b86722bc12f08c334",
    "carolfi-dense": "cda88b17b032fe4a448c817598b2885c2f36ab4f7e11876e623f19655850504b",
    "hardened": "72c8f78d407523fee46e8165d6c66d0b99a4cfbcafd4d99c4336d001a9c5ea70",
    "carolfi-pool": "cda88b17b032fe4a448c817598b2885c2f36ab4f7e11876e623f19655850504b",
}

#: ``(name, unit, better, bound)``: what a user of the campaigns sees.
#: ``bound`` is the share of the parent's median by which a change may
#: make the metric worse before it counts as a regression.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("runs_per_s", "runs/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)

KERNELS = ("clamr", "dgemm", "hotspot", "lavamd", "lud", "nw")

#: ``(name, unit, better)`` of every per-layer metric, layer by layer.
PER_LAYER = (
    ("benchmarks.step_calls", "count", "lower"),
    ("benchmarks.step_s", "s", "lower"),
    *((f"benchmarks.{k}.step_s", "s", "lower") for k in KERNELS),
    ("benchmarks.clamr.kdtree_calls", "count", "lower"),
    ("benchmarks.clamr.kdtree_s", "s", "lower"),
    ("benchmarks.step_batch_calls", "count", "lower"),
    ("benchmarks.batch_member_steps", "count", "lower"),
    ("benchmarks.step_batch_s", "s", "lower"),
    ("benchmarks.restore_calls", "count", "lower"),
    ("benchmarks.restore_s", "s", "lower"),
    ("phi.strike_calls", "count", "lower"),
    ("phi.strike_s", "s", "lower"),
    ("beam.setup_s", "s", "lower"),
    ("beam.trials", "count", "higher"),
    ("beam.occupied_share", "fraction", "lower"),
    ("beam.trial_s", "s", "lower"),
    ("carolfi.setup_s", "s", "lower"),
    ("carolfi.run_one_calls", "count", "lower"),
    ("carolfi.run_one_s", "s", "lower"),
    ("carolfi.batch_s", "s", "lower"),
    ("carolfi.vectorized_share", "fraction", "higher"),
    ("carolfi.inject_calls", "count", "lower"),
    ("carolfi.inject_s", "s", "lower"),
    ("carolfi.restore_calls", "count", "lower"),
    ("carolfi.restore_s", "s", "lower"),
    ("carolfi.steps_per_run", "steps", "lower"),
    ("carolfi.compare_calls", "count", "lower"),
    ("carolfi.compare_s", "s", "lower"),
    ("carolfi.engine.shards", "count", "lower"),
    ("carolfi.engine.first_dispatch_s", "s", "lower"),
    ("carolfi.engine.shard_busy_s", "s", "lower"),
    ("carolfi.engine.utilisation", "fraction", "higher"),
    ("carolfi.engine.tail_s", "s", "lower"),
    ("carolfi.engine.checkpoint_bytes", "bytes", "lower"),
    ("hardening.setup_s", "s", "lower"),
    ("hardening.verify_calls", "count", "lower"),
    ("hardening.verify_s", "s", "lower"),
    ("hardening.resync_calls", "count", "lower"),
    ("hardening.resync_s", "s", "lower"),
    ("trace.overhead", "fraction", "lower"),
)


# -- spec -------------------------------------------------------------------------


def spec() -> dict[str, Any]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def render_spec() -> str:
    return json.dumps(spec(), indent=2) + "\n"


# -- executions ---------------------------------------------------------------------


def traced_pairs(workload: Workload, seconds: float) -> int:
    """Traced/untraced execution pairs of a traced run.

    Fixed by the run length alone, not by the clock, so the counts a
    traced run reports depend only on ``--seed`` and ``--seconds``.
    """
    # A pair is two executions, the traced one a little slower.
    return max(1, int(seconds // (2.5 * workload.rep_s)))


def prepare_process() -> None:
    """Make this process the cold parent every execution is forked from.

    Drops the program's ``REPRO_*`` settings (no golden cache, default
    shared-memory policy), keeps BLAS to one thread per process (the
    pooled workload already runs one worker per core, and forking needs
    a single-threaded parent), and imports the program once.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    preload()


def problems(workload: Workload, results: list[dict]) -> list[str]:
    """Everything wrong with a run's executions (empty when correct)."""
    found = []
    for r in results:
        tag = f"seed {r['seed']}{' traced' if r['traced'] else ''}"
        if r["failed"]:
            found.append(f"{tag}: {r['failed']} runs raised")
        if not r["well_formed"]:
            found.append(f"{tag}: records are not one per planned run")
        if r["shm_left"]:
            found.append(f"{tag}: shared-memory segments left behind: {r['shm_left']}")
        if r["seed"] == PINNED_SEED and r["digest"] != PINS[workload.name]:
            found.append(f"{tag}: digest {r['digest']} != pinned {PINS[workload.name]}")
    by_seed: dict[int, set[str]] = {}
    for r in results:
        by_seed.setdefault(r["seed"], set()).add(r["digest"])
    found += [f"seed {s}: executions disagree on records" for s, d in by_seed.items() if len(d) > 1]
    return found


# -- metrics ----------------------------------------------------------------------


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(results: list[dict]) -> dict[str, float]:
    """Medians over a run's untraced executions."""
    median = statistics.median
    return {
        "wall_s": median(r["wall_s"] for r in results),
        "setup_s": median(r["setup_s"] for r in results),
        "runs_per_s": median(r["runs"] / (r["wall_s"] - r["setup_s"]) for r in results),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in results),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer totals over a run's traced executions.

    ``untraced`` holds the same inputs run untraced, for the overhead.
    """
    calls, counts, self_s, inclusive_s, engine = (Counter() for _ in range(5))
    for r in traced:
        calls.update(r["trace"]["calls"])
        counts.update(r["trace"]["counts"])
        self_s.update(r["trace"]["self_s"])
        inclusive_s.update(r["trace"]["inclusive_s"])
        engine.update(r["engine"])
    steps = [f"benchmarks.{k}.step" for k in KERNELS]
    # CAROL-FI runs this process executed: scalar runs plus batched records.
    runs = calls["carolfi.run_one"] + counts["vectorized_records"]
    # Shard busy time is measured, not scaled, so its window is too.
    busy_window = sum(r["workers"] * (r["raw_wall_s"] - r["raw_setup_s"]) for r in traced)
    return {
        "benchmarks.step_calls": sum(calls[s] for s in steps),
        "benchmarks.step_s": sum(self_s[s] for s in steps),
        **{f"{s}_s": self_s[s] for s in steps},
        "benchmarks.clamr.kdtree_calls": calls["benchmarks.clamr.kdtree"],
        "benchmarks.clamr.kdtree_s": self_s["benchmarks.clamr.kdtree"],
        "benchmarks.step_batch_calls": calls["benchmarks.step_batch"],
        "benchmarks.batch_member_steps": counts["batch_member_steps"],
        "benchmarks.step_batch_s": self_s["benchmarks.step_batch"],
        "benchmarks.restore_calls": calls["benchmarks.restore"],
        "benchmarks.restore_s": self_s["benchmarks.restore"],
        "phi.strike_calls": calls["phi.strike"],
        "phi.strike_s": self_s["phi.strike"],
        "beam.setup_s": inclusive_s["beam.setup"],
        "beam.trials": calls["beam.trial"],
        "beam.occupied_share": share(counts["occupied_trials"], calls["beam.trial"]),
        "beam.trial_s": inclusive_s["beam.trial"],
        "carolfi.setup_s": inclusive_s["carolfi.setup"],
        "carolfi.run_one_calls": calls["carolfi.run_one"],
        "carolfi.run_one_s": inclusive_s["carolfi.run_one"],
        "carolfi.batch_s": inclusive_s["carolfi.batch"],
        "carolfi.vectorized_share": share(counts["vectorized_records"], runs),
        "carolfi.inject_calls": calls["carolfi.inject"],
        "carolfi.inject_s": self_s["carolfi.inject"],
        "carolfi.restore_calls": calls["carolfi.restore"],
        "carolfi.restore_s": self_s["carolfi.restore"],
        "carolfi.steps_per_run": share(counts["run_steps"], runs),
        "carolfi.compare_calls": calls["carolfi.compare"],
        "carolfi.compare_s": self_s["carolfi.compare"],
        "carolfi.engine.shards": engine["shards"],
        "carolfi.engine.first_dispatch_s": engine["first_dispatch_s"],
        "carolfi.engine.shard_busy_s": engine["busy_s"],
        "carolfi.engine.utilisation": share(engine["busy_s"], busy_window),
        "carolfi.engine.tail_s": engine["tail_s"],
        "carolfi.engine.checkpoint_bytes": engine["checkpoint_bytes"],
        "hardening.setup_s": inclusive_s["hardening.setup"],
        "hardening.verify_calls": calls["hardening.verify"],
        "hardening.verify_s": self_s["hardening.verify"],
        "hardening.resync_calls": calls["hardening.resync"],
        "hardening.resync_s": self_s["hardening.resync"],
        "trace.overhead": share(
            sum(r["wall_s"] for r in traced), sum(r["wall_s"] for r in untraced)
        )
        - 1.0,
    }


# -- one run ------------------------------------------------------------------------


def source_stamp() -> dict[str, Any]:
    """Which code ran: the git commit when there is one, and a source hash."""
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": sha.hexdigest()}


def measure(workload: Workload, seed: int, seconds: float, traced: bool) -> dict[str, Any]:
    """One run: its executions, the correctness verdict and the metrics."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    work_root = ROOT / ".perfbench"
    results: list[dict] = []
    index = 0
    while True:
        for trace in (False, True) if traced else (False,):
            s = input_seed(seed, index)
            work = work_root / f"{workload.name}-{s}-{int(trace)}"
            r = execute_cold(workload, s, trace, work, deadline - time.monotonic())
            results.append(r)
            print(
                f"execution seed={s} traced={int(trace)} digest={r['digest']} "
                f"wall_s={r['wall_s']:.3f} setup_s={r['setup_s']:.3f} runs={r['runs']} "
                f"raw_wall_s={r['raw_wall_s']:.3f} probe_s={r['probe_s']:.4f}",
                flush=True,
            )
        index += 1
        if traced:
            if index >= traced_pairs(workload, seconds):
                break
        elif index >= MIN_EXECUTIONS:
            # Stop before the execution that would likely overrun.
            elapsed = time.monotonic() - start
            if elapsed + elapsed / index > seconds:
                break
    if work_root.is_dir() and not any(work_root.iterdir()):
        work_root.rmdir()
    untraced = [r for r in results if not r["traced"]]
    found = problems(workload, results)
    if traced:
        metrics = per_layer([r for r in results if r["traced"]], untraced)
    else:
        metrics = end_to_end(untraced)
    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER}
    attempted = sum(r["attempted"] for r in results)
    stamp = {
        **source_stamp(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "seed": seed,
        "input_seeds": sorted({r["seed"] for r in results}),
        "runs_per_kernel": {k: workload.runs for k in workload.kernels},
        "workers": results[0]["workers"],
        "probe_s": statistics.median(r["probe_s"] for r in results),
        "reference_s": REFERENCE_S,
    }
    print("stamp " + json.dumps(stamp, sort_keys=True), flush=True)
    for problem in found:
        print(f"INCORRECT {workload.name}: {problem}", file=sys.stderr, flush=True)
    return {
        "correct": not found,
        "attempted": attempted,
        "failed": attempted if found else sum(r["failed"] for r in results),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(render_spec())
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    prepare_process()
    if args.workload is not None:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    correct = True
    for workload in WORKLOADS.values():
        for traced in (False, True):
            result = measure(workload, args.seed, args.seconds, traced)
            correct &= result["correct"]
            for name, metric in result["metrics"].items():
                print(f"{workload.name:14} {name:34} {metric['value']:>16.6g} {metric['unit']}")
            print(
                f"{workload.name:14} {'failed_share':34} "
                f"{share(result['failed'], result['attempted']):>16.6g} fraction"
            )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
