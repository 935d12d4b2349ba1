"""CLI runner: regenerate any subset of the paper's artifacts.

Usage (installed as ``repro-experiments``)::

    repro-experiments                 # everything at full scale
    repro-experiments --quick         # 10% campaigns, minutes not hours
    repro-experiments figure2 figure3 --seed 7
    repro-experiments --workers 8 --checkpoints /tmp/ckpt figure4
    repro-experiments --isolation subprocess --timeout 60 figure4
    repro-experiments --list

Campaigns are shared across experiments within one invocation (Figures
2/3 reuse one beam campaign per benchmark; Figures 4-6, criticality and
mitigation reuse one injection campaign per benchmark; futurework runs
one hardened campaign per benchmark).  Every campaign — beam, CAROL-FI
and hardened — runs on the sharded parallel engine: ``--workers`` (or
the ``REPRO_WORKERS`` environment variable) sets the process count,
``--isolation`` where each run executes, and ``--checkpoints DIR``
makes campaigns resumable — re-invoking with the same directory
replays finished shards instead of re-running them.  ``--batch-size``
applies to CAROL-FI and hardened campaigns (beam trials run scalar),
``--no-snapshots`` to CAROL-FI campaigns only.

Observability (:mod:`repro.telemetry`): ``--metrics-out PATH`` exports
campaign metrics on exit (Prometheus text, or a JSONL snapshot for a
``.json``/``.jsonl`` suffix) and prints the metric summary table to
stderr; ``--trace PATH`` records phase-timing spans as ``trace.jsonl``;
``--progress-interval SECONDS`` prints a periodic one-line campaign
status (runs/s, ETA, outcome mix, retries/quarantines, slowest shard).

Injection fast path: campaigns run with the execution-prefix snapshot
cache on by default (``--no-snapshots`` disables it; records are
bit-identical either way).

The output stream carries only the rendered artifacts, each under a
``### name`` header: it is a pure function of ``--seed`` and
``--scale``, byte-identical across worker counts, isolation modes,
batch sizes, snapshot settings and resumes.  Each experiment's wall
time goes to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from collections.abc import Callable, Sequence
from typing import Any

from repro.carolfi.batchrunner import DEFAULT_BATCH_SIZE
from repro.carolfi.engine import ShardProgress
from repro.carolfi.isolation import IsolationConfig, IsolationMode
from repro.experiments import (
    criticality,
    data as data_mod,
    extrapolation,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    futurework,
    mitigation,
    propagation,
)
from repro.telemetry import Telemetry, TelemetryConfig, summary_table

__all__ = ["EXPERIMENTS", "main", "print_experiments", "run_experiments"]

#: name -> (run, render) pairs, in paper order.
EXPERIMENTS: dict[str, tuple[Callable, Callable]] = {
    "figure2": (figure2.run, figure2.render),
    "figure3": (figure3.run, figure3.render),
    "figure4": (figure4.run, figure4.render),
    "figure5": (figure5.run, figure5.render),
    "figure6": (figure6.run, figure6.render),
    "criticality": (criticality.run, criticality.render),
    "extrapolation": (extrapolation.run, extrapolation.render),
    "mitigation": (mitigation.run, mitigation.render),
    "futurework": (futurework.run, futurework.render),
    "propagation": (propagation.run, propagation.render),
}


def _print_progress(event: ShardProgress) -> None:
    """One stderr heartbeat line per shard event."""
    eta = "?" if not math.isfinite(event.eta_s) else f"{event.eta_s:.0f}s"
    line = (
        f"[shard {event.shard_index + 1}/{event.shard_count}] "
        f"{event.event:<8} {event.done_runs}/{event.total_runs} injections "
        f"({event.rate:.1f}/s, eta {eta})"
    )
    if event.detail:
        line += f" — {event.detail}"
    print(line, file=sys.stderr, flush=True)


def run_experiments(
    names: Sequence[str],
    seed: int = 2017,
    scale: float = 1.0,
    stream: Any = None,
    workers: int | None = 1,
    checkpoint_root: str | None = None,
    isolation: IsolationConfig | None = None,
    progress: Callable[[ShardProgress], None] | None = None,
    telemetry: Telemetry | None = None,
    snapshots: bool = True,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> data_mod.ExperimentData:
    """Run the named experiments, printing each rendered artifact."""
    stream = stream or sys.stdout
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}; known: {list(EXPERIMENTS)}")
    shared = data_mod.ExperimentData(
        seed=seed,
        scale=scale,
        workers=workers,
        checkpoint_root=checkpoint_root,
        isolation=isolation,
        telemetry=telemetry,
        progress=progress,
        snapshots=snapshots,
        batch_size=batch_size,
    )
    print_experiments(names, shared, stream)
    return shared


def print_experiments(names: Sequence[str], data: data_mod.ExperimentData, stream: Any) -> None:
    """Render the named experiments of ``data`` to ``stream``.

    Only the artifacts reach ``stream``; each experiment's wall time
    goes to stderr, so the stream is a pure function of the data's seed
    and scale.
    """
    for name in names:
        run, render = EXPERIMENTS[name]
        start = time.perf_counter()
        result = run(data)
        print(f"### {name} ({time.perf_counter() - start:.1f}s)", file=sys.stderr)
        print(f"\n### {name}\n", file=stream)
        print(render(result), file=stream)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the Xeon Phi reliability paper.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=list(EXPERIMENTS),
        help=f"subset to run (default: all of {list(EXPERIMENTS)})",
    )
    parser.add_argument("--seed", type=int, default=2017, help="campaign seed")
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="campaign size multiplier (1.0 = full, 0.1 = quick)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="shorthand for --scale 0.1"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes of every campaign (beam, injection, hardened) "
        "(default: $REPRO_WORKERS, else all cpu cores; 1 = serial in-process)",
    )
    parser.add_argument(
        "--checkpoints",
        metavar="DIR",
        default=None,
        help="checkpoint root; campaigns resume from completed shards under it",
    )
    parser.add_argument(
        "--isolation",
        choices=[mode.value for mode in IsolationMode],
        default=None,
        help="where each injection executes: 'inproc' (default, fast) or "
        "'subprocess' (every lease in a forked lease worker, even with "
        "--workers 1; crashes and hangs become observed process deaths, "
        "as in the paper)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="hard per-injection wall-clock deadline; a lease worker whose "
        "run passes it is killed and the run recorded as a hang DUE "
        "(subprocess isolation only; default: 60, far above the ~30 ms "
        "slowest golden run at default sizes, so only a run that never "
        "returns reaches it)",
    )
    parser.add_argument(
        "--mem-limit",
        type=float,
        default=None,
        metavar="MB",
        help="RSS ceiling for a lease worker during a run; a worker over it "
        "is killed and the run recorded as an OOM DUE (subprocess isolation "
        "only)",
    )
    parser.add_argument(
        "--no-snapshots",
        action="store_true",
        help="disable the execution-prefix snapshot fast path (every run "
        "replays from step 0; records are bit-identical either way)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=DEFAULT_BATCH_SIZE,
        metavar="N",
        help="vectorized batch width of the CAROL-FI and hardened campaigns: "
        "step groups of corrupted states together through the benchmarks' "
        f"batched kernels (default {DEFAULT_BATCH_SIZE}; 1 runs every run "
        "scalar; records are byte-identical at any width)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-shard heartbeats (injections/sec, ETA) to stderr",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="export campaign metrics on exit: Prometheus text, or an "
        "appended JSONL snapshot for a .json/.jsonl suffix; also prints "
        "the metric summary table to stderr",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record phase-timing spans (campaign, shard, run, corrupt, "
        "compare, checkpoint_write...) as JSONL trace events",
    )
    parser.add_argument(
        "--progress-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="print a one-line campaign status (runs/s, ETA, outcome mix, "
        "retries, slowest shard) to stderr at most this often",
    )
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    args = parser.parse_args(argv)
    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    scale = 0.1 if args.quick else args.scale
    isolation = None
    if (
        args.isolation == IsolationMode.SUBPROCESS.value
        or args.timeout is not None
        or args.mem_limit is not None
    ):
        isolation = IsolationConfig(
            mode=IsolationMode.SUBPROCESS,
            timeout_s=IsolationConfig.timeout_s if args.timeout is None else args.timeout,
            mem_limit_mb=args.mem_limit,
        )
    telemetry = None
    if (
        args.metrics_out is not None
        or args.trace is not None
        or args.progress_interval is not None
    ):
        telemetry = Telemetry(
            TelemetryConfig(
                metrics_path=args.metrics_out,
                trace_path=args.trace,
                progress_interval_s=args.progress_interval,
            )
        )
    try:
        run_experiments(
            args.experiments,
            seed=args.seed,
            scale=scale,
            workers=args.workers,
            checkpoint_root=args.checkpoints,
            isolation=isolation,
            progress=_print_progress if args.progress else None,
            telemetry=telemetry,
            snapshots=not args.no_snapshots,
            batch_size=args.batch_size,
        )
    finally:
        if telemetry is not None:
            exported = telemetry.finalize()
            print(summary_table(telemetry.registry), file=sys.stderr)
            if exported is not None:
                print(f"metrics written to {exported}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
