"""The benchmark's workloads, and one execution of one of them.

An *execution* runs every campaign of a workload once through the
program's public entry points: ``BeamExperiment``, ``run_campaign`` and
``run_hardened_campaign``.  :func:`execute_cold` runs each execution in
a fresh process, so peak RSS, memoised inputs and warm caches never
carry over from one execution to the next.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import resource
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NoReturn

import hostspeed
from tracing import Tracer, setup_targets, trace_targets

__all__ = [
    "PINNED_SEED",
    "WORKLOADS",
    "ExecutionError",
    "Workload",
    "digest",
    "execute",
    "execute_cold",
    "input_seed",
    "preload",
]

#: The paper's seed.  Execution 0 of every run uses it, so every run
#: checks one full execution against the pinned digest below.
PINNED_SEED = 2017

#: Batch width of the in-process and pooled CAROL-FI campaigns.
BATCH_SIZE = 8

#: Span names whose inclusive time is set-up for in-process workloads.
SETUP_SPANS = ("beam.setup", "carolfi.setup", "hardening.setup")


def input_seed(seed: int, index: int) -> int:
    """The campaign seed of execution ``index`` of a run seeded ``seed``.

    Execution 0 always replays the pinned seed; the others draw fresh
    inputs from ``seed``, so a run's median spans several inputs.
    """
    return PINNED_SEED if index == 0 else seed * 1000 + index


def pool_workers() -> int:
    """min(2, usable CPUs): the pooled engine's worker count."""
    return min(2, len(os.sched_getaffinity(0)))


@dataclass
class EngineProbe:
    """Engine timing seen through ``run_campaign``'s ``progress`` callback."""

    called: float = field(default_factory=time.perf_counter)
    returned: float = 0.0
    started: dict[int, float] = field(default_factory=dict)
    finished: dict[int, float] = field(default_factory=dict)

    def __call__(self, event: Any) -> None:
        now = time.perf_counter()
        if event.event == "started":
            self.started.setdefault(event.shard_index, now)
        elif event.event == "finished":
            self.finished[event.shard_index] = now

    @property
    def first_dispatch_s(self) -> float:
        return min(self.started.values()) - self.called

    @property
    def busy_s(self) -> float:
        return sum(self.finished[i] - self.started[i] for i in self.finished)

    @property
    def tail_s(self) -> float:
        return self.returned - max(self.finished.values())


@dataclass
class Context:
    """Where one execution's campaigns write, and what they report back."""

    work: Path
    engines: list[EngineProbe] = field(default_factory=list)


def _beam(kernel: str, seed: int, runs: int, ctx: Context) -> list:
    from repro.beam.experiment import BeamExperiment

    return BeamExperiment(kernel, seed=seed).run_campaign(runs).trials


def _carolfi_dense(kernel: str, seed: int, runs: int, ctx: Context) -> list:
    from repro.carolfi.campaign import CampaignConfig, run_campaign

    config = CampaignConfig(benchmark=kernel, injections=runs, seed=seed, batch_size=BATCH_SIZE)
    return run_campaign(config, workers=1).records


def _hardened(kernel: str, seed: int, runs: int, ctx: Context) -> list:
    from repro.hardening.hardened import run_hardened_campaign

    return run_hardened_campaign(kernel, injections=runs, seed=seed).records


def _carolfi_pool(kernel: str, seed: int, runs: int, ctx: Context) -> list:
    from repro.carolfi.campaign import CampaignConfig, run_campaign

    config = CampaignConfig(benchmark=kernel, injections=runs, seed=seed, batch_size=BATCH_SIZE)
    probe = EngineProbe()
    result = run_campaign(
        config,
        workers=pool_workers(),
        checkpoint_dir=ctx.work / "checkpoints" / kernel,
        progress=probe,
    )
    probe.returned = time.perf_counter()
    ctx.engines.append(probe)
    return result.records


@dataclass(frozen=True)
class Workload:
    """One set of campaigns the benchmark runs, and why it exists."""

    name: str
    why: str
    kernels: tuple[str, ...]
    runs: int
    """Perturbed runs per kernel in one execution."""
    rep_s: float
    """Nominal seconds of one execution on a 2-core x86 host; sets how
    many traced executions fit in a run."""
    campaign: Callable[[str, int, int, Context], list]
    pooled: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "beam",
            "Figure 2-3 beam campaigns on the five irradiated kernels: full replays through "
            "the machine-model strike path, CLAMR k-d tree heavy, no CAROL-FI fast path",
            ("clamr", "dgemm", "hotspot", "lavamd", "lud"),
            runs=30,
            rep_s=2.0,
            campaign=_beam,
        ),
        Workload(
            "carolfi-dense",
            "Figure 4-6 CAROL-FI campaigns on the five batchable kernels in process: prefix "
            "restore and batched suffixes dominate, no CLAMR",
            ("dgemm", "hotspot", "lavamd", "lud", "nw"),
            runs=200,
            rep_s=2.0,
            campaign=_carolfi_dense,
        ),
        Workload(
            "hardened",
            "Section 7 hardened campaigns on all six kernels: guards verify and resync around "
            "every step of a full replay, CLAMR k-d tree heavy",
            ("clamr", "dgemm", "hotspot", "lavamd", "lud", "nw"),
            runs=20,
            rep_s=4.0,
            campaign=_hardened,
        ),
        Workload(
            "carolfi-pool",
            "the carolfi-dense campaigns through the sharded engine with min(2, nproc) workers "
            "and checkpoints: fan-out, shared-memory attach, checkpoint writes and merge",
            ("dgemm", "hotspot", "lavamd", "lud", "nw"),
            runs=200,
            rep_s=2.5,
            campaign=_carolfi_pool,
            pooled=True,
        ),
    )
}


# -- records --------------------------------------------------------------------


def canonical(record: Any) -> dict:
    """A record as plain JSON data: ``to_dict()``, else its dataclass fields."""
    if hasattr(record, "to_dict"):
        return record.to_dict()
    return dataclasses.asdict(record)


def digest(campaigns: list[tuple[str, list[dict]]]) -> str:
    """SHA-256 of a workload's records as canonical JSON."""
    blob = json.dumps(campaigns, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def well_formed(rows: list[dict], runs: int) -> bool:
    """One record per planned run, in run order."""
    index = [row.get("trial", row.get("run_index")) for row in rows]
    return index == list(range(runs))


# -- one execution ------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and of any child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def execute(
    workload: Workload,
    seed: int,
    work: Path,
    traced: bool,
    runs: int | None = None,
    kernels: tuple[str, ...] | None = None,
) -> dict[str, Any]:
    """Run every campaign of ``workload`` once and measure it.

    ``runs`` and ``kernels`` shrink the workload for tests.  Returns the
    end-to-end numbers, the record digest and, traced, the raw span
    totals the per-layer metrics are computed from.  ``wall_s`` and
    ``setup_s`` are scaled to the reference host (:mod:`hostspeed`);
    ``raw_wall_s`` and ``raw_setup_s`` are the same times as measured.
    """
    runs = workload.runs if runs is None else runs
    kernels = workload.kernels if kernels is None else kernels
    ctx = Context(work=work)
    campaigns: list[tuple[str, list]] = []
    failed = 0
    raw_wall_s = raw_setup_s = wall_s = setup_s = 0.0

    def setup_so_far() -> float:
        if workload.pooled:
            return sum(p.first_dispatch_s for p in ctx.engines)
        return sum(tracer.inclusive_s[name] for name in SETUP_SPANS)

    workers = pool_workers() if workload.pooled else 1
    with hostspeed.HostProbe(workers) as probe, Tracer() as tracer:
        tracer.install(trace_targets() if traced else setup_targets())
        probe()  # the first call of a fresh process runs cold
        speed = [probe()]
        for kernel in kernels:
            setup_before = setup_so_far()
            start = time.perf_counter()
            try:
                campaigns.append((kernel, workload.campaign(kernel, seed, runs, ctx)))
            except Exception:  # a failed campaign is a result: report it, go on
                traceback.print_exc()
                failed += runs
            campaign_s = time.perf_counter() - start
            campaign_setup_s = setup_so_far() - setup_before
            speed.append(probe())
            raw_wall_s += campaign_s
            raw_setup_s += campaign_setup_s
            wall_s += hostspeed.scaled(campaign_s, *speed[-2:])
            setup_s += hostspeed.scaled(campaign_setup_s, *speed[-2:])
    rows = [(kernel, [canonical(r) for r in records]) for kernel, records in campaigns]
    result: dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "raw_wall_s": raw_wall_s,
        "raw_setup_s": raw_setup_s,
        "probe_s": statistics.median(speed),
        "runs": sum(len(r) for _, r in rows),
        "attempted": runs * len(kernels),
        "failed": failed,
        "well_formed": all(well_formed(r, runs) for _, r in rows),
        "peak_rss_mb": peak_rss_mb(),
        "digest": digest(rows),
        "workers": workers,
        "engine": {
            "shards": sum(len(p.started) for p in ctx.engines),
            "first_dispatch_s": sum(p.first_dispatch_s for p in ctx.engines),
            "busy_s": sum(p.busy_s for p in ctx.engines),
            "tail_s": sum(p.tail_s for p in ctx.engines),
            "checkpoint_bytes": sum(
                f.stat().st_size for f in (work / "checkpoints").glob("*/shard-*.jsonl")
            ),
        },
    }
    if traced:
        result["trace"] = {
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
            "self_s": dict(tracer.self_s),
            "inclusive_s": dict(tracer.inclusive_s),
        }
    return result


# -- a fresh process per execution ----------------------------------------------------

#: The program modules every workload imports.  :func:`preload` imports
#: them once, so forked executions pay no import time (about 1.5 s).
PROGRAM_MODULES = (
    "repro.beam.experiment",
    "repro.carolfi.batchrunner",
    "repro.carolfi.campaign",
    "repro.carolfi.engine",
    "repro.hardening.hardened",
    "repro.service.local",
    "repro.service.scheduler",
)


class ExecutionError(RuntimeError):
    """An execution process failed, timed out or returned no result."""


def preload() -> None:
    """Import the program before the first execution is forked."""
    for name in PROGRAM_MODULES:
        importlib.import_module(name)


def execute_cold(
    workload: Workload, seed: int, traced: bool, work: Path, timeout: float
) -> dict[str, Any]:
    """:func:`execute` in a fresh process forked from this one.

    The caller has imported the program (:func:`preload`) but run no
    campaign, so the execution starts without golden runs, snapshots,
    supervisors or memoised inputs, exactly like a new process would,
    minus the import time.  It gets ``work`` as its private scratch,
    shared-memory and temp directory.  Its whole process group, engine
    workers included, has ended when this returns.
    """
    shutil.rmtree(work, ignore_errors=True)
    (work / "shm").mkdir(parents=True)
    (work / "tmp").mkdir()
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _execution_process(workload, seed, traced, work, write_fd)
    os.close(write_fd)
    try:
        os.setpgid(pid, pid)
    except OSError:
        pass  # the child set it first, or has already exited
    timed_out = False
    try:
        data = _read_until_eof(read_fd, timeout)
    except TimeoutError:
        timed_out = True
    finally:
        os.close(read_fd)
        status = _reap(pid, kill_first=timed_out)
        shutil.rmtree(work, ignore_errors=True)
    if timed_out:
        raise ExecutionError(f"{workload.name} seed {seed}: timed out after {timeout:.0f} s")
    if status != 0 or not data:
        raise ExecutionError(f"{workload.name} seed {seed}: execution exited with {status}")
    return json.loads(data)


def _execution_process(
    workload: Workload, seed: int, traced: bool, work: Path, fd: int
) -> NoReturn:
    status = 1
    try:
        os.setpgid(0, 0)
        os.environ["REPRO_SHM_DIR"] = str(work / "shm")
        os.environ["TMPDIR"] = str(work / "tmp")
        tempfile.tempdir = None
        result = execute(workload, seed, work, traced)
        result["shm_left"] = sorted(os.listdir(work / "shm"))
        with os.fdopen(fd, "w") as out:
            json.dump(result, out)
        status = 0
    except BaseException:  # report, then leave without unwinding into the caller
        traceback.print_exc()
    finally:
        sys.stderr.flush()
        os._exit(status)


def _read_until_eof(fd: int, timeout: float) -> bytes:
    deadline = time.monotonic() + timeout
    chunks = []
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError
        ready, _, _ = select.select([fd], [], [], left)
        if ready:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _reap(pid: int, kill_first: bool) -> int:
    """Wait for the execution, then end and await its process group."""
    if kill_first:
        _kill_group(pid)
    _, status = os.waitpid(pid, 0)
    _kill_group(pid)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)
    return os.waitstatus_to_exitcode(status)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
