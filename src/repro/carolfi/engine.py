"""Sharded, parallel, resumable, fault-tolerant campaign execution.

The paper's numbers rest on 10,000+ runs per benchmark, in the beam,
CAROL-FI and hardened-code studies alike; running them one after
another in one process is the reproduction's single biggest
bottleneck.  A campaign is split into deterministic *shards*
(contiguous run-index ranges) whose records are merged back in
canonical run-index order.  This module holds the parts of that path —
the shard plan, the lease body's run loop (:func:`_execute_shard`),
checkpoints, the retry policy, the failure-event log and the
convergence gate; :func:`repro.carolfi.campaign.run_campaign`, the one
campaign function, assembles them around the shard scheduler.  None of
it knows a campaign's kind (:class:`~repro.carolfi.campaign.CampaignKind`).

Determinism is structural, not incidental: every run derives its
random stream from the seed, the benchmark and the run index via
:func:`repro.util.rng.derive_rng`, so a record is bit-identical no
matter which worker executes it, in what order, or how the campaign is
sharded.  ``run_campaign(config, workers=4)`` therefore equals
``run_campaign(config, workers=1)`` record for record.

Shards are the unit of checkpoints, resume, drift detection and early
stop, not of execution: the scheduler leases each free executor a
contiguous run range of whole shards (the whole campaign serially, one
range per worker in a pool), and ``BatchRunner`` makes one plan per
lease.  Resumability: with a ``checkpoint_dir``, the scheduler writes
each shard's records to its own JSONL file (header → records → ``done``
footer) the moment the shard's last record arrives, whichever process
executed it and whether or not its lease is still running.  On
restart the campaign replays every *complete* shard file from disk and
re-runs only the rest.  A checkpoint is trusted only if its stored
config fingerprint matches the requested campaign; a mismatch raises
:class:`CheckpointError` rather than silently mixing campaigns.

Fault domains: the shard scheduler (:func:`repro.service.scheduler.run_shards`)
alone decides retry and quarantine, with one :class:`RetryPolicy` for
every executor.  A failed execution is retried with deterministic
exponential backoff plus jitter, a run that fails
``RetryPolicy.max_run_deaths`` times is **quarantined** (recorded as its
kind's DUE record with a ``sandbox:`` detail, never run again), and only
a shard that keeps failing *without making progress* raises
:class:`ShardFailure`; every event lands in ``failures.jsonl``.

Each executor hands :func:`_execute_shard` its own runner: the
:class:`~repro.carolfi.isolation.InjectionSandbox` it owns under
subprocess isolation (crashes and hangs become *observed process
deaths*, like the paper's GDB-supervised runs), or the kind's runner in
its own process.  The default serial in-process campaign spawns no
process, so the test suite remains subprocess-free.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.carolfi.isolation import SandboxError
from repro.faults.outcome import DueKind
from repro.telemetry import (
    DISABLED,
    Telemetry,
    current_registry,
    current_tracer,
    stamp,
)
from repro.telemetry.convergence import ConvergenceMonitor
from repro.util.jsonlog import JsonlLog, dump_records, load_records
from repro.util.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover — the campaign module imports the engine lazily
    from repro.carolfi.campaign import CampaignKind

__all__ = [
    "CheckpointError",
    "EARLY_STOP_MIN_CELL_RUNS",
    "FAILURE_LOG_NAME",
    "FailureSink",
    "RetryPolicy",
    "ShardFailure",
    "ShardProgress",
    "ShardRunError",
    "ShardSpec",
    "backoff_delay",
    "campaign_fingerprint",
    "plan_shards",
    "resolve_workers",
    "shard_path",
    "write_shard_checkpoint",
]

#: Checkpoint file format version (bump on incompatible layout changes).
CHECKPOINT_VERSION = 1

#: Default number of shards a campaign is split into.  Worker-count
#: independent on purpose: the shard plan (and hence the checkpoint
#: layout) depends only on the campaign itself, so a run started with 8
#: workers can be resumed with 2.
DEFAULT_SHARD_COUNT = 16

#: Default failure-event log file name (under the checkpoint directory).
FAILURE_LOG_NAME = "failures.jsonl"

ProgressCallback = Callable[["ShardProgress"], None]


class CheckpointError(RuntimeError):
    """A checkpoint directory does not belong to the requested campaign."""


class ShardFailure(RuntimeError):
    """A shard kept failing without making progress and was abandoned."""

    def __init__(self, shard_index: int, attempts: int, detail: str):
        super().__init__(f"shard {shard_index} failed after {attempts} attempts: {detail}")
        self.shard_index = shard_index
        self.attempts = attempts


class ShardRunError(RuntimeError):
    """One specific run raised an exception that escaped the crash net.

    Carries the run index so the retry logic can attribute the failure
    and quarantine the run instead of abandoning the whole shard.
    """

    def __init__(self, shard_index: int, run_index: int, cause: BaseException):
        super().__init__(f"run {run_index} raised {type(cause).__name__}: {cause}")
        self.shard_index = shard_index
        self.run_index = run_index


@dataclass(frozen=True)
class RetryPolicy:
    """Fault-domain policy: backoff, liveness, and quarantine limits."""

    max_attempts: int = 4
    """Consecutive *no-progress* shard failures tolerated before the
    campaign aborts with :class:`ShardFailure`.  Failures that advance
    the shard (new runs completed, or a run quarantined) reset the
    counter, so a shard full of poison runs still completes."""

    backoff_base_s: float = 0.25
    """First retry delay; doubles every consecutive attempt."""

    backoff_cap_s: float = 8.0
    """Upper bound on the exponential delay (before jitter)."""

    liveness_timeout_s: float = 300.0
    """A worker that sends no heartbeat for this long is reaped (killed
    and its shard re-dispatched, the hung run charged a death)."""

    max_run_deaths: int = 2
    """Failed executions attributed to one run before it is quarantined.

    A failed execution is an exception that escaped the crash net
    (including a sandbox worker's own death), a shard-worker death, or
    a reap.  The scheduler is the only reader: one threshold for every
    execution mode."""

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_s < 0 or self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("need 0 <= backoff_base_s <= backoff_cap_s")
        if self.liveness_timeout_s <= 0:
            raise ValueError("liveness_timeout_s must be positive")
        if self.max_run_deaths < 1:
            raise ValueError("max_run_deaths must be at least 1")


def backoff_delay(
    seed: int, shard_index: int, attempt: int, policy: RetryPolicy | None = None
) -> float:
    """Deterministic exponential backoff with jitter for one retry.

    ``attempt`` counts from 1.  The delay doubles per attempt up to the
    policy cap and is jittered into ``[0.5, 1.5)`` of itself so retrying
    shards do not stampede; the jitter derives from
    ``(seed, shard_index, attempt)``, so a schedule is reproducible
    under a fixed campaign seed.
    """
    if attempt < 1:
        raise ValueError("attempt counts from 1")
    policy = policy or RetryPolicy()
    rng = derive_rng(seed, "engine", "backoff", shard_index, attempt)
    delay = min(policy.backoff_base_s * (2.0 ** (attempt - 1)), policy.backoff_cap_s)
    return delay * (0.5 + float(rng.random()))


@dataclass(frozen=True)
class ShardSpec:
    """One contiguous slice ``[start, stop)`` of a campaign's run indices."""

    index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.stop:
            raise ValueError(f"bad shard range [{self.start}, {self.stop})")

    @property
    def size(self) -> int:
        return self.stop - self.start

    def run_indices(self) -> range:
        return range(self.start, self.stop)


@dataclass(frozen=True)
class ShardProgress:
    """One heartbeat from the engine, delivered to the progress callback.

    ``event`` is one of ``"replayed"`` (shard restored from its
    checkpoint), ``"started"``, ``"finished"``, ``"retried"`` (worker
    failure, shard re-dispatched after backoff), ``"reaped"`` (hung
    worker killed), ``"quarantined"`` (poison run recorded as DUE and
    skipped) or ``"failed"``.  ``rate`` counts live injections/sec
    (replayed shards excluded) and ``eta_s`` is the projected seconds
    remaining at that rate (``inf`` until the first shard finishes).
    """

    event: str
    shard_index: int
    shard_count: int
    shard_runs: int
    done_runs: int
    total_runs: int
    elapsed_s: float
    rate: float
    eta_s: float
    detail: str = ""


def plan_shards(injections: int, shard_size: int | None = None) -> tuple[ShardSpec, ...]:
    """Split ``injections`` runs into contiguous shards.

    The default shard size targets :data:`DEFAULT_SHARD_COUNT` shards
    and depends only on the injection count, never on the worker count.
    """
    if injections < 1:
        raise ValueError("injections must be positive")
    if shard_size is None:
        shard_size = max(1, math.ceil(injections / DEFAULT_SHARD_COUNT))
    if shard_size < 1:
        raise ValueError("shard_size must be positive")
    starts = range(0, injections, shard_size)
    return tuple(
        ShardSpec(index=i, start=s, stop=min(s + shard_size, injections))
        for i, s in enumerate(starts)
    )


def campaign_fingerprint(config: "CampaignKind[Any]", shard_size: int | None = None) -> str:
    """Stable hash of everything that determines a campaign's records.

    Stored in every checkpoint header; a resume with a different kind,
    benchmark, seed, size, fault-model set, policy or shard plan is
    detected before any stale record is trusted.  The payload is the
    config's wire form minus its kind's ``fingerprint_excludes``, plus
    the shard plan: isolation mode, retry policy and CAROL-FI's
    ``snapshots``/``batch_size``/``target_ci`` knobs are deliberately
    *excluded* — they change how runs are executed and supervised,
    never what their records contain, so a campaign checkpointed in one
    mode may resume in another, including resuming a scalar checkpoint
    with batching on or vice versa.  Beam and hardened payloads name
    their kind, so no kind resumes another's checkpoints.
    """
    wire = config.to_wire()
    payload = {name: wire[name] for name in wire if name not in config.fingerprint_excludes}
    payload.update(version=CHECKPOINT_VERSION, shard_size=shard_size)
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a worker count: explicit > ``REPRO_WORKERS`` > cpu count."""
    if workers is None:
        env = os.environ.get("REPRO_WORKERS", "").strip()
        workers = int(env) if env else (os.cpu_count() or 1)
    workers = int(workers)
    if workers < 1:
        raise ValueError("workers must be positive")
    return workers


def shard_path(checkpoint_dir: str | Path, shard_index: int) -> Path:
    """Checkpoint file of one shard."""
    return Path(checkpoint_dir) / f"shard-{shard_index:05d}.jsonl"


# -- failure-event log ---------------------------------------------------------


class FailureSink:
    """Appends structured failure events to ``failures.jsonl`` (or not).

    The file is created eagerly, so "the campaign saw zero failures" is
    distinguishable from "failure logging was off" (and CI can always
    upload the artifact).  Events are stamped with a wall/monotonic
    clock pair (:func:`repro.telemetry.stamp`) so their ordering
    survives NTP slews, and every event — logged to disk or not — is
    counted into the campaign's ``repro_failure_events_total`` metric.

    All failure events funnel through the engine-side sink exactly once
    (worker-side sandbox events are forwarded over the pipe first), so
    this is the one place the counter can live without double counting.
    """

    def __init__(self, path: str | Path | None, telemetry: Telemetry | None = None):
        self._log: JsonlLog | None = None
        self._counter = (telemetry or DISABLED).registry.counter(
            "repro_failure_events_total",
            help="Campaign failure events (retries, deaths, reaps, quarantines) by kind.",
        )
        if path is not None:
            target = Path(path)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.touch(exist_ok=True)
            self._log = JsonlLog(target)

    def __call__(self, event: dict[str, Any]) -> None:
        self._counter.inc(event=str(event.get("event", "unknown")))
        if self._log is not None:
            self._log.append({**stamp(), **event})

    def close(self) -> None:
        if self._log is not None:
            self._log.close()


# -- shard execution (runs in whichever process executes the lease) -----------


def _execute_shard(
    config: "CampaignKind[Any]",
    spec: ShardSpec,
    runner: Any,
    skip_runs: dict[int, tuple[str, str]] | None = None,
    on_run: Callable[[int], None] | None = None,
    on_record: Callable[[int, dict], None] | None = None,
    stop: Callable[[], int] | None = None,
) -> None:
    """Run one lease's range, handing each record to ``on_record(run, row)``.

    ``spec`` is the lease's run range: it may span several planned
    shards (``spec.index`` is the first), and a kind's batched path
    (:meth:`~repro.carolfi.campaign.CampaignKind.run_batch`) plans the
    whole range at once.  ``runner`` is the executor's own — the
    :class:`~repro.carolfi.isolation.InjectionSandbox` it owns, or the
    kind's runner in its process; both take ``run_one`` and
    ``due_record`` calls with the run index and the kind's ``run_args``.
    ``skip_runs`` maps quarantined runs to their ``(due_kind, detail)``:
    they are recorded as the runner's DUE records, not executed.
    ``on_run`` fires before each scalar run (the liveness beat the
    scheduler attributes deaths with).  ``stop`` is read before every
    run and returns the range's current end, so an executor can narrow
    (steal) or empty (cancel) the range at a run boundary.  An exception
    a run lets escape — a sandbox worker's death included — is raised
    as :class:`ShardRunError` naming that run.  Checkpoints are the
    scheduler's business, written from the records.

    Telemetry is ambient (:func:`repro.telemetry.current_registry` /
    ``current_tracer``), so inline and worker executors instrument
    identically: per-outcome run counters, a run-duration histogram and
    one ``shard`` span around the whole range, batch pass included.
    """
    registry = current_registry()
    tracer = current_tracer()
    runs_total = registry.counter(
        "repro_runs_total", help="Injection runs executed (including re-executions), by outcome."
    )
    dues_total = registry.counter(
        "repro_runs_due_total", help="Executed runs classified DUE, by due kind."
    )
    run_seconds = registry.histogram(
        "repro_run_duration_seconds", help="Wall-clock duration of one injection run."
    )
    end = stop or (lambda: spec.stop)
    skip = skip_runs or {}
    with tracer.span("shard", shard=spec.index, start=spec.start, stop=spec.stop):
        # The batched path, if the kind has one, runs first — inside the
        # sandbox worker when there is one.  Runs it completes are
        # looked up below; everything else — fallbacks, skips, a
        # batch-wide abort — flows through the scalar machinery,
        # including its error attribution.
        batched = config.run_batch(runner, [k for k in range(spec.start, end()) if k not in skip])
        for run_index in spec.run_indices():
            if run_index >= end():
                break
            args = config.run_args(run_index)
            if run_index in skip:
                kind, detail = skip[run_index]
                record = runner.due_record(run_index, *args, kind=DueKind(kind), detail=detail)
            elif run_index in batched:
                record = batched[run_index]
            else:
                if on_run is not None:
                    on_run(run_index)
                began = time.perf_counter()
                try:
                    record = runner.run_one(run_index, *args)
                except SandboxError:
                    raise  # worker infrastructure failure: shard-level, not run-level
                except Exception as exc:
                    raise ShardRunError(spec.index, run_index, exc) from exc
                if registry.enabled:
                    run_seconds.observe(time.perf_counter() - began)
            row = record.to_dict()
            runs_total.inc(outcome=row["outcome"])
            if row.get("due_kind") is not None:
                dues_total.inc(kind=row["due_kind"])
            if on_record is not None:
                on_record(run_index, row)


# -- checkpoint replay --------------------------------------------------------


def _replay_shard(
    path: Path, fingerprint: str, spec: ShardSpec, record_type: Any
) -> list[dict[str, Any]] | None:
    """Load one shard's record rows from its checkpoint file.

    Every row must decode as a ``record_type``.  Returns ``None`` when
    the shard must be (re-)run: missing file, partial write (no
    ``done`` footer, short record count, truncated trailing line) or
    structural damage.  Raises :class:`CheckpointError`
    when the file belongs to a *different* campaign — that is never
    silently repaired.
    """
    if not path.exists():
        return None
    try:
        rows = load_records(path)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None  # damaged beyond the tolerated trailing line: re-run
    if not rows:
        return None
    header = rows[0]
    if not isinstance(header, dict) or header.get("kind") != "header":
        return None
    if header.get("config_hash") != fingerprint:
        raise CheckpointError(
            f"checkpoint {path} was written by a different campaign "
            f"(config hash {header.get('config_hash')!r}, expected {fingerprint!r}); "
            "point --checkpoints at a fresh directory or delete the stale one"
        )
    if (header.get("shard"), header.get("start"), header.get("stop")) != (
        spec.index,
        spec.start,
        spec.stop,
    ):
        raise CheckpointError(
            f"checkpoint {path} covers shard "
            f"{header.get('shard')}[{header.get('start')}:{header.get('stop')}], "
            f"expected {spec.index}[{spec.start}:{spec.stop}]"
        )
    footer = rows[-1]
    if not isinstance(footer, dict) or footer.get("kind") != "done":
        return None  # worker was killed before finishing: re-run
    body = rows[1:-1]
    if footer.get("count") != len(body) or len(body) != spec.size:
        return None
    try:
        rows = [row["data"] for row in body]
        for row in rows:
            record_type.from_dict(row)
    except (KeyError, TypeError, ValueError):
        return None
    return rows


def write_shard_checkpoint(
    path: str | Path, fingerprint: str, spec: ShardSpec, rows: Iterable[dict[str, Any]]
) -> None:
    """Write one complete shard checkpoint: header, records, ``done`` footer.

    The scheduler calls this once per shard, when its last record has
    arrived, so a killed campaign leaves only complete shard files (a
    torn write lacks the footer and :func:`_replay_shard` re-runs it).
    """
    header = {
        "kind": "header",
        "version": CHECKPOINT_VERSION,
        "config_hash": fingerprint,
        "shard": spec.index,
        "start": spec.start,
        "stop": spec.stop,
    }
    records = [{"kind": "record", "data": row} for row in rows]
    dump_records(path, [header, *records, {"kind": "done", "count": len(records)}])


def _validate_checkpoint_dir(checkpoint_dir: Path, fingerprint: str, kind: str | None) -> None:
    """Create/validate the directory-level ``campaign.json`` marker.

    A new marker names the campaign's ``kind`` when its fingerprint does
    (``None``: CAROL-FI's, whose markers predate kinds), so
    ``repro-inspect`` can read its records.
    """
    marker = checkpoint_dir / "campaign.json"
    if marker.exists():
        try:
            stored = json.loads(marker.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"unreadable campaign marker {marker}: {exc}") from exc
        if stored.get("config_hash") != fingerprint:
            raise CheckpointError(
                f"checkpoint directory {checkpoint_dir} belongs to a different "
                f"campaign (config hash {stored.get('config_hash')!r}, "
                f"expected {fingerprint!r})"
            )
        return
    stored = {"config_hash": fingerprint, "version": CHECKPOINT_VERSION}
    if kind is not None:
        stored["kind"] = kind
    marker.write_text(json.dumps(stored, sort_keys=True) + "\n", encoding="utf-8")


# -- the engine ---------------------------------------------------------------


class _Heartbeat:
    """Computes injections/sec and ETA for progress events."""

    def __init__(
        self,
        callback: ProgressCallback | None,
        shard_count: int,
        total_runs: int,
    ):
        self.callback = callback
        self.shard_count = shard_count
        self.total_runs = total_runs
        self.done_runs = 0
        self.live_runs = 0
        self.started = time.perf_counter()

    def record_done(self, runs: int, live: bool) -> None:
        self.done_runs += runs
        if live:
            self.live_runs += runs

    def emit(self, event: str, spec: ShardSpec, detail: str = "") -> None:
        if self.callback is None:
            return
        elapsed = time.perf_counter() - self.started
        rate = self.live_runs / elapsed if elapsed > 0 else 0.0
        remaining = self.total_runs - self.done_runs
        eta = remaining / rate if rate > 0 else math.inf
        self.callback(
            ShardProgress(
                event=event,
                shard_index=spec.index,
                shard_count=self.shard_count,
                shard_runs=spec.size,
                done_runs=self.done_runs,
                total_runs=self.total_runs,
                elapsed_s=elapsed,
                rate=rate,
                eta_s=eta,
                detail=detail,
            )
        )


#: Minimum records per (benchmark, fault_model) cell before an early
#: stop is even considered — guards the first merges, where a
#: degenerate all-one-outcome cell can have a deceptively narrow CI.
EARLY_STOP_MIN_CELL_RUNS = 10


class _ConvergenceGate:
    """Feeds merged shards to a :class:`ConvergenceMonitor` in order.

    Early stopping must be **topology-independent**: the same campaign
    must stop at the same record whether it ran serial, on 8 workers,
    or resumed from checkpoints.  Shard *completion* order is none of
    those things, so the gate only evaluates convergence at contiguous
    prefix boundaries — shard ``k`` is considered only once shards
    ``0..k`` have all completed, and the monitor sees their records in
    canonical shard order.  It checks at *every* boundary the prefix
    crosses, also when one completion lets several shards join it at
    once.  The stop decision is then a pure function of the
    (deterministic) record contents, and the stopped campaign's records
    are a bit-identical prefix of the uncapped campaign's.
    """

    def __init__(
        self,
        config: "CampaignKind[Any]",
        shards: tuple[ShardSpec, ...],
        monitor: ConvergenceMonitor,
        get_records: Callable[[int], Iterable[Any]],
    ):
        self.monitor = monitor
        self._get_records = get_records
        self._shard_count = len(shards)
        target = config.stop_target()
        #: The CI half-width an early stop needs, or ``None``: no early stop.
        self.target: float | None = None if target is None else target[0]
        self._expected_cells = 0 if target is None else target[1]
        self._complete: set[int] = set()
        self._fed = 0
        self.stop_after: int | None = None

    @property
    def stopped(self) -> bool:
        return self.stop_after is not None

    def mark_complete(self, shard_index: int) -> bool:
        """Record one finished shard; True once the campaign may stop."""
        if self.stopped:
            return True
        self._complete.add(shard_index)
        while self._fed < self._shard_count and self._fed in self._complete:
            for row in self._get_records(self._fed):
                self.monitor.observe(row, shard=self._fed)
            self._fed += 1
            if (
                self.target is not None
                and self._fed < self._shard_count  # finishing everything is not "early"
                and len(self.monitor.cells()) >= self._expected_cells
                and self.monitor.converged(self.target, min_cell_runs=EARLY_STOP_MIN_CELL_RUNS)
            ):
                self.stop_after = self._fed - 1
                return True
        return False
