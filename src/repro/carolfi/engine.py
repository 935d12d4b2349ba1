"""Sharded, parallel, resumable, fault-tolerant campaign execution.

The paper's numbers rest on 10,000+ injections per benchmark; running
them one after another in one process is the reproduction's single
biggest bottleneck.  This engine splits a campaign into deterministic
*shards* (contiguous run-index ranges) and fans the shards out over
dedicated worker processes, merging the shard records back in canonical
run-index order.

Determinism is structural, not incidental: every injection derives its
random stream from ``(seed, benchmark, run_index)`` via
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
restart the engine replays every *complete* shard file from disk and
re-runs only the rest.  A checkpoint is trusted only if its stored
config fingerprint matches the requested campaign; a mismatch raises
:class:`CheckpointError` rather than silently mixing campaigns.

Fault domains: every campaign runs through one control plane, the
shard scheduler (:func:`repro.service.scheduler.run_shards`), over a
:class:`~repro.service.backend.ShardBackend` — in the calling process
for ``workers=1`` (:class:`~repro.service.local.InlineBackend`), one
disposable, supervised OS process per lease otherwise
(:class:`~repro.service.local.LocalBackend`), or a caller's broker.
The scheduler alone decides retry and quarantine.  A failed execution
— an exception that escapes the crash net, a worker death, a reaped
hang — is retried with deterministic exponential backoff plus jitter;
a failed lease is charged to the shard of its first undelivered run
and re-leased from there; a run that fails
``RetryPolicy.max_run_deaths`` times is
**quarantined** (recorded as a DUE with a ``sandbox:`` detail and
skipped on the next attempt), so a campaign degrades gracefully
instead of aborting.  Only a shard that keeps failing *without making
progress* raises :class:`ShardFailure`.  Every retry, reap, worker
death, sandbox kill and quarantine is appended to a structured
failure-event log (``failures.jsonl`` under the checkpoint directory
by default).

With ``isolation=IsolationConfig(mode=IsolationMode.SUBPROCESS, ...)``
each individual injection additionally runs inside the
:class:`~repro.carolfi.isolation.InjectionSandbox` owned by the
executor of the lease, making crashes and hangs *observed process
deaths* exactly like the paper's GDB-supervised runs.  Serial
in-process execution (``workers=1``, inproc isolation) stays the
default, so the test suite remains subprocess-free.
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

from repro.carolfi import shmstore
from repro.carolfi.batchrunner import BatchRunner
from repro.carolfi.campaign import CampaignConfig, CampaignResult, model_for
from repro.carolfi.isolation import (
    _SUPERVISORS,
    InjectionSandbox,
    IsolationConfig,
    SandboxError,
    campaign_store_key,
    make_due_record,
    supervisor_for,
    supervisor_key,
)
from repro.faults.outcome import DueKind, InjectionRecord
from repro.telemetry import (
    DISABLED,
    Telemetry,
    current_registry,
    current_tracer,
    stamp,
)
from repro.telemetry.convergence import ConvergenceMonitor
from repro.util.jsonlog import JsonlLog, dump_records, load_records, load_records_tolerant
from repro.util.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.backend import ShardBackend
    from repro.service.scheduler import StealPolicy

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
    "read_failure_log",
    "resolve_workers",
    "run_sharded_campaign",
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


def campaign_fingerprint(config: CampaignConfig, shard_size: int | None = None) -> str:
    """Stable hash of everything that determines a campaign's records.

    Stored in every checkpoint header; a resume with a different
    benchmark, seed, size, fault-model set, policy or shard plan is
    detected before any stale record is trusted.  Isolation mode, retry
    policy and the ``snapshots``/``batch_size``/``shared_store``
    fast-path knobs are deliberately *excluded*: they change how runs
    are executed and supervised, never what their records contain, so a
    campaign checkpointed in one mode may resume in another — including resuming
    a scalar checkpoint with batching on or vice versa (the payload
    lists fields explicitly for exactly this reason).
    """
    payload = {
        "version": CHECKPOINT_VERSION,
        "benchmark": config.benchmark,
        "injections": config.injections,
        "seed": config.seed,
        "fault_models": [m.value for m in config.fault_models],
        "policy": config.policy.value,
        "benchmark_params": config.benchmark_params,
        "shard_size": shard_size,
    }
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


def read_failure_log(path: str | Path) -> tuple[list[dict], int]:
    """Load failure events plus a count of skipped corrupt lines.

    Failure logs are written across worker deaths and hard kills, so a
    damaged interior line is a fact to report, not an error to die on:
    the reader returns every parseable event and *how many* lines it
    had to skip, instead of silently dropping them.
    """
    return load_records_tolerant(path)


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
    config: CampaignConfig,
    spec: ShardSpec,
    sandbox: InjectionSandbox | None = None,
    skip_runs: dict[int, tuple[str, str]] | None = None,
    on_run: Callable[[int], None] | None = None,
    on_record: Callable[[int, dict], None] | None = None,
    on_failure: Callable[[dict], None] | None = None,
    stop: Callable[[], int] | None = None,
) -> None:
    """Run one lease's range, handing each record to ``on_record(run, row)``.

    ``spec`` is the lease's run range: it may span several planned
    shards (``spec.index`` is the first), and with batching on the whole
    range is one ``BatchRunner`` plan.

    ``sandbox`` is the executor's own :class:`InjectionSandbox` to run
    every injection through, or ``None`` to run them in this process.
    ``skip_runs`` maps quarantined run indices to their ``(due_kind,
    detail)``: those runs are recorded as synthetic DUEs without being
    executed.  ``on_run`` fires before each scalar run (the liveness
    beat the scheduler attributes deaths with).  ``stop`` is read
    before every run and returns the range's current end, so an
    executor can narrow (steal) or empty (cancel) the range at a run
    boundary; without it the range is ``spec``'s.  An exception a run
    lets escape — a sandbox worker's death included — is raised as
    :class:`ShardRunError` naming that run.  Checkpoints are not this
    function's business: the scheduler writes them from the records.

    Telemetry is ambient (:func:`repro.telemetry.current_registry` /
    ``current_tracer``): an inline executor runs inside the campaign
    bundle, lease workers activate their local accumulator, and this
    function instruments identically either way — per-outcome run
    counters, run-duration histogram and one ``shard`` span around the
    whole range, batch pass included.  With telemetry disabled every
    instrument is a shared no-op.
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
    run_fn: Callable[[int, Any], InjectionRecord]
    skip = skip_runs or {}
    if sandbox is not None:
        run_fn = sandbox.run_one
        total_steps, num_windows = sandbox.total_steps, sandbox.num_windows
    else:
        supervisor = supervisor_for(config, on_event=on_failure)
        run_fn = supervisor.run_one
        total_steps = supervisor.total_steps
        num_windows = supervisor.benchmark.num_windows
    with tracer.span("shard", shard=spec.index, start=spec.start, stop=spec.stop):
        batched: dict[int, InjectionRecord] = {}
        if config.batch_size > 1:
            # Vectorized fast path over the whole range — one plan per
            # lease — inside the sandbox worker when there is one.  Runs
            # the batch path completes are looked up below; everything
            # else — fallbacks, skips, a batch-wide abort — flows through
            # the unchanged scalar machinery, including its error
            # attribution.
            todo = [
                (run_index, model_for(config, run_index))
                for run_index in range(spec.start, end())
                if run_index not in skip
            ]
            if sandbox is not None:
                batched = sandbox.run_batch(todo, config.batch_size)
            else:
                batched = BatchRunner(supervisor, config.batch_size).run_many(todo)
        for run_index in spec.run_indices():
            if run_index >= end():
                break
            model = model_for(config, run_index)
            if run_index in skip:
                kind, detail = skip[run_index]
                record = make_due_record(
                    config,
                    run_index,
                    model,
                    total_steps,
                    num_windows,
                    DueKind(kind),
                    detail,
                )
            elif run_index in batched:
                record = batched[run_index]
            else:
                if on_run is not None:
                    on_run(run_index)
                began = time.perf_counter()
                try:
                    record = run_fn(run_index, model)
                except SandboxError:
                    raise  # worker infrastructure failure: shard-level, not run-level
                except Exception as exc:
                    raise ShardRunError(spec.index, run_index, exc) from exc
                if registry.enabled:
                    run_seconds.observe(time.perf_counter() - began)
            runs_total.inc(outcome=record.outcome.value)
            if record.due_kind is not None:
                dues_total.inc(kind=record.due_kind.value)
            if on_record is not None:
                on_record(run_index, record.to_dict())


# -- checkpoint replay --------------------------------------------------------


def _replay_shard(path: Path, fingerprint: str, spec: ShardSpec) -> list[InjectionRecord] | None:
    """Load one shard's records from its checkpoint file.

    Returns ``None`` when the shard must be (re-)run: missing file,
    partial write (no ``done`` footer, short record count, truncated
    trailing line) or structural damage.  Raises :class:`CheckpointError`
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
        return [InjectionRecord.from_dict(row["data"]) for row in body]
    except (KeyError, TypeError, ValueError):
        return None


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


def _validate_checkpoint_dir(checkpoint_dir: Path, fingerprint: str) -> None:
    """Create/validate the directory-level ``campaign.json`` marker."""
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
    marker.write_text(
        json.dumps({"config_hash": fingerprint, "version": CHECKPOINT_VERSION}, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )


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
        config: CampaignConfig,
        shards: tuple[ShardSpec, ...],
        monitor: ConvergenceMonitor,
        get_records: Callable[[int], Iterable[Any]],
    ):
        self.monitor = monitor
        self._get_records = get_records
        self._shard_count = len(shards)
        self._target = config.target_ci
        self._expected_cells = len(config.fault_models)
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
                self._target is not None
                and self._fed < self._shard_count  # finishing everything is not "early"
                and len(self.monitor.cells()) >= self._expected_cells
                and self.monitor.converged(self._target, min_cell_runs=EARLY_STOP_MIN_CELL_RUNS)
            ):
                self.stop_after = self._fed - 1
                return True
        return False


def run_sharded_campaign(
    config: CampaignConfig,
    *,
    workers: int | None = None,
    checkpoint_dir: str | Path | None = None,
    shard_size: int | None = None,
    progress: ProgressCallback | None = None,
    log_path: str | Path | None = None,
    isolation: IsolationConfig | None = None,
    retry: RetryPolicy | None = None,
    failure_log: str | Path | None = None,
    telemetry: Telemetry | None = None,
    backend: "ShardBackend | None" = None,
    steal: "StealPolicy | None" = None,
) -> CampaignResult:
    """Run a campaign sharded, optionally in parallel and resumable.

    ``workers=1`` executes the campaign as one lease in the calling
    process; any other count cuts it into ``workers`` leases of whole
    shards, each run by one disposable worker process.  Both go through
    the same scheduler, so retries and quarantine are decided alike.
    ``workers=None`` resolves via ``REPRO_WORKERS`` then
    ``os.cpu_count()``.

    ``backend`` overrides *where* leases execute: any
    :class:`~repro.service.backend.ShardBackend` (e.g. the distributed
    :class:`~repro.service.broker.BrokerBackend`) is driven by the same
    scheduler with identical retry/quarantine/merge semantics; its
    lifetime belongs to the caller.  ``steal`` tunes work stealing on
    backends that support it (ignored by the local pool).

    ``isolation`` selects where each *injection* executes (see
    :class:`~repro.carolfi.isolation.IsolationConfig`), ``retry``
    configures the fault-domain policy (backoff, liveness, quarantine)
    and ``failure_log`` overrides the failure-event JSONL path (default:
    ``failures.jsonl`` inside the checkpoint directory, or disabled
    without one).  See the module docstring for the determinism, resume
    and failure-handling contracts.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) adds metrics,
    phase spans and live progress on top of the heartbeat callback.
    Workers accumulate metrics/spans locally and the engine merges
    their deltas over the heartbeat pipe, so a campaign's counter
    totals are identical for every worker count; the default
    (:data:`repro.telemetry.DISABLED`) makes every instrument a shared
    no-op and never perturbs records.

    Statistical observability: every merged shard streams through a
    :class:`~repro.telemetry.convergence.ConvergenceMonitor`.  With
    ``config.target_ci`` set the campaign **stops early** at the first
    contiguous shard boundary where every ``(benchmark, fault_model)``
    cell's SDC/DUE CI half-width meets the target — deterministically,
    so the stopped records are a bit-identical prefix of the uncapped
    campaign for any worker count.  Independently, the cross-shard
    drift detector z-tests each shard's outcome rates against the rest
    of the campaign; statistically incompatible shards (seed bugs,
    nondeterminism) are flagged into ``failures.jsonl`` and the
    ``repro_drift_flags_total`` counter.
    """
    workers = resolve_workers(workers)
    iso = isolation or IsolationConfig()
    policy = retry or RetryPolicy()
    tel = telemetry or DISABLED
    shards = plan_shards(config.injections, shard_size)
    fingerprint = campaign_fingerprint(config, shard_size)
    ckpt_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if ckpt_dir is not None:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        _validate_checkpoint_dir(ckpt_dir, fingerprint)
    if failure_log is None and ckpt_dir is not None:
        failure_log = ckpt_dir / FAILURE_LOG_NAME
    sink = FailureSink(failure_log, tel)
    reporter = tel.progress_reporter(config.injections, label=config.benchmark)
    replayed_runs = tel.registry.counter(
        "repro_runs_replayed_total",
        help="Runs restored from shard checkpoints instead of being re-run.",
    )
    shard_planned = tel.registry.gauge(
        "repro_shard_runs_planned", help="Planned run count of each shard."
    )
    shard_done = tel.registry.gauge(
        "repro_shard_runs_done", help="Runs completed so far within each shard."
    )

    heartbeat = _Heartbeat(progress, len(shards), config.injections)
    replayed: dict[int, list[InjectionRecord]] = {}
    pending: list[ShardSpec] = []
    executed: dict[int, list[dict]] = {}

    def _shard_rows(index: int) -> Iterable[Any]:
        return replayed[index] if index in replayed else executed[index]

    monitor = ConvergenceMonitor()
    gate = _ConvergenceGate(config, shards, monitor, _shard_rows)
    try:
        with tel.activate(), tel.tracer.span(
            "campaign",
            benchmark=config.benchmark,
            injections=config.injections,
            workers=workers,
            shards=len(shards),
        ) as campaign_span:
            for spec in shards:
                shard_planned.set(spec.size, shard=spec.index)
                # Reset stale per-shard progress left by an earlier
                # campaign sharing this registry.
                shard_done.set(0, shard=spec.index)
            for spec in shards:
                records = (
                    _replay_shard(shard_path(ckpt_dir, spec.index), fingerprint, spec)
                    if ckpt_dir is not None
                    else None
                )
                if records is None:
                    pending.append(spec)
                else:
                    replayed[spec.index] = records
                    replayed_runs.inc(spec.size)
                    shard_done.set(spec.size, shard=spec.index)
                    heartbeat.record_done(spec.size, live=False)
                    heartbeat.emit("replayed", spec)
                    gate.mark_complete(spec.index)
            if gate.stopped:
                # The replayed prefix alone already meets the target;
                # every pending shard lies beyond the stop point.
                pending.clear()

            if pending:
                # Imported here, not at module top: repro.service imports
                # this module.
                from repro.service.local import InlineBackend, LocalBackend
                from repro.service.scheduler import run_shards

                def ckpt_file(spec: ShardSpec) -> str | None:
                    return None if ckpt_dir is None else str(shard_path(ckpt_dir, spec.index))

                # A caller's backend (e.g. the broker) stays the caller's;
                # otherwise the engine owns one for this campaign.
                owned: ShardBackend | None = None
                if backend is None:
                    owned = backend = (
                        LocalBackend(
                            config,
                            workers=workers,
                            isolation=iso,
                            telemetry=tel,
                            on_event=sink,
                        )
                        if workers > 1
                        else InlineBackend(
                            config,
                            isolation=iso,
                            on_run_done=reporter.tick,
                        )
                    )
                try:
                    run_shards(
                        config,
                        pending,
                        ckpt_file,
                        fingerprint,
                        heartbeat,
                        executed,
                        backend,
                        policy,
                        sink,
                        tel,
                        reporter,
                        gate,
                        steal=steal,
                    )
                finally:
                    if owned is not None:
                        owned.close()

            included = shards if gate.stop_after is None else shards[: gate.stop_after + 1]
            expected_runs = included[-1].stop
            records_out: list[InjectionRecord] = []
            for spec in included:
                if spec.index in replayed:
                    records_out.extend(replayed[spec.index])
                else:
                    records_out.extend(
                        InjectionRecord.from_dict(row) for row in executed[spec.index]
                    )
            records_out.sort(key=lambda r: r.run_index)
            if [r.run_index for r in records_out] != list(range(expected_runs)):
                raise RuntimeError("engine merge produced a non-canonical record sequence")
            if gate.stopped:
                sink(
                    {
                        "event": "early_stop",
                        "target_ci": config.target_ci,
                        "runs": expected_runs,
                        "budget": config.injections,
                        "max_half_width": round(monitor.max_half_width(), 6),
                        "shards_skipped": len(shards) - len(included),
                    }
                )
                campaign_span.set_attr("early_stop_runs", expected_runs)
            # Cross-shard drift: under the determinism contract every
            # shard samples the same outcome distribution, so any shard
            # that is statistically incompatible with its peers means a
            # seed bug or nondeterminism — flag it, loudly.
            drift_flags = monitor.drift_flags()
            if drift_flags:
                drift_counter = tel.registry.counter(
                    "repro_drift_flags_total",
                    help="Shards whose outcome rates are statistically "
                    "incompatible with the rest of the campaign.",
                )
                for flag in drift_flags:
                    drift_counter.inc(
                        benchmark=flag.benchmark,
                        fault_model=flag.fault_model,
                        outcome=flag.outcome,
                    )
                    sink(flag.to_dict())
            # Final-record counters are derived from the merged result —
            # by construction they always equal what lands in the
            # campaign log, whatever the execution topology did.
            records_total = tel.registry.counter(
                "repro_records_total", help="Final merged campaign records, by outcome."
            )
            records_due = tel.registry.counter(
                "repro_records_due_total", help="Final merged DUE records, by due kind."
            )
            for record in records_out:
                records_total.inc(outcome=record.outcome.value)
                if record.due_kind is not None:
                    records_due.inc(kind=record.due_kind.value)
            campaign_span.set_attr("records", len(records_out))
            reporter.tick(force=True)
    finally:
        sink.close()
        # Unlink any shared-memory snapshot segments this process
        # published (attachers' mappings stay valid; only the directory
        # entry goes — the /dev/shm leak-check contract).  Then sweep
        # this campaign's key outright: a worker that published and was
        # then killed (-9, chaos hook) can never reap its own segment.
        shmstore.release_published()
        # Drop the campaign's golden store: a process keeps none once
        # its campaign is over.
        _SUPERVISORS.pop(supervisor_key(config), None)
        if config.shared_store:
            try:
                shmstore.reap(campaign_store_key(config))
            except Exception:  # noqa: BLE001 — teardown must not mask the result
                pass

    if log_path is not None:
        with JsonlLog(log_path) as log:
            log.extend(r.to_dict() for r in records_out)
    return CampaignResult(config=config, records=records_out, stopped_early=gate.stopped)
