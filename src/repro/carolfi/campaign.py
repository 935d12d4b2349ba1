"""Campaign driver: thousands of single-perturbation runs per benchmark.

The paper injects at least 10,000 faults per benchmark, spread
uniformly over the four fault models and the whole execution time, and
its beam (§4) and hardened-code (§7) studies have the same unit of
work.  :func:`run_campaign` is the one campaign function for all
three: every campaign, serial or pooled, in process or in forked lease
workers, runs through the shard scheduler over the parts in
:mod:`repro.carolfi.engine`, deterministically under a single seed,
optionally persisting every record to JSONL (the public-log analogue).

A campaign's *kind* is its config class (:class:`CampaignKind`):
:class:`CampaignConfig` here for CAROL-FI, ``BeamConfig`` in
:mod:`repro.beam.experiment` and ``HardenedConfig`` in
:mod:`repro.hardening.hardened`.  No other layer names a kind's types.
"""

from __future__ import annotations

import enum
import importlib
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, ClassVar, Generic, TypeVar

from repro.benchmarks.registry import create
from repro.carolfi.batchrunner import DEFAULT_BATCH_SIZE
from repro.carolfi.flipscript import SitePolicy
from repro.carolfi.isolation import (
    _SUPERVISORS,
    EventCallback,
    IsolationConfig,
    IsolationMode,
    supervisor_for,
    supervisor_key,
)
from repro.carolfi.supervisor import Supervisor
from repro.faults.models import FaultModel
from repro.faults.outcome import InjectionRecord, Outcome
from repro.telemetry import DISABLED, Telemetry
from repro.telemetry.convergence import ConvergenceMonitor
from repro.util.jsonlog import dump_records

if TYPE_CHECKING:  # pragma: no cover — the engine imports this module
    from repro.carolfi.engine import ProgressCallback, RetryPolicy
    from repro.service.backend import ShardBackend

__all__ = [
    "CampaignConfig",
    "CampaignKind",
    "CampaignResult",
    "KINDS",
    "kind_class",
    "model_for",
    "run_campaign",
]

ResultT = TypeVar("ResultT")

#: Every campaign kind's config class, by kind name.
KINDS: dict[str, str] = {
    "carolfi": "repro.carolfi.campaign:CampaignConfig",
    "beam": "repro.beam.experiment:BeamConfig",
    "hardened": "repro.hardening.hardened:HardenedConfig",
}


def kind_class(name: str | None) -> "type[CampaignKind[Any]]":
    """The config class of kind ``name``; ``None`` (markers and logs
    written before there were other kinds) is CAROL-FI's."""
    if name is not None and name not in KINDS:
        raise ValueError(f"unknown campaign kind {name!r}")
    module, _, attr = KINDS[name or "carolfi"].partition(":")
    return getattr(importlib.import_module(module), attr)


def _to_wire(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_to_wire(item) for item in value]
    return dict(value) if isinstance(value, dict) else value


class CampaignKind(Generic[ResultT]):
    """What one kind of campaign supplies to :func:`run_campaign`.

    Subclasses are frozen dataclasses whose fields — ``benchmark``,
    ``seed`` and ``benchmark_params`` among them — are everything that
    determines their records; ``__post_init__`` validates them and
    coerces enum fields from their values.  The runner a kind builds
    presents one surface: ``run_one(run, *run_args(run))`` returns a
    record, ``due_record(run, *run_args(run), kind=, detail=)``
    re-derives the record of a run whose executor never reported back,
    and ``total_steps`` and ``num_windows`` give the run geometry.
    """

    kind: ClassVar[str]
    #: The RNG stream the campaign input is drawn from.
    input_label: ClassVar[str]
    #: Records round-trip through its ``to_dict``/``from_dict``; every
    #: row carries ``outcome`` and, where the kind has one, ``due_kind``.
    record_type: ClassVar[Any]
    #: The row field that holds the run index.
    row_key: ClassVar[str] = "run_index"
    #: Wire fields left out of the checkpoint fingerprint.
    fingerprint_excludes: ClassVar[frozenset[str]] = frozenset()

    benchmark: str
    seed: int
    benchmark_params: dict[str, Any]

    @property
    def runs(self) -> int:
        """The campaign's run budget."""
        raise NotImplementedError

    def build_runner(self, *, on_event: EventCallback | None = None) -> Any:
        """A fresh runner; ``on_event`` gets its set-up's events."""
        raise NotImplementedError

    def run_args(self, run_index: int) -> tuple[Any, ...]:
        return ()

    def run_batch(self, runner: Any, run_indices: Sequence[int]) -> dict[int, Any]:
        """The records of the runs one ``BatchRunner`` plan over
        ``run_indices`` completed vectorized, by run index.

        None for a kind without a ``batch_size`` field, or at width 1;
        the caller runs the rest through ``run_one``.
        """
        width = getattr(self, "batch_size", 1)
        if width == 1:
            return {}
        runs = [(index, *self.run_args(index)) for index in run_indices]
        return dict(runner.run_batch(runs, width))

    @staticmethod
    def row_cell(row: dict[str, Any]) -> tuple[str, str, str]:
        """``(benchmark, cell, outcome)`` of a row, as the drift monitor
        counts it."""
        raise NotImplementedError

    def result(self, records: list[Any], runner: Any) -> ResultT:
        """The result; ``runner`` is this process's for the campaign, or ``None``."""
        raise NotImplementedError

    def to_wire(self) -> dict[str, Any]:
        """The kind-tagged, JSON-safe form of every field: what the
        checkpoint fingerprint and the runner cache key hash, so
        two configs with equal wire forms run equal campaigns."""
        wire: dict[str, Any] = {"kind": self.kind}
        for item in fields(self):  # type: ignore[arg-type]
            wire[item.name] = _to_wire(getattr(self, item.name))
        return wire


@dataclass(frozen=True)
class CampaignConfig(CampaignKind["CampaignResult"]):
    """One benchmark's injection campaign plan: the CAROL-FI kind."""

    kind: ClassVar[str] = "carolfi"
    input_label: ClassVar[str] = "carolfi"
    record_type: ClassVar[type] = InjectionRecord
    #: Execution strategy, not record content — and fingerprints that
    #: predate kinds name none, so CAROL-FI's stay as they were.
    fingerprint_excludes: ClassVar[frozenset[str]] = frozenset(
        {"kind", "snapshots", "batch_size"}
    )

    benchmark: str
    injections: int = 1000
    seed: int = 2017
    fault_models: tuple[FaultModel, ...] = FaultModel.all()
    policy: SitePolicy = SitePolicy.WEIGHTED
    benchmark_params: dict[str, Any] = field(default_factory=dict)
    snapshots: bool = True
    """Enable the execution-prefix snapshot fast path (see
    :mod:`repro.carolfi.prefixcache`).  Pure execution strategy: records
    are bit-identical either way, so the flag is excluded from the
    checkpoint fingerprint — a campaign checkpointed with snapshots on
    may resume with them off, and vice versa."""

    batch_size: int = DEFAULT_BATCH_SIZE
    """Vectorized batch width for the batched-injection fast path (see
    :mod:`repro.carolfi.batchrunner`).  ``1`` disables batching, the
    scalar reference; larger values group runs by interrupt step and
    step their corrupted states together through the benchmarks'
    batched kernels (a benchmark without them runs scalar).
    Like ``snapshots``, a pure execution strategy excluded from the
    checkpoint fingerprint: per-run RNG streams are keyed by run index
    and divergent runs fall back to the scalar path, so records are
    byte-identical at any batch size.  Each lease's runs are one
    ``BatchRunner`` plan, stepped in the process that runs the lease."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "fault_models", tuple(map(FaultModel, self.fault_models)))
        object.__setattr__(self, "policy", SitePolicy(self.policy))
        if self.injections < 1:
            raise ValueError("injections must be positive")
        if not self.fault_models:
            raise ValueError("at least one fault model is required")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    @property
    def runs(self) -> int:
        return self.injections

    def build_runner(self, *, on_event: EventCallback | None = None) -> Supervisor:
        return Supervisor(
            create(self.benchmark, **self.benchmark_params),
            seed=self.seed,
            policy=self.policy,
            snapshots=self.snapshots,
            on_event=on_event,
        )

    def run_args(self, run_index: int) -> tuple[FaultModel]:
        return (model_for(self, run_index),)

    @staticmethod
    def row_cell(row: dict[str, Any]) -> tuple[str, str, str]:
        return str(row["benchmark"]), str(row["fault_model"]), str(row["outcome"])

    def result(self, records: list[Any], runner: Any) -> "CampaignResult":
        return CampaignResult(config=self, records=records)


@dataclass
class CampaignResult:
    """All records of one campaign plus cheap aggregations."""

    config: CampaignConfig
    records: list[InjectionRecord]

    def __len__(self) -> int:
        return len(self.records)

    def count(self, outcome: Outcome) -> int:
        return sum(1 for r in self.records if r.outcome is outcome)

    def outcome_fractions(self) -> dict[str, float]:
        """Masked/SDC/DUE shares of all injections (Figure 4's bars)."""
        total = len(self.records)
        if total == 0:
            raise ValueError("empty campaign")
        return {o.value: self.count(o) / total for o in Outcome.all()}

    def by_fault_model(self) -> dict[str, list[InjectionRecord]]:
        out: dict[str, list[InjectionRecord]] = {}
        for record in self.records:
            out.setdefault(record.fault_model, []).append(record)
        return out

    def by_time_window(self) -> dict[int, list[InjectionRecord]]:
        out: dict[int, list[InjectionRecord]] = {}
        for record in self.records:
            out.setdefault(record.time_window, []).append(record)
        return out

    def by_var_class(self) -> dict[str, list[InjectionRecord]]:
        out: dict[str, list[InjectionRecord]] = {}
        for record in self.records:
            out.setdefault(record.site.var_class, []).append(record)
        return out


def model_for(config: CampaignConfig, run_index: int) -> FaultModel:
    """Fault model of one run under the round-robin sampling plan.

    The single source of the rotation rule: the campaign kind's
    ``run_args`` derives a run's model here for the scalar and the
    batched path alike, so the plan can never drift between execution
    topologies.
    """
    return config.fault_models[run_index % len(config.fault_models)]


def run_campaign(
    config: CampaignKind[ResultT],
    log_path: str | Path | None = None,
    *,
    workers: int | None = 1,
    checkpoint_dir: str | Path | None = None,
    shard_size: int | None = None,
    progress: "ProgressCallback | None" = None,
    isolation: IsolationConfig | None = None,
    retry: "RetryPolicy | None" = None,
    failure_log: str | Path | None = None,
    telemetry: Telemetry | None = None,
    backend: "ShardBackend | None" = None,
    runner: Any = None,
) -> ResultT:
    """Run a campaign of any kind: sharded, resumable, optionally parallel.

    Returns the kind's result (a :class:`CampaignResult` for a
    :class:`CampaignConfig`).  Every run's random stream is keyed by the
    seed, the benchmark and the run index, so the result is
    bit-identical for any ``workers`` count, shard layout or isolation
    mode.  Every campaign goes through the shard scheduler
    (:func:`repro.service.scheduler.run_shards`), so retries and
    quarantine are decided alike everywhere: ``workers=1`` in process
    runs it as one lease in the calling process
    (:class:`~repro.service.local.InlineBackend`); any other count, and
    any count under subprocess isolation, as ``workers`` leases of
    whole shards, each in a disposable forked worker process
    (:class:`~repro.service.local.LocalBackend`); ``workers=None``
    resolves via ``REPRO_WORKERS`` then ``os.cpu_count()``.
    ``backend`` overrides *where* leases execute (a test seam: a
    scripted backend, whose lifetime stays the caller's).

    A serial in-process campaign builds its own runner; a pool or
    subprocess isolation warms this process's cached runner
    (:func:`~repro.carolfi.isolation.supervisor_for`) before any worker
    forks, so every worker inherits its golden store, and this function
    drops it at teardown.  ``runner`` is one the caller built for
    ``config``, possibly with more than the config carries (a benchmark
    instance, a sensitivity table, a machine model): the serial
    in-process campaign runs on it, and any other topology refuses it,
    because only a config's own fields may reach another process.

    ``isolation`` selects where each run executes, and the deadline and
    RSS ceiling of a run in a lease worker (see
    :class:`~repro.carolfi.isolation.IsolationConfig`), ``retry`` the
    fault-domain policy (backoff, liveness, quarantine), and
    ``failure_log`` the failure-event JSONL path (default:
    ``failures.jsonl`` in the checkpoint directory, or none without
    one); :mod:`repro.carolfi.engine` has the determinism, resume and
    failure-handling contracts.  ``log_path`` receives the final
    records, written whole once merged, so a rerun or a resume rewrites
    it.  ``telemetry`` adds metrics, phase spans and live progress on
    top of the ``progress`` heartbeat callback; workers ship their
    deltas over the heartbeat pipe, so counter totals are identical for
    every worker count, and the default
    (:data:`repro.telemetry.DISABLED`) never perturbs records.

    A campaign always runs its whole run budget.  Once merged, every
    shard's rows go through a
    :class:`~repro.telemetry.convergence.ConvergenceMonitor`, read by the
    kind's :meth:`CampaignKind.row_cell`, whose cross-shard drift
    detector z-tests each shard's outcome rates against the rest;
    incompatible shards (seed bugs, nondeterminism) are flagged into
    ``failures.jsonl`` and the ``repro_drift_flags_total`` counter.
    """
    # Imported here, not at module top: the engine and the service layer
    # import this module.
    from repro.carolfi.engine import (
        FAILURE_LOG_NAME,
        FailureSink,
        RetryPolicy,
        ShardSpec,
        _Heartbeat,
        _replay_shard,
        _validate_checkpoint_dir,
        campaign_fingerprint,
        plan_shards,
        resolve_workers,
        shard_path,
    )
    from repro.service.local import InlineBackend, LocalBackend
    from repro.service.scheduler import run_shards

    workers = resolve_workers(workers)
    iso = isolation or IsolationConfig()
    policy = retry or RetryPolicy()
    tel = telemetry or DISABLED
    # Whether workers fork from this process: they inherit the runner
    # cached here.  A serial in-process campaign forks none, so it
    # builds its own runner and caches nothing.
    forks = backend is not None or workers > 1 or iso.mode is IsolationMode.SUBPROCESS
    if runner is not None and forks:
        raise ValueError("a caller's runner runs only in this process")

    def local_runner(on_event: EventCallback | None = None) -> Any:
        """This process's runner for the campaign, built at most once."""
        nonlocal runner
        if runner is None:
            runner = (
                supervisor_for(config, on_event)
                if forks
                else config.build_runner(on_event=on_event)
            )
        return runner

    shards = plan_shards(config.runs, shard_size)
    fingerprint = campaign_fingerprint(config, shard_size)
    ckpt_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if ckpt_dir is not None:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        marker_kind = None if "kind" in config.fingerprint_excludes else config.kind
        _validate_checkpoint_dir(ckpt_dir, fingerprint, marker_kind)
    if failure_log is None and ckpt_dir is not None:
        failure_log = ckpt_dir / FAILURE_LOG_NAME
    sink = FailureSink(failure_log, tel)
    reporter = tel.progress_reporter(config.runs, label=config.benchmark)
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

    heartbeat = _Heartbeat(progress, len(shards), config.runs)
    rows_by_shard: dict[int, list[dict[str, Any]]] = {}
    pending: list[ShardSpec] = []
    try:
        with tel.activate(), tel.tracer.span(
            "campaign",
            kind=config.kind,
            benchmark=config.benchmark,
            injections=config.runs,
            workers=workers,
            shards=len(shards),
        ) as campaign_span:
            for spec in shards:
                shard_planned.set(spec.size, shard=spec.index)
                # Reset stale per-shard progress left by an earlier
                # campaign sharing this registry.
                shard_done.set(0, shard=spec.index)
            for spec in shards:
                rows = (
                    _replay_shard(
                        shard_path(ckpt_dir, spec.index), fingerprint, spec, config.record_type
                    )
                    if ckpt_dir is not None
                    else None
                )
                if rows is None:
                    pending.append(spec)
                else:
                    rows_by_shard[spec.index] = rows
                    replayed_runs.inc(spec.size)
                    shard_done.set(spec.size, shard=spec.index)
                    heartbeat.record_done(spec.size, live=False)
                    heartbeat.emit("replayed", spec)

            if pending:

                def ckpt_file(spec: ShardSpec) -> str | None:
                    return None if ckpt_dir is None else str(shard_path(ckpt_dir, spec.index))

                # A caller's backend stays the caller's; otherwise the
                # engine owns one for this campaign.
                owned: ShardBackend | None = None
                if backend is None:
                    if forks:
                        # Warm this process's runner before any worker
                        # forks: each inherits the golden run, and
                        # ``sink`` gets a budget degradation once.
                        try:
                            local_runner(sink)
                        except Exception:  # noqa: BLE001 — the workers report the real failure
                            pass
                    owned = backend = (
                        LocalBackend(
                            config,
                            workers=workers,
                            isolation=iso,
                            telemetry=tel,
                        )
                        if forks
                        else InlineBackend(
                            config,
                            runner=local_runner,
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
                        rows_by_shard,
                        backend,
                        policy,
                        sink,
                        tel,
                        reporter,
                    )
                finally:
                    if owned is not None:
                        owned.close()

            rows_out = [row for spec in shards for row in rows_by_shard[spec.index]]
            rows_out.sort(key=lambda row: int(row[config.row_key]))
            if [int(row[config.row_key]) for row in rows_out] != list(range(config.runs)):
                raise RuntimeError("engine merge produced a non-canonical record sequence")
            records_out = [config.record_type.from_dict(row) for row in rows_out]
            # Cross-shard drift: under the determinism contract every
            # shard samples the same outcome distribution, so any shard
            # that is statistically incompatible with its peers means a
            # seed bug or nondeterminism — flag it, loudly.
            monitor = ConvergenceMonitor(fields=config.row_cell)
            for spec in shards:
                monitor.observe_all(rows_by_shard[spec.index], shard=spec.index)
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
            for row in rows_out:
                records_total.inc(outcome=row["outcome"])
                if row.get("due_kind") is not None:
                    records_due.inc(kind=row["due_kind"])
            campaign_span.set_attr("records", len(records_out))
            reporter.tick(force=True)
    finally:
        sink.close()
        if forks:
            # Drop the campaign's golden store: a process keeps none
            # once its campaign is over.
            _SUPERVISORS.pop(supervisor_key(config), None)

    if log_path is not None:
        dump_records(log_path, (r.to_dict() for r in records_out))
    return config.result(records_out, runner)
