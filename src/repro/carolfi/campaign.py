"""Campaign driver: thousands of injections per benchmark.

The paper injects at least 10,000 faults per benchmark, spread
uniformly over the four fault models and the whole execution time.
:func:`run_campaign` reproduces that sampling plan deterministically
under a single seed, optionally persisting every record to JSONL (the
public-log analogue).  It is the one CAROL-FI campaign path: every
campaign, serial or pooled, in process or sandboxed, local or brokered,
runs through the shard scheduler over the parts in
:mod:`repro.carolfi.engine`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.carolfi import shmstore
from repro.carolfi.flipscript import SitePolicy
from repro.carolfi.isolation import (
    _SUPERVISORS,
    IsolationConfig,
    IsolationMode,
    campaign_store_key,
    supervisor_key,
)
from repro.faults.models import FaultModel
from repro.faults.outcome import InjectionRecord, Outcome
from repro.telemetry import DISABLED, Telemetry
from repro.telemetry.convergence import ConvergenceMonitor
from repro.util.jsonlog import dump_records

if TYPE_CHECKING:  # pragma: no cover — the engine imports this module
    from repro.carolfi.engine import ProgressCallback, RetryPolicy
    from repro.service.backend import ShardBackend
    from repro.service.scheduler import StealPolicy

__all__ = ["CampaignConfig", "CampaignResult", "model_for", "run_campaign"]


@dataclass(frozen=True)
class CampaignConfig:
    """One benchmark's injection campaign plan."""

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

    batch_size: int = 1
    """Vectorized batch width for the batched-injection fast path (see
    :mod:`repro.carolfi.batchrunner`).  ``1`` disables batching; larger
    values group runs sharing a prefix-snapshot anchor and step their
    corrupted states together through the benchmarks' batched kernels.
    Like ``snapshots``, a pure execution strategy: per-run RNG streams
    are keyed by run index and divergent runs fall back to the scalar
    path, so records are byte-identical at any batch size — the knob is
    excluded from the checkpoint fingerprint and checkpoints stay
    resumable across batch-size changes.  Every campaign batches the
    same way: each lease's runs are one ``BatchRunner`` plan, stepped in
    the executor's process or, under subprocess isolation, inside its
    sandboxed worker (fallback members return to the parent's scalar
    sandbox path)."""

    target_ci: float | None = None
    """Optional early-stopping precision target: stop the campaign at
    the first shard-merge boundary where every ``(benchmark,
    fault_model)`` cell's SDC and DUE confidence-interval half-width is
    at or below this value (see
    :class:`repro.telemetry.convergence.ConvergenceMonitor`).
    ``injections`` remains the run-budget cap.  Deliberately excluded
    from the checkpoint fingerprint: the target changes *where the
    campaign stops*, never what any record contains, so a checkpointed
    campaign may resume with a different target (or none) and the
    records stay bit-identical — a stopped campaign is always a prefix
    of the uncapped one."""

    def __post_init__(self) -> None:
        if self.injections < 1:
            raise ValueError("injections must be positive")
        if not self.fault_models:
            raise ValueError("at least one fault model is required")
        if self.target_ci is not None and not 0 < self.target_ci < 1:
            raise ValueError("target_ci must be in (0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def to_wire(self) -> dict[str, Any]:
        """JSON-safe dict for shipping a campaign plan over the service
        wire (broker lease frames).

        Exactly inverted by :meth:`from_wire`; both directions are pure
        value mappings, so a config survives any number of hops intact
        — which the determinism contract requires, because the config
        (with the seed inside) is what keys every run's RNG stream.
        """
        return {
            "benchmark": self.benchmark,
            "injections": self.injections,
            "seed": self.seed,
            "fault_models": [m.value for m in self.fault_models],
            "policy": self.policy.value,
            "benchmark_params": dict(self.benchmark_params),
            "snapshots": self.snapshots,
            "batch_size": self.batch_size,
            "target_ci": self.target_ci,
        }

    @classmethod
    def from_wire(cls, data: dict[str, Any]) -> "CampaignConfig":
        """Rebuild a config from :meth:`to_wire` output (validating)."""
        known = {
            "benchmark",
            "injections",
            "seed",
            "fault_models",
            "policy",
            "benchmark_params",
            "snapshots",
            "batch_size",
            "target_ci",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown campaign config fields: {sorted(unknown)}")
        if "benchmark" not in data:
            raise ValueError("campaign config needs a benchmark")
        kwargs: dict[str, Any] = {"benchmark": str(data["benchmark"])}
        if "fault_models" in data:
            kwargs["fault_models"] = tuple(
                FaultModel(m) for m in data["fault_models"]
            )
        if "policy" in data:
            kwargs["policy"] = SitePolicy(data["policy"])
        for key in ("injections", "seed", "batch_size"):
            if key in data and data[key] is not None:
                kwargs[key] = int(data[key])
        if "benchmark_params" in data and data["benchmark_params"] is not None:
            kwargs["benchmark_params"] = dict(data["benchmark_params"])
        if "snapshots" in data and data["snapshots"] is not None:
            kwargs["snapshots"] = bool(data["snapshots"])
        if "target_ci" in data and data["target_ci"] is not None:
            kwargs["target_ci"] = float(data["target_ci"])
        return cls(**kwargs)


@dataclass
class CampaignResult:
    """All records of one campaign plus cheap aggregations."""

    config: CampaignConfig
    records: list[InjectionRecord]
    stopped_early: bool = False
    """True when a ``target_ci`` convergence target stopped the
    campaign before exhausting ``config.injections``; the records are
    then a bit-identical prefix of the uncapped campaign's."""

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

    The single source of the rotation rule: the serial driver, the
    sharded engine and the batch runner all derive a run's model here,
    so the plan can never drift between execution topologies.
    """
    return config.fault_models[run_index % len(config.fault_models)]


def run_campaign(
    config: CampaignConfig,
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
    steal: "StealPolicy | None" = None,
) -> CampaignResult:
    """Run a full injection campaign: sharded, resumable, optionally parallel.

    Fault models rotate round-robin so every model receives an equal
    share; interrupt times are drawn uniformly per run by the
    Supervisor.  Deterministic for a given config: every run's random
    stream is keyed by ``(seed, benchmark, run_index)``, so the result
    is bit-identical for any ``workers`` count, shard layout or
    isolation mode.

    Every campaign goes through the shard scheduler
    (:func:`repro.service.scheduler.run_shards`), so retries and
    quarantine are decided alike everywhere.  ``workers=1`` executes
    the campaign as one lease in the calling process
    (:class:`~repro.service.local.InlineBackend`); any other count cuts
    it into ``workers`` leases of whole shards, each run by one
    disposable worker process (:class:`~repro.service.local.LocalBackend`).
    ``workers=None`` resolves via ``REPRO_WORKERS`` then
    ``os.cpu_count()``.

    ``backend`` overrides *where* leases execute: any
    :class:`~repro.service.backend.ShardBackend` (e.g. the distributed
    :class:`~repro.service.broker.BrokerBackend`) is driven by the same
    scheduler with identical retry/quarantine/merge semantics; its
    lifetime belongs to the caller.  ``steal`` tunes work stealing on
    backends that support it (ignored by the local pool).

    The executor that owns the runs decides whether their golden store
    is shared: a serial in-process campaign keeps a private one and
    maps nothing, while a pool, a subprocess sandbox or a caller's
    backend publishes (or attaches) the host's shared-memory segment
    (:mod:`repro.carolfi.shmstore`), which this function sweeps at
    teardown.

    ``isolation`` selects where each *injection* executes (see
    :class:`~repro.carolfi.isolation.IsolationConfig`), ``retry``
    configures the fault-domain policy (backoff, liveness, quarantine)
    and ``failure_log`` overrides the failure-event JSONL path (default:
    ``failures.jsonl`` inside the checkpoint directory, or disabled
    without one).  See :mod:`repro.carolfi.engine` for the determinism,
    resume and failure-handling contracts.  ``log_path`` receives the
    final records, written whole once they are merged, so a rerun or a
    resume rewrites the log instead of appending to it.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) adds metrics,
    phase spans and live progress on top of the ``progress`` heartbeat
    callback.  Workers accumulate metrics/spans locally and the engine
    merges their deltas over the heartbeat pipe, so a campaign's
    counter totals are identical for every worker count; the default
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
    # Imported here, not at module top: the engine and the service layer
    # import this module.
    from repro.carolfi.engine import (
        FAILURE_LOG_NAME,
        FailureSink,
        RetryPolicy,
        ShardSpec,
        _ConvergenceGate,
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
    # Whether any process maps the host's shared segment for this
    # campaign: a serial in-process campaign has no second process to
    # read its golden store, so it publishes nothing and sweeps nothing.
    shares = backend is not None or workers > 1 or iso.mode is IsolationMode.SUBPROCESS
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
        if shares:
            # Unlink any shared-memory snapshot segments this process
            # published (attachers' mappings stay valid; only the
            # directory entry goes — the /dev/shm leak-check contract)
            # and drop the campaign's golden store: a process keeps none
            # once its campaign is over.  Then sweep this campaign's key
            # outright: a worker that published and was then killed
            # (-9, chaos hook) can never reap its own segment.
            shmstore.release_published()
            _SUPERVISORS.pop(supervisor_key(config), None)
            try:
                shmstore.reap(campaign_store_key(config))
            except Exception:  # noqa: BLE001 — teardown must not mask the result
                pass

    if log_path is not None:
        dump_records(log_path, (r.to_dict() for r in records_out))
    return CampaignResult(config=config, records=records_out, stopped_early=gate.stopped)
