"""Campaign driver: thousands of injections per benchmark.

The paper injects at least 10,000 faults per benchmark, spread
uniformly over the four fault models and the whole execution time.
:func:`run_campaign` reproduces that sampling plan deterministically
under a single seed, optionally persisting every record to JSONL (the
public-log analogue).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.benchmarks.registry import create
from repro.carolfi.flipscript import SitePolicy
from repro.carolfi.supervisor import Supervisor
from repro.faults.models import FaultModel
from repro.faults.outcome import InjectionRecord, Outcome
from repro.util.jsonlog import JsonlLog

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
    resumable across batch-size changes.  Both isolation modes batch:
    in-process through the engine's shard loop, subprocess by shipping
    run groups into the sandboxed worker (fallback members return to
    the parent's scalar sandbox path)."""

    shared_store: bool = True
    """Map golden prefix snapshots and the pristine input from a
    host-wide shared-memory segment (:mod:`repro.carolfi.shmstore`)
    instead of cloning them per worker process; restores become
    copy-on-write views.  Engine campaigns only (the plain serial path
    keeps private copies).  Pure execution strategy like ``snapshots``:
    records are bit-identical either way and the flag is excluded from
    the checkpoint fingerprint.  ``REPRO_SHM=0`` in the environment
    overrides it off host-wide."""

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
            "shared_store": self.shared_store,
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
            "shared_store",
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
        if "shared_store" in data and data["shared_store"] is not None:
            kwargs["shared_store"] = bool(data["shared_store"])
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
    progress: Any | None = None,
    isolation: Any | None = None,
    retry: Any | None = None,
    failure_log: str | Path | None = None,
    telemetry: Any | None = None,
    backend: Any | None = None,
    steal: Any | None = None,
) -> CampaignResult:
    """Run a full injection campaign.

    Fault models rotate round-robin so every model receives an equal
    share; interrupt times are drawn uniformly per run by the
    Supervisor.  Deterministic for a given config: every run's random
    stream is keyed by ``(seed, benchmark, run_index)``, so the result
    is bit-identical for any ``workers`` count, shard layout or
    isolation mode.

    ``workers`` > 1 (or ``None`` for ``REPRO_WORKERS`` / cpu-count
    auto-detection), ``checkpoint_dir``, ``shard_size``, ``progress``,
    ``isolation`` (an :class:`~repro.carolfi.isolation.IsolationConfig`
    selecting subprocess sandboxing), ``retry`` (an
    :class:`~repro.carolfi.engine.RetryPolicy`) or ``failure_log``
    route the campaign through the sharded engine
    (:mod:`repro.carolfi.engine`), which adds parallel execution,
    resumable per-shard JSONL checkpoints and fault-domain supervision.
    ``telemetry`` (a :class:`~repro.telemetry.Telemetry` bundle) also
    routes through the engine, which populates the bundle's metrics
    registry and trace as the campaign runs.  The default (``workers=1``,
    no checkpointing, inproc isolation) keeps the plain in-process
    serial path below.
    """
    engine_requested = (
        workers != 1
        or checkpoint_dir is not None
        or shard_size is not None
        or progress
        or isolation is not None
        or retry is not None
        or failure_log is not None
        or telemetry is not None
        or config.target_ci is not None
        or backend is not None
    )
    if engine_requested:
        from repro.carolfi.engine import run_sharded_campaign

        return run_sharded_campaign(
            config,
            workers=workers,
            checkpoint_dir=checkpoint_dir,
            shard_size=shard_size,
            progress=progress,
            log_path=log_path,
            isolation=isolation,
            retry=retry,
            failure_log=failure_log,
            telemetry=telemetry,
            backend=backend,
            steal=steal,
        )
    benchmark = create(config.benchmark, **config.benchmark_params)
    supervisor = Supervisor(
        benchmark,
        seed=config.seed,
        policy=config.policy,
        snapshots=config.snapshots,
    )
    log = JsonlLog(log_path) if log_path is not None else None
    records: list[InjectionRecord] = []
    runs = [
        (run_index, model_for(config, run_index))
        for run_index in range(config.injections)
    ]
    batched: dict[int, InjectionRecord] = {}
    if config.batch_size > 1:
        from repro.carolfi.batchrunner import BatchRunner

        batched = BatchRunner(supervisor, config.batch_size).run_many(runs)
    try:
        for run_index, model in runs:
            record = batched.get(run_index)
            if record is None:
                record = supervisor.run_one(run_index, model)
            records.append(record)
            if log is not None:
                log.append(record.to_dict())
    finally:
        if log is not None:
            log.close()
    return CampaignResult(config=config, records=records)
