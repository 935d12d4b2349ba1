"""Event-driven beam campaign.

Each trial simulates the consequences of one potential neutron strike:
the strike time is uniform over the execution, the struck resource is
drawn by cross section, the occupancy gate decides whether it touched
live state, and the machine model corrupts the running benchmark
accordingly.  The run then completes (or crashes) and the host-side
check classifies the output against the golden copy — the same
observability the paper has at the beam ("faults are observed only at
the code output").

This is exact importance sampling of the single-strike regime the
paper tunes its beam for (<1e-4 errors/execution makes double events
negligible), so campaign outcome frequencies divide directly into FIT
rates via the cross-section bookkeeping in :mod:`repro.beam.fit`.

Trials step through the same loop as CAROL-FI runs,
:meth:`PrefixStore.run <repro.carolfi.prefixcache.PrefixStore.run>`,
over the golden store the constructor gets from
:func:`~repro.carolfi.prefixcache.golden_store` for the beam input: a strike
lands at the entry of its step, the machine model keeps no per-trial
state and each trial's RNG is keyed by its trial index, so restoring
the deepest snapshot at or below the strike step and stepping only the
suffix yields the record a replay from step 0 would.  A trial whose
state is byte-identical to a stored snapshot at or after its strike
step has rejoined the golden trajectory (most often an ECC-corrected
strike that changed nothing): it stops there, masked, keeping its
strike's ``effect``, because the rest of the run would recompute the
golden output bit for bit.

A trial is a fixed number of steps, so no wall clock decides its
outcome: hangs are the benchmarks' deterministic loop guards and the
machine model's scheduler wedge, both recorded as ``timeout`` DUEs.

A beam campaign is one kind of campaign (:class:`BeamConfig`): it runs
through :func:`~repro.carolfi.campaign.run_campaign` like CAROL-FI's,
so workers, shard checkpoints and subprocess isolation apply to it
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar

import numpy as np

from repro.analysis.spatial import sdc_metrics
from repro.benchmarks.base import Benchmark, BenchmarkHang
from repro.benchmarks.registry import create
from repro.beam.sensitivity import DEFAULT_SENSITIVITY, DeviceSensitivity
from repro.carolfi.campaign import CampaignKind, run_campaign
from repro.carolfi.isolation import EventCallback
from repro.carolfi.prefixcache import golden_store
from repro.faults.outcome import _CRASH_EXCEPTIONS, DueKind, Outcome
from repro.phi.config import KNC_3120A, PhiConfig
from repro.phi.machine import MachineCheckError, SchedulerWedge, XeonPhiMachine
from repro.phi.resources import ResourceClass
from repro.util.rng import derive_rng

__all__ = ["BeamCampaignResult", "BeamConfig", "BeamExperiment", "BeamRecord"]

@dataclass(frozen=True)
class BeamRecord:
    """One strike trial and its observed outcome."""

    benchmark: str
    trial: int
    resource: str
    effect: str
    strike_step: int
    total_steps: int
    occupied: bool
    outcome: Outcome
    due_kind: DueKind | None = None
    due_detail: str = ""
    sdc_metrics: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "trial": self.trial,
            "resource": self.resource,
            "effect": self.effect,
            "strike_step": self.strike_step,
            "total_steps": self.total_steps,
            "occupied": self.occupied,
            "outcome": self.outcome.value,
            "due_kind": self.due_kind.value if self.due_kind else None,
            "due_detail": self.due_detail,
            "sdc_metrics": dict(self.sdc_metrics),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BeamRecord":
        return cls(
            benchmark=data["benchmark"],
            trial=int(data["trial"]),
            resource=data["resource"],
            effect=data["effect"],
            strike_step=int(data["strike_step"]),
            total_steps=int(data["total_steps"]),
            occupied=bool(data["occupied"]),
            outcome=Outcome(data["outcome"]),
            due_kind=DueKind(data["due_kind"]) if data.get("due_kind") else None,
            due_detail=data.get("due_detail", ""),
            sdc_metrics=dict(data.get("sdc_metrics", {})),
        )


@dataclass
class BeamCampaignResult:
    """All strike trials of one benchmark's beam campaign."""

    benchmark: str
    trials: list[BeamRecord]
    sensitivity: DeviceSensitivity

    def __len__(self) -> int:
        return len(self.trials)

    def count(self, outcome: Outcome) -> int:
        return sum(1 for t in self.trials if t.outcome is outcome)

    def sdc_records(self) -> list[BeamRecord]:
        return [t for t in self.trials if t.outcome is Outcome.SDC]

    def probability(self, outcome: Outcome) -> float:
        if not self.trials:
            raise ValueError("empty campaign")
        return self.count(outcome) / len(self.trials)


@dataclass(frozen=True)
class BeamConfig(CampaignKind[BeamCampaignResult]):
    """One benchmark's beam campaign plan: the beam kind.

    Carries only what determines the records of a
    :class:`BeamExperiment` built from it; an experiment built with a
    custom sensitivity table or machine model runs its campaign in
    process, through :meth:`BeamExperiment.run_campaign`.
    """

    kind: ClassVar[str] = "beam"
    input_label: ClassVar[str] = "beam"
    record_type: ClassVar[type] = BeamRecord
    row_key: ClassVar[str] = "trial"

    benchmark: str
    trials: int = 1000
    seed: int = 2017
    benchmark_params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be positive")

    @property
    def runs(self) -> int:
        return self.trials

    def build_runner(self, *, on_event: EventCallback | None = None) -> "BeamExperiment":
        return BeamExperiment(
            self.benchmark,
            seed=self.seed,
            benchmark_params=self.benchmark_params,
            on_event=on_event,
        )

    @staticmethod
    def row_cell(row: dict[str, Any]) -> tuple[str, str, str]:
        """Beam cells are struck resources."""
        return str(row["benchmark"]), str(row["resource"]), str(row["outcome"])

    def result(self, records: list[Any], runner: Any) -> BeamCampaignResult:
        sensitivity = DEFAULT_SENSITIVITY if runner is None else runner.sensitivity
        return BeamCampaignResult(benchmark=self.benchmark, trials=records, sensitivity=sensitivity)


class BeamExperiment:
    """Runs strike trials for one benchmark on the machine model.

    The beam kind's runner: :meth:`run_one`, :meth:`due_record`,
    ``total_steps`` and ``num_windows`` are the campaign surface every
    runner presents.  ``on_event`` goes to
    :func:`~repro.carolfi.prefixcache.golden_store`.
    """

    def __init__(
        self,
        benchmark: Benchmark | str,
        seed: int,
        sensitivity: DeviceSensitivity = DEFAULT_SENSITIVITY,
        config: PhiConfig = KNC_3120A,
        benchmark_params: dict[str, Any] | None = None,
        on_event: EventCallback | None = None,
    ):
        if isinstance(benchmark, str):
            benchmark = create(benchmark, **(benchmark_params or {}))
        self.benchmark = benchmark
        self.seed = int(seed)
        self.sensitivity = sensitivity
        self.machine = XeonPhiMachine(config)
        self.prefix = golden_store(benchmark, self.seed, "beam", on_event=on_event)
        self.total_steps = self.prefix.total_steps
        self.golden = self.prefix.output

    @property
    def num_windows(self) -> int:
        return self.benchmark.num_windows

    def _draw(self, trial: int) -> tuple[np.random.Generator, int, ResourceClass, bool]:
        """A trial's stream and its first draws: strike step, struck
        resource, and whether that resource held live state."""
        rng = derive_rng(self.seed, "beam", self.benchmark.name, "trial", str(trial))
        strike_step = int(rng.integers(0, self.total_steps))
        resource = self.sensitivity.sample_resource(rng)
        occupied = bool(rng.random() < self.sensitivity.occupancy_of(resource))
        return rng, strike_step, resource, occupied

    def run_one(self, trial: int) -> BeamRecord:
        """One campaign run: :meth:`run_trial`."""
        return self.run_trial(trial)

    def due_record(self, trial: int, *, kind: DueKind, detail: str) -> BeamRecord:
        """A DUE record for a trial whose executor never reported back.

        Strike step, resource and occupancy are re-derived in
        :meth:`run_trial`'s draw order; the strike's effect is unknown
        (it died with the executor).
        """
        _, strike_step, resource, occupied = self._draw(trial)
        return BeamRecord(
            benchmark=self.benchmark.name,
            trial=trial,
            resource=resource.value,
            effect="unknown",
            strike_step=strike_step,
            total_steps=self.total_steps,
            occupied=occupied,
            outcome=Outcome.DUE,
            due_kind=kind,
            due_detail=detail,
        )

    def run_trial(self, trial: int) -> BeamRecord:
        """Simulate one potential strike and classify its outcome."""
        bench = self.benchmark
        rng, strike_step, resource, occupied = self._draw(trial)

        if not occupied:
            return BeamRecord(
                benchmark=bench.name,
                trial=trial,
                resource=resource.value,
                effect="dead_state",
                strike_step=strike_step,
                total_steps=self.total_steps,
                occupied=False,
                outcome=Outcome.MASKED,
            )

        effect = "unapplied"
        outcome = Outcome.MASKED
        due_kind: DueKind | None = None
        due_detail = ""
        metrics: dict[str, Any] = {}

        def strike(state: Any, index: int) -> None:
            nonlocal effect
            effect = self.machine.apply_strike(bench, state, index, resource, rng).effect

        try:
            final = self.prefix.run(strike_step, strike)
            # Beam comparison is bitwise: "The SDC FIT includes all
            # executions with any bit mismatch" (Section 4.2) — unlike
            # CAROL-FI's printed-output diff.
            observed = self.golden if final is None else bench.output(final)
        except MachineCheckError as exc:
            outcome = Outcome.DUE
            due_kind = DueKind.MCA
            due_detail = str(exc)
            effect = "machine_check"
        except SchedulerWedge as exc:
            outcome = Outcome.DUE
            due_kind = DueKind.TIMEOUT
            due_detail = str(exc)
            effect = "scheduler_wedge"
        except BenchmarkHang as exc:
            outcome = Outcome.DUE
            due_kind = DueKind.TIMEOUT
            due_detail = str(exc)
        except _CRASH_EXCEPTIONS as exc:
            outcome = Outcome.DUE
            due_kind = DueKind.CRASH
            due_detail = f"{type(exc).__name__}: {exc}"
        else:
            metrics = sdc_metrics(self.golden, observed, bench.output_dims)
            if metrics:
                outcome = Outcome.SDC
        return BeamRecord(
            benchmark=bench.name,
            trial=trial,
            resource=resource.value,
            effect=effect,
            strike_step=strike_step,
            total_steps=self.total_steps,
            occupied=True,
            outcome=outcome,
            due_kind=due_kind,
            due_detail=due_detail,
            sdc_metrics=metrics,
        )

    def run_campaign(
        self, trials: int, log_path: str | Path | None = None
    ) -> BeamCampaignResult:
        """Run ``trials`` strike trials on this experiment (deterministic per seed).

        A serial in-process :func:`~repro.carolfi.campaign.run_campaign`
        of the matching :class:`BeamConfig`, run on this experiment, so
        its sensitivity table and machine model apply; for workers,
        checkpoints or isolation, run the config itself.  ``log_path``
        receives the records, written whole once the last trial is in,
        so a rerun rewrites the log instead of appending.
        """
        config = BeamConfig(
            benchmark=self.benchmark.name,
            trials=trials,
            seed=self.seed,
            benchmark_params=dict(self.benchmark.params),
        )
        return run_campaign(config, log_path, runner=self)
