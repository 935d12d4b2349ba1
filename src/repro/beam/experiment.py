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

Trials resume from the golden prefix, exactly like CAROL-FI runs
(:class:`~repro.carolfi.prefixcache.PrefixStore`): a strike lands at
the entry of its step, the machine model keeps no per-trial state and
each trial's RNG is keyed by its trial index, so restoring the deepest
snapshot at or below the strike step and stepping only the suffix
yields the record a replay from step 0 would.  The store starts empty
— the constructor's timed golden run captures nothing — and fills
lazily from the golden prefixes of occupied trials.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.spatial import classify_mask, max_relative_error, wrong_mask
from repro.benchmarks.base import Benchmark, BenchmarkHang
from repro.benchmarks.registry import create
from repro.beam.sensitivity import DEFAULT_SENSITIVITY, DeviceSensitivity
from repro.carolfi.prefixcache import PrefixStore
from repro.faults.outcome import DueKind, Outcome
from repro.phi.config import KNC_3120A, PhiConfig
from repro.phi.machine import MachineCheckError, SchedulerWedge, XeonPhiMachine
from repro.util.jsonlog import JsonlLog
from repro.util.rng import derive_rng

__all__ = ["BeamCampaignResult", "BeamExperiment", "BeamRecord"]

_CRASH_EXCEPTIONS = (
    IndexError,
    ValueError,
    KeyError,
    OverflowError,
    ZeroDivisionError,
    FloatingPointError,
    RuntimeError,
)


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


class BeamExperiment:
    """Runs strike trials for one benchmark on the machine model."""

    def __init__(
        self,
        benchmark: Benchmark | str,
        seed: int,
        sensitivity: DeviceSensitivity = DEFAULT_SENSITIVITY,
        config: PhiConfig = KNC_3120A,
        watchdog_factor: float = 10.0,
        benchmark_params: dict[str, Any] | None = None,
    ):
        if isinstance(benchmark, str):
            benchmark = create(benchmark, **(benchmark_params or {}))
        self.benchmark = benchmark
        self.seed = int(seed)
        self.sensitivity = sensitivity
        self.machine = XeonPhiMachine(config)
        self.watchdog_factor = float(watchdog_factor)
        self._pristine: Any = None
        state = self._fresh_state()
        self.total_steps = benchmark.num_steps(state)
        start = time.perf_counter()
        self.golden = benchmark.run(state)
        self.golden_runtime = max(time.perf_counter() - start, 1e-4)
        self.prefix = PrefixStore(benchmark, self.total_steps)

    def _fresh_state(self) -> Any:
        """A bit-exact clone of the campaign's input, generated once."""
        if self._pristine is None:
            self._pristine = self.benchmark.make_state(
                derive_rng(self.seed, "beam", self.benchmark.name, "input")
            )
        return self.benchmark.restore(self._pristine)

    def run_trial(self, trial: int) -> BeamRecord:
        """Simulate one potential strike and classify its outcome."""
        bench = self.benchmark
        rng = derive_rng(self.seed, "beam", bench.name, "trial", str(trial))
        strike_step = int(rng.integers(0, self.total_steps))
        resource = self.sensitivity.sample_resource(rng)
        occupied = rng.random() < self.sensitivity.occupancy_of(resource)

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

        state, start_step = self.prefix.resume(strike_step, self._fresh_state)
        deadline = time.perf_counter() + self.watchdog_factor * self.golden_runtime + 1.0
        effect = "unapplied"
        outcome = Outcome.MASKED
        due_kind: DueKind | None = None
        due_detail = ""
        sdc_metrics: dict[str, Any] = {}
        try:
            for index in range(start_step, self.total_steps):
                self.prefix.fill(index, state, strike_step)
                if index == strike_step:
                    result = self.machine.apply_strike(bench, state, index, resource, rng)
                    effect = result.effect
                bench.step(state, index)
                if time.perf_counter() > deadline:
                    raise BenchmarkHang("beam watchdog expired")
            # Beam comparison is bitwise: "The SDC FIT includes all
            # executions with any bit mismatch" (Section 4.2) — unlike
            # CAROL-FI's printed-output diff.
            observed = bench.output(state)
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
            mask = wrong_mask(self.golden, observed)
            if mask.any():
                outcome = Outcome.SDC
                pattern = classify_mask(mask, bench.output_dims)
                sdc_metrics = {
                    "wrong_elements": int(mask.sum()),
                    "wrong_fraction": float(mask.mean()),
                    "max_rel_err": max_relative_error(self.golden, observed),
                    "pattern": pattern.value,
                }
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
            sdc_metrics=sdc_metrics,
        )

    def run_campaign(
        self, trials: int, log_path: str | Path | None = None
    ) -> BeamCampaignResult:
        """Run ``trials`` strike trials (deterministic per seed)."""
        if trials < 1:
            raise ValueError("trials must be positive")
        log = JsonlLog(log_path) if log_path is not None else None
        records = []
        for trial in range(trials):
            record = self.run_trial(trial)
            records.append(record)
            if log is not None:
                log.append(record.to_dict())
        return BeamCampaignResult(
            benchmark=self.benchmark.name, trials=records, sensitivity=self.sensitivity
        )
