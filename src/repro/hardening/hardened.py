"""Hardened execution: the paper's future work, executed.

"In the future, we plan to implement the mitigation techniques based on
the radiation and fault injection analysis.  Then, we will validate
them with fault injection campaigns."  This module does exactly that:
it re-runs CAROL-FI campaigns against benchmarks protected by the
Section 6.1 recommendations —

* variable guards (:mod:`repro.hardening.guards`) checked between
  scheduling quanta and re-synced after every clean step, so a fault
  injected into protected state is *detected* before the program
  consumes it;
* for DGEMM, Huang-Abraham ABFT on the output: checksums derived from
  the operands at load time verify (and where the pattern allows,
  *correct*) the product before it is accepted.

Outcomes gain two new categories relative to Figure 4: ``detected``
(a guard or the ABFT verification flagged the corruption — the system
can abort/retry instead of silently corrupting) and ``corrected``
(ABFT repaired the output in place).

Injected runs resume from the golden prefix through the same
:class:`~repro.carolfi.prefixcache.PrefixStore` path as CAROL-FI.  The
guards need no replay either: after a fault-free prefix to step ``k``
every guard whose variable is live at ``k`` holds ``resync`` of that
variable (a pure function of the store) and every other guard is
detached, and ``verify`` never trips on golden data — so rebuilding
exactly that state at ``k`` is indistinguishable from walking there.
The constructor's golden run records the whole store.  Its fault-free
hardened run stays a full replay from step 0: it checks that the guards
never trip on golden data and that ABFT finds the golden output clean,
and it counts the bytes the guards verify per step — the protection's
cost as a deterministic work count, never a wall-clock ratio.  Those
two checks let an injected run stop early: once its state is
byte-identical to a stored snapshot at or after the interrupt step,
its guards hold ``sync_guards`` of that golden state, so the rest of
the run is the fault-free run's suffix — no trip, no detector event, a
clean output — and the record is ``masked``.  No wall clock decides an
outcome either: hangs are the benchmarks' deterministic loop guards,
recorded as ``due`` with a ``timeout:`` detail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.analysis.spatial import wrong_mask
from repro.benchmarks.base import Benchmark, BenchmarkHang
from repro.benchmarks.registry import create
from repro.carolfi.flipscript import FlipScript, SitePolicy
from repro.carolfi.prefixcache import PrefixStore
from repro.carolfi.supervisor import _CRASH_EXCEPTIONS
from repro.faults.models import FaultModel
from repro.faults.site import FaultSite
from repro.hardening.abft import AbftOutcome, abft_check, abft_checksums
from repro.hardening.guards import (
    DetectorEvent,
    FaultDetected,
    attach_observer,
    build_guards,
    sync_guards,
)
from repro.util.rng import derive_rng

__all__ = [
    "HardenedCampaignResult",
    "HardenedOutcome",
    "HardenedRecord",
    "HardenedSupervisor",
    "run_hardened_campaign",
]

HardenedOutcome = str  # "masked" | "sdc" | "due" | "detected" | "corrected"

HARDENED_OUTCOMES: tuple[str, ...] = ("masked", "sdc", "due", "detected", "corrected")


@dataclass(frozen=True)
class HardenedRecord:
    """One injection against the hardened benchmark."""

    benchmark: str
    run_index: int
    site: FaultSite
    fault_model: str
    interrupt_step: int
    outcome: HardenedOutcome
    detected_by: str = ""
    detail: str = ""


@dataclass
class HardenedCampaignResult:
    """Campaign outcomes plus the protection's cost in bytes."""

    benchmark: str
    records: list[HardenedRecord]
    verify_kib_per_step: float
    guard_bytes: int

    def shares(self) -> dict[str, float]:
        if not self.records:
            raise ValueError("empty campaign")
        total = len(self.records)
        return {
            outcome: sum(1 for r in self.records if r.outcome == outcome) / total
            for outcome in HARDENED_OUTCOMES
        }

    def residual_harmful(self) -> float:
        """SDC+DUE fraction that survives the hardening."""
        shares = self.shares()
        return shares["sdc"] + shares["due"]


class HardenedSupervisor:
    """Runs injections against a benchmark wrapped in its guards."""

    def __init__(
        self,
        benchmark: Benchmark,
        seed: int,
        policy: SitePolicy = SitePolicy.WEIGHTED,
        abft: bool | None = None,
        detector_observer: Any | None = None,
    ):
        self.benchmark = benchmark
        self.seed = int(seed)
        self.flip = FlipScript(policy)
        #: ABFT output verification applies to the matrix-product code.
        self.abft = benchmark.name == "dgemm" if abft is None else bool(abft)
        #: Optional ``Callable[[DetectorEvent], None]`` wired into every
        #: guard of every run (the fuzz oracle's detector-state tap).
        self.detector_observer = detector_observer
        self._pristine: Any = None

        state = self._fresh_state()
        self.total_steps = benchmark.num_steps(state)
        self.prefix = PrefixStore(benchmark, self.total_steps)
        self.prefix.record(state)
        self.golden = self._quantize(benchmark.output(state))
        # ABFT checksums derive from the operands at load time: once,
        # from the pristine input every run starts from.
        self._checksums = (
            abft_checksums(self._pristine.a_src, self._pristine.b_src) if self.abft else None
        )

        # The fault-free hardened run: guards must never trip on golden
        # data and ABFT must find the golden output clean (the prefix
        # resume and the convergence stop rest on it).  It also sets
        # ``verify_kib_per_step``: the KiB the guards verify per step.
        self.verify_kib_per_step = 0.0
        record = self._execute(run_index=-1, model=None, interrupt_step=None)
        if record.outcome != "masked":  # pragma: no cover - sanity
            raise RuntimeError(f"hardened fault-free run misbehaved: {record}")
        self.guard_bytes = self._measure_guard_bytes()

    # -- plumbing ---------------------------------------------------------------

    def _fresh_state(self) -> Any:
        """A bit-exact clone of the campaign's input, generated once."""
        if self._pristine is None:
            self._pristine = self.benchmark.make_state(
                derive_rng(self.seed, "carolfi", self.benchmark.name, "input")
            )
        return self.benchmark.restore(self._pristine)

    def _quantize(self, output: np.ndarray) -> np.ndarray:
        decimals = self.benchmark.output_decimals
        if decimals is None:
            return output
        with np.errstate(invalid="ignore", over="ignore"):
            return np.round(output, decimals)

    def _measure_guard_bytes(self) -> int:
        state = self._fresh_state()
        guards = build_guards(self.benchmark.name)
        arrays = {v.name: v.array for v in self.benchmark.variables(state, 0)}
        total = 0
        for name, guard in guards.items():
            if name in arrays:
                guard.resync(arrays[name])
                total += guard.overhead_bytes
        return total

    # -- the hardened run -----------------------------------------------------------

    def _execute(
        self,
        run_index: int,
        model: FaultModel | None,
        interrupt_step: int | None,
    ) -> HardenedRecord:
        bench = self.benchmark
        rng = derive_rng(self.seed, "hardened", bench.name, "run", str(run_index))
        if model is None:
            # The fault-free run: a full replay, never stopped early.
            state, start_step = self._fresh_state(), 0
        else:
            if interrupt_step is None:
                interrupt_step = int(rng.integers(0, self.total_steps))
            if not 0 <= interrupt_step < self.total_steps:
                raise ValueError(f"interrupt step {interrupt_step} out of range")
            state, start_step = self.prefix.resume(interrupt_step, self._fresh_state)
        checksums = self._checksums
        guards = build_guards(bench.name)
        if self.detector_observer is not None:
            attach_observer(guards, self.detector_observer)
        site = FaultSite("none", "none", 0, "none")
        outcome: HardenedOutcome = "masked"
        detected_by = ""
        detail = ""
        verified = 0

        try:
            # Attach the guards to the state the run starts from, so
            # corruption at its very first quantum is already covered.
            sync_guards(guards, bench.variables(state, start_step))
            for index in range(start_step, self.total_steps):
                if model is not None:
                    if index == interrupt_step:
                        site, _bits = self.flip.inject(bench, state, index, model, rng)
                    if index >= interrupt_step and self.prefix.converged(index, state):
                        return HardenedRecord(
                            bench.name,
                            run_index,
                            site,
                            model.value,
                            interrupt_step,
                            "masked",
                        )
                arrays = {v.name: v.array for v in bench.variables(state, index)}
                # Scheduled scrub point: verify every guarded store
                # before this quantum consumes it.
                for name, guard in guards.items():
                    if name in arrays:
                        guard.verify(arrays[name])
                        verified += arrays[name].nbytes
                bench.step(state, index)
                sync_guards(guards, bench.variables(state, index + 1))
            if model is None:
                self.verify_kib_per_step = verified / 1024 / self.total_steps
            observed = bench.output(state)
            if checksums is not None:
                verdict = abft_check(observed, checksums[0], checksums[1])
                if (
                    self.detector_observer is not None
                    and verdict.outcome is not AbftOutcome.CLEAN
                ):
                    self.detector_observer(
                        DetectorEvent("output", "abft", verdict.outcome.value)
                    )
                if verdict.outcome is AbftOutcome.CORRECTED:
                    observed = verdict.matrix
                    if wrong_mask(self.golden, self._quantize(observed)).any():
                        outcome = "sdc"  # correction missed residual damage
                        detail = "abft corrected but output still differs"
                    else:
                        outcome = "corrected"
                        detected_by = "abft"
                        detail = f"{verdict.corrections} element(s) repaired"
                    return HardenedRecord(
                        bench.name,
                        run_index,
                        site,
                        model.value if model else "none",
                        interrupt_step if interrupt_step is not None else -1,
                        outcome,
                        detected_by,
                        detail,
                    )
                if verdict.outcome is AbftOutcome.DETECTED:
                    return HardenedRecord(
                        bench.name,
                        run_index,
                        site,
                        model.value if model else "none",
                        interrupt_step if interrupt_step is not None else -1,
                        "detected",
                        "abft",
                        "output checksums mismatch (uncorrectable pattern)",
                    )
            observed = self._quantize(observed)
            if wrong_mask(self.golden, observed).any():
                outcome = "sdc"
        except FaultDetected as exc:
            outcome = "detected"
            detected_by = f"{exc.kind.value}:{exc.variable}"
            detail = str(exc)
        except BenchmarkHang as exc:
            outcome = "due"
            detail = f"timeout: {exc}"
        except _CRASH_EXCEPTIONS as exc:
            outcome = "due"
            detail = f"crash: {type(exc).__name__}: {exc}"

        return HardenedRecord(
            bench.name,
            run_index,
            site,
            model.value if model else "none",
            interrupt_step if interrupt_step is not None else -1,
            outcome,
            detected_by,
            detail,
        )

    def run_one(
        self,
        run_index: int,
        model: FaultModel,
        interrupt_step: int | None = None,
    ) -> HardenedRecord:
        """One injection against the hardened benchmark."""
        return self._execute(run_index, FaultModel(model), interrupt_step)


def run_hardened_campaign(
    benchmark: str,
    injections: int,
    seed: int = 2017,
    fault_models: tuple[FaultModel, ...] = FaultModel.all(),
    benchmark_params: dict[str, Any] | None = None,
) -> HardenedCampaignResult:
    """A full injection campaign against the hardened benchmark."""
    if injections < 1:
        raise ValueError("injections must be positive")
    if not fault_models:
        raise ValueError("at least one fault model is required")
    supervisor = HardenedSupervisor(
        create(benchmark, **(benchmark_params or {})), seed=seed
    )
    records = [
        supervisor.run_one(index, fault_models[index % len(fault_models)])
        for index in range(injections)
    ]
    return HardenedCampaignResult(
        benchmark=benchmark,
        records=records,
        verify_kib_per_step=supervisor.verify_kib_per_step,
        guard_bytes=supervisor.guard_bytes,
    )
