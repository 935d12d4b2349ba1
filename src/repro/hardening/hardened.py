"""Hardened execution: the paper's future work, executed.

"In the future, we plan to implement the mitigation techniques based on
the radiation and fault injection analysis.  Then, we will validate
them with fault injection campaigns."  This module does exactly that:
it re-runs CAROL-FI campaigns against benchmarks protected by the
Section 6.1 recommendations —

* variable guards (:mod:`repro.hardening.guards`) verified before every
  step and re-synced after it, so a fault injected into protected state
  is *detected* before the program consumes it;
* for DGEMM, Huang-Abraham ABFT on the output: checksums derived from
  the operands at load time verify (and where the pattern allows,
  *correct*) the product before it is accepted.

Outcomes gain two new categories relative to Figure 4: ``detected``
(a guard or the ABFT verification flagged the corruption — the system
can abort/retry instead of silently corrupting) and ``corrected``
(ABFT repaired the output in place).

Every hardened run — the fault-free one included — steps through the
same loop as CAROL-FI runs, :meth:`PrefixStore.run
<repro.carolfi.prefixcache.PrefixStore.run>`, over the golden store the
constructor gets from :func:`~repro.carolfi.prefixcache.golden_store`
for the CAROL-FI input (so it equals the CAROL-FI campaign's store).
Of all the guard checks a guarded execution makes, only the one at the
interrupt step ``k``, after the flip, can trip: every other check reads
exactly the bytes the resync just before it captured, and ``verify`` is
a pure function of those bytes.  So an injected run makes
that one check and no other, inside its perturbation.  After a
fault-free prefix to ``k`` every guard whose variable is live at ``k``
holds ``resync`` of that variable and every other guard is detached, so
``sync_guards`` on the golden state at ``k`` rebuilds that guard state
without walking there; then the flip lands, and each live guarded
variable is verified once, in guard order, raising the same
:class:`~repro.hardening.guards.FaultDetected` a full guarded walk
would.  The fault-free hardened run is a full replay from
step 0 that never stops early: ABFT must find its golden output clean,
and before every step it sums the bytes of the guarded live variables —
the bytes a guarded execution verifies per step, the protection's cost
as a deterministic work count, never a wall-clock ratio.  An injected
run may stop early: once its state is byte-identical to a stored
snapshot at or after ``k``, the rest of the run is the fault-free run's
suffix — no check there can trip, no detector event, a clean output —
and the record is ``masked``.  No wall clock decides an outcome either:
hangs are the benchmarks' deterministic loop guards, recorded as
``due`` with a ``timeout:`` detail.

A hardened campaign is one kind of campaign (:class:`HardenedConfig`):
it runs through :func:`~repro.carolfi.campaign.run_campaign` like
CAROL-FI's, so workers, shard checkpoints and subprocess isolation
apply to it unchanged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, ClassVar

import numpy as np

from repro.analysis.spatial import wrong_mask
from repro.benchmarks.base import Benchmark, BenchmarkHang
from repro.benchmarks.registry import create
from repro.carolfi.campaign import CampaignKind, run_campaign
from repro.carolfi.flipscript import FlipScript, SitePolicy
from repro.carolfi.isolation import EventCallback
from repro.carolfi.prefixcache import golden_store
from repro.carolfi.supervisor import _CRASH_EXCEPTIONS
from repro.faults.models import FaultModel
from repro.faults.outcome import DueKind
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
    "HardenedConfig",
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

    def to_dict(self) -> dict[str, Any]:
        """The record's fields as plain data (:func:`dataclasses.asdict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "HardenedRecord":
        return cls(
            benchmark=data["benchmark"],
            run_index=int(data["run_index"]),
            site=FaultSite.from_dict(data["site"]),
            fault_model=data["fault_model"],
            interrupt_step=int(data["interrupt_step"]),
            outcome=data["outcome"],
            detected_by=data.get("detected_by", ""),
            detail=data.get("detail", ""),
        )


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
    """Runs injections against a benchmark wrapped in its guards.

    The hardened kind's runner: :meth:`run_one`, :meth:`due_record`,
    ``total_steps`` and ``num_windows`` are the campaign surface every
    runner presents.  ``on_event`` goes to
    :func:`~repro.carolfi.prefixcache.golden_store`.
    """

    def __init__(
        self,
        benchmark: Benchmark,
        seed: int,
        policy: SitePolicy = SitePolicy.WEIGHTED,
        abft: bool | None = None,
        detector_observer: Any | None = None,
        on_event: EventCallback | None = None,
    ):
        self.benchmark = benchmark
        self.seed = int(seed)
        self.flip = FlipScript(policy)
        #: ABFT output verification applies to the matrix-product code.
        self.abft = benchmark.name == "dgemm" if abft is None else bool(abft)
        #: Optional ``Callable[[DetectorEvent], None]`` wired into every
        #: guard of every run and fed the ABFT verdicts: a tap on the
        #: detectors, used by ``test_detector_events_match_full_replay``.
        self.detector_observer = detector_observer
        self.prefix = golden_store(benchmark, self.seed, "carolfi", on_event=on_event)
        self.total_steps = self.prefix.total_steps
        self.golden = benchmark.quantize(self.prefix.output)
        # ABFT checksums derive from the operands at load time: once,
        # from the pristine input every run starts from.
        pristine = self.prefix.pristine
        self._checksums = (
            abft_checksums(pristine.a_src, pristine.b_src) if self.abft else None
        )

        # The fault-free hardened run: ABFT must find the golden output
        # clean (the convergence stop rests on it).  It also sets
        # ``verify_kib_per_step``: the KiB the guards verify per step.
        self.verify_kib_per_step = 0.0
        record = self._execute(run_index=-1, model=None, interrupt_step=None)
        if record.outcome != "masked":  # pragma: no cover - sanity
            raise RuntimeError(f"hardened fault-free run misbehaved: {record}")
        self.guard_bytes = self._measure_guard_bytes()

    @property
    def num_windows(self) -> int:
        return self.benchmark.num_windows

    # -- plumbing ---------------------------------------------------------------

    def _measure_guard_bytes(self) -> int:
        state = self.prefix.fresh()
        guards = build_guards(self.benchmark.name)
        arrays = {v.name: v.array for v in self.benchmark.variables(state, 0)}
        total = 0
        for name, guard in guards.items():
            if name in arrays:
                guard.resync(arrays[name])
                total += guard.overhead_bytes
        return total

    # -- the hardened run -----------------------------------------------------------

    def _run_rng(self, run_index: int) -> np.random.Generator:
        return derive_rng(self.seed, "hardened", self.benchmark.name, "run", str(run_index))

    def _execute(
        self,
        run_index: int,
        model: FaultModel | None,
        interrupt_step: int | None,
    ) -> HardenedRecord:
        """One hardened run; ``model=None`` is the fault-free full replay."""
        bench = self.benchmark
        rng = self._run_rng(run_index)
        if model is not None:
            if interrupt_step is None:
                interrupt_step = int(rng.integers(0, self.total_steps))
            if not 0 <= interrupt_step < self.total_steps:
                raise ValueError(f"interrupt step {interrupt_step} out of range")
        guards = build_guards(bench.name)
        if self.detector_observer is not None:
            attach_observer(guards, self.detector_observer)
        site = FaultSite("none", "none", 0, "none")
        verified = 0

        def inject(state: Any, index: int) -> None:
            # The golden prefix leaves the guards synced to this state,
            # and this is the one check that can trip (module docstring).
            nonlocal site
            sync_guards(guards, bench.variables(state, index))
            site, _bits = self.flip.inject(bench, state, index, model, rng)
            arrays = {v.name: v.array for v in bench.variables(state, index)}
            for name, guard in guards.items():
                if name in arrays:
                    guard.verify(arrays[name])

        def count_verified(state: Any, index: int) -> None:
            nonlocal verified
            arrays = {v.name: v.array for v in bench.variables(state, index)}
            verified += sum(arrays[name].nbytes for name in guards if name in arrays)

        try:
            final = self.prefix.run(
                interrupt_step, inject, count_verified if model is None else None
            )
            if final is None:
                # Golden again: the rest is the fault-free run's suffix.
                outcome, detected_by, detail = "masked", "", ""
            else:
                if model is None:
                    self.verify_kib_per_step = verified / 1024 / self.total_steps
                outcome, detected_by, detail = self._classify(bench.output(final))
        except FaultDetected as exc:
            outcome, detected_by, detail = "detected", f"{exc.kind.value}:{exc.variable}", str(exc)
        except BenchmarkHang as exc:
            outcome, detected_by, detail = "due", "", f"timeout: {exc}"
        except _CRASH_EXCEPTIONS as exc:
            outcome, detected_by, detail = "due", "", f"crash: {type(exc).__name__}: {exc}"
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

    def _classify(self, observed: np.ndarray) -> tuple[HardenedOutcome, str, str]:
        """``(outcome, detected_by, detail)`` of a finished run's output:
        ABFT's verdict where it applies, else the quantized compare."""
        if self._checksums is not None:
            verdict = abft_check(observed, *self._checksums)
            if self.detector_observer is not None and verdict.outcome is not AbftOutcome.CLEAN:
                self.detector_observer(DetectorEvent("output", "abft", verdict.outcome.value))
            if verdict.outcome is AbftOutcome.CORRECTED:
                if wrong_mask(self.golden, self.benchmark.quantize(verdict.matrix)).any():
                    # The correction missed residual damage.
                    return "sdc", "", "abft corrected but output still differs"
                return "corrected", "abft", f"{verdict.corrections} element(s) repaired"
            if verdict.outcome is AbftOutcome.DETECTED:
                return "detected", "abft", "output checksums mismatch (uncorrectable pattern)"
        if wrong_mask(self.golden, self.benchmark.quantize(observed)).any():
            return "sdc", "", ""
        return "masked", "", ""

    def run_one(
        self,
        run_index: int,
        model: FaultModel,
        interrupt_step: int | None = None,
    ) -> HardenedRecord:
        """One injection against the hardened benchmark."""
        return self._execute(run_index, FaultModel(model), interrupt_step)

    def due_record(
        self, run_index: int, model: FaultModel, *, kind: DueKind, detail: str
    ) -> HardenedRecord:
        """A ``due`` record for a run whose executor never reported back.

        The interrupt step is re-derived from the run's ``"hardened"``
        stream as :meth:`run_one` draws it; the fault site is unknown
        (it died with the executor).
        """
        interrupt_step = int(self._run_rng(run_index).integers(0, self.total_steps))
        return HardenedRecord(
            self.benchmark.name,
            run_index,
            FaultSite("unknown", "unknown", 0, "unknown", "unknown"),
            FaultModel(model).value,
            interrupt_step,
            "due",
            "",
            f"{kind.value}: {detail}",
        )


@dataclass(frozen=True)
class HardenedConfig(CampaignKind[HardenedCampaignResult]):
    """One benchmark's hardened injection campaign plan: the hardened kind.

    Its runs rotate over ``fault_models`` like CAROL-FI's and draw
    their input from the CAROL-FI stream, so their golden store equals
    the CAROL-FI campaign's.
    """

    kind: ClassVar[str] = "hardened"
    input_label: ClassVar[str] = "carolfi"
    record_type: ClassVar[type] = HardenedRecord

    benchmark: str
    injections: int = 1000
    seed: int = 2017
    fault_models: tuple[FaultModel, ...] = FaultModel.all()
    benchmark_params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fault_models", tuple(map(FaultModel, self.fault_models)))
        if self.injections < 1:
            raise ValueError("injections must be positive")
        if not self.fault_models:
            raise ValueError("at least one fault model is required")

    @property
    def runs(self) -> int:
        return self.injections

    def build_runner(self, *, on_event: EventCallback | None = None) -> HardenedSupervisor:
        return HardenedSupervisor(
            create(self.benchmark, **self.benchmark_params),
            seed=self.seed,
            on_event=on_event,
        )

    def run_args(self, run_index: int) -> tuple[FaultModel]:
        return (self.fault_models[run_index % len(self.fault_models)],)

    @staticmethod
    def row_cell(row: dict[str, Any]) -> tuple[str, str, str]:
        """Hardened cells are fault models."""
        return str(row["benchmark"]), str(row["fault_model"]), str(row["outcome"])

    def result(self, records: list[Any], runner: Any) -> HardenedCampaignResult:
        """The records plus the protection's cost, which the hardened
        fault-free run measures: from ``runner``, else from a runner
        built for it (a campaign replayed whole from checkpoints)."""
        if runner is None:
            runner = self.build_runner()
        return HardenedCampaignResult(
            benchmark=self.benchmark,
            records=records,
            verify_kib_per_step=runner.verify_kib_per_step,
            guard_bytes=runner.guard_bytes,
        )


def run_hardened_campaign(
    benchmark: str,
    injections: int,
    seed: int = 2017,
    fault_models: tuple[FaultModel, ...] = FaultModel.all(),
    benchmark_params: dict[str, Any] | None = None,
) -> HardenedCampaignResult:
    """A full injection campaign against the hardened benchmark.

    A serial in-process :func:`~repro.carolfi.campaign.run_campaign` of
    the matching :class:`HardenedConfig`; for workers, checkpoints or
    isolation, run the config itself.
    """
    return run_campaign(
        HardenedConfig(
            benchmark=benchmark,
            injections=injections,
            seed=seed,
            fault_models=tuple(fault_models),
            benchmark_params=dict(benchmark_params or {}),
        )
    )
