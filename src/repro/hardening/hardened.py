"""Hardened execution: the paper's future work, executed.

"In the future, we plan to implement the mitigation techniques based on
the radiation and fault injection analysis.  Then, we will validate
them with fault injection campaigns."  This module does exactly that:
it re-runs CAROL-FI campaigns against benchmarks protected by the
Section 6.1 recommendations —

* variable guards (:mod:`repro.hardening.guards`) over the live
  variables, so a fault injected into protected state is *detected*
  before the program consumes it;
* for DGEMM, Huang-Abraham ABFT on the output: checksums derived from
  the operands at load time verify (and where the pattern allows,
  *correct*) the product before it is accepted.

Outcomes gain two new categories relative to Figure 4: ``detected``
(a guard or the ABFT verification flagged the corruption — the system
can abort/retry instead of silently corrupting) and ``corrected``
(ABFT repaired the output in place).

Every hardened run steps through the same loop as CAROL-FI runs,
:meth:`PrefixStore.run <repro.carolfi.prefixcache.PrefixStore.run>`,
over the golden store the constructor gets from
:func:`~repro.carolfi.prefixcache.golden_store` for the CAROL-FI input
(so it equals the CAROL-FI campaign's store).  A guarded execution
would verify every guard before each step and re-sync it after; of all
those checks only the one at the interrupt step ``k``, after the flip,
can trip: every other check reads exactly the bytes the resync just
before it captured, and ``verify`` is a pure function of those bytes.
So an injected run makes that one check and no other, inside its
perturbation (:meth:`HardenedSupervisor.perturb`).  After a fault-free
prefix to ``k`` every guard whose variable is live at ``k`` holds
``resync`` of that variable and every other guard is detached, so
``sync_guards`` on the golden state at ``k`` rebuilds that guard state
without walking there; then the flip lands, and each live guarded
variable is verified once, in guard order, raising the same
:class:`~repro.hardening.guards.FaultDetected` a full guarded walk
would.  An injected run may stop early: once its state is
byte-identical to a stored snapshot at or after ``k``, the rest of the
run is the fault-free suffix — no check there can trip, no detector
event, a clean output — and the record is ``masked``.  No wall clock
decides an outcome either: hangs are the benchmarks' deterministic loop
guards, recorded as ``due`` with a ``timeout:`` detail.

Set-up walks the golden run once.  Before every step of that walk it
sums the bytes of the guarded live variables — the bytes a guarded
execution verifies per step, the protection's cost as a deterministic
work count, never a wall-clock ratio — and ABFT must then find the
golden output clean, which the convergence stop rests on.

Since every guard check happens inside the perturbation, a hardened
run batches like a CAROL-FI one (:mod:`repro.carolfi.batchrunner`): a
member joins the golden walk, is perturbed there, and
:meth:`HardenedSupervisor.finish` classifies its flushed output.

A hardened campaign is one kind of campaign (:class:`HardenedConfig`):
it runs through :func:`~repro.carolfi.campaign.run_campaign` like
CAROL-FI's, so workers, shard checkpoints, subprocess isolation and
batching apply to it unchanged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, ClassVar

import numpy as np

from repro.analysis.spatial import wrong_mask
from repro.benchmarks.base import Benchmark, BenchmarkHang
from repro.benchmarks.registry import create
from repro.carolfi.batchrunner import DEFAULT_BATCH_SIZE, run_batch
from repro.carolfi.campaign import CampaignKind, run_campaign
from repro.carolfi.flipscript import FlipScript, SitePolicy
from repro.carolfi.isolation import EventCallback
from repro.carolfi.prefixcache import golden_store
from repro.faults.models import FaultModel
from repro.faults.outcome import _CRASH_EXCEPTIONS, DueKind
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
    runner presents, and :meth:`run_rng`, :meth:`perturb`,
    :meth:`finish` and :meth:`run_batch` the batch runner's protocol
    (:mod:`repro.carolfi.batchrunner`).  ``on_event`` goes to
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
        #: A batched run reports its join-time events.
        self.detector_observer = detector_observer

        # The golden walk also sets ``verify_kib_per_step``: the KiB of
        # guarded live variables a guarded execution verifies per step,
        # the protection's cost as a deterministic work count.
        guarded = build_guards(benchmark.name).keys()
        verified = 0

        def count_verified(state: Any, index: int) -> None:
            nonlocal verified
            arrays = {v.name: v.array for v in benchmark.variables(state, index)}
            verified += sum(arrays[name].nbytes for name in guarded if name in arrays)

        self.prefix = golden_store(
            benchmark, self.seed, "carolfi", on_event=on_event, before_step=count_verified
        )
        self.total_steps = self.prefix.total_steps
        self.verify_kib_per_step = verified / 1024 / self.total_steps
        self.golden = benchmark.quantize(self.prefix.output)
        # ABFT checksums derive from the operands at load time: once,
        # from the pristine input every run starts from.
        pristine = self.prefix.pristine
        self._checksums = (
            abft_checksums(pristine.a_src, pristine.b_src) if self.abft else None
        )
        # ABFT must find the golden output clean: the convergence stop
        # and the batch path's golden-again members rest on it.
        if self._classify(self.prefix.output)[0] != "masked":  # pragma: no cover - sanity
            raise RuntimeError("hardened checks flag the golden output")
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

    def run_rng(self, run_index: int) -> np.random.Generator:
        """The per-run RNG stream, keyed by run index alone."""
        return derive_rng(self.seed, "hardened", self.benchmark.name, "run", str(run_index))

    def perturb(
        self, state: Any, step: int, model: FaultModel, rng: np.random.Generator
    ) -> FaultSite:
        """Flip ``state`` at the entry of ``step`` behind its guards.

        The golden prefix leaves the guards synced to ``state``, so they
        are synced on it; then the flip lands, and each live guard is
        verified once — the one check that can trip (module docstring).
        Returns the fault site, :meth:`finish`'s token; a tripped guard
        raises :class:`~repro.hardening.guards.FaultDetected` carrying
        the site instead.
        """
        bench = self.benchmark
        guards = build_guards(bench.name)
        if self.detector_observer is not None:
            attach_observer(guards, self.detector_observer)
        sync_guards(guards, bench.variables(state, step))
        site, _bits = self.flip.inject(bench, state, step, model, rng)
        arrays = {v.name: v.array for v in bench.variables(state, step)}
        try:
            for name, guard in guards.items():
                if name in arrays:
                    guard.verify(arrays[name])
        except FaultDetected as exc:
            exc.site = site
            raise
        return site

    def finish(
        self,
        run_index: int,
        model: FaultModel,
        step: int,
        token: FaultSite | None,
        final: Any,
    ) -> HardenedRecord:
        """The record of a run perturbed at ``step``.

        ``token`` is the site :meth:`perturb` returned (``None`` if it
        raised); ``final`` is the run's final state, ``None`` for a run
        golden again (the rest is the fault-free suffix: no check can
        trip and the output is clean, so it is masked), or the
        exception the run raised.  :meth:`run_one` and the batch runner
        both end here.
        """
        site = token if token is not None else FaultSite("none", "none", 0, "none")
        verdict: tuple[HardenedOutcome, str, str] = ("masked", "", "")
        if final is not None and not isinstance(final, BaseException):
            try:
                verdict = self._classify(self.benchmark.output(final))
            except _CRASH_EXCEPTIONS as exc:
                final = exc.with_traceback(None)
        if isinstance(final, FaultDetected):
            site = final.site
            verdict = ("detected", f"{final.kind.value}:{final.variable}", str(final))
        elif isinstance(final, BenchmarkHang):
            verdict = ("due", "", f"timeout: {final}")
        elif isinstance(final, BaseException):
            verdict = ("due", "", f"crash: {type(final).__name__}: {final}")
        return HardenedRecord(
            self.benchmark.name, run_index, site, FaultModel(model).value, step, *verdict
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
        """One injection against the hardened benchmark: :meth:`perturb`
        inside one :meth:`PrefixStore.run
        <repro.carolfi.prefixcache.PrefixStore.run>`, then :meth:`finish`."""
        rng = self.run_rng(run_index)
        model = FaultModel(model)
        if interrupt_step is None:
            interrupt_step = int(rng.integers(0, self.total_steps))
        if not 0 <= interrupt_step < self.total_steps:
            raise ValueError(f"interrupt step {interrupt_step} out of range")
        token: FaultSite | None = None

        def perturb(state: Any, index: int) -> None:
            nonlocal token
            token = self.perturb(state, index, model, rng)

        try:
            final = self.prefix.run(interrupt_step, perturb)
        except _CRASH_EXCEPTIONS as exc:
            # Without the traceback, which would hold this frame in a
            # cycle (``Supervisor.run_one``).
            final = exc.with_traceback(None)
        return self.finish(run_index, model, interrupt_step, token, final)

    def due_record(
        self, run_index: int, model: FaultModel, *, kind: DueKind, detail: str
    ) -> HardenedRecord:
        """A ``due`` record for a run whose executor never reported back.

        The interrupt step is re-derived from the run's ``"hardened"``
        stream as :meth:`run_one` draws it; the fault site is unknown
        (it died with the executor).
        """
        interrupt_step = int(self.run_rng(run_index).integers(0, self.total_steps))
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

    run_batch = run_batch


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
    #: Execution strategy, not record content: checkpoints resume at
    #: any width.
    fingerprint_excludes: ClassVar[frozenset[str]] = frozenset({"batch_size"})

    benchmark: str
    injections: int = 1000
    seed: int = 2017
    fault_models: tuple[FaultModel, ...] = FaultModel.all()
    benchmark_params: dict[str, Any] = field(default_factory=dict)
    batch_size: int = DEFAULT_BATCH_SIZE
    """Vectorized batch width, as :attr:`CampaignConfig.batch_size
    <repro.carolfi.campaign.CampaignConfig.batch_size>`: ``1`` runs
    every run scalar, and records are byte-identical at any width."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "fault_models", tuple(map(FaultModel, self.fault_models)))
        if self.injections < 1:
            raise ValueError("injections must be positive")
        if not self.fault_models:
            raise ValueError("at least one fault model is required")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

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
        """The records plus the protection's cost, which a runner's
        golden walk measures: ``runner``'s, else a runner built for it
        (a campaign replayed whole from checkpoints)."""
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
