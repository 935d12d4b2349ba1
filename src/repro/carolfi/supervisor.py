"""The Supervisor: launch, interrupt, check, log.

One :meth:`Supervisor.run_one` is one CAROL-FI test: start the
benchmark, deliver the interrupt at a random step, let the Flip-script
corrupt a live variable, resume at full speed, and classify the result
against the golden output.  DUEs are *observed*, never simulated:
unhandled exceptions out of the resumed execution are crashes, and the
benchmarks' deterministic loop guards are hangs.  No wall clock enters a
record: a run is a fixed number of steps, so its record is a pure
function of the campaign config and the run index.

The campaign generates its input data set once (the paper: datasets
"will be generated once and used during the whole fault injection
campaign"), so the golden output is computed a single time and every
run replays identical inputs.

**Prefix fast path.**  The supervisor's
:class:`~repro.carolfi.prefixcache.PrefixStore` owns the campaign's
golden run — pristine input, snapshots, golden output — and every
``run_one`` is :meth:`Supervisor.perturb` inside one
:meth:`~repro.carolfi.prefixcache.PrefixStore.run`, then
:meth:`Supervisor.finish`:
resume from the deepest snapshot at or below the interrupt step,
deliver the fault at the entry of that step, and from there on stop at
the first snapshot step whose bytes the run matches (golden
re-convergence: the kernels are deterministic and the run's RNG serves
only its fault, so such a run would recompute the golden output
without raising; it is classified against the golden output, with the
record a full suffix would have produced).  Records
are identical by construction: each run's RNG stream is keyed by its
run index, never by how many steps were actually executed, and a
restored prefix is a bit-exact clone of the recomputed one.
``snapshots=False`` records the store without captures, so every run
replays from step 0 to the end — the reference path the test-suite
asserts produces byte-identical campaign logs.  The batch runner
(:mod:`repro.carolfi.batchrunner`) makes the same two calls around its
vectorized walk, so both paths build records alike.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.analysis.spatial import sdc_metrics
from repro.benchmarks.base import Benchmark, BenchmarkHang
from repro.carolfi.batchrunner import run_batch
from repro.carolfi.flipscript import FlipScript, SitePolicy
from repro.carolfi.prefixcache import DEFAULT_SNAPSHOT_BUDGET, golden_store
from repro.faults.models import FaultModel
from repro.faults.outcome import _CRASH_EXCEPTIONS, DueKind, InjectionRecord, Outcome
from repro.faults.site import FaultSite
from repro.telemetry import current_registry, current_tracer
from repro.util.rng import derive_rng

__all__ = ["Supervisor"]


class Supervisor:
    """Runs individual fault-injection tests for one benchmark.

    ``snapshots`` enables the execution-prefix fast path (see the module
    docstring).  Either way set-up is one golden walk, which records the
    store (:attr:`prefix`) and ends on the golden output.
    ``on_event`` receives structured operational events (currently
    ``snapshot_budget_degraded``) destined for the campaign's
    ``failures.jsonl``.

    Its campaign surface — :meth:`run_one`, :meth:`due_record`,
    ``total_steps`` and ``num_windows`` — is the one
    ``BeamExperiment`` and ``HardenedSupervisor`` present too; the
    CAROL-FI campaign kind (:class:`~repro.carolfi.campaign.
    CampaignConfig`) builds it and hands each run its fault model.
    :meth:`run_rng`, :meth:`perturb`, :meth:`finish` and
    :meth:`run_batch` are the batch runner's protocol, which
    ``HardenedSupervisor`` presents too.
    """

    def __init__(
        self,
        benchmark: Benchmark,
        seed: int,
        policy: SitePolicy = SitePolicy.WEIGHTED,
        snapshots: bool = True,
        snapshot_budget: int = DEFAULT_SNAPSHOT_BUDGET,
        snapshot_density: int | None = None,
        on_event: "Any | None" = None,
    ):
        self.benchmark = benchmark
        self.seed = int(seed)
        self.flip = FlipScript(policy)
        self.prefix = golden_store(
            benchmark,
            self.seed,
            "carolfi",
            snapshots=snapshots,
            byte_budget=snapshot_budget,
            density=snapshot_density,
            on_event=on_event,
        )
        self.total_steps = self.prefix.total_steps
        self.golden = benchmark.quantize(self.prefix.output)

    @property
    def num_windows(self) -> int:
        """Time windows of the benchmark's execution (record geometry)."""
        return self.benchmark.num_windows

    def _count(self, name: str, **labels: Any) -> None:
        """Bump a cache-efficiency counter (no-op with telemetry off).

        These counters describe *work saved*; every lease worker ships
        its deltas back, so serial and pooled registries hold equal
        totals.  The snapshot restore, capture, skipped-step and
        converged-step counters are bumped by the
        :class:`~repro.carolfi.prefixcache.PrefixStore` itself.
        """
        current_registry().counter(
            name, help="CAROL-FI fast-path cache efficiency counter."
        ).inc(benchmark=self.benchmark.name, **labels)

    # -- shared run machinery -------------------------------------------------
    #
    # run_one and the batched runner (:mod:`repro.carolfi.batchrunner`)
    # must perturb, classify and record identically, so the pieces both
    # need live in these methods rather than inline in run_one.

    def run_rng(self, run_index: int) -> np.random.Generator:
        """The per-run RNG stream.

        Keyed by run index alone (not shard/worker/batch), so any
        sharding or batching of the campaign replays bit-identical
        per-run streams.
        """
        return derive_rng(self.seed, "carolfi", self.benchmark.name, "run", run_index)

    def classify_output(self, observed: np.ndarray) -> tuple[Outcome, dict[str, Any]]:
        """Compare a quantized output against the golden copy.

        Most runs are Masked: an exact-equality check is an order of
        magnitude cheaper than building the wrong mask, and
        classification-equivalent — any element differing after
        quantization fails both (NaNs fail ``array_equal`` but compare
        equal in ``wrong_mask``, which still yields an empty mask,
        i.e. Masked).
        """
        if np.array_equal(self.golden, observed):
            self._count("repro_compare_fastpath_total")
            return Outcome.MASKED, {}
        metrics = sdc_metrics(self.golden, observed, self.benchmark.output_dims)
        return (Outcome.SDC if metrics else Outcome.MASKED), metrics

    def make_record(
        self,
        run_index: int,
        model: FaultModel,
        interrupt_step: int,
        site: FaultSite | None,
        bits: tuple[int, ...] | None,
        outcome: Outcome,
        due_kind: DueKind | None = None,
        due_detail: str = "",
        sdc_metrics: dict[str, Any] | None = None,
    ) -> InjectionRecord:
        """Assemble the campaign-log record for one classified run."""
        bench = self.benchmark
        if site is None:
            # The flip itself crashed before the site was recorded (it
            # cannot: selection precedes corruption) — defensive default.
            site = FaultSite("unknown", "unknown", 0, "unknown")
        return InjectionRecord(
            benchmark=bench.name,
            run_index=run_index,
            site=site,
            fault_model=FaultModel(model).value,
            bits=bits,
            interrupt_step=interrupt_step,
            total_steps=self.total_steps,
            time_window=bench.window_of_step(interrupt_step, self.total_steps),
            num_windows=bench.num_windows,
            outcome=outcome,
            due_kind=due_kind,
            due_detail=due_detail,
            sdc_metrics=sdc_metrics or {},
        )

    def perturb(
        self, state: Any, step: int, model: FaultModel, rng: np.random.Generator
    ) -> tuple[FaultSite, tuple[int, ...]]:
        """Flip one live variable of ``state`` at the entry of ``step``.

        Returns the run's token for :meth:`finish`: the fault site and
        the flipped bits.
        """
        return self.flip.inject(self.benchmark, state, step, model, rng)

    def finish(
        self,
        run_index: int,
        model: FaultModel,
        step: int,
        token: tuple[FaultSite, tuple[int, ...]] | None,
        final: Any,
    ) -> InjectionRecord:
        """The record of a run perturbed at ``step``.

        ``token`` is what :meth:`perturb` returned (``None`` if it
        raised); ``final`` is the run's final state, ``None`` for a run
        golden again after its fault (it would recompute the golden
        output), or the exception the run raised.  Reading a corrupted
        state's output can abort like a step.  :meth:`run_one` and the
        batch runner both end here, so they build records alike.
        """
        bench = self.benchmark
        site, bits = token if token is not None else (None, None)
        observed = self.golden
        if final is not None and not isinstance(final, BaseException):
            try:
                observed = bench.quantize(bench.output(final))
            except _CRASH_EXCEPTIONS as exc:
                final = exc.with_traceback(None)
        due_kind: DueKind | None = None
        due_detail = ""
        metrics: dict[str, Any] = {}
        if isinstance(final, BenchmarkHang):
            outcome, due_kind, due_detail = Outcome.DUE, DueKind.TIMEOUT, str(final)
        elif isinstance(final, BaseException):
            outcome, due_kind = Outcome.DUE, DueKind.CRASH
            due_detail = f"{type(final).__name__}: {final}"
        else:
            with current_tracer().span("compare"):
                outcome, metrics = self.classify_output(observed)
        return self.make_record(
            run_index,
            model,
            step,
            site,
            bits,
            outcome,
            due_kind=due_kind,
            due_detail=due_detail,
            sdc_metrics=metrics,
        )

    # -- one test -------------------------------------------------------------

    def run_one(
        self,
        run_index: int,
        model: FaultModel,
        interrupt_step: int | None = None,
    ) -> InjectionRecord:
        """Execute one injection test and classify its outcome.

        The per-run RNG draws the interrupt step first (only when it
        was not forced) and is then consumed by the flip, so a record
        is a pure function of the campaign config and the run index.
        The run itself is :meth:`perturb` inside one
        :meth:`PrefixStore.run <repro.carolfi.prefixcache.PrefixStore.run>`,
        then :meth:`finish`.
        """
        rng = self.run_rng(run_index)
        model = FaultModel(model)
        interrupt_step = int(
            rng.integers(0, self.total_steps) if interrupt_step is None else interrupt_step
        )
        if not 0 <= interrupt_step < self.total_steps:
            raise ValueError(f"interrupt step {interrupt_step} out of range")

        token: tuple[FaultSite, tuple[int, ...]] | None = None
        tracer = current_tracer()

        def corrupt(state: Any, index: int) -> None:
            nonlocal token
            with tracer.span("corrupt", step=index):
                token = self.perturb(state, index, model, rng)

        with tracer.span("run", run=run_index, model=model.value) as run_span:
            try:
                with tracer.span("execute", interrupt_step=interrupt_step):
                    final = self.prefix.run(interrupt_step, corrupt)
            except _CRASH_EXCEPTIONS as exc:
                # Without its traceback: that holds this frame, whose
                # ``final`` would hold the exception, a cycle keeping the
                # run's state alive until the cyclic collector runs.
                final = exc.with_traceback(None)
            record = self.finish(run_index, model, interrupt_step, token, final)
            run_span.set_attr("outcome", record.outcome.value)
        return record

    def due_record(
        self, run_index: int, model: FaultModel, *, kind: DueKind, detail: str
    ) -> InjectionRecord:
        """A DUE record for a run whose executor never reported back: the
        interrupt step re-derived from the run's stream as :meth:`run_one`
        draws it, the fault site unknown (it died with the executor)."""
        interrupt_step = int(self.run_rng(run_index).integers(0, self.total_steps))
        site = FaultSite("unknown", "unknown", 0, "unknown", "unknown")
        return self.make_record(
            run_index, model, interrupt_step, site, None, Outcome.DUE, kind, detail
        )

    run_batch = run_batch
