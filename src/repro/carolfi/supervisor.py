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
``run_one`` is one :meth:`~repro.carolfi.prefixcache.PrefixStore.run`:
resume from the deepest snapshot at or below the (first) interrupt
step, deliver the faults at the entry of their steps, and, once the
last fault is in, stop at the first snapshot step whose bytes the run
matches (golden re-convergence: the kernels are deterministic and the
run's RNG serves only its faults, so such a run would recompute the
golden output without raising; it is classified against the golden
output, with the record a full suffix would have produced).  Records
are identical by construction: each run's RNG stream is keyed by its
run index, never by how many steps were actually executed, and a
restored prefix is a bit-exact clone of the recomputed one.
``snapshots=False`` records the store without captures, so every run
replays from step 0 to the end — the reference path the test-suite
asserts produces byte-identical campaign logs.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.analysis.spatial import sdc_metrics
from repro.benchmarks.base import Benchmark, BenchmarkHang
from repro.carolfi.flipscript import FlipScript, SitePolicy
from repro.carolfi import shmstore
from repro.carolfi.prefixcache import (
    DEFAULT_SNAPSHOT_BUDGET,
    PrefixStore,
    SharedPrefixStore,
)
from repro.faults.models import FaultModel
from repro.faults.outcome import DueKind, InjectionRecord, Outcome
from repro.faults.site import FaultSite
from repro.telemetry import current_registry, current_tracer
from repro.util.rng import derive_rng

__all__ = ["Supervisor"]

#: Exceptions out of a resumed, corrupted execution that correspond to a
#: crashed process (the segfault/abort analogues of our Python substrate).
#: ``ArithmeticError`` covers Overflow/ZeroDivision/FloatingPointError
#: plus any other numeric abort; ``MemoryError`` is the malloc-failure
#: analogue (a corrupted size driving an absurd allocation).  Anything
#: escaping this tuple would kill the campaign worker, so the net is
#: deliberately wide — only genuine infrastructure bugs should escape.
_CRASH_EXCEPTIONS = (
    IndexError,
    ValueError,
    KeyError,
    ArithmeticError,
    MemoryError,
    RuntimeError,
)


class Supervisor:
    """Runs individual fault-injection tests for one benchmark.

    ``snapshots`` enables the execution-prefix fast path (see the module
    docstring).  Either way set-up is one golden walk, which records the
    store (:attr:`prefix`) and ends on the golden output.

    ``shared`` additionally publishes (or attaches) the host-wide
    shared-memory snapshot segment (:mod:`repro.carolfi.shmstore`): the
    pristine input, the snapshot store, and the golden output are then
    zero-copy read-only views that every worker process on the host
    maps once, and restores are copy-on-write materialisations.  The
    records are bit-identical with sharing on or off; only the memory
    mechanics change.  ``on_event`` receives structured operational
    events (currently ``snapshot_budget_degraded``) destined for the
    campaign's ``failures.jsonl``.
    """

    def __init__(
        self,
        benchmark: Benchmark,
        seed: int,
        policy: SitePolicy = SitePolicy.WEIGHTED,
        snapshots: bool = True,
        snapshot_budget: int = DEFAULT_SNAPSHOT_BUDGET,
        snapshot_density: int | None = None,
        shared: bool = False,
        on_event: "Any | None" = None,
    ):
        self.benchmark = benchmark
        self.seed = int(seed)
        self.flip = FlipScript(policy)
        self._on_event = on_event
        store: PrefixStore | None = None
        shm_key: str | None = None
        if shared and snapshots and shmstore.shm_enabled():
            shm_key = shmstore.store_key(
                benchmark.name,
                self.seed,
                benchmark.params,
                density=snapshot_density,
                byte_budget=int(snapshot_budget),
            )
            segment = shmstore.attach(shm_key)
            self._count("repro_shm_attach_total", result="miss" if segment is None else "hit")
            if segment is not None:
                # Another process on this host already published the
                # golden run: adopt it wholesale.  No dataset
                # generation, no golden walk, no captures — and no
                # per-process copies of any of it.
                store = SharedPrefixStore(benchmark, segment)
        if store is None:
            # Generate the campaign dataset once; one golden walk
            # records the snapshot store and ends on the golden output.
            pristine = benchmark.make_state(
                derive_rng(self.seed, "carolfi", benchmark.name, "input")
            )
            store = PrefixStore(
                benchmark, pristine, byte_budget=snapshot_budget, density=snapshot_density
            )
            store.on_degrade = self._budget_degraded
            with current_tracer().span("golden_run", benchmark=benchmark.name):
                store.record(snapshots=snapshots)
            if shm_key is not None:
                store = self._publish_shared(shm_key, store)
        self.prefix = store
        self.total_steps = store.total_steps
        self.golden = benchmark.quantize(store.output)

    @property
    def num_windows(self) -> int:
        """Time windows of the benchmark's execution (record geometry)."""
        return self.benchmark.num_windows

    # -- shared-memory segment plumbing ---------------------------------------

    def _publish_shared(self, key: str, store: PrefixStore) -> PrefixStore:
        """Publish ``store`` as the host's shared segment.

        Returns the :class:`SharedPrefixStore` over our own publication
        — the private copies captured into ``store`` become garbage, so
        the publisher's RSS is as flat as any attacher's and the attach
        path is exercised constantly — or ``store`` itself when the
        segment cannot be published.
        """
        segment = shmstore.publish(
            key,
            benchmark=self.benchmark.name,
            total_steps=store.total_steps,
            interval=store.interval,
            degraded=store.degraded,
            pristine=store.pristine,
            snapshots=[
                (snap.step, snap.state, snap.nbytes)
                for snap in (store._snapshots[step] for step in store._steps_sorted)
            ],
            golden=store.output,
        )
        self._count("repro_shm_publish_total", result="failed" if segment is None else "ok")
        return store if segment is None else SharedPrefixStore(self.benchmark, segment)

    def _budget_degraded(self, store: PrefixStore) -> None:
        """The byte budget just blocked a wanted capture (fires once)."""
        self._count("repro_snapshot_budget_degraded_total")
        if self._on_event is not None:
            self._on_event(
                {
                    "event": "snapshot_budget_degraded",
                    "benchmark": self.benchmark.name,
                    "byte_budget": store.byte_budget,
                    "used_bytes": store.used_bytes,
                    "snapshots": len(store),
                    "interval": store.interval,
                }
            )

    def _count(self, name: str, **labels: Any) -> None:
        """Bump a cache-efficiency counter (no-op with telemetry off).

        These counters describe *work saved in this process*, so unlike
        record-derived metrics they legitimately differ across execution
        topologies (a sandbox grandchild's restores are never merged
        back) — consumers comparing serial to parallel registries must
        exclude the ``repro_snapshot_*``/``repro_steps_skipped``/
        ``repro_steps_converged``/``repro_compare_fastpath``/
        ``repro_shm_*`` families (``repro_snapshot_*`` includes
        ``repro_snapshot_budget_degraded``).  The snapshot restore,
        capture, skipped-step and converged-step counters are bumped by
        the :class:`PrefixStore` itself.
        """
        current_registry().counter(
            name, help="CAROL-FI fast-path cache efficiency counter."
        ).inc(benchmark=self.benchmark.name, **labels)

    # -- shared run machinery -------------------------------------------------
    #
    # run_one and the batched runner (:mod:`repro.carolfi.batchrunner`)
    # must classify and record identically, so the pieces both need live
    # in these helpers rather than inline in run_one.

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
        extra_faults: tuple[dict[str, Any], ...] = (),
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
            extra_faults=extra_faults,
        )

    # -- one test -------------------------------------------------------------

    def run_one(
        self,
        run_index: int,
        model: FaultModel | None = None,
        interrupt_step: int | None = None,
        faults: "Sequence[tuple[int, FaultModel]] | None" = None,
    ) -> InjectionRecord:
        """Execute one injection test and classify its outcome.

        The classic single-fault form passes ``model`` (and optionally a
        forced ``interrupt_step``).  ``faults`` instead takes an explicit
        *ordered* list of ``(step, model)`` injections delivered in
        sequence during one execution: the first becomes the record's
        site, the others its ``extra_faults``.  ``tests/carolfi/
        test_multifault.py`` and the fast-vs-slow equivalence tests use
        it; campaigns never do.  The single-fault path is byte-identical
        to the original implementation: the per-run RNG draws the
        interrupt step first (only when it was not forced) and is then
        consumed by the flips in delivery order, so records written
        before this extension replay exactly.  The run itself is one
        :meth:`PrefixStore.run <repro.carolfi.prefixcache.PrefixStore.run>`.
        """
        bench = self.benchmark
        rng = self.run_rng(run_index)
        total = self.total_steps
        if faults is None:
            if model is None:
                raise ValueError("run_one needs a fault model (or an explicit fault list)")
            if interrupt_step is None:
                interrupt_step = int(rng.integers(0, total))
            plan = [(int(interrupt_step), FaultModel(model))]
        else:
            if model is not None or interrupt_step is not None:
                raise ValueError("faults is mutually exclusive with model/interrupt_step")
            plan = [(int(step), FaultModel(m)) for step, m in faults]
            if not plan:
                raise ValueError("faults must name at least one injection")
            if any(a[0] > b[0] for a, b in zip(plan, plan[1:])):
                raise ValueError("faults must be ordered by non-decreasing step")
        for step, _ in plan:
            if not 0 <= step < total:
                raise ValueError(f"interrupt step {step} out of range")
        first_step = plan[0][0]
        primary_model = plan[0][1]
        schedule: dict[int, list[FaultModel]] = {}
        for step, fault_model in plan:
            schedule.setdefault(step, []).append(fault_model)

        site: FaultSite | None = None
        bits: tuple[int, ...] | None = None
        extra: list[dict[str, Any]] = []
        outcome = Outcome.MASKED
        due_kind: DueKind | None = None
        due_detail = ""
        metrics: dict[str, Any] = {}
        tracer = current_tracer()
        run_span = tracer.span("run", run=run_index, model=primary_model.value)

        def corrupt(state: Any, index: int) -> None:
            nonlocal site, bits
            for fault_model in schedule[index]:
                with tracer.span("corrupt", step=index):
                    fault_site, fault_bits = self.flip.inject(
                        bench, state, index, fault_model, rng
                    )
                if site is None:
                    site, bits = fault_site, fault_bits
                else:
                    extra.append(
                        {
                            "step": index,
                            "fault_model": fault_model.value,
                            "site": fault_site.to_dict(),
                            "bits": list(fault_bits) if fault_bits is not None else None,
                        }
                    )

        with run_span:
            try:
                with tracer.span("execute", interrupt_step=first_step):
                    final = self.prefix.run(tuple(schedule), corrupt)
                    # A run golden again after its last fault would
                    # recompute the golden output.
                    observed = (
                        self.golden if final is None else bench.quantize(bench.output(final))
                    )
            except BenchmarkHang as exc:
                outcome = Outcome.DUE
                due_kind = DueKind.TIMEOUT
                due_detail = str(exc)
            except _CRASH_EXCEPTIONS as exc:
                outcome = Outcome.DUE
                due_kind = DueKind.CRASH
                due_detail = f"{type(exc).__name__}: {exc}"
            else:
                with tracer.span("compare"):
                    outcome, metrics = self.classify_output(observed)
            finally:
                run_span.set_attr("outcome", outcome.value)

        return self.make_record(
            run_index,
            primary_model,
            first_step,
            site,
            bits,
            outcome,
            due_kind=due_kind,
            due_detail=due_detail,
            sdc_metrics=metrics,
            extra_faults=tuple(extra),
        )

    def run_batch(
        self, runs: "Sequence[tuple[int, FaultModel]]", batch_size: int
    ) -> dict[int, InjectionRecord]:
        """Drive ``runs`` through the vectorized batch path.

        The records of the runs :class:`~repro.carolfi.batchrunner.BatchRunner`
        completed vectorized; a missing run is finished with
        :meth:`run_one`.  :meth:`InjectionSandbox.run_batch
        <repro.carolfi.isolation.InjectionSandbox.run_batch>` is the same
        contract across the sandbox pipe.
        """
        from repro.carolfi.batchrunner import BatchRunner  # it imports this module

        return BatchRunner(self, batch_size).run_many(runs)
