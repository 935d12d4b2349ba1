"""The Supervisor: launch, interrupt, watchdog, check, log.

One :meth:`Supervisor.run_one` is one CAROL-FI test: start the
benchmark, deliver the interrupt at a random step, let the Flip-script
corrupt a live variable, resume at full speed, and classify the result
against the golden output.  DUEs are *observed*, never simulated:
unhandled exceptions out of the resumed execution are crashes, loop
guards and the wall-clock watchdog are hangs.

The campaign generates its input data set once (the paper: datasets
"will be generated once and used during the whole fault injection
campaign"), so the golden output is computed a single time and every
run replays identical inputs.

**Prefix fast path.**  Every run's execution is bit-identical to the
golden run up to its interrupt step (the fault models flip bits of
existing values), so with ``snapshots=True`` (the default) the warm-up
execution captures periodic state snapshots into a
:class:`~repro.carolfi.prefixcache.PrefixStore` and ``run_one`` restores
the deepest snapshot at or below the interrupt step instead of
replaying from step 0.  Records are identical by construction: each
run's RNG stream is keyed by its run index, never by how many steps
were actually executed, and a restored prefix is a bit-exact clone of
the recomputed one.  ``snapshots=False`` keeps the original
replay-everything path (and the test-suite asserts both paths produce
byte-identical campaign logs).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from pathlib import Path
from typing import Any

import numpy as np

from repro.analysis.spatial import classify_mask, max_relative_error, wrong_mask
from repro.benchmarks.base import Benchmark, BenchmarkHang, arm_deadline
from repro.carolfi.flipscript import FlipScript, SitePolicy
from repro.carolfi.goldencache import (
    GoldenCache,
    GoldenEntry,
    golden_cache_key,
    resolve_golden_cache,
)
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
    docstring).  ``golden_cache`` — a
    :class:`~repro.carolfi.goldencache.GoldenCache`, a directory path,
    or ``None`` to consult ``REPRO_GOLDEN_CACHE`` — persists the golden
    output and runtime across processes and sessions, so spawn-based
    workers and resumed campaigns skip the golden re-run entirely.

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
        watchdog_factor: float = 10.0,
        snapshots: bool = True,
        golden_cache: "GoldenCache | str | Path | None" = None,
        snapshot_budget: int = DEFAULT_SNAPSHOT_BUDGET,
        snapshot_density: int | None = None,
        shared: bool = False,
        on_event: "Any | None" = None,
    ):
        self.benchmark = benchmark
        self.seed = int(seed)
        self.flip = FlipScript(policy)
        self.watchdog_factor = float(watchdog_factor)
        self._input_path = ("carolfi", benchmark.name, "input")
        self._pristine: Any = None
        self._snapshot_budget = int(snapshot_budget)
        self._snapshot_density = snapshot_density
        self._on_event = on_event
        self._shm: "shmstore.ShmSegment | None" = None
        want_shared = bool(shared) and snapshots and shmstore.shm_enabled()
        shm_key: str | None = None
        if want_shared:
            shm_key = shmstore.store_key(
                benchmark.name,
                self.seed,
                self.watchdog_factor,
                benchmark.params,
                density=snapshot_density,
                byte_budget=self._snapshot_budget,
            )
            segment = shmstore.attach(shm_key)
            if segment is not None:
                # Another process on this host already published the
                # golden prefix: adopt it wholesale.  No dataset
                # generation, no warm-up, no golden run, no captures —
                # and no per-process copies of any of it.
                self._adopt_segment(segment)
                self._count("repro_shm_attach_total", result="hit")
                return
            self._count("repro_shm_attach_total", result="miss")
        # Generate the campaign dataset once and compute the golden copy.
        state = self._fresh_state()
        self.total_steps = benchmark.num_steps(state)
        self.prefix: PrefixStore | None = (
            PrefixStore(
                benchmark,
                self.total_steps,
                byte_budget=self._snapshot_budget,
                density=snapshot_density,
            )
            if snapshots
            else None
        )
        if self.prefix is not None:
            self.prefix.on_degrade = self._budget_degraded
        cache = resolve_golden_cache(golden_cache)
        cache_key = golden_cache_key(
            benchmark.name, self.seed, self.watchdog_factor, benchmark.params
        )
        entry = cache.load(cache_key) if cache is not None else None
        if entry is not None and entry.total_steps == self.total_steps:
            # Cache hit: no warm-up, no timed run.  The snapshot store
            # (if enabled) fills opportunistically during run_one's
            # pre-injection replays, which execute pure golden prefixes.
            self.golden = entry.golden
            self.golden_runtime = entry.runtime
            self._count("repro_golden_cache_total", result="hit")
            if want_shared and self.prefix is not None:
                # A published segment must carry the full snapshot set —
                # walk the golden trajectory once to capture it (the
                # walk this host's workers will collectively never pay).
                warm = self._fresh_state()
                for index in range(self.total_steps):
                    if self.prefix.wants(index):
                        self.prefix.capture(index, warm)
                    benchmark.step(warm, index)
            if shm_key is not None:
                self._publish_shared(shm_key)
            return
        if cache is not None:
            self._count("repro_golden_cache_total", result="miss")
        # Warm-up run on a throwaway state before the timed baseline:
        # the first execution pays first-touch allocation and cache
        # effects, and an inflated golden_runtime would stretch
        # ``watchdog_factor * golden_time`` enough to mask real hangs.
        # The warm-up walks the same golden trajectory, so it doubles as
        # the snapshot-capture pass — capture cost stays out of the
        # timed baseline.
        warm = self._fresh_state()
        for index in range(self.total_steps):
            if self.prefix is not None and self.prefix.wants(index):
                self.prefix.capture(index, warm)
            benchmark.step(warm, index)
        with current_tracer().span("golden_run", benchmark=benchmark.name):
            start = time.perf_counter()
            self.golden = self._quantize(benchmark.run(state))
            self.golden_runtime = max(time.perf_counter() - start, 1e-4)
        if cache is not None:
            cache.store(
                cache_key,
                GoldenEntry(
                    golden=self.golden,
                    runtime=self.golden_runtime,
                    total_steps=self.total_steps,
                ),
            )
        if shm_key is not None:
            self._publish_shared(shm_key)

    # -- shared-memory segment plumbing ---------------------------------------

    def _adopt_segment(self, segment: "shmstore.ShmSegment") -> None:
        """Back this supervisor's golden prefix by ``segment``.

        After adoption the pristine state, the snapshot store, and the
        golden output are read-only views over the host-wide mapping,
        and every restore goes through a private copy-on-write mapping
        — this process holds no duplicated snapshot bytes.
        """
        self._shm = segment
        self.total_steps = segment.total_steps
        self._pristine = segment.pristine
        self.prefix = SharedPrefixStore(self.benchmark, segment)
        self.golden = segment.golden
        self.golden_runtime = segment.golden_runtime

    def _publish_shared(self, key: str) -> None:
        """Publish this supervisor's prefix as the host's shared segment."""
        if self.prefix is None or self._pristine is None:
            return
        snaps = [
            (snap.step, snap.state, snap.nbytes)
            for snap in (
                self.prefix._snapshots[step] for step in self.prefix._steps_sorted
            )
        ]
        segment = shmstore.publish(
            key,
            benchmark=self.benchmark.name,
            total_steps=self.total_steps,
            interval=self.prefix.interval,
            golden_runtime=self.golden_runtime,
            degraded=self.prefix.degraded,
            pristine=self._pristine,
            snapshots=snaps,
            golden=self.golden,
        )
        if segment is None:
            self._count("repro_shm_publish_total", result="failed")
            return
        self._count("repro_shm_publish_total", result="ok")
        # Re-attach our own publication: the private copies captured
        # above become garbage, so the publisher's RSS is as flat as
        # any attacher's — and the attach path is exercised constantly.
        self._adopt_segment(segment)

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
        ``repro_compare_fastpath``/``repro_golden_cache``/``repro_shm_*``
        families (``repro_snapshot_*`` includes
        ``repro_snapshot_budget_degraded``).  The snapshot restore,
        capture and skipped-step counters are bumped by the
        :class:`PrefixStore` itself.
        """
        current_registry().counter(
            name, help="CAROL-FI fast-path cache efficiency counter."
        ).inc(benchmark=self.benchmark.name, **labels)

    def _quantize(self, output: np.ndarray) -> np.ndarray:
        """Round to the precision the benchmark's output file carries.

        The paper's campaigns diff *printed* output files, so an error
        below the printf precision never counts as a mismatch.
        """
        decimals = self.benchmark.output_decimals
        if decimals is None:
            return output
        with np.errstate(invalid="ignore", over="ignore"):
            return np.round(output, decimals)

    def _fresh_state(self) -> Any:
        """A pristine copy of the campaign's fixed input data set.

        The input arrays are generated once (first call) and memoised;
        every later call hands out a bit-exact clone instead of
        re-deriving the RNG dataset — the memo *is* the step-0 snapshot.
        With a shared segment attached, the clone is a copy-on-write
        view of the host-wide mapping instead of a deep copy.
        """
        if self._shm is not None:
            return self._shm.materialize(None)
        if self._pristine is None:
            self._pristine = self.benchmark.make_state(
                derive_rng(self.seed, *self._input_path)
            )
        return self.benchmark.restore(self._pristine)

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
        mask = wrong_mask(self.golden, observed)
        if not mask.any():
            return Outcome.MASKED, {}
        pattern = classify_mask(mask, self.benchmark.output_dims)
        return Outcome.SDC, {
            "wrong_elements": int(mask.sum()),
            "wrong_fraction": float(mask.mean()),
            "max_rel_err": max_relative_error(self.golden, observed),
            "pattern": pattern.value,
        }

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
        sequence during one execution — the multi-fault substrate the
        scenario fuzzer (:mod:`repro.fuzz`) builds on.  The single-fault
        path is byte-identical to the original implementation: the
        per-run RNG draws the interrupt step first (only when it was not
        forced) and is then consumed by the flips in delivery order, so
        records written before this extension replay exactly.
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

        # Prefix fast path: resume from the deepest snapshot at or below
        # the (first) interrupt step; the skipped steps are bit-identical
        # to the golden execution by construction, so the injected suffix
        # sees exactly the state a full replay would have produced.
        prefix = self.prefix
        if prefix is not None:
            state, start_step = prefix.resume(first_step, self._fresh_state)
        else:
            state, start_step = self._fresh_state(), 0
        deadline = time.perf_counter() + self.watchdog_factor * self.golden_runtime + 1.0
        site: FaultSite | None = None
        bits: tuple[int, ...] | None = None
        extra: list[dict[str, Any]] = []
        outcome = Outcome.MASKED
        due_kind: DueKind | None = None
        due_detail = ""
        sdc_metrics: dict[str, Any] = {}
        tracer = current_tracer()
        run_span = tracer.span("run", run=run_index, model=primary_model.value)

        with run_span:
            try:
                # Arm the cooperative deadline so guard loops inside a slow
                # step (bounded_range, explicit deadline_checkpoint calls)
                # can convert an in-step hang into a watchdog DUE.
                arm_deadline(deadline)
                with tracer.span("execute", interrupt_step=first_step):
                    for index in range(start_step, total):
                        # Fill store gaps left by a disk-cached golden run
                        # or an exhausted byte budget.
                        if prefix is not None:
                            prefix.fill(index, state, first_step)
                        for fault_model in schedule.get(index, ()):
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
                                        "bits": list(fault_bits)
                                        if fault_bits is not None
                                        else None,
                                    }
                                )
                        bench.step(state, index)
                        if time.perf_counter() > deadline:
                            raise BenchmarkHang("supervisor watchdog expired")
                    observed = self._quantize(bench.output(state))
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
                    outcome, sdc_metrics = self.classify_output(observed)
            finally:
                arm_deadline(None)
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
            sdc_metrics=sdc_metrics,
            extra_faults=tuple(extra),
        )
