"""Deterministic scenario execution against a hardened benchmark.

:class:`ScenarioExecutor` is the fuzzer's runtime: it plays a
:class:`~repro.fuzz.scenario.Scenario` against a benchmark wrapped in
the scheme's guards, ABFT and checkpoint/restart, and returns a
:class:`ScenarioRecord` whose canonical JSON is the unit of byte
comparison for the oracle, the shrinker and artifact replay.

Determinism contract: as in every run loop, there is **no wall-clock
watchdog** anywhere in this path.  Runaway re-execution (which only
checkpoint/restart can cause) is converted to a DUE by a deterministic
*step budget* (a fixed multiple of the fault-free step count), and
data-dependent loop hangs already raise
:class:`~repro.benchmarks.base.BenchmarkHang` deterministically.
Two executions of the same scenario therefore produce bit-identical
records on any host, process or worker count.

Every fault's random content is keyed by the *step's own fields* plus
its occurrence ordinal — never by its position in the scenario or by
execution history — so shrinking away one step cannot perturb the
faults another step delivers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.benchmarks.base import Benchmark, BenchmarkError, BenchmarkHang
from repro.benchmarks.registry import create
from repro.faults.models import FaultModel, apply_fault_model
from repro.hardening.abft import AbftOutcome, abft_check, abft_checksums
from repro.hardening.guards import (
    DetectorEvent,
    FaultDetected,
    VariableGuard,
    attach_observer,
    build_guards,
    sync_guards,
)
from repro.util.rng import derive_rng

__all__ = ["ScenarioExecutor", "ScenarioRecord", "executor_for"]

#: Exceptions classified as DUE-crash, mirroring the supervisor.
_CRASH_EXCEPTIONS = (
    BenchmarkError,
    IndexError,
    ValueError,
    KeyError,
    ArithmeticError,
    MemoryError,
)

#: Deterministic step budget multiplier: a scenario may re-execute (via
#: checkpoint rollback) at most this many times the fault-free quanta
#: before being classified DUE/timeout.
_BUDGET_FACTOR = 8

#: Rollback cascade cap, mirroring run_with_checkpoints' default.
_MAX_FAILURES = 8


@dataclass(frozen=True)
class ScenarioRecord:
    """Everything one scenario execution observed, in comparable form.

    ``canonical_json`` is the replay contract: two executions of the
    same scenario must produce identical bytes.  The output itself is
    folded in as a digest so records stay small.
    """

    benchmark: str
    scenario_key: str
    outcome: str  # masked | sdc | due | detected | corrected
    detail: str = ""
    detected_by: str = ""
    faults: tuple[dict[str, Any], ...] = ()
    detector_events: tuple[dict[str, str], ...] = ()
    recoveries: int = 0
    executed_steps: int = 0
    total_steps: int = 0
    output_digest: str = ""
    sdc_wrong_elements: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "scenario_key": self.scenario_key,
            "outcome": self.outcome,
            "detail": self.detail,
            "detected_by": self.detected_by,
            "faults": [dict(f) for f in self.faults],
            "detector_events": [dict(e) for e in self.detector_events],
            "recoveries": self.recoveries,
            "executed_steps": self.executed_steps,
            "total_steps": self.total_steps,
            "output_digest": self.output_digest,
            "sdc_wrong_elements": self.sdc_wrong_elements,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioRecord":
        return cls(
            benchmark=data["benchmark"],
            scenario_key=data["scenario_key"],
            outcome=data["outcome"],
            detail=data.get("detail", ""),
            detected_by=data.get("detected_by", ""),
            faults=tuple(dict(f) for f in data.get("faults", ())),
            detector_events=tuple(dict(e) for e in data.get("detector_events", ())),
            recoveries=int(data.get("recoveries", 0)),
            executed_steps=int(data.get("executed_steps", 0)),
            total_steps=int(data.get("total_steps", 0)),
            output_digest=data.get("output_digest", ""),
            sdc_wrong_elements=int(data.get("sdc_wrong_elements", 0)),
        )

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def detector_tripped(self) -> bool:
        return bool(self.detector_events)


@dataclass
class _Delivery:
    """One scheduled fault delivery, resolved from a scenario step."""

    step: int
    op: str
    model: FaultModel
    resource: str
    rng_key: tuple[Any, ...]
    delivered: bool = False


@dataclass
class _RunState:
    """Mutable bookkeeping for one execution."""

    faults: list[dict[str, Any]] = field(default_factory=list)
    events: list[dict[str, str]] = field(default_factory=list)
    recoveries: int = 0
    executed: int = 0


class ScenarioExecutor:
    """Replays scenarios against one (benchmark, params) pair.

    The golden output is computed once at construction and shared by
    every execution, like the supervisor's golden walk.  The executor
    is deliberately *stateless across executions* beyond that: each
    ``execute`` builds fresh state, guards and snapshots.
    """

    def __init__(self, benchmark: str, benchmark_params: dict[str, Any] | None = None):
        self.benchmark: Benchmark = create(benchmark, **(benchmark_params or {}))
        self.benchmark_params = dict(benchmark_params or {})
        state = self._fresh_state()
        self.total_steps = self.benchmark.num_steps(state)
        self.golden = self._quantize(self.benchmark.run(state))

    # -- plumbing -----------------------------------------------------------

    def _fresh_state(self) -> Any:
        return self.benchmark.make_state(
            derive_rng(2017, "fuzz", self.benchmark.name, "input")
        )

    def _quantize(self, output: np.ndarray) -> np.ndarray:
        decimals = self.benchmark.output_decimals
        if decimals is None:
            return output
        with np.errstate(invalid="ignore", over="ignore"):
            return np.round(output, decimals)

    def _digest(self, output: np.ndarray) -> str:
        payload = np.ascontiguousarray(output).tobytes()
        meta = f"{output.dtype}:{output.shape}".encode()
        return hashlib.sha256(meta + payload).hexdigest()

    def resource_classes(self) -> tuple[str, ...]:
        """Variable classes live at step 0 — the generator's resource pool."""
        state = self._fresh_state()
        classes: list[str] = []
        for var in self.benchmark.variables(state, 0):
            if var.var_class not in classes:
                classes.append(var.var_class)
        return tuple(classes)

    # -- fault delivery -----------------------------------------------------

    def _deliver(
        self,
        state: Any,
        step: int,
        delivery: _Delivery,
        run: _RunState,
        ordinal: int,
        during: str = "step",
    ) -> None:
        """Corrupt one live element; content keyed by the step's fields."""
        rng = derive_rng(*delivery.rng_key, ordinal)
        candidates = [
            v for v in self.benchmark.variables(state, min(step, self.total_steps - 1))
            if v.size > 0
        ]
        if not candidates:
            return
        if delivery.resource != "any":
            filtered = [v for v in candidates if v.var_class == delivery.resource]
            if filtered:
                candidates = filtered
        weights = np.array([v.nbytes for v in candidates], dtype=np.float64)
        var = candidates[int(rng.choice(len(candidates), p=weights / weights.sum()))]
        element = int(rng.integers(0, var.size))
        detail = apply_fault_model(var.array, element, delivery.model, rng)
        run.faults.append(
            {
                "op": delivery.op,
                "step": step,
                "during": during,
                "model": delivery.model.value,
                "variable": var.name,
                "var_class": var.var_class,
                "flat_index": element,
                "bits": list(detail["bits"]) if detail["bits"] is not None else None,
            }
        )

    # -- the scenario run ---------------------------------------------------

    def execute(self, scenario: Any, snapshot_roundtrip_at: int | None = None) -> ScenarioRecord:
        """Play one scenario to completion.

        ``snapshot_roundtrip_at`` is the invariant oracle's probe: at
        that step boundary the state is snapshot-and-restored and the
        run continues on the restored copy.  By the snapshot contract
        this must not change a single output bit; the oracle compares
        the probed record against the plain one.
        """
        bench = self.benchmark
        scheme = scenario.scheme
        total = self.total_steps
        run = _RunState()

        # Resolve scenario steps into concrete schedules.  Occurrence
        # ordinals disambiguate steps with identical fields so their
        # fault content differs (a repeated identical flip would cancel).
        occurrence: dict[tuple[Any, ...], int] = {}
        schedule: dict[int, list[_Delivery]] = {}
        strikes: list[_Delivery] = []
        toggles: dict[int, bool] = {}  # step -> checkpointing enabled
        for s in scenario.steps:
            content = (s.op, s.at, s.model, s.resource, s.count, s.span)
            occ = occurrence.get(content, 0)
            occurrence[content] = occ + 1
            key = (scenario.seed, "fuzz-step", s.op, s.at, s.model, s.resource, occ)
            if s.op == "inject":
                at = min(s.at, total - 1)
                for j in range(s.count):
                    schedule.setdefault(at, []).append(
                        _Delivery(at, s.op, FaultModel(s.model), s.resource, key + (j,))
                    )
            elif s.op == "dose":
                for j in range(s.count):
                    at = min(s.at + (s.span * j) // max(s.count - 1, 1), total - 1)
                    schedule.setdefault(at, []).append(
                        _Delivery(at, s.op, FaultModel(s.model), s.resource, key + (j,))
                    )
            elif s.op == "strike_recovery":
                strikes.append(
                    _Delivery(s.at, s.op, FaultModel(s.model), s.resource, key)
                )
            elif s.op == "pause_checkpoint":
                toggles[min(s.at, total - 1)] = False
            else:  # resume_checkpoint
                toggles[min(s.at, total - 1)] = True

        state = self._fresh_state()
        checksums = (
            abft_checksums(state.a_src, state.b_src)
            if scheme.abft and bench.name == "dgemm"
            else None
        )
        guards: dict[str, VariableGuard] = (
            build_guards(bench.name) if scheme.guards else {}
        )
        if guards:
            attach_observer(
                guards, lambda event: run.events.append(event.to_dict())
            )
            sync_guards(guards, bench.variables(state, 0))

        checkpointing = scheme.checkpoint_interval > 0
        snapshots: list[tuple[int, Any]] = (
            [(0, bench.snapshot(state))] if checkpointing else []
        )
        capture_enabled = True
        strike_cursor = 0
        struck_restore = False
        failures = 0
        budget = max(64, _BUDGET_FACTOR * total)
        index = 0
        outcome = "masked"
        detail = ""
        detected_by = ""
        digest = ""
        wrong_elements = 0

        def resync_guards(at_step: int) -> None:
            sync_guards(guards, bench.variables(state, at_step))

        while index < total:
            if run.executed >= budget:
                outcome, detail = "due", "timeout: deterministic step budget exhausted"
                break
            if index in toggles:
                capture_enabled = toggles[index]
            try:
                for delivery in schedule.get(index, ()):
                    if not delivery.delivered:
                        delivery.delivered = True
                        self._deliver(state, index, delivery, run, ordinal=0)
                if guards and index % scheme.verify_interval == 0:
                    arrays = {v.name: v.array for v in bench.variables(state, index)}
                    for name, guard in guards.items():
                        if name in arrays:
                            guard.verify(arrays[name])
                bench.step(state, index)
                run.executed += 1
                index += 1
                if index == snapshot_roundtrip_at:
                    state = bench.restore(bench.snapshot(state))
                if guards and index < total:
                    resync_guards(index)
                if (
                    checkpointing
                    and capture_enabled
                    and failures == 0
                    and index < total
                    and index % scheme.checkpoint_interval == 0
                ):
                    snapshots.append((index, bench.snapshot(state)))
            except (FaultDetected, BenchmarkHang, *_CRASH_EXCEPTIONS) as exc:
                if isinstance(exc, FaultDetected):
                    kind_detail = f"{exc.kind.value}:{exc.variable}"
                elif isinstance(exc, BenchmarkHang):
                    kind_detail = f"hang:{exc}"
                else:
                    kind_detail = f"crash:{type(exc).__name__}:{exc}"
                if not checkpointing:
                    if isinstance(exc, FaultDetected):
                        outcome, detected_by, detail = "detected", kind_detail, str(exc)
                    else:
                        outcome, detail = "due", kind_detail
                    break
                failures += 1
                if failures > _MAX_FAILURES:
                    outcome, detail = "due", f"recovery gave up: {kind_detail}"
                    break
                # Same poisoned-snapshot cascade as run_with_checkpoints,
                # including the restore-strike exemption.
                if failures > 1 and not struck_restore and len(snapshots) > 1:
                    snapshots.pop()
                index, base = snapshots[-1]
                state = bench.restore(base)
                run.recoveries += 1
                # The restored image is trusted; guards re-attach to it
                # *before* any restore strike lands, so a strike-induced
                # corruption is still detectable at the next verify point.
                if guards:
                    resync_guards(index)
                struck_restore = False
                if strike_cursor < len(strikes):
                    strike = strikes[strike_cursor]
                    strike_cursor += 1
                    self._deliver(state, index, strike, run, ordinal=0, during="restore")
                    struck_restore = True
        else:
            # Clean loop exit: classify the output.
            try:
                observed = bench.output(state)
                if checksums is not None:
                    verdict = abft_check(observed, checksums[0], checksums[1])
                    if verdict.outcome is not AbftOutcome.CLEAN:
                        run.events.append(
                            DetectorEvent("output", "abft", verdict.outcome.value).to_dict()
                        )
                    if verdict.outcome is AbftOutcome.CORRECTED:
                        observed = verdict.matrix
                        quantized = self._quantize(observed)
                        if np.array_equal(quantized, self.golden):
                            outcome, detected_by = "corrected", "abft"
                            detail = f"{verdict.corrections} element(s) repaired"
                        else:
                            outcome = "sdc"
                            detail = "abft corrected but output still differs"
                    elif verdict.outcome is AbftOutcome.DETECTED:
                        outcome, detected_by = "detected", "abft"
                        detail = "output checksums mismatch (uncorrectable)"
                if outcome in ("masked", "sdc", "corrected"):
                    quantized = self._quantize(observed)
                    digest = self._digest(quantized)
                    if outcome == "masked":
                        wrong_elements = int(np.sum(~self._equal_mask(quantized)))
                        if wrong_elements:
                            outcome = "sdc"
                            detail = f"{wrong_elements} wrong element(s)"
                    elif outcome == "sdc":
                        wrong_elements = int(np.sum(~self._equal_mask(quantized)))
            except (BenchmarkHang, *_CRASH_EXCEPTIONS) as exc:
                outcome, detail = "due", f"crash:{type(exc).__name__}:{exc}"
                digest, wrong_elements = "", 0

        return ScenarioRecord(
            benchmark=bench.name,
            scenario_key=scenario.key(),
            outcome=outcome,
            detail=detail,
            detected_by=detected_by,
            faults=tuple(run.faults),
            detector_events=tuple(run.events),
            recoveries=run.recoveries,
            executed_steps=run.executed,
            total_steps=total,
            output_digest=digest,
            sdc_wrong_elements=wrong_elements,
        )

    def _equal_mask(self, quantized: np.ndarray) -> np.ndarray:
        golden = self.golden
        with np.errstate(invalid="ignore"):
            equal = quantized == golden
        both_nan = np.zeros_like(equal, dtype=bool)
        if quantized.dtype.kind == "f":
            both_nan = np.isnan(quantized) & np.isnan(golden)
        return equal | both_nan


#: Per-process executor cache: goldens are the expensive part, and a
#: fuzz campaign replays thousands of scenarios against the same pair.
_EXECUTORS: dict[str, ScenarioExecutor] = {}


def executor_for(
    benchmark: str, benchmark_params: dict[str, Any] | None = None
) -> ScenarioExecutor:
    key = json.dumps(
        {"benchmark": benchmark, "params": benchmark_params or {}}, sort_keys=True
    )
    cached = _EXECUTORS.get(key)
    if cached is None:
        cached = _EXECUTORS[key] = ScenarioExecutor(benchmark, benchmark_params)
    return cached
