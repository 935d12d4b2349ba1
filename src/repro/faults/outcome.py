"""Outcome taxonomy for fault injection and beam experiments.

A transient fault leads to one of three outcomes (paper Section 2.1):

* **Masked** — no effect on the program output.
* **SDC** — Silent Data Corruption: the program completes but its
  output mismatches the golden copy.
* **DUE** — Detected Unrecoverable Error: crash, hang (loop-guard
  timeout or a deadline kill), or machine-check abort.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.faults.site import FaultSite

__all__ = ["DueKind", "InjectionRecord", "Outcome"]

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


class Outcome(str, enum.Enum):
    """Final classification of one corrupted execution."""

    MASKED = "masked"
    SDC = "sdc"
    DUE = "due"

    @classmethod
    def all(cls) -> tuple["Outcome", ...]:
        return (cls.MASKED, cls.SDC, cls.DUE)


class DueKind(str, enum.Enum):
    """How a DUE manifested."""

    CRASH = "crash"
    """Unhandled exception in the benchmark, or a run quarantined after
    repeated failed executions, such as observed lease-worker deaths
    (non-zero exit code / fatal signal: the segfault analogue)."""

    TIMEOUT = "timeout"
    """A deterministic hang guard tripped: a corrupted loop bound or step
    that would spin forever, or the machine model's wedged scheduler.
    Never decided by the wall clock."""

    HANG = "hang"
    """Under subprocess isolation the local backend killed the lease
    worker at its run's hard wall-clock deadline, or the scheduler
    reaped a silent worker — a true observed hang that no loop guard
    saw."""

    OOM = "oom"
    """Under subprocess isolation the local backend killed the lease
    worker for exceeding its RSS memory ceiling during a run
    (unbounded-allocation analogue)."""

    MCA = "mca"
    """Machine-check abort raised by the ECC model (double-bit error)."""


@dataclass(frozen=True)
class InjectionRecord:
    """One line of the campaign log: a fault and its observed outcome."""

    benchmark: str
    run_index: int
    site: FaultSite
    fault_model: str
    bits: tuple[int, ...] | None
    interrupt_step: int
    total_steps: int
    time_window: int
    num_windows: int
    outcome: Outcome
    due_kind: DueKind | None = None
    due_detail: str = ""
    sdc_metrics: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "run_index": self.run_index,
            "site": self.site.to_dict(),
            "fault_model": self.fault_model,
            "bits": list(self.bits) if self.bits is not None else None,
            "interrupt_step": self.interrupt_step,
            "total_steps": self.total_steps,
            "time_window": self.time_window,
            "num_windows": self.num_windows,
            "outcome": self.outcome.value,
            "due_kind": self.due_kind.value if self.due_kind else None,
            "due_detail": self.due_detail,
            "sdc_metrics": dict(self.sdc_metrics),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InjectionRecord":
        return cls(
            benchmark=data["benchmark"],
            run_index=int(data["run_index"]),
            site=FaultSite.from_dict(data["site"]),
            fault_model=data["fault_model"],
            bits=tuple(data["bits"]) if data.get("bits") is not None else None,
            interrupt_step=int(data["interrupt_step"]),
            total_steps=int(data["total_steps"]),
            time_window=int(data["time_window"]),
            num_windows=int(data["num_windows"]),
            outcome=Outcome(data["outcome"]),
            due_kind=DueKind(data["due_kind"]) if data.get("due_kind") else None,
            due_detail=data.get("due_detail", ""),
            sdc_metrics=dict(data.get("sdc_metrics", {})),
        )
