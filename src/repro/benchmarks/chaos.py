"""Chaos — an isolation-validation benchmark with escapable failure modes.

Every real benchmark in the suite converts corrupted state into tidy
Python exceptions (``IndexError``, :class:`BenchmarkHang`, ...) that the
in-process Supervisor can classify.  Subprocess isolation exists for
the faults that *escape* that net: a runaway loop the guards miss, an
unbounded allocation, a hard ``exit()``/``abort()`` out of a C
extension.  Each kills or is killed with the lease worker that runs it.
FINJ and ZOFI validate their subprocess supervision with dedicated
misbehaving fault programs; ``chaos`` is ours.

The benchmark itself is a trivial vectorised recurrence.  Its state
carries a ``trigger`` control word (initially zero) that every step
consults; when an injection corrupts the trigger to a non-zero value the
step misbehaves according to the ``failure`` parameter:

* ``none``    — no misbehaviour (the *benign twin*: bit-identical
  records for every run whose trigger stays zero, and an ordinary
  masked/SDC outcome for runs that hit the trigger);
* ``exit``    — ``os._exit(86)``: an uncatchable process death;
* ``abort``   — ``os.abort()``: dies with ``SIGABRT``;
* ``spin``    — a guard-free busy loop (``spin_s`` seconds) that no
  deterministic loop guard sees: only the local backend's hard
  deadline or the scheduler's liveness reap can stop it;
* ``alloc``   — allocates and touches memory until ``alloc_cap_mb``,
  then raises ``MemoryError`` (the RSS-ceiling test vector);
* ``oserror`` — raises ``OSError``, which is *not* in the Supervisor's
  crash net and therefore fails the lease that runs it (the
  shard-killer-exception test vector).

``chaos`` is registered so worker subprocesses can instantiate it by
name, but it is not part of any paper benchmark set.
"""

from __future__ import annotations

import faulthandler
import os
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.benchmarks.base import Benchmark, Variable

__all__ = ["Chaos", "ChaosState"]

#: Allocation chunk for the ``alloc`` failure mode (bytes are touched so
#: the pages land in the resident set, not just the address space).
_ALLOC_CHUNK_MB = 16

_FAILURES = ("none", "exit", "abort", "spin", "alloc", "oserror")


@dataclass
class ChaosState:
    """Live state of one chaos execution."""

    data: np.ndarray  # (n,) float64 — input signal
    acc: np.ndarray  # (n,) float64 — running recurrence (the output)
    trigger: np.ndarray  # int64 [armed] — misbehaviour trigger word
    hoard: list = field(default_factory=list)  # alloc-mode ballast


class Chaos(Benchmark):
    """Trivial recurrence that misbehaves when its trigger is corrupted."""

    name = "chaos"
    output_dims = 1
    num_windows = 4
    float_output = True
    output_decimals = 4
    stack_share = 0.25

    @classmethod
    def default_params(cls) -> dict[str, Any]:
        return {
            "n": 256,
            "steps": 8,
            "failure": "none",
            "spin_s": 30.0,
            "alloc_cap_mb": 512,
        }

    def __init__(self, **params: Any):
        super().__init__(**params)
        if self.params["failure"] not in _FAILURES:
            raise ValueError(f"unknown failure mode {self.params['failure']!r}; known: {_FAILURES}")
        if self.params["n"] < 1 or self.params["steps"] < 1:
            raise ValueError("n and steps must be positive")

    def make_state(self, rng: np.random.Generator) -> ChaosState:
        n = self.params["n"]
        return ChaosState(
            data=rng.standard_normal(n),
            acc=np.zeros(n, dtype=np.float64),
            trigger=np.zeros(1, dtype=np.int64),
        )

    def num_steps(self, state: ChaosState) -> int:
        return int(self.params["steps"])

    def step(self, state: ChaosState, index: int) -> None:
        if int(state.trigger[0]) != 0:
            self._misbehave(state)
        # Damped recurrence: every step reads data and rewrites acc, so
        # corrupted elements propagate but stay bounded.  Injected values
        # can legitimately overflow; that is signal, not an error.
        with np.errstate(over="ignore", invalid="ignore"):
            state.acc *= 0.5
            state.acc += np.cos(state.data * (index + 1))

    def output(self, state: ChaosState) -> np.ndarray:
        return state.acc.copy()

    def variables(self, state: ChaosState, step: int) -> list[Variable]:
        return [
            Variable("data", state.data, frame="main", var_class="input"),
            Variable("acc", state.acc, frame="kernel", var_class="matrix"),
            Variable("trigger", state.trigger, frame="kernel", var_class="control"),
        ]

    def _misbehave(self, state: ChaosState) -> None:
        failure = self.params["failure"]
        if failure == "none":
            return
        if failure == "exit":
            os._exit(86)
        if failure == "abort":
            # The SIGABRT is the point; keep faulthandler (enabled by
            # pytest) from spraying the parent's stderr with a verbose
            # dump for this *intentional* death.
            faulthandler.disable()
            os.abort()
        if failure == "spin":
            # No bounded_range: only an external wall-clock kill can
            # stop this loop.
            end = time.monotonic() + float(self.params["spin_s"])
            while time.monotonic() < end:
                pass
            return
        if failure == "alloc":
            cap = int(self.params["alloc_cap_mb"]) * (1 << 20)
            chunk = _ALLOC_CHUNK_MB << 20
            while sum(b.nbytes for b in state.hoard) < cap:
                state.hoard.append(np.ones(chunk // 8, dtype=np.float64))
                time.sleep(0.005)  # give an RSS monitor a chance to observe
            raise MemoryError("chaos: allocation cap reached with no RSS ceiling")
        if failure == "oserror":
            raise OSError("chaos: failure outside the Supervisor's crash net")
        raise AssertionError(f"unreachable failure mode {failure!r}")
