"""Span-stack tracing of the program's public callables, from outside.

The benchmark does not instrument ``src/``: it replaces selected methods
with timing wrappers for the duration of one run and puts the originals
back afterwards.  Every wrapped call is a span.  A stack of open spans
gives each span's *self* time (its duration minus the part covered by
wrapped callees) next to its inclusive time.

Spans are recorded only in the process that installed the wrappers.
Engine workers forked from it inherit the wrappers but run the
originals untimed: their numbers could never be read back, and their
overhead would only slow the campaign being measured.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable
from typing import Any

__all__ = ["Target", "Tracer", "setup_targets", "trace_targets"]

#: ``(owner class, attribute, span name, hooks)``.  ``hooks`` maps
#: ``"call"`` to ``f(tracer, args)`` and ``"return"`` to
#: ``f(tracer, result)`` for counts that belong to the call itself.
Target = tuple[type, str, str, dict[str, Callable[..., None]]]

#: Spans inside which a kernel step is part of a perturbed run rather
#: than of set-up (golden runs and warm-up walks).
RUN_SPANS = ("carolfi.run_one", "carolfi.batch")


class Tracer:
    """Counts, inclusive seconds and self seconds per span name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list[Any]] = []  # [name, start, seconds in children]
        self._patched: list[tuple[type, str, Any, bool]] = []
        self._pid = os.getpid()

    # -- spans ----------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, children = self._stack.pop()
        elapsed = self.clock() - start
        self.calls[name] += 1
        self.inclusive_s[name] += elapsed
        self.self_s[name] += elapsed - children
        if self._stack:
            self._stack[-1][2] += elapsed

    def inside(self, names: Iterable[str]) -> bool:
        """Whether any open span has one of ``names``."""
        wanted = set(names)
        return any(frame[0] in wanted for frame in self._stack)

    # -- wrapping -------------------------------------------------------------

    def wrap(self, owner: type, attr: str, name: str, hooks: dict | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        owned = attr in owner.__dict__
        original = owner.__dict__[attr] if owned else getattr(owner, attr)
        on_call = (hooks or {}).get("call")
        on_return = (hooks or {}).get("return")
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            if on_call is not None:
                on_call(tracer, args)
            tracer.enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit()
            if on_return is not None:
                on_return(tracer, result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original, owned))

    def install(self, targets: Iterable[Target]) -> "Tracer":
        for owner, attr, name, hooks in targets:
            self.wrap(owner, attr, name, hooks)
        return self

    def uninstall(self) -> None:
        """Put every original back, newest wrapper first."""
        while self._patched:
            owner, attr, original, owned = self._patched.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


# -- what the benchmark wraps --------------------------------------------------


def _count_run_step(tracer: Tracer, args: tuple) -> None:
    if tracer.inside(RUN_SPANS):
        tracer.counts["run_steps"] += 1


def _count_members(tracer: Tracer, args: tuple) -> None:
    members = len(args[1])
    tracer.counts["batch_member_steps"] += members
    if tracer.inside(RUN_SPANS):
        tracer.counts["run_steps"] += members


def _count_vectorized(tracer: Tracer, result: Any) -> None:
    tracer.counts["vectorized_records"] += len(result)


def _count_occupied(tracer: Tracer, result: Any) -> None:
    tracer.counts["occupied_trials"] += int(result.occupied)


def setup_targets() -> list[Target]:
    """The campaign constructors: the only wrappers of an untraced run.

    ``setup_s`` is the time spent in them, so even an untraced run needs
    these three spans (a handful of calls per run).
    """
    from repro.beam.experiment import BeamExperiment
    from repro.carolfi.supervisor import Supervisor
    from repro.hardening.hardened import HardenedSupervisor

    return [
        (BeamExperiment, "__init__", "beam.setup", {}),
        (Supervisor, "__init__", "carolfi.setup", {}),
        (HardenedSupervisor, "__init__", "hardening.setup", {}),
    ]


def trace_targets() -> list[Target]:
    """Every public callable a traced run wraps, one span name each."""
    from repro.beam.experiment import BeamExperiment
    from repro.benchmarks.clamr.kdtree import KdTree
    from repro.benchmarks.registry import BENCHMARKS
    from repro.carolfi.batchrunner import BatchRunner
    from repro.carolfi.flipscript import FlipScript
    from repro.carolfi.prefixcache import PrefixStore
    from repro.carolfi.supervisor import Supervisor
    from repro.hardening.guards import VariableGuard
    from repro.phi.machine import XeonPhiMachine

    targets: list[Target] = setup_targets()
    for name, kernel in sorted(BENCHMARKS.items()):
        targets += [
            (kernel, "step", f"benchmarks.{name}.step", {"call": _count_run_step}),
            (kernel, "step_batch", "benchmarks.step_batch", {"call": _count_members}),
            (kernel, "restore", "benchmarks.restore", {}),
        ]
    targets += [
        (KdTree, "query_nearest", "benchmarks.clamr.kdtree", {}),
        (XeonPhiMachine, "apply_strike", "phi.strike", {}),
        (FlipScript, "inject", "carolfi.inject", {}),
        (Supervisor, "run_one", "carolfi.run_one", {}),
        (Supervisor, "classify_output", "carolfi.compare", {}),
        (BatchRunner, "run_many", "carolfi.batch", {"return": _count_vectorized}),
        (PrefixStore, "materialize", "carolfi.restore", {}),
        (BeamExperiment, "run_trial", "beam.trial", {"return": _count_occupied}),
        (VariableGuard, "verify", "hardening.verify", {}),
        (VariableGuard, "resync", "hardening.resync", {}),
    ]
    return targets
