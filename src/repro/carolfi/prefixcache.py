"""The golden run of one campaign input, and the one perturbed-run loop.

Every perturbed run executes the exact same instruction stream as the
golden run up to its first perturbation step — the fault models flip
bits of *existing* values, so the pre-perturbation prefix is
bit-identical by construction.  Re-executing that prefix for each of
the campaign's thousands of runs is the reproduction's single largest
cost (the paper's §6.1 checkpoint-frequency framing: recomputation
versus restore).

:class:`PrefixStore` owns one campaign input's golden run: the pristine
step-0 state, periodic snapshots keyed by the step they were taken *at
the entry of*, and the raw golden output.  :meth:`PrefixStore.record`
is the one golden walk a campaign's set-up makes.
:meth:`PrefixStore.run` is the one loop every perturbed run steps
through — CAROL-FI's ``Supervisor.run_one``, the beam's
``BeamExperiment.run_trial`` and the hardened
``HardenedSupervisor._execute``.  Every run has one perturbation step:
the run resumes from the deepest snapshot at or below it
(:meth:`PrefixStore.resume`), so it replays only the remaining few
steps, turning ``O(total_steps)`` per-run work into
``O(interval + suffix)``; it applies its perturbation at the entry of
that step; and from there on it ends the suffix early through
:meth:`PrefixStore.converged`: a state byte-identical to a stored
snapshot has rejoined the golden trajectory, so the run would finish on
the golden output without raising, and it stops there, masked.  The
same argument covers all three callers — a bit flip or a machine-model
strike lands at the entry of its step on a state the prefix left
bit-exact, so skipping the prefix is invisible, and kernels are
deterministic, so a state that is golden again at the entry of a step
stays golden to the end.  A store recorded without captures
(``record(snapshots=False)``) resumes every run at step 0 and never
stops one: the replay-everything reference path.

Snapshot cadence is derived from the benchmark's window geometry:
``interval = max(1, total_steps // (SNAPSHOT_DENSITY * num_windows))``
puts :data:`SNAPSHOT_DENSITY` snapshots in every execution-time window,
so the expected replay is a small fraction of a window regardless of
where the interrupt lands.  Step 0 is deliberately *not* stored: the
pristine input already is the step-0 snapshot.

A byte budget caps memory: once the stored snapshots exceed it, capture
stops, runs interrupted beyond the last snapshot simply replay a
longer prefix and runs past it are never checked for convergence —
graceful degradation, never an error.  The first time
the budget actually blocks a wanted capture the store fires its
``on_degrade`` hook (once), so the campaign can log a single structured
event instead of silently shortening the fast path.

:class:`SharedPrefixStore` is the zero-copy flavour: a read-only view
over a published shared-memory segment (:mod:`repro.carolfi.shmstore`).
It never captures — the segment was filled once, by the host's
publisher — and its restores are copy-on-write materialisations, so a
worker's RSS does not scale with the snapshot set and the budget is
accounted once per host rather than once per process.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.benchmarks.base import Benchmark, state_nbytes, states_equal
from repro.telemetry import current_registry

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (typing only)
    from repro.carolfi.shmstore import ShmSegment

__all__ = [
    "DEFAULT_SNAPSHOT_BUDGET",
    "PrefixStore",
    "SharedPrefixStore",
    "Snapshot",
    "snapshot_interval",
]

#: Snapshots per execution-time window.  Higher density shortens the
#: replayed prefix (expected replay ~ interval/2 steps) at the cost of
#: proportionally more resident copies of the benchmark state.
SNAPSHOT_DENSITY = 4

#: Default cap on the total bytes of state a store may hold.  Default
#: campaign states are well under a megabyte each, so the cap only
#: engages for paper-scale parameter studies.
DEFAULT_SNAPSHOT_BUDGET = 256 << 20


def snapshot_interval(
    total_steps: int, num_windows: int, density: int | None = None
) -> int:
    """Steps between snapshots for a benchmark's window geometry."""
    if total_steps < 1:
        raise ValueError("total_steps must be positive")
    if num_windows < 1:
        raise ValueError("num_windows must be positive")
    density = SNAPSHOT_DENSITY if density is None else int(density)
    if density < 1:
        raise ValueError("density must be positive")
    return max(1, total_steps // (density * num_windows))


@dataclass(frozen=True)
class Snapshot:
    """One captured prefix: the state at the *entry* of ``step``."""

    step: int
    state: Any
    nbytes: int


class PrefixStore:
    """The golden run of one campaign input: pristine state, per-window
    snapshots and golden output.

    The store never mutates or hands out its states directly: set-up
    fills it with :meth:`record`, whose captures deep-copy via
    :meth:`~repro.benchmarks.base.Benchmark.snapshot`, and runs
    rehydrate with :meth:`fresh` and :meth:`resume`, so the pristine
    input and every stored prefix can seed any number of runs.
    """

    #: The shared-memory segment behind a :class:`SharedPrefixStore`.
    segment: "ShmSegment | None" = None

    def __init__(
        self,
        benchmark: Benchmark,
        pristine: Any,
        byte_budget: int = DEFAULT_SNAPSHOT_BUDGET,
        density: int | None = None,
    ):
        if byte_budget < 0:
            raise ValueError("byte_budget must be non-negative")
        self.benchmark = benchmark
        #: The step-0 state; read-only, every run starts from a clone.
        self.pristine = pristine
        self.total_steps = benchmark.num_steps(pristine)
        self.interval = snapshot_interval(
            self.total_steps, benchmark.num_windows, density
        )
        self.byte_budget = int(byte_budget)
        self.used_bytes = 0
        #: Set once, the first time the byte budget blocks a wanted
        #: capture; ``on_degrade`` (if any) fires at that moment.
        self.degraded = False
        self.on_degrade: Callable[[PrefixStore], None] | None = None
        #: The raw (unquantized) golden output, set by :meth:`record`.
        self.output: Any = None
        self._snapshots: dict[int, Snapshot] = {}
        self._steps_sorted: list[int] = []

    def fresh(self) -> Any:
        """A writable clone of the pristine input, at step 0."""
        return self.benchmark.restore(self.pristine)

    def capture_points(self) -> range:
        """The steps this store wants a snapshot at (step 0 excluded)."""
        return range(self.interval, self.total_steps, self.interval)

    def wants(self, step: int) -> bool:
        """Should the caller capture the state at the entry of ``step``?

        True only for an uncaptured capture point while the byte budget
        lasts; :meth:`record` asks at every step of its golden walk.
        """
        wanted = (
            step > 0
            and step < self.total_steps
            and step % self.interval == 0
            and step not in self._snapshots
        )
        if wanted and self.used_bytes >= self.byte_budget:
            if not self.degraded:
                self.degraded = True
                if self.on_degrade is not None:
                    self.on_degrade(self)
            return False
        return wanted

    def capture(self, step: int, state: Any) -> None:
        """Snapshot ``state`` as the prefix ending at the entry of ``step``."""
        if not 0 < step < self.total_steps:
            raise ValueError(f"capture step {step} out of range")
        if step in self._snapshots:
            return
        nbytes = state_nbytes(state)
        self._snapshots[step] = Snapshot(
            step=step, state=self.benchmark.snapshot(state), nbytes=nbytes
        )
        self.used_bytes += nbytes
        bisect.insort(self._steps_sorted, step)
        self._count("repro_snapshot_captures_total")

    def record(self, snapshots: bool = True) -> None:
        """Walk a fresh clone from step 0 to the end and keep its output.

        The golden walk of a campaign's set-up.  With ``snapshots``,
        every capture point the store wants (up to its byte budget) is
        captured at the entry of its step; without, the store stays
        empty and every :meth:`run` replays from step 0 to the end.
        Either way :attr:`output` ends as the raw golden output.
        """
        state = self.fresh()
        for index in range(self.total_steps):
            if snapshots and self.wants(index):
                self.capture(index, state)
            self.benchmark.step(state, index)
        self.output = self.benchmark.output(state)

    def latest(self, interrupt_step: int) -> Snapshot | None:
        """The deepest snapshot at or before ``interrupt_step``, if any."""
        pos = bisect.bisect_right(self._steps_sorted, interrupt_step)
        if pos == 0:
            return None
        return self._snapshots[self._steps_sorted[pos - 1]]

    def resume(self, step: int) -> tuple[Any, int]:
        """A writable golden state for a run perturbed at ``step``.

        Returns the state at the deepest snapshot at or below ``step``
        plus that snapshot's step or, with no such snapshot, a
        :meth:`fresh` clone and step 0.  The caller steps only from
        there on: the skipped steps are pure golden work, so the
        perturbation at ``step`` lands on exactly the state a full
        replay would have reached.
        """
        snap = self.latest(step)
        if snap is None:
            return self.fresh(), 0
        state = self.materialize(snap)
        self._count("repro_snapshot_restores_total")
        self._count("repro_steps_skipped_total", float(snap.step))
        return state, snap.step

    def run(
        self,
        step: int | None,
        perturb: Callable[[Any, int], None],
        observer: Any = None,
    ) -> Any:
        """Run one perturbed execution; its final state, or ``None``.

        ``step`` is the run's one perturbation step.  The run resumes
        at the deepest snapshot at or below it (:meth:`resume`) and
        calls ``perturb(state, step)`` at the entry of ``step``.  From
        ``step`` on it asks :meth:`converged` before every step and
        returns ``None`` on a match: the run is golden again and would
        end on the golden output.  Otherwise it steps to the end and
        returns the final state.  ``None`` is a fault-free full replay
        from a :meth:`fresh` clone that never stops early.

        ``observer``, if given, sees ``enter(state, k)`` at the resume
        step and after every step (with ``k + 1``, the last step
        included), and ``check(state, k)`` just before step ``k``,
        after its perturbation and convergence check.  Exceptions
        propagate: each caller classifies them itself.
        """
        if step is None:
            state, start = self.fresh(), 0
            check_from = self.total_steps
        else:
            state, start = self.resume(step)
            check_from = step
        if observer is not None:
            observer.enter(state, start)
        for index in range(start, self.total_steps):
            if index == step:
                perturb(state, index)
            if index >= check_from and self.converged(index, state):
                return None
            if observer is not None:
                observer.check(state, index)
            self.benchmark.step(state, index)
            if observer is not None:
                observer.enter(state, index + 1)
        return state

    def converged(self, index: int, state: Any) -> bool:
        """Is ``state`` the golden state at the entry of step ``index``?

        True only when the store holds a snapshot at exactly ``index``
        and ``state`` is byte-identical to it; nothing is copied or
        captured.  A run may ask only once its perturbation has been
        applied: from a golden state the deterministic kernels
        reach the golden output and never raise, so a True lets the
        caller classify against the golden output and step no further.
        """
        snap = self._snapshots.get(index)
        if snap is None or not states_equal(snap.state, state):
            return False
        self._count("repro_steps_converged_total", float(self.total_steps - index))
        return True

    def _count(self, name: str, amount: float = 1.0) -> None:
        """Bump a prefix-efficiency counter (no-op with telemetry off)."""
        current_registry().counter(
            name, help="Prefix fast-path cache efficiency counter."
        ).inc(amount, benchmark=self.benchmark.name)

    def materialize(self, snap: Snapshot) -> Any:
        """A writable state rehydrated from ``snap``.

        The base store deep-copies via the benchmark's ``restore``;
        :class:`SharedPrefixStore` overrides this with a copy-on-write
        mapping of the shared segment.  Both produce bit-identical
        states — only the memory mechanics differ.
        """
        return self.benchmark.restore(snap.state)

    def anchor_step(self, interrupt_step: int) -> int:
        """The restore step runs interrupted at ``interrupt_step`` share.

        The batch runner groups runs by this value so that one restore
        (or one pristine clone, anchor 0) seeds the whole group.  It is a
        property of the store's contents: a different density or byte
        budget groups runs differently, which only changes how work is
        batched, never the per-run records.
        """
        snap = self.latest(interrupt_step)
        return 0 if snap is None else snap.step

    def __len__(self) -> int:
        return len(self._snapshots)


class SharedPrefixStore(PrefixStore):
    """A read-only :class:`PrefixStore` over a shared-memory segment.

    Built by attaching a segment another process (or this one) already
    published: the pristine input, the snapshot states and the golden
    output are zero-copy read-only views of the host-wide mapping,
    :meth:`capture` raises (the segment is complete; nothing is ever
    captured into an attachment), and :meth:`fresh` and
    :meth:`materialize` rebuild writable states over private
    copy-on-write mappings instead of deep-copying.

    ``used_bytes`` reports the *segment* payload size — bytes that exist
    once per host — so budget accounting across a worker fleet counts
    shared snapshots once, not once per process.
    """

    def __init__(self, benchmark: Benchmark, segment: "ShmSegment"):
        super().__init__(benchmark, segment.pristine)
        self.segment = segment
        self.interval = segment.interval
        self.used_bytes = segment.payload_bytes
        self.degraded = segment.degraded
        self.output = segment.golden
        for step, nbytes in zip(segment.snapshot_steps, segment.snapshot_nbytes):
            self._snapshots[step] = Snapshot(
                step=step, state=segment.snapshot_state(step), nbytes=nbytes
            )
            bisect.insort(self._steps_sorted, step)

    def fresh(self) -> Any:
        return self.segment.materialize(None)

    def capture(self, step: int, state: Any) -> None:
        raise RuntimeError("SharedPrefixStore is read-only; captures belong to the publisher")

    def materialize(self, snap: Snapshot) -> Any:
        return self.segment.materialize(snap.step)
