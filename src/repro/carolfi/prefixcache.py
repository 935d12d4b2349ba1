"""Execution-prefix snapshot store for the CAROL-FI fast path.

Every injected run executes the exact same instruction stream as the
golden run up to its interrupt step — the fault models flip bits of
*existing* values, so the pre-injection prefix is bit-identical by
construction.  Re-executing that prefix for each of the campaign's
thousands of runs is the reproduction's single largest cost (the paper's
§6.1 checkpoint-frequency framing: recomputation versus restore).

:class:`PrefixStore` holds periodic state snapshots of the golden
execution, keyed by the step they were taken *at the entry of*.
:meth:`PrefixStore.resume` hands a run the latest snapshot at or below
its perturbation step, so it replays only the remaining few steps,
turning ``O(total_steps)`` per-run work into ``O(interval + suffix)``;
:meth:`PrefixStore.fill` captures missing snapshots from the golden
prefix a run walks anyway.  Every perturbed-run loop resumes through
this pair: CAROL-FI's ``Supervisor.run_one``, the beam's
``BeamExperiment.run_trial`` and the hardened
``HardenedSupervisor._execute``.  The same argument covers all three —
a bit flip or a machine-model strike lands at the entry of its step on
a state the prefix left bit-exact, so skipping the prefix is invisible.

Snapshot cadence is derived from the benchmark's window geometry:
``interval = max(1, total_steps // (SNAPSHOT_DENSITY * num_windows))``
puts :data:`SNAPSHOT_DENSITY` snapshots in every execution-time window,
so the expected replay is a small fraction of a window regardless of
where the interrupt lands.  Step 0 is deliberately *not* stored: the
Supervisor's memoised pristine input state already is the step-0
snapshot.

A byte budget caps memory: once the stored snapshots exceed it, capture
stops and runs interrupted beyond the last snapshot simply replay a
longer prefix — graceful degradation, never an error.  The first time
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

from repro.benchmarks.base import Benchmark, state_nbytes
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
    """Per-window execution snapshots of one benchmark's golden prefix.

    The store never mutates or hands out its states directly: callers
    capture with :meth:`capture` (which deep-copies via
    :meth:`~repro.benchmarks.base.Benchmark.snapshot`) and rehydrate
    with ``benchmark.restore(snap.state)``, so every stored prefix can
    seed any number of runs.
    """

    def __init__(
        self,
        benchmark: Benchmark,
        total_steps: int,
        byte_budget: int = DEFAULT_SNAPSHOT_BUDGET,
        density: int | None = None,
    ):
        if byte_budget < 0:
            raise ValueError("byte_budget must be non-negative")
        self.benchmark = benchmark
        self.total_steps = int(total_steps)
        self.interval = snapshot_interval(
            self.total_steps, benchmark.num_windows, density
        )
        self.byte_budget = int(byte_budget)
        self.used_bytes = 0
        #: Set once, the first time the byte budget blocks a wanted
        #: capture; ``on_degrade`` (if any) fires at that moment.
        self.degraded = False
        self.on_degrade: Callable[[PrefixStore], None] | None = None
        self._snapshots: dict[int, Snapshot] = {}
        self._steps_sorted: list[int] = []

    def capture_points(self) -> range:
        """The steps this store wants a snapshot at (step 0 excluded)."""
        return range(self.interval, self.total_steps, self.interval)

    def wants(self, step: int) -> bool:
        """Should the caller capture the state at the entry of ``step``?

        True only for an uncaptured capture point while the byte budget
        lasts — callers sprinkle ``if store.wants(i): store.capture(i,
        state)`` into their step loops at near-zero cost.
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

    def latest(self, interrupt_step: int) -> Snapshot | None:
        """The deepest snapshot at or before ``interrupt_step``, if any."""
        pos = bisect.bisect_right(self._steps_sorted, interrupt_step)
        if pos == 0:
            return None
        return self._snapshots[self._steps_sorted[pos - 1]]

    def resume(self, step: int, pristine: Callable[[], Any]) -> tuple[Any, int]:
        """A writable golden state for a run perturbed at ``step``.

        Returns the state at the deepest snapshot at or below ``step``
        plus that snapshot's step or, with no such snapshot, a fresh
        ``pristine()`` clone of the caller's memoised input and step 0.
        The caller steps only from there on: the skipped steps are pure
        golden work, so the perturbation at ``step`` lands on exactly
        the state a full replay would have reached.
        """
        snap = self.latest(step)
        if snap is None:
            return pristine(), 0
        state = self.materialize(snap)
        self._count("repro_snapshot_restores_total")
        self._count("repro_steps_skipped_total", float(snap.step))
        return state, snap.step

    def fill(self, index: int, state: Any, perturb_step: int) -> None:
        """Capture ``state`` at the entry of ``index`` if the store wants it.

        Called at the top of every step of a resumed run: up to (and at
        the entry of) ``perturb_step`` the run's state is still a golden
        prefix, so it fills the gaps an empty or budget-capped store
        left.  Later steps are never captured.
        """
        if index <= perturb_step and self.wants(index):
            self.capture(index, state)
            self._count("repro_snapshot_captures_total")

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
        property of the store's *current* contents: a later capture can
        split what would have been one group, which only changes how
        work is batched, never the per-run records.
        """
        snap = self.latest(interrupt_step)
        return 0 if snap is None else snap.step

    def __len__(self) -> int:
        return len(self._snapshots)


class SharedPrefixStore(PrefixStore):
    """A read-only :class:`PrefixStore` over a shared-memory segment.

    Built by attaching a segment another process (or this one) already
    published: the snapshot states are zero-copy read-only views of the
    host-wide mapping, :meth:`wants` is always ``False`` (the segment is
    complete; nothing is ever captured into an attachment), and
    :meth:`materialize` rebuilds writable states over private
    copy-on-write mappings instead of deep-copying.

    ``used_bytes`` reports the *segment* payload size — bytes that exist
    once per host — so budget accounting across a worker fleet counts
    shared snapshots once, not once per process.
    """

    def __init__(self, benchmark: Benchmark, segment: "ShmSegment"):
        super().__init__(benchmark, segment.total_steps)
        self.segment = segment
        self.interval = segment.interval
        self.used_bytes = segment.payload_bytes
        self.degraded = segment.degraded
        for step, nbytes in zip(segment.snapshot_steps, segment.snapshot_nbytes):
            self._snapshots[step] = Snapshot(
                step=step, state=segment.snapshot_state(step), nbytes=nbytes
            )
            bisect.insort(self._steps_sorted, step)

    def wants(self, step: int) -> bool:
        return False

    def capture(self, step: int, state: Any) -> None:
        raise RuntimeError("SharedPrefixStore is read-only; captures belong to the publisher")

    def materialize(self, snap: Snapshot) -> Any:
        return self.segment.materialize(snap.step)
