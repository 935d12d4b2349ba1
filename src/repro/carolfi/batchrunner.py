"""Vectorized batched execution for any campaign runner.

The prefix cache (PR 4) removed pre-injection replay; what remains is
the post-injection *suffix*, executed one run at a time through Python
orchestration.  This module batches those suffixes: the run list is
sorted by interrupt step and chunked into groups of ``batch_size``; a
group walks the golden trajectory once from the earliest member's
prefix anchor, members join at their own interrupt steps, and the
group's corrupted states are stepped together through the benchmark's
vectorized batch protocol
(:meth:`~repro.benchmarks.base.Benchmark.step_batch`), turning N Python
step loops into one loop over batched NumPy kernels.

**The runner protocol.**  :class:`BatchRunner` names no runner class.
It drives any runner that presents ``benchmark``, ``prefix`` (its
:class:`~repro.carolfi.prefixcache.PrefixStore`), ``total_steps``,
``run_rng(run)``, ``perturb(state, step, model, rng) -> token`` and
``finish(run, model, step, token, final) -> record``: CAROL-FI's
``Supervisor`` and the hardened ``HardenedSupervisor``.  A runner's
scalar ``run_one`` is the same two calls around ``PrefixStore.run``,
so both paths build every record with the same lines.

**The golden carrier.**  Each group walks one scalar "carrier" state
along the pure golden trajectory from the anchor to the end.  Members
join the walk at their interrupt step — the carrier is cloned (that
clone *is* the bit-exact golden prefix the scalar path would have
produced) and perturbed with the member's own RNG.  A ``perturb`` that
raises a crash-net exception (a hardened guard's ``FaultDetected``)
ends that member at join: ``finish`` records it as ``run_one`` would,
from the exception.  Any other raise sends the member alone to the
**scalar fallback**, which raises it again with its run attributed.
Either way the rest of its group walks on.  Each
joined member's control state is compared against the carrier
(:meth:`~repro.benchmarks.base.Benchmark.batch_coherent`); any
divergence — a corrupted pointer, dimension, cursor, or out-of-range
residue, i.e. exactly the faults whose scalar execution would branch
differently or crash — routes the member to the scalar fallback too:
the caller simply re-runs it through the runner's ``run_one``, which
re-derives the per-run RNG from its run index and is therefore
byte-identical by construction.  The coherence contract is one-sided
(a false negative only costs a fallback), so implementations are
strict, never clever.

Records produced on the vectorized path are byte-identical to the
scalar path because every ingredient is shared: the per-run RNG is
keyed by run index (``run_rng``), the perturbed prefix state is a
bit-exact clone, the benchmarks' ``step_batch`` contract requires
bit-identical outputs, and the record is the runner's ``finish`` of the
final state.  The walk borrows its golden reference from the runner's
store — its pristine input at anchor 0, its snapshots elsewhere — and
reads it in place: every member and carrier is a deep-copied clone, so
no run writes the store.  A store recorded without captures walks every
group from step 0.  Group members step every suffix to the end:
``run_one``'s ``PrefixStore.run`` stops a run whose state is golden
again (``PrefixStore.converged``), but a member's state is stale while
a ``step_batch`` carry is live, so checking it would need a flush; a
member golden again ends on the golden output, which ``finish``
classifies as the stop would.  Scalar fallbacks go through ``run_one``
and are checked.

Batch-path telemetry (all new families; like the other fast-path
counters they describe *work saved*, and a lease's runs group by its
range, so they may differ across worker counts):

* ``repro_batch_groups_total{benchmark}`` — carrier walks executed;
* ``repro_batch_runs_total{benchmark, path}`` — runs completed on the
  ``vectorized`` path versus handed back for ``fallback``;
* ``repro_batch_fallback_total{benchmark, reason}`` — why members left
  the batch (``unsupported``, ``perturb``: its ``perturb`` raised
  outside the crash net, ``incoherent``, ``exception``: ``step_batch``
  raised);
* ``repro_batch_occupancy`` — histogram of members per group (higher is
  better amortisation).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.faults.models import FaultModel
from repro.faults.outcome import _CRASH_EXCEPTIONS
from repro.telemetry import current_registry, current_tracer

__all__ = ["BatchRunner", "DEFAULT_BATCH_SIZE", "OCCUPANCY_BUCKETS", "run_batch"]

#: The vectorized batch width every batchable campaign kind defaults
#: to; ``1`` runs every run through the scalar ``run_one``.
DEFAULT_BATCH_SIZE = 8

#: Histogram buckets for members-per-group occupancy (powers of two up
#: to the largest batch size the tests exercise).
OCCUPANCY_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


class _Member:
    """One run riding a batch group: planner output plus live state."""

    __slots__ = ("run_index", "model", "interrupt_step", "rng", "state", "token")

    def __init__(
        self,
        run_index: int,
        model: FaultModel,
        interrupt_step: int,
        rng: np.random.Generator,
    ):
        self.run_index = run_index
        self.model = model
        self.interrupt_step = interrupt_step
        self.rng = rng
        self.state: Any = None
        self.token: Any = None


class BatchRunner:
    """Plans and executes vectorized batch groups for one runner.

    ``runner`` presents the protocol in the module docstring.
    ``run_many`` is *total*: it never raises for any per-run condition.
    Runs it cannot complete on the vectorized path are simply absent
    from the returned mapping, and the caller finishes them through the
    runner's ordinary scalar ``run_one`` — which is what makes every
    failure mode (divergence, exception, unsupported benchmark) correct
    by construction rather than by case analysis.
    """

    def __init__(self, runner: Any, batch_size: int):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.runner = runner
        self.batch_size = int(batch_size)

    # -- telemetry ------------------------------------------------------------

    def _mark_fallback(self, count: int, reason: str) -> None:
        if count <= 0:
            return
        name = self.runner.benchmark.name
        registry = current_registry()
        registry.counter(
            "repro_batch_fallback_total", help="Batch members routed to scalar fallback."
        ).inc(float(count), benchmark=name, reason=reason)
        registry.counter(
            "repro_batch_runs_total", help="Runs finished per execution path."
        ).inc(float(count), benchmark=name, path="fallback")

    def _mark_vectorized(self, count: int) -> None:
        if count <= 0:
            return
        current_registry().counter(
            "repro_batch_runs_total", help="Runs finished per execution path."
        ).inc(float(count), benchmark=self.runner.benchmark.name, path="vectorized")

    # -- planning -------------------------------------------------------------

    def run_many(
        self,
        runs: Sequence[tuple[int, FaultModel]],
        interrupt_steps: Mapping[int, int] | None = None,
    ) -> dict[int, Any]:
        """Execute as many of ``runs`` as possible on the batch path.

        Returns records keyed by run index for every run completed
        vectorized; a missing key means "finish this one with
        ``run_one``".  ``interrupt_steps`` optionally pins specific
        runs' interrupt steps (mirroring ``run_one``'s parameter: the
        pinned run skips its RNG interrupt draw).
        """
        runner = self.runner
        records: dict[int, Any] = {}
        if not runs:
            return records
        if not runner.benchmark.supports_batching:
            self._mark_fallback(len(runs), "unsupported")
            return records

        total = runner.total_steps
        members: list[_Member] = []
        for run_index, model in runs:
            rng = runner.run_rng(run_index)
            if interrupt_steps is not None and run_index in interrupt_steps:
                step = int(interrupt_steps[run_index])
            else:
                step = int(rng.integers(0, total))
            if not 0 <= step < total:
                raise ValueError(f"interrupt step {step} out of range")
            members.append(_Member(run_index, FaultModel(model), step, rng))

        # One group is simply a chunk of the interrupt-step-sorted run
        # list: members join the walk at their own steps, and the walk
        # starts at the prefix anchor of the *earliest* member.  Groups
        # deliberately span anchors — borrowing the golden reference
        # from the snapshot store makes the extra walked steps free, so
        # occupancy (amortisation) is limited only by ``batch_size``.
        members.sort(key=lambda m: (m.interrupt_step, m.run_index))
        for lo in range(0, len(members), self.batch_size):
            chunk = members[lo : lo + self.batch_size]
            anchor = runner.prefix.anchor_step(chunk[0].interrupt_step)
            self._run_group(anchor, chunk, records)
        return records

    # -- one group ------------------------------------------------------------

    def _run_group(
        self,
        anchor: int,
        members: list[_Member],
        records: dict[int, Any],
    ) -> None:
        """One carrier walk: restore once, join, gate, batch-step, finish."""
        runner = self.runner
        bench = runner.benchmark
        prefix = runner.prefix
        total = runner.total_steps
        registry = current_registry()
        registry.counter(
            "repro_batch_groups_total", help="Vectorized batch groups executed."
        ).inc(1.0, benchmark=bench.name)
        registry.histogram(
            "repro_batch_occupancy",
            help="Members per vectorized batch group.",
            buckets=OCCUPANCY_BUCKETS,
        ).observe(float(len(members)), benchmark=bench.name)

        active: list[_Member] = []
        joined = 0
        span = current_tracer().span(
            "batch_group", anchor=anchor, members=len(members)
        )
        with span:
            try:
                # The golden reference at the entry of each step.  When
                # the snapshot store holds the next step (dense stores:
                # interval 1 means *every* step), the reference is
                # *borrowed* read-only straight from the store — zero
                # copies, zero golden re-stepping.  Only across store
                # gaps does a mutable carrier materialise and step the
                # golden trajectory scalar-side.
                carrier: Any = None  # mutable golden state, ours to step
                borrowed: Any = None  # read-only golden state, store-owned
                # step_batch's opaque carry: member bulk data stays
                # stacked across consecutive steps while membership is
                # unchanged.  Any membership change (join, incoherence
                # drop) flushes the old carry back into its states
                # first; a step_batch exception discards it (everyone
                # falls back to the scalar path anyway).
                carry: Any = None
                carry_states: list[Any] = []
                borrowed_snap: Any = None  # the store Snapshot behind `borrowed`
                if anchor > 0:
                    snap = prefix.latest(anchor)
                    if snap is not None and snap.step == anchor:
                        borrowed = snap.state
                        borrowed_snap = snap
                if borrowed is None:
                    anchor = 0
                    borrowed = prefix.pristine

                def clone_view() -> Any:
                    # A writable copy of the current golden reference.
                    # Snapshot- and pristine-backed views are restored
                    # by the store (``materialize``, ``fresh``), as the
                    # scalar path's ``resume`` restores them; a stepped
                    # carrier is plainly deep-copied.  All three are
                    # bit-exact copies, so no run writes the store.
                    if borrowed_snap is not None and borrowed is borrowed_snap.state:
                        return prefix.materialize(borrowed_snap)
                    if borrowed is not None and borrowed is prefix.pristine:
                        return prefix.fresh()
                    return bench.restore(view)

                for index in range(anchor, total):
                    view = carrier if borrowed is None else borrowed
                    while (
                        joined < len(members)
                        and members[joined].interrupt_step == index
                    ):
                        member = members[joined]
                        joined += 1
                        # The clone is the member's bit-exact golden
                        # prefix: restore-at-anchor plus golden steps is
                        # indistinguishable from the scalar path's own
                        # restore-and-replay.
                        member.state = clone_view()
                        try:
                            member.token = runner.perturb(
                                member.state, index, member.model, member.rng
                            )
                        except _CRASH_EXCEPTIONS as exc:
                            # A guard that trips, say: recorded here as
                            # ``run_one`` records it, and the rest of
                            # the group walks on.
                            records[member.run_index] = runner.finish(
                                member.run_index,
                                member.model,
                                index,
                                None,
                                exc.with_traceback(None),
                            )
                            self._mark_vectorized(1)
                            member.state = None
                            continue
                        except Exception:
                            # Outside the crash net: the scalar fallback
                            # raises it again, with its run attributed.
                            self._mark_fallback(1, "perturb")
                            member.state = None
                            continue
                        # Coherence is gated once, at injection: the
                        # batch contract forbids ``step_batch`` from
                        # deriving control state from member data, so a
                        # member coherent here stays on the golden
                        # control trajectory for the rest of the walk.
                        if bench.batch_coherent(member.state, view, index):
                            active.append(member)
                        else:
                            self._mark_fallback(1, "incoherent")
                    if not active and joined == len(members):
                        break  # everyone finished or fell back: no walk left
                    if active:
                        batch_states = [m.state for m in active]
                        if carry is not None and (
                            len(batch_states) != len(carry_states)
                            or any(
                                a is not b
                                for a, b in zip(batch_states, carry_states)
                            )
                        ):
                            bench.batch_flush(carry_states, carry)
                            carry = None
                        try:
                            carry = bench.step_batch(batch_states, index, carry)
                            carry_states = batch_states if carry is not None else []
                        except Exception:
                            # A raise with coherent controls should be
                            # impossible; whatever it was, the scalar
                            # fallback classifies it authoritatively.
                            self._mark_fallback(len(active), "exception")
                            active = []
                            carry, carry_states = None, []
                    if index + 1 < total:
                        if joined == len(members):
                            # No joins left: the golden reference has no
                            # remaining reader, so stop maintaining it.
                            borrowed, carrier, borrowed_snap = None, None, None
                        else:
                            nxt = prefix.latest(index + 1)
                            if nxt is not None and nxt.step == index + 1:
                                borrowed, carrier = nxt.state, None
                                borrowed_snap = nxt
                            else:
                                if carrier is None:
                                    carrier = clone_view()
                                bench.step(carrier, index)
                                borrowed, borrowed_snap = None, None
                if carry is not None:
                    # Classification reads member data: restore full
                    # bit-exact states first.
                    bench.batch_flush(carry_states, carry)
                    carry, carry_states = None, []
                for member in active:
                    records[member.run_index] = runner.finish(
                        member.run_index,
                        member.model,
                        member.interrupt_step,
                        member.token,
                        member.state,
                    )
                    self._mark_vectorized(1)
            except Exception:
                # Carrier-walk or finish failure: golden carriers never
                # raise, so this is defensive — every unrecorded member
                # finishes scalar.
                remaining = len(
                    [m for m in active + members[joined:] if m.run_index not in records]
                )
                self._mark_fallback(remaining, "exception")
            finally:
                # The group's states have no reader left.  Drop them now,
                # so a plan holds one group's states at a time, however
                # many runs it covers.
                for member in members:
                    member.state = None


def run_batch(
    runner: Any, runs: Sequence[tuple[int, FaultModel]], batch_size: int
) -> dict[int, Any]:
    """Drive ``runs`` through the vectorized batch path.

    The ``run_batch`` method of every batchable runner: the records of
    the runs :class:`BatchRunner` completed vectorized; a missing run is
    finished with the runner's ``run_one``.  It runs in the process
    that runs the lease, a forked lease worker under subprocess
    isolation.
    """
    return BatchRunner(runner, batch_size).run_many(runs)
