"""Benchmark protocol for injectable stepped execution.

Every benchmark in the suite (paper Section 3.2) is implemented as a
*stepped state machine*:

* :meth:`Benchmark.make_state` allocates all inputs and working arrays
  for a given RNG (inputs are dynamically generated once per campaign,
  like the paper's datasets);
* :meth:`Benchmark.num_steps` / :meth:`Benchmark.step` advance the
  computation one scheduling quantum at a time, so an injector can
  interrupt *between* steps exactly like CAROL-FI interrupts a process
  with a signal;
* :meth:`Benchmark.variables` exposes the live source-level variables
  (as :class:`Variable` records wrapping the actual NumPy backing
  stores) so the Flip-script can corrupt real state and execution then
  resumes on the corrupted store — propagation is computed, never
  simulated from a table;
* :meth:`Benchmark.output` extracts the final output for golden
  comparison.

Scalars that matter (loop bounds, sizes, counters) are stored in small
integer arrays that the step functions genuinely read, so corrupting
them produces wrong regions, crashes, or hangs organically.
"""

from __future__ import annotations

import abc
import struct
from collections.abc import Sequence
from dataclasses import dataclass, fields, is_dataclass
from typing import Any

import numpy as np

from repro.telemetry import current_registry

__all__ = [
    "Benchmark",
    "BenchmarkError",
    "BenchmarkHang",
    "PointerTable",
    "SegmentationFault",
    "SimulationAborted",
    "Variable",
    "bounded_range",
    "checked_index",
    "clone_state",
    "state_nbytes",
    "states_equal",
    "window_of_step",
]

#: Hard iteration cap used by every internal data-dependent loop.  Real
#: code would spin forever on a corrupted loop variable; we convert that
#: into a deterministic :class:`BenchmarkHang`, which every run loop
#: classifies as a DUE (timeout).
MAX_LOOP_ITERATIONS = 100_000


def _count_guard_trip(guard: str) -> None:
    """Count one hang-guard trip (no-op when telemetry is disabled)."""
    current_registry().counter(
        "repro_guard_trips_total",
        help="Hang-guard trips converted into BenchmarkHang, by guard.",
    ).inc(guard=guard)


def window_of_step(step: int, total_steps: int, num_windows: int) -> int:
    """Execution-time window (0-based) a step falls into.

    Module-level so code that only knows a benchmark's metadata (e.g.
    a DUE record synthesised for a run whose worker process was
    killed) windows steps identically to the live
    :meth:`Benchmark.window_of_step`.
    """
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    step = min(max(step, 0), total_steps - 1)
    return min(num_windows - 1, step * num_windows // total_steps)


def clone_state(obj: Any) -> Any:
    """Bit-exact deep copy of a benchmark state tree.

    The snapshot/restore protocol (:meth:`Benchmark.snapshot` /
    :meth:`Benchmark.restore`) rests on this being *exact*: the fault
    models flip bits of existing values, so a restored prefix must be
    indistinguishable — down to the last mantissa bit — from one that
    was recomputed from step 0.  NumPy arrays are copied, immutable
    scalars shared, containers and state dataclasses rebuilt
    recursively, and any object exposing a ``clone()`` method (e.g.
    :class:`PointerTable`, CLAMR's ``AmrMesh``) delegates to it.  An
    unrecognised type is a hard error: silently sharing mutable state
    between runs would corrupt every later injection.
    """
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if obj is None or isinstance(obj, (bool, int, float, complex, str, bytes)):
        return obj
    clone = getattr(obj, "clone", None)
    if callable(clone):
        return clone()
    if is_dataclass(obj) and not isinstance(obj, type):
        return type(obj)(**{f.name: clone_state(getattr(obj, f.name)) for f in fields(obj)})
    if isinstance(obj, dict):
        return {key: clone_state(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(clone_state(value) for value in obj)
    raise TypeError(
        f"cannot snapshot state component of type {type(obj).__name__}; "
        "give it a clone() method or use arrays/dataclasses/containers"
    )


def states_equal(a: Any, b: Any) -> bool:
    """Are two benchmark state trees bit-identical?

    The traversal mirrors :func:`clone_state`.  Arrays compare by
    dtype, shape and raw bytes, so NaN payloads and the sign of zero
    count; immutable scalars by type and value (floats by their bits);
    dataclasses, dicts, lists and tuples structurally; ``clone()``-able
    objects by their attributes.  Read-only views compare like the
    arrays they mirror.  An unrecognised
    type raises :class:`TypeError`, as in :func:`clone_state`; so does
    an object-dtype array, whose bytes are references, not values.
    """
    if isinstance(a, np.ndarray):
        if a.dtype.hasobject:
            raise TypeError("cannot compare object-dtype arrays by their bytes")
        return (
            isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if a is None or isinstance(a, (bool, int, float, complex, str, bytes)):
        if type(a) is not type(b):
            return False
        if isinstance(a, (float, complex)):
            return struct.pack("<2d", a.real, a.imag) == struct.pack("<2d", b.real, b.imag)
        return bool(a == b)
    if type(a) is not type(b):
        return False
    if callable(getattr(a, "clone", None)):
        return states_equal(vars(a), vars(b))
    if is_dataclass(a) and not isinstance(a, type):
        return all(states_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(states_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(states_equal(x, y) for x, y in zip(a, b))
    raise TypeError(
        f"cannot compare state component of type {type(a).__name__}; "
        "give it a clone() method or use arrays/dataclasses/containers"
    )


def state_nbytes(obj: Any) -> int:
    """Approximate heap footprint of a state tree (array bytes only).

    Used by the prefix-snapshot store to enforce its byte budget; the
    traversal mirrors :func:`clone_state`, falling back to an object's
    ``__dict__`` where no cheaper structure is known.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if obj is None or isinstance(obj, (bool, int, float, complex, str, bytes)):
        return 0
    if is_dataclass(obj) and not isinstance(obj, type):
        return sum(state_nbytes(getattr(obj, f.name)) for f in fields(obj))
    if isinstance(obj, dict):
        return sum(state_nbytes(value) for value in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(state_nbytes(value) for value in obj)
    if hasattr(obj, "__dict__"):
        return sum(state_nbytes(value) for value in vars(obj).values())
    return 0


class BenchmarkError(RuntimeError):
    """Base class for in-benchmark failures (classified as DUE-crash)."""


class BenchmarkHang(BenchmarkError):
    """A data-dependent loop exceeded its iteration budget (hang)."""


class SimulationAborted(BenchmarkError):
    """The benchmark's own sanity checks aborted the run (e.g. CFL)."""


class SegmentationFault(BenchmarkError):
    """A corrupted pointer was dereferenced outside its allocation."""


class PointerTable:
    """Pointer variables for a benchmark's major heap allocations.

    In the paper's C benchmarks, the arrays are reached through pointer
    variables that live on the stack and are fully visible to GDB's
    frame walk — and a corrupted pointer is one of the main ways a
    high-level fault becomes a DUE.  This table models them: each named
    array gets a fake 64-bit base address in :attr:`addresses` (the
    injectable backing store).  :meth:`resolve` re-derives the array
    through its pointer every step:

    * untouched pointer — the array itself, zero cost;
    * corrupted to an address outside the allocation (high-bit flips,
      Random, the Zero/null pointer) — :class:`SegmentationFault`;
    * corrupted but still inside the allocation (low-bit flips) — a
      misaligned read: the byte stream shifted by the offset, i.e.
      garbage values, which propagate as SDCs.
    """

    _PAGE = 1 << 12
    _HEAP_BASE = 0x7F32_0000_0000

    def __init__(self, arrays: dict[str, np.ndarray]):
        if not arrays:
            raise ValueError("pointer table needs at least one array")
        self.names = list(arrays)
        self._sizes = {name: int(arr.nbytes) for name, arr in arrays.items()}
        addresses = []
        cursor = self._HEAP_BASE
        for name in self.names:
            addresses.append(cursor)
            span = self._sizes[name] + self._PAGE
            cursor += span + (-span) % self._PAGE
        self.addresses = np.array(addresses, dtype=np.int64)
        self._orig = self.addresses.copy()

    def clone(self) -> "PointerTable":
        """Independent copy (same fake addresses, separate backing stores).

        ``__init__`` re-derives addresses from sizes, which would be
        correct here but wasteful; more importantly a clone must also
        preserve *corrupted* ``addresses`` values bit-for-bit, which
        re-derivation would silently repair.
        """
        dup = object.__new__(PointerTable)
        dup.names = list(self.names)
        dup._sizes = dict(self._sizes)
        dup.addresses = self.addresses.copy()
        dup._orig = self._orig.copy()
        return dup

    def resolve(self, name: str, arr: np.ndarray) -> np.ndarray:
        """Dereference ``name``'s pointer against its backing array."""
        slot = self.names.index(name)
        addr = int(self.addresses[slot])
        orig = int(self._orig[slot])
        if addr == orig:
            return arr
        offset = addr - orig
        if not 0 <= offset < self._sizes[name]:
            raise SegmentationFault(
                f"dereference of {name} at {addr:#x} outside its allocation"
            )
        flat = arr.reshape(-1).view(np.uint8)
        shifted = np.roll(flat, -offset)
        return shifted.view(arr.dtype).reshape(arr.shape)


def bounded_range(start: int, stop: int, step: int = 1) -> range:
    """A ``range`` with a hang guard.

    Mirrors a ``for`` loop whose bounds live in (corruptible) memory: a
    corrupted ``step`` of zero or an absurd trip count raises
    :class:`BenchmarkHang` instead of spinning.
    """
    start, stop, step = int(start), int(stop), int(step)
    if step == 0:
        _count_guard_trip("loop_step_zero")
        raise BenchmarkHang("loop step corrupted to zero")
    trip = max(0, (stop - start + (step - (1 if step > 0 else -1))) // step)
    if trip > MAX_LOOP_ITERATIONS:
        _count_guard_trip("trip_budget")
        raise BenchmarkHang(f"loop trip count {trip} exceeds budget")
    return range(start, stop, step)


def checked_index(index: int, size: int, what: str = "index") -> int:
    """Validate an index exactly like hardware bounds checking would.

    Negative wrap-around is *not* allowed: corrupted indices must fail
    the way a segfaulting C program fails rather than silently aliasing
    Python's negative indexing.
    """
    index = int(index)
    if not 0 <= index < size:
        raise IndexError(f"{what} {index} out of bounds for size {size}")
    return index


@dataclass(frozen=True)
class Variable:
    """One live, injectable source-level variable.

    ``array`` is the *actual backing store* of the benchmark state; any
    in-place mutation is visible to subsequent steps.
    """

    name: str
    array: np.ndarray
    frame: str
    var_class: str

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    @property
    def size(self) -> int:
        return int(self.array.size)


class Benchmark(abc.ABC):
    """Abstract stepped benchmark."""

    #: Registry key and display name ("dgemm", "hotspot", ...).
    name: str = ""

    #: Dimensionality of the output for spatial-pattern classification
    #: (1, 2 or 3); LavaMD is the only 3-D benchmark in the paper.
    output_dims: int = 2

    #: Number of execution-time windows the paper divides this
    #: benchmark into for Figure 6 (CLAMR 9, DGEMM/HotSpot 5, LUD/NW 4).
    num_windows: int = 5

    #: Whether the output is floating point (enables relative-error
    #: tolerance sweeps; NW is integer-valued).
    float_output: bool = True

    #: Decimal places kept when the output file is written (Rodinia's
    #: printf-style output) — golden comparison happens at this
    #: precision, so perturbations below it are masked.  ``None``
    #: compares exactly (integer outputs).  See :meth:`quantize`.
    output_decimals: int | None = 4

    #: Fraction of the injectable memory image occupied by stack-side
    #: state (control variables, constants, pointers) once per-thread
    #: replication is accounted for — the paper's "each of the 228
    #: threads allocates those nine integers" argument.  Used by the
    #: Flip-script's WEIGHTED site policy.
    stack_share: float = 0.25

    #: Whether this benchmark implements the vectorized batch protocol
    #: (:meth:`step_batch` / :meth:`batch_coherent`).  ``False`` keeps
    #: every run on the scalar :meth:`step` path; the batch runner then
    #: falls back run by run, so correctness never depends on this flag.
    supports_batching: bool = False

    def __init__(self, **params: Any):
        defaults = dict(self.default_params())
        unknown = set(params) - set(defaults)
        if unknown:
            raise TypeError(f"{type(self).__name__} got unknown params: {sorted(unknown)}")
        defaults.update(params)
        self.params: dict[str, Any] = defaults

    # -- required interface -------------------------------------------------

    @classmethod
    @abc.abstractmethod
    def default_params(cls) -> dict[str, Any]:
        """Default (scaled-down) problem parameters."""

    @classmethod
    def paper_scale_params(cls) -> dict[str, Any]:
        """Parameters in the size class of the irradiated runs.

        For reference and scaling studies only: a single golden run at
        this size takes seconds to minutes in Python, so campaigns use
        :meth:`default_params`.  FIT bookkeeping is size-independent
        (cross-section x exposure), which is why the scaled-down
        campaigns remain meaningful.
        """
        return cls.default_params()

    @abc.abstractmethod
    def make_state(self, rng: np.random.Generator) -> Any:
        """Allocate inputs and working state for one execution."""

    @abc.abstractmethod
    def num_steps(self, state: Any) -> int:
        """Number of scheduling quanta in one execution of ``state``."""

    @abc.abstractmethod
    def step(self, state: Any, index: int) -> None:
        """Advance the computation by one quantum (may raise on corrupt state)."""

    @abc.abstractmethod
    def output(self, state: Any) -> np.ndarray:
        """Final output array (a copy, shaped with ``output_dims`` axes)."""

    @abc.abstractmethod
    def variables(self, state: Any, step: int) -> list[Variable]:
        """Live injectable variables just before ``step`` executes."""

    # -- shared behaviour ---------------------------------------------------

    def quantize(self, output: np.ndarray) -> np.ndarray:
        """``output`` rounded to the precision its output file carries.

        The paper's campaigns diff *printed* output files, so an error
        below the printf precision (:attr:`output_decimals`) never
        counts as a mismatch.
        """
        if self.output_decimals is None:
            return output
        with np.errstate(invalid="ignore", over="ignore"):
            return np.round(output, self.output_decimals)

    def run(self, state: Any) -> np.ndarray:
        """Run ``state`` to completion and return the output."""
        for index in range(self.num_steps(state)):
            self.step(state, index)
        return self.output(state)

    # -- vectorized batch protocol ------------------------------------------

    def batch_coherent(self, state: Any, golden: Any, index: int) -> bool:
        """May ``state`` take step ``index`` on the vectorized batch path?

        ``golden`` is an uncorrupted state at the entry of the same step.
        An implementation returns True only when every value *any
        remaining step's control flow* consumes (loop bounds, cursors,
        dimensions, pointers, indices) matches the golden execution —
        data values are free to differ, that is what the batch computes.
        The contract is one-sided: a False merely routes the run to the
        bit-identical scalar fallback, so implementations must be
        strict, never clever.  The default refuses everything.

        The check runs **once**, at the member's injection step, never
        again: :meth:`step_batch` must not derive control state from
        member data, so a state coherent at injection stays on the
        golden control trajectory for the rest of the run.
        """
        return False

    def step_batch(self, states: Sequence[Any], index: int, carry: Any = None) -> Any:
        """Advance every state in ``states`` by step ``index`` at once.

        All states must have passed :meth:`batch_coherent` against the
        same golden state at this step, so their control flow is the
        shared golden trajectory and only data differs; implementations
        stack the data arrays along a leading batch axis and execute the
        step's arithmetic once.  The post-step *outputs and control
        state* of each member must be bit-identical to what a scalar
        :meth:`step` would have produced; pure scratch buffers that no
        later step reads before overwriting are exempt.  Only called
        when :attr:`supports_batching` is True.

        Returns an opaque *carry*.  A caller stepping the same batch
        repeatedly may pass the previous call's carry back — legal only
        when it came from the same ``states`` (same objects, same
        order) at step ``index - 1`` — and the implementation may then
        keep member data *and evolving control state* inside the carry
        instead of writing every state back each step.  Member states
        may therefore be arbitrarily stale while a carry is live; the
        one obligation is that :meth:`batch_flush` restores full
        bit-exact member states.  Callers must flush before reading
        anything from a member state and must never reuse a carry
        across a membership change.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support batching")

    def batch_flush(self, states: Sequence[Any], carry: Any) -> None:
        """Write state held in ``carry`` back into ``states``.

        After this, every state — data and control alike — is
        bit-identical to what the scalar path would hold (scratch
        exemption aside).  The default is a no-op for implementations
        whose ``step_batch`` writes members back eagerly (returns no
        carry).
        """

    def snapshot(self, state: Any) -> Any:
        """Frozen, bit-exact copy of ``state`` for later :meth:`restore`.

        The default deep-copies via :func:`clone_state`, which covers
        every benchmark in the suite (states are dataclasses of NumPy
        arrays plus ``clone()``-able helpers).  A benchmark whose state
        holds resources that cannot be cloned generically overrides
        this pair.
        """
        return clone_state(state)

    def restore(self, snapshot: Any) -> Any:
        """Fresh mutable state from a :meth:`snapshot`.

        Returns a *new* deep copy every call — the snapshot itself stays
        pristine, so one captured prefix can seed any number of injected
        executions.
        """
        return clone_state(snapshot)

    def golden(self, rng: np.random.Generator) -> np.ndarray:
        """Fault-free reference output for the inputs drawn from ``rng``."""
        return self.run(self.make_state(rng))

    def frames(self, state: Any, step: int) -> list[str]:
        """Distinct frame names alive at ``step`` (the GDB call stack)."""
        seen: list[str] = []
        for var in self.variables(state, step):
            if var.frame not in seen:
                seen.append(var.frame)
        return seen

    def window_of_step(self, step: int, total_steps: int) -> int:
        """Execution-time window (0-based) a step falls into."""
        return window_of_step(step, total_steps, self.num_windows)

    def describe(self) -> dict[str, Any]:
        """Static metadata used by campaign logs and reports."""
        return {
            "name": self.name,
            "output_dims": self.output_dims,
            "num_windows": self.num_windows,
            "float_output": self.float_output,
            "params": dict(self.params),
        }
