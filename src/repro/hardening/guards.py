"""Runtime variable guards for hardened execution.

The evaluation in :mod:`repro.hardening.evaluate` is analytical; this
module provides the *executable* counterparts used by the hardened
campaigns (:mod:`repro.hardening.hardened`): small check objects
attached to live benchmark variables, verified between scheduling
quanta and re-synced after every legitimate step.

Three guard kinds cover the paper's software techniques:

* ``DWC`` — a bitwise shadow copy (duplication with comparison):
  detects every corruption of the protected store;
* ``PARITY`` — one parity bit per word: detects odd-multiplicity
  corruption, misses even (the Double model);
* ``CHECKSUM`` — float row/column sums, the software analogue of the
  residue check for floating-point data (a residue code proper needs
  integer arithmetic): detects any value change outside float
  cancellation corner cases.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from repro.benchmarks.base import Variable
from repro.faults.site import FaultSite
from repro.hardening.parity import word_parity

__all__ = [
    "DetectorEvent",
    "FaultDetected",
    "GuardKind",
    "VariableGuard",
    "attach_observer",
    "build_guards",
    "sync_guards",
]


class FaultDetected(RuntimeError):
    """A guard found its protected variable corrupted."""

    def __init__(self, variable: str, kind: "GuardKind"):
        super().__init__(f"{kind.value} guard tripped on {variable!r}")
        self.variable = variable
        self.kind = kind
        #: The injected fault's site, which the hardened run that
        #: tripped the guard records.
        self.site: FaultSite | None = None


class GuardKind(str, enum.Enum):
    """Which detector protects a variable."""

    DWC = "dwc"
    PARITY = "parity"
    CHECKSUM = "checksum"


@dataclass(frozen=True)
class DetectorEvent:
    """One detector-state transition, reported to an observer.

    ``HardenedSupervisor(detector_observer=...)`` taps these to check
    that a resumed run trips its detectors exactly as a full replay
    does.  ``action`` is ``"trip"`` when a guard found its store
    corrupted (a :class:`FaultDetected` follows immediately).
    """

    variable: str
    kind: str
    action: str


@dataclass
class VariableGuard:
    """One protected variable's runtime check state."""

    name: str
    kind: GuardKind
    observer: Callable[[DetectorEvent], None] | None = None
    """Optional hook fired on every detector trip, just before the
    :class:`FaultDetected` raise.  Pure observation: attaching one never
    changes control flow or the guarded execution's records."""

    _shadow: np.ndarray | None = None
    _parity: np.ndarray | None = None
    _checksum: float | None = None

    def detach(self) -> None:
        """Forget the protected store (it was freed / re-allocated)."""
        self._shadow = None
        self._parity = None
        self._checksum = None

    def resync(self, array: np.ndarray) -> None:
        """Capture the store's current (trusted) state after a step."""
        if self.kind is GuardKind.DWC:
            self._shadow = np.array(array, copy=True)
        elif self.kind is GuardKind.PARITY:
            self._parity = word_parity(array)
        else:
            with np.errstate(invalid="ignore", over="ignore"):
                self._checksum = float(np.asarray(array, dtype=np.float64).sum())

    def clean(self, array: np.ndarray) -> bool:
        """Whether the store still matches the captured state."""
        if self.kind is GuardKind.DWC:
            if self._shadow is None:
                return True
            return bool(
                np.array_equal(
                    array.reshape(-1).view(np.uint8),
                    self._shadow.reshape(-1).view(np.uint8),
                )
            )
        if self.kind is GuardKind.PARITY:
            if self._parity is None:
                return True
            return bool(np.array_equal(word_parity(array), self._parity))
        if self._checksum is None:
            return True
        with np.errstate(invalid="ignore", over="ignore"):
            now = float(np.asarray(array, dtype=np.float64).sum())
        if np.isnan(now) or np.isnan(self._checksum):
            return np.isnan(now) and np.isnan(self._checksum)
        return now == self._checksum

    def verify(self, array: np.ndarray) -> None:
        if not self.clean(array):
            if self.observer is not None:
                self.observer(DetectorEvent(self.name, self.kind.value, "trip"))
            raise FaultDetected(self.name, self.kind)

    @property
    def overhead_bytes(self) -> int:
        """Extra state this guard keeps resident."""
        if self.kind is GuardKind.DWC and self._shadow is not None:
            return int(self._shadow.nbytes)
        if self.kind is GuardKind.PARITY and self._parity is not None:
            return int(self._parity.nbytes) // 8 or 1
        return 8


#: Per-benchmark guard assignment, following the paper's Section 6.1
#: recommendations at variable granularity.
GUARD_SPECS: dict[str, dict[str, GuardKind]] = {
    "dgemm": {
        "thread_ctl": GuardKind.DWC,
        "dims": GuardKind.DWC,
        "operand_ptrs": GuardKind.DWC,
        "a": GuardKind.CHECKSUM,
        "b": GuardKind.CHECKSUM,
    },
    "lud": {
        "block_ctl": GuardKind.DWC,
        "matrix_ptr": GuardKind.DWC,
        "matrix": GuardKind.CHECKSUM,
    },
    "hotspot": {
        "consts": GuardKind.DWC,
        "grid_ctl": GuardKind.DWC,
        "grid_ptrs": GuardKind.DWC,
    },
    "nw": {
        "score": GuardKind.PARITY,
        "blosum": GuardKind.PARITY,
        "dp_ctl": GuardKind.DWC,
        "dp_ptrs": GuardKind.DWC,
    },
    "lavamd": {
        "box_nei": GuardKind.DWC,
        "box_ctl": GuardKind.DWC,
        "particle_ptrs": GuardKind.DWC,
        "alpha": GuardKind.DWC,
    },
    "clamr": {
        # The paper's CLAMR recommendation: protect the Sort and Tree
        # operations.  Guarding their pipeline artifacts between
        # production and consumption is the detection-equivalent of
        # recomputing those functions redundantly.
        "ncells": GuardKind.DWC,
        "consts": GuardKind.DWC,
        "sort_perm": GuardKind.DWC,
        "nbr_table": GuardKind.DWC,
        "tree_split_dim": GuardKind.DWC,
        "tree_split_val": GuardKind.DWC,
        "tree_left": GuardKind.DWC,
        "tree_right": GuardKind.DWC,
        "tree_leaf_lo": GuardKind.DWC,
        "tree_leaf_hi": GuardKind.DWC,
        "tree_perm": GuardKind.DWC,
        "tree_n_nodes": GuardKind.DWC,
        **{f"reorder_{f}": GuardKind.DWC
           for f in ("x", "y", "h", "hu", "hv", "lev", "parent", "slot")},
    },
}


def build_guards(benchmark_name: str) -> dict[str, VariableGuard]:
    """Instantiate the recommended guard set for one benchmark."""
    spec = GUARD_SPECS.get(benchmark_name, {})
    return {name: VariableGuard(name, kind) for name, kind in spec.items()}


def attach_observer(
    guards: dict[str, VariableGuard],
    observer: Callable[[DetectorEvent], None],
) -> None:
    """Wire one observer into every guard of a :func:`build_guards` set."""
    for guard in guards.values():
        guard.observer = observer


def sync_guards(guards: dict[str, VariableGuard], variables: Iterable[Variable]) -> None:
    """Resync every guard whose variable is live, detach the rest.

    Applied to the variables live at the entry of step ``k`` of a
    fault-free execution, this *is* the guard state that walking the
    golden prefix to ``k`` leaves behind: ``resync`` is a pure function
    of the store's contents, and ``verify`` never trips on golden data.
    """
    arrays = {v.name: v.array for v in variables}
    for name, guard in guards.items():
        if name in arrays:
            guard.resync(arrays[name])
        else:
            # Not live here (never allocated yet, or consumed/freed): a
            # later allocation under the same name is a different store
            # and must re-attach fresh.
            guard.detach()
