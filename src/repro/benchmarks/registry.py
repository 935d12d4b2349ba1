"""Benchmark registry.

Maps the paper's benchmark names to their implementations and records
which subsets each experiment uses: the beam campaign covers five
benchmarks (NW "was only tested with our fault injection"), the
injection campaign covers all six, and Figure 6's time-window analysis
omits LavaMD.
"""

from __future__ import annotations

from typing import Any

from repro.benchmarks.base import Benchmark
from repro.benchmarks.chaos import Chaos
from repro.benchmarks.clamr import Clamr
from repro.benchmarks.dgemm import Dgemm
from repro.benchmarks.hotspot import HotSpot
from repro.benchmarks.lavamd import LavaMD
from repro.benchmarks.lud import Lud
from repro.benchmarks.nw import NeedlemanWunsch

__all__ = [
    "AUX_BENCHMARKS",
    "BEAM_BENCHMARKS",
    "BENCHMARKS",
    "INJECTION_BENCHMARKS",
    "TIME_WINDOW_BENCHMARKS",
    "create",
    "names",
]

BENCHMARKS: dict[str, type[Benchmark]] = {
    cls.name: cls
    for cls in (Clamr, Dgemm, HotSpot, LavaMD, Lud, NeedlemanWunsch)
}

#: Auxiliary benchmarks that are instantiable by name (campaign worker
#: subprocesses create benchmarks by name, so they must be registered)
#: but are *not* part of the paper's study: ``chaos`` exists to validate
#: subprocess isolation with failure modes that escape the in-process
#: Supervisor (hard exits, guard-free spins, unbounded allocation).
AUX_BENCHMARKS: dict[str, type[Benchmark]] = {Chaos.name: Chaos}

#: Benchmarks irradiated at LANSCE (Figure 2 / Figure 3).
BEAM_BENCHMARKS: tuple[str, ...] = ("clamr", "dgemm", "hotspot", "lavamd", "lud")

#: Benchmarks in the CAROL-FI campaign (Figures 4-6).
INJECTION_BENCHMARKS: tuple[str, ...] = (
    "clamr",
    "dgemm",
    "hotspot",
    "lavamd",
    "lud",
    "nw",
)

#: Benchmarks shown in the time-window PVF plots (Figure 6).
TIME_WINDOW_BENCHMARKS: tuple[str, ...] = ("clamr", "dgemm", "hotspot", "lud", "nw")


def names() -> tuple[str, ...]:
    """All paper benchmark names, sorted (auxiliary benchmarks excluded)."""
    return tuple(sorted(BENCHMARKS))


def create(name: str, **params: Any) -> Benchmark:
    """Instantiate a benchmark (paper or auxiliary) by name."""
    cls = BENCHMARKS.get(name) or AUX_BENCHMARKS.get(name)
    if cls is None:
        known = sorted(BENCHMARKS) + sorted(AUX_BENCHMARKS)
        raise KeyError(f"unknown benchmark {name!r}; known: {known}")
    return cls(**params)
