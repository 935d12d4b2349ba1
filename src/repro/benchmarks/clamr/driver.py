"""CLAMR benchmark driver — the stepped, injectable wrapper.

Each simulated timestep runs as six scheduling phases, exposing the
pipeline artifacts the paper's criticality analysis names exactly while
they are live-and-pending-consumption (GDB only sees an allocation
while its owning call chain is active):

===== ===================== =========================================
phase work                  artifacts pending at phase *entry*
===== ===================== =========================================
0     compute sort keys     —
1     gather reorder        sort permutation (``Sort`` portion)
2     commit + tree build   reorder buffers (``Sort`` portion)
3     neighbour queries     K-D tree arrays (``Tree`` portion)
4     CFL + flux update     neighbour table (``Tree`` portion)
5     refine / coarsen      neighbour table (``Tree`` portion)
===== ===================== =========================================

The mesh arrays themselves (the paper's "others" mesh portion), the
cell counter, and the physics constants are visible at every phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.benchmarks.base import Benchmark, Variable
from repro.benchmarks.clamr.kdtree import KdTree
from repro.benchmarks.clamr.mesh import AmrMesh
from repro.benchmarks.clamr.shallow import cfl_dt, find_face_neighbors, flux_update
from repro.benchmarks.clamr.sort import (
    commit_reorder,
    compute_sort_permutation,
    gather_reorder_buffers,
)

__all__ = ["Clamr", "ClamrState"]

_PHASES = 6


@dataclass
class ClamrState:
    """Live state of one CLAMR execution."""

    mesh: AmrMesh
    consts: np.ndarray  # float64 [g, courant, refine_hi, coarsen_lo, h_floor]
    perm: np.ndarray | None = None
    reorder: dict[str, np.ndarray] | None = None
    tree: KdTree | None = None
    nbrs: np.ndarray | None = None


class Clamr(Benchmark):
    """Adaptive-mesh shallow-water wave propagation."""

    name = "clamr"
    output_dims = 2
    num_windows = 9
    float_output = True
    output_decimals = 4
    # The mesh arrays dominate CLAMR's image; only the cell counter and
    # physics constants live on the stack side.
    stack_share = 0.10

    @classmethod
    def default_params(cls) -> dict[str, Any]:
        return {
            "base": 8,
            "max_level": 2,
            "capacity": 1200,
            "timesteps": 9,
            "leaf_size": 8,
            "g": 9.8,
            "courant": 0.25,
            "refine_hi": 1.0,
            "coarsen_lo": 0.10,
            "h_floor": 1e-6,
        }

    @classmethod
    def paper_scale_params(cls) -> dict[str, Any]:
        # The LANL wave-propagation class: a 128x128 base grid refined
        # two levels over hundreds of timesteps.
        params = dict(cls.default_params())
        params.update({"base": 128, "capacity": 300_000, "timesteps": 500})
        return params

    def __init__(self, **params: Any):
        super().__init__(**params)
        if self.params["timesteps"] < 1:
            raise ValueError("timesteps must be positive")

    def make_state(self, rng: np.random.Generator) -> ClamrState:
        p = self.params
        mesh = AmrMesh(p["base"], p["max_level"], p["capacity"])
        # Dynamically generated dataset: jitter the dam-break column so
        # each campaign input differs, like the paper's generated inputs.
        radius = 0.20 + 0.04 * float(rng.random())
        h_in = 9.0 + 2.0 * float(rng.random())
        mesh.init_dam_break(h_inside=h_in, h_outside=2.0, radius=radius)
        consts = np.array(
            [p["g"], p["courant"], p["refine_hi"], p["coarsen_lo"], p["h_floor"]]
        )
        return ClamrState(mesh=mesh, consts=consts)

    def num_steps(self, state: ClamrState) -> int:
        return self.params["timesteps"] * _PHASES

    # -- phases ---------------------------------------------------------------

    def step(self, state: ClamrState, index: int) -> None:
        phase = index % _PHASES
        mesh = state.mesh
        if phase == 0:
            state.perm = compute_sort_permutation(mesh)
        elif phase == 1:
            if state.perm is None:  # pragma: no cover - driver invariant
                raise RuntimeError("sort phase did not run")
            state.reorder = gather_reorder_buffers(mesh, state.perm)
            state.perm = None
        elif phase == 2:
            if state.reorder is None:  # pragma: no cover - driver invariant
                raise RuntimeError("gather phase did not run")
            commit_reorder(mesh, state.reorder)
            state.reorder = None
            n = mesh.live()
            state.tree = KdTree.build(
                mesh.x[:n], mesh.y[:n], leaf_size=self.params["leaf_size"]
            )
        elif phase == 3:
            if state.tree is None:  # pragma: no cover - driver invariant
                raise RuntimeError("tree phase did not run")
            state.nbrs = find_face_neighbors(mesh, state.tree)
            state.tree = None
        elif phase == 4:
            g, courant = float(state.consts[0]), float(state.consts[1])
            h_floor = float(state.consts[4])
            dt = cfl_dt(mesh, g, courant)
            self._check_nbrs(state)
            flux_update(mesh, state.nbrs, dt, g, h_floor)
        else:
            self._adapt(state)

    def _check_nbrs(self, state: ClamrState) -> None:
        if state.nbrs is None:  # pragma: no cover - driver invariant
            raise RuntimeError("neighbour phase did not run")
        n = state.mesh.live()
        if state.nbrs.shape != (4, n):
            raise IndexError("neighbour table does not match live mesh")

    def _adapt(self, state: ClamrState) -> None:
        """Refine steep cells, coarsen quiet sibling quartets."""
        mesh = state.mesh
        self._check_nbrs(state)
        n = mesh.live()
        refine_hi = float(state.consts[2])
        coarsen_lo = float(state.consts[3])
        h = mesh.h[:n]
        nbrs = state.nbrs
        if np.any(nbrs >= n):
            raise IndexError("corrupted neighbour index beyond live cells")
        # All four faces at once: the (4, n) steepness table, then its
        # maximum over faces from zero (NaN propagates, as it must).
        boundary = nbrs < 0
        with np.errstate(invalid="ignore", over="ignore"):
            hj = h.take(np.where(boundary, 0, nbrs), mode="raise")
            diff = np.where(boundary, 0.0, np.abs(hj - h))
            indicator = diff.max(axis=0, initial=0.0)
        refine_mask = (indicator > refine_hi) & (mesh.lev[:n] < mesh.max_level)
        created = mesh.refine(np.flatnonzero(refine_mask))
        quiet = np.concatenate(
            [
                (indicator < coarsen_lo) & ~refine_mask,
                np.zeros(created, dtype=bool),
            ]
        )
        mesh.coarsen(quiet)
        state.nbrs = None

    def output(self, state: ClamrState) -> np.ndarray:
        return state.mesh.sample_grid()

    # -- injection surface ------------------------------------------------------

    def variables(self, state: ClamrState, step: int) -> list[Variable]:
        mesh = state.mesh
        variables = [
            Variable("cell_x", mesh.x, frame="mesh", var_class="others"),
            Variable("cell_y", mesh.y, frame="mesh", var_class="others"),
            Variable("cell_lev", mesh.lev, frame="mesh", var_class="others"),
            Variable("cell_h", mesh.h, frame="mesh", var_class="others"),
            Variable("cell_hu", mesh.hu, frame="mesh", var_class="others"),
            Variable("cell_hv", mesh.hv, frame="mesh", var_class="others"),
            Variable("cell_parent", mesh.parent, frame="mesh", var_class="others"),
            Variable("cell_slot", mesh.slot, frame="mesh", var_class="others"),
            Variable("ncells", mesh.ncells, frame="mesh", var_class="control"),
            Variable("consts", state.consts, frame="main", var_class="constant"),
        ]
        if state.perm is not None:
            variables.append(Variable("sort_perm", state.perm, frame="sort", var_class="sort"))
        if state.reorder is not None:
            for field_name, arr in state.reorder.items():
                variables.append(
                    Variable(f"reorder_{field_name}", arr, frame="sort", var_class="sort")
                )
        if state.tree is not None:
            for name, arr in state.tree.variables().items():
                variables.append(Variable(name, arr, frame="tree", var_class="tree"))
        if state.nbrs is not None:
            variables.append(Variable("nbr_table", state.nbrs, frame="tree", var_class="tree"))
        return variables
