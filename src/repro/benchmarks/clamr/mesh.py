"""Adaptive cell mesh for CLAMR.

Cells tile the unit square.  A base ``base x base`` grid refines by
quadrisection up to ``max_level``; each cell stores its centre, level,
and conserved shallow-water state (height ``h`` and momenta ``hu``,
``hv``).  Storage is capacity-bounded flat arrays with a live prefix of
``ncells`` entries — the layout a C mini-app would malloc once — so the
injector corrupts real backing stores and out-of-capacity refinement is
a hard error, not a silent realloc.

Refinement, coarsening and painting are array operations over all
cells at once.  Refinement and painting keep their per-cell loops for
inputs only corruption produces: a repeated, out-of-range or
negative-level refine target, too little room or too few parent ids
for the whole list, and a non-finite or huge cell centre.  There a
refine raises at the first failing cell, after writing the cells
before it, and a paint raises where ``int(round(...))`` does or clamps
integers beyond int64, none of which a one-shot write reproduces.
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import SimulationAborted, checked_index

__all__ = ["AmrMesh"]

#: Child centre offsets in quarters of the parent's edge, by slot.
_CHILD_DX = np.array([[-1.0], [1.0], [-1.0], [1.0]])
_CHILD_DY = np.array([[-1.0], [-1.0], [1.0], [1.0]])

#: Scaled paint corners below this magnitude round to integers that
#: int64 holds exactly; larger ones are painted cell by cell.
_EXACT = 2.0**52


class AmrMesh:
    """Capacity-bounded adaptive quad mesh on the unit square."""

    def __init__(self, base: int, max_level: int, capacity: int):
        if base < 2:
            raise ValueError("base grid must be at least 2x2")
        if max_level < 0:
            raise ValueError("max_level must be non-negative")
        if capacity < base * base:
            raise ValueError("capacity below base grid size")
        self.base = base
        self.max_level = max_level
        self.capacity = capacity
        self.x = np.zeros(capacity)
        self.y = np.zeros(capacity)
        self.lev = np.zeros(capacity, dtype=np.int32)
        self.h = np.zeros(capacity)
        self.hu = np.zeros(capacity)
        self.hv = np.zeros(capacity)
        self.parent = np.full(capacity, -1, dtype=np.int64)
        self.slot = np.zeros(capacity, dtype=np.int8)
        self.ncells = np.array(0, dtype=np.int64)
        self.next_parent = np.array(0, dtype=np.int64)

    def clone(self) -> "AmrMesh":
        """Bit-exact copy for the snapshot/restore protocol.

        Bypasses ``__init__`` deliberately: construction validates and
        zero-fills, while a clone must reproduce the live (possibly
        corrupted) arrays and counters exactly as they are.
        """
        dup = object.__new__(AmrMesh)
        dup.base = self.base
        dup.max_level = self.max_level
        dup.capacity = self.capacity
        for name in ("x", "y", "lev", "h", "hu", "hv", "parent", "slot",
                     "ncells", "next_parent"):
            setattr(dup, name, getattr(self, name).copy())
        return dup

    # -- construction --------------------------------------------------------

    def init_dam_break(self, h_inside: float = 10.0, h_outside: float = 2.0,
                       radius: float = 0.22) -> None:
        """Circular dam-break initial condition centred on the domain."""
        base = self.base
        idx = np.arange(base)
        cx, cy = np.meshgrid((idx + 0.5) / base, (idx + 0.5) / base, indexing="ij")
        n = base * base
        self.x[:n] = cx.ravel()
        self.y[:n] = cy.ravel()
        self.lev[:n] = 0
        r = np.hypot(self.x[:n] - 0.5, self.y[:n] - 0.5)
        self.h[:n] = np.where(r < radius, h_inside, h_outside)
        self.hu[:n] = 0.0
        self.hv[:n] = 0.0
        self.parent[:n] = -1
        self.slot[:n] = 0
        self.ncells[...] = n

    # -- geometry ------------------------------------------------------------

    def live(self) -> int:
        """Validated live cell count (reads the corruptible counter)."""
        n = int(self.ncells[()])
        if not 0 < n <= self.capacity:
            raise IndexError(f"corrupted cell count {n}")
        return n

    def cell_size(self, lev: np.ndarray | int) -> np.ndarray:
        """Edge length of cells at refinement level ``lev``."""
        lev_arr = np.asarray(lev)
        if np.any(lev_arr < 0) or np.any(lev_arr > self.max_level):
            raise IndexError(f"corrupted refinement level in {np.unique(lev_arr)}")
        return 1.0 / (self.base * (2.0**lev_arr))

    @property
    def finest_size(self) -> float:
        return 1.0 / (self.base * 2**self.max_level)

    # -- adaptation ----------------------------------------------------------

    def refine(self, cells: np.ndarray) -> int:
        """Quadrisect ``cells`` (live indices); returns cells created.

        Each victim cell is replaced in place by its first child; the
        other three children are appended.  Refinement past capacity
        aborts the simulation (the mini-app's malloc'd arrays are full).

        Cells at ``max_level`` are skipped.  When every target is a
        distinct live index at a non-negative level, the appended
        children fit and the parent ids stay in int64 range, all
        children are written at once.  Otherwise the cells are refined
        one by one, so a corrupted target raises at its turn with the
        cells before it refined, and a repeated target's second
        refinement reads its first child.
        """
        n = self.live()
        cells = np.asarray(cells, dtype=np.int64)
        if cells.size == 0:
            return 0
        todo = self._refinable(cells, n)
        if todo is None:
            return self._refine_each(cells, n)
        k = todo.size
        lev = self.lev[todo]
        quarter = self.cell_size(lev) / 4.0
        pid = int(self.next_parent[()])
        self.next_parent[...] = pid + k
        # Row s holds every refined cell's slot-s child: slot 0 replaces
        # the cell, slots 1-3 are appended three per cell, in order.
        appended = n + 3 * np.arange(k)
        targets = np.stack((todo, appended, appended + 1, appended + 2))
        self.x[targets] = self.x[todo] + _CHILD_DX * quarter
        self.y[targets] = self.y[todo] + _CHILD_DY * quarter
        self.lev[targets] = lev + 1
        for arr in (self.h, self.hu, self.hv):
            arr[targets] = arr[todo]
        self.parent[targets] = pid + np.arange(k)
        self.slot[targets] = np.arange(4)[:, None]
        self.ncells[...] = n + 3 * k
        return 3 * k

    def _refinable(self, cells: np.ndarray, n: int) -> np.ndarray | None:
        """The cells a one-shot refine would split, or None if it may not.

        A one-shot refine is exact when no per-cell check can fail:
        every target is a distinct live index at a non-negative level
        (those at or past ``max_level`` are skipped either way), and
        there is room, and parent ids, for all the refined cells.
        """
        if cells.min() < 0 or cells.max() >= n:
            return None
        if np.unique(cells).size != cells.size:
            return None
        lev = self.lev[cells]
        if lev.min() < 0:
            return None
        todo = cells[lev < self.max_level]
        if n + 3 * todo.size > self.capacity:
            return None
        if int(self.next_parent[()]) + todo.size > np.iinfo(np.int64).max:
            return None
        return todo

    def _refine_each(self, cells: np.ndarray, n: int) -> int:
        """Refine ``cells`` one at a time, checking each as it comes."""
        created = 0
        for raw in cells:
            i = checked_index(int(raw), n, "refine target")
            lev = int(self.lev[i])
            if lev >= self.max_level:
                continue
            if n + created + 3 > self.capacity:
                raise SimulationAborted("mesh capacity exhausted during refine")
            quarter = float(self.cell_size(lev)) / 4.0
            pid = int(self.next_parent[()])
            self.next_parent[...] = pid + 1
            cx, cy = float(self.x[i]), float(self.y[i])
            h, hu, hv = float(self.h[i]), float(self.hu[i]), float(self.hv[i])
            offsets = ((-quarter, -quarter), (quarter, -quarter),
                       (-quarter, quarter), (quarter, quarter))
            targets = [i, n + created, n + created + 1, n + created + 2]
            for slot, (tgt, (ox, oy)) in enumerate(zip(targets, offsets)):
                self.x[tgt] = cx + ox
                self.y[tgt] = cy + oy
                self.lev[tgt] = lev + 1
                self.h[tgt] = h
                self.hu[tgt] = hu
                self.hv[tgt] = hv
                self.parent[tgt] = pid
                self.slot[tgt] = slot
            created += 3
        self.ncells[...] = n + created
        return created

    def coarsen(self, quiet: np.ndarray) -> int:
        """Merge sibling quartets whose members are all in ``quiet``.

        ``quiet`` is a boolean mask over live cells.  A quartet merges
        only when all four siblings are live, at the same level, and
        quiet; the merged parent gets the conservative mean state.
        Returns the number of cells removed.
        """
        n = self.live()
        quiet = np.asarray(quiet, dtype=bool)
        if quiet.shape != (n,):
            raise ValueError("quiet mask must cover live cells")
        parents = self.parent[:n]
        if not np.any(parents >= 0):
            return 0
        order = np.argsort(parents, kind="stable")
        sorted_parents = parents[order]
        # Runs of equal parent id; a candidate quartet is a run of
        # exactly four cells under a real (non-negative) parent.
        start = np.flatnonzero(np.concatenate(([True], sorted_parents[1:] != sorted_parents[:-1])))
        length = np.diff(np.append(start, n))
        start = start[(length == 4) & (sorted_parents[start] >= 0)]
        # (quartets, 4) member cells, each row in ascending cell order.
        members = order[start[:, None] + np.arange(4)]
        levs = self.lev[members]
        siblings = np.all(levs == levs[:, :1], axis=1) & (levs[:, 0] > 0)
        merge = siblings & np.all(quiet[members], axis=1)
        members, levs = members[merge], levs[merge]
        if not members.size:
            return 0
        # Quartets are disjoint, so merging them all at once reads the
        # same values a one-quartet-at-a-time merge would.
        rows = np.arange(members.shape[0])
        keep_idx = members[rows, np.argmin(self.slot[members], axis=1)]
        for arr in (self.x, self.y, self.h, self.hu, self.hv):
            arr[keep_idx] = arr[members].mean(axis=1)
        self.lev[keep_idx] = levs[:, 0] - 1
        self.parent[keep_idx] = -1
        self.slot[keep_idx] = 0
        keep = np.ones(n, dtype=bool)
        keep[members] = False
        keep[keep_idx] = True
        self._compact(keep, n)
        return 3 * members.shape[0]

    def _compact(self, keep: np.ndarray, n: int) -> None:
        """Densify live arrays after coarsening removed cells."""
        idx = np.flatnonzero(keep)
        m = idx.size
        for arr in (self.x, self.y, self.h, self.hu, self.hv):
            arr[:m] = arr[idx]
        for arr in (self.lev, self.parent, self.slot):
            arr[:m] = arr[idx]
        self.ncells[...] = m

    # -- output --------------------------------------------------------------

    def sample_grid(self) -> np.ndarray:
        """Paint the water height onto the finest uniform grid.

        Coarse cells cover a block of pixels; the paint order (coarse
        first) makes the finest data win, so outputs from runs with
        different refinement histories stay comparable.

        Each pixel takes the height of its last painter in the stable
        coarse-first order, which is what painting the cells one by one
        in that order leaves.  Block corners round half to even, as
        Python's ``round`` does.  When a corner is NaN, infinite or at
        least 2**52 in magnitude (a corrupted centre), the cells are
        painted one by one: there ``int(round(...))`` raises, or clamps
        an integer that int64 arithmetic could not hold.
        """
        n = self.live()
        res = self.base * 2**self.max_level
        sizes = self.cell_size(self.lev[:n])
        order = np.argsort(self.lev[:n], kind="stable")
        with np.errstate(over="ignore", invalid="ignore"):
            corners = (np.stack((self.x[:n], self.y[:n])) - sizes / 2.0) * res
            exact = bool(np.all(np.abs(corners) < _EXACT))
        if not exact:
            return self._paint_each(order, sizes, res)
        px0, py0 = np.clip(np.rint(corners[:, order]).astype(np.int64), 0, res - 1)
        extent = np.maximum(1, np.rint(sizes[order] * res).astype(np.int64))
        # Paint rank of each pixel's last painter; -1 where none paints.
        owner = np.full(res * res, -1, dtype=np.intp)
        for width in np.unique(extent).tolist():
            rank = np.flatnonzero(extent == width)
            # A block past the grid edge covers the edge row or column,
            # so clamping its indices there paints what a clipped slice
            # paints, some pixels twice.
            rows = np.minimum(px0[rank, None] + np.arange(width), res - 1)
            cols = np.minimum(py0[rank, None] + np.arange(width), res - 1)
            pixel = rows[:, :, None] * res + cols[:, None, :]
            np.maximum.at(owner, pixel.ravel(), np.repeat(rank, width * width))
        out = np.zeros(res * res)
        painted = owner >= 0
        out[painted] = self.h[:n][order][owner[painted]]
        return out.reshape(res, res)

    def _paint_each(self, order: np.ndarray, sizes: np.ndarray, res: int) -> np.ndarray:
        """Paint the cells one by one in ``order``."""
        out = np.zeros((res, res))
        for i in order:
            s = float(sizes[i])
            px0 = int(round((float(self.x[i]) - s / 2.0) * res))
            py0 = int(round((float(self.y[i]) - s / 2.0) * res))
            extent = max(1, int(round(s * res)))
            px0 = min(max(px0, 0), res - 1)
            py0 = min(max(py0, 0), res - 1)
            out[px0 : px0 + extent, py0 : py0 + extent] = self.h[i]
        return out
