"""Shallow-water finite-volume step for CLAMR.

First-order Rusanov (local Lax-Friedrichs) fluxes over the four faces
of each cell, with reflective domain boundaries.  The CFL time step is
recomputed every timestep from the live state and validated the way
the mini-app validates it: a non-finite or non-positive ``dt`` aborts
the simulation, which is the main path by which corrupted mesh state
turns into a DUE rather than an SDC.

Both the neighbour search and the flux update treat the four faces as
the rows of ``(4, ncells)`` arrays, so a timestep makes one K-D tree
query and one pass of array operations instead of four.  The only
per-face loop left runs when that one query raises on a corrupted
tree: the faces are then queried one at a time so that the first
failing face reports its error.
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import BenchmarkHang, SimulationAborted
from repro.benchmarks.clamr.kdtree import KdTree
from repro.benchmarks.clamr.mesh import AmrMesh

__all__ = ["cfl_dt", "find_face_neighbors", "flux_update"]

#: Outward unit normals of the four faces (left, right, bottom, top) as
#: (4, 1) columns, so a per-cell array times one is a (4, ncells) array.
_NX = np.array([[-1.0], [1.0], [0.0], [0.0]])
_NY = np.array([[0.0], [0.0], [-1.0], [1.0]])


def find_face_neighbors(mesh: AmrMesh, tree: KdTree) -> np.ndarray:
    """(4, ncells) face-neighbour cell indices; -1 marks a domain boundary.

    Each face's neighbour is the cell whose centre is nearest a sample
    point just beyond the face midpoint (the K-D tree query CLAMR's
    neighbour finding performs).  The four faces' in-domain sample
    points go to the tree as one face-major query: a query's leaf and
    nearest candidate do not depend on the other queries, so the
    indices equal four per-face queries'.  A corrupted tree's error
    does depend on them (the combined query raises for the lowest bad
    leaf id of all faces, or at the earliest bad sweep), so when the
    combined query raises, the faces are queried one by one and the
    first failing face's error is raised.
    """
    n = mesh.live()
    x, y = mesh.x[:n], mesh.y[:n]
    half = mesh.cell_size(mesh.lev[:n]) / 2.0
    eps = mesh.finest_size / 4.0
    qx = x + (half + eps) * _NX
    qy = y + (half + eps) * _NY
    inside = (qx > 0.0) & (qx < 1.0) & (qy > 0.0) & (qy < 1.0)
    nbrs = np.full((4, n), -1, dtype=np.int64)
    idx = np.flatnonzero(inside)
    if idx.size:
        try:
            nbrs.flat[idx] = tree.query_nearest(x, y, qx.flat[idx], qy.flat[idx])
        except (IndexError, BenchmarkHang):
            for face in range(4):
                idx = np.flatnonzero(inside[face])
                if idx.size:
                    nbrs[face, idx] = tree.query_nearest(x, y, qx[face, idx], qy[face, idx])
    return nbrs


def cfl_dt(mesh: AmrMesh, g: float, courant: float) -> float:
    """CFL-limited time step; aborts on corrupted (non-physical) state."""
    n = mesh.live()
    h = mesh.h[:n]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        c = np.sqrt(g * h)
        u = np.abs(mesh.hu[:n] / h)
        v = np.abs(mesh.hv[:n] / h)
        size = mesh.cell_size(mesh.lev[:n])
        speed = np.maximum(u, v) + c
        dt = courant * float(np.min(size / np.maximum(speed, 1e-12)))
    if not np.isfinite(dt) or dt <= 0.0:
        raise SimulationAborted(f"CFL check failed: dt={dt}")
    return dt


def flux_update(
    mesh: AmrMesh,
    nbrs: np.ndarray,
    dt: float,
    g: float,
    h_floor: float,
) -> None:
    """Advance ``(h, hu, hv)`` one step with Rusanov face fluxes.

    The four faces are the rows of ``(4, n)`` arrays, each element
    computed by the same float expression as a per-face loop's, and the
    face updates are subtracted from ``dh``, ``dhu`` and ``dhv`` one
    face at a time, in face order, so every sum adds in the loop's
    order.  Only which NaN an operation on two NaNs returns can differ
    from a per-face loop's: NumPy picks between NaN operands by the
    element's place in its vectorised loop.  A neighbour index at or
    beyond the live cell count raises before anything is written; a
    negative one is a domain boundary.
    """
    n = mesh.live()
    if nbrs.shape != (4, n):
        raise IndexError(f"neighbour table shape {nbrs.shape} does not match {n} cells")
    h = mesh.h[:n].copy()
    hu = mesh.hu[:n].copy()
    hv = mesh.hv[:n].copy()
    size = mesh.cell_size(mesh.lev[:n])
    if np.any(nbrs >= n):
        raise IndexError("corrupted neighbour index beyond live cells")

    boundary = nbrs < 0
    safe = np.where(boundary, 0, nbrs)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        hs = np.maximum(h, h_floor)
        # Reflective ghost: same height, normal momentum negated.
        hj = np.where(boundary, h, h.take(safe))
        huj = np.where(boundary, hu * (1.0 - 2.0 * np.abs(_NX)), hu.take(safe))
        hvj = np.where(boundary, hv * (1.0 - 2.0 * np.abs(_NY)), hv.take(safe))
        hjs = np.maximum(hj, h_floor)

        uni = (hu * _NX + hv * _NY) / hs
        unj = (huj * _NX + hvj * _NY) / hjs
        # Physical fluxes through the face for both sides.
        fh_i = h * uni
        fh_j = hj * unj
        p_i = 0.5 * g * h * h
        p_j = 0.5 * g * hj * hj
        fhu_i = hu * uni + p_i * _NX
        fhu_j = huj * unj + p_j * _NX
        fhv_i = hv * uni + p_i * _NY
        fhv_j = hvj * unj + p_j * _NY
        lam = np.maximum(np.abs(uni) + np.sqrt(g * hs), np.abs(unj) + np.sqrt(g * hjs))
        face_dh = 0.5 * (fh_i + fh_j) - 0.5 * lam * (hj - h)
        face_dhu = 0.5 * (fhu_i + fhu_j) - 0.5 * lam * (huj - hu)
        face_dhv = 0.5 * (fhv_i + fhv_j) - 0.5 * lam * (hvj - hv)
        dh = np.zeros(n)
        dhu = np.zeros(n)
        dhv = np.zeros(n)
        for face in range(4):
            dh -= face_dh[face]
            dhu -= face_dhu[face]
            dhv -= face_dhv[face]
        mesh.h[:n] = np.maximum(h + dt / size * dh, h_floor)
        mesh.hu[:n] = hu + dt / size * dhu
        mesh.hv[:n] = hv + dt / size * dhv
