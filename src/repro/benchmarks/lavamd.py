"""LavaMD — cutoff-range N-body particle interaction in a 3-D box grid.

The Rodinia LavaMD kernel: particles live in a cubic grid of boxes;
each home box accumulates the potential and force contributions of the
particles in itself and its 26 face/edge/corner neighbours through an
exponential pair kernel.

Reproduction-relevant structure:

* the only 3-D benchmark — corruption spreading across neighbouring
  boxes produces the *cubic* error pattern of Figure 2;
* the charge and position arrays dwarf every other structure, so under
  footprint-weighted injection they absorb most faults (the paper
  attributes 57% of SDCs and 11% of DUEs to them);
* ``exp`` exacerbates any perturbation, which is why all four fault
  models look alike for LavaMD (Figure 5).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.benchmarks.base import Benchmark, PointerTable, Variable, checked_index

__all__ = ["LavaMD", "LavaMDState"]


@dataclass
class LavaMDState:
    """Live state of one LavaMD execution."""

    rv: np.ndarray  # (nboxes, par, 4) float32 — x, y, z, v (extent term)
    qv: np.ndarray  # (nboxes, par) float32 — particle charges
    fv: np.ndarray  # (nboxes, par, 4) float32 — potential + force output
    alpha: np.ndarray  # 0-d float64 — kernel exponent scale
    box_nei: np.ndarray  # (nboxes, 27) int32 — neighbour box ids (-1 = none)
    box_ctl: np.ndarray  # int64 [nboxes, par]
    ptrs: PointerTable  # pointers to the particle arrays


class LavaMD(Benchmark):
    """Cutoff N-body with exponential pair kernel (single precision)."""

    name = "lavamd"
    output_dims = 3
    num_windows = 5
    float_output = True
    # Scaled-down problem compensation: with ~200x fewer particles per
    # box than the irradiated runs, a single-particle perturbation is
    # ~200x more visible; the coarser output precision restores the
    # relative visibility threshold of the paper's setup (DESIGN.md).
    output_decimals = 2
    supports_batching = True
    # The particle arrays dwarf all other allocations (paper: "up to
    # five orders of magnitude larger"), so the stack image is tiny.
    stack_share = 0.08

    @classmethod
    def default_params(cls) -> dict[str, Any]:
        return {"boxes1d": 4, "par_per_box": 8, "alpha": 2.0}

    @classmethod
    def paper_scale_params(cls) -> dict[str, Any]:
        # Rodinia's -boxes1d 10 with 100 particles per box (100k total).
        return {"boxes1d": 10, "par_per_box": 100, "alpha": 0.5}

    def __init__(self, **params: Any):
        super().__init__(**params)
        if self.params["boxes1d"] < 1:
            raise ValueError("boxes1d must be positive")
        if self.params["par_per_box"] < 1:
            raise ValueError("par_per_box must be positive")

    def make_state(self, rng: np.random.Generator) -> LavaMDState:
        nb = self.params["boxes1d"]
        par = self.params["par_per_box"]
        nboxes = nb**3
        rv = np.empty((nboxes, par, 4), dtype=np.float32)
        # Positions uniform inside each box (box edge length 1.0),
        # matching Rodinia's random initialisation.
        grid = np.stack(
            np.meshgrid(np.arange(nb), np.arange(nb), np.arange(nb), indexing="ij"), axis=-1
        ).reshape(nboxes, 3)
        rv[:, :, :3] = grid[:, None, :] + rng.random((nboxes, par, 3), dtype=np.float32)
        # Rodinia stores v = 0.5 * |pos|^2 so that the pair distance is
        # r2 = v_i + v_j - pos_i . pos_j = 0.5 * |pos_i - pos_j|^2.
        rv[:, :, 3] = 0.5 * np.einsum("ijk,ijk->ij", rv[:, :, :3], rv[:, :, :3])
        qv = rng.random((nboxes, par), dtype=np.float32)
        box_nei = np.full((nboxes, 27), -1, dtype=np.int32)
        for flat, (bx, by, bz) in enumerate(grid):
            slot = 0
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for dz in (-1, 0, 1):
                        nx, ny, nz = bx + dx, by + dy, bz + dz
                        if 0 <= nx < nb and 0 <= ny < nb and 0 <= nz < nb:
                            box_nei[flat, slot] = (nx * nb + ny) * nb + nz
                        slot += 1
        return LavaMDState(
            rv=rv,
            qv=qv,
            ptrs=PointerTable({"rv": rv, "qv": qv}),
            fv=np.zeros((nboxes, par, 4), dtype=np.float32),
            alpha=np.array(self.params["alpha"], dtype=np.float64),
            box_nei=box_nei,
            box_ctl=np.array([nboxes, par], dtype=np.int64),
        )

    def num_steps(self, state: LavaMDState) -> int:
        return self.params["boxes1d"] ** 3

    def step(self, state: LavaMDState, index: int) -> None:
        nboxes, par = int(state.box_ctl[0]), int(state.box_ctl[1])
        if not (0 < nboxes <= state.rv.shape[0] and 0 < par <= state.rv.shape[1]):
            raise IndexError(f"corrupted box dimensions ({nboxes}, {par})")
        home = checked_index(index, nboxes, "home box")
        a2 = 2.0 * float(state.alpha[()]) ** 2

        rv = state.ptrs.resolve("rv", state.rv)
        qv = state.ptrs.resolve("qv", state.qv)
        home_rv = rv[home, :par]
        acc = np.zeros((par, 4), dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for slot in range(state.box_nei.shape[1]):
                nei = int(state.box_nei[home, slot])
                if nei < 0:
                    continue
                nei = checked_index(nei, nboxes, "neighbour box")
                nei_rv = rv[nei, :par]
                nei_qv = qv[nei, :par].astype(np.float64)
                home_pos = home_rv[:, :3].astype(np.float64)
                nei_pos = nei_rv[:, :3].astype(np.float64)
                d = home_pos[:, None, :] - nei_pos[None, :, :]
                cross = home_pos @ nei_pos.T
                r2 = (
                    home_rv[:, None, 3].astype(np.float64)
                    + nei_rv[None, :, 3].astype(np.float64)
                    - cross
                )
                u2 = a2 * r2
                vij = np.exp(-u2)
                fs = 2.0 * vij
                acc[:, 0] += (nei_qv[None, :] * vij).sum(axis=1)
                acc[:, 1:] += (nei_qv[None, :, None] * fs[:, :, None] * d).sum(axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            state.fv[home, :par] = acc.astype(np.float32)

    # -- vectorized batch path ----------------------------------------------

    def batch_coherent(self, state: LavaMDState, golden: LavaMDState, index: int) -> bool:
        """Box geometry, the neighbour table, and the particle pointers
        drive control flow; alpha and the particle data are pure
        arithmetic and stay free per member.  Only the neighbour rows
        of *unvisited* home boxes matter: step ``i`` reads exactly
        ``box_nei[i]`` and never writes the table, so a corrupted row
        below ``index`` is dead state the scalar path tolerates too."""
        return (
            np.array_equal(state.ptrs.addresses, golden.ptrs.addresses)
            and np.array_equal(state.box_ctl, golden.box_ctl)
            and np.array_equal(state.box_nei[index:], golden.box_nei[index:])
        )

    def step_batch(
        self, states: Sequence[LavaMDState], index: int, carry: Any = None
    ) -> Any:
        nboxes, par = int(states[0].box_ctl[0]), int(states[0].box_ctl[1])
        home = checked_index(index, nboxes, "home box")
        if carry is None:
            # ``step`` never writes rv/qv/alpha, so one stack serves the
            # whole batch lifetime; fv (the only output) is written back
            # eagerly below — it is one small box per step — so no
            # ``batch_flush`` override is needed.  The doubles are
            # widened once up front: a float32->float64 cast is exact,
            # so slicing the widened stack is bit-identical to widening
            # a slice like the scalar path does.
            nb_states = len(states)
            kmax = states[0].box_nei.shape[1]
            pmax = states[0].rv.shape[1]
            # Like ``step``'s casts: widening a signalling NaN is exact
            # (it quiets it) and must not warn.
            with np.errstate(invalid="ignore"):
                wide_rv = np.stack([st.rv for st in states]).astype(np.float64)
                wide_qv = np.stack([st.qv for st in states]).astype(np.float64)
            carry = {
                # Matches scalar: a2 is computed through the same
                # python-float expression per member, so each double is
                # bit-identical.
                "a2": np.array([2.0 * float(st.alpha[()]) ** 2 for st in states])[
                    :, None, None, None
                ],
                "rv": wide_rv,
                "qv": wide_qv,
                # Pair-kernel scratch, reused every step: the ufunc tree
                # writes through ``out=`` so the MB-scale intermediates
                # are allocated (and page-faulted) once per batch, not
                # once per ufunc per step.  The 3-vector scratch keeps
                # the component axis *ahead* of the particle axes: the
                # force reduction then runs over the contiguous last
                # axis.  Reduction order follows the logical axis, not
                # the memory layout, so the summation tree (and its
                # bits) is unchanged.
                "s4": np.empty((nb_states, kmax, pmax, pmax)),
                "s4b": np.empty((nb_states, kmax, pmax, pmax)),
                "s5": np.empty((nb_states, kmax, 3, pmax, pmax)),
                "s5b": np.empty((nb_states, kmax, 3, pmax, pmax)),
                "pot": np.empty((nb_states, kmax, pmax)),
                "frc": np.empty((nb_states, kmax, 3, pmax)),
                "accp": np.empty((nb_states, pmax)),
                "accf": np.empty((nb_states, 3, pmax)),
                "acc": np.empty((nb_states, pmax, 4)),
            }
        a2 = carry["a2"]
        rv = carry["rv"]
        qv = carry["qv"]
        # The neighbour walk is golden control flow (gated at join), so
        # every member shares one slot list; the pair kernel then runs
        # over a stacked neighbour axis in one shot.  Only the final
        # accumulation stays a per-slot loop: it replays the scalar
        # path's slot-sequential float64 additions bit for bit.
        nei_ids = [
            int(n) for n in states[0].box_nei[home] if int(n) >= 0
        ]
        home_pos = rv[:, home, :par, :3]
        home_v = rv[:, home, :par, 3]
        nei_blk = rv[:, nei_ids][:, :, :par]
        nei_pos = nei_blk[..., :3]
        nei_v = nei_blk[..., 3]
        nei_qv = qv[:, nei_ids, :par]
        k = len(nei_ids)
        s4 = carry["s4"][:, :k, :par, :par]
        s4b = carry["s4b"][:, :k, :par, :par]
        d = carry["s5"][:, :k, :, :par, :par]
        s5b = carry["s5b"][:, :k, :, :par, :par]
        pot = carry["pot"][:, :k, :par]
        frc = carry["frc"][:, :k, :, :par]
        accp = carry["accp"][:, :par]
        accf = carry["accf"][:, :, :par]
        acc = carry["acc"][:, :par]
        accp.fill(0.0)
        accf.fill(0.0)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            np.subtract(
                home_pos.transpose(0, 2, 1)[:, None, :, :, None],
                nei_pos.transpose(0, 1, 3, 2)[:, :, :, None, :],
                out=d,
            )
            np.matmul(home_pos[:, None], nei_pos.transpose(0, 1, 3, 2), out=s4)  # cross
            np.add(home_v[:, None, :, None], nei_v[:, :, None, :], out=s4b)
            np.subtract(s4b, s4, out=s4b)  # r2
            np.multiply(a2, s4b, out=s4b)  # u2
            np.negative(s4b, out=s4b)
            np.exp(s4b, out=s4b)  # vij
            np.multiply(nei_qv[:, :, None, :], s4b, out=s4)
            np.sum(s4, axis=3, out=pot)
            np.multiply(2.0, s4b, out=s4b)  # fs
            np.multiply(nei_qv[:, :, None, :], s4b, out=s4)
            np.multiply(s4[:, :, None, :, :], d, out=s5b)
            np.sum(s5b, axis=4, out=frc)
            for j in range(k):
                accp += pot[:, j]
                accf += frc[:, j]
            acc[:, :, 0] = accp
            acc[:, :, 1:] = accf.transpose(0, 2, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            out = acc.astype(np.float32)
        for i, st in enumerate(states):
            st.fv[home, :par] = out[i]
        return carry

    def output(self, state: LavaMDState) -> np.ndarray:
        nb = self.params["boxes1d"]
        par = self.params["par_per_box"]
        return state.fv.astype(np.float64).reshape(nb, nb, nb, par * 4)

    def variables(self, state: LavaMDState, step: int) -> list[Variable]:
        return [
            Variable("rv", state.rv, frame="global", var_class="charge_distance"),
            Variable("qv", state.qv, frame="global", var_class="charge_distance"),
            Variable("fv", state.fv, frame="global", var_class="force"),
            Variable("alpha", state.alpha, frame="main", var_class="constant"),
            Variable("box_nei", state.box_nei, frame="main", var_class="control"),
            Variable("box_ctl", state.box_ctl, frame="main", var_class="control"),
            Variable("particle_ptrs", state.ptrs.addresses, frame="kernel", var_class="pointer"),
        ]
