"""Array-based 2-D K-D tree — CLAMR's "Tree" portion.

CLAMR builds a K-D tree over cell centres and queries it to find the
face neighbours of every cell.  The tree here is stored in flat arrays
(split dimension/value per internal node, cell-index ranges per leaf)
so the injector can corrupt the actual structure: a flipped split value
sends queries to the wrong leaf (wrong neighbour → SDC), a corrupted
child pointer indexes out of bounds (DUE crash) or forms a cycle that
trips the traversal budget (DUE hang).

Build is iterative over node segments (O(n log n) with ~n/leaf_size
Python iterations); queries are batched — all query points descend the
tree simultaneously in vectorised sweeps, then the leaf scan gathers
one candidate matrix per distinct leaf width (a handful: widths
rarely exceed ``leaf_size``) and takes a single ``argmin`` over each.
Every reached leaf is validated before any is scanned, in ascending
leaf-id order, so a corrupted tree raises the same error whatever the
order of the queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.benchmarks.base import BenchmarkHang

__all__ = ["KdTree"]

_MAX_DESCENT = 64

# Per-node descent states; a sweep acts on the worst state reached.
_LEAF, _STEP, _BAD_DIM = 0, 1, 2


@dataclass
class KdTree:
    """Flat-array K-D tree over 2-D points.

    ``left``/``right`` are child node ids (-1 for leaves); leaves own
    ``perm[leaf_lo:leaf_hi]``, indices into the point set the tree was
    built over.
    """

    split_dim: np.ndarray  # (nodes,) int8
    split_val: np.ndarray  # (nodes,) float64
    left: np.ndarray  # (nodes,) int32
    right: np.ndarray  # (nodes,) int32
    leaf_lo: np.ndarray  # (nodes,) int32
    leaf_hi: np.ndarray  # (nodes,) int32
    perm: np.ndarray  # (n,) int32
    n_nodes: np.ndarray  # 0-d int64 (corruptible node count)

    @classmethod
    def build(cls, x: np.ndarray, y: np.ndarray, leaf_size: int = 8) -> "KdTree":
        """Median-split build over points ``(x[i], y[i])``."""
        if leaf_size < 1:
            raise ValueError("leaf_size must be positive")
        n = x.shape[0]
        if n == 0:
            raise ValueError("cannot build a tree over zero points")
        coords = (np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        max_nodes = max(1, 4 * (n // leaf_size + 2))
        tree = cls(
            split_dim=np.zeros(max_nodes, dtype=np.int8),
            split_val=np.zeros(max_nodes, dtype=np.float64),
            left=np.full(max_nodes, -1, dtype=np.int32),
            right=np.full(max_nodes, -1, dtype=np.int32),
            leaf_lo=np.zeros(max_nodes, dtype=np.int32),
            leaf_hi=np.zeros(max_nodes, dtype=np.int32),
            perm=np.arange(n, dtype=np.int32),
            n_nodes=np.array(0, dtype=np.int64),
        )
        # Iterative build: each stack entry is (node_id, lo, hi, depth)
        # over a contiguous segment of tree.perm.
        next_node = 1
        stack = [(0, 0, n, 0)]
        while stack:
            node, lo, hi, depth = stack.pop()
            if hi - lo <= leaf_size or depth >= 32:
                tree.left[node] = -1
                tree.right[node] = -1
                tree.leaf_lo[node] = lo
                tree.leaf_hi[node] = hi
                continue
            seg = tree.perm[lo:hi]
            dim = depth % 2
            vals = coords[dim][seg]
            order = np.argsort(vals, kind="stable")
            tree.perm[lo:hi] = seg[order]
            sorted_vals = vals[order]
            split = float(sorted_vals[(hi - lo) // 2])
            # Every point with coordinate <= split goes left, so a query
            # descending on `pt <= split` always reaches the leaf that
            # holds its own point, duplicates included.
            n_left = int(np.searchsorted(sorted_vals, split, side="right"))
            if n_left >= hi - lo:
                # Degenerate split (pivot is the maximum): leaf it.
                tree.left[node] = -1
                tree.right[node] = -1
                tree.leaf_lo[node] = lo
                tree.leaf_hi[node] = hi
                continue
            if next_node + 2 > max_nodes:  # pragma: no cover - sizing guard
                raise RuntimeError("kd-tree node budget exceeded")
            tree.split_dim[node] = dim
            tree.split_val[node] = split
            tree.left[node] = next_node
            tree.right[node] = next_node + 1
            stack.append((next_node, lo, lo + n_left, depth + 1))
            stack.append((next_node + 1, lo + n_left, hi, depth + 1))
            next_node += 2
        tree.n_nodes[...] = next_node
        return tree

    def query_nearest(
        self, x: np.ndarray, y: np.ndarray, qx: np.ndarray, qy: np.ndarray
    ) -> np.ndarray:
        """Index of the point nearest each query (approximate: leaf-local).

        Descends every query to its containing leaf simultaneously,
        then scans the reached leaves' candidates.  CLAMR's neighbour
        queries target the interior of the neighbouring cell, so the
        containing leaf almost always holds the true nearest centre; the
        rare boundary miss adds a little numerical diffusion but keeps
        the scheme deterministic and stable.

        The reached leaves are checked in ascending leaf id, and the
        first bad one raises ``IndexError``: its ``leaf_lo``/``leaf_hi``
        range is checked before its ``perm`` candidates.  The scan then
        buckets queries by their leaf's width and, per bucket, takes one
        ``argmin`` over a ``(queries, width)`` squared-distance matrix
        whose rows list candidates in ``perm`` order, so ties go to the
        first candidate and a NaN distance wins, exactly as a per-leaf
        scan would.  Buckets are not padded to a common width: a
        corrupted range may make one leaf span the whole point set.
        """
        n_nodes = int(self.n_nodes[()])
        if not 0 < n_nodes <= self.left.shape[0]:
            raise IndexError(f"corrupted kd-tree node count {n_nodes}")
        qx = np.asarray(qx, dtype=float)
        qy = np.asarray(qy, dtype=float)
        m = qx.shape[0]

        # Descent tables over the live nodes.  Leaves point at themselves
        # and out-of-range children at the sentinel id n_nodes, so every
        # sweep steps all queries at once and each check is one
        # reduction; errors still surface sweep by sweep, a bad split
        # dimension before a bad child pointer.
        left = self.left[:n_nodes]
        internal = left >= 0
        dims = self.split_dim[:n_nodes]
        bad_dim = (dims < 0) | (dims > 1)
        state = np.where(internal, np.where(bad_dim, _BAD_DIM, _STEP), _LEAF)
        node = np.arange(n_nodes)
        right_kid = np.where(internal, self.right[:n_nodes], node)
        left_kid = np.where(internal, left, node)
        kids = np.stack((right_kid, left_kid), axis=1)
        kids[(kids < 0) | (kids >= n_nodes)] = n_nodes
        on_y = dims == 1
        split_val = self.split_val[:n_nodes]
        cur = np.zeros(m, dtype=np.intp)
        for _sweep in range(_MAX_DESCENT):
            worst = state[cur].max(initial=_LEAF)
            if worst == _LEAF:
                break
            if worst == _BAD_DIM:
                raise IndexError("corrupted kd-tree split dimension")
            go_left = np.where(on_y[cur], qy, qx) <= split_val[cur]
            cur = kids[cur, go_left.view(np.int8)]
            if cur.max() == n_nodes:
                raise IndexError("corrupted kd-tree child pointer")
        else:
            raise BenchmarkHang("kd-tree descent did not terminate")

        # Validate every reached leaf before scanning any of them: the
        # first bad leaf in ascending id order raises, range before
        # candidates, so DUE details do not depend on the query order.
        leaves, leaf_of = np.unique(cur, return_inverse=True)
        lo = self.leaf_lo[leaves].astype(np.intp)
        hi = self.leaf_hi[leaves].astype(np.intp)
        bad_range = (lo < 0) | (lo >= hi) | (hi > self.perm.shape[0])
        # Bad candidates per leaf via a prefix count over the whole perm.
        n_points = x.shape[0]
        bad_perm = np.concatenate(([0], np.cumsum((self.perm < 0) | (self.perm >= n_points))))
        safe_lo = np.where(bad_range, 0, lo)
        safe_hi = np.where(bad_range, 0, hi)
        bad = bad_range | (bad_perm[safe_hi] > bad_perm[safe_lo])
        if bad.any():
            first = int(np.argmax(bad))
            if bad_range[first]:
                raise IndexError(
                    f"corrupted kd-tree leaf range [{int(lo[first])}, {int(hi[first])})"
                )
            raise IndexError("corrupted kd-tree leaf candidate")

        # Scan one (queries, width) candidate matrix per distinct leaf
        # width, queries sorted by width so each bucket is a slice.  Rows
        # keep perm order, so argmin ties and NaNs resolve exactly as a
        # per-leaf scan would.
        perm = self.perm.astype(np.intp)
        span = hi - lo
        order = np.argsort(span[leaf_of], kind="stable")
        leaf_of = leaf_of[order]
        width, start = span[leaf_of], lo[leaf_of]
        qx, qy = qx[order], qy[order]
        found = np.empty(m, dtype=np.int64)
        # Bucket starts; widths are positive, so the prepended 0 marks the first.
        cuts = np.flatnonzero(np.diff(width, prepend=0)).tolist()
        for a, b in zip(cuts, cuts[1:] + [m]):
            cand = perm.take(start[a:b, None] + np.arange(width[a]))
            with np.errstate(over="ignore", invalid="ignore"):
                dx = qx[a:b, None] - x.take(cand)
                dy = qy[a:b, None] - y.take(cand)
                dx *= dx
                dy *= dy
                dx += dy
            found[a:b] = cand[np.arange(b - a), dx.argmin(axis=1)]
        out = np.empty(m, dtype=np.int64)
        out[order] = found
        return out

    def variables(self) -> dict[str, np.ndarray]:
        """Backing stores exposed to the injector (the Tree frame)."""
        return {
            "tree_split_dim": self.split_dim,
            "tree_split_val": self.split_val,
            "tree_left": self.left,
            "tree_right": self.right,
            "tree_leaf_lo": self.leaf_lo,
            "tree_leaf_hi": self.leaf_hi,
            "tree_perm": self.perm,
            "tree_n_nodes": self.n_nodes,
        }
