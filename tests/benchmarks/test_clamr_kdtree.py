"""CLAMR K-D tree: build/query correctness and corruption behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks.base import BenchmarkHang
from repro.benchmarks.clamr.kdtree import KdTree
from repro.util.rng import derive_rng


def _points(n=50, seed=3):
    rng = derive_rng(seed, "kd")
    return rng.random(n), rng.random(n)


def test_build_leaf_only_for_small_sets():
    x, y = _points(5)
    tree = KdTree.build(x, y, leaf_size=8)
    assert int(tree.n_nodes[()]) == 1
    assert tree.left[0] == -1


def test_build_empty_rejected():
    with pytest.raises(ValueError):
        KdTree.build(np.array([]), np.array([]))


def test_build_leaf_size_validated():
    x, y = _points(5)
    with pytest.raises(ValueError):
        KdTree.build(x, y, leaf_size=0)


def test_perm_is_permutation():
    x, y = _points(64)
    tree = KdTree.build(x, y, leaf_size=4)
    assert sorted(tree.perm) == list(range(64))


def test_query_on_exact_points_returns_self():
    x, y = _points(40)
    tree = KdTree.build(x, y, leaf_size=4)
    found = tree.query_nearest(x, y, x, y)
    assert np.array_equal(found, np.arange(40))


def test_query_near_points_mostly_exact():
    x, y = _points(60)
    tree = KdTree.build(x, y, leaf_size=6)
    qx = x + 1e-6
    qy = y - 1e-6
    found = tree.query_nearest(x, y, qx, qy)
    # Points that are themselves split pivots can fall just across
    # their own plane: leaf-local search misses those, by design.
    assert (found == np.arange(60)).mean() > 0.85


def test_query_matches_brute_force_majority():
    x, y = _points(80, seed=9)
    tree = KdTree.build(x, y, leaf_size=8)
    rng = derive_rng(10, "q")
    qx, qy = rng.random(40), rng.random(40)
    found = tree.query_nearest(x, y, qx, qy)
    d2 = (qx[:, None] - x[None, :]) ** 2 + (qy[:, None] - y[None, :]) ** 2
    exact = d2.argmin(axis=1)
    # Leaf-local search is approximate: requires a strong majority of
    # exact hits (the CLAMR neighbour queries are near-interior points).
    assert (found == exact).mean() > 0.6


def test_corrupted_child_pointer_crashes():
    x, y = _points(60)
    tree = KdTree.build(x, y, leaf_size=4)
    tree.left[0] = 10_000
    with pytest.raises(IndexError):
        tree.query_nearest(x, y, x[:5], y[:5])


def test_corrupted_cycle_hangs():
    x, y = _points(60)
    tree = KdTree.build(x, y, leaf_size=4)
    tree.left[0] = 0  # root points at itself for half the queries
    tree.right[0] = 0
    with pytest.raises(BenchmarkHang):
        tree.query_nearest(x, y, x[:5], y[:5])


def test_corrupted_node_count_crashes():
    x, y = _points(60)
    tree = KdTree.build(x, y, leaf_size=4)
    tree.n_nodes[...] = -3
    with pytest.raises(IndexError):
        tree.query_nearest(x, y, x[:2], y[:2])


def test_corrupted_split_dim_crashes():
    x, y = _points(60)
    tree = KdTree.build(x, y, leaf_size=4)
    tree.split_dim[0] = 7
    with pytest.raises(IndexError):
        tree.query_nearest(x, y, x[:2], y[:2])


def test_corrupted_leaf_range_crashes():
    x, y = _points(30)
    tree = KdTree.build(x, y, leaf_size=4)
    leaves = np.flatnonzero(tree.left[: int(tree.n_nodes[()])] == -1)
    tree.leaf_lo[leaves[0]] = 999
    with pytest.raises(IndexError):
        tree.query_nearest(x, y, x, y)


def test_corrupted_leaf_candidate_crashes():
    x, y = _points(30)
    tree = KdTree.build(x, y, leaf_size=4)
    tree.perm[0] = 500
    with pytest.raises(IndexError):
        tree.query_nearest(x, y, x, y)


def test_corrupted_split_value_wrong_neighbour_not_crash():
    x, y = _points(60)
    tree = KdTree.build(x, y, leaf_size=4)
    tree.split_val[0] = -100.0  # every query now descends right
    found = tree.query_nearest(x, y, x, y)
    assert found.shape == (60,)  # silent wrong answers (SDC path)


def test_variables_expose_backing_stores():
    x, y = _points(30)
    tree = KdTree.build(x, y, leaf_size=4)
    variables = tree.variables()
    assert variables["tree_left"] is tree.left
    assert set(variables) >= {"tree_split_val", "tree_perm", "tree_n_nodes"}


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 120), leaf=st.integers(1, 16))
def test_build_covers_all_points_in_leaves(n, leaf):
    x, y = _points(n, seed=n)
    tree = KdTree.build(x, y, leaf_size=leaf)
    nodes = int(tree.n_nodes[()])
    covered = []
    for node in range(nodes):
        if tree.left[node] == -1:
            covered.extend(tree.perm[tree.leaf_lo[node] : tree.leaf_hi[node]])
    assert sorted(covered) == list(range(n))


# -- differential: the vectorised query against the per-leaf loop ------------


def _reference_query_nearest(tree, x, y, qx, qy):
    """``query_nearest`` as it was before its descent and leaf scan were vectorised.

    Kept as it was (``self`` renamed, the descent budget inlined) as the
    oracle: results and the exception raised for corrupted trees must
    not change.
    """
    n_nodes = int(tree.n_nodes[()])
    if not 0 < n_nodes <= tree.left.shape[0]:
        raise IndexError(f"corrupted kd-tree node count {n_nodes}")
    qx = np.asarray(qx, dtype=float)
    qy = np.asarray(qy, dtype=float)
    m = qx.shape[0]
    cur = np.zeros(m, dtype=np.int64)
    coords = (qx, qy)
    for _sweep in range(64):
        left = tree.left[cur]
        internal = left >= 0
        if not internal.any():
            break
        idx = np.flatnonzero(internal)
        nodes = cur[idx]
        dims = tree.split_dim[nodes]
        if np.any((dims < 0) | (dims > 1)):
            raise IndexError("corrupted kd-tree split dimension")
        pts = np.where(dims == 0, qx[idx], qy[idx])
        go_left = pts <= tree.split_val[nodes]
        nxt = np.where(go_left, tree.left[nodes], tree.right[nodes])
        if np.any((nxt < 0) | (nxt >= n_nodes)):
            raise IndexError("corrupted kd-tree child pointer")
        cur[idx] = nxt
    else:
        raise BenchmarkHang("kd-tree descent did not terminate")

    out = np.empty(m, dtype=np.int64)
    n_points = x.shape[0]
    for leaf in np.unique(cur):
        lo, hi = int(tree.leaf_lo[leaf]), int(tree.leaf_hi[leaf])
        if not (0 <= lo < hi <= tree.perm.shape[0]):
            raise IndexError(f"corrupted kd-tree leaf range [{lo}, {hi})")
        cand = tree.perm[lo:hi]
        if np.any((cand < 0) | (cand >= n_points)):
            raise IndexError("corrupted kd-tree leaf candidate")
        sel = np.flatnonzero(cur == leaf)
        with np.errstate(over="ignore", invalid="ignore"):
            dx = coords[0][sel][:, None] - x[cand][None, :]
            dy = coords[1][sel][:, None] - y[cand][None, :]
            out[sel] = cand[np.argmin(dx * dx + dy * dy, axis=1)]
    return out


_SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0])
_TREE_FIELDS = ("leaf_lo", "leaf_hi", "perm", "left", "right", "split_dim", "split_val")


def _outcome(call):
    """A call's result, or its exception as (type, message)."""
    try:
        return call()
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)


def _assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray), got
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _with_specials(rng, values, share):
    """Overwrite a random share of ``values`` with NaN, +-inf or -0.0."""
    hit = rng.random(values.shape[0]) < share
    values[hit] = rng.choice(_SPECIALS, int(hit.sum()))
    return values


def _random_points(rng):
    n = int(rng.integers(1, 160))
    if rng.random() < 0.4:
        # Few distinct coordinates: degenerate splits and depth-capped
        # leaves much wider than leaf_size.
        grid = rng.random(int(rng.integers(1, 6)))
        x, y = rng.choice(grid, n), rng.choice(grid, n)
    else:
        x, y = rng.random(n), rng.random(n)
    if rng.random() < 0.3:
        x = _with_specials(rng, x, 0.05)
        y = _with_specials(rng, y, 0.05)
    return x, y


def _random_queries(rng, x, y):
    m = int(rng.integers(0, 120))
    kind = rng.integers(3)
    if kind == 0:
        pick = rng.integers(0, x.shape[0], m)
        qx, qy = x[pick], y[pick]
    elif kind == 1:
        pick = rng.integers(0, x.shape[0], m)
        qx = x[pick] + rng.normal(0.0, 0.02, m)
        qy = y[pick] + rng.normal(0.0, 0.02, m)
    else:
        qx, qy = rng.uniform(-0.1, 1.1, m), rng.uniform(-0.1, 1.1, m)
    if rng.random() < 0.3:
        qx = _with_specials(rng, qx.copy(), 0.1)
        qy = _with_specials(rng, qy.copy(), 0.1)
    return qx, qy


def _corrupt_tree(rng, tree):
    """One injector-style corruption: a bit flip or a near-valid value."""
    name = _TREE_FIELDS[int(rng.integers(len(_TREE_FIELDS)))]
    arr = getattr(tree, name)
    n_nodes = int(tree.n_nodes[()])
    span = arr.shape[0] if name == "perm" else n_nodes
    i = int(rng.integers(span)) if rng.random() < 0.9 else int(rng.integers(arr.shape[0]))
    if rng.random() < 0.3:
        raw = arr[i : i + 1].view(np.uint8)
        raw[int(rng.integers(raw.size))] ^= np.uint8(1 << int(rng.integers(8)))
    elif name == "split_val":
        arr[i] = rng.choice(np.append(_SPECIALS, rng.uniform(-0.5, 1.5)))
    elif name == "split_dim":
        arr[i] = rng.integers(-1, 3)
    else:
        arr[i] = rng.integers(-2, max(n_nodes, tree.perm.shape[0]) + 3)


def _random_case(seed):
    rng = derive_rng(seed, "kd-differential")
    x, y = _random_points(rng)
    tree = KdTree.build(x, y, leaf_size=int(rng.integers(1, 13)))
    qx, qy = _random_queries(rng, x, y)
    return rng, x, y, tree, qx, qy


def _differential(x, y, tree, qx, qy):
    want = _outcome(lambda: _reference_query_nearest(tree, x, y, qx, qy))
    got = _outcome(lambda: tree.query_nearest(x, y, qx, qy))
    _assert_same_outcome(got, want)
    return want


def _outcome_kind(outcome):
    if not isinstance(outcome, tuple):
        return "ok"
    return outcome[1].split(" [")[0]


@pytest.mark.parametrize("block", range(4))
def test_query_matches_reference_on_intact_trees(block):
    kinds = set()
    for seed in range(block * 250, block * 250 + 250):
        _rng, x, y, tree, qx, qy = _random_case(seed)
        kinds.add(_outcome_kind(_differential(x, y, tree, qx, qy)))
    assert kinds == {"ok"}


@pytest.mark.parametrize("block", range(8))
def test_query_matches_reference_on_corrupted_trees(block):
    kinds = set()
    for seed in range(block * 500, block * 500 + 500):
        rng, x, y, tree, qx, qy = _random_case(10_000 + seed)
        for _ in range(int(rng.integers(1, 4))):
            _corrupt_tree(rng, tree)
        kinds.add(_outcome_kind(_differential(x, y, tree, qx, qy)))
    # Every block reaches silent results and the leaf-scan DUEs.
    assert {"ok", "corrupted kd-tree leaf range", "corrupted kd-tree leaf candidate"} <= kinds


def test_leaf_scan_wide_leaves_from_duplicates_match_reference():
    x = np.repeat([0.25, 0.75], 40)
    y = np.tile([0.5], 80)
    tree = KdTree.build(x, y, leaf_size=4)
    leaves = np.flatnonzero(tree.left[: int(tree.n_nodes[()])] == -1)
    widths = tree.leaf_hi[leaves] - tree.leaf_lo[leaves]
    assert widths.max() > 4  # duplicates defeat the median split
    qx = np.linspace(0.0, 1.0, 33)
    qy = np.full(33, 0.5)
    found = _differential(x, y, tree, qx, qy)
    assert found.shape == (33,)


def test_leaf_scan_leaf_spanning_whole_mesh_matches_reference():
    x, y = _points(90, seed=4)
    tree = KdTree.build(x, y, leaf_size=6)
    leaves = np.flatnonzero(tree.left[: int(tree.n_nodes[()])] == -1)
    tree.leaf_lo[leaves[0]] = 0
    tree.leaf_hi[leaves[0]] = 90
    _differential(x, y, tree, x, y)


def test_leaf_scan_nan_and_inf_match_reference():
    x, y = _points(50, seed=5)
    x[[3, 17]] = [np.nan, np.inf]
    y[[8]] = [-np.inf]
    tree = KdTree.build(x, y, leaf_size=4)
    qx = np.concatenate([x, [np.nan, np.inf, -np.inf, 0.5]])
    qy = np.concatenate([y, [0.5, np.nan, 0.5, np.inf]])
    _differential(x, y, tree, qx, qy)


def test_leaf_scan_zero_queries():
    x, y = _points(30)
    tree = KdTree.build(x, y, leaf_size=4)
    empty = np.array([])
    found = _differential(x, y, tree, empty, empty)
    assert found.shape == (0,)
    assert found.dtype == np.int64


def test_leaf_scan_raises_for_first_bad_leaf_in_ascending_order():
    x, y = _points(60)
    tree = KdTree.build(x, y, leaf_size=4)
    leaves = np.flatnonzero(tree.left[: int(tree.n_nodes[()])] == -1)
    # A later leaf gets a bad candidate, an earlier one a bad range:
    # the earlier leaf decides, whatever order the queries come in.
    first, later = leaves[1], leaves[-1]
    tree.perm[tree.leaf_lo[later]] = 999
    tree.leaf_hi[first] = tree.leaf_lo[first]
    lo = int(tree.leaf_lo[first])
    message = f"corrupted kd-tree leaf range [{lo}, {lo})"
    with pytest.raises(IndexError) as exc:
        tree.query_nearest(x, y, x[::-1], y[::-1])
    assert str(exc.value) == message
    _differential(x, y, tree, x[::-1], y[::-1])


def _chain_tree(depth, n_points):
    """Nodes 0..depth-1 each lead to the next on both sides; node depth is a leaf."""
    nodes = depth + 1
    chain = np.append(np.arange(1, nodes), -1).astype(np.int32)
    return KdTree(
        split_dim=np.zeros(nodes, dtype=np.int8),
        split_val=np.zeros(nodes),
        left=chain,
        right=chain.copy(),
        leaf_lo=np.zeros(nodes, dtype=np.int32),
        leaf_hi=np.full(nodes, n_points, dtype=np.int32),
        perm=np.arange(n_points, dtype=np.int32),
        n_nodes=np.array(nodes, dtype=np.int64),
    )


@pytest.mark.parametrize(
    ("depth", "kind"), [(63, "ok"), (64, "kd-tree descent did not terminate")]
)
def test_descent_budget_boundary_matches_reference(depth, kind):
    x, y = _points(5)
    tree = _chain_tree(depth, n_points=5)
    assert _outcome_kind(_differential(x, y, tree, x, y)) == kind
