"""CLAMR AMR mesh: refinement, coarsening, painting."""

import numpy as np
import pytest

from repro.benchmarks.base import SimulationAborted
from repro.benchmarks.clamr.mesh import AmrMesh
from repro.util.rng import derive_rng

from tests.benchmarks.test_clamr_kdtree import _outcome


def _mesh(base=4, max_level=2, capacity=400) -> AmrMesh:
    mesh = AmrMesh(base, max_level, capacity)
    mesh.init_dam_break()
    return mesh


def test_init_covers_domain():
    mesh = _mesh()
    n = mesh.live()
    assert n == 16
    assert np.all((mesh.x[:n] > 0) & (mesh.x[:n] < 1))
    assert np.all(mesh.lev[:n] == 0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        AmrMesh(1, 1, 100)
    with pytest.raises(ValueError):
        AmrMesh(4, -1, 100)
    with pytest.raises(ValueError):
        AmrMesh(4, 1, 2)


def test_cell_size_by_level():
    mesh = _mesh(base=4)
    assert mesh.cell_size(0) == pytest.approx(0.25)
    assert mesh.cell_size(2) == pytest.approx(0.0625)
    assert mesh.finest_size == pytest.approx(0.0625)


def test_cell_size_rejects_corrupt_level():
    mesh = _mesh()
    with pytest.raises(IndexError):
        mesh.cell_size(99)
    with pytest.raises(IndexError):
        mesh.cell_size(-1)


def test_live_validates_counter():
    mesh = _mesh()
    mesh.ncells[...] = 0
    with pytest.raises(IndexError):
        mesh.live()
    mesh.ncells[...] = 10**6
    with pytest.raises(IndexError):
        mesh.live()


def test_refine_adds_three_cells_per_split():
    mesh = _mesh()
    created = mesh.refine(np.array([5]))
    assert created == 3
    assert mesh.live() == 19
    # Children share a fresh parent id and distinct slots.
    children = np.flatnonzero(mesh.parent[:19] == 0)
    assert len(children) == 4
    assert sorted(mesh.slot[children]) == [0, 1, 2, 3]
    assert np.all(mesh.lev[children] == 1)


def test_refine_conserves_state_values():
    mesh = _mesh()
    h_before = mesh.h[5]
    mesh.refine(np.array([5]))
    children = np.flatnonzero(mesh.parent[: mesh.live()] == 0)
    assert np.all(mesh.h[children] == h_before)


def test_refine_children_inside_parent():
    mesh = _mesh()
    cx, cy = mesh.x[5], mesh.y[5]
    size = float(mesh.cell_size(0))
    mesh.refine(np.array([5]))
    children = np.flatnonzero(mesh.parent[: mesh.live()] == 0)
    assert np.all(np.abs(mesh.x[children] - cx) <= size / 2)
    assert np.all(np.abs(mesh.y[children] - cy) <= size / 2)


def test_refine_at_max_level_is_noop():
    mesh = _mesh(max_level=0)
    assert mesh.refine(np.array([3])) == 0


def test_refine_past_capacity_aborts():
    mesh = _mesh(capacity=17)
    with pytest.raises(SimulationAborted):
        mesh.refine(np.arange(16))


def test_refine_rejects_corrupt_index():
    mesh = _mesh()
    with pytest.raises(IndexError):
        mesh.refine(np.array([500]))


def test_refine_empty_is_noop():
    mesh = _mesh()
    assert mesh.refine(np.array([], dtype=np.int64)) == 0
    assert mesh.live() == 16


def test_coarsen_merges_quiet_quartet():
    mesh = _mesh()
    mesh.refine(np.array([5]))
    n = mesh.live()
    removed = mesh.coarsen(np.ones(n, dtype=bool))
    assert removed == 3
    assert mesh.live() == 16
    assert np.all(mesh.lev[:16] == 0)


def test_coarsen_respects_quiet_mask():
    mesh = _mesh()
    mesh.refine(np.array([5]))
    n = mesh.live()
    quiet = np.ones(n, dtype=bool)
    children = np.flatnonzero(mesh.parent[:n] == 0)
    quiet[children[0]] = False  # one loud sibling blocks the merge
    assert mesh.coarsen(quiet) == 0


def test_coarsen_averages_state():
    mesh = _mesh()
    mesh.refine(np.array([5]))
    n = mesh.live()
    children = np.flatnonzero(mesh.parent[:n] == 0)
    mesh.h[children] = [1.0, 2.0, 3.0, 4.0]
    mesh.coarsen(np.ones(n, dtype=bool))
    assert 2.5 in mesh.h[: mesh.live()]


def test_coarsen_mask_shape_checked():
    mesh = _mesh()
    with pytest.raises(ValueError):
        mesh.coarsen(np.ones(3, dtype=bool))


def test_refine_coarsen_roundtrip_preserves_cell_count():
    mesh = _mesh()
    mesh.refine(np.array([2, 7, 11]))
    assert mesh.live() == 16 + 9
    mesh.coarsen(np.ones(mesh.live(), dtype=bool))
    assert mesh.live() == 16


def test_sample_grid_shape_and_values():
    mesh = _mesh(base=4, max_level=1)
    grid = mesh.sample_grid()
    assert grid.shape == (8, 8)
    assert set(np.unique(grid)) <= set(np.unique(mesh.h[: mesh.live()]))


def test_sample_grid_finer_cells_paint_over():
    mesh = _mesh(base=4, max_level=1)
    mesh.refine(np.array([0]))
    children = np.flatnonzero(mesh.parent[: mesh.live()] == 0)
    mesh.h[children] = 42.0
    grid = mesh.sample_grid()
    assert (grid == 42.0).sum() == 4  # each level-1 child covers one pixel


# -- differential: the vectorised quartet merge against the per-quartet loop --

_MESH_ARRAYS = ("x", "y", "lev", "h", "hu", "hv", "parent", "slot", "ncells", "next_parent")


def _reference_coarsen(mesh, quiet):
    """The per-quartet loop ``coarsen`` used before it was vectorised.

    Kept verbatim (``self`` renamed) as the oracle: the return value and
    every backing array must not change.
    """
    n = mesh.live()
    quiet = np.asarray(quiet, dtype=bool)
    if quiet.shape != (n,):
        raise ValueError("quiet mask must cover live cells")
    parents = mesh.parent[:n]
    if not np.any(parents >= 0):
        return 0
    order = np.argsort(parents, kind="stable")
    keep = np.ones(n, dtype=bool)
    removed = 0
    pos = 0
    sorted_parents = parents[order]
    while pos < n:
        pid = sorted_parents[pos]
        end = pos
        while end < n and sorted_parents[end] == pid:
            end += 1
        if pid >= 0 and end - pos == 4:
            members = order[pos:end]
            levs = mesh.lev[members]
            if np.all(levs == levs[0]) and levs[0] > 0 and bool(np.all(quiet[members])):
                keep_idx = int(members[np.argmin(mesh.slot[members])])
                mesh.x[keep_idx] = float(mesh.x[members].mean())
                mesh.y[keep_idx] = float(mesh.y[members].mean())
                mesh.h[keep_idx] = float(mesh.h[members].mean())
                mesh.hu[keep_idx] = float(mesh.hu[members].mean())
                mesh.hv[keep_idx] = float(mesh.hv[members].mean())
                mesh.lev[keep_idx] = levs[0] - 1
                mesh.parent[keep_idx] = -1
                mesh.slot[keep_idx] = 0
                drop = members[members != keep_idx]
                keep[drop] = False
                removed += drop.size
        pos = end
    if removed:
        mesh._compact(keep, n)
    return removed


def _random_mesh(rng):
    base = int(rng.integers(2, 6))
    max_level = int(rng.integers(0, 4))
    mesh = AmrMesh(base, max_level, capacity=base * base * 30)
    mesh.init_dam_break(radius=float(rng.uniform(0.1, 0.4)))
    for _ in range(int(rng.integers(0, 4))):
        n = mesh.live()
        cells = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        try:
            mesh.refine(cells)
        except SimulationAborted:
            break  # a half-done refine leaves broken quartets: keep them
    n = mesh.live()
    for name in ("h", "hu", "hv"):
        getattr(mesh, name)[:n] = rng.normal(0.0, 3.0, n)
    if rng.random() < 0.3:
        # Signed zeros, NaNs and infinities reach the quartet means.
        for name in ("x", "y", "h", "hu", "hv"):
            arr = getattr(mesh, name)
            hit = np.flatnonzero(rng.random(n) < 0.2)
            arr[hit] = rng.choice([-0.0, 0.0, np.nan, np.inf, -np.inf], hit.size)
    return mesh


def _corrupt_mesh(rng, mesh):
    """One injector-style corruption of ``parent``, ``lev`` or ``slot``."""
    name = ("parent", "lev", "slot")[int(rng.integers(3))]
    arr = getattr(mesh, name)
    i = int(rng.integers(mesh.live())) if rng.random() < 0.9 else int(rng.integers(arr.size))
    if rng.random() < 0.3:
        raw = arr[i : i + 1].view(np.uint8)
        raw[int(rng.integers(raw.size))] ^= np.uint8(1 << int(rng.integers(8)))
    elif name == "parent":
        arr[i] = rng.integers(-2, int(mesh.next_parent[()]) + 2)
    elif name == "lev":
        arr[i] = rng.integers(-1, mesh.max_level + 3)
    else:
        arr[i] = rng.integers(-4, 8)


def _coarsen_outcome(coarsen, mesh, quiet):
    try:
        return coarsen(mesh, quiet)
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)


def _assert_coarsen_matches_reference(mesh, quiet):
    twin = mesh.clone()
    want = _coarsen_outcome(_reference_coarsen, twin, quiet)
    got = _coarsen_outcome(AmrMesh.coarsen, mesh, quiet)
    assert got == want
    assert type(got) is type(want)
    for name in _MESH_ARRAYS:
        assert getattr(mesh, name).tobytes() == getattr(twin, name).tobytes(), name
    return got


def _random_quiet(rng, mesh):
    return rng.random(mesh.live()) < rng.choice([0.6, 0.95, 1.0])


_INF_MINUS_INF = "ignore:invalid value encountered in reduce:RuntimeWarning"


@pytest.mark.filterwarnings(_INF_MINUS_INF)
@pytest.mark.parametrize("block", range(6))
def test_coarsen_matches_reference(block):
    merged = 0
    for seed in range(block * 500, block * 500 + 500):
        rng = derive_rng(seed, "coarsen-differential")
        mesh = _random_mesh(rng)
        corrupt = seed % 2 == 1
        for _ in range(int(rng.integers(1, 4)) if corrupt else 0):
            _corrupt_mesh(rng, mesh)
        merged += _assert_coarsen_matches_reference(mesh, _random_quiet(rng, mesh)) > 0
        if mesh.live() > 0:
            # A second pass sees the first pass's compaction.
            _assert_coarsen_matches_reference(mesh, _random_quiet(rng, mesh))
    assert merged > 50


@pytest.mark.filterwarnings(_INF_MINUS_INF)
def test_coarsen_signed_zero_and_nan_means_match_reference():
    mesh = _mesh()
    mesh.refine(np.array([1, 6]))
    n = mesh.live()
    first = np.flatnonzero(mesh.parent[:n] == 0)
    second = np.flatnonzero(mesh.parent[:n] == 1)
    mesh.h[first] = -0.0
    mesh.hu[second] = [np.nan, 1.0, np.inf, -np.inf]
    assert _assert_coarsen_matches_reference(mesh, np.ones(n, dtype=bool)) == 6


def test_coarsen_duplicate_slots_keep_first_member_like_reference():
    mesh = _mesh()
    mesh.refine(np.array([5]))
    n = mesh.live()
    children = np.flatnonzero(mesh.parent[:n] == 0)
    mesh.slot[children] = 2
    assert _assert_coarsen_matches_reference(mesh, np.ones(n, dtype=bool)) == 3


def test_coarsen_skips_level_zero_quartet_like_reference():
    mesh = _mesh()
    mesh.refine(np.array([5]))
    n = mesh.live()
    children = np.flatnonzero(mesh.parent[:n] == 0)
    mesh.lev[children] = 0  # siblings with no coarser level to merge into
    assert _assert_coarsen_matches_reference(mesh, np.ones(n, dtype=bool)) == 0
    mesh.lev[children] = -1
    assert _assert_coarsen_matches_reference(mesh, np.ones(n, dtype=bool)) == 0


# -- differential: one-shot refine and paint against the per-cell loops -------


def _reference_refine(mesh, cells):
    """``refine`` before its one-shot path: the per-cell loop it keeps."""
    n = mesh.live()
    cells = np.asarray(cells, dtype=np.int64)
    if cells.size == 0:
        return 0
    return mesh._refine_each(cells, n)


def _reference_sample_grid(mesh):
    """``sample_grid`` before its one-shot paint: the per-cell loop it keeps."""
    n = mesh.live()
    res = mesh.base * 2**mesh.max_level
    sizes = mesh.cell_size(mesh.lev[:n])
    order = np.argsort(mesh.lev[:n], kind="stable")
    return mesh._paint_each(order, sizes, res)


def _assert_same_arrays(mesh, twin):
    for name in _MESH_ARRAYS:
        assert getattr(mesh, name).tobytes() == getattr(twin, name).tobytes(), name


def _assert_refine_matches_reference(mesh, cells):
    twin = mesh.clone()
    want = _outcome(lambda: _reference_refine(twin, cells))
    got = _outcome(lambda: mesh.refine(cells))
    assert type(got) is type(want)
    assert got == want
    _assert_same_arrays(mesh, twin)
    return want


def _assert_paint_matches_reference(mesh):
    before = mesh.clone()
    want = _outcome(lambda: _reference_sample_grid(mesh))
    got = _outcome(lambda: mesh.sample_grid())
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    else:
        assert got == want
    _assert_same_arrays(mesh, before)
    return want


def _kind(outcome):
    if isinstance(outcome, tuple):
        return outcome[1].split(" ")[0] if outcome[0] is IndexError else outcome[0].__name__
    return "ok"


def _refine_targets(rng, mesh):
    """Refine targets: a distinct live subset, with one kind of corruption at times."""
    n = mesh.live()
    cells = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
    kind = int(rng.integers(6))
    if kind == 1 and cells.size:
        # Duplicates: the second refinement reads the first's child.
        cells = np.insert(cells, int(rng.integers(cells.size + 1)), rng.choice(cells))
    elif kind == 2:
        bad = rng.choice([-1, -(2**40), n, n + 1, 2**40])
        cells = np.insert(cells, int(rng.integers(cells.size + 1)), bad)
    elif kind == 3 and cells.size > 1:
        # A negative level after valid cells.
        mesh.lev[cells[int(rng.integers(1, cells.size))]] = rng.choice([-1, -7])
    elif kind == 4 and cells.size:
        mesh.lev[rng.choice(cells)] = mesh.max_level + int(rng.integers(1, 3))
    elif kind == 5:
        mesh.next_parent[...] = np.iinfo(np.int64).max - int(rng.integers(0, 4))
    return cells


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("block", range(4))
def test_refine_matches_reference(block):
    kinds = set()
    for seed in range(block * 500, block * 500 + 500):
        rng = derive_rng(seed, "refine-differential")
        mesh = _random_mesh(rng)
        if rng.random() < 0.3:
            _corrupt_mesh(rng, mesh)
        if rng.random() < 0.3:
            # Room for only some of the refinements.
            mesh.capacity = mesh.live() + 3 * int(rng.integers(0, 6))
        kinds.add(_kind(_assert_refine_matches_reference(mesh, _refine_targets(rng, mesh))))
    assert {"ok", "refine", "corrupted", "SimulationAborted"} <= kinds


@pytest.mark.filterwarnings("error")
def test_refine_capacity_runs_out_mid_list_like_reference():
    mesh = _mesh(capacity=16 + 3 * 2)
    outcome = _assert_refine_matches_reference(mesh, np.array([3, 9, 12]))
    assert outcome == (SimulationAborted, "mesh capacity exhausted during refine")
    assert mesh.live() == 16  # the counter is written only at the end
    assert int(mesh.next_parent[()]) == 2  # two cells were split first


@pytest.mark.filterwarnings("error")
def test_refine_negative_level_after_valid_cells_like_reference():
    mesh = _mesh()
    mesh.lev[9] = -1
    outcome = _assert_refine_matches_reference(mesh, np.array([2, 5, 9, 11]))
    assert outcome == (IndexError, "corrupted refinement level in [-1]")


@pytest.mark.filterwarnings("error")
def test_refine_duplicate_and_out_of_range_targets_like_reference():
    assert _assert_refine_matches_reference(_mesh(), np.array([4, 7, 4])) == 9
    outcome = _assert_refine_matches_reference(_mesh(), np.array([1, 16, 2]))
    assert outcome == (IndexError, "refine target 16 out of bounds for size 16")
    outcome = _assert_refine_matches_reference(_mesh(), np.array([1, -1]))
    assert outcome == (IndexError, "refine target -1 out of bounds for size 16")


@pytest.mark.filterwarnings("error")
def test_refine_skips_cells_at_max_level_like_reference():
    mesh = _mesh(max_level=1)
    assert _assert_refine_matches_reference(mesh, np.array([0, 5])) == 6
    children = np.flatnonzero(mesh.parent[: mesh.live()] >= 0)
    assert _assert_refine_matches_reference(mesh, np.append(children, 7)) == 3
    assert _assert_refine_matches_reference(mesh, children) == 0


def _paint_corruption(rng, mesh):
    """Corrupted centres: specials, exact halves, the 2**52 edge, or overlaps."""
    n = mesh.live()
    res = mesh.base * 2**mesh.max_level
    arr = mesh.x if rng.random() < 0.5 else mesh.y
    i = int(rng.integers(n))
    kind = int(rng.integers(5))
    if kind == 0:
        arr[i] = rng.choice([np.nan, np.inf, -np.inf, 1e300, -1e300, 1.7976931348623157e308, -0.0])
    elif kind == 1:
        # A centre whose scaled corner is a multiple of 2**52, or just inside.
        half = float(mesh.cell_size(mesh.lev[i])) / 2.0
        edge = rng.choice([-1.0, 1.0]) * 2.0**52 * rng.choice([1.0, 0.5, 2.0])
        arr[i] = np.nextafter(edge / res + half, rng.choice([-np.inf, np.inf, 0.0]))
    elif kind == 2:
        # Scaled corners exactly at a half, rounding to even.
        half = float(mesh.cell_size(mesh.lev[i])) / 2.0
        arr[i] = (int(rng.integers(-3, res + 3)) + 0.5) / res + half
    elif kind == 3:
        # Same-level cells stacked on one centre: the last painter wins.
        same = np.flatnonzero(mesh.lev[:n] == mesh.lev[i])
        for j in rng.choice(same, size=min(3, same.size), replace=False):
            mesh.x[j], mesh.y[j] = mesh.x[i], mesh.y[i]
            mesh.h[j] = rng.normal()
    else:
        raw = arr[i : i + 1].view(np.uint8)
        raw[int(rng.integers(raw.size))] ^= np.uint8(1 << int(rng.integers(8)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("block", range(4))
def test_sample_grid_matches_reference(block):
    kinds = set()
    for seed in range(block * 500, block * 500 + 500):
        rng = derive_rng(seed, "paint-differential")
        mesh = _random_mesh(rng)
        for _ in range(int(rng.integers(0, 4))):
            _paint_corruption(rng, mesh)
        if rng.random() < 0.2:
            _corrupt_mesh(rng, mesh)
        kinds.add(_kind(_assert_paint_matches_reference(mesh)))
    assert {"ok", "ValueError", "OverflowError", "corrupted"} <= kinds


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf, 1e300, -1e300, 2.0**52, -(2.0**52), 2.0**52 - 1]
)
def test_sample_grid_special_centres_match_reference(value):
    mesh = _mesh(base=4, max_level=2)
    mesh.refine(np.array([0, 6]))
    for arr in (mesh.x, mesh.y):
        twin = mesh.clone()
        getattr(twin, "x" if arr is mesh.x else "y")[5] = value
        _assert_paint_matches_reference(twin)


@pytest.mark.filterwarnings("error")
def test_sample_grid_half_pixel_corners_round_to_even_like_reference():
    mesh = _mesh(base=4, max_level=2)
    n = mesh.live()
    half = float(mesh.cell_size(0)) / 2.0
    mesh.h[:n] = np.arange(n, dtype=float)
    # Every scaled corner is k + 0.5 pixels (res 16, all exact in binary).
    mesh.x[:n] = (np.arange(n) + 0.5) / 16 + half
    mesh.y[:n] = (np.arange(n)[::-1] + 0.5) / 16 + half
    mesh.x[n - 1], mesh.y[n - 1] = 2.5 / 16 + half, 4.5 / 16 + half
    grid = _assert_paint_matches_reference(mesh)
    # The last painter's corner (2.5, 4.5) rounds to (2, 4), not (3, 5).
    assert np.all(grid[2:6, 4:8] == n - 1)
    assert grid[6, 8] != n - 1


@pytest.mark.filterwarnings("error")
def test_sample_grid_last_painter_of_a_level_wins_like_reference():
    mesh = _mesh(base=4, max_level=1)
    n = mesh.live()
    mesh.x[[3, 8, 12]] = mesh.x[0]
    mesh.y[[3, 8, 12]] = mesh.y[0]
    mesh.h[:n] = np.arange(n, dtype=float)
    grid = _assert_paint_matches_reference(mesh)
    assert grid[0, 0] == 12.0
