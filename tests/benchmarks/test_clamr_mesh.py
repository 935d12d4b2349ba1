"""CLAMR AMR mesh: refinement, coarsening, painting."""

import numpy as np
import pytest

from repro.benchmarks.base import SimulationAborted
from repro.benchmarks.clamr.mesh import AmrMesh
from repro.util.rng import derive_rng


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
