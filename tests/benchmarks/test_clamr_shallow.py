"""CLAMR shallow-water step: face neighbours and fluxes against the per-face loops.

``find_face_neighbors`` sends all four faces' sample points to the K-D
tree as one query, and ``flux_update`` computes the four faces as rows
of ``(4, n)`` arrays.  The per-face versions they replaced are kept
here as oracles: the neighbour table, the exception raised for a
corrupted tree or mesh, and every mesh array after a flux update must
not change.

One thing may: which NaN an operation on two NaNs returns.  NumPy's
float loops return the first operand's NaN in their vectorised body
and the second's in the remainder, so the sign and payload of such a
NaN depend on where the element falls in the loop, and a ``(4, n)``
row is not an ``(n,)`` array.  NaN-ness, infinities and signed zeros
are IEEE results and must match bit for bit.
"""

import numpy as np
import pytest

from repro.benchmarks.base import SimulationAborted
from repro.benchmarks.clamr.kdtree import KdTree
from repro.benchmarks.clamr.mesh import AmrMesh
from repro.benchmarks.clamr.shallow import find_face_neighbors, flux_update
from repro.util.rng import derive_rng

from tests.benchmarks.test_clamr_kdtree import _assert_same_outcome, _corrupt_tree, _outcome
from tests.benchmarks.test_clamr_mesh import _MESH_ARRAYS, _assert_same_arrays

_NORMALS = ((-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0))
_SPECIALS = (np.nan, np.inf, -np.inf, -0.0)


def _reference_find_face_neighbors(mesh, tree):
    """``find_face_neighbors`` as it was, one tree query per face (verbatim)."""
    n = mesh.live()
    x, y = mesh.x[:n], mesh.y[:n]
    half = mesh.cell_size(mesh.lev[:n]) / 2.0
    eps = mesh.finest_size / 4.0
    nbrs = np.full((4, n), -1, dtype=np.int64)
    for face, (nx, ny) in enumerate(_NORMALS):
        qx = x + (half + eps) * nx
        qy = y + (half + eps) * ny
        inside = (qx > 0.0) & (qx < 1.0) & (qy > 0.0) & (qy < 1.0)
        idx = np.flatnonzero(inside)
        if idx.size:
            nbrs[face, idx] = tree.query_nearest(x, y, qx[idx], qy[idx])
    return nbrs


def _reference_gather_ghost(arr, nbr, boundary, reflect):
    """Neighbour values with reflective ghosts on domain boundaries (verbatim)."""
    safe = np.where(boundary, 0, nbr)
    vals = arr.take(safe, mode="raise").astype(float)
    if reflect is None:
        own = arr
        vals = np.where(boundary, own, vals)
    else:
        vals = np.where(boundary, reflect, vals)
    return vals


def _reference_flux_update(mesh, nbrs, dt, g, h_floor):
    """``flux_update`` as it was, one face at a time (verbatim)."""
    n = mesh.live()
    if nbrs.shape != (4, n):
        raise IndexError(f"neighbour table shape {nbrs.shape} does not match {n} cells")
    h = mesh.h[:n].copy()
    hu = mesh.hu[:n].copy()
    hv = mesh.hv[:n].copy()
    size = mesh.cell_size(mesh.lev[:n])

    dh = np.zeros(n)
    dhu = np.zeros(n)
    dhv = np.zeros(n)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        hs = np.maximum(h, h_floor)
        for face, (nx, ny) in enumerate(_NORMALS):
            nbr = nbrs[face]
            if np.any(nbr >= n):
                raise IndexError("corrupted neighbour index beyond live cells")
            boundary = nbr < 0
            hj = _reference_gather_ghost(h, nbr, boundary, None)
            huj = _reference_gather_ghost(hu, nbr, boundary, hu * (1.0 - 2.0 * abs(nx)))
            hvj = _reference_gather_ghost(hv, nbr, boundary, hv * (1.0 - 2.0 * abs(ny)))
            hjs = np.maximum(hj, h_floor)

            uni = (hu * nx + hv * ny) / hs
            unj = (huj * nx + hvj * ny) / hjs
            fh_i = h * uni
            fh_j = hj * unj
            p_i = 0.5 * g * h * h
            p_j = 0.5 * g * hj * hj
            fhu_i = hu * uni + p_i * nx
            fhu_j = huj * unj + p_j * nx
            fhv_i = hv * uni + p_i * ny
            fhv_j = hvj * unj + p_j * ny
            lam = np.maximum(
                np.abs(uni) + np.sqrt(g * hs), np.abs(unj) + np.sqrt(g * hjs)
            )
            dh -= 0.5 * (fh_i + fh_j) - 0.5 * lam * (hj - h)
            dhu -= 0.5 * (fhu_i + fhu_j) - 0.5 * lam * (huj - hu)
            dhv -= 0.5 * (fhv_i + fhv_j) - 0.5 * lam * (hvj - hv)
        mesh.h[:n] = np.maximum(h + dt / size * dh, h_floor)
        mesh.hu[:n] = hu + dt / size * dhu
        mesh.hv[:n] = hv + dt / size * dhv


def _assert_same_state(mesh, twin):
    """Equal mesh arrays, bit for bit except the sign and payload of NaNs."""
    for name in _MESH_ARRAYS:
        a, b = getattr(mesh, name), getattr(twin, name)
        if name in ("h", "hu", "hv"):
            same = (a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))
            assert same.all(), name
        else:
            assert a.tobytes() == b.tobytes(), name


def _adaptive_mesh(rng):
    """A dam-break mesh after a few random refinements, as CLAMR grows one."""
    base = int(rng.integers(2, 7))
    max_level = int(rng.integers(0, 4))
    mesh = AmrMesh(base, max_level, capacity=base * base * 40)
    mesh.init_dam_break(radius=float(rng.uniform(0.1, 0.4)))
    for _ in range(int(rng.integers(0, 4))):
        n = mesh.live()
        try:
            mesh.refine(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
        except SimulationAborted:
            break
    return mesh


def _tree(rng, mesh):
    n = mesh.live()
    return KdTree.build(mesh.x[:n], mesh.y[:n], leaf_size=int(rng.integers(1, 13)))


def _corrupt_cell(rng, mesh):
    """One corrupted ``cell_x``, ``cell_y`` or ``cell_lev`` entry."""
    arr = (mesh.x, mesh.y, mesh.lev)[int(rng.integers(3))]
    i = int(rng.integers(mesh.live()))
    if rng.random() < 0.6:
        raw = arr[i : i + 1].view(np.uint8)
        raw[int(rng.integers(raw.size))] ^= np.uint8(1 << int(rng.integers(8)))
    elif arr is mesh.lev:
        arr[i] = rng.integers(-2, mesh.max_level + 3)
    else:
        arr[i] = rng.choice(np.append(_SPECIALS, rng.uniform(-0.2, 1.2)))


def _corrupt_node_count(rng, tree):
    if rng.random() < 0.5:
        raw = tree.n_nodes.reshape(1).view(np.uint8)
        raw[int(rng.integers(raw.size))] ^= np.uint8(1 << int(rng.integers(8)))
    else:
        tree.n_nodes[...] = rng.integers(-2, tree.left.shape[0] + 3)


def _face_differential(mesh, tree):
    """Compare against the per-face loop; neither may touch the mesh or tree."""
    mesh_before = mesh.clone()
    tree_before = {name: arr.copy() for name, arr in tree.variables().items()}
    want = _outcome(lambda: _reference_find_face_neighbors(mesh, tree))
    got = _outcome(lambda: find_face_neighbors(mesh, tree))
    _assert_same_outcome(got, want)
    _assert_same_arrays(mesh, mesh_before)
    for name, arr in tree.variables().items():
        assert arr.tobytes() == tree_before[name].tobytes(), name
    return want


def _kind(outcome):
    return "ok" if isinstance(outcome, np.ndarray) else outcome[1].split(" [")[0]


@pytest.mark.filterwarnings("error")
def test_face_neighbors_match_per_face_queries_on_intact_trees():
    for seed in range(300):
        rng = derive_rng(seed, "face-differential")
        mesh = _adaptive_mesh(rng)
        assert _kind(_face_differential(mesh, _tree(rng, mesh))) == "ok"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("block", range(3))
def test_face_neighbors_match_per_face_queries_on_corrupted_trees(block):
    kinds = set()
    for seed in range(block * 400, block * 400 + 400):
        rng = derive_rng(10_000 + seed, "face-differential")
        mesh = _adaptive_mesh(rng)
        tree = _tree(rng, mesh)
        # One field in eight is the node count, corrupted last since
        # the other corruptions pick nodes below it.
        flips = rng.random(int(rng.integers(1, 4))) < 1 / 8
        for _ in range(int((~flips).sum())):
            _corrupt_tree(rng, tree)
        for _ in range(int(flips.sum())):
            _corrupt_node_count(rng, tree)
        kinds.add(_kind(_face_differential(mesh, tree)))
    assert {
        "ok",
        "corrupted kd-tree leaf range",
        "corrupted kd-tree leaf candidate",
        "corrupted kd-tree child pointer",
    } <= kinds


@pytest.mark.filterwarnings("error")
def test_face_neighbors_match_per_face_queries_on_corrupted_cells():
    kinds = set()
    for seed in range(400):
        rng = derive_rng(20_000 + seed, "face-differential")
        mesh = _adaptive_mesh(rng)
        tree = _tree(rng, mesh)
        _corrupt_cell(rng, mesh)
        kinds.add(_kind(_face_differential(mesh, tree)))
    assert {"ok", "corrupted refinement level in"} <= kinds


def _leaf_of(tree, px, py):
    node = 0
    while tree.left[node] >= 0:
        v = py if tree.split_dim[node] == 1 else px
        node = int(tree.left[node] if v <= tree.split_val[node] else tree.right[node])
    return node


def test_face_neighbors_raise_the_first_failing_face_not_the_lowest_leaf():
    mesh = AmrMesh(4, 1, capacity=64)
    mesh.init_dam_break()
    # Refining two cells of the bottom row breaks the left/right symmetry
    # of the leaves the two faces reach.
    mesh.refine(np.array([0, 1]))
    n = mesh.live()
    x, y = mesh.x[:n], mesh.y[:n]
    tree = KdTree.build(x, y, leaf_size=2)
    reach = mesh.cell_size(mesh.lev[:n]) / 2.0 + mesh.finest_size / 4.0
    faces = []
    for nx in (-1.0, 1.0):
        qx = x + reach * nx
        inside = (qx > 0.0) & (qx < 1.0)
        faces.append({_leaf_of(tree, px, py) for px, py in zip(qx[inside], y[inside])})
    # Face 0 (left) reaches leaf `late`; face 1 (right) reaches leaf
    # `early`, which face 0 never reaches, and `early` has the lower id.
    early = min(faces[1] - faces[0])
    late = max(faces[0])
    assert late > early
    for leaf in (early, late):
        tree.leaf_hi[leaf] = tree.leaf_lo[leaf]
    late_error = f"corrupted kd-tree leaf range [{tree.leaf_lo[late]}, {tree.leaf_lo[late]})"
    early_error = f"corrupted kd-tree leaf range [{tree.leaf_lo[early]}, {tree.leaf_lo[early]})"
    assert late_error != early_error
    with pytest.raises(IndexError) as exc:
        find_face_neighbors(mesh, tree)
    assert str(exc.value) == late_error
    # One query over both faces alone would report the lower leaf.
    both = np.concatenate([x - reach, x + reach])
    inside = (both > 0.0) & (both < 1.0)
    with pytest.raises(IndexError) as exc:
        tree.query_nearest(x, y, both[inside], np.tile(y, 2)[inside])
    assert str(exc.value) == early_error
    _face_differential(mesh, tree)


# -- flux update ---------------------------------------------------------------


def _flux_differential(mesh, nbrs, dt, g=9.8, h_floor=1e-6):
    """Compare against the per-face loop on twin meshes."""
    twin = mesh.clone()
    want = _outcome(lambda: _reference_flux_update(twin, nbrs.copy(), dt, g, h_floor))
    got = _outcome(lambda: flux_update(mesh, nbrs, dt, g, h_floor))
    assert got == want
    _assert_same_state(mesh, twin)
    return want


def _with_specials(rng, values, share):
    hit = np.flatnonzero(rng.random(values.size) < share)
    values[hit] = rng.choice(_SPECIALS, hit.size)


def _flux_case(rng):
    mesh = _adaptive_mesh(rng)
    nbrs = find_face_neighbors(mesh, _tree(rng, mesh))
    n = mesh.live()
    mesh.hu[:n] = rng.normal(0.0, 2.0, n)
    mesh.hv[:n] = rng.normal(0.0, 2.0, n)
    if rng.random() < 0.5:
        for arr in (mesh.h, mesh.hu, mesh.hv):
            _with_specials(rng, arr[:n], float(rng.choice([0.05, 0.3])))
    return mesh, nbrs, float(rng.uniform(1e-4, 1e-2))


@pytest.mark.filterwarnings("error")
def test_flux_update_matches_per_face_loop():
    for seed in range(300):
        rng = derive_rng(seed, "flux-differential")
        mesh, nbrs, dt = _flux_case(rng)
        n = mesh.live()
        kind = int(rng.integers(4))
        if kind == 1:
            # Past-the-end neighbours raise; any negative one is a boundary.
            hit = rng.random(nbrs.shape) < 0.05
            nbrs[hit] = rng.choice([-(2**62), -7, -2, n, n + 3], int(hit.sum()))
        elif kind == 2:
            raw = nbrs.reshape(-1)[int(rng.integers(nbrs.size)) :][:1].view(np.uint8)
            raw[int(rng.integers(raw.size))] ^= np.uint8(1 << int(rng.integers(8)))
        elif kind == 3:
            mesh.lev[int(rng.integers(n))] = rng.choice([-1, mesh.max_level + 1])
        _flux_differential(mesh, nbrs, dt)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("face", range(4))
def test_flux_update_past_the_end_neighbour_raises_before_writing(face):
    rng = derive_rng(face, "flux-face")
    mesh, nbrs, dt = _flux_case(rng)
    n = mesh.live()
    nbrs[face, n // 2] = n
    before = mesh.clone()
    outcome = _flux_differential(mesh, nbrs, dt)
    assert outcome == (IndexError, "corrupted neighbour index beyond live cells")
    _assert_same_arrays(mesh, before)


@pytest.mark.filterwarnings("error")
def test_flux_update_corrupt_level_raises_before_past_the_end_neighbour():
    rng = derive_rng(0, "flux-order")
    mesh, nbrs, dt = _flux_case(rng)
    n = mesh.live()
    nbrs[2, 0] = n + 1
    mesh.lev[1] = -1
    assert _flux_differential(mesh, nbrs, dt)[1].startswith("corrupted refinement level")


@pytest.mark.filterwarnings("error")
def test_flux_update_negative_neighbours_are_boundaries():
    rng = derive_rng(1, "flux-boundary")
    mesh, nbrs, dt = _flux_case(rng)
    nbrs[:, ::3] = -2
    nbrs[1, 1] = np.iinfo(np.int64).min
    assert _flux_differential(mesh, nbrs, dt) is None


@pytest.mark.filterwarnings("error")
def test_flux_update_zero_sums_keep_the_sign_of_face_order():
    # Still water with -0.0 momenta: every face update is zero or a
    # pressure term its opposite face cancels, so only the order of the
    # subtractions sets the sign of each zero (0 - u0 - u1 - ..., not
    # -(u0 + u1 + ...)), and hu + 0.0 differs from hu + -0.0.
    mesh = AmrMesh(4, 0, capacity=16)
    mesh.init_dam_break(h_inside=1.0, h_outside=1.0)
    mesh.hu[:16] = -0.0
    mesh.hv[:16] = -0.0
    nbrs = find_face_neighbors(mesh, KdTree.build(mesh.x[:16], mesh.y[:16], leaf_size=4))
    assert _flux_differential(mesh, nbrs, 1e-3) is None
    # The sums are +0.0 (0 - (-p) - p), so -0.0 + +0.0 leaves +0.0.
    assert mesh.hu[:16].tobytes() == np.zeros(16).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("special", _SPECIALS)
def test_flux_update_special_values_match_per_face_loop(special):
    rng = derive_rng(2, "flux-special")
    mesh, nbrs, dt = _flux_case(rng)
    n = mesh.live()
    for arr in (mesh.h, mesh.hu, mesh.hv):
        arr[: n : 2] = special
        assert _flux_differential(mesh.clone(), nbrs, dt) is None
