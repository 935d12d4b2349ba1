"""CLAMR adaptation: the one-pass refinement indicator.

``Clamr._adapt`` builds its indicator from the whole (4, n) neighbour
table at once.  The four-pass per-face loop it replaced is kept here as
the oracle: on clean, NaN/inf-laden and corrupted meshes both must
raise the same error or leave bit-identical states.
"""

import numpy as np
import pytest

from repro.benchmarks.base import states_equal
from repro.benchmarks.clamr import Clamr
from repro.util.rng import derive_rng

from tests.conftest import SMALL_CLAMR

pytestmark = pytest.mark.filterwarnings("error")

#: Phase of the adapt step within each six-phase timestep.
ADAPT = 5


def adapt_per_face(bench: Clamr, state) -> None:
    """The per-face indicator loop ``_adapt`` ran before (the oracle)."""
    mesh = state.mesh
    bench._check_nbrs(state)
    n = mesh.live()
    refine_hi = float(state.consts[2])
    coarsen_lo = float(state.consts[3])
    h = mesh.h[:n]
    indicator = np.zeros(n)
    with np.errstate(invalid="ignore", over="ignore"):
        for face in range(4):
            nbr = state.nbrs[face]
            if np.any(nbr >= n):
                raise IndexError("corrupted neighbour index beyond live cells")
            boundary = nbr < 0
            hj = h.take(np.where(boundary, 0, nbr), mode="raise")
            diff = np.where(boundary, 0.0, np.abs(hj - h))
            indicator = np.maximum(indicator, diff)
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


def at_adapt(bench: Clamr, seed: int, timestep: int):
    """A state at the entry of ``timestep``'s adapt phase."""
    state = bench.make_state(derive_rng(seed, "clamr-adapt"))
    for index in range(timestep * 6 + ADAPT):
        bench.step(state, index)
    assert state.nbrs is not None
    return state


def outcome(adapt, bench: Clamr, state):
    """What ``adapt`` does to a clone of ``state``: its error or its state."""
    clone = bench.restore(state)
    try:
        adapt(clone)
    except Exception as exc:  # noqa: BLE001 — the error is the outcome
        return type(exc), str(exc)
    return clone


def assert_same(bench: Clamr, state) -> None:
    new = outcome(bench._adapt, bench, state)
    old = outcome(lambda s: adapt_per_face(bench, s), bench, state)
    if isinstance(old, tuple):
        assert new == old
    else:
        assert not isinstance(new, tuple), new
        assert states_equal(new, old)


@pytest.fixture(scope="module")
def bench() -> Clamr:
    return Clamr(**SMALL_CLAMR)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("timestep", [0, 1, 3])
def test_clean_meshes_match_per_face_loop(bench, seed, timestep):
    assert_same(bench, at_adapt(bench, seed, timestep))


@pytest.mark.parametrize("seed", range(6))
def test_nan_and_inf_heights_match_per_face_loop(bench, seed):
    state = at_adapt(bench, seed, 1)
    rng = np.random.default_rng(seed)
    n = state.mesh.live()
    for value in (np.nan, np.inf, -np.inf):
        cells = rng.choice(n, size=max(1, n // 8), replace=False)
        state.mesh.h[cells] = value
    assert_same(bench, state)


@pytest.mark.parametrize("face", range(4))
@pytest.mark.parametrize("past", [0, 3])
def test_past_the_end_neighbour_raises_like_per_face_loop(bench, face, past):
    state = at_adapt(bench, 2, 1)
    n = state.mesh.live()
    state.nbrs[face, n // 2] = n + past
    assert_same(bench, state)
    with pytest.raises(IndexError, match="beyond live cells"):
        bench._adapt(bench.restore(state))


@pytest.mark.parametrize("seed", range(4))
def test_neighbours_below_minus_one_are_boundaries_like_per_face_loop(bench, seed):
    state = at_adapt(bench, seed, 2)
    rng = np.random.default_rng(100 + seed)
    cells = rng.choice(state.nbrs.size, size=max(1, state.nbrs.size // 5), replace=False)
    state.nbrs.reshape(-1)[cells] = rng.integers(-1000, -1, size=cells.size)
    state.mesh.h[rng.integers(0, state.mesh.live())] = np.nan
    assert_same(bench, state)


@pytest.mark.parametrize("seed", range(8))
def test_randomly_corrupted_meshes_match_per_face_loop(bench, seed):
    state = at_adapt(bench, seed, seed % 3)
    rng = np.random.default_rng(200 + seed)
    n = state.mesh.live()
    for _ in range(3):
        face, cell = int(rng.integers(0, 4)), int(rng.integers(0, n))
        state.nbrs[face, cell] = int(rng.integers(-5, n + 2))
    heights = rng.integers(0, n, size=3)
    state.mesh.h[heights] = rng.choice([np.nan, np.inf, -np.inf, 1e308, -1e308], size=3)
    assert_same(bench, state)
