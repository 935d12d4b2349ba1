"""LavaMD benchmark: N-body physics and corruption semantics."""

import warnings

import numpy as np
import pytest

from repro.benchmarks.base import SegmentationFault
from repro.benchmarks.lavamd import LavaMD
from repro.util.rng import derive_rng


@pytest.fixture
def bench() -> LavaMD:
    return LavaMD(boxes1d=3, par_per_box=6)


@pytest.fixture
def state(bench):
    return bench.make_state(derive_rng(21, "lava-test"))


def test_output_shape_is_3d_plus_features(bench):
    out = bench.golden(derive_rng(21, "lava-test"))
    assert out.shape == (3, 3, 3, 6 * 4)
    assert np.isfinite(out).all()


def test_output_dims_declared_3d(bench):
    assert bench.output_dims == 3


def test_deterministic(bench):
    a = bench.golden(derive_rng(2, "g"))
    b = bench.golden(derive_rng(2, "g"))
    assert np.array_equal(a, b)


def test_param_validation():
    with pytest.raises(ValueError):
        LavaMD(boxes1d=0)
    with pytest.raises(ValueError):
        LavaMD(par_per_box=0)


def test_neighbour_table_structure(state):
    nb = 3
    # The centre box has all 27 neighbours; corner boxes have 8.
    centre = (1 * nb + 1) * nb + 1
    corner = 0
    assert (state.box_nei[centre] >= 0).sum() == 27
    assert (state.box_nei[corner] >= 0).sum() == 8


def test_self_is_own_neighbour(state):
    # Slot 13 is (0, 0, 0) offset: the home box itself.
    for box in range(state.box_nei.shape[0]):
        assert state.box_nei[box, 13] == box


def test_potential_positive(bench, state):
    bench.run(state)
    # fv[..., 0] accumulates q * exp(-u2) over pairs: strictly positive.
    assert (state.fv[:, :, 0] > 0).all()


def test_corrupted_neighbour_index_crashes(bench, state):
    state.box_nei[5, 3] = 1_000_000
    with pytest.raises(IndexError):
        bench.step(state, 5)


def test_negative_neighbour_means_boundary_not_crash(bench, state):
    state.box_nei[5, 3] = -7  # any negative is "no neighbour"
    bench.step(state, 5)  # must not raise


def test_corrupted_box_ctl_crashes(bench, state):
    state.box_ctl[1] = 10**9
    with pytest.raises(IndexError):
        bench.step(state, 0)


def test_corrupted_pointer_segfaults(bench, state):
    state.ptrs.addresses[0] = -1
    with pytest.raises(SegmentationFault):
        bench.step(state, 0)


def test_charge_fault_contaminates_neighbourhood(bench, state):
    golden = bench.golden(derive_rng(21, "lava-test"))
    state.qv[13, 2] *= 1e6  # box (1,1,1), exacerbated by exp kernel
    out = bench.run(state)
    wrong_boxes = np.argwhere(
        np.any(out.reshape(27, -1) != golden.reshape(27, -1), axis=1)
    ).ravel()
    # The fault spreads to several boxes around the victim: the cubic
    # signature's source.
    assert len(wrong_boxes) >= 8


def test_far_fault_with_strong_cutoff_is_attenuated(bench, state):
    golden = bench.golden(derive_rng(21, "lava-test"))
    # Tiny perturbation of a particle: far boxes see exp(-u2)-suppressed
    # contributions, so most of the output is unchanged at 4 decimals.
    state.rv[0, 0, 0] += 1e-4
    out = bench.run(state)
    same = np.round(out, 2) == np.round(golden, 2)
    assert same.mean() > 0.5


# -- vectorized batch path ----------------------------------------------------


def test_step_batch_widens_a_signalling_nan_as_silently_as_step(bench):
    """A fault can leave a float32 signalling NaN in ``rv``.  Widening it
    is exact, and ``step`` casts under ``np.errstate``; ``step_batch``
    must neither warn where ``step`` is silent nor differ in a bit."""
    members = [bench.make_state(derive_rng(21, "lava-test")) for _ in range(2)]
    members[1].rv.reshape(-1).view(np.uint32)[5] = 0x7F800001
    scalar = bench.restore(members[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        bench.step(scalar, 0)
        bench.step_batch(members, 0)
    assert np.array_equal(scalar.fv.view(np.uint32), members[1].fv.view(np.uint32))
