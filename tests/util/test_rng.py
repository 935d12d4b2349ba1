"""Deterministic named random streams."""

import numpy as np

from repro.util.rng import derive_rng


def test_same_path_same_stream():
    a = derive_rng(7, "beam", "dgemm").random(8)
    b = derive_rng(7, "beam", "dgemm").random(8)
    assert np.array_equal(a, b)


def test_different_seed_different_stream():
    a = derive_rng(7, "x").random(8)
    b = derive_rng(8, "x").random(8)
    assert not np.array_equal(a, b)


def test_different_names_different_stream():
    a = derive_rng(7, "x").random(8)
    b = derive_rng(7, "y").random(8)
    assert not np.array_equal(a, b)


def test_path_order_matters():
    a = derive_rng(7, "a", "b").random(8)
    b = derive_rng(7, "b", "a").random(8)
    assert not np.array_equal(a, b)


def test_nested_path_differs_from_flat():
    a = derive_rng(7, "ab").random(4)
    b = derive_rng(7, "a", "b").random(4)
    assert not np.array_equal(a, b)
