"""ABFT checksums for matrix multiplication."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardening.abft import AbftOutcome, abft_check, abft_checksums
from repro.util.rng import derive_rng


def _protected(n=12, seed=5):
    rng = derive_rng(seed, "abft")
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    return (a @ b, *abft_checksums(a, b))


def test_checksums_match_true_product():
    c, row_check, col_check = _protected()
    np.testing.assert_allclose(c.sum(axis=1), row_check, atol=1e-9)
    np.testing.assert_allclose(c.sum(axis=0), col_check, atol=1e-9)


def test_clean_matrix_passes():
    c, rs, cs = _protected()
    result = abft_check(c, rs, cs)
    assert result.outcome is AbftOutcome.CLEAN
    assert result.corrections == 0


def test_single_error_corrected():
    c, rs, cs = _protected()
    c[3, 7] += 2.5
    result = abft_check(c, rs, cs)
    assert result.outcome is AbftOutcome.CORRECTED
    assert result.corrections == 1
    np.testing.assert_allclose(result.matrix.sum(axis=1), rs, atol=1e-8)


def test_row_line_error_corrected():
    c, rs, cs = _protected()
    c[4, 2:9] += np.arange(7) + 1.0
    result = abft_check(c, rs, cs)
    assert result.outcome is AbftOutcome.CORRECTED
    assert result.corrections == 7


def test_column_line_error_corrected():
    c, rs, cs = _protected()
    c[1:6, 9] -= 3.0
    result = abft_check(c, rs, cs)
    assert result.outcome is AbftOutcome.CORRECTED
    assert result.corrections == 5


def test_scattered_random_errors_corrected():
    c, rs, cs = _protected()
    c[1, 2] += 1.0
    c[5, 8] += 2.0
    c[9, 0] -= 4.0  # distinct rows, distinct columns, distinct deltas
    result = abft_check(c, rs, cs)
    assert result.outcome is AbftOutcome.CORRECTED
    assert result.corrections == 3


def test_square_error_detected_not_corrected():
    c, rs, cs = _protected()
    c[2:5, 2:5] += 1.0  # ambiguous block
    result = abft_check(c, rs, cs)
    assert result.outcome is AbftOutcome.DETECTED


def test_equal_delta_pair_is_ambiguous():
    c, rs, cs = _protected()
    c[1, 2] += 1.0
    c[5, 8] += 1.0  # same delta in two rows: match is ambiguous
    result = abft_check(c, rs, cs)
    assert result.outcome is AbftOutcome.DETECTED


def test_nan_corruption_detected():
    c, rs, cs = _protected()
    c[6, 6] = np.nan
    result = abft_check(c, rs, cs)
    assert result.outcome in (AbftOutcome.DETECTED, AbftOutcome.CORRECTED)


def test_correction_does_not_mutate_input():
    c, rs, cs = _protected()
    c[3, 7] += 2.5
    corrupted = c.copy()
    abft_check(c, rs, cs)
    assert np.array_equal(c, corrupted)


def test_shape_validation():
    with pytest.raises(ValueError):
        abft_checksums(np.zeros((3, 4)), np.zeros((3, 4)))
    with pytest.raises(ValueError):
        abft_check(np.zeros(5), np.zeros(5), np.zeros(5))


@settings(max_examples=40, deadline=None)
@given(
    row=st.integers(0, 11),
    col=st.integers(0, 11),
    delta=st.floats(0.5, 100.0),
)
def test_any_single_error_corrected(row, col, delta):
    c, rs, cs = _protected()
    c[row, col] += delta
    result = abft_check(c, rs, cs)
    assert result.outcome is AbftOutcome.CORRECTED
    np.testing.assert_allclose(result.matrix.sum(axis=0), cs, atol=1e-7)
