"""Algorithm-Based Fault Tolerance for matrix multiplication.

Huang & Abraham's checksum scheme: extend A with a column-sum row and B
with a row-sum column; after C = A @ B the row and column sums of C
must match the checksums.  A mismatch localises errors: the paper notes
ABFT "can correct single, line, and random errors in the output in
O(1) time" but not square patterns — which is exactly why Figure 2's
spatial partition matters for choosing mitigations.

Correction strategy on the residual deltas:

* one bad row and one bad column — the classic single-error fix;
* one bad row (column) with several bad columns (rows) — a line error,
  corrected element-wise from the orthogonal checksum;
* several bad rows *and* columns — correctable only when the row and
  column deltas pair up uniquely by value (scattered "random" errors
  in distinct rows/columns); ambiguous square patterns are detected
  but not corrected.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["AbftOutcome", "AbftResult", "abft_check", "abft_checksums"]


class AbftOutcome(str, enum.Enum):
    """Result of an ABFT verification pass."""

    CLEAN = "clean"
    CORRECTED = "corrected"
    DETECTED = "detected"  # found but not correctable


@dataclass
class AbftResult:
    """Verification outcome plus the (possibly corrected) matrix."""

    outcome: AbftOutcome
    matrix: np.ndarray
    corrections: int = 0


def abft_checksums(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column checksums of C = A @ B computed from the inputs.

    row_check[i] = sum_j C[i, j] = A[i, :] @ (B @ 1)
    col_check[j] = sum_i C[i, j] = (1 @ A) @ B[:, j]
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError("incompatible operand shapes")
    row_check = a @ b.sum(axis=1)
    col_check = a.sum(axis=0) @ b
    return row_check, col_check


def _relative_tol(reference: np.ndarray, rtol: float) -> float:
    scale = float(np.max(np.abs(reference))) if reference.size else 1.0
    return rtol * max(scale, 1.0)


def abft_check(
    c: np.ndarray,
    row_check: np.ndarray,
    col_check: np.ndarray,
    rtol: float = 1e-8,
) -> AbftResult:
    """Verify (and correct where possible) a result matrix in place.

    Returns a result holding a *copy* of ``c`` with corrections applied.
    """
    if c.ndim != 2:
        raise ValueError("ABFT check needs a 2-D matrix")
    work = np.array(c, dtype=np.float64, copy=True)
    tol = _relative_tol(row_check, rtol)

    with np.errstate(invalid="ignore", over="ignore"):
        row_delta = np.nan_to_num(work.sum(axis=1) - row_check, nan=np.inf)
        col_delta = np.nan_to_num(work.sum(axis=0) - col_check, nan=np.inf)
    bad_rows = np.flatnonzero(np.abs(row_delta) > tol)
    bad_cols = np.flatnonzero(np.abs(col_delta) > tol)

    if bad_rows.size == 0 and bad_cols.size == 0:
        return AbftResult(AbftOutcome.CLEAN, work)
    if bad_rows.size == 0 or bad_cols.size == 0:
        # Compensating errors along one dimension: detectable, not
        # localisable.
        return AbftResult(AbftOutcome.DETECTED, work)

    corrections = 0
    if bad_rows.size == 1:
        r = int(bad_rows[0])
        for col in bad_cols:
            work[r, col] -= col_delta[col]
            corrections += 1
    elif bad_cols.size == 1:
        col = int(bad_cols[0])
        for r in bad_rows:
            work[r, col] -= row_delta[r]
            corrections += 1
    else:
        # Scattered errors: pair rows and columns by matching delta
        # values; ambiguity (unmatched or multiply-matched deltas)
        # means the pattern is square-like and only detectable.
        remaining_cols = list(bad_cols)
        pairs: list[tuple[int, int]] = []
        for r in bad_rows:
            matches = [
                col
                for col in remaining_cols
                if abs(row_delta[r] - col_delta[col]) <= tol
                or (np.isinf(row_delta[r]) and np.isinf(col_delta[col]))
            ]
            if len(matches) != 1:
                return AbftResult(AbftOutcome.DETECTED, work)
            pairs.append((int(r), int(matches[0])))
            remaining_cols.remove(matches[0])
        if remaining_cols:
            return AbftResult(AbftOutcome.DETECTED, work)
        for r, col in pairs:
            work[r, col] -= row_delta[r]
            corrections += 1

    # Re-verify: residual mismatch (e.g. inf/NaN arithmetic) means the
    # correction failed and the error is only detected.
    with np.errstate(invalid="ignore", over="ignore"):
        row_delta2 = np.nan_to_num(work.sum(axis=1) - row_check, nan=np.inf)
        col_delta2 = np.nan_to_num(work.sum(axis=0) - col_check, nan=np.inf)
    if np.any(np.abs(row_delta2) > tol) or np.any(np.abs(col_delta2) > tol):
        return AbftResult(AbftOutcome.DETECTED, np.array(c, dtype=np.float64, copy=True))
    return AbftResult(AbftOutcome.CORRECTED, work, corrections=corrections)
