"""Spatial classification of corrupted outputs (paper Section 4.3).

Each SDC's wrong-element mask is classified into one of the paper's
five failure patterns:

* **single** — exactly one wrong element;
* **line** — multiple wrong elements confined to one row/column (one
  spatial axis varies, all others fixed);
* **square** — wrong elements spanning two spatial axes as a dense
  region;
* **cubic** — wrong elements spanning three spatial axes as a dense
  region (only possible for 3-D outputs, i.e. LavaMD);
* **random** — multiple wrong elements with no clear pattern (sparse
  scatter across axes).

Dense vs. scattered is decided by the fill ratio of the wrong set's
bounding box; the paper's visual "clear pattern" judgement maps onto a
fill-ratio threshold.
"""

from __future__ import annotations

import enum
from typing import Any

import numpy as np

__all__ = ["ErrorPattern", "classify_mask", "classify_outputs", "sdc_metrics", "wrong_mask"]

#: Bounding-box fill ratio above which a multi-axis spread counts as a
#: dense square/cubic region rather than a random scatter.
DENSE_FILL_RATIO = 0.5


class ErrorPattern(str, enum.Enum):
    """The paper's five SDC spatial patterns (plus NONE for no error)."""

    NONE = "none"
    SINGLE = "single"
    LINE = "line"
    SQUARE = "square"
    CUBIC = "cubic"
    RANDOM = "random"

    @classmethod
    def observable(cls) -> tuple["ErrorPattern", ...]:
        """Patterns that appear in Figure 2's SDC partition."""
        return (cls.CUBIC, cls.SQUARE, cls.LINE, cls.SINGLE, cls.RANDOM)


def wrong_mask(
    golden: np.ndarray, observed: np.ndarray, tolerance: float = 0.0
) -> np.ndarray:
    """Boolean mask of elements counted as wrong at a relative tolerance.

    ``tolerance=0`` is the paper's default "any bit mismatch" rule.
    With a positive tolerance, an element is wrong when
    ``|obs - gold| > tolerance * |gold|``; a corrupted element whose
    golden value is zero is wrong at any tolerance.
    """
    if golden.shape != observed.shape:
        raise ValueError(f"shape mismatch: {golden.shape} vs {observed.shape}")
    g = np.asarray(golden, dtype=np.float64)
    o = np.asarray(observed, dtype=np.float64)
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    neq = ~(
        np.isclose(o, g, rtol=0.0, atol=0.0, equal_nan=True)
    )
    if tolerance == 0.0:
        return neq
    diff = np.abs(o - g)
    denom = np.abs(g)
    with np.errstate(invalid="ignore"):
        within = diff <= tolerance * denom
    # NaN/inf observations never fall within a tolerance band.
    within &= np.isfinite(o)
    return neq & ~within


def _spatial_collapse(mask: np.ndarray, spatial_dims: int) -> np.ndarray:
    """Reduce trailing non-spatial axes (e.g. LavaMD's per-box features)."""
    if mask.ndim < spatial_dims:
        raise ValueError(f"mask has {mask.ndim} axes, needs at least {spatial_dims}")
    if mask.ndim == spatial_dims:
        return mask
    return mask.reshape(mask.shape[:spatial_dims] + (-1,)).any(axis=-1)


def classify_mask(mask: np.ndarray, spatial_dims: int | None = None) -> ErrorPattern:
    """Classify a wrong-element mask into one of the five patterns."""
    mask = np.asarray(mask, dtype=bool)
    if spatial_dims is None:
        spatial_dims = min(mask.ndim, 3)
    if not 1 <= spatial_dims <= 3:
        raise ValueError("spatial_dims must be 1, 2 or 3")
    spatial = _spatial_collapse(mask, spatial_dims)
    coords = np.argwhere(spatial)
    if coords.shape[0] == 0:
        return ErrorPattern.NONE
    total_wrong = int(mask.sum())
    if total_wrong == 1:
        return ErrorPattern.SINGLE
    extents = coords.max(axis=0) - coords.min(axis=0) + 1
    spanning = int(np.sum(extents > 1))
    if spanning <= 1:
        # All wrong elements share every coordinate but (at most) one:
        # a row or column of the output.
        return ErrorPattern.LINE
    bbox_volume = int(np.prod(extents))
    fill = coords.shape[0] / bbox_volume
    if spanning == 2:
        return ErrorPattern.SQUARE if fill >= DENSE_FILL_RATIO else ErrorPattern.RANDOM
    return ErrorPattern.CUBIC if fill >= DENSE_FILL_RATIO else ErrorPattern.RANDOM


def classify_outputs(
    golden: np.ndarray,
    observed: np.ndarray,
    spatial_dims: int | None = None,
    tolerance: float = 0.0,
) -> ErrorPattern:
    """Convenience: mask then classify in one call."""
    return classify_mask(wrong_mask(golden, observed, tolerance), spatial_dims)


def max_relative_error(golden: np.ndarray, observed: np.ndarray) -> float:
    """Largest per-element relative error; inf when a zero golden element
    was corrupted or the observation is non-finite."""
    g = np.asarray(golden, dtype=np.float64)
    o = np.asarray(observed, dtype=np.float64)
    if g.shape != o.shape:
        raise ValueError(f"shape mismatch: {g.shape} vs {o.shape}")
    neq = wrong_mask(g, o, 0.0)
    if not neq.any():
        return 0.0
    diff = np.abs(o - g)[neq]
    denom = np.abs(g)[neq]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rel = np.where(denom > 0, diff / denom, np.inf)
    rel = np.where(np.isfinite(o[neq]), rel, np.inf)
    return float(rel.max())


def sdc_metrics(golden: np.ndarray, observed: np.ndarray, dims: int) -> dict[str, Any]:
    """An SDC record's metrics, or ``{}`` when no element is wrong.

    ``dims`` is the output's spatial dimensionality, as in
    :func:`classify_mask`.
    """
    mask = wrong_mask(golden, observed)
    if not mask.any():
        return {}
    return {
        "wrong_elements": int(mask.sum()),
        "wrong_fraction": float(mask.mean()),
        "max_rel_err": max_relative_error(golden, observed),
        "pattern": classify_mask(mask, dims).value,
    }
