"""Shared utilities for the Xeon Phi reliability reproduction.

The subpackage deliberately has no dependencies on the rest of the
library so every other subsystem (machine model, injectors, analysis)
can build on it without cycles.
"""

from repro.util.bits import (
    bit_width,
    flip_bit_inplace,
    flip_bits_inplace,
    get_bit,
    randomize_element_inplace,
    zero_element_inplace,
)
from repro.util.rng import derive_rng
from repro.util.stats import (
    poisson_ci,
    proportion_ci,
    required_events_for_relative_ci,
    wilson_ci,
)
from repro.util.units import (
    FIT_HOURS,
    SEA_LEVEL_FLUX_N_CM2_H,
    fit_from_cross_section,
    fit_to_mtbf_hours,
    mtbf_hours_to_fit,
    natural_hours_covered,
)

__all__ = [
    "FIT_HOURS",
    "SEA_LEVEL_FLUX_N_CM2_H",
    "bit_width",
    "derive_rng",
    "fit_from_cross_section",
    "fit_to_mtbf_hours",
    "flip_bit_inplace",
    "flip_bits_inplace",
    "get_bit",
    "mtbf_hours_to_fit",
    "natural_hours_covered",
    "poisson_ci",
    "proportion_ci",
    "randomize_element_inplace",
    "required_events_for_relative_ci",
    "wilson_ci",
    "zero_element_inplace",
]
