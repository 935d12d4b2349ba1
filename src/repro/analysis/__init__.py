"""Analysis layer: SDC qualification and vulnerability aggregation.

* :mod:`repro.analysis.spatial` — the five output error patterns
  (Figure 2's SDC partition, Section 4.3);
* :mod:`repro.analysis.relative_error` — FIT vs. accepted error margin
  (Figure 3, Section 4.4) and the mantissa-bit saturation argument;
* :mod:`repro.analysis.pvf` — Program Vulnerability Factor by outcome,
  fault model and time window (Figures 4-6);
* :mod:`repro.analysis.criticality` — portion-level criticality
  grading (Section 6's per-benchmark discussions);
* :mod:`repro.analysis.extrapolate` — Trinity/exascale MTBF
  projections (Section 4.2).
"""

from repro.analysis.criticality import (
    PortionReport,
    criticality_by_portion,
    portion_of_record,
)
from repro.analysis.extrapolate import (
    EXASCALE_BOARDS,
    TRINITY_BOARDS,
    MachineProjection,
    project_machine,
)
from repro.analysis.pvf import (
    outcome_shares,
    pvf,
    pvf_by_fault_model,
    pvf_by_window,
)
from repro.analysis.relative_error import (
    PAPER_TOLERANCES,
    fit_reduction_curve,
    mantissa_bits_within,
    surviving_fraction,
)
from repro.analysis.spatial import (
    ErrorPattern,
    classify_mask,
    classify_outputs,
    max_relative_error,
    wrong_mask,
)

__all__ = [
    "EXASCALE_BOARDS",
    "ErrorPattern",
    "MachineProjection",
    "PAPER_TOLERANCES",
    "PortionReport",
    "TRINITY_BOARDS",
    "classify_mask",
    "classify_outputs",
    "criticality_by_portion",
    "fit_reduction_curve",
    "mantissa_bits_within",
    "max_relative_error",
    "outcome_shares",
    "portion_of_record",
    "project_machine",
    "pvf",
    "pvf_by_fault_model",
    "pvf_by_window",
    "surviving_fraction",
    "wrong_mask",
]
