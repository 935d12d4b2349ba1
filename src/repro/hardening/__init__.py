"""Mitigation techniques and selective-hardening evaluation.

Implements the techniques the paper's Section 6.1 discussion (and its
"future work" plan) names, plus the machinery to evaluate them against
recorded campaigns:

* :mod:`repro.hardening.abft` — Huang-Abraham checksum matmul
  (corrects single/line/random output patterns);
* :mod:`repro.hardening.residue` — mod-3 / mod-15 residue codes
  (catch Random/Zero and logic faults ECC cannot);
* :mod:`repro.hardening.dwc` — selective duplication with comparison;
* :mod:`repro.hardening.parity` — per-word parity (NW's single-fault
  profile);
* :mod:`repro.hardening.rmt` — redundant execution;
* :mod:`repro.hardening.selective` — per-benchmark plans and the
  criticality-driven recommender;
* :mod:`repro.hardening.evaluate` — analytical coverage replay over
  injection and beam campaigns.
"""

from repro.hardening.checkpoint import CheckpointRun, run_with_checkpoints
from repro.hardening.guards import FaultDetected, GuardKind, VariableGuard, build_guards
from repro.hardening.hardened import (
    HardenedCampaignResult,
    HardenedConfig,
    HardenedRecord,
    HardenedSupervisor,
    run_hardened_campaign,
)
from repro.hardening.abft import (
    AbftOutcome,
    AbftResult,
    abft_check,
    abft_checksums,
    abft_matmul,
)
from repro.hardening.dwc import DuplicatedVariable, DwcMismatch
from repro.hardening.evaluate import (
    ABFT_CORRECTABLE_PATTERNS,
    CoverageReport,
    abft_beam_coverage,
    evaluate_plan,
)
from repro.hardening.parity import ParityMismatch, ParityProtected, word_parity
from repro.hardening.residue import ResidueChecker, ResidueMismatch
from repro.hardening.rmt import RedundantRunResult, redundant_run
from repro.hardening.selective import (
    RECOMMENDED_PLANS,
    HardeningPlan,
    Technique,
    detection_probability,
    recommend_plan,
)

__all__ = [
    "ABFT_CORRECTABLE_PATTERNS",
    "CheckpointRun",
    "FaultDetected",
    "GuardKind",
    "HardenedCampaignResult",
    "HardenedConfig",
    "HardenedRecord",
    "HardenedSupervisor",
    "VariableGuard",
    "build_guards",
    "run_hardened_campaign",
    "run_with_checkpoints",
    "AbftOutcome",
    "AbftResult",
    "CoverageReport",
    "DuplicatedVariable",
    "DwcMismatch",
    "HardeningPlan",
    "ParityMismatch",
    "ParityProtected",
    "RECOMMENDED_PLANS",
    "RedundantRunResult",
    "ResidueChecker",
    "ResidueMismatch",
    "Technique",
    "abft_beam_coverage",
    "abft_check",
    "abft_checksums",
    "abft_matmul",
    "detection_probability",
    "evaluate_plan",
    "recommend_plan",
    "redundant_run",
    "word_parity",
]
