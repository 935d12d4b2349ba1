"""Mitigation techniques and selective-hardening evaluation.

Each technique the paper's Section 6.1 discussion (and its "future
work" plan) names has one executable form, run by the hardened
campaigns, and one model, its detection probability, replayed over
recorded campaigns:

* :mod:`repro.hardening.abft` — Huang-Abraham checksums for DGEMM's
  output (corrects single/line/random output patterns);
* :mod:`repro.hardening.guards` — runtime variable guards: DWC shadow
  copies, per-word parity and float checksums;
* :mod:`repro.hardening.hardened` — hardened campaigns, the guards and
  ABFT around CAROL-FI injections (the paper's Section 7);
* :mod:`repro.hardening.selective` — the paper's per-benchmark plans
  and each technique's detection probability by fault model;
* :mod:`repro.hardening.evaluate` — analytical coverage replay over
  injection and beam campaigns.
"""

from repro.hardening.guards import (
    FaultDetected,
    GuardKind,
    VariableGuard,
    build_guards,
    word_parity,
)
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
)
from repro.hardening.evaluate import (
    ABFT_CORRECTABLE_PATTERNS,
    CoverageReport,
    abft_beam_coverage,
    evaluate_plan,
)
from repro.hardening.selective import (
    RECOMMENDED_PLANS,
    HardeningPlan,
    Technique,
    detection_probability,
)

__all__ = [
    "ABFT_CORRECTABLE_PATTERNS",
    "FaultDetected",
    "GuardKind",
    "HardenedCampaignResult",
    "HardenedConfig",
    "HardenedRecord",
    "HardenedSupervisor",
    "VariableGuard",
    "build_guards",
    "run_hardened_campaign",
    "AbftOutcome",
    "AbftResult",
    "CoverageReport",
    "HardeningPlan",
    "RECOMMENDED_PLANS",
    "Technique",
    "abft_beam_coverage",
    "abft_check",
    "abft_checksums",
    "detection_probability",
    "evaluate_plan",
    "word_parity",
]
