"""Selective hardening policies (paper Section 6.1).

The whole point of CAROL-FI's criticality grading is to protect *only*
what matters: "we can evaluate the most critical code portions, fault
models, and time windows for each class of application and apply the
most appropriate level of protection to provide the desired level of
resilience."  This module encodes the paper's per-benchmark
recommendations and the model of each technique: the probability that
it detects a fault of each model, which the mitigation experiment
replays over CAROL-FI records (:mod:`repro.hardening.evaluate`).  The
techniques a campaign can execute run as the guards of
:mod:`repro.hardening.guards`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.faults.models import FaultModel

__all__ = [
    "HardeningPlan",
    "RECOMMENDED_PLANS",
    "Technique",
    "detection_probability",
]


class Technique(str, enum.Enum):
    """Software/hardware mitigation techniques discussed by the paper."""

    ABFT = "abft"
    RESIDUE_MOD3 = "residue_mod3"
    RESIDUE_MOD15 = "residue_mod15"
    DWC = "duplication_with_comparison"
    PARITY = "parity"
    RMT = "redundant_multithreading"


def _residue_detection(modulus: int, flipped_bits: int) -> float:
    """Share of the 1- or 2-bit flips of a 64-bit word that change its
    residue mod ``modulus``, counted over every choice of bit positions.

    A flip changes the value by ``delta`` (±2^b per bit, both signs for
    two bits), and escapes the check when ``delta % modulus == 0``.
    """
    if flipped_bits == 1:
        deltas = [1 << b for b in range(64)]
    else:
        pairs = [(1 << hi, 1 << lo) for hi in range(64) for lo in range(hi)]
        deltas = [hi + lo for hi, lo in pairs] + [hi - lo for hi, lo in pairs]
    return sum(delta % modulus != 0 for delta in deltas) / len(deltas)


def detection_probability(technique: Technique, model: FaultModel | str) -> float:
    """P(detect | fault of ``model`` lands in state protected by ``technique``).

    Single-bit flips are always caught by residues mod 3/15 (powers of
    two are never multiples of 3 or 15) and by parity; Double escapes
    parity entirely; Random/Zero are what residue catches and ECC
    cannot — the paper's argument for residue over ECC on algebraic
    codes.
    """
    model = FaultModel(model)
    if technique in (Technique.DWC, Technique.RMT):
        return 1.0
    if technique is Technique.PARITY:
        if model is FaultModel.SINGLE:
            return 1.0  # odd multiplicity flips the parity bit
        if model is FaultModel.DOUBLE:
            return 0.0  # even multiplicity leaves it unchanged
        return 0.5  # random/zero: final parity matches half the time
    if technique in (Technique.RESIDUE_MOD3, Technique.RESIDUE_MOD15):
        modulus = 3 if technique is Technique.RESIDUE_MOD3 else 15
        if model is FaultModel.SINGLE:
            return _residue_detection(modulus, 1)
        if model is FaultModel.DOUBLE:
            return _residue_detection(modulus, 2)
        return 1.0 - 1.0 / modulus
    if technique is Technique.ABFT:
        # Output-checksum verification catches any value change; the
        # correction capability depends on the spatial pattern and is
        # handled by the evaluator.
        return 1.0
    raise ValueError(f"unknown technique {technique!r}")  # pragma: no cover


@dataclass
class HardeningPlan:
    """Technique assignment per code portion of one benchmark."""

    benchmark: str
    assignments: dict[str, Technique] = field(default_factory=dict)
    rationale: str = ""

    def technique_for(self, portion: str) -> Technique | None:
        return self.assignments.get(portion)


#: The paper's Section 6 / 6.1 recommendations, verbatim in structure.
RECOMMENDED_PLANS: dict[str, HardeningPlan] = {
    "dgemm": HardeningPlan(
        "dgemm",
        {
            "matrices": Technique.RESIDUE_MOD15,
            "control": Technique.DWC,
        },
        rationale=(
            "Residue module check catches logic errors that update the "
            "matrices; selective duplication protects the replicated "
            "loop-control integers."
        ),
    ),
    "lud": HardeningPlan(
        "lud",
        {
            "matrices": Technique.RESIDUE_MOD15,
            "control": Technique.DWC,
        },
        rationale=(
            "Residue check for matrix operations plus redundant "
            "multithreading or duplication-with-comparison on control "
            "variables; a heavier technique mid-run where the time-window "
            "PVF peaks."
        ),
    ),
    "hotspot": HardeningPlan(
        "hotspot",
        {
            "constant+control": Technique.DWC,
        },
        rationale=(
            "The algorithm attenuates data errors intrinsically, so simple "
            "replication of the sensitive constants/control variables gives "
            "the best performance/reliability ratio."
        ),
    ),
    "clamr": HardeningPlan(
        "clamr",
        {
            "sort": Technique.RMT,
            "tree": Technique.RMT,
        },
        rationale=(
            "Sort and Tree operations cause the majority of harmful "
            "outcomes; redundant multithreading on just those functions "
            "improves resilience at fair overhead and lets checkpoint "
            "frequency drop."
        ),
    ),
    "nw": HardeningPlan(
        "nw",
        {
            "matrices": Technique.PARITY,
        },
        rationale=(
            "Single faults are the critical ones for NW's integer "
            "matrices, so one parity bit per word detects most SDCs."
        ),
    ),
    "lavamd": HardeningPlan(
        "lavamd",
        {
            "charge+distance": Technique.RMT,
            "force": Technique.RMT,
        },
        rationale=(
            "Most of the exposed memory is likely to generate an SDC or "
            "DUE; without an algorithm-specific technique, generic modular "
            "replication (approximately 2x time/energy) is required."
        ),
    ),
}
