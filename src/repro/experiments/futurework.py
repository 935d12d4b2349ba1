"""The paper's future work: mitigation validation campaigns.

"In the future, we plan to implement the mitigation techniques based on
the radiation and fault injection analysis.  Then, we will validate
them with fault injection campaigns."  (Section 7.)

For each benchmark, rerun the CAROL-FI campaign against its hardened
variant (Section 6.1's recommended guards, plus ABFT output
verification for DGEMM) and compare outcome shares with the
unprotected Figure 4 baseline: how much SDC/DUE turns into detections
and corrections, and what the protection costs.  The hardened
campaigns come from :meth:`ExperimentData.hardened
<repro.experiments.data.ExperimentData.hardened>`, so they run with the
session's workers, checkpoints and isolation.  The cost column is a
deterministic work count, the KiB the guards verify per step, counted
on the runner's golden walk, which the campaign reads from the runner
its process already holds.  No wall clock measures it: a hardened run
makes only the one guard check that can trip, at its injected step,
so no run pays the per-step cost the column describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.pvf import outcome_shares
from repro.benchmarks.registry import INJECTION_BENCHMARKS
from repro.experiments.data import ExperimentData
from repro.hardening.hardened import HardenedCampaignResult
from repro.util.tables import format_table

__all__ = ["FutureWorkResult", "render", "run"]


@dataclass
class FutureWorkResult:
    """Unprotected vs hardened outcome shares per benchmark."""

    baseline: dict[str, dict[str, float]]
    hardened: dict[str, HardenedCampaignResult]

    def harmful_reduction(self, benchmark: str) -> float:
        """Fraction of the baseline SDC+DUE removed by the hardening."""
        base = self.baseline[benchmark]
        before = base["sdc"] + base["due"]
        after = self.hardened[benchmark].residual_harmful()
        if before <= 0:
            return 0.0
        return 1.0 - after / before


def run(data: ExperimentData) -> FutureWorkResult:
    baseline = {}
    hardened = {}
    for name in INJECTION_BENCHMARKS:
        baseline[name] = outcome_shares(data.injection(name).records)
        hardened[name] = data.hardened(name)
    return FutureWorkResult(baseline=baseline, hardened=hardened)


def render(result: FutureWorkResult) -> str:
    headers = [
        "benchmark",
        "base sdc %",
        "base due %",
        "hard sdc %",
        "hard due %",
        "detected %",
        "corrected %",
        "harm -%",
        "verify KiB/step",
    ]
    rows = []
    for name in sorted(result.hardened):
        base = result.baseline[name]
        campaign = result.hardened[name]
        shares = campaign.shares()
        rows.append(
            [
                name,
                100.0 * base["sdc"],
                100.0 * base["due"],
                100.0 * shares["sdc"],
                100.0 * shares["due"],
                100.0 * shares["detected"],
                100.0 * shares["corrected"],
                100.0 * result.harmful_reduction(name),
                campaign.verify_kib_per_step,
            ]
        )
    table = format_table(
        headers,
        rows,
        title="Future work (Section 7) — hardened-benchmark injection campaigns",
        floatfmt=".1f",
    )
    return (
        table
        + "\nguards: Section 6.1 recommendations (DWC on control/pointers, "
        "checksums on algebraic data, parity on NW's integer matrices, "
        "ABFT verify+correct on the DGEMM output)"
    )
