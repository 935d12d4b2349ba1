#!/usr/bin/env python
"""Selective hardening on LUD: the Section 6.1 prediction next to the
Section 7 measurement.

1. Run an injection campaign against LUD and grade its code portions.
2. Predict what the paper's recommended plan (residue mod 15 on the
   matrices, duplication-with-comparison on the control variables)
   detects, from each technique's detection probability per fault
   model.
3. Measure it: a hardened campaign injects the same number of faults
   into LUD wrapped in its runtime guards (a checksum on the matrix,
   DWC on the control and pointer variables) and counts what they
   detect, what still ends as an SDC or DUE, and what the guards cost.
4. Demonstrate the ABFT building block correcting a corrupted matrix
   product.

Run:  python examples/selective_hardening.py
"""

import numpy as np

from repro.analysis import criticality_by_portion, outcome_shares
from repro.carolfi import CampaignConfig, run_campaign
from repro.hardening import (
    RECOMMENDED_PLANS,
    abft_check,
    abft_checksums,
    evaluate_plan,
    run_hardened_campaign,
)
from repro.util.rng import derive_rng
from repro.util.tables import format_table

INJECTIONS = 400


def main() -> None:
    print(f"injecting {INJECTIONS} faults into lud ...")
    result = run_campaign(CampaignConfig(benchmark="lud", injections=INJECTIONS, seed=11))

    print()
    rows = [
        [r.portion, r.injections, 100.0 * r.sdc.value, 100.0 * r.due.value]
        for r in criticality_by_portion(result.records)
    ]
    print(format_table(["portion", "faults", "SDC %", "DUE %"], rows, floatfmt=".1f"))

    # --- Section 6.1 prediction vs Section 7 measurement ---------------------
    plan = RECOMMENDED_PLANS["lud"]
    predicted = evaluate_plan(result.records, plan)
    protected = ", ".join(f"{portion}: {t.value}" for portion, t in plan.assignments.items())
    print(f"\n§6.1 plan for lud ({protected}): {plan.rationale}")
    print(f"\ninjecting {INJECTIONS} faults into hardened lud ...")
    hardened = run_hardened_campaign("lud", injections=INJECTIONS, seed=11)
    base = outcome_shares(result.records)
    before = base["sdc"] + base["due"]
    after = hardened.residual_harmful()
    shares = hardened.shares()
    print()
    print(
        format_table(
            [
                "lud",
                "covered %",
                "detected %",
                "corrected %",
                "SDC+DUE %",
                "harm -%",
                "verify KiB/step",
                "guard bytes",
            ],
            [
                [
                    "§6.1 plan, predicted",
                    100.0 * predicted.coverage_fraction,
                    100.0 * predicted.expected_detection_fraction,
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                ],
                [
                    "§7 guards, measured",
                    "-",
                    100.0 * shares["detected"],
                    100.0 * shares["corrected"],
                    100.0 * after,
                    100.0 * (1.0 - after / before),
                    hardened.verify_kib_per_step,
                    hardened.guard_bytes,
                ],
            ],
            title="Section 6.1 prediction vs Section 7 measurement",
            floatfmt=".1f",
        )
    )
    print(
        "predicted % are of the unprotected campaign's harmful faults, "
        "measured % of the hardened campaign's runs"
    )
    print(
        "the two are independent samples: the hardened runs draw their "
        'faults from their own stream, keyed "hardened"'
    )

    # --- ABFT demo -----------------------------------------------------------
    rng = derive_rng(3, "abft-demo")
    a = rng.standard_normal((24, 24))
    b = rng.standard_normal((24, 24))
    c = a @ b
    row_check, col_check = abft_checksums(a, b)
    c[5, 17] += 3.0  # a beam strike lands in the output tile
    verdict = abft_check(c, row_check, col_check)
    fixed = np.allclose(verdict.matrix, a @ b, atol=1e-8)
    print(
        f"\nABFT demo: corrupted C[5,17] -> outcome={verdict.outcome.value}, "
        f"corrections={verdict.corrections}, matches A@B again: {fixed}"
    )


if __name__ == "__main__":
    main()
