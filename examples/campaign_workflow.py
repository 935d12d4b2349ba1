#!/usr/bin/env python
"""The artifact's experiment workflow, end to end (Appendix A.4).

The paper's artifact works in three moves: write a configuration file,
run the fault injector with it (plus a repetition count), then derive
the reported tables from the persisted logs.

This example does all three on the reproduction:

1. write an artifact-style CAROL-FI config file;
2. run it through the same entry point the ``repro-carolfi`` CLI uses;
3. re-read the JSONL log into typed records and re-derive the outcome
   shares, PVF per fault model and per-portion criticality from it
   alone.

Run:  python examples/campaign_workflow.py
"""

import tempfile
from pathlib import Path

from repro.analysis.criticality import criticality_by_portion
from repro.analysis.pvf import outcome_shares, pvf_by_fault_model
from repro.carolfi.configfile import run_from_config
from repro.faults.outcome import InjectionRecord, Outcome
from repro.util.jsonlog import load_records
from repro.util.tables import format_table

CONFIG_TEMPLATE = """
[carol-fi]
benchmark = lud
injections = 400
seed = 2017
fault_models = single, double, random, zero
policy = weighted
log = {log}

[benchmark.params]
n = 48
block = 4
"""


def main() -> None:
    # --- 1 + 2. config-file driven injection campaign -------------------------
    with tempfile.TemporaryDirectory() as tmp:
        log_path = Path(tmp) / "lud.jsonl"
        config_path = Path(tmp) / "lud.conf"
        config_path.write_text(CONFIG_TEMPLATE.format(log=log_path))
        print(f"running CAROL-FI from {config_path.name} (300 repetitions) ...")
        result = run_from_config(config_path, repetitions=300)
        shares = result.outcome_fractions()
        print(
            f"  outcomes: masked {shares['masked']:.1%}  "
            f"SDC {shares['sdc']:.1%}  DUE {shares['due']:.1%}"
        )

        # --- 3. everything again, from the log alone -------------------------
        records = [InjectionRecord.from_dict(raw) for raw in load_records(log_path)]
    assert [r.to_dict() for r in records] == [r.to_dict() for r in result.records]
    print(f"\nre-derived from the persisted log ({len(records)} records):")
    print("  outcomes: " + "  ".join(f"{k} {v:.1%}" for k, v in outcome_shares(records).items()))
    pvf = {o: pvf_by_fault_model(records, o) for o in (Outcome.SDC, Outcome.DUE)}
    rows = [[o.value, *(100 * e.value for e in by_model.values())] for o, by_model in pvf.items()]
    print(format_table(["PVF %", *pvf[Outcome.SDC]], rows, floatfmt=".1f"))
    portions = [
        [r.portion, r.injections, 100 * r.sdc.value, 100 * r.due.value]
        for r in criticality_by_portion(records)
    ]
    print(format_table(["portion", "faults", "sdc %", "due %"], portions, floatfmt=".1f"))


if __name__ == "__main__":
    main()
