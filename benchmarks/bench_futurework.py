"""Section 7 (future work) — hardened-benchmark injection campaigns.

Times one hardened injection test and regenerates the validation table:
unprotected vs hardened outcome shares, detection/correction rates and
the KiB the guards verify per step for every benchmark.
"""

from repro.benchmarks.registry import create
from repro.experiments import futurework
from repro.faults.models import FaultModel
from repro.hardening.hardened import HardenedSupervisor

from _artifacts import register_artifact


def test_futurework_reproduction(benchmark, data):
    result = futurework.run(data)
    register_artifact("futurework", futurework.render(result))
    # Timed unit: one hardened injection against DGEMM.
    supervisor = HardenedSupervisor(create("dgemm"), seed=77)
    counter = iter(range(10**9))
    benchmark(lambda: supervisor.run_one(next(counter), FaultModel.RANDOM))

    for name, campaign in result.hardened.items():
        base = result.baseline[name]
        residual = campaign.residual_harmful()
        before = base["sdc"] + base["due"]
        # Hardening never makes things worse...
        assert residual <= before + 0.05, name
        # ...and removes a meaningful share of the harm everywhere but
        # LavaMD, whose exposed data needs full modular replication —
        # exactly the paper's "biggest challenge" verdict (Section 6).
        if before > 0.1 and name != "lavamd":
            assert result.harmful_reduction(name) > 0.2, name
    assert result.harmful_reduction("lavamd") < 0.5  # guards alone cannot fix it
