"""The single-fault campaign log stays byte-identical to its fixture."""

import filecmp
from pathlib import Path

from repro.carolfi.campaign import CampaignConfig, run_campaign

FIXTURE = Path(__file__).parent.parent / "fixtures" / "smoke_dgemm_single_fault.jsonl"

FIXTURE_CONFIG = CampaignConfig(
    benchmark="dgemm",
    injections=24,
    seed=2017,
    benchmark_params={"n": 24, "n_threads": 6, "k_block": 8, "col_block": 3},
)


def test_single_fault_campaign_bytes_unchanged(tmp_path):
    """Regression cmp: the multi-fault refactor must not move a byte.

    The fixture was generated from the pre-refactor supervisor; any
    drift in RNG draw order, record fields or serialization shows up
    as a file mismatch.
    """
    log = tmp_path / "campaign.jsonl"
    run_campaign(FIXTURE_CONFIG, log_path=log)
    assert filecmp.cmp(log, FIXTURE, shallow=False), (
        "single-fault campaign log is no longer byte-identical to the "
        "pre-multi-fault fixture"
    )


def test_single_fault_campaign_bytes_unchanged_sharded(tmp_path):
    log = tmp_path / "campaign.jsonl"
    run_campaign(FIXTURE_CONFIG, log_path=log, workers=2)
    assert filecmp.cmp(log, FIXTURE, shallow=False)
