"""Campaign driver and aggregations."""

import pytest

from repro.carolfi.campaign import CampaignConfig, run_campaign
from repro.faults.models import FaultModel
from repro.faults.outcome import InjectionRecord, Outcome
from repro.util.jsonlog import load_records


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(benchmark="dgemm", injections=0)
    with pytest.raises(ValueError):
        CampaignConfig(benchmark="dgemm", fault_models=())


def test_models_rotate_evenly(dgemm_campaign):
    by_model = dgemm_campaign.by_fault_model()
    counts = {m: len(v) for m, v in by_model.items()}
    assert set(counts) == {m.value for m in FaultModel.all()}
    assert max(counts.values()) - min(counts.values()) == 0  # 120 % 4 == 0


def test_outcome_fractions_sum_to_one(dgemm_campaign):
    fractions = dgemm_campaign.outcome_fractions()
    assert sum(fractions.values()) == pytest.approx(1.0)
    assert set(fractions) == {"masked", "sdc", "due"}


def test_count_consistency(dgemm_campaign):
    total = sum(dgemm_campaign.count(o) for o in Outcome.all())
    assert total == len(dgemm_campaign)


def test_by_time_window_covers_range(dgemm_campaign):
    windows = dgemm_campaign.by_time_window()
    assert set(windows) <= set(range(5))
    assert sum(len(v) for v in windows.values()) == len(dgemm_campaign)


def test_by_var_class_partitions(dgemm_campaign):
    classes = dgemm_campaign.by_var_class()
    assert sum(len(v) for v in classes.values()) == len(dgemm_campaign)
    assert "matrix" in classes


def test_campaign_deterministic():
    config = CampaignConfig(benchmark="nw", injections=30, seed=7)
    a = run_campaign(config)
    b = run_campaign(config)
    assert [r.to_dict() for r in a.records] == [r.to_dict() for r in b.records]


def test_campaign_seed_changes_results():
    a = run_campaign(CampaignConfig(benchmark="nw", injections=30, seed=7))
    b = run_campaign(CampaignConfig(benchmark="nw", injections=30, seed=8))
    assert [r.to_dict() for r in a.records] != [r.to_dict() for r in b.records]


def test_campaign_log_roundtrip(tmp_path):
    config = CampaignConfig(benchmark="lud", injections=25, seed=3)
    result = run_campaign(config, log_path=tmp_path / "lud.jsonl")
    loaded = [InjectionRecord.from_dict(raw) for raw in load_records(tmp_path / "lud.jsonl")]
    assert [r.to_dict() for r in loaded] == [r.to_dict() for r in result.records]


def test_benchmark_params_forwarded():
    config = CampaignConfig(
        benchmark="nw", injections=5, benchmark_params={"n": 16, "rows_per_step": 4}
    )
    result = run_campaign(config)
    assert all(r.total_steps == 4 for r in result.records)


def test_single_model_campaign():
    config = CampaignConfig(
        benchmark="nw", injections=12, fault_models=(FaultModel.ZERO,)
    )
    result = run_campaign(config)
    assert {r.fault_model for r in result.records} == {"zero"}
