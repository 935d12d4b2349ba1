"""Range leases: one lease per free executor, shards kept as checkpoints.

The scheduler cuts a campaign's pending runs, at shard boundaries, into
one lease per free executor slot, while every shard still checkpoints,
resumes, feeds the convergence gate and is charged failures on its own.
These tests pin that split through real executors (inline and the local
pool): how many leases a campaign dispatches, what a lease that fails
past a shard boundary leaves behind, that checkpoint bytes equal a set
written when every shard was its own lease, that early stopping still
stops between shards, and that a shard checkpoint that cannot be
written mid-lease still ends the campaign.
"""

import filecmp
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from repro.carolfi.campaign import CampaignConfig, run_campaign
from repro.carolfi.engine import (
    FAILURE_LOG_NAME,
    RetryPolicy,
    plan_shards,
    shard_path,
)
from repro.faults.models import FaultModel
from repro.service import scheduler
from repro.telemetry import Telemetry, TelemetryConfig
from repro.util.jsonlog import load_records, load_records_tolerant

#: 32 runs over the default 16-shard plan: two runs per shard.
CONFIG = CampaignConfig(
    benchmark="nw",
    injections=32,
    seed=13,
    benchmark_params={"n": 16, "rows_per_step": 4},
)
#: ``CONFIG``'s checkpoint directory and campaign log, written by the
#: engine when every shard was leased on its own (16 leases).
FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "checkpoints_nw_seed13_n32"

FAST_RETRY = RetryPolicy(backoff_base_s=0.001, backoff_cap_s=0.002)


def traced(tmp_path, config, **kwargs):
    """Run ``config`` with tracing; its result, telemetry and spans."""
    tel = Telemetry(TelemetryConfig(trace_path=tmp_path / "trace.jsonl"))
    result = run_campaign(config, telemetry=tel, **kwargs)
    tel.finalize()
    spans = load_records(tmp_path / "trace.jsonl")
    return result, tel, spans


def executor_spans(spans):
    """The executor's ``shard`` spans: one per lease it ran."""
    return [s for s in spans if s["name"] == "shard"]


def is_complete(path):
    """Whether ``path`` is a whole shard checkpoint (header to footer)."""
    if not path.exists():
        return False
    rows = load_records(path)
    body = rows[1:-1]
    return bool(rows) and rows[-1] == {"kind": "done", "count": len(body)}


@pytest.mark.parametrize("workers, leases", [(1, 1), (2, 2)])
def test_failure_free_campaign_dispatches_one_lease_per_executor(tmp_path, workers, leases):
    assert len(plan_shards(CONFIG.injections)) == 16
    result, _tel, spans = traced(tmp_path, CONFIG, workers=workers)
    assert len(result.records) == CONFIG.injections
    ranges = sorted((s["attrs"]["start"], s["attrs"]["stop"]) for s in executor_spans(spans))
    assert len(ranges) == leases
    # The leases tile the campaign, cut at shard boundaries.
    assert ranges[0][0] == 0 and ranges[-1][1] == CONFIG.injections
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    boundaries = {spec.start for spec in plan_shards(CONFIG.injections)}
    assert all(start in boundaries for start, _stop in ranges)


def _chaos(failure, injections=32):
    params = {"n": 64, "steps": 6, "failure": failure}
    return CampaignConfig(
        benchmark="chaos", injections=injections, seed=5, benchmark_params=params
    )


def test_lease_failing_past_a_shard_boundary(tmp_path):
    """Runs 1, 26 and 28 raise.  With four-run shards, the lease that
    takes over at shard 1 (run 1's shard backs off) finishes shards 1-5
    and dies at run 26, in shard 6.  Only shard 6 is charged, shards 1-5
    are already checkpointed, and the re-lease starts at run 26, its
    first undelivered run."""
    ckpt = tmp_path / "ckpt"
    config = _chaos("oserror")
    shard_size = 4
    shard_count = config.injections // shard_size
    complete_at_retry = {}

    def progress(event):
        if event.event == "retried":
            complete_at_retry.setdefault(
                event.shard_index,
                {i for i in range(shard_count) if is_complete(shard_path(ckpt, i))},
            )

    result, tel, spans = traced(
        tmp_path,
        config,
        workers=1,
        shard_size=shard_size,
        retry=FAST_RETRY,
        checkpoint_dir=ckpt,
        progress=progress,
    )
    quarantined = {r.run_index for r in result.records if r.due_detail.startswith("sandbox:")}
    assert quarantined == {1, 26, 28}

    events = load_records_tolerant(ckpt / FAILURE_LOG_NAME)[0]
    errors = sorted((e["run"], e["shard"]) for e in events if e["event"] == "run_error")
    assert errors == [(1, 0), (1, 0), (26, 6), (26, 6), (28, 7), (28, 7)]
    # The lease that died at run 26 started at shard 1 and spanned past it.
    died = [s for s in executor_spans(spans) if s["attrs"]["start"] == shard_size]
    assert len(died) == 1 and died[0]["attrs"]["stop"] == config.injections
    assert died[0].get("error") == "ShardRunError"
    # Only shard 6 was charged for it, and the shards that lease
    # finished before it failed were already checkpointed by then.
    assert {1, 2, 3, 4, 5} <= complete_at_retry[6]
    assert set(complete_at_retry) == {0, 6, 7}
    # Re-leased from the first undelivered run, so no run is executed
    # twice: executions equal records.
    assert 26 in {s["attrs"]["start"] for s in executor_spans(spans)}
    executions = sum(tel.registry.counter_values()["repro_runs_total"].values())
    assert executions == len(result.records) == config.injections
    assert all(is_complete(shard_path(ckpt, i)) for i in range(shard_count))


def _assert_matches_fixture(directory):
    names = sorted(p.name for p in FIXTURE.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(FIXTURE, directory, names, shallow=False)
    assert (mismatch, errors) == ([], [])
    assert sorted(match) == names


def test_pooled_batched_checkpoints_equal_single_shard_lease_set(tmp_path):
    ckpt = tmp_path / "ckpt"
    run_campaign(
        replace(CONFIG, batch_size=8),
        workers=2,
        checkpoint_dir=ckpt,
        log_path=ckpt / "campaign.jsonl",
    )
    _assert_matches_fixture(ckpt)


def test_fixture_checkpoint_directory_resumes(tmp_path):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(FIXTURE, ckpt)
    (ckpt / "campaign.jsonl").unlink()
    for index in (3, 4, 11):
        shard_path(ckpt, index).unlink()
    events = []
    run_campaign(
        replace(CONFIG, batch_size=8),
        workers=2,
        checkpoint_dir=ckpt,
        log_path=ckpt / "campaign.jsonl",
        progress=events.append,
    )
    assert {e.shard_index for e in events if e.event == "finished"} == {3, 4, 11}
    assert len([e for e in events if e.event == "replayed"]) == 13
    _assert_matches_fixture(ckpt)


#: One statistical cell so the loose target converges inside 24 runs.
STOP_CONFIG = CampaignConfig(
    benchmark="nw",
    injections=24,
    seed=13,
    fault_models=(FaultModel.SINGLE,),
    benchmark_params={"n": 16, "rows_per_step": 4},
    target_ci=0.45,
)


@pytest.mark.parametrize("workers", [1, 2])
def test_target_ci_keeps_leases_one_shard_wide(tmp_path, workers):
    shard_size = 6
    result, tel, spans = traced(tmp_path, STOP_CONFIG, workers=workers, shard_size=shard_size)
    assert result.stopped_early and len(result.records) == 2 * shard_size
    for span in executor_spans(spans):
        start, stop = span["attrs"]["start"], span["attrs"]["stop"]
        assert start % shard_size == 0 and stop - start == shard_size
    executions = sum(tel.registry.counter_values()["repro_runs_total"].values())
    if workers == 1:
        # Serially nothing runs past the stop point.
        assert executions == len(result.records)
    else:
        # A pool may have started the next shard; the lease that
        # completed the stop shard is drained, never cut short.
        assert executions >= len(result.records)


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_groups_nest_in_the_executor_span(tmp_path, workers):
    config = replace(CONFIG, injections=48, batch_size=8)
    _result, _tel, spans = traced(tmp_path, config, workers=workers, shard_size=8)
    by_id = {s["span"]: s for s in spans}
    groups = [s for s in spans if s["name"] == "batch_group"]
    assert groups
    # The executor span covers its batch pass: every group is its child.
    assert {by_id[s["parent"]]["name"] for s in groups} == {"shard"}


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_checkpoint_write_aborts_the_campaign(tmp_path, monkeypatch, workers):
    """A shard checkpoint written mid-lease that cannot be written ends
    the campaign with the write's error, as it did when shards finished
    only between leases; it is not mistaken for a failed lease."""
    written = []

    def write_once(path, *args):
        if written:
            raise OSError("disk full")
        written.append(path)

    monkeypatch.setattr(scheduler, "write_shard_checkpoint", write_once)
    with pytest.raises(OSError, match="disk full"):
        run_campaign(CONFIG, workers=workers, checkpoint_dir=tmp_path / "ckpt")
    assert len(written) == 1
