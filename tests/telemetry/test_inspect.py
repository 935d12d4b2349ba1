"""repro-inspect: artifact loading, report sections, strict mode."""

import io
import json

import pytest

from repro.telemetry.inspect import (
    build_monitor,
    convergence_curves,
    load_campaign,
    main,
    render_text,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.exporters import prometheus_text

OUTCOME_CYCLE = ("masked", "masked", "sdc", "due")


def make_record(run_index, benchmark="nw", fault_model="single"):
    return {
        "run_index": run_index,
        "benchmark": benchmark,
        "fault_model": fault_model,
        "outcome": OUTCOME_CYCLE[run_index % len(OUTCOME_CYCLE)],
        "time_window": run_index % 4,
    }


def write_campaign_dir(root, runs=32, shard_size=8, metrics=True, trace=True):
    """A synthetic checkpoint directory in the engine's artifact dialect."""
    root.mkdir(parents=True, exist_ok=True)
    records = [make_record(i) for i in range(runs)]
    with (root / "campaign.jsonl").open("w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    for shard, start in enumerate(range(0, runs, shard_size)):
        chunk = records[start : start + shard_size]
        with (root / f"shard-{shard:05d}.jsonl").open("w") as fh:
            fh.write(json.dumps({"kind": "header", "shard": shard}) + "\n")
            for record in chunk:
                fh.write(json.dumps({"kind": "record", "data": record}) + "\n")
            fh.write(json.dumps({"kind": "done", "count": len(chunk)}) + "\n")
    if trace:
        with (root / "trace.jsonl").open("w") as fh:
            for shard in range(runs // shard_size):
                fh.write(
                    json.dumps(
                        {
                            "kind": "span",
                            "name": "shard",
                            "dur_s": 1.0 + shard,
                            "attrs": {
                                "shard": shard,
                                "start": shard * shard_size,
                                "stop": (shard + 1) * shard_size,
                            },
                        }
                    )
                    + "\n"
                )
            fh.write(json.dumps({"kind": "span", "name": "campaign", "dur_s": 10.0}) + "\n")
    (root / "failures.jsonl").touch()
    if metrics:
        registry = MetricsRegistry()
        counter = registry.counter("repro_records_total")
        for record in records:
            counter.inc(outcome=record["outcome"])
        (root / "metrics.prom").write_text(prometheus_text(registry))
    return records


# -- loading -------------------------------------------------------------------


def test_load_campaign_joins_all_artifacts(tmp_path):
    records = write_campaign_dir(tmp_path / "ck")
    data = load_campaign(tmp_path / "ck")
    assert [r["run_index"] for r in data.records] == [r["run_index"] for r in records]
    assert data.shard_of[0] == 0 and data.shard_of[31] == 3
    assert len(data.spans) == 5
    assert data.metrics is not None
    assert data.corrupt_total == 0


def test_load_campaign_reconstructs_from_shards_alone(tmp_path):
    write_campaign_dir(tmp_path / "ck")
    (tmp_path / "ck" / "campaign.jsonl").unlink()
    data = load_campaign(tmp_path / "ck")
    assert [r["run_index"] for r in data.records] == list(range(32))


def test_load_campaign_accepts_bare_log_file(tmp_path):
    write_campaign_dir(tmp_path / "ck")
    data = load_campaign(tmp_path / "ck" / "campaign.jsonl")
    assert len(data.records) == 32


def test_corrupt_lines_surfaced_and_counted(tmp_path):
    write_campaign_dir(tmp_path / "ck")
    with (tmp_path / "ck" / "campaign.jsonl").open("a") as fh:
        fh.write("{not json\n")
        fh.write('{"also": "broken"\n')
    registry = MetricsRegistry()
    data = load_campaign(tmp_path / "ck", registry=registry)
    assert data.corrupt == {"campaign.jsonl": 2}
    counter = registry.counter("repro_corrupt_lines_total")
    samples = {labels.get("file"): value for labels, value in counter.items()}
    assert samples == {"campaign.jsonl": 2.0}


def test_jsonl_metrics_snapshot_supported(tmp_path):
    records = write_campaign_dir(tmp_path / "ck", metrics=False)
    registry = MetricsRegistry()
    counter = registry.counter("repro_records_total")
    for record in records:
        counter.inc(outcome=record["outcome"])
    snapshot = {"kind": "metrics", "metrics": registry.snapshot()}
    (tmp_path / "ck" / "metrics.json").write_text(json.dumps(snapshot) + "\n")
    data = load_campaign(tmp_path / "ck")
    by_outcome = data.metric_by_label("repro_records_total", "outcome")
    assert by_outcome == {"masked": 16.0, "sdc": 8.0, "due": 8.0}


# -- analysis helpers ----------------------------------------------------------


def test_build_monitor_recovers_shard_structure(tmp_path):
    write_campaign_dir(tmp_path / "ck")
    monitor = build_monitor(load_campaign(tmp_path / "ck"))
    assert monitor.cells() == [("nw", "single")]
    assert set(monitor.cell("nw", "single").shard_totals) == {0, 1, 2, 3}


def test_convergence_curves_monotone_tail():
    records = [make_record(i) for i in range(64)]
    curves = convergence_curves(records)
    xs, ys = curves[("nw", "single")]
    assert xs[-1] == 64
    assert ys[-1] < ys[0]
    assert convergence_curves([]) == {}


# -- text report ---------------------------------------------------------------


def test_render_text_sections(tmp_path):
    write_campaign_dir(tmp_path / "ck")
    data = load_campaign(tmp_path / "ck")
    text, problems = render_text([data])
    assert problems == []
    for needle in (
        "overview",
        "outcome matrix",
        "convergence",
        "span waterfall",
        "slowest shards",
        "cross-shard drift: none detected",
        "metrics reconciliation",
    ):
        assert needle in text, needle


def test_render_text_flags_reconciliation_mismatch(tmp_path):
    write_campaign_dir(tmp_path / "ck")
    registry = MetricsRegistry()
    registry.counter("repro_records_total").inc(1000, outcome="sdc")
    (tmp_path / "ck" / "metrics.prom").write_text(prometheus_text(registry))
    text, problems = render_text([load_campaign(tmp_path / "ck")])
    assert any("reconcile" in p for p in problems)
    assert "no" in text.splitlines()[-2] or "no" in text


# -- CLI -----------------------------------------------------------------------


def test_main_writes_report(tmp_path, capsys):
    write_campaign_dir(tmp_path / "ck")
    out = io.StringIO()
    code = main([str(tmp_path / "ck"), "--strict"], stream=out)
    assert code == 0
    assert "outcome matrix" in out.getvalue()


def test_main_reports_beam_and_hardened_checkpoint_dirs(tmp_path):
    """Their rows have no fault model or time window; the kind reads them."""
    from repro.beam.experiment import BeamConfig
    from repro.carolfi.campaign import run_campaign
    from repro.hardening.hardened import HardenedConfig

    small = {"n": 16, "block": 4}
    run_campaign(
        BeamConfig(benchmark="lud", trials=24, seed=3, benchmark_params=small),
        checkpoint_dir=tmp_path / "beam",
    )
    run_campaign(
        HardenedConfig(benchmark="lud", injections=24, seed=3, benchmark_params=small),
        checkpoint_dir=tmp_path / "hardened",
    )
    out = io.StringIO()
    code = main([str(tmp_path / "beam"), str(tmp_path / "hardened"), "--strict"], stream=out)
    report = out.getvalue()
    assert code == 0
    assert "[beam] outcome matrix" in report and "[hardened] outcome matrix" in report
    beam = load_campaign(tmp_path / "beam")
    assert len(beam.records) == 24 and len(set(beam.shard_of.values())) == 12
    assert build_monitor(beam).runs == 24


def test_hardened_matrix_rows_sum_to_one(tmp_path):
    """Detected and corrected runs get columns after masked, sdc and due."""
    from repro.carolfi.campaign import run_campaign
    from repro.hardening.hardened import HardenedConfig

    run_campaign(
        HardenedConfig(
            benchmark="nw", injections=40, seed=5, benchmark_params={"n": 16, "rows_per_step": 4}
        ),
        checkpoint_dir=tmp_path / "hardened",
    )
    monitor = build_monitor(load_campaign(tmp_path / "hardened"))
    rows = monitor.summary_rows()
    assert rows
    for row in rows:
        shares = [float(str(cell).split()[0]) for cell in row[3:]]
        assert sum(shares) == pytest.approx(1.0, abs=1e-3), row
    outcomes = monitor.outcomes()
    assert outcomes[:3] == ("masked", "sdc", "due") and "detected" in outcomes
    out = io.StringIO()
    assert main([str(tmp_path / "hardened")], stream=out) == 0
    header = next(line for line in out.getvalue().splitlines() if line.startswith("benchmark"))
    assert header.split()[-len(outcomes) :] == list(outcomes)
    # A CAROL-FI matrix keeps its three columns.
    write_campaign_dir(tmp_path / "ck")
    assert build_monitor(load_campaign(tmp_path / "ck")).outcomes() == ("masked", "sdc", "due")


def test_main_strict_fails_on_mismatch(tmp_path):
    write_campaign_dir(tmp_path / "ck")
    registry = MetricsRegistry()
    registry.counter("repro_records_total").inc(7, outcome="masked")
    (tmp_path / "ck" / "metrics.prom").write_text(prometheus_text(registry))
    assert main([str(tmp_path / "ck")], stream=io.StringIO()) == 0
    assert main([str(tmp_path / "ck"), "--strict"], stream=io.StringIO()) == 1


def test_main_diff_mode(tmp_path):
    write_campaign_dir(tmp_path / "a")
    write_campaign_dir(tmp_path / "b")
    out = io.StringIO()
    code = main([str(tmp_path / "a"), str(tmp_path / "b"), "--diff"], stream=out)
    assert code == 0
    assert "campaign diff" in out.getvalue()
    with pytest.raises(SystemExit):
        main([str(tmp_path / "a"), "--diff"], stream=io.StringIO())


def test_main_rejects_empty_campaign(tmp_path):
    (tmp_path / "empty").mkdir()
    assert main([str(tmp_path / "empty")], stream=io.StringIO()) == 2


def test_main_anytime_interval(tmp_path):
    write_campaign_dir(tmp_path / "ck")
    out = io.StringIO()
    assert main([str(tmp_path / "ck"), "--interval", "anytime"], stream=out) == 0
    assert "anytime" in out.getvalue()
