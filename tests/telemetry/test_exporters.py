"""Exporters: Prometheus text round-trip, JSONL snapshots, summary table."""

import math

import pytest

from repro.telemetry import Telemetry, TelemetryConfig
from repro.telemetry.exporters import (
    parse_prometheus_samples,
    parse_prometheus_series,
    parse_prometheus_text,
    prometheus_text,
    snapshot_record,
    summary_table,
    write_metrics_file,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.util.jsonlog import load_records_tolerant


def populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    runs = reg.counter("repro_runs_total", help="Completed runs by outcome.")
    runs.inc(outcome="masked")
    runs.inc(outcome="masked")
    runs.inc(outcome="sdc")
    reg.gauge("repro_shard_runs_done", help="Per-shard progress.").set(6, shard=0)
    reg.histogram("repro_run_duration_seconds", buckets=(0.1, 1.0)).observe(0.05)
    return reg


def test_prometheus_text_shape():
    text = prometheus_text(populated_registry())
    assert "# HELP repro_runs_total Completed runs by outcome." in text
    assert "# TYPE repro_runs_total counter" in text
    assert '\nrepro_runs_total{outcome="masked"} 2\n' in text
    assert "# TYPE repro_run_duration_seconds histogram" in text
    assert 'repro_run_duration_seconds_bucket{le="+Inf"} 1' in text
    assert "repro_run_duration_seconds_count 1" in text


def test_prometheus_round_trip():
    reg = populated_registry()
    parsed = parse_prometheus_text(prometheus_text(reg))
    assert parsed['repro_runs_total{outcome="masked"}'] == 2.0
    assert parsed['repro_runs_total{outcome="sdc"}'] == 1.0
    assert parsed['repro_shard_runs_done{shard="0"}'] == 6.0
    assert parsed['repro_run_duration_seconds_bucket{le="0.1"}'] == 1.0
    assert parsed['repro_run_duration_seconds_bucket{le="+Inf"}'] == 1.0
    assert parsed["repro_run_duration_seconds_sum"] == pytest.approx(0.05)


def test_prometheus_buckets_are_cumulative():
    reg = MetricsRegistry()
    h = reg.histogram("h", buckets=(1.0, 2.0))
    for v in (0.5, 1.5, 5.0):
        h.observe(v)
    parsed = parse_prometheus_text(prometheus_text(reg))
    assert parsed['h_bucket{le="1"}'] == 1.0
    assert parsed['h_bucket{le="2"}'] == 2.0
    assert parsed['h_bucket{le="+Inf"}'] == 3.0


def test_parse_rejects_malformed_sample():
    with pytest.raises(ValueError):
        parse_prometheus_text("metric_without_value\n")
    with pytest.raises(ValueError):
        parse_prometheus_text("m not-a-number\n")
    assert parse_prometheus_text("# just a comment\n\n") == {}
    assert parse_prometheus_text('x{le="+Inf"} +Inf\n')['x{le="+Inf"}'] == math.inf


def test_label_values_escaped():
    reg = MetricsRegistry()
    reg.counter("c").inc(detail='say "hi"\nback\\slash')
    text = prometheus_text(reg)
    assert '\\"hi\\"' in text and "\\n" in text and "\\\\slash" in text
    assert len(parse_prometheus_text(text)) == 1


def test_snapshot_record_and_jsonl_append(tmp_path):
    reg = populated_registry()
    record = snapshot_record(reg, campaign="nw")
    assert record["kind"] == "metrics"
    assert record["campaign"] == "nw"
    assert record["t_wall"] > 0 and record["t_mono"] > 0
    path = tmp_path / "metrics.jsonl"
    write_metrics_file(reg, path)
    write_metrics_file(reg, path)  # appends: a time series, not an overwrite
    records, skipped = load_records_tolerant(path)
    assert skipped == 0 and len(records) == 2
    restored = MetricsRegistry()
    restored.merge(records[-1]["metrics"])
    assert restored.counter_values() == reg.counter_values()


def test_write_metrics_file_prom_suffix(tmp_path):
    reg = populated_registry()
    path = write_metrics_file(reg, tmp_path / "deep" / "metrics.prom")
    assert path.exists()
    assert parse_prometheus_text(path.read_text(encoding="utf-8"))


def test_summary_table_lists_every_series():
    table = summary_table(populated_registry())
    assert "repro_runs_total" in table
    assert "outcome=masked" in table
    assert "n=1" in table  # histogram rendered as count + mean
    assert "repro_shard_runs_done" in table
    empty = summary_table(MetricsRegistry())
    assert "(no metrics recorded)" in empty


def test_telemetry_finalize_exports(tmp_path):
    tel = Telemetry(TelemetryConfig(metrics_path=tmp_path / "m.prom"))
    tel.registry.counter("c").inc()
    exported = tel.finalize()
    assert exported is not None
    assert parse_prometheus_text(exported.read_text(encoding="utf-8"))["c"] == 1.0
    disabled = Telemetry(enabled=False)
    assert disabled.finalize() is None


# -- exposition-format escaping (label values, HELP text) -----------------------


NASTY_VALUES = (
    'back\\slash',
    'quo"te',
    "new\nline",
    'all\\of"them\ntogether',
    "trailing\\",
    "",
)


def test_label_value_escaping_round_trips():
    reg = MetricsRegistry()
    counter = reg.counter("c", help="nasty labels")
    for value in NASTY_VALUES:
        counter.inc(path=value)
    samples = parse_prometheus_samples(prometheus_text(reg))
    parsed_values = {dict(labels)["path"] for (name, labels) in samples if name == "c"}
    assert parsed_values == set(NASTY_VALUES)
    assert all(v == 1.0 for v in samples.values())


def test_escaped_text_has_no_raw_newlines_inside_samples():
    reg = MetricsRegistry()
    reg.counter("c").inc(path="a\nb")
    text = prometheus_text(reg)
    sample_lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert sample_lines == [r'c{path="a\nb"} 1']


def test_help_text_newline_does_not_corrupt_samples():
    reg = MetricsRegistry()
    reg.counter("c", help="line one\nline two \\ slash").inc()
    text = prometheus_text(reg)
    assert "# HELP c line one\\nline two \\\\ slash" in text
    assert parse_prometheus_text(text)["c"] == 1.0


def test_parse_prometheus_series_plain_and_labeled():
    assert parse_prometheus_series("up") == ("up", {})
    name, labels = parse_prometheus_series('c{a="1",b="x y"}')
    assert name == "c" and labels == {"a": "1", "b": "x y"}
    with pytest.raises(ValueError):
        parse_prometheus_series('c{a="unterminated')
    with pytest.raises(ValueError):
        parse_prometheus_series('c{a=unquoted}')


def test_histogram_always_exports_inf_bucket():
    reg = MetricsRegistry()
    reg.histogram("h", buckets=(0.5, 2.0)).observe(10.0)  # beyond every bound
    parsed = parse_prometheus_text(prometheus_text(reg))
    assert parsed['h_bucket{le="+Inf"}'] == 1.0
    assert parsed['h_bucket{le="2"}'] == 0.0
    assert parsed["h_count"] == 1.0


def test_parse_prometheus_samples_unescapes_while_text_keys_do_not():
    reg = MetricsRegistry()
    reg.counter("c").inc(path='a"b')
    text = prometheus_text(reg)
    assert 'c{path="a\\"b"}' in parse_prometheus_text(text)
    assert (("c", (("path", 'a"b'),))) in parse_prometheus_samples(text)
