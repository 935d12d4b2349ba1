"""Metrics registry: instruments, wire-format merging, null registry."""

import pytest

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
)


def test_counter_accumulates_by_label():
    reg = MetricsRegistry()
    runs = reg.counter("repro_runs_total")
    runs.inc(outcome="masked")
    runs.inc(outcome="masked")
    runs.inc(outcome="sdc")
    runs.inc(3.0, outcome="due")
    assert runs.value(outcome="masked") == 2.0
    assert runs.value(outcome="sdc") == 1.0
    assert runs.value(outcome="due") == 3.0
    assert runs.value(outcome="never-seen") == 0.0
    assert runs.total() == 6.0


def test_counter_rejects_negative_increment():
    with pytest.raises(ValueError):
        MetricsRegistry().counter("c").inc(-1.0)


def test_registry_get_or_create_is_idempotent_and_type_checked():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_gauge_last_write_wins():
    reg = MetricsRegistry()
    g = reg.gauge("repro_shard_runs_done")
    g.set(3, shard=0)
    g.set(5, shard=0)
    g.set(2, shard=1)
    assert g.value(shard=0) == 5.0
    assert g.value(shard=1) == 2.0


def test_histogram_buckets_sum_count():
    reg = MetricsRegistry()
    h = reg.histogram("d", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 0.5, 5.0, 50.0):
        h.observe(v)
    assert h.count() == 5
    assert h.sum() == pytest.approx(56.05)
    wire = h.to_wire()
    ((_, slot),) = wire["values"]
    assert slot["buckets"] == [1, 2, 1, 1]  # last slot is +Inf


def test_histogram_rejects_bad_buckets():
    with pytest.raises(ValueError):
        Histogram("h", buckets=())
    with pytest.raises(ValueError):
        Histogram("h", buckets=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("h", buckets=(1.0, 1.0))


def test_drain_delta_merges_exactly_once():
    worker, engine = MetricsRegistry(), MetricsRegistry()
    c = worker.counter("repro_runs_total", help="runs")
    c.inc(outcome="masked")
    first = worker.drain_delta()
    engine.merge(first)
    # Nothing new: the delta buffer was cleared, nothing to ship.
    assert worker.drain_delta() == {}
    c.inc(outcome="masked")
    engine.merge(worker.drain_delta())
    assert engine.counter("repro_runs_total").value(outcome="masked") == 2.0
    # Totals on the worker side are untouched by draining.
    assert c.value(outcome="masked") == 2.0


def test_merge_matches_serial_totals_across_workers():
    """N worker registries merged == one registry fed the same stream."""
    serial = MetricsRegistry()
    engine = MetricsRegistry()
    workers = [MetricsRegistry() for _ in range(3)]
    observations = [(i, 0.01 * (i + 1)) for i in range(12)]
    for i, duration in observations:
        serial.counter("runs").inc(outcome="masked" if i % 2 else "sdc")
        serial.histogram("dur").observe(duration)
        w = workers[i % 3]
        w.counter("runs").inc(outcome="masked" if i % 2 else "sdc")
        w.histogram("dur").observe(duration)
    for w in workers:
        engine.merge(w.drain_delta())
    assert engine.counter_values() == serial.counter_values()
    assert engine.histogram("dur").count() == serial.histogram("dur").count()
    assert engine.histogram("dur").sum() == pytest.approx(serial.histogram("dur").sum())


def test_merge_gauge_keeps_latest_value():
    engine = MetricsRegistry()
    w = MetricsRegistry()
    w.gauge("done").set(3, shard=0)
    engine.merge(w.drain_delta())
    w.gauge("done").set(6, shard=0)
    engine.merge(w.drain_delta())
    assert engine.gauge("done").value(shard=0) == 6.0


def test_merge_histogram_bucket_mismatch_is_loud():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
    b.histogram("h", buckets=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        b.merge(a.snapshot())


def test_merge_rejects_unknown_kind():
    with pytest.raises(ValueError):
        MetricsRegistry().merge({"x": {"kind": "summary", "values": []}})


def test_snapshot_round_trips_through_json():
    import json

    reg = MetricsRegistry()
    reg.counter("c", help="a counter").inc(outcome="sdc")
    reg.gauge("g").set(7, shard=2)
    reg.histogram("h").observe(0.2)
    restored = MetricsRegistry()
    restored.merge(json.loads(json.dumps(reg.snapshot())))
    assert restored.counter_values() == reg.counter_values()
    assert restored.gauge("g").value(shard=2) == 7.0
    assert restored.histogram("h").count() == 1


def test_null_registry_is_inert():
    assert not NULL_REGISTRY.enabled
    c = NULL_REGISTRY.counter("anything")
    c.inc(outcome="sdc")
    assert c.value(outcome="sdc") == 0.0
    assert list(c.items()) == []
    NULL_REGISTRY.gauge("g").set(5)
    NULL_REGISTRY.histogram("h").observe(1.0)
    NULL_REGISTRY.merge({"x": {"kind": "counter", "values": []}})
    assert NULL_REGISTRY.counter_values() == {}


def test_default_buckets_cover_run_and_shard_scales():
    assert DEFAULT_BUCKETS[0] <= 0.001
    assert DEFAULT_BUCKETS[-1] >= 600.0
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


def test_counter_values_shape():
    reg = MetricsRegistry()
    reg.counter("plain").inc()
    reg.counter("labelled").inc(kind="crash", shard="0")
    assert reg.counter_values() == {
        "plain": {"": 1.0},
        "labelled": {"kind=crash,shard=0": 1.0},
    }
    assert isinstance(reg.counter("plain"), Counter)
