"""Ambient telemetry: activate scoping and the Telemetry bundle."""

from repro.telemetry import (
    DISABLED,
    NOOP_TRACER,
    NULL_REGISTRY,
    Telemetry,
    TelemetryConfig,
    activate,
    current_registry,
    current_tracer,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Tracer
from repro.util.jsonlog import load_records_tolerant


def test_ambient_defaults_are_disabled():
    assert current_registry() is NULL_REGISTRY
    assert current_tracer() is NOOP_TRACER


def test_activate_scopes_and_restores():
    reg, tracer = MetricsRegistry(), Tracer(lambda r: None)
    with activate(reg, tracer):
        assert current_registry() is reg
        assert current_tracer() is tracer
        inner = MetricsRegistry()
        with activate(inner, NOOP_TRACER):
            assert current_registry() is inner
        assert current_registry() is reg
    assert current_registry() is NULL_REGISTRY


def test_activate_restores_on_exception():
    reg = MetricsRegistry()
    try:
        with activate(reg, NOOP_TRACER):
            raise RuntimeError
    except RuntimeError:
        pass
    assert current_registry() is NULL_REGISTRY


def test_disabled_bundle_is_zero_cost():
    assert not DISABLED.enabled
    assert DISABLED.registry is NULL_REGISTRY
    assert DISABLED.tracer is NOOP_TRACER
    assert not DISABLED.tracing
    assert not DISABLED.shard_telemetry().enabled
    with DISABLED.activate():
        assert current_registry() is NULL_REGISTRY


def test_bundle_metrics_off_trace_on(tmp_path):
    tel = Telemetry(TelemetryConfig(metrics=False, trace_path=tmp_path / "t.jsonl"))
    assert tel.registry is NULL_REGISTRY
    assert tel.tracing
    shard = tel.shard_telemetry()
    assert shard.trace and not shard.metrics
    with tel.tracer.span("phase"):
        pass
    tel.finalize()
    records, skipped = load_records_tolerant(tmp_path / "t.jsonl")
    assert skipped == 0 and [r["name"] for r in records] == ["phase"]


def test_bundle_starts_its_trace_file_once(tmp_path):
    """Two bundles in turn on one path leave one trace: a bundle empties
    the file at its first span, and its later spans, also those after
    ``finalize``, append."""
    path = tmp_path / "t.jsonl"
    for _ in range(2):
        tel = Telemetry(TelemetryConfig(trace_path=path))
        with tel.tracer.span("campaign"):
            pass
        tel.finalize()
    with tel.tracer.span("late"):
        pass
    tel.finalize()
    records, skipped = load_records_tolerant(path)
    assert skipped == 0 and [r["name"] for r in records] == ["campaign", "late"]
    assert len({r["trace"] for r in records}) == 1


def test_bundle_context_manager_finalizes(tmp_path):
    path = tmp_path / "m.prom"
    with Telemetry(TelemetryConfig(metrics_path=path)) as tel:
        tel.registry.counter("c").inc()
    assert path.exists()


def test_shard_telemetry_carries_span_context(tmp_path):
    tel = Telemetry(TelemetryConfig(trace_path=tmp_path / "t.jsonl"))
    with tel.tracer.span("campaign") as span:
        shard = tel.shard_telemetry()
        assert shard.context is not None
        assert shard.context.trace_id == tel.tracer.trace_id
        assert shard.context.span_id == span.span_id
    tel.finalize()
