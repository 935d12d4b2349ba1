"""repro.telemetry — campaign observability subsystem.

FINJ-style injection tooling treats monitoring and structured log
collection as a first-class subsystem, not an afterthought; this
package is that subsystem for the reproduction's campaigns:

* :mod:`repro.telemetry.metrics` — fork-safe counters, gauges and
  fixed-bucket histograms; workers accumulate locally, the engine
  merges deltas shipped over its existing heartbeat pipe;
* :mod:`repro.telemetry.spans` — phase-timing spans with cross-process
  propagation, emitted as ``trace.jsonl``;
* :mod:`repro.telemetry.progress` — periodic one-line campaign status
  rendered from the merged metrics;
* :mod:`repro.telemetry.exporters` — Prometheus text, JSONL snapshots,
  and a ``util.tables`` summary;
* :mod:`repro.telemetry.clock` — wall/monotonic timestamp pairs used
  by every telemetry event.

:class:`Telemetry` bundles one registry + tracer + output configuration
for a campaign run; :data:`DISABLED` is the zero-cost off switch (null
registry, no-op tracer), and the module-level :func:`current_registry`
/ :func:`current_tracer` give deep code (the Supervisor, benchmark
guards) access to whatever telemetry the enclosing engine activated —
without threading a handle through every call signature.

Telemetry never draws from the campaign's RNG streams and never feeds
back into execution, so enabling it cannot change a single record.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Iterator

from repro.telemetry.clock import stamp
from repro.telemetry.convergence import (
    CellStats,
    ConvergenceMonitor,
    DriftFlag,
    PVF_OUTCOMES,
)
from repro.telemetry.exporters import (
    append_snapshot,
    parse_prometheus_samples,
    parse_prometheus_series,
    parse_prometheus_text,
    prometheus_text,
    snapshot_record,
    summary_table,
    write_metrics_file,
)
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from repro.telemetry.progress import NOOP_REPORTER, NoopReporter, ProgressReporter
from repro.telemetry.spans import NOOP_TRACER, NoopTracer, Span, SpanContext, Tracer
from repro.util.jsonlog import JsonlLog

__all__ = [
    "CellStats",
    "ConvergenceMonitor",
    "Counter",
    "DEFAULT_BUCKETS",
    "DISABLED",
    "DriftFlag",
    "Gauge",
    "Histogram",
    "JsonlLog",
    "MetricsRegistry",
    "PVF_OUTCOMES",
    "NOOP_REPORTER",
    "NOOP_TRACER",
    "NULL_REGISTRY",
    "NoopReporter",
    "NoopTracer",
    "NullRegistry",
    "ProgressReporter",
    "ShardTelemetry",
    "Span",
    "SpanContext",
    "Telemetry",
    "TelemetryConfig",
    "Tracer",
    "WorkerTelemetry",
    "activate",
    "append_snapshot",
    "current_registry",
    "current_tracer",
    "deactivate",
    "parse_prometheus_samples",
    "parse_prometheus_series",
    "parse_prometheus_text",
    "prometheus_text",
    "snapshot_record",
    "stamp",
    "summary_table",
    "write_metrics_file",
]


# -- ambient telemetry ---------------------------------------------------------

_REGISTRY: MetricsRegistry = NULL_REGISTRY
_TRACER: Any = NOOP_TRACER


def current_registry() -> MetricsRegistry:
    """The metrics registry of the innermost :func:`activate` scope."""
    return _REGISTRY


def current_tracer() -> Any:
    """The tracer of the innermost :func:`activate` scope."""
    return _TRACER


@contextmanager
def activate(registry: MetricsRegistry, tracer: Any) -> Iterator[None]:
    """Make ``registry``/``tracer`` ambient for the duration of the block."""
    global _REGISTRY, _TRACER
    previous = (_REGISTRY, _TRACER)
    _REGISTRY, _TRACER = registry, tracer
    try:
        yield
    finally:
        _REGISTRY, _TRACER = previous


def deactivate() -> None:
    """Hard-reset ambient telemetry to disabled (no restore).

    For processes that inherit an active telemetry scope they can never
    report back through — e.g. the isolation sandbox's grandchild
    workers, whose records travel over their own pipe while spans and
    metrics would silently pile up in a buffer nobody drains.
    """
    global _REGISTRY, _TRACER
    _REGISTRY, _TRACER = NULL_REGISTRY, NOOP_TRACER


# -- configuration and facades -------------------------------------------------


@dataclass(frozen=True)
class TelemetryConfig:
    """What to collect and where to put it."""

    metrics: bool = True
    """Collect counters/gauges/histograms (the registry)."""

    metrics_path: str | Path | None = None
    """Where :meth:`Telemetry.finalize` exports the registry:
    ``.json``/``.jsonl`` appends a snapshot record, anything else
    writes Prometheus text.  ``None`` skips the export."""

    trace_path: str | Path | None = None
    """``trace.jsonl`` destination, rewritten by each bundle that traces
    into it; ``None`` disables span tracing."""

    progress_interval_s: float | None = None
    """Status-line period for the live progress reporter; ``None``
    disables the reporter."""

    progress_stream: IO[str] | None = None
    """Stream for progress lines (default: ``sys.stderr``)."""


@dataclass(frozen=True)
class ShardTelemetry:
    """Picklable telemetry coordinates for one shard worker process."""

    metrics: bool = False
    trace: bool = False
    context: SpanContext | None = None

    @property
    def enabled(self) -> bool:
        return self.metrics or self.trace


class Telemetry:
    """One campaign-side telemetry bundle: registry, tracer, outputs.

    Reusable across several campaigns in one invocation (the experiment
    runner shares a single bundle so the exported registry covers the
    whole session).  With ``enabled=False`` — or via the shared
    :data:`DISABLED` instance — every component is the corresponding
    no-op singleton and the bundle costs nothing.
    """

    def __init__(self, config: TelemetryConfig | None = None, *, enabled: bool = True):
        self.config = config or TelemetryConfig()
        self.enabled = bool(enabled)
        collect = self.enabled and self.config.metrics
        self.registry: MetricsRegistry = MetricsRegistry() if collect else NULL_REGISTRY
        self._trace_log: JsonlLog | None = None
        self._trace_started = False
        if self.enabled and self.config.trace_path is not None:
            self.tracer: Any = Tracer(
                self.trace_write, trace_id=f"{os.getpid():x}-{time.monotonic_ns():x}"
            )
        else:
            self.tracer = NOOP_TRACER

    # -- traces ----------------------------------------------------------------

    @property
    def tracing(self) -> bool:
        return self.tracer is not NOOP_TRACER

    def trace_write(self, record: dict[str, Any]) -> None:
        """Append one span dict to ``trace.jsonl`` (lazily opened).

        The bundle's first span starts the file empty, so a rerun into
        the same directory leaves one trace tree, not one per run; every
        later span appends, also after :meth:`finalize`.
        """
        if self.config.trace_path is None:
            return
        if self._trace_log is None:
            self._trace_log = JsonlLog(self.config.trace_path)
            if not self._trace_started:
                self._trace_log.path.write_text("", encoding="utf-8")
                self._trace_started = True
        self._trace_log.append(record)

    # -- engine integration ----------------------------------------------------

    def activate(self) -> Any:
        """Context manager making this bundle the ambient telemetry."""
        return activate(self.registry, self.tracer)

    def progress_reporter(self, total_runs: int, label: str = "campaign") -> Any:
        if not self.enabled or self.config.progress_interval_s is None:
            return NOOP_REPORTER
        return ProgressReporter(
            self.registry,
            total_runs,
            interval_s=self.config.progress_interval_s,
            stream=self.config.progress_stream,
            label=label,
        )

    def shard_telemetry(self) -> ShardTelemetry:
        """The picklable payload shard workers rebuild their side from."""
        if not self.enabled:
            return ShardTelemetry()
        return ShardTelemetry(
            metrics=self.registry.enabled,
            trace=self.tracing,
            context=self.tracer.current_context() if self.tracing else None,
        )

    # -- finalisation ----------------------------------------------------------

    def finalize(self) -> Path | None:
        """Flush outputs: export the registry, close the trace log."""
        exported: Path | None = None
        if self.enabled and self.config.metrics_path is not None:
            exported = write_metrics_file(self.registry, self.config.metrics_path)
        if self._trace_log is not None:
            self._trace_log.close()
            self._trace_log = None
        return exported

    def close(self) -> None:
        self.finalize()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class WorkerTelemetry:
    """A shard worker's local accumulator, rebuilt from :class:`ShardTelemetry`.

    The worker's registry and span buffer fill locally (no locks, no
    shared state); :meth:`drain` hands back whatever accumulated since
    the previous drain, ready to ship over the heartbeat pipe.
    """

    def __init__(self, shard: ShardTelemetry):
        self.registry: MetricsRegistry = MetricsRegistry() if shard.metrics else NULL_REGISTRY
        self._spans: list[dict[str, Any]] = []
        if shard.trace:
            self.tracer: Any = Tracer(self._spans.append, parent=shard.context)
        else:
            self.tracer = NOOP_TRACER

    def activate(self) -> Any:
        return activate(self.registry, self.tracer)

    def drain(self) -> tuple[dict[str, Any], list[dict[str, Any]]]:
        """``(metrics_delta, finished_spans)`` accumulated since last drain."""
        delta = self.registry.drain_delta() if self.registry.enabled else {}
        # Clear in place: the tracer's sink is bound to this exact list.
        spans = list(self._spans)
        self._spans.clear()
        return delta, spans


#: The shared zero-cost disabled bundle (default wherever telemetry is optional).
DISABLED = Telemetry(enabled=False)
