"""Metric exporters: Prometheus text, JSONL snapshots, summary tables.

Three consumers, three formats:

* Prometheus tooling or a CI assertion wants the **Prometheus text
  exposition format** (:func:`prometheus_text`, with
  :func:`parse_prometheus_text` as the matching reader so round-trip
  checks need no third-party client);
* longitudinal tooling wants **JSONL snapshots** appended over time
  (:func:`append_snapshot`), in the same tolerant-reader dialect as
  every other campaign artifact;
* a human at the end of a run wants the **summary table**
  (:func:`summary_table`), rendered with :mod:`repro.util.tables`.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any

from repro.telemetry.clock import stamp
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.util.jsonlog import JsonlLog
from repro.util.tables import format_table

__all__ = [
    "append_snapshot",
    "parse_prometheus_samples",
    "parse_prometheus_series",
    "parse_prometheus_text",
    "prometheus_text",
    "snapshot_record",
    "summary_table",
    "write_metrics_file",
]


def _escape_label(value: str) -> str:
    """Escape a label value per the exposition format: ``\\``, ``"``, LF."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    """Escape HELP text per the exposition format (``\\`` and LF only).

    A help string containing a raw newline would otherwise split the
    comment mid-line and corrupt the sample that follows it.
    """
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _unescape(value: str) -> str:
    """Invert :func:`_escape_label` (handles ``\\\\``, ``\\"``, ``\\n``)."""
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value) and value[i + 1] in ('\\', '"', "n"):
            out.append("\n" if value[i + 1] == "n" else value[i + 1])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _series(name: str, labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return name
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in sorted(merged.items()))
    return f"{name}{{{inner}}}"


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(float(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for metric in registry.metrics():
        if metric.help:
            lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            for labels, slot in metric.items():
                cumulative = 0
                for bound, count in zip(metric.buckets, slot["buckets"]):
                    cumulative += int(count)
                    series = _series(
                        f"{metric.name}_bucket", labels, {"le": _format_value(bound)}
                    )
                    lines.append(f"{series} {cumulative}")
                cumulative += int(slot["buckets"][-1])
                lines.append(
                    f"{_series(f'{metric.name}_bucket', labels, {'le': '+Inf'})} {cumulative}"
                )
                lines.append(f"{_series(f'{metric.name}_sum', labels)} {float(slot['sum'])!r}")
                lines.append(f"{_series(f'{metric.name}_count', labels)} {int(slot['count'])}")
        elif isinstance(metric, (Counter, Gauge)):
            for labels, value in metric.items():
                lines.append(f"{_series(metric.name, labels)} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Parse exposition text back into ``{series: value}``.

    Series keys keep their label block verbatim (sorted as written by
    :func:`prometheus_text`), e.g. ``repro_records_total{outcome="sdc"}``.
    Raises ``ValueError`` on any malformed sample line, so a CI step
    using this *is* the format check.
    """
    out: dict[str, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        brace = line.rfind("}")
        split_at = line.index(" ", brace) if brace != -1 else line.index(" ")
        series, value = line[:split_at], line[split_at + 1 :].strip()
        if not series:
            raise ValueError(f"malformed sample line: {raw!r}")
        out[series] = float(value.replace("+Inf", "inf").replace("-Inf", "-inf"))
    return out


def parse_prometheus_series(series: str) -> tuple[str, dict[str, str]]:
    """Split a sample's series key into ``(name, labels)``, unescaping.

    The inverse of the series rendering in :func:`prometheus_text`:
    label values written with ``\\\\``/``\\"``/``\\n`` escapes come back
    as the original strings, so
    ``parse_prometheus_series(render(name, labels)) == (name, labels)``
    for every legal label set — including values holding backslashes,
    double quotes and newlines.
    """
    brace = series.find("{")
    if brace == -1:
        return series, {}
    if not series.endswith("}"):
        raise ValueError(f"malformed series key: {series!r}")
    name, inner = series[:brace], series[brace + 1 : -1]
    labels: dict[str, str] = {}
    i = 0
    while i < len(inner):
        if inner[i] in (",", " "):
            i += 1
            continue
        try:
            eq = inner.index("=", i)
        except ValueError:
            raise ValueError(f"malformed label block in {series!r}") from None
        key = inner[i:eq].strip()
        if eq + 1 >= len(inner) or inner[eq + 1] != '"':
            raise ValueError(f"unquoted label value in {series!r}")
        j = eq + 2
        raw: list[str] = []
        while True:
            if j >= len(inner):
                raise ValueError(f"unterminated label value in {series!r}")
            ch = inner[j]
            if ch == "\\" and j + 1 < len(inner):
                raw.append(inner[j : j + 2])
                j += 2
            elif ch == '"':
                break
            else:
                raw.append(ch)
                j += 1
        labels[key] = _unescape("".join(raw))
        i = j + 1
    return name, labels


def parse_prometheus_samples(
    text: str,
) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Structured samples: ``{(name, sorted label items): value}``.

    Unlike :func:`parse_prometheus_text` (whose keys keep the label
    block verbatim, escapes included), this view unescapes every label
    value, so exporting a registry and parsing the text round-trips the
    exact label strings.
    """
    out: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for series, value in parse_prometheus_text(text).items():
        name, labels = parse_prometheus_series(series)
        out[(name, tuple(sorted(labels.items())))] = value
    return out


def snapshot_record(registry: MetricsRegistry, **extra: Any) -> dict[str, Any]:
    """One JSONL-able snapshot: timestamp pair, metrics, caller extras."""
    return {"kind": "metrics", **stamp(), "metrics": registry.snapshot(), **extra}


def append_snapshot(registry: MetricsRegistry, path: str | Path, **extra: Any) -> None:
    """Append a snapshot record to a JSONL file (created on first use)."""
    with JsonlLog(path) as log:
        log.append(snapshot_record(registry, **extra))


def summary_table(registry: MetricsRegistry, title: str = "campaign metrics") -> str:
    """Human-readable end-of-run table of every metric series."""
    rows: list[list[object]] = []
    for metric in registry.metrics():
        for labels, value in metric.items():
            rendered = ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"
            if isinstance(metric, Histogram):
                count = int(value["count"])
                mean = float(value["sum"]) / count if count else 0.0
                shown = f"n={count} mean={mean:.4f}s"
            else:
                shown = _format_value(float(value))
            rows.append([metric.name, metric.kind, rendered, shown])
    if not rows:
        rows.append(["(no metrics recorded)", "-", "-", "-"])
    return format_table(["metric", "kind", "labels", "value"], rows, title=title)


def write_metrics_file(registry: MetricsRegistry, path: str | Path) -> Path:
    """Write a registry to ``path`` in the format its suffix implies.

    ``.json`` / ``.jsonl`` append a snapshot record (so repeated runs
    build a time series); anything else (``.prom``, ``.txt``, no
    suffix) overwrites with Prometheus exposition text.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    if target.suffix in (".json", ".jsonl"):
        append_snapshot(registry, target)
    else:
        target.write_text(prometheus_text(registry), encoding="utf-8")
    return target
