"""``repro-inspect`` — post-hoc campaign analytics over telemetry artifacts.

A finished (or checkpointed) campaign leaves a directory of structured
artifacts: ``campaign.jsonl`` (or per-shard ``shard-*.jsonl``
checkpoints), ``trace.jsonl`` spans, ``failures.jsonl`` events, and a
Prometheus metrics snapshot.  This module joins them into one report —
the analytical counterpart of the live progress line:

* an **outcome matrix** per ``(benchmark, fault_model)`` cell with
  Wilson or anytime-valid confidence intervals
  (:class:`~repro.telemetry.convergence.ConvergenceMonitor` replayed
  over the log);
* **convergence curves** — CI half-width versus runs — showing whether
  the campaign earned its precision or wasted injections past it;
* a **span waterfall**: per-phase time aggregates and the slowest
  shards, from ``trace.jsonl``;
* **cross-shard drift** recomputed post-hoc when the shard structure is
  known (checkpoint files present);
* a **reconciliation** check that the exported
  ``repro_records_total`` metric agrees with the campaign log —
  ``--strict`` turns a mismatch into a nonzero exit, so CI can use the
  report as an integrity gate;
* ``--diff``: cell-by-cell two-proportion z-tests between two
  campaigns (e.g. before/after an engine change).

Every JSONL artifact is read with the tolerant reader; skipped corrupt
lines are *surfaced* (per-file counts in the overview, plus a
``repro_corrupt_lines_total`` counter on the analysis registry), never
silently dropped.  Output is ``util.tables`` text on stdout and,
with ``--html``, a self-contained static HTML report (inline SVG
charts, no external assets) suitable for a CI artifact.
"""

from __future__ import annotations

import argparse
import html
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, IO

from repro.telemetry.convergence import CellKey, ConvergenceMonitor, PVF_OUTCOMES
from repro.telemetry.exporters import (
    parse_prometheus_samples,
    prometheus_text,
    quantile_from_samples,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.util.jsonlog import load_records_tolerant
from repro.util.stats import two_proportion_z
from repro.util.tables import format_series, format_table

__all__ = [
    "CampaignData",
    "build_monitor",
    "convergence_curves",
    "load_campaign",
    "main",
    "render_html",
    "render_text",
]

#: Metric files probed (in order) inside a campaign directory.
_METRIC_CANDIDATES = ("metrics.prom", "metrics.txt", "metrics.json", "metrics.jsonl")

#: Outcome columns of the matrix, in reporting order.
_OUTCOMES = ("masked", "sdc", "due")


# -- artifact loading ----------------------------------------------------------


@dataclass
class CampaignData:
    """Everything ``repro-inspect`` could find for one campaign."""

    name: str
    root: Path
    records: list[dict[str, Any]] = field(default_factory=list)
    shard_of: dict[int, int] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)
    failures: list[dict[str, Any]] = field(default_factory=list)
    metrics: dict[tuple[str, tuple[tuple[str, str], ...]], float] | None = None
    corrupt: dict[str, int] = field(default_factory=dict)

    @property
    def corrupt_total(self) -> int:
        return sum(self.corrupt.values())

    def outcome_counts(self) -> dict[str, int]:
        """Record counts by outcome across the whole campaign log."""
        out: dict[str, int] = {}
        for record in self.records:
            outcome = str(record.get("outcome"))
            out[outcome] = out.get(outcome, 0) + 1
        return out

    def metric_by_label(self, name: str, label: str) -> dict[str, float] | None:
        """Sum an exported metric's samples by one label's values."""
        if self.metrics is None:
            return None
        out: dict[str, float] = {}
        for (metric, labels), value in self.metrics.items():
            if metric != name:
                continue
            for key, val in labels:
                if key == label:
                    out[val] = out.get(val, 0.0) + value
        return out


def _shard_index(path: Path) -> int | None:
    """Shard index from a ``shard-00042.jsonl`` checkpoint file name."""
    stem = path.stem
    if not stem.startswith("shard-"):
        return None
    try:
        return int(stem.split("-", 1)[1])
    except ValueError:
        return None


def _load_metric_samples(
    path: Path,
) -> tuple[dict[tuple[str, tuple[tuple[str, str], ...]], float], int]:
    """Load a metrics artifact (Prometheus text or JSONL snapshots)."""
    if path.suffix in (".json", ".jsonl"):
        rows, skipped = load_records_tolerant(path)
        snapshots = [r for r in rows if r.get("kind") == "metrics"]
        if not snapshots:
            return {}, skipped
        registry = MetricsRegistry()
        registry.merge(snapshots[-1]["metrics"])
        return parse_prometheus_samples(prometheus_text(registry)), skipped
    return parse_prometheus_samples(path.read_text(encoding="utf-8")), 0


def load_campaign(
    root: str | Path,
    *,
    metrics_path: str | Path | None = None,
    trace_path: str | Path | None = None,
    registry: MetricsRegistry | None = None,
) -> CampaignData:
    """Load one campaign's artifacts from a directory (or a bare log file).

    ``root`` may be a checkpoint directory (``shard-*.jsonl`` plus
    optional ``campaign.jsonl``/``trace.jsonl``/``failures.jsonl``/
    metrics snapshot) or a single ``campaign.jsonl`` file.  Records are
    returned in canonical ``run_index`` order; when checkpoint files
    are present the run→shard mapping is recovered so drift tests can
    be recomputed post-hoc.  Corrupt lines in any artifact are counted
    per file and into ``repro_corrupt_lines_total`` on ``registry``.
    """
    registry = registry if registry is not None else MetricsRegistry()
    corrupt_counter = registry.counter(
        "repro_corrupt_lines_total",
        help="Corrupt JSONL lines skipped while reading campaign artifacts, by file.",
    )
    data = CampaignData(name=Path(root).name, root=Path(root))

    def read(path: Path) -> list[dict[str, Any]]:
        rows, skipped = load_records_tolerant(path)
        if skipped:
            data.corrupt[path.name] = data.corrupt.get(path.name, 0) + skipped
            corrupt_counter.inc(skipped, file=path.name)
        return rows

    if data.root.is_file():
        base = data.root.parent
        data.records = read(data.root)
    else:
        base = data.root
        campaign_log = base / "campaign.jsonl"
        if campaign_log.exists():
            data.records = read(campaign_log)

    shard_records: list[dict[str, Any]] = []
    for path in sorted(base.glob("shard-*.jsonl")):
        index = _shard_index(path)
        if index is None:
            continue
        for row in read(path):
            if row.get("kind") != "record":
                continue
            payload = row.get("data")
            if isinstance(payload, dict) and "run_index" in payload:
                data.shard_of[int(payload["run_index"])] = index
                shard_records.append(payload)
    if not data.records and shard_records:
        data.records = sorted(shard_records, key=lambda r: int(r["run_index"]))

    trace = Path(trace_path) if trace_path is not None else base / "trace.jsonl"
    if trace.exists():
        data.spans = [row for row in read(trace) if "name" in row and "dur_s" in row]

    failure_log = base / "failures.jsonl"
    if failure_log.exists():
        data.failures = read(failure_log)

    metric_file: Path | None = None
    if metrics_path is not None:
        metric_file = Path(metrics_path)
    else:
        for candidate in _METRIC_CANDIDATES:
            if (base / candidate).exists():
                metric_file = base / candidate
                break
    if metric_file is not None and metric_file.exists():
        try:
            data.metrics, skipped = _load_metric_samples(metric_file)
        except ValueError:
            data.corrupt[metric_file.name] = data.corrupt.get(metric_file.name, 0) + 1
            corrupt_counter.inc(file=metric_file.name)
        else:
            if skipped:
                data.corrupt[metric_file.name] = data.corrupt.get(metric_file.name, 0) + skipped
                corrupt_counter.inc(skipped, file=metric_file.name)
    return data


# -- analysis ------------------------------------------------------------------


def build_monitor(
    data: CampaignData, confidence: float = 0.95, interval: str = "wilson"
) -> ConvergenceMonitor:
    """Replay a campaign log into a fresh :class:`ConvergenceMonitor`."""
    monitor = ConvergenceMonitor(confidence=confidence, interval=interval)
    for record in data.records:
        shard = data.shard_of.get(int(record["run_index"])) if "run_index" in record else None
        monitor.observe(record, shard=shard)
    return monitor


def convergence_curves(
    records: list[dict[str, Any]],
    confidence: float = 0.95,
    interval: str = "wilson",
    points: int = 12,
) -> dict[CellKey, tuple[list[int], list[float]]]:
    """Per-cell ``(runs, worst CI half-width)`` series at ~``points`` marks.

    One streaming pass: the monitor is replayed in canonical order and
    sampled at evenly spaced run counts, so the curve shows exactly
    what an early-stopping engine would have seen at each boundary.
    """
    total = len(records)
    if total == 0:
        return {}
    marks = sorted({max(1, (total * i) // points) for i in range(1, points + 1)})
    monitor = ConvergenceMonitor(confidence=confidence, interval=interval)
    curves: dict[CellKey, tuple[list[int], list[float]]] = {}
    mark_set = set(marks)
    for seen, record in enumerate(records, start=1):
        monitor.observe(record)
        if seen not in mark_set:
            continue
        for key in monitor.cells():
            benchmark, model = key
            width = max(monitor.half_width(benchmark, model, o) for o in PVF_OUTCOMES)
            xs, ys = curves.setdefault(key, ([], []))
            xs.append(seen)
            ys.append(width)
    return curves


def _span_aggregate(spans: list[dict[str, Any]]) -> list[list[object]]:
    """Waterfall rows: per span name — count, total, mean, max seconds."""
    totals: dict[str, list[float]] = {}
    for span in spans:
        totals.setdefault(str(span["name"]), []).append(float(span["dur_s"]))
    rows: list[list[object]] = []
    for name in sorted(totals, key=lambda n: -sum(totals[n])):
        durations = totals[name]
        rows.append(
            [
                name,
                len(durations),
                sum(durations),
                sum(durations) / len(durations),
                max(durations),
            ]
        )
    return rows


def _slowest_shards(spans: list[dict[str, Any]], top: int) -> list[list[object]]:
    """Slowest ``top`` shard spans: shard, runs, duration, runs/s."""
    rows: list[list[object]] = []
    for span in spans:
        if span.get("name") != "shard":
            continue
        attrs = span.get("attrs", {})
        if "shard" not in attrs:
            continue
        runs = int(attrs.get("stop", 0)) - int(attrs.get("start", 0))
        duration = float(span["dur_s"])
        rate = runs / duration if duration > 0 else 0.0
        rows.append([int(attrs["shard"]), runs, duration, rate])
    rows.sort(key=lambda r: -float(r[2]))
    return rows[:top]


def _diff_rows(
    a: ConvergenceMonitor, b: ConvergenceMonitor, alpha: float = 0.05
) -> list[list[object]]:
    """Cell-by-cell two-proportion z-tests between two campaigns.

    One row per (cell, outcome) present in either campaign; the
    ``differs`` column applies a Bonferroni-corrected threshold across
    the whole comparison family, same policy as the drift detector.
    """
    cells = sorted(set(a.cells()) | set(b.cells()))
    tests: list[tuple[CellKey, str, int, int, int, int]] = []
    for key in cells:
        benchmark, model = key
        counts_a = a.counts(benchmark, model) if key in set(a.cells()) else {}
        counts_b = b.counts(benchmark, model) if key in set(b.cells()) else {}
        n_a = sum(counts_a.values())
        n_b = sum(counts_b.values())
        if n_a == 0 or n_b == 0:
            continue
        for outcome in PVF_OUTCOMES:
            tests.append((key, outcome, counts_a.get(outcome, 0), n_a, counts_b.get(outcome, 0), n_b))
    if not tests:
        return []
    per_test = alpha / len(tests)
    rows: list[list[object]] = []
    for (benchmark, model), outcome, x1, n1, x2, n2 in tests:
        z, p_value = two_proportion_z(x1, n1, x2, n2)
        rows.append(
            [
                benchmark,
                model,
                outcome,
                f"{x1 / n1:.4f} (n={n1})",
                f"{x2 / n2:.4f} (n={n2})",
                z,
                f"{p_value:.2e}",
                p_value < per_test,
            ]
        )
    return rows


# -- text report ---------------------------------------------------------------


def _overview_table(campaigns: list[CampaignData]) -> str:
    rows = []
    for data in campaigns:
        rows.append(
            [
                data.name,
                len(data.records),
                len({(str(r.get("benchmark")), str(r.get("fault_model"))) for r in data.records}),
                len(set(data.shard_of.values())),
                len(data.spans),
                len(data.failures),
                data.corrupt_total,
            ]
        )
    return format_table(
        ["campaign", "runs", "cells", "shards", "spans", "failure events", "corrupt lines"],
        rows,
        title="overview",
    )


def _reconcile(data: CampaignData) -> tuple[str, bool]:
    """Outcome-matrix vs exported-metric reconciliation (text, ok)."""
    if data.metrics is None:
        return f"[{data.name}] no metrics snapshot found — reconciliation skipped", True
    from_metrics = data.metric_by_label("repro_records_total", "outcome") or {}
    from_records = data.outcome_counts()
    ok = True
    rows = []
    for outcome in sorted(set(from_metrics) | set(from_records)):
        logged = from_records.get(outcome, 0)
        exported = from_metrics.get(outcome, 0.0)
        match = logged == int(exported)
        ok = ok and match
        rows.append([outcome, logged, int(exported), match])
    if not rows:
        rows.append(["(none)", 0, 0, True])
    table = format_table(
        ["outcome", "campaign.jsonl", "repro_records_total", "match"],
        rows,
        title=f"[{data.name}] metrics reconciliation",
    )
    return table, ok


def render_text(
    campaigns: list[CampaignData],
    *,
    confidence: float = 0.95,
    interval: str = "wilson",
    drift_alpha: float = 0.01,
    top: int = 5,
    diff: bool = False,
) -> tuple[str, list[str]]:
    """The full text report plus a list of integrity problems found."""
    sections: list[str] = [_overview_table(campaigns)]
    problems: list[str] = []
    monitors: list[ConvergenceMonitor] = []

    for data in campaigns:
        monitor = build_monitor(data, confidence, interval)
        monitors.append(monitor)
        title = f"[{data.name}] outcome matrix ({interval}, {confidence:.0%} CI)"
        sections.append(
            format_table(
                ["benchmark", "fault model", "runs", *_OUTCOMES],
                monitor.summary_rows() or [["(no records)", "-", 0, "-", "-", "-"]],
                title=title,
            )
        )

        curves = convergence_curves(data.records, confidence, interval)
        if curves:
            lines = [f"[{data.name}] convergence (runs, worst CI half-width)"]
            for (benchmark, model), (xs, ys) in sorted(curves.items()):
                lines.append(format_series(f"{benchmark}/{model}", xs, ys, floatfmt=".4f"))
            sections.append("\n".join(lines))

        if data.spans:
            sections.append(
                format_table(
                    ["span", "count", "total s", "mean s", "max s"],
                    _span_aggregate(data.spans),
                    title=f"[{data.name}] span waterfall",
                    floatfmt=".3f",
                )
            )
            slow = _slowest_shards(data.spans, top)
            if slow:
                sections.append(
                    format_table(
                        ["shard", "runs", "dur s", "runs/s"],
                        slow,
                        title=f"[{data.name}] slowest shards",
                        floatfmt=".3f",
                    )
                )

        if data.failures:
            by_event: dict[str, int] = {}
            for event in data.failures:
                kind = str(event.get("event", "unknown"))
                by_event[kind] = by_event.get(kind, 0) + 1
            sections.append(
                format_table(
                    ["event", "count"],
                    sorted(by_event.items()),
                    title=f"[{data.name}] failure events",
                )
            )

        if data.shard_of:
            flags = monitor.drift_flags(alpha=drift_alpha)
            if flags:
                sections.append(
                    format_table(
                        ["benchmark", "fault model", "shard", "outcome", "shard rate", "rest rate", "z"],
                        [
                            [
                                f.benchmark,
                                f.fault_model,
                                f.shard,
                                f.outcome,
                                f.shard_rate,
                                f.rest_rate,
                                f.z,
                            ]
                            for f in flags
                        ],
                        title=f"[{data.name}] cross-shard drift (family alpha={drift_alpha})",
                        floatfmt=".4f",
                    )
                )
                problems.append(f"{data.name}: {len(flags)} cross-shard drift flag(s)")
            else:
                sections.append(
                    f"[{data.name}] cross-shard drift: none detected "
                    f"({len(set(data.shard_of.values()))} shards, family alpha={drift_alpha})"
                )

        table, ok = _reconcile(data)
        sections.append(table)
        if not ok:
            problems.append(f"{data.name}: metrics do not reconcile with campaign log")
        if data.corrupt:
            detail = ", ".join(f"{name}: {count}" for name, count in sorted(data.corrupt.items()))
            sections.append(f"[{data.name}] corrupt lines skipped — {detail}")

    if diff and len(campaigns) == 2:
        rows = _diff_rows(monitors[0], monitors[1])
        sections.append(
            format_table(
                [
                    "benchmark",
                    "fault model",
                    "outcome",
                    campaigns[0].name,
                    campaigns[1].name,
                    "z",
                    "p",
                    "differs",
                ],
                rows or [["(no comparable cells)", "-", "-", "-", "-", 0.0, "-", False]],
                title="campaign diff (two-proportion z, Bonferroni family alpha=0.05)",
                floatfmt=".2f",
            )
        )
    return "\n\n".join(sections) + "\n", problems


# -- HTML report ---------------------------------------------------------------

# Palette roles (light / dark): chart chrome stays in neutral ink, the
# single convergence series takes categorical slot 1; a single series
# needs no legend — the figure caption names it.
_HTML_STYLE = """
:root {
  color-scheme: light;
  --surface: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --bad: #d03b3b; --good: #006300;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --bad: #d03b3b; --good: #0ca30c;
  }
}
body { margin: 0; padding: 24px; background: var(--page); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; }
h3 { font-size: 13px; font-weight: 600; color: var(--ink-2); margin: 12px 0 4px; }
.sub { color: var(--ink-2); margin: 0 0 16px; }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; margin: 12px 0; }
.tile { background: var(--surface); border: 1px solid var(--border); border-radius: 8px;
  padding: 10px 14px; min-width: 96px; }
.tile .v { font-size: 22px; font-weight: 600; }
.tile .k { font-size: 11px; color: var(--muted); text-transform: uppercase;
  letter-spacing: 0.04em; }
table { border-collapse: collapse; background: var(--surface);
  border: 1px solid var(--border); border-radius: 8px; margin: 8px 0; }
th, td { padding: 5px 12px; text-align: left; font-variant-numeric: tabular-nums; }
th { color: var(--muted); font-size: 11px; text-transform: uppercase;
  letter-spacing: 0.04em; border-bottom: 1px solid var(--grid); }
td { border-bottom: 1px solid var(--grid); }
tr:last-child td { border-bottom: none; }
td.num { text-align: right; }
td.bad { color: var(--bad); font-weight: 600; }
td.ok { color: var(--good); }
.charts { display: flex; gap: 16px; flex-wrap: wrap; }
figure { margin: 0; background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 12px; }
figcaption { font-size: 12px; color: var(--ink-2); margin-bottom: 4px; }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .axis { stroke: var(--axis); stroke-width: 1; }
svg .series { stroke: var(--series-1); stroke-width: 2; fill: none;
  stroke-linejoin: round; stroke-linecap: round; }
svg .pt { fill: var(--series-1); }
svg .pt:hover { r: 5; }
svg .target { stroke: var(--muted); stroke-width: 1; stroke-dasharray: 4 3; }
svg text { fill: var(--muted); font: 10px system-ui, sans-serif;
  font-variant-numeric: tabular-nums; }
"""


def _esc(value: object) -> str:
    return html.escape(str(value))


def _nice_step(span: float, count: int = 4) -> float:
    if span <= 0:
        return 1.0
    raw = span / count
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * power:
            return mult * power
    return 10.0 * power


def _svg_curve(
    xs: list[int],
    ys: list[float],
    *,
    target: float | None = None,
    width: int = 420,
    height: int = 190,
) -> str:
    """One single-series convergence line chart as inline SVG."""
    left, right, top, bottom = 46, 12, 10, 30
    plot_w, plot_h = width - left - right, height - top - bottom
    x_max = max(xs) if xs else 1
    y_max = max([*ys, target or 0.0, 1e-9]) * 1.08

    def px(x: float) -> float:
        return left + plot_w * (x / x_max)

    def py(y: float) -> float:
        return top + plot_h * (1.0 - y / y_max)

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" height="{height}" role="img">'
    ]
    step = _nice_step(y_max)
    tick = step
    while tick < y_max:
        y = py(tick)
        parts.append(f'<line class="grid" x1="{left}" y1="{y:.1f}" x2="{width - right}" y2="{y:.1f}"/>')
        parts.append(f'<text x="{left - 5}" y="{y + 3:.1f}" text-anchor="end">{tick:g}</text>')
        tick += step
    parts.append(
        f'<line class="axis" x1="{left}" y1="{top + plot_h}" x2="{width - right}" y2="{top + plot_h}"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        x_val = int(round(x_max * frac))
        parts.append(
            f'<text x="{px(x_val):.1f}" y="{height - 10}" text-anchor="middle">{x_val}</text>'
        )
    parts.append(
        f'<text x="{left - 36}" y="{top + plot_h / 2:.1f}" '
        f'transform="rotate(-90 {left - 36} {top + plot_h / 2:.1f})" '
        'text-anchor="middle">CI half-width</text>'
    )
    parts.append(f'<text x="{left + plot_w / 2:.1f}" y="{height - 1}" text-anchor="middle">runs</text>')
    if target is not None and target < y_max:
        y = py(target)
        parts.append(f'<line class="target" x1="{left}" y1="{y:.1f}" x2="{width - right}" y2="{y:.1f}"/>')
        parts.append(f'<text x="{width - right}" y="{y - 3:.1f}" text-anchor="end">target {target:g}</text>')
    if xs:
        points = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline class="series" points="{points}"/>')
        for x, y in zip(xs, ys):
            parts.append(
                f'<circle class="pt" cx="{px(x):.1f}" cy="{py(y):.1f}" r="2.5">'
                f"<title>{x} runs: half-width {y:.4f}</title></circle>"
            )
    parts.append("</svg>")
    return "".join(parts)


def _html_table(
    headers: list[str], rows: list[list[object]], *, numeric_from: int = 0
) -> str:
    out = ["<table><thead><tr>"]
    out.extend(f"<th>{_esc(h)}</th>" for h in headers)
    out.append("</tr></thead><tbody>")
    for row in rows:
        out.append("<tr>")
        for i, cell in enumerate(row):
            classes = []
            if isinstance(cell, bool):
                classes.append("ok" if cell else "bad")
                shown = "yes" if cell else "NO"
            elif isinstance(cell, float):
                classes.append("num")
                shown = f"{cell:.4f}"
            elif isinstance(cell, int):
                classes.append("num")
                shown = str(cell)
            else:
                shown = str(cell)
                if numeric_from and i >= numeric_from:
                    classes.append("num")
            attr = f' class="{" ".join(classes)}"' if classes else ""
            out.append(f"<td{attr}>{_esc(shown)}</td>")
        out.append("</tr>")
    out.append("</tbody></table>")
    return "".join(out)


def render_html(
    campaigns: list[CampaignData],
    *,
    confidence: float = 0.95,
    interval: str = "wilson",
    drift_alpha: float = 0.01,
    top: int = 5,
    diff: bool = False,
    target_ci: float | None = None,
) -> str:
    """The self-contained static HTML report (no external assets)."""
    body: list[str] = [
        "<h1>repro-inspect report</h1>",
        f'<p class="sub">{_esc(", ".join(str(c.root) for c in campaigns))} &middot; '
        f"{_esc(interval)} intervals at {confidence:.0%} confidence</p>",
    ]
    monitors: list[ConvergenceMonitor] = []
    for data in campaigns:
        monitor = build_monitor(data, confidence, interval)
        monitors.append(monitor)
        body.append(f"<h2>{_esc(data.name)}</h2>")
        tiles = [
            ("runs", len(data.records)),
            ("cells", len(monitor.cells())),
            ("shards", len(set(data.shard_of.values()))),
            ("failure events", len(data.failures)),
            ("corrupt lines", data.corrupt_total),
        ]
        body.append(
            '<div class="tiles">'
            + "".join(
                f'<div class="tile"><div class="v">{_esc(v)}</div><div class="k">{_esc(k)}</div></div>'
                for k, v in tiles
            )
            + "</div>"
        )
        body.append("<h3>Outcome matrix</h3>")
        body.append(
            _html_table(
                ["benchmark", "fault model", "runs", *_OUTCOMES],
                monitor.summary_rows(),
                numeric_from=2,
            )
        )
        curves = convergence_curves(data.records, confidence, interval)
        if curves:
            body.append("<h3>Convergence — CI half-width vs runs</h3>")
            body.append('<div class="charts">')
            for (benchmark, model), (xs, ys) in sorted(curves.items()):
                body.append(
                    f"<figure><figcaption>{_esc(benchmark)} &middot; {_esc(model)}</figcaption>"
                    + _svg_curve(xs, ys, target=target_ci)
                    + "</figure>"
                )
            body.append("</div>")
        if data.spans:
            body.append("<h3>Span waterfall</h3>")
            body.append(
                _html_table(
                    ["span", "count", "total s", "mean s", "max s"],
                    [[n, c, round(t, 3), round(m, 4), round(x, 3)] for n, c, t, m, x in _span_aggregate(data.spans)],
                )
            )
            slow = _slowest_shards(data.spans, top)
            if slow:
                body.append("<h3>Slowest shards</h3>")
                body.append(
                    _html_table(
                        ["shard", "runs", "dur s", "runs/s"],
                        [[s, r, round(d, 3), round(v, 2)] for s, r, d, v in slow],
                    )
                )
        if data.shard_of:
            flags = monitor.drift_flags(alpha=drift_alpha)
            body.append("<h3>Cross-shard drift</h3>")
            if flags:
                body.append(
                    _html_table(
                        ["benchmark", "fault model", "shard", "outcome", "shard rate", "rest rate", "z"],
                        [
                            [f.benchmark, f.fault_model, f.shard, f.outcome,
                             round(f.shard_rate, 4), round(f.rest_rate, 4), round(f.z, 2)]
                            for f in flags
                        ],
                    )
                )
            else:
                body.append(
                    f'<p class="sub">None detected across {len(set(data.shard_of.values()))} shards '
                    f"(family alpha={drift_alpha:g}).</p>"
                )
        body.append("<h3>Metrics reconciliation</h3>")
        if data.metrics is None:
            body.append('<p class="sub">No metrics snapshot found.</p>')
        else:
            from_metrics = data.metric_by_label("repro_records_total", "outcome") or {}
            from_records = data.outcome_counts()
            rows = [
                [o, from_records.get(o, 0), int(from_metrics.get(o, 0.0)),
                 from_records.get(o, 0) == int(from_metrics.get(o, 0.0))]
                for o in sorted(set(from_metrics) | set(from_records))
            ]
            body.append(
                _html_table(["outcome", "campaign.jsonl", "repro_records_total", "match"], rows)
            )
        if data.corrupt:
            detail = ", ".join(f"{n}: {c}" for n, c in sorted(data.corrupt.items()))
            body.append(f'<p class="sub">Corrupt lines skipped &mdash; {_esc(detail)}</p>')

    if diff and len(campaigns) == 2:
        body.append("<h2>Campaign diff</h2>")
        rows = _diff_rows(monitors[0], monitors[1])
        if rows:
            body.append(
                _html_table(
                    ["benchmark", "fault model", "outcome",
                     campaigns[0].name, campaigns[1].name, "z", "p", "differs"],
                    [[b, m, o, ra, rb, round(z, 2), p, d] for b, m, o, ra, rb, z, p, d in rows],
                )
            )
        else:
            body.append('<p class="sub">No comparable cells.</p>')

    return (
        "<!doctype html><html><head><meta charset=\"utf-8\">"
        "<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">"
        "<title>repro-inspect report</title>"
        f"<style>{_HTML_STYLE}</style></head><body>" + "".join(body) + "</body></html>"
    )


# -- CLI -----------------------------------------------------------------------


def _fuzz_main(argv: list[str], out: IO[str]) -> int:
    """``repro-inspect fuzz``: list fuzz reproducer artifacts."""
    parser = argparse.ArgumentParser(
        prog="repro-inspect fuzz",
        description="Summarize fuzz reproducer artifacts (repro-*.json).",
    )
    parser.add_argument(
        "paths",
        nargs="+",
        help="Reproducer files or directories containing repro-*.json.",
    )
    args = parser.parse_args(argv)

    from repro.fuzz.artifact import load_reproducer

    files: list[Path] = []
    for raw in args.paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.glob("repro-*.json")))
        else:
            files.append(path)
    if not files:
        print("repro-inspect fuzz: no reproducer artifacts found", file=sys.stderr)
        return 2

    rows = []
    for path in files:
        try:
            repro = load_reproducer(path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"repro-inspect fuzz: skipping {path}: {exc}", file=sys.stderr)
            continue
        rows.append(
            (
                path.name,
                repro.scenario.benchmark,
                repro.flag.kind,
                f"{repro.original_len}->{repro.shrunk_len}",
                repro.expected.outcome,
                len(repro.expected.faults),
                repro.expected.recoveries,
            )
        )
    if not rows:
        print("repro-inspect fuzz: no readable reproducer artifacts", file=sys.stderr)
        return 2
    header = ("artifact", "benchmark", "flag", "steps", "outcome", "faults", "recoveries")
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) for i in range(len(header))
    ]
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)), file=out)
    for row in rows:
        print(
            "  ".join(str(v).ljust(widths[i]) for i, v in enumerate(row)),
            file=out,
        )
    return 0


def _lease_fate(
    lease_id: str,
    done: set[str],
    re_leased: dict[str, int],
    stolen: dict[str, int],
) -> str:
    """A lease's fate, compressed to one cell."""
    parts: list[str] = []
    if lease_id in stolen:
        parts.append(f"stolen@{stolen[lease_id]}")
    if lease_id in re_leased:
        parts.append(f"re-leased@{re_leased[lease_id]}")
    if lease_id in done:
        parts.append("done")
    return ", ".join(parts) or "lost"


def _sum_by_label(
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float],
    name: str,
    label: str,
) -> dict[str, float]:
    """Sum one metric's samples by a label's values (parsed-scrape view)."""
    out: dict[str, float] = {}
    for (metric, labels), value in samples.items():
        if metric != name:
            continue
        for key, val in labels:
            if key == label:
                out[val] = out.get(val, 0.0) + value
    return out


def _campaign_samples(
    base: Path,
) -> dict[tuple[str, tuple[tuple[str, str], ...]], float] | None:
    """Parsed samples from a campaign dir's metrics snapshot, if any."""
    for candidate in _METRIC_CANDIDATES:
        metric_file = base / candidate
        if metric_file.exists():
            try:
                samples, _skipped = _load_metric_samples(metric_file)
            except (OSError, ValueError):
                return None
            return samples
    return None


def _service_main(argv: list[str], out: IO[str]) -> int:
    """``repro-inspect service``: lease table and worker timeline.

    Joins the scheduler's ``failures.jsonl`` events from a distributed
    (broker-mode) campaign into four views: every lease with its range
    and fate, a per-worker summary (joined with the broker's per-worker
    metrics when a snapshot sits next to the log), the campaign's
    service counters, and the chronological disruption log (steals,
    re-leases, deaths, quarantines, reaps).
    """
    parser = argparse.ArgumentParser(
        prog="repro-inspect service",
        description="Lease table, per-worker timeline and disruption log "
        "from a distributed campaign's failures.jsonl.",
    )
    parser.add_argument(
        "paths",
        nargs="+",
        help="failures.jsonl files or campaign directories containing one.",
    )
    args = parser.parse_args(argv)

    files: list[Path] = []
    for raw in args.paths:
        path = Path(raw)
        files.append(path / "failures.jsonl" if path.is_dir() else path)
    missing = [str(p) for p in files if not p.exists()]
    if missing:
        print(
            f"repro-inspect service: not found: {', '.join(missing)}", file=sys.stderr
        )
        return 2

    status = 0
    for path in files:
        events, skipped = load_records_tolerant(path)
        if skipped:
            print(
                f"repro-inspect service: {path}: skipped {skipped} corrupt line(s)",
                file=sys.stderr,
            )
        leases = [e for e in events if e.get("event") == "lease" and "lease" in e]
        if not leases:
            print(
                f"repro-inspect service: {path}: no lease events — "
                "not a distributed campaign log?",
                file=sys.stderr,
            )
            status = 2
            continue

        done = {str(e["lease"]) for e in events if e.get("event") == "lease_done"}
        re_leased = {
            str(e["lease"]): int(e["resume_from"])
            for e in events
            if e.get("event") == "re_lease"
        }
        stolen = {
            str(e["victim"]): int(e["split"])
            for e in events
            if e.get("event") == "steal"
        }

        rows = [
            [
                str(e["lease"]),
                int(e["shard"]),
                f"[{e['start']}, {e['stop']})",
                int(e.get("attempt", 0)),
                str(e.get("worker", "?")),
                _lease_fate(str(e["lease"]), done, re_leased, stolen),
            ]
            for e in leases
        ]
        print(
            format_table(
                ["lease", "shard", "runs", "attempt", "worker", "fate"],
                rows,
                title=f"[{path.parent.name or path.name}] lease table",
            ),
            file=out,
        )

        workers: dict[str, dict[str, Any]] = {}

        def slot(name: str) -> dict[str, Any]:
            return workers.setdefault(
                name,
                {
                    "leases": 0,
                    "runs": 0,
                    "shards": set(),
                    "deaths": 0,
                    "lost": 0,
                    "addr": "-",
                    "pid": "-",
                },
            )

        for e in events:
            kind = e.get("event")
            if kind in ("worker_connected", "worker_lost") and "worker" in e:
                w = slot(str(e["worker"]))
                if e.get("addr"):
                    w["addr"] = str(e["addr"])
                if e.get("pid") is not None:
                    w["pid"] = str(e["pid"])
                if kind == "worker_lost":
                    w["lost"] += 1
            elif kind == "lease" and "worker" in e:
                w = slot(str(e["worker"]))
                w["leases"] += 1
                w["runs"] += int(e["stop"]) - int(e["start"])
                w["shards"].add(int(e["shard"]))
            elif kind == "worker_death" and "worker" in e:
                slot(str(e["worker"]))["deaths"] += 1

        # Join the broker's per-worker series when a metrics snapshot
        # sits in the campaign directory (records streamed, heartbeat
        # RTT, disconnects) — the fleet view the event log alone lacks.
        samples = _campaign_samples(path.parent)
        headers = ["worker", "addr", "pid", "leases", "runs leased", "shards", "deaths", "lost"]
        if samples is not None:
            headers += ["recs", "rtt p50 ms"]
            recs = _sum_by_label(samples, "repro_service_worker_runs_total", "worker")
        rows = []
        for name, w in sorted(workers.items()):
            row: list[Any] = [
                name, w["addr"], w["pid"], w["leases"], w["runs"],
                len(w["shards"]), w["deaths"], w["lost"],
            ]
            if samples is not None:
                rtt = quantile_from_samples(
                    samples, "repro_service_heartbeat_rtt_seconds", 0.5, worker=name
                )
                row += [
                    int(recs.get(name, 0.0)),
                    "-" if rtt is None else f"{rtt * 1000:.2f}",
                ]
            rows.append(row)
        print(
            format_table(
                headers, rows, title=f"[{path.parent.name or path.name}] workers"
            ),
            file=out,
        )

        if samples is not None:
            lease_events = _sum_by_label(samples, "repro_service_leases_total", "event")
            steals = sum(
                value
                for (metric, _labels), value in samples.items()
                if metric == "repro_service_steals_total"
            )
            disconnects = sum(
                _sum_by_label(samples, "repro_service_disconnects_total", "worker").values()
            )
            counter_rows: list[list[Any]] = [
                [f"leases {event}", int(value)]
                for event, value in sorted(lease_events.items())
            ]
            counter_rows.append(["steals", int(steals)])
            counter_rows.append(["worker disconnects", int(disconnects)])
            print(
                format_table(
                    ["counter", "value"],
                    counter_rows,
                    title=f"[{path.parent.name or path.name}] service counters",
                ),
                file=out,
            )

        disruptions = []
        for i, e in enumerate(events):
            kind = str(e.get("event", ""))
            if kind == "steal":
                what = (
                    f"split {e['victim']} at run {e['split']} "
                    f"(was stop {e['stop']}, victim {e.get('victim_worker', '?')})"
                )
            elif kind == "re_lease":
                what = f"{e['lease']} resumes at run {e['resume_from']}: {e.get('detail', '')}"
            elif kind in ("worker_death", "run_error"):
                run = e.get("run")
                where = f"run {run}" if run is not None else "between runs"
                verb = "died" if kind == "worker_death" else "raised"
                what = (
                    f"{e.get('worker', e.get('lease', '?'))} {verb} at {where}: "
                    f"{e.get('detail', '')}"
                )
            elif kind == "quarantine":
                what = f"run {e['run']} quarantined: {e.get('detail', '')}"
            elif kind == "worker_lost":
                origin = ", ".join(
                    part
                    for part in (
                        str(e["addr"]) if e.get("addr") else "",
                        f"pid {e['pid']}" if e.get("pid") is not None else "",
                    )
                    if part
                )
                who = str(e.get("worker", "?")) + (f" ({origin})" if origin else "")
                what = f"{who}: {e.get('detail', '')}"
            elif kind in ("reap", "shard_failed"):
                what = str(e.get("detail", ""))
            else:
                continue
            disruptions.append([i, kind, e.get("shard", "-"), what])
        if disruptions:
            print(
                format_table(
                    ["#", "event", "shard", "what"],
                    disruptions,
                    title=f"[{path.parent.name or path.name}] disruptions",
                ),
                file=out,
            )
        else:
            print(
                f"[{path.parent.name or path.name}] disruptions: none — "
                "every lease ran to completion undisturbed",
                file=out,
            )
    return status


def _normalize_metrics_url(raw: str) -> str:
    """Accept ``host:port``, a bare URL, or a full ``/metrics`` URL."""
    url = raw if "://" in raw else f"http://{raw}"
    scheme, _, rest = url.partition("://")
    if "/" not in rest:
        rest += "/metrics"
    return f"{scheme}://{rest}"


def _scrape_metrics(url: str) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    import urllib.request

    with urllib.request.urlopen(url, timeout=10) as response:  # noqa: S310 — user-given URL
        text = response.read().decode("utf-8")
    return parse_prometheus_samples(text)


def _live_render(
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float],
    prev_runs: dict[str, float],
    dt: float | None,
    out: IO[str],
) -> dict[str, float]:
    """One refresh of the fleet view; returns per-worker run totals."""
    up = _sum_by_label(samples, "repro_service_worker_up", "worker")
    runs = _sum_by_label(samples, "repro_service_worker_runs_total", "worker")
    lag = _sum_by_label(samples, "repro_service_worker_idle_seconds", "worker")
    slowest = _sum_by_label(samples, "repro_service_lease_slowest_seconds", "worker")
    lease_events = _sum_by_label(samples, "repro_service_leases_total", "event")
    steals = sum(
        value
        for (metric, _labels), value in samples.items()
        if metric == "repro_service_steals_total"
    )
    mixes: dict[str, dict[str, int]] = {}
    for (metric, labels), value in samples.items():
        if metric != "repro_service_worker_runs_total":
            continue
        label_map = dict(labels)
        worker = label_map.get("worker")
        outcome = label_map.get("outcome", "?")
        if worker is not None:
            mixes.setdefault(worker, {})[outcome] = int(value)

    rows: list[list[Any]] = []
    for worker in sorted(set(up) | set(runs)):
        delta = runs.get(worker, 0.0) - prev_runs.get(worker, 0.0)
        rate = "-" if not dt or dt <= 0 else f"{max(0.0, delta) / dt:.1f}"
        rtt = quantile_from_samples(
            samples, "repro_service_heartbeat_rtt_seconds", 0.5, worker=worker
        )
        mix = " ".join(
            f"{o}:{n}" for o, n in sorted(mixes.get(worker, {}).items())
        )
        rows.append(
            [
                worker,
                "up" if up.get(worker, 0.0) >= 1 else "DOWN",
                int(runs.get(worker, 0.0)),
                rate,
                f"{lag.get(worker, 0.0):.2f}",
                "-" if rtt is None else f"{rtt * 1000:.2f}",
                f"{slowest.get(worker, 0.0):.3f}" if worker in slowest else "-",
                mix or "-",
            ]
        )
    total_runs = int(sum(runs.values()))
    issued = int(lease_events.get("issued", 0.0))
    done = int(lease_events.get("done", 0.0))
    print(
        f"fleet: {total_runs} runs streamed | leases {done}/{issued} done | "
        f"steals {int(steals)} | workers {sum(1 for v in up.values() if v >= 1)}"
        f"/{len(up)} up",
        file=out,
    )
    print(
        format_table(
            ["worker", "state", "runs", "runs/s", "lag s", "rtt p50 ms", "slowest lease s", "outcomes"],
            rows or [["(no workers yet)", "-", 0, "-", "-", "-", "-", "-"]],
            title="fleet workers",
        ),
        file=out,
    )
    return runs


def _live_main(argv: list[str], out: IO[str]) -> int:
    """``repro-inspect live``: refreshing fleet view from a /metrics URL.

    Scrapes a broker's (``BrokerBackend(metrics_port=...)``) or
    ``repro-serve``'s ``/metrics`` endpoint and renders a per-worker
    table — liveness, streamed records, run rate (from scrape deltas),
    broker-observed lag, heartbeat RTT p50, slowest completed lease and
    the outcome mix — refreshed every ``--interval`` seconds.
    """
    parser = argparse.ArgumentParser(
        prog="repro-inspect live",
        description="Live per-worker fleet table from a /metrics scrape endpoint.",
    )
    parser.add_argument(
        "url", help="scrape endpoint: host:port or http://host:port/metrics"
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, help="seconds between refreshes"
    )
    parser.add_argument(
        "--count", type=int, default=0, help="refreshes before exiting (0 = forever)"
    )
    parser.add_argument(
        "--once", action="store_true", help="scrape and render once, then exit"
    )
    args = parser.parse_args(argv)
    url = _normalize_metrics_url(args.url)
    limit = 1 if args.once else args.count
    prev_runs: dict[str, float] = {}
    prev_t: float | None = None
    iteration = 0
    while True:
        try:
            samples = _scrape_metrics(url)
        except (OSError, ValueError) as exc:
            print(f"repro-inspect live: scrape failed: {exc}", file=sys.stderr)
            return 2
        now = time.monotonic()
        dt = None if prev_t is None else now - prev_t
        prev_runs = _live_render(samples, prev_runs, dt, out)
        prev_t = now
        iteration += 1
        if limit and iteration >= limit:
            return 0
        time.sleep(args.interval)


def main(argv: list[str] | None = None, stream: IO[str] | None = None) -> int:
    """Entry point for the ``repro-inspect`` console script."""
    args_in = list(sys.argv[1:]) if argv is None else list(argv)
    out_stream = stream if stream is not None else sys.stdout
    if args_in and args_in[0] == "fuzz":
        return _fuzz_main(args_in[1:], out_stream)
    if args_in and args_in[0] == "service":
        return _service_main(args_in[1:], out_stream)
    if args_in and args_in[0] == "live":
        return _live_main(args_in[1:], out_stream)
    parser = argparse.ArgumentParser(
        prog="repro-inspect",
        description="Join campaign.jsonl, trace.jsonl and metrics into one analytics report.",
    )
    parser.add_argument(
        "campaigns",
        nargs="+",
        help="Campaign directories (checkpoint dirs) or campaign.jsonl files.",
    )
    parser.add_argument("--metrics", help="Explicit metrics snapshot path (single campaign).")
    parser.add_argument("--trace", help="Explicit trace.jsonl path (single campaign).")
    parser.add_argument("--html", help="Also write a self-contained HTML report here.")
    parser.add_argument("--confidence", type=float, default=0.95, help="CI confidence level.")
    parser.add_argument(
        "--interval",
        choices=("wilson", "anytime"),
        default="wilson",
        help="CI construction (see DESIGN §10).",
    )
    parser.add_argument(
        "--drift-alpha", type=float, default=0.01, help="Family-wise drift alpha."
    )
    parser.add_argument(
        "--target-ci",
        type=float,
        default=None,
        help="Annotate convergence charts with this half-width target.",
    )
    parser.add_argument("--top", type=int, default=5, help="Slowest shards shown.")
    parser.add_argument(
        "--diff",
        action="store_true",
        help="Compare exactly two campaigns cell-by-cell (two-proportion z).",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="Exit nonzero on reconciliation mismatch or drift flags.",
    )
    args = parser.parse_args(argv)
    out = stream if stream is not None else sys.stdout

    if args.diff and len(args.campaigns) != 2:
        parser.error("--diff requires exactly two campaigns")
    if (args.metrics or args.trace) and len(args.campaigns) != 1:
        parser.error("--metrics/--trace apply to a single campaign")

    registry = MetricsRegistry()
    campaigns = [
        load_campaign(
            root,
            metrics_path=args.metrics if len(args.campaigns) == 1 else None,
            trace_path=args.trace if len(args.campaigns) == 1 else None,
            registry=registry,
        )
        for root in args.campaigns
    ]
    missing = [c.name for c in campaigns if not c.records]
    if missing:
        print(f"repro-inspect: no records found for: {', '.join(missing)}", file=sys.stderr)
        return 2

    text, problems = render_text(
        campaigns,
        confidence=args.confidence,
        interval=args.interval,
        drift_alpha=args.drift_alpha,
        top=args.top,
        diff=args.diff,
    )
    print(text, file=out)
    if args.html:
        report = render_html(
            campaigns,
            confidence=args.confidence,
            interval=args.interval,
            drift_alpha=args.drift_alpha,
            top=args.top,
            diff=args.diff,
            target_ci=args.target_ci,
        )
        target = Path(args.html)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(report, encoding="utf-8")
        print(f"repro-inspect: wrote {target}", file=sys.stderr)
    for problem in problems:
        print(f"repro-inspect: {problem}", file=sys.stderr)
    return 1 if (args.strict and problems) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
