"""``repro-inspect`` — post-hoc campaign analytics over telemetry artifacts.

A finished (or checkpointed) campaign leaves a directory of structured
artifacts: ``campaign.jsonl`` (or per-shard ``shard-*.jsonl``
checkpoints), ``trace.jsonl`` spans, ``failures.jsonl`` events, and a
Prometheus metrics snapshot.  This module joins them into one report —
the analytical counterpart of the live progress line:

* an **outcome matrix** per ``(benchmark, fault_model)`` cell with
  Wilson or anytime-valid confidence intervals
  (:class:`~repro.telemetry.convergence.ConvergenceMonitor` replayed
  over the log, reading rows through the campaign kind's
  :meth:`~repro.carolfi.campaign.CampaignKind.row_cell`, which the
  checkpoint marker names: a beam campaign's cells are its struck
  resources);
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
  campaigns (e.g. before/after an engine change);
* ``repro-inspect service``: the lease table, worker timeline and
  disruption log of a broker campaign's ``failures.jsonl``.

Every JSONL artifact is read with the tolerant reader; skipped corrupt
lines are *surfaced* (per-file counts in the overview, plus a
``repro_corrupt_lines_total`` counter on the analysis registry), never
silently dropped.  Output is ``util.tables`` text on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
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
    "render_text",
]

#: Metric files probed (in order) inside a campaign directory.
_METRIC_CANDIDATES = ("metrics.prom", "metrics.txt", "metrics.json", "metrics.jsonl")


# -- artifact loading ----------------------------------------------------------


@dataclass
class CampaignData:
    """Everything ``repro-inspect`` could find for one campaign."""

    name: str
    root: Path
    #: The campaign kind's config class (CAROL-FI's unless the
    #: checkpoint marker names another).
    kind: Any = None
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
    metrics snapshot) or a single ``campaign.jsonl`` file.  The kind
    comes from the directory's ``campaign.json`` marker.  Records are
    returned in canonical run order (the kind's
    :attr:`~repro.carolfi.campaign.CampaignKind.row_key`); when
    checkpoint files are present the run→shard mapping is recovered so
    drift tests can be recomputed post-hoc.  Corrupt lines in any artifact are counted
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

    from repro.carolfi.campaign import kind_class  # the CLI's only link to the engine

    if data.root.is_file():
        base = data.root.parent
        data.records = read(data.root)
    else:
        base = data.root
        campaign_log = base / "campaign.jsonl"
        if campaign_log.exists():
            data.records = read(campaign_log)
    marker = base / "campaign.json"
    kind = None
    if not data.root.is_file() and marker.exists():
        try:
            kind = json.loads(marker.read_text(encoding="utf-8")).get("kind")
        except (json.JSONDecodeError, UnicodeDecodeError):
            data.corrupt[marker.name] = data.corrupt.get(marker.name, 0) + 1
            corrupt_counter.inc(file=marker.name)
    data.kind = kind_class(kind)
    key = data.kind.row_key

    shard_records: list[dict[str, Any]] = []
    for path in sorted(base.glob("shard-*.jsonl")):
        index = _shard_index(path)
        if index is None:
            continue
        for row in read(path):
            if row.get("kind") != "record":
                continue
            payload = row.get("data")
            if isinstance(payload, dict) and key in payload:
                data.shard_of[int(payload[key])] = index
                shard_records.append(payload)
    if not data.records and shard_records:
        data.records = sorted(shard_records, key=lambda r: int(r[key]))

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
    monitor = ConvergenceMonitor(confidence, interval, fields=data.kind.row_cell)
    key = data.kind.row_key
    for record in data.records:
        shard = data.shard_of.get(int(record[key])) if key in record else None
        monitor.observe(record, shard=shard)
    return monitor


def convergence_curves(
    records: list[dict[str, Any]],
    confidence: float = 0.95,
    interval: str = "wilson",
    points: int = 12,
    fields: Any = None,
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
    monitor = ConvergenceMonitor(confidence=confidence, interval=interval, fields=fields)
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
                len({data.kind.row_cell(r)[:2] for r in data.records}),
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
        outcomes = monitor.outcomes()
        sections.append(
            format_table(
                ["benchmark", "fault model", "runs", *outcomes],
                monitor.summary_rows() or [["(no records)", "-", 0, *("-" for _ in outcomes)]],
                title=title,
            )
        )

        curves = convergence_curves(data.records, confidence, interval, fields=data.kind.row_cell)
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


# -- CLI -----------------------------------------------------------------------


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
    """Sum one metric's samples by a label's values (parsed-snapshot view)."""
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


def main(argv: list[str] | None = None, stream: IO[str] | None = None) -> int:
    """Entry point for the ``repro-inspect`` console script."""
    args_in = list(sys.argv[1:]) if argv is None else list(argv)
    out_stream = stream if stream is not None else sys.stdout
    if args_in and args_in[0] == "service":
        return _service_main(args_in[1:], out_stream)
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
    for problem in problems:
        print(f"repro-inspect: {problem}", file=sys.stderr)
    return 1 if (args.strict and problems) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
