"""Streaming statistical convergence monitoring for injection campaigns.

The engine's telemetry (PR 3) answers "how fast is the campaign
running"; this module answers the question the paper's conclusions
actually rest on — "has the *science* converged?".  Every PVF,
outcome-rate and FIT figure is a binomial proportion whose confidence
interval narrows as injections accumulate, so a campaign should run
exactly as many injections as the target precision requires and no
more.

:class:`ConvergenceMonitor` consumes injection records incrementally
(as the engine merges shard results, or post-hoc from a campaign log)
and maintains, per ``(benchmark, fault_model)`` cell:

* streaming outcome counts (Masked/SDC/DUE, and any other outcome the
  records hold) and per-execution-window counts — enough to recompute
  every PVF slice of the paper;
* Wilson or anytime-valid confidence intervals for the SDC and DUE
  rates (:func:`repro.util.stats.wilson_ci` /
  :func:`repro.util.stats.anytime_proportion_ci`), exposed through the
  :meth:`ConvergenceMonitor.converged` predicate the engine uses for
  optional early stopping (``--target-ci``);
* per-shard outcome counts feeding a **cross-shard drift detector**
  (pooled two-proportion z-test of each shard against the rest of the
  campaign, Bonferroni-corrected) that catches seed bugs and
  nondeterminism the bit-identity tests cannot see at campaign scale —
  a shard whose SDC rate is statistically incompatible with its peers
  is flagged, because under the engine's determinism contract every
  shard samples the same underlying outcome distribution.

The monitor is pure bookkeeping: it never draws randomness, never
touches benchmark state, and costs a few dict increments per record,
so feeding it cannot perturb a single campaign record.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.util.stats import (
    CountEstimate,
    anytime_proportion_ci,
    two_proportion_z,
    wilson_ci,
)

__all__ = [
    "CellKey",
    "CellStats",
    "ConvergenceMonitor",
    "DriftFlag",
    "PVF_OUTCOMES",
]

#: One statistical cell: ``(benchmark, fault_model)``.
CellKey = tuple[str, str]

#: The outcome rates a convergence target applies to.  Masked is the
#: complement of these two, so its interval is never the binding one.
PVF_OUTCOMES: tuple[str, ...] = ("sdc", "due")

#: The outcomes every report shows first, in this order.  Any other
#: outcome the records hold (a hardened campaign's ``detected`` and
#: ``corrected``) follows them: see :meth:`ConvergenceMonitor.outcomes`.
_REPORT_OUTCOMES: tuple[str, ...] = ("masked", "sdc", "due")

#: Supported interval constructions (see DESIGN §10 for the trade-off).
_INTERVALS = {"wilson": wilson_ci, "anytime": anytime_proportion_ci}


def _record_fields(record: Any) -> tuple[str, str, str, int]:
    """``(benchmark, fault_model, outcome, time_window)`` from a record.

    The monitor's default reader, for CAROL-FI records: accepts
    :class:`~repro.faults.outcome.InjectionRecord` instances and the
    plain dicts found in ``campaign.jsonl`` / shard checkpoints.  The
    engine and ``repro-inspect`` pass each campaign kind's own row
    reader instead (:meth:`~repro.carolfi.campaign.CampaignKind.row_cell`).
    """
    if isinstance(record, Mapping):
        outcome = record["outcome"]
        return (
            str(record["benchmark"]),
            str(record["fault_model"]),
            str(getattr(outcome, "value", outcome)),
            int(record["time_window"]),
        )
    return (
        record.benchmark,
        record.fault_model,
        record.outcome.value,
        int(record.time_window),
    )


@dataclass
class CellStats:
    """Streaming counts of one ``(benchmark, fault_model)`` cell."""

    total: int = 0
    outcomes: dict[str, int] = field(default_factory=dict)
    windows: dict[int, dict[str, int]] = field(default_factory=dict)
    shards: dict[int, dict[str, int]] = field(default_factory=dict)
    shard_totals: dict[int, int] = field(default_factory=dict)

    def add(self, outcome: str, window: int, shard: int | None) -> None:
        self.total += 1
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        per_window = self.windows.setdefault(window, {})
        per_window[outcome] = per_window.get(outcome, 0) + 1
        if shard is not None:
            per_shard = self.shards.setdefault(shard, {})
            per_shard[outcome] = per_shard.get(outcome, 0) + 1
            self.shard_totals[shard] = self.shard_totals.get(shard, 0) + 1


@dataclass(frozen=True)
class DriftFlag:
    """One shard whose outcome rate is incompatible with its peers."""

    benchmark: str
    fault_model: str
    shard: int
    outcome: str
    shard_rate: float
    rest_rate: float
    shard_runs: int
    rest_runs: int
    z: float
    p_value: float
    alpha_per_test: float

    def to_dict(self) -> dict[str, Any]:
        """The ``failures.jsonl`` event payload for this flag."""
        return {
            "event": "drift",
            "benchmark": self.benchmark,
            "fault_model": self.fault_model,
            "shard": self.shard,
            "outcome": self.outcome,
            "shard_rate": round(self.shard_rate, 6),
            "rest_rate": round(self.rest_rate, 6),
            "shard_runs": self.shard_runs,
            "rest_runs": self.rest_runs,
            "z": round(self.z, 4),
            "p_value": self.p_value,
            "alpha_per_test": self.alpha_per_test,
        }


class ConvergenceMonitor:
    """Streaming per-cell outcome statistics with CIs and drift tests.

    ``interval`` selects the CI construction: ``"wilson"`` (fixed-n,
    the paper's reporting interval) or ``"anytime"`` (valid under
    continuous monitoring; conservative, never optimistic).  The engine
    checks convergence only at shard-merge boundaries, bounding the
    number of peeks by the shard count; see DESIGN §10 for why that
    keeps the Wilson default honest and when to prefer ``"anytime"``.

    ``fields`` reads ``(benchmark, cell, outcome, time_window)`` from
    one record: a campaign kind's row reader, CAROL-FI's by default
    (``None``).
    The cell is the ``fault_model`` slot of every read and report.
    """

    def __init__(
        self,
        confidence: float = 0.95,
        interval: str = "wilson",
        fields: Callable[[Any], tuple[str, str, str, int]] | None = None,
    ):
        if interval not in _INTERVALS:
            raise ValueError(f"interval must be one of {sorted(_INTERVALS)}, not {interval!r}")
        if not 0 < confidence < 1:
            raise ValueError("confidence must be in (0, 1)")
        self.confidence = confidence
        self.interval = interval
        self._ci = _INTERVALS[interval]
        self._fields = fields or _record_fields
        self._cells: dict[CellKey, CellStats] = {}
        self.runs = 0

    # -- ingestion -------------------------------------------------------------

    def observe(self, record: Any, shard: int | None = None) -> None:
        """Fold one injection record (object or dict) into the counts."""
        benchmark, model, outcome, window = self._fields(record)
        cell = self._cells.setdefault((benchmark, model), CellStats())
        cell.add(outcome, window, shard)
        self.runs += 1

    def observe_all(self, records: Iterable[Any], shard: int | None = None) -> None:
        for record in records:
            self.observe(record, shard=shard)

    # -- per-cell reads --------------------------------------------------------

    def cells(self) -> list[CellKey]:
        return sorted(self._cells)

    def cell(self, benchmark: str, fault_model: str) -> CellStats:
        return self._cells[(benchmark, fault_model)]

    def outcomes(self) -> tuple[str, ...]:
        """Masked, SDC and DUE, then every other outcome observed, sorted."""
        seen = {o for stats in self._cells.values() for o in stats.outcomes}
        return _REPORT_OUTCOMES + tuple(sorted(seen - set(_REPORT_OUTCOMES)))

    def counts(self, benchmark: str, fault_model: str) -> dict[str, int]:
        """Counts of one cell for every :meth:`outcomes` entry (missing read as 0)."""
        stats = self._cells[(benchmark, fault_model)]
        return {o: stats.outcomes.get(o, 0) for o in self.outcomes()}

    def ci(self, benchmark: str, fault_model: str, outcome: str) -> CountEstimate:
        """The cell's streaming CI for ``P(outcome | fault)``."""
        stats = self._cells[(benchmark, fault_model)]
        return self._ci(stats.outcomes.get(outcome, 0), stats.total, self.confidence)

    def half_width(self, benchmark: str, fault_model: str, outcome: str) -> float:
        estimate = self.ci(benchmark, fault_model, outcome)
        return (estimate.upper - estimate.lower) / 2.0

    def window_pvf(
        self, benchmark: str, fault_model: str, outcome: str = "sdc"
    ) -> dict[int, CountEstimate]:
        """Per-execution-window outcome estimate of one cell (Figure 6's slices)."""
        stats = self._cells[(benchmark, fault_model)]
        out: dict[int, CountEstimate] = {}
        for window in sorted(stats.windows):
            per_window = stats.windows[window]
            trials = sum(per_window.values())
            out[window] = self._ci(per_window.get(outcome, 0), trials, self.confidence)
        return out

    # -- convergence -----------------------------------------------------------

    def max_half_width(self, outcomes: tuple[str, ...] = PVF_OUTCOMES) -> float:
        """Widest CI half-width across every cell and target outcome.

        ``inf`` while no records have been observed — an empty campaign
        has not converged on anything.
        """
        if not self._cells:
            return math.inf
        widest = 0.0
        for benchmark, model in self._cells:
            for outcome in outcomes:
                widest = max(widest, self.half_width(benchmark, model, outcome))
        return widest

    def converged(
        self,
        target_halfwidth: float,
        outcomes: tuple[str, ...] = PVF_OUTCOMES,
        min_cell_runs: int = 1,
    ) -> bool:
        """True when every cell's CI half-width is at or below target.

        ``min_cell_runs`` guards the first few merges: a cell that has
        not yet reached it keeps the campaign unconverged no matter how
        narrow its (degenerate) interval is.
        """
        if target_halfwidth <= 0:
            raise ValueError("target_halfwidth must be positive")
        if not self._cells:
            return False
        if any(stats.total < min_cell_runs for stats in self._cells.values()):
            return False
        return self.max_half_width(outcomes) <= target_halfwidth

    # -- cross-shard drift -----------------------------------------------------

    def drift_flags(
        self,
        alpha: float = 0.01,
        outcomes: tuple[str, ...] = PVF_OUTCOMES,
        min_shard_runs: int = 8,
    ) -> list[DriftFlag]:
        """Shards whose outcome rates are incompatible with their peers.

        Per cell and outcome, each shard with at least ``min_shard_runs``
        records is z-tested against the pooled rest of the cell.  With a
        cell-count × shard-count × outcome-count family of tests, raw
        per-test p-values would flag *some* healthy shard in any big
        campaign, so ``alpha`` is the **family-wise** error rate and
        each test runs at ``alpha / n_tests`` (Bonferroni) — a flag
        means "statistically wrong", not "mildly unlucky".
        """
        if not 0 < alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        tests: list[tuple[CellKey, int, str, int, int, int, int]] = []
        for key in sorted(self._cells):
            stats = self._cells[key]
            for shard in sorted(stats.shards):
                n_shard = stats.shard_totals[shard]
                n_rest = stats.total - n_shard
                if n_shard < min_shard_runs or n_rest < min_shard_runs:
                    continue
                for outcome in outcomes:
                    hits_shard = stats.shards[shard].get(outcome, 0)
                    hits_rest = stats.outcomes.get(outcome, 0) - hits_shard
                    tests.append((key, shard, outcome, hits_shard, n_shard, hits_rest, n_rest))
        if not tests:
            return []
        per_test = alpha / len(tests)
        flags: list[DriftFlag] = []
        for (benchmark, model), shard, outcome, x1, n1, x2, n2 in tests:
            z, p_value = two_proportion_z(x1, n1, x2, n2)
            if p_value < per_test:
                flags.append(
                    DriftFlag(
                        benchmark=benchmark,
                        fault_model=model,
                        shard=shard,
                        outcome=outcome,
                        shard_rate=x1 / n1,
                        rest_rate=x2 / n2,
                        shard_runs=n1,
                        rest_runs=n2,
                        z=z,
                        p_value=p_value,
                        alpha_per_test=per_test,
                    )
                )
        return flags

    # -- reporting -------------------------------------------------------------

    def summary_rows(self) -> list[list[object]]:
        """``util.tables`` rows: one per cell, rates ± CI half-widths of
        every :meth:`outcomes` entry."""
        outcomes = self.outcomes()
        rows: list[list[object]] = []
        for benchmark, model in self.cells():
            stats = self._cells[(benchmark, model)]
            cells: list[object] = [benchmark, model, stats.total]
            for outcome in outcomes:
                estimate = self.ci(benchmark, model, outcome)
                half = (estimate.upper - estimate.lower) / 2.0
                cells.append(f"{estimate.value:.4f} ±{half:.4f}")
            rows.append(cells)
        return rows
