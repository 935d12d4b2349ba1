"""FIT-rate estimation from beam campaigns (paper Section 4.2).

A strike trial campaign estimates P(outcome | strike); the device's
strike-collecting cross section and the reference neutron flux turn
that into a Failure-In-Time rate:

    FIT = sigma_total [cm^2] x flux [n/cm^2/h] x P(outcome) x 1e9

Confidence intervals use the exact Poisson interval on the observed
outcome count (the paper: >=100 SDC/DUE per benchmark keeps the 95% CI
under 10% of the value).  The module also reports the fluence and beam
time a physical campaign would have needed to observe the same counts,
reproducing the paper's "500 beam hours = 57,000 years" bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.spatial import ErrorPattern
from repro.beam.experiment import BeamCampaignResult
from repro.beam.flux import LanceBeam
from repro.faults.outcome import Outcome
from repro.util.stats import poisson_ci
from repro.util.units import FIT_HOURS, SEA_LEVEL_FLUX_N_CM2_H, natural_hours_covered

__all__ = ["FitEstimate", "FitReport", "estimate_fit"]


@dataclass(frozen=True)
class FitEstimate:
    """One FIT rate with its Poisson confidence interval."""

    fit: float
    lower: float
    upper: float
    events: int

    def relative_half_width(self) -> float:
        if self.fit == 0:
            return float("inf")
        return (self.upper - self.lower) / 2.0 / self.fit


@dataclass(frozen=True)
class FitReport:
    """Everything Figure 2 needs for one benchmark."""

    benchmark: str
    trials: int
    sdc: FitEstimate
    due: FitEstimate
    sdc_by_pattern: dict[str, FitEstimate]
    equivalent_fluence_n_cm2: float
    equivalent_beam_hours: float
    equivalent_natural_hours: float

    @property
    def total_fit(self) -> float:
        return self.sdc.fit + self.due.fit

    def mtbf_hours(self, devices: int = 1) -> float:
        """Mean time between (SDC or DUE) failures for ``devices`` boards."""
        total = self.total_fit
        if total <= 0:
            return float("inf")
        return FIT_HOURS / (total * devices)


def _estimate(
    events: int,
    trials: int,
    cross_section_cm2: float,
    natural_flux: float,
) -> FitEstimate:
    scale = cross_section_cm2 * natural_flux * FIT_HOURS / trials
    ci = poisson_ci(events)
    return FitEstimate(
        fit=events * scale,
        lower=ci.lower * scale,
        upper=ci.upper * scale,
        events=events,
    )


def estimate_fit(
    result: BeamCampaignResult,
    beam: LanceBeam | None = None,
    natural_flux_n_cm2_h: float = SEA_LEVEL_FLUX_N_CM2_H,
) -> FitReport:
    """Turn a strike-trial campaign into sea-level FIT rates."""
    beam = beam or LanceBeam()
    trials = len(result.trials)
    if trials == 0:
        raise ValueError("empty campaign")
    sigma = result.sensitivity.total_cross_section_cm2

    sdc_records = result.sdc_records()
    sdc = _estimate(len(sdc_records), trials, sigma, natural_flux_n_cm2_h)
    due = _estimate(result.count(Outcome.DUE), trials, sigma, natural_flux_n_cm2_h)

    by_pattern: dict[str, FitEstimate] = {}
    for pattern in ErrorPattern.observable():
        events = sum(
            1 for r in sdc_records if r.sdc_metrics.get("pattern") == pattern.value
        )
        by_pattern[pattern.value] = _estimate(events, trials, sigma, natural_flux_n_cm2_h)

    # A physical campaign observing these trials would have needed
    # `trials` strikes on the modelled area: fluence = trials / sigma.
    fluence = trials / sigma
    return FitReport(
        benchmark=result.benchmark,
        trials=trials,
        sdc=sdc,
        due=due,
        sdc_by_pattern=by_pattern,
        equivalent_fluence_n_cm2=fluence,
        equivalent_beam_hours=beam.beam_seconds_for_fluence(fluence) / 3600.0,
        equivalent_natural_hours=natural_hours_covered(fluence, natural_flux_n_cm2_h),
    )
