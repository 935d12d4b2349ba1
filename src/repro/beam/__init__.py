"""Neutron beam experiment simulator (paper Section 4).

Replaces the LANSCE beam line with a calibrated strike process over the
machine model:

* :mod:`repro.beam.flux` — LANSCE and natural flux figures;
* :mod:`repro.beam.sensitivity` — the per-resource cross-section table
  (the single calibration artifact of the reproduction, standing in for
  the proprietary silicon sensitivity the paper also cannot know);
* :mod:`repro.beam.experiment` — the event-driven campaign: one
  potential strike per execution, outcome observed at the program
  output exactly like the paper's host-side golden check;
* :mod:`repro.beam.fit` — FIT-rate estimation, confidence intervals,
  and fluence/beam-time bookkeeping;
* :mod:`repro.beam.facility` — a Poisson beam-session mode used to
  validate the single-strike tuning (the paper's <1e-4
  errors/execution criterion).
"""

from repro.beam.experiment import BeamCampaignResult, BeamConfig, BeamExperiment, BeamRecord
from repro.beam.facility import BeamSession, SessionStats
from repro.beam.fit import FitEstimate, FitReport, estimate_fit
from repro.beam.flux import (
    LANL_ALTITUDE_M,
    LANSCE_FLUX_MAX,
    LANSCE_FLUX_MIN,
    LanceBeam,
    natural_flux_at_altitude,
)
from repro.beam.sensitivity import DEFAULT_SENSITIVITY, DeviceSensitivity, ResourceSensitivity

__all__ = [
    "BeamCampaignResult",
    "BeamConfig",
    "BeamExperiment",
    "BeamRecord",
    "BeamSession",
    "DEFAULT_SENSITIVITY",
    "DeviceSensitivity",
    "FitEstimate",
    "FitReport",
    "LANL_ALTITUDE_M",
    "LANSCE_FLUX_MAX",
    "LANSCE_FLUX_MIN",
    "LanceBeam",
    "ResourceSensitivity",
    "SessionStats",
    "estimate_fit",
    "natural_flux_at_altitude",
]
