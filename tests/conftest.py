"""Shared fixtures for the test suite.

Campaign fixtures are session-scoped and deliberately small: they give
the analysis/hardening/experiment tests real records to chew on without
re-running injections per test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.carolfi.campaign import CampaignConfig, CampaignResult, run_campaign
from repro.beam.experiment import BeamCampaignResult, BeamExperiment
from repro.util.rng import derive_rng

#: Small-but-fast CLAMR configuration used across benchmark tests.
SMALL_CLAMR = {
    "base": 4,
    "max_level": 1,
    "capacity": 120,
    "timesteps": 3,
    "leaf_size": 4,
}

#: A ten-step DGEMM for differential tests that replay every run from step 0.
SMALL_DGEMM = {"n": 24, "n_threads": 8, "k_block": 8}


@pytest.fixture
def rng() -> np.random.Generator:
    return derive_rng(1234, "tests")


@pytest.fixture(scope="session")
def dgemm_campaign() -> CampaignResult:
    """A small real injection campaign on DGEMM."""
    return run_campaign(CampaignConfig(benchmark="dgemm", injections=120, seed=99))


@pytest.fixture(scope="session")
def nw_campaign() -> CampaignResult:
    """A small real injection campaign on NW."""
    return run_campaign(CampaignConfig(benchmark="nw", injections=120, seed=99))


@pytest.fixture(scope="session")
def dgemm_beam() -> BeamCampaignResult:
    """A small real beam campaign on DGEMM."""
    return BeamExperiment("dgemm", seed=77).run_campaign(150)
