"""repro — reproduction of "Experimental and Analytical Study of Xeon
Phi Reliability" (Oliveira et al., SC'17).

The library rebuilds the paper's entire experimental apparatus in pure
Python/NumPy:

* six injectable HPC benchmarks (:mod:`repro.benchmarks`): CLAMR with
  its AMR mesh / cell sort / K-D tree, DGEMM, HotSpot, LavaMD, LUD and
  Needleman-Wunsch;
* the CAROL-FI high-level fault injector (:mod:`repro.carolfi`) with
  the Single / Double / Random / Zero fault models
  (:mod:`repro.faults`);
* a Knights Corner machine model (:mod:`repro.phi`) and a neutron-beam
  campaign simulator with FIT estimation (:mod:`repro.beam`);
* SDC qualification and vulnerability analysis (:mod:`repro.analysis`):
  spatial error patterns, relative-error tolerance sweeps, PVF by fault
  model and time window, criticality grading, machine-scale MTBF;
* the mitigation techniques of the paper's discussion
  (:mod:`repro.hardening`): ABFT and runtime guards (duplication with
  comparison, parity, checksums) that hardened campaigns execute, and
  the per-benchmark plans with each technique's detection probability;
* a harness regenerating every figure and table
  (:mod:`repro.experiments`, CLI ``repro-experiments``).

Quickstart::

    from repro.carolfi import CampaignConfig, run_campaign

    result = run_campaign(CampaignConfig(benchmark="dgemm", injections=500))
    print(result.outcome_fractions())
"""

from repro.beam import BeamExperiment, estimate_fit
from repro.benchmarks import Benchmark, create, names
from repro.carolfi import CampaignConfig, Supervisor, run_campaign
from repro.faults import FaultModel, Outcome

__version__ = "1.0.0"

__all__ = [
    "Benchmark",
    "BeamExperiment",
    "CampaignConfig",
    "FaultModel",
    "Outcome",
    "Supervisor",
    "__version__",
    "create",
    "estimate_fit",
    "names",
    "run_campaign",
]
