"""CAROL-FI — the paper's high-level, GDB-based fault injector (Section 5).

The reproduction mirrors CAROL-FI's two-script architecture:

* the **Supervisor** (:mod:`repro.carolfi.supervisor`) launches the
  benchmark, delivers the interrupt at a random execution point, runs
  the rest of the execution, checks the output against the golden copy,
  and logs the test data;
* the **Flip-script** (:mod:`repro.carolfi.flipscript`) walks the live
  frames at the interrupt point, selects a variable and element, and
  applies one of the four fault models to its backing store.

:mod:`repro.carolfi.campaign` drives whole campaigns of every kind (the
paper injects >=10,000 faults per benchmark) through one path, whatever
the worker count or isolation mode; :mod:`repro.carolfi.engine` holds that path's
parts (shards, resumable checkpoints, the retry policy), and
:mod:`repro.carolfi.batchrunner` steps groups of runs through the
benchmarks' vectorized batch kernels.
"""

from repro.carolfi.batchrunner import BatchRunner
from repro.carolfi.campaign import CampaignConfig, CampaignKind, CampaignResult, run_campaign
from repro.carolfi.configfile import load_config, run_from_config
from repro.carolfi.engine import (
    CheckpointError,
    RetryPolicy,
    ShardFailure,
    ShardProgress,
    ShardRunError,
    ShardSpec,
    backoff_delay,
    plan_shards,
)
from repro.carolfi.flipscript import FlipScript, SitePolicy
from repro.carolfi.isolation import (
    InjectionSandbox,
    IsolationConfig,
    IsolationMode,
    SandboxDeath,
    SandboxError,
)
from repro.carolfi.prefixcache import PrefixStore, Snapshot, snapshot_interval
from repro.carolfi.supervisor import Supervisor

__all__ = [
    "BatchRunner",
    "CampaignConfig",
    "CampaignKind",
    "CampaignResult",
    "CheckpointError",
    "FlipScript",
    "InjectionSandbox",
    "IsolationConfig",
    "IsolationMode",
    "PrefixStore",
    "RetryPolicy",
    "SandboxDeath",
    "SandboxError",
    "ShardFailure",
    "ShardProgress",
    "ShardRunError",
    "ShardSpec",
    "Snapshot",
    "backoff_delay",
    "load_config",
    "plan_shards",
    "run_from_config",
    "SitePolicy",
    "snapshot_interval",
    "Supervisor",
    "run_campaign",
]
