"""CAROL-FI — the paper's high-level, GDB-based fault injector (Section 5).

The reproduction mirrors CAROL-FI's two-script architecture:

* the **Supervisor** (:mod:`repro.carolfi.supervisor`) launches the
  benchmark, delivers the interrupt at a random execution point, runs a
  watchdog, checks the output against the golden copy, and logs the
  test data;
* the **Flip-script** (:mod:`repro.carolfi.flipscript`) walks the live
  frames at the interrupt point, selects a variable and element, and
  applies one of the four fault models to its backing store.

:mod:`repro.carolfi.campaign` drives whole campaigns (the paper injects
>=10,000 faults per benchmark), :mod:`repro.carolfi.engine` shards
campaigns over worker processes with resumable checkpoints,
:mod:`repro.carolfi.batchrunner` steps groups of runs through the
benchmarks' vectorized batch kernels, and
:mod:`repro.carolfi.logparse` re-reads persisted JSONL logs, mirroring
the paper's parser scripts.
"""

from repro.carolfi.batchrunner import BatchRunner
from repro.carolfi.campaign import CampaignConfig, CampaignResult, run_campaign
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
    read_failure_log,
    run_sharded_campaign,
)
from repro.carolfi.flipscript import FlipScript, SitePolicy
from repro.carolfi.goldencache import GoldenCache, GoldenEntry, golden_cache_key
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
    "CampaignResult",
    "CheckpointError",
    "FlipScript",
    "GoldenCache",
    "GoldenEntry",
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
    "golden_cache_key",
    "load_config",
    "plan_shards",
    "read_failure_log",
    "run_from_config",
    "run_sharded_campaign",
    "SitePolicy",
    "snapshot_interval",
    "Supervisor",
    "run_campaign",
]
