"""Config-file driven campaigns — the artifact's workflow (Appendix A.4).

"Then, a configuration file is produced with all the information needed
by the fault injector.  Finally, the fault injector is executed with
the configuration file as an argument and how many times the experiment
should be repeated."  This module reproduces that interface: an INI
config names the benchmark, its parameters, the fault models, the site
policy and the log destination; the ``repro-carolfi`` CLI takes the
config plus a repetition count and runs the campaign.

Example config::

    [carol-fi]
    benchmark = dgemm
    injections = 1000
    seed = 2017
    fault_models = single, double, random, zero
    policy = weighted
    log = logs/dgemm.jsonl

    [benchmark.params]
    n = 60
    n_threads = 20
"""

from __future__ import annotations

import argparse
import configparser
import sys
from collections.abc import Sequence
from dataclasses import replace
from pathlib import Path

from repro.analysis.pvf import outcome_shares
from repro.benchmarks.registry import BENCHMARKS
from repro.carolfi.batchrunner import DEFAULT_BATCH_SIZE
from repro.carolfi.campaign import CampaignConfig, CampaignResult, run_campaign
from repro.carolfi.flipscript import SitePolicy
from repro.faults.models import FaultModel

__all__ = ["load_config", "main", "run_from_config"]

_SECTION = "carol-fi"
_PARAMS_SECTION = "benchmark.params"


def _coerce(value: str):
    """INI values to Python: int, then float, then bool, then string."""
    text = value.strip()
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def load_config(path: str | Path) -> tuple[CampaignConfig, Path | None]:
    """Parse an artifact-style config file into a campaign plan + log path."""
    parser = configparser.ConfigParser()
    read = parser.read(str(path))
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    if _SECTION not in parser:
        raise ValueError(f"config must have a [{_SECTION}] section")
    section = parser[_SECTION]

    benchmark = section.get("benchmark", "").strip()
    if benchmark not in BENCHMARKS:
        raise ValueError(
            f"unknown benchmark {benchmark!r}; known: {sorted(BENCHMARKS)}"
        )
    models_raw = section.get("fault_models", "single, double, random, zero")
    fault_models = tuple(
        FaultModel(m.strip().lower()) for m in models_raw.split(",") if m.strip()
    )
    params = {}
    if _PARAMS_SECTION in parser:
        params = {key: _coerce(value) for key, value in parser[_PARAMS_SECTION].items()}

    config = CampaignConfig(
        benchmark=benchmark,
        injections=section.getint("injections", 1000),
        seed=section.getint("seed", 2017),
        fault_models=fault_models,
        policy=SitePolicy(section.get("policy", "weighted").strip().lower()),
        benchmark_params=params,
        snapshots=section.getboolean("snapshots", True),
        batch_size=section.getint("batch_size", DEFAULT_BATCH_SIZE),
    )
    log_value = section.get("log", "").strip()
    return config, (Path(log_value) if log_value else None)


def run_from_config(
    path: str | Path, repetitions: int | None = None
) -> CampaignResult:
    """Run the campaign a config describes.

    ``repetitions`` overrides the config's injection count — the second
    CLI argument of the artifact's workflow.
    """
    config, log_path = load_config(path)
    if repetitions is not None:
        if repetitions < 1:
            raise ValueError("repetitions must be positive")
        # dataclasses.replace keeps every other field — including ones
        # added after this code was written — instead of a hand-copied
        # constructor call silently resetting them to defaults.
        config = replace(config, injections=repetitions)
    return run_campaign(config, log_path=log_path)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-carolfi",
        description="Run a CAROL-FI campaign from an artifact-style config file.",
    )
    parser.add_argument("config", help="INI configuration file")
    parser.add_argument(
        "repetitions",
        nargs="?",
        type=int,
        default=None,
        help="how many injections to run (overrides the config)",
    )
    args = parser.parse_args(argv)
    result = run_from_config(args.config, args.repetitions)
    shares = outcome_shares(result.records)
    print(
        f"{result.config.benchmark}: {len(result)} injections -> "
        + "  ".join(f"{k} {100 * v:.1f}%" for k, v in shares.items())
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
