"""Shared, memoised campaign data for the experiment harness.

Figures 2 and 3 consume the same beam campaigns; Figures 4-6, the
criticality tables and the mitigation analysis consume the same
injection campaigns.  ``ExperimentData`` runs each campaign at most
once per (benchmark, size, seed) and hands the cached result to every
experiment, so regenerating the whole paper costs one campaign per
benchmark per injector.

Campaign sizes scale with the ``scale`` parameter: 1.0 reproduces
statistically solid counts; 0.1 is a quick smoke configuration used by
the test-suite and CI.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.beam.experiment import BeamCampaignResult, BeamExperiment
from repro.benchmarks.registry import BEAM_BENCHMARKS, INJECTION_BENCHMARKS
from repro.carolfi.campaign import CampaignConfig, CampaignResult, run_campaign
from repro.carolfi.engine import ShardProgress
from repro.carolfi.isolation import IsolationConfig
from repro.telemetry import Telemetry

__all__ = ["ExperimentData"]

#: Full-scale trial counts (scale = 1.0).
_BEAM_TRIALS = 1500
_INJECTIONS = 1600


@dataclass
class ExperimentData:
    """Lazily-run, memoised campaigns behind all experiments.

    ``workers`` and ``checkpoint_root`` are forwarded to
    :func:`~repro.carolfi.campaign.run_campaign`: ``workers=1`` (the
    default, used by the test suite) runs each campaign as one lease in
    this process, ``workers=None`` auto-detects
    from ``REPRO_WORKERS`` / cpu count, and a ``checkpoint_root`` gives
    every benchmark campaign its own resumable checkpoint directory
    under it.  ``isolation`` selects where individual injections run
    (an :class:`~repro.carolfi.isolation.IsolationConfig`; ``None``
    keeps the fast in-process default).  ``telemetry`` (a
    :class:`~repro.telemetry.Telemetry` bundle) is shared by every
    injection campaign, so one exported registry covers the session.
    ``snapshots`` toggles the execution-prefix fast path (on by
    default; records are identical either way) and ``batch_size`` sets
    the vectorized batched-injection width (1 disables; records are
    byte-identical at any width).  ``target_ci`` forwards the
    statistical early-stopping target (CI half-width) to every
    injection campaign; stopped campaigns keep a byte-identical prefix
    of the uncapped record stream, so downstream figures stay
    deterministic.
    """

    seed: int = 2017
    scale: float = 1.0
    workers: int | None = 1
    checkpoint_root: str | Path | None = None
    isolation: IsolationConfig | None = None
    snapshots: bool = True
    batch_size: int = 1
    target_ci: float | None = None
    telemetry: Telemetry | None = field(default=None, repr=False)
    progress: Callable[[ShardProgress], None] | None = field(default=None, repr=False)
    _beam: dict[str, BeamCampaignResult] = field(default_factory=dict, repr=False)
    _injection: dict[str, CampaignResult] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def beam_trials(self) -> int:
        return max(50, int(_BEAM_TRIALS * self.scale))

    @property
    def injections(self) -> int:
        return max(50, int(_INJECTIONS * self.scale))

    def beam(self, benchmark: str) -> BeamCampaignResult:
        """The (cached) beam campaign of one benchmark."""
        if benchmark not in BEAM_BENCHMARKS:
            raise KeyError(f"{benchmark!r} was not irradiated in the paper")
        if benchmark not in self._beam:
            experiment = BeamExperiment(benchmark, seed=self.seed)
            self._beam[benchmark] = experiment.run_campaign(self.beam_trials)
        return self._beam[benchmark]

    def injection(self, benchmark: str) -> CampaignResult:
        """The (cached) CAROL-FI campaign of one benchmark."""
        if benchmark not in INJECTION_BENCHMARKS:
            raise KeyError(f"{benchmark!r} is not in the injection study")
        if benchmark not in self._injection:
            config = CampaignConfig(
                benchmark=benchmark,
                injections=self.injections,
                seed=self.seed,
                snapshots=self.snapshots,
                batch_size=self.batch_size,
                target_ci=self.target_ci,
            )
            checkpoint_dir = None
            if self.checkpoint_root is not None:
                checkpoint_dir = (
                    Path(self.checkpoint_root)
                    / f"{benchmark}-seed{self.seed}-n{self.injections}"
                )
            self._injection[benchmark] = run_campaign(
                config,
                workers=self.workers,
                checkpoint_dir=checkpoint_dir,
                progress=self.progress,
                isolation=self.isolation,
                telemetry=self.telemetry,
            )
        return self._injection[benchmark]

    def all_beam(self) -> dict[str, BeamCampaignResult]:
        return {name: self.beam(name) for name in BEAM_BENCHMARKS}

    def all_injection(self) -> dict[str, CampaignResult]:
        return {name: self.injection(name) for name in INJECTION_BENCHMARKS}
