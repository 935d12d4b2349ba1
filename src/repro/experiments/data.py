"""Shared, memoised campaign data for the experiment harness.

Figures 2 and 3 consume the same beam campaigns; Figures 4-6, the
criticality tables and the mitigation analysis consume the same
injection campaigns; the future-work table consumes the hardened
campaigns.  ``ExperimentData`` runs each campaign at most once per
(benchmark, size, seed) and hands the cached result to every
experiment, so regenerating the whole paper costs one campaign per
benchmark per kind.  Every campaign — beam, CAROL-FI and hardened —
runs through :func:`~repro.carolfi.campaign.run_campaign` with the
same workers, checkpoints, isolation, progress and telemetry.

Campaign sizes scale with the ``scale`` parameter: 1.0 reproduces
statistically solid counts; 0.1 is a quick smoke configuration used by
the test-suite and CI.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import TypeVar

from repro.beam.experiment import BeamCampaignResult, BeamConfig
from repro.benchmarks.registry import BEAM_BENCHMARKS, INJECTION_BENCHMARKS
from repro.carolfi.batchrunner import DEFAULT_BATCH_SIZE
from repro.carolfi.campaign import CampaignConfig, CampaignKind, CampaignResult, run_campaign
from repro.carolfi.engine import ShardProgress
from repro.carolfi.isolation import IsolationConfig
from repro.hardening.hardened import HardenedCampaignResult, HardenedConfig
from repro.telemetry import Telemetry

__all__ = ["ExperimentData"]

#: Full-scale trial counts (scale = 1.0).
_BEAM_TRIALS = 1500
_INJECTIONS = 1600

ResultT = TypeVar("ResultT")


@dataclass
class ExperimentData:
    """Lazily-run, memoised campaigns behind all experiments.

    ``workers`` and ``checkpoint_root`` are forwarded to
    :func:`~repro.carolfi.campaign.run_campaign` for every campaign:
    ``workers=1`` (the default, used by the test suite) runs each
    campaign as one lease in this process, ``workers=None`` auto-detects
    from ``REPRO_WORKERS`` / cpu count, and a ``checkpoint_root`` gives
    every campaign its own resumable checkpoint directory under it:
    ``<benchmark>-seed<seed>-n<injections>`` for CAROL-FI,
    ``beam-<benchmark>-seed<seed>-n<trials>`` and
    ``hardened-<benchmark>-seed<seed>-n<injections>``.  ``isolation``
    selects where individual runs execute (an
    :class:`~repro.carolfi.isolation.IsolationConfig`; ``None`` keeps
    the fast in-process default).  ``telemetry`` (a
    :class:`~repro.telemetry.Telemetry` bundle) is shared by every
    campaign, so one exported registry covers the session.
    ``snapshots`` toggles CAROL-FI's execution-prefix fast path (on by
    default; records are identical either way) and ``batch_size`` sets
    the vectorized batch width of the CAROL-FI and hardened campaigns
    (1 runs every run scalar; records are byte-identical at any width).
    """

    seed: int = 2017
    scale: float = 1.0
    workers: int | None = 1
    checkpoint_root: str | Path | None = None
    isolation: IsolationConfig | None = None
    snapshots: bool = True
    batch_size: int = DEFAULT_BATCH_SIZE
    telemetry: Telemetry | None = field(default=None, repr=False)
    progress: Callable[[ShardProgress], None] | None = field(default=None, repr=False)
    _beam: dict[str, BeamCampaignResult] = field(default_factory=dict, repr=False)
    _injection: dict[str, CampaignResult] = field(default_factory=dict, repr=False)
    _hardened: dict[str, HardenedCampaignResult] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def beam_trials(self) -> int:
        return max(50, int(_BEAM_TRIALS * self.scale))

    @property
    def injections(self) -> int:
        return max(50, int(_INJECTIONS * self.scale))

    def _run(self, config: CampaignKind[ResultT], directory: str) -> ResultT:
        """One campaign with this session's execution settings."""
        checkpoint_dir = None
        if self.checkpoint_root is not None:
            checkpoint_dir = Path(self.checkpoint_root) / directory
        return run_campaign(
            config,
            workers=self.workers,
            checkpoint_dir=checkpoint_dir,
            progress=self.progress,
            isolation=self.isolation,
            telemetry=self.telemetry,
        )

    def beam(self, benchmark: str) -> BeamCampaignResult:
        """The (cached) beam campaign of one benchmark."""
        if benchmark not in BEAM_BENCHMARKS:
            raise KeyError(f"{benchmark!r} was not irradiated in the paper")
        if benchmark not in self._beam:
            config = BeamConfig(benchmark=benchmark, trials=self.beam_trials, seed=self.seed)
            self._beam[benchmark] = self._run(
                config, f"beam-{benchmark}-seed{self.seed}-n{self.beam_trials}"
            )
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
            )
            self._injection[benchmark] = self._run(
                config, f"{benchmark}-seed{self.seed}-n{self.injections}"
            )
        return self._injection[benchmark]

    def hardened(self, benchmark: str) -> HardenedCampaignResult:
        """The (cached) hardened campaign of one benchmark."""
        if benchmark not in INJECTION_BENCHMARKS:
            raise KeyError(f"{benchmark!r} is not in the injection study")
        if benchmark not in self._hardened:
            config = HardenedConfig(
                benchmark=benchmark,
                injections=self.injections,
                seed=self.seed,
                batch_size=self.batch_size,
            )
            self._hardened[benchmark] = self._run(
                config, f"hardened-{benchmark}-seed{self.seed}-n{self.injections}"
            )
        return self._hardened[benchmark]

    def all_beam(self) -> dict[str, BeamCampaignResult]:
        return {name: self.beam(name) for name in BEAM_BENCHMARKS}

    def all_injection(self) -> dict[str, CampaignResult]:
        return {name: self.injection(name) for name in INJECTION_BENCHMARKS}
