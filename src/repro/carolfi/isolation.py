"""Process isolation: one forked lease worker per lease, and its two kills.

CAROL-FI runs every injected execution as a separate OS process under
GDB, so crashes and hangs are *observed* process deaths, never simulated
exceptions.  ``IsolationMode.SUBPROCESS`` brings the reproduction to
that standard for every campaign kind — CAROL-FI injections, beam
trials and hardened injections alike: every lease runs in a forked
lease worker (:class:`~repro.service.local.LocalBackend`), at any
worker count, through the runner the kind's config builds, and what
the backend observes of that worker maps onto the DUE taxonomy:

========================  =============================  ==============
observation               meaning                        classification
========================  =============================  ==============
record over the pipe      run completed (any outcome)    worker's record
wall-clock deadline hit   true hang — backend kills      DUE ``hang``
RSS over the ceiling      runaway allocation — killed    DUE ``oom``
exit with fatal signal    segfault/abort analogue        DUE ``crash``
non-zero exit code        hard ``exit()`` analogue       DUE ``crash``
exit code 0 mid-run       protocol violation             DUE ``crash``
========================  =============================  ==============

Deadline and RSS kills are the backend's *own* deterministic actions, so
the killed run is recorded at once, and the lease is re-cut from the
next run.  A self-inflicted worker death (signal, exit code) is only
*reported*: whether the run is retried or **quarantined** — recorded as
a DUE with a ``sandbox:`` detail and never executed again — is the
campaign scheduler's decision (:mod:`repro.service.scheduler`), made by
one policy for every execution mode.

Workers start by ``fork`` where available: a parent that has already
warmed :func:`supervisor_for`'s cache hands each worker the golden run
for free.  Nothing here knows a campaign kind.
"""

from __future__ import annotations

import enum
import json
import multiprocessing
import os
import signal as signal_mod
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover — import cycle: campaign imports us
    from repro.carolfi.campaign import CampaignKind

__all__ = [
    "EventCallback",
    "IsolationConfig",
    "IsolationMode",
    "describe_exitcode",
    "mp_context",
    "rss_bytes",
    "supervisor_for",
    "supervisor_key",
]

EventCallback = Callable[[dict[str, Any]], None]


class IsolationMode(str, enum.Enum):
    """Where an injected execution runs."""

    INPROC = "inproc"
    """In the calling process (fast, test-friendly; a pathological run
    can take the campaign worker down with it)."""

    SUBPROCESS = "subprocess"
    """In a forked lease worker, at any worker count, killed at the
    run's deadline or RSS ceiling (the paper's methodology: DUEs are
    observed process deaths)."""


@dataclass(frozen=True)
class IsolationConfig:
    """How injections are isolated from the campaign engine."""

    mode: IsolationMode = IsolationMode.INPROC
    timeout_s: float = 60.0
    """Hard per-run wall-clock deadline, a constant like
    :attr:`~repro.carolfi.engine.RetryPolicy.liveness_timeout_s`.  A run
    steps at most one golden run's worth of quanta, and the slowest
    golden run at default sizes takes about 30 ms, so 60 s is reached
    only by a run that never returns (a guard-free spin), however loaded
    the host.  Guard-detected hangs keep their in-process records."""

    mem_limit_mb: float | None = None
    """RSS ceiling for the lease worker while a run is in flight;
    ``None`` disables the check (it also degrades to disabled where
    ``/proc`` is unavailable)."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", IsolationMode(self.mode))
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.mem_limit_mb is not None and self.mem_limit_mb <= 0:
            raise ValueError("mem_limit_mb must be positive")


# -- per-process runner cache -------------------------------------------------

#: Per-process cache of the runners that forked lease workers inherit,
#: keyed by the campaign config.  Input generation and the
#: golden run are paid once per process — under ``fork``, once per
#: process *tree*.  It holds one campaign: a new key evicts the old
#: runner (its golden store with it), and a campaign that forks
#: workers drops its entry at teardown.
_SUPERVISORS: dict[str, Any] = {}


def supervisor_key(config: "CampaignKind[Any]") -> str:
    """Cache key of the runner a config requires: its wire form.

    Every field is in it, so a CAROL-FI campaign with snapshots off
    never reuses (or is reused by) a snapshots-on runner — the
    fastpath-vs-slowpath equivalence tests would otherwise compare one
    path to itself.
    """
    return json.dumps(config.to_wire(), sort_keys=True)


def supervisor_for(
    config: "CampaignKind[Any]",
    on_event: EventCallback | None = None,
) -> Any:
    """The (cached) runner for one campaign config in this process.

    Built by ``config.build_runner()`` on a cache miss.  A process
    warms it before it forks workers, so each worker inherits the
    runner, golden store included, and returns it from here without a
    golden walk of its own.  ``on_event`` (structured operational
    events, e.g. snapshot-budget degradation) only matters on a cache
    miss — an already-built runner is returned as-is, since it is a
    construction-time concern, not part of the runner's identity.
    """
    key = supervisor_key(config)
    runner = _SUPERVISORS.get(key)
    if runner is None:
        _SUPERVISORS.clear()
        runner = config.build_runner(on_event=on_event)
        _SUPERVISORS[key] = runner
    return runner


def mp_context() -> Any:
    """The multiprocessing context used by all campaign subprocesses.

    Typed ``Any``: typeshed only declares ``Process`` on the concrete
    context classes, not on their ``BaseContext`` ancestor.

    ``fork`` where available (Linux): children inherit the warmed
    supervisor cache, so a lease worker started after a kill costs
    milliseconds instead of a golden re-run.  Elsewhere the platform
    default is used, and every worker pays its own golden run.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


# -- process observation helpers ----------------------------------------------


def rss_bytes(pid: int) -> int | None:
    """Resident set size of ``pid`` in bytes, or ``None`` if unreadable."""
    try:
        with open(f"/proc/{pid}/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return None


def describe_exitcode(exitcode: int | None) -> str:
    """Human-readable death cause from a joined process's exit code."""
    if exitcode is None:
        return "still running"
    if exitcode < 0:
        try:
            name = signal_mod.Signals(-exitcode).name
        except ValueError:
            name = f"signal {-exitcode}"
        return f"killed by {name}"
    if exitcode == 0:
        return "exited cleanly mid-run (protocol violation)"
    return f"exit code {exitcode}"
