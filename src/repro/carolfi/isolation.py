"""Process-isolated run sandbox.

CAROL-FI runs every injected execution as a separate OS process under
GDB, so crashes and hangs are *observed* process deaths, never simulated
exceptions.  This module brings the reproduction to that standard for
every campaign kind — CAROL-FI injections, beam trials and hardened
injections alike: an :class:`InjectionSandbox` executes runs in a
disposable worker subprocess, through the runner the kind's config
builds there, and maps what it observes onto the DUE taxonomy:

========================  =============================  ==============
observation               meaning                        classification
========================  =============================  ==============
record over the pipe      run completed (any outcome)    worker's record
wall-clock deadline hit   true hang — sandbox kills      DUE ``hang``
RSS over the ceiling      runaway allocation — killed    DUE ``oom``
exit with fatal signal    segfault/abort analogue        DUE ``crash``
non-zero exit code        hard ``exit()`` analogue       DUE ``crash``
exit code 0 mid-run       protocol violation             DUE ``crash``
========================  =============================  ==============

Deadline and RSS kills are the sandbox's *own* deterministic actions, so
they are recorded immediately.  A self-inflicted worker death (signal,
exit code) is only *reported*: :meth:`InjectionSandbox.run_one` raises
:class:`SandboxDeath` and respawns lazily on the next call.  Whether the
run is retried or **quarantined** — recorded as a DUE with a
``sandbox:`` detail and never executed again — is the campaign
scheduler's decision (:mod:`repro.service.scheduler`), made by one
policy for every execution mode.

The sandbox prefers the ``fork`` start method where available: a parent
that has already warmed :func:`supervisor_for`'s cache hands each worker
the golden run for free, making worker respawn after a death cheap.
Nothing here knows a campaign kind: runs go through its runner's surface.
"""

from __future__ import annotations

import enum
import json
import multiprocessing
import os
import signal as signal_mod
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.faults.outcome import DueKind
from repro.telemetry import current_registry, deactivate

if TYPE_CHECKING:  # pragma: no cover — import cycle: campaign imports us
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

    from repro.carolfi.campaign import CampaignKind

__all__ = [
    "EventCallback",
    "InjectionSandbox",
    "IsolationConfig",
    "IsolationMode",
    "SandboxDeath",
    "SandboxError",
    "describe_exitcode",
    "mp_context",
    "rss_bytes",
    "supervisor_for",
    "supervisor_key",
]

EventCallback = Callable[[dict[str, Any]], None]

#: Deadline for a fresh sandbox worker to finish its golden run.
STARTUP_TIMEOUT_S = 300.0

#: Supervision tick: pipe poll / liveness / RSS check cadence.
POLL_INTERVAL_S = 0.01


class IsolationMode(str, enum.Enum):
    """Where an injected execution runs."""

    INPROC = "inproc"
    """In the calling process (fast, test-friendly; a pathological run
    can take the campaign worker down with it)."""

    SUBPROCESS = "subprocess"
    """In a disposable sandbox worker process (the paper's methodology:
    DUEs are observed process deaths)."""


class SandboxError(RuntimeError):
    """The sandbox worker could not be started (not a run outcome)."""


class SandboxDeath(RuntimeError):
    """The sandbox worker died on its own (signal, exit code) mid-run."""


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
    """RSS ceiling for the worker process; ``None`` disables the check
    (it also degrades to disabled where ``/proc`` is unavailable)."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", IsolationMode(self.mode))
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.mem_limit_mb is not None and self.mem_limit_mb <= 0:
            raise ValueError("mem_limit_mb must be positive")


# -- per-process runner cache -------------------------------------------------

#: Per-process cache of the runners that forked workers inherit — a
#: pool's lease workers, a sandbox's workers (respawned after every
#: kill) — keyed by the campaign config.  Input generation and the
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
    supervisor cache, so respawning a killed sandbox worker costs
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


def _kill(proc: "BaseProcess") -> None:
    """Hard-kill a worker and reap it."""
    try:
        proc.kill()
    except (OSError, AttributeError, ValueError):  # pragma: no cover
        pass
    proc.join(timeout=5.0)


# -- the worker side -----------------------------------------------------------


def _worker_main(
    config: "CampaignKind[Any]",
    conn: "Connection",
    parent_end: "Connection | None" = None,
) -> None:
    """Sandbox worker: build the config's runner, then serve run requests.

    Under the fork start method the worker inherits the parent's warmed
    runner cache — golden run *and* prefix-snapshot store included —
    so ``supervisor_for`` is free; under spawn, it walks the golden run
    itself.
    """
    if parent_end is not None:
        # Close our inherited copy of the parent's pipe end.  Without
        # this, a parent that dies abruptly (SIGKILL, a lease worker's
        # os._exit) never delivers EOF — our own fd keeps the socket
        # alive — and the recv loop below blocks forever as an orphan.
        try:
            parent_end.close()
        except OSError:  # pragma: no cover
            pass
    # Under fork this grandchild inherits the shard worker's active
    # telemetry scope, but its spans/metrics could never be merged back
    # (records travel over the verdict pipe, telemetry over the shard
    # pipe we don't hold) — reset to disabled rather than buffer them
    # into a sink nobody drains.
    deactivate()
    try:
        runner = supervisor_for(config)
    except BaseException as exc:  # noqa: BLE001 — reported, then re-raised
        try:
            conn.send(("startup_error", f"{type(exc).__name__}: {exc}"))
        except OSError:  # pragma: no cover — parent already gone
            pass
        raise
    conn.send(("ready",))
    _serve(runner, conn)


def _serve(runner: Any, conn: "Connection") -> None:
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return  # parent is gone; die quietly
        if msg[0] == "close":
            return
        if msg[0] == "run_batch":
            # A group of runs driven through the vectorized batch path
            # inside this one forked process.  Only vectorized-path
            # records come back; structural fallbacks stay absent and
            # the parent finishes them through the scalar sandbox path,
            # keeping per-run death attribution (and therefore records)
            # identical to unbatched subprocess mode.
            _, runs, batch_size = msg
            conn.send(("batch_records", runner.run_batch(runs, batch_size)))
            continue
        _, run_index, args = msg
        conn.send(("record", runner.run_one(run_index, *args)))


# -- the parent side -----------------------------------------------------------


class InjectionSandbox:
    """Runs a campaign's runs in a supervised, disposable worker subprocess.

    Presents the runner surface of the config's kind —
    ``run_one(run_index, *args)``, ``due_record``, ``total_steps`` and
    ``num_windows``, plus ``run_batch`` for a kind with a batched path —
    but every run is executed in the worker and supervised with a hard
    wall-clock deadline and an optional RSS ceiling.  Failure events
    (spawns, deaths, kills) are delivered to ``on_event`` as dicts — the
    executor that owns the sandbox forwards them into the campaign's
    ``failures.jsonl``.
    """

    def __init__(
        self,
        config: "CampaignKind[Any]",
        isolation: IsolationConfig | None = None,
        on_event: EventCallback | None = None,
    ):
        self.config = config
        self.isolation = isolation or IsolationConfig(mode=IsolationMode.SUBPROCESS)
        self.on_event = on_event
        # Warm the owner's runner before any worker forks: each worker
        # inherits it, so a respawn after a kill — and being killed is
        # a sandbox worker's job description — walks no golden run.
        self._runner: Any = None
        try:
            self._runner = supervisor_for(config, on_event=on_event)
        except Exception:  # noqa: BLE001 — the worker reports the real failure
            pass
        self._ctx = mp_context()
        self._proc: BaseProcess | None = None
        self._conn: Connection | None = None
        self._mem_warned = False

    # -- geometry and DUE records: the owner's runner, never a worker ----------

    def _owner_runner(self) -> Any:
        # Survives worker deaths: classifying a killed run needs no
        # respawn.  Built here only if the warm-up failed.
        if self._runner is None:
            self._runner = supervisor_for(self.config, on_event=self.on_event)
        return self._runner

    @property
    def total_steps(self) -> int:
        return int(self._owner_runner().total_steps)

    @property
    def num_windows(self) -> int:
        return int(self._owner_runner().num_windows)

    def due_record(self, run_index: int, *args: Any, kind: DueKind, detail: str) -> Any:
        """The DUE record of a run no worker reported back."""
        return self._owner_runner().due_record(run_index, *args, kind=kind, detail=detail)

    # -- events ----------------------------------------------------------------

    def _emit(self, event: str, run_index: int | None = None, **extra: Any) -> None:
        if self.on_event is None:
            return
        payload: dict[str, Any] = {
            "event": event,
            "benchmark": self.config.benchmark,
            "run": run_index,
        }
        payload.update(extra)
        self.on_event(payload)

    # -- worker lifecycle ------------------------------------------------------

    def _ensure_worker(self) -> None:
        if self._proc is not None and self._proc.is_alive():
            return
        self._teardown()
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self.config, child_conn, parent_conn),
            daemon=True,
            name=f"sandbox-{self.config.benchmark}",
        )
        proc.start()
        child_conn.close()
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        startup_error = None
        while True:
            if parent_conn.poll(POLL_INTERVAL_S):
                try:
                    msg = parent_conn.recv()
                except (EOFError, OSError):
                    break
                if msg[0] == "ready":
                    self._proc, self._conn = proc, parent_conn
                    current_registry().counter(
                        "repro_sandbox_spawns_total",
                        help="Sandbox worker processes spawned, by benchmark.",
                    ).inc(benchmark=self.config.benchmark)
                    self._emit("sandbox_spawn", pid=proc.pid)
                    return
                if msg[0] == "startup_error":
                    startup_error = msg[1]
                    break
            if not proc.is_alive() and not parent_conn.poll():
                break
            if time.monotonic() > deadline:
                startup_error = f"worker did not come up within {STARTUP_TIMEOUT_S}s"
                break
        _kill(proc)
        cause = startup_error or describe_exitcode(proc.exitcode)
        parent_conn.close()
        self._emit("sandbox_startup_failure", detail=cause)
        raise SandboxError(f"sandbox worker failed to start: {cause}")

    def _teardown(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover
                pass
        if self._proc is not None and self._proc.is_alive():
            _kill(self._proc)
        self._proc = None
        self._conn = None

    def close(self) -> None:
        """Shut the worker down (politely, then by force)."""
        if self._proc is not None and self._proc.is_alive() and self._conn is not None:
            try:
                self._conn.send(("close",))
                self._proc.join(timeout=2.0)
            except (OSError, ValueError):
                pass
        self._teardown()

    def __enter__(self) -> "InjectionSandbox":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- one supervised injection ---------------------------------------------

    def run_one(self, run_index: int, *args: Any) -> Any:
        """Execute one run in the sandbox and classify the result.

        Completed runs return the worker's own record, and deadline and
        RSS kills return an immediate ``hang``/``oom`` DUE: both are run
        outcomes.  A worker that dies on its own emits ``sandbox_death``
        and raises :class:`SandboxDeath` — a failed execution, which the
        campaign scheduler retries or quarantines; the sandbox keeps no
        count.  A worker that cannot even *start* raises
        :class:`SandboxError`.
        """
        while True:
            self._ensure_worker()
            assert self._conn is not None and self._proc is not None
            try:
                self._conn.send(("run", run_index, args))
                break
            except (OSError, ValueError):
                # Died between runs: infrastructure, not this run's doing.
                self._emit("sandbox_death", run_index=None, detail="died while idle")
                self._teardown()
        kind, payload = self._await("record", self.isolation.timeout_s, run_index)
        if kind is None:
            return payload
        if kind is DueKind.CRASH:
            self._emit("sandbox_death", run_index, detail=payload)
            raise SandboxDeath(payload)
        # Our own deterministic kill — an observed hang/OOM is the run's
        # outcome, exactly like a guard-detected hang.
        event = "sandbox_oom_kill" if kind is DueKind.OOM else "sandbox_timeout_kill"
        self._emit(event, run_index, detail=payload)
        return self.due_record(run_index, *args, kind=kind, detail=f"sandbox: {payload}")

    # -- one supervised batch group --------------------------------------------

    def run_batch(self, runs: Sequence[tuple[Any, ...]], batch_size: int) -> dict[int, Any]:
        """Drive a group of runs through the worker's vectorized path.

        :meth:`BatchRunner.run_many`'s contract lifted over the pipe:
        the returned mapping holds records only for runs the worker
        completed vectorized; a missing run means "finish it with the
        scalar :meth:`run_one`" — which preserves the scalar path's
        per-run death attribution, and therefore byte-identical records.
        A worker death, RSS overrun or deadline *during* the batch aborts
        the whole group (returns ``{}``): nothing is ever classified from
        a batch-wide failure, every member simply retries scalar.  The
        group does the work of up to ``len(runs)`` scalar runs, so it
        gets the sum of their deadlines.
        """
        if not runs:
            return {}
        self._ensure_worker()
        assert self._conn is not None and self._proc is not None
        try:
            self._conn.send(("run_batch", list(runs), int(batch_size)))
        except (OSError, ValueError):
            self._emit("sandbox_death", run_index=None, detail="died while idle")
            self._teardown()
            return {}
        kind, payload = self._await("batch_records", self.isolation.timeout_s * len(runs))
        if kind is not None:
            self._emit("sandbox_batch_abort", detail=payload, runs=len(runs))
            return {}
        return payload

    def _await(
        self, expect: str, budget: float, run_index: int | None = None
    ) -> tuple[DueKind | None, Any]:
        """Wait ``budget`` seconds for the worker's ``expect`` message.

        ``(None, payload)`` when it arrives; otherwise the worker is gone
        and the result names why: ``CRASH`` (it died on its own), or
        ``OOM``/``HANG`` (the sandbox killed it over the RSS ceiling or
        the deadline), with the detail.
        """
        assert self._conn is not None and self._proc is not None
        deadline = time.monotonic() + budget
        limit = self.isolation.mem_limit_mb
        limit_bytes = None if limit is None else int(limit * (1 << 20))
        while True:
            try:
                if self._conn.poll(POLL_INTERVAL_S):
                    msg = self._conn.recv()
                    if msg[0] == expect:
                        return None, msg[1]
                    continue  # pragma: no cover — unexpected chatter
            except (EOFError, OSError):
                pass  # fall through to the death check
            if not self._proc.is_alive():
                self._proc.join(timeout=5.0)
                detail = describe_exitcode(self._proc.exitcode)
                self._teardown()
                return DueKind.CRASH, detail
            if limit_bytes is not None:
                rss = rss_bytes(self._proc.pid)  # type: ignore[arg-type]
                if rss is None:
                    limit_bytes = None
                    if not self._mem_warned:
                        self._mem_warned = True
                        self._emit(
                            "sandbox_mem_limit_unenforceable",
                            run_index,
                            detail="cannot read worker RSS on this platform",
                        )
                elif rss > limit_bytes:
                    _kill(self._proc)
                    self._teardown()
                    return DueKind.OOM, (
                        f"rss {rss / (1 << 20):.0f} MiB exceeded the "
                        f"{limit:.0f} MiB ceiling; worker killed"
                    )
            if time.monotonic() > deadline:
                _kill(self._proc)
                self._teardown()
                return DueKind.HANG, f"wall-clock deadline {budget:.1f}s exceeded; worker killed"
