"""Process-isolated injection sandbox.

CAROL-FI runs every injected execution as a separate OS process under
GDB, so crashes and hangs are *observed* process deaths, never simulated
exceptions.  This module brings the reproduction to that standard: a
:class:`InjectionSandbox` executes injections in a disposable worker
subprocess and maps what it observes onto the DUE taxonomy:

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

from repro.benchmarks.base import window_of_step
from repro.benchmarks.registry import create
from repro.carolfi import shmstore
from repro.carolfi.batchrunner import BatchRunner
from repro.carolfi.prefixcache import DEFAULT_SNAPSHOT_BUDGET
from repro.carolfi.supervisor import Supervisor
from repro.faults.models import FaultModel
from repro.faults.outcome import DueKind, InjectionRecord, Outcome
from repro.faults.site import FaultSite
from repro.telemetry import current_registry, deactivate
from repro.util.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover — import cycle: campaign imports us
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

    from repro.carolfi.campaign import CampaignConfig

__all__ = [
    "EventCallback",
    "InjectionSandbox",
    "IsolationConfig",
    "IsolationMode",
    "SandboxDeath",
    "SandboxError",
    "describe_exitcode",
    "make_due_record",
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

    startup_timeout_s: float = 300.0
    """Deadline for a fresh worker to finish its golden run."""

    poll_interval_s: float = 0.01
    """Supervision tick: pipe poll / liveness / RSS check cadence."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", IsolationMode(self.mode))
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.mem_limit_mb is not None and self.mem_limit_mb <= 0:
            raise ValueError("mem_limit_mb must be positive")
        if self.startup_timeout_s <= 0 or self.poll_interval_s <= 0:
            raise ValueError("timeouts must be positive")

    def to_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode.value,
            "timeout_s": self.timeout_s,
            "mem_limit_mb": self.mem_limit_mb,
            "startup_timeout_s": self.startup_timeout_s,
            "poll_interval_s": self.poll_interval_s,
        }


# -- shared supervisor cache ---------------------------------------------------

#: Per-process Supervisor cache, keyed by everything that determines the
#: golden run.  Campaign workers are reused across shards and sandbox
#: workers are respawned after every kill, so the benchmark's input
#: generation and golden run are paid once per process — or, under the
#: ``fork`` start method, once per process *tree*.  It holds one
#: campaign: a new key evicts the old supervisor (its golden store and
#: shared segment with it), and the engine drops its campaign's entry
#: at teardown.
_SUPERVISORS: dict[str, Supervisor] = {}


def supervisor_key(config: "CampaignConfig") -> str:
    """Cache key of the Supervisor a config requires.

    ``snapshots`` is part of the key even though it never changes
    records: a snapshots-off campaign must not silently reuse (or be
    reused by) a snapshots-on Supervisor, or the fastpath-vs-slowpath
    equivalence tests would compare one path to itself.  ``shared``
    (the shared-memory snapshot store) is keyed for the same reason.
    """
    return json.dumps(
        {
            "benchmark": config.benchmark,
            "seed": config.seed,
            "policy": config.policy.value,
            "benchmark_params": config.benchmark_params,
            "snapshots": config.snapshots,
            "shared": config.shared_store,
        },
        sort_keys=True,
    )


def campaign_store_key(config: "CampaignConfig") -> str:
    """The shared-segment store key a campaign's supervisors use.

    Mirrors the :class:`Supervisor` construction in
    :func:`supervisor_for` (default snapshot budget, default density),
    so the engine can sweep the campaign's segment at teardown even
    when the publisher was a worker process that died abruptly.  The
    benchmark is instantiated because the key hashes the *resolved*
    param dict — a campaign passing partial params must map to the
    same segment its supervisors used.
    """
    benchmark = create(config.benchmark, **config.benchmark_params)
    return shmstore.store_key(
        benchmark.name,
        config.seed,
        benchmark.params,
        density=None,
        byte_budget=DEFAULT_SNAPSHOT_BUDGET,
    )


def supervisor_for(
    config: "CampaignConfig",
    on_event: EventCallback | None = None,
) -> Supervisor:
    """The (cached) Supervisor for one campaign config.

    ``on_event`` (structured operational events, e.g. snapshot-budget
    degradation) only matters on a cache miss — an already-built
    Supervisor is returned as-is, since it is a construction-time
    concern, not part of the supervisor's identity.
    """
    key = supervisor_key(config)
    supervisor = _SUPERVISORS.get(key)
    if supervisor is None:
        _SUPERVISORS.clear()
        supervisor = Supervisor(
            create(config.benchmark, **config.benchmark_params),
            seed=config.seed,
            policy=config.policy,
            snapshots=config.snapshots,
            shared=config.shared_store,
            on_event=on_event,
        )
        _SUPERVISORS[key] = supervisor
    return supervisor


def mp_context() -> Any:
    """The multiprocessing context used by all campaign subprocesses.

    Typed ``Any``: typeshed only declares ``Process`` on the concrete
    context classes, not on their ``BaseContext`` ancestor.

    ``fork`` where available (Linux): children inherit the warmed
    supervisor cache, so respawning a killed sandbox worker costs
    milliseconds instead of a golden re-run.  Elsewhere the platform
    default is used, and every worker attaches the shared segment or
    pays its own golden run.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


# -- synthetic DUE records -----------------------------------------------------


def make_due_record(
    config: "CampaignConfig",
    run_index: int,
    model: FaultModel,
    total_steps: int,
    num_windows: int,
    kind: DueKind,
    detail: str,
) -> InjectionRecord:
    """A DUE record for a run whose worker process never reported back.

    The interrupt step is re-derived from the run's own random stream
    exactly as :meth:`Supervisor.run_one` would have drawn it, so the
    record lands in the correct time window; the fault site is unknown
    (it died with the worker).
    """
    rng = derive_rng(config.seed, "carolfi", config.benchmark, "run", run_index)
    interrupt_step = int(rng.integers(0, total_steps))
    return InjectionRecord(
        benchmark=config.benchmark,
        run_index=run_index,
        site=FaultSite(
            frame="unknown",
            variable="unknown",
            flat_index=0,
            dtype="unknown",
            var_class="unknown",
        ),
        fault_model=FaultModel(model).value,
        bits=None,
        interrupt_step=interrupt_step,
        total_steps=total_steps,
        time_window=window_of_step(interrupt_step, total_steps, num_windows),
        num_windows=num_windows,
        outcome=Outcome.DUE,
        due_kind=kind,
        due_detail=detail,
    )


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
    config: "CampaignConfig",
    conn: "Connection",
    parent_end: "Connection | None" = None,
) -> None:
    """Sandbox worker: build a Supervisor, then serve run requests.

    Under the fork start method the worker inherits the parent's warmed
    supervisor cache — golden run *and* prefix-snapshot store included —
    so ``supervisor_for`` is free; under spawn, it attaches the shared
    segment that the sandbox's owner published, or walks the golden run
    itself when the campaign shares none.
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
        supervisor = supervisor_for(config)
    except BaseException as exc:  # noqa: BLE001 — reported, then re-raised
        try:
            conn.send(("startup_error", f"{type(exc).__name__}: {exc}"))
        except OSError:  # pragma: no cover — parent already gone
            pass
        raise
    conn.send(
        (
            "ready",
            {
                "total_steps": supervisor.total_steps,
                "num_windows": supervisor.benchmark.num_windows,
            },
        )
    )
    try:
        _serve(supervisor, conn)
    finally:
        # Multiprocessing children skip regular atexit (os._exit), so
        # reap any segment *this* process published — normally none:
        # the engine publishes before the sandbox forks, and the pid
        # guard keeps this from touching the parent's segments.
        shmstore.release_published()


def _serve(supervisor: Supervisor, conn: "Connection") -> None:
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
            _, run_specs, batch_size = msg
            todo = [(int(idx), FaultModel(value)) for idx, value in run_specs]
            batched = BatchRunner(supervisor, int(batch_size)).run_many(todo)
            conn.send(
                (
                    "batch_records",
                    {idx: record.to_dict() for idx, record in batched.items()},
                )
            )
            continue
        _, run_index, model_value = msg
        record = supervisor.run_one(run_index, FaultModel(model_value))
        conn.send(("record", record.to_dict()))


# -- the parent side -----------------------------------------------------------


class InjectionSandbox:
    """Runs injections in a supervised, disposable worker subprocess.

    Presents the same ``run_one(run_index, model) -> InjectionRecord``
    surface as :class:`Supervisor`, but every call is executed in the
    worker and supervised with a hard wall-clock deadline and an
    optional RSS ceiling.  Failure events (spawns, deaths, kills) are
    delivered to ``on_event`` as dicts — the executor that owns the
    sandbox forwards them into the campaign's ``failures.jsonl``.
    """

    def __init__(
        self,
        config: "CampaignConfig",
        isolation: IsolationConfig | None = None,
        on_event: EventCallback | None = None,
    ):
        self.config = config
        self.isolation = isolation or IsolationConfig(mode=IsolationMode.SUBPROCESS)
        self.on_event = on_event
        if getattr(config, "shared_store", False):
            # Publish (or attach) the host-wide shared segment from the
            # sandbox's owner before any worker forks: a worker that
            # published would leak its segment when killed — and being
            # killed is a sandbox worker's job description.
            try:
                supervisor_for(config, on_event=on_event)
            except Exception:  # noqa: BLE001 — the worker reports the real failure
                pass
        self._ctx = mp_context()
        self._proc: BaseProcess | None = None
        self._conn: Connection | None = None
        self._meta: dict[str, Any] | None = None
        self._mem_warned = False

    # -- metadata (cached from the most recent worker handshake) ---------------

    def _metadata(self) -> dict[str, Any]:
        # Survives worker deaths: classification of a killed run needs
        # the step/window geometry without respawning a worker for it.
        if self._meta is None:
            self._ensure_worker()
        assert self._meta is not None
        return self._meta

    @property
    def total_steps(self) -> int:
        return int(self._metadata()["total_steps"])

    @property
    def num_windows(self) -> int:
        return int(self._metadata()["num_windows"])

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
        deadline = time.monotonic() + self.isolation.startup_timeout_s
        startup_error = None
        while True:
            if parent_conn.poll(self.isolation.poll_interval_s):
                try:
                    msg = parent_conn.recv()
                except (EOFError, OSError):
                    break
                if msg[0] == "ready":
                    self._proc, self._conn, self._meta = proc, parent_conn, msg[1]
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
                startup_error = (
                    f"worker did not come up within {self.isolation.startup_timeout_s}s"
                )
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

    def run_one(self, run_index: int, model: FaultModel) -> InjectionRecord:
        """Execute one injection in the sandbox and classify the result.

        Completed runs return the worker's own record, and deadline and
        RSS kills return an immediate ``hang``/``oom`` DUE: both are run
        outcomes.  A worker that dies on its own emits ``sandbox_death``
        and raises :class:`SandboxDeath` — a failed execution, which the
        campaign scheduler retries or quarantines; the sandbox keeps no
        count.  A worker that cannot even *start* raises
        :class:`SandboxError`.
        """
        model = FaultModel(model)
        while True:
            self._ensure_worker()
            assert self._conn is not None and self._proc is not None
            try:
                self._conn.send(("run", run_index, model.value))
                break
            except (OSError, ValueError):
                # Died between runs: infrastructure, not this run's doing.
                self._emit("sandbox_death", run_index=None, detail="died while idle")
                self._teardown()
        verdict = self._await_verdict(run_index)
        if verdict[0] == "record":
            return InjectionRecord.from_dict(verdict[1])
        _, kind, detail = verdict
        if kind is DueKind.CRASH:
            self._emit("sandbox_death", run_index, detail=detail)
            raise SandboxDeath(detail)
        # Our own deterministic kill — an observed hang/OOM is the run's
        # outcome, exactly like a guard-detected hang.
        return self._due(run_index, model, kind, f"sandbox: {detail}")

    # -- one supervised batch group --------------------------------------------

    def run_batch(
        self, runs: "Sequence[tuple[int, FaultModel]]", batch_size: int
    ) -> dict[int, InjectionRecord]:
        """Drive a group of runs through the worker's vectorized path.

        :meth:`BatchRunner.run_many`'s contract lifted over the pipe:
        the returned mapping holds records only for runs the worker
        completed vectorized; a missing run means "finish it with the
        scalar :meth:`run_one`" — which preserves the scalar path's
        per-run death attribution, and therefore byte-identical records.
        A worker death, RSS overrun or deadline *during* the batch aborts
        the whole group (returns ``{}``): nothing is ever classified from
        a batch-wide failure, every member simply retries scalar.
        """
        if not runs:
            return {}
        self._ensure_worker()
        assert self._conn is not None and self._proc is not None
        payload = [(int(idx), FaultModel(model).value) for idx, model in runs]
        try:
            self._conn.send(("run_batch", payload, int(batch_size)))
        except (OSError, ValueError):
            self._emit("sandbox_death", run_index=None, detail="died while idle")
            self._teardown()
            return {}
        rows = self._await_batch(len(runs))
        if rows is None:
            return {}
        return {
            int(idx): InjectionRecord.from_dict(row) for idx, row in rows.items()
        }

    def _await_batch(self, count: int) -> dict[Any, Any] | None:
        """Wait for batch records, or ``None`` if the group aborted."""
        assert self._conn is not None and self._proc is not None
        # The group does the work of up to ``count`` scalar runs, so it
        # gets the sum of their individual budgets.
        budget = self.isolation.timeout_s * max(count, 1)
        deadline = time.monotonic() + budget
        limit = self.isolation.mem_limit_mb
        limit_bytes = None if limit is None else int(limit * (1 << 20))
        while True:
            try:
                if self._conn.poll(self.isolation.poll_interval_s):
                    msg = self._conn.recv()
                    if msg[0] == "batch_records":
                        return msg[1]
                    continue  # pragma: no cover — unexpected chatter
            except (EOFError, OSError):
                pass  # fall through to the death check
            if not self._proc.is_alive():
                self._proc.join(timeout=5.0)
                detail = describe_exitcode(self._proc.exitcode)
                self._teardown()
                self._emit("sandbox_batch_abort", detail=detail, runs=count)
                return None
            if limit_bytes is not None:
                rss = rss_bytes(self._proc.pid)  # type: ignore[arg-type]
                if rss is None:
                    limit_bytes = None  # unreadable: scalar path warns
                elif rss > limit_bytes:
                    _kill(self._proc)
                    self._teardown()
                    detail = (
                        f"rss {rss / (1 << 20):.0f} MiB exceeded the "
                        f"{limit:.0f} MiB ceiling during a batch; worker killed"
                    )
                    self._emit("sandbox_batch_abort", detail=detail, runs=count)
                    return None
            if time.monotonic() > deadline:
                _kill(self._proc)
                self._teardown()
                detail = f"batch wall-clock budget {budget:.1f}s exceeded; worker killed"
                self._emit("sandbox_batch_abort", detail=detail, runs=count)
                return None

    def _await_verdict(self, run_index: int) -> tuple[str, Any] | tuple[str, DueKind, str]:
        """Wait for a record, a deadline, an RSS overrun, or a death."""
        assert self._conn is not None and self._proc is not None
        budget = self.isolation.timeout_s
        deadline = time.monotonic() + budget
        limit = self.isolation.mem_limit_mb
        limit_bytes = None if limit is None else int(limit * (1 << 20))
        while True:
            try:
                if self._conn.poll(self.isolation.poll_interval_s):
                    msg = self._conn.recv()
                    if msg[0] == "record":
                        return ("record", msg[1])
                    continue  # pragma: no cover — unexpected chatter
            except (EOFError, OSError):
                pass  # fall through to the death check
            if not self._proc.is_alive():
                self._proc.join(timeout=5.0)
                detail = describe_exitcode(self._proc.exitcode)
                self._teardown()
                return ("death", DueKind.CRASH, detail)
            if limit_bytes is not None:
                rss = rss_bytes(self._proc.pid)  # type: ignore[arg-type]
                if rss is None and not self._mem_warned:
                    self._mem_warned = True
                    self._emit(
                        "sandbox_mem_limit_unenforceable",
                        run_index,
                        detail="cannot read worker RSS on this platform",
                    )
                    limit_bytes = None
                elif rss is not None and rss > limit_bytes:
                    _kill(self._proc)
                    self._teardown()
                    detail = (
                        f"rss {rss / (1 << 20):.0f} MiB exceeded the "
                        f"{limit:.0f} MiB ceiling; worker killed"
                    )
                    self._emit("sandbox_oom_kill", run_index, detail=detail)
                    return ("death", DueKind.OOM, detail)
            if time.monotonic() > deadline:
                _kill(self._proc)
                self._teardown()
                detail = f"wall-clock deadline {budget:.1f}s exceeded; worker killed"
                self._emit("sandbox_timeout_kill", run_index, detail=detail)
                return ("death", DueKind.HANG, detail)

    def _due(
        self, run_index: int, model: FaultModel, kind: DueKind, detail: str
    ) -> InjectionRecord:
        return make_due_record(
            self.config,
            run_index,
            model,
            self.total_steps,
            self.num_windows,
            kind,
            detail,
        )
