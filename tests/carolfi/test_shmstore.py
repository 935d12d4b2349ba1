"""Shared-memory snapshot store: identity, copy-on-write, lifecycle.

The contract under test (DESIGN.md section 13):

* records are byte-identical with the shared store on, off, corrupted,
  or unpublishable — the segment is purely an accelerator;
* restores are copy-on-write: writes through a materialised state never
  reach the shared bytes, and per-worker memory stays private pages;
* only the publisher unlinks segments — an attacher killed with
  ``SIGKILL`` mid-restore cannot leak a ``/dev/shm`` entry — and the
  campaign engine reaps everything it published at teardown;
* a corrupted or truncated segment is an attach *miss* (never an
  error), degrading to the private clone path.
"""

import gc
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from repro.benchmarks import create
from repro.carolfi import shmstore
from repro.carolfi.campaign import CampaignConfig, run_campaign
from repro.carolfi.isolation import (
    _SUPERVISORS,
    IsolationConfig,
    IsolationMode,
    supervisor_key,
)
from repro.carolfi.supervisor import Supervisor
from repro.faults.models import FaultModel
from repro.telemetry import Telemetry, TelemetryConfig
from repro.util.jsonlog import load_records

NW_PARAMS = {"n": 16, "rows_per_step": 4}
MODELS = FaultModel.all()


def nw_supervisor(**kwargs):
    return Supervisor(create("nw", **NW_PARAMS), seed=11, snapshots=True, **kwargs)


def records(supervisor, runs=10):
    return [
        supervisor.run_one(run, MODELS[run % len(MODELS)]).to_dict()
        for run in range(runs)
    ]


def segments(tmp_path):
    return sorted(tmp_path.glob("repro-shm-*"))


def shm_series(tel):
    """The ``repro_shm_*`` counter series a campaign's telemetry holds."""
    counters = tel.registry.counter_values()
    return {name: values for name, values in counters.items() if name.startswith("repro_shm_")}


def toy_segment(step_scale=1):
    """Publish a small dict-state segment; returns (key, segment)."""
    key = shmstore.store_key("toy", 7 * step_scale, {"n": 4})
    pristine = {"a": np.arange(16, dtype=np.int64), "b": 2.5}
    snap = {"a": np.arange(16, dtype=np.int64) * 3, "b": 4.5}
    segment = shmstore.publish(
        key,
        benchmark="toy",
        total_steps=4,
        interval=2,
        degraded=False,
        pristine=pristine,
        snapshots=[(2, snap, snap["a"].nbytes)],
        golden=np.arange(4.0),
    )
    assert segment is not None
    return key, segment


# -- byte-identity ------------------------------------------------------------


def test_shared_records_identical_to_private(shm_tmp):
    shared = nw_supervisor(shared=True)
    private = nw_supervisor()
    assert shared.prefix.segment is not None
    assert records(shared) == records(private)
    assert segments(shm_tmp)  # the segment exists while the publisher lives


def test_kill_switch_records_identical(shm_tmp, monkeypatch):
    baseline = records(nw_supervisor(shared=True))
    monkeypatch.setenv(shmstore.SHM_DISABLE_ENV, "0")
    disabled = nw_supervisor(shared=True)
    assert disabled.prefix.segment is None
    assert records(disabled) == baseline


def test_second_supervisor_attaches_same_segment(shm_tmp):
    first = nw_supervisor(shared=True)
    inode = os.stat(first.prefix.segment.path).st_ino
    second = nw_supervisor(shared=True)
    assert second.prefix.segment is not None
    assert second.prefix.segment.key == first.prefix.segment.key
    # Attach, not re-publish: the directory entry was never replaced.
    assert os.stat(second.prefix.segment.path).st_ino == inode
    # Budget accounting counts the host-wide segment, not a per-process
    # copy: both supervisors report the same shared payload.
    assert first.prefix.used_bytes == second.prefix.used_bytes
    assert first.prefix.used_bytes == first.prefix.segment.payload_bytes


# -- copy-on-write semantics --------------------------------------------------


def test_shared_views_are_read_only(shm_tmp):
    _, segment = toy_segment()
    assert not segment.pristine["a"].flags.writeable
    assert not segment.snapshot_state(2)["a"].flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        segment.pristine["a"][0] = 99


def test_materialize_is_copy_on_write(shm_tmp):
    _, segment = toy_segment()
    restored = segment.materialize(2)
    assert np.array_equal(restored["a"], np.arange(16) * 3)
    restored["a"][:] = -1  # writable, and the write stays private
    assert np.array_equal(segment.snapshot_state(2)["a"], np.arange(16) * 3)
    again = segment.materialize(2)
    assert np.array_equal(again["a"], np.arange(16) * 3)
    pristine = segment.materialize(None)
    pristine["a"][:] = 7
    assert np.array_equal(segment.pristine["a"], np.arange(16))


# -- corruption and fallback --------------------------------------------------


def test_attach_rejects_corruption(shm_tmp):
    key, _ = toy_segment()
    path = shmstore.segment_path(key)
    blob = bytearray(path.read_bytes())

    blob[-1] ^= 0xFF  # payload corruption
    path.write_bytes(blob)
    assert shmstore.attach(key) is None

    path.write_bytes(bytes(blob[: len(blob) // 2]))  # truncation
    assert shmstore.attach(key) is None

    path.write_bytes(b"not a segment")  # bad magic
    assert shmstore.attach(key) is None

    assert shmstore.attach("0" * 64) is None  # plain miss


def test_corrupted_segment_degrades_to_identical_records(shm_tmp):
    baseline = records(nw_supervisor())
    publisher = nw_supervisor(shared=True)
    path = publisher.prefix.segment.path
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(blob)
    # The next supervisor misses on attach (digest check) and takes the
    # private-or-republish path; records never change either way.
    fallback = nw_supervisor(shared=True)
    assert records(fallback) == baseline


def test_unwritable_store_dir_falls_back_private(shm_tmp, monkeypatch):
    blocker = shm_tmp / "blocker"
    blocker.write_bytes(b"")
    monkeypatch.setenv(shmstore.SHM_DIR_ENV, str(blocker))
    supervisor = nw_supervisor(shared=True)
    assert supervisor.prefix.segment is None  # attach and publish both impossible
    monkeypatch.setenv(shmstore.SHM_DIR_ENV, str(shm_tmp))
    assert records(supervisor) == records(nw_supervisor())


def test_unshareable_state_is_refused():
    payload_sink = __import__("io").BytesIO()
    with pytest.raises(TypeError):
        shmstore._pack(np.array([{"nested": "object"}], dtype=object), payload_sink)
    with pytest.raises(TypeError):
        shmstore._pack(np.arange(9).reshape(3, 3).T, payload_sink)  # non-C order


# -- lifecycle ----------------------------------------------------------------


def test_campaign_engine_reaps_segments(shm_tmp):
    # A pool publishes (its lease workers read the golden store), so its
    # teardown has a segment to reap; a serial in-process campaign has
    # none (test_serial_in_process_campaign_maps_no_segment).
    config = CampaignConfig(
        benchmark="nw", injections=12, seed=13, benchmark_params=dict(NW_PARAMS)
    )
    result = run_campaign(config, workers=2, shard_size=6)
    assert len(result.records) == 12
    assert segments(shm_tmp) == []


def test_serial_in_process_campaign_maps_no_segment(shm_tmp):
    """No process but the campaign's own reads a serial in-process
    campaign's golden store: it publishes no segment and attaches none,
    mid-campaign included."""
    config = CampaignConfig(
        benchmark="nw", injections=12, seed=31, benchmark_params=dict(NW_PARAMS)
    )
    tel = Telemetry(TelemetryConfig())
    seen = []

    def progress(event):
        if event.event == "finished":
            seen.append((sorted(shm_tmp.iterdir()), shm_series(tel)))

    run_campaign(config, workers=1, shard_size=4, progress=progress, telemetry=tel)
    assert seen == [([], {})] * 3
    assert sorted(shm_tmp.iterdir()) == []
    assert shm_series(tel) == {}


@pytest.mark.parametrize(
    "workers, isolation",
    [(2, None), (1, IsolationConfig(mode=IsolationMode.SUBPROCESS))],
    ids=["pool", "sandbox"],
)
def test_sharing_campaigns_publish_once(shm_tmp, tmp_path_factory, workers, isolation):
    """A pool's backend and a sandbox's owner publish the segment once,
    before forking; lease workers inherit the warm supervisor, so no
    process attaches it and none walks the golden run again."""
    config = CampaignConfig(
        benchmark="nw", injections=16, seed=37, benchmark_params=dict(NW_PARAMS)
    )
    trace = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    tel = Telemetry(TelemetryConfig(trace_path=trace))
    run_campaign(config, workers=workers, shard_size=4, isolation=isolation, telemetry=tel)
    tel.finalize()
    assert shm_series(tel) == {
        "repro_shm_attach_total": {"benchmark=nw,result=miss": 1.0},
        "repro_shm_publish_total": {"benchmark=nw,result=ok": 1.0},
    }
    assert [span["name"] for span in load_records(trace)].count("golden_run") == 1


def test_isolated_campaign_reaps_segments(shm_tmp):
    # Sandbox children exit via os._exit (no atexit), so the engine must
    # publish from its own process *before* the sandbox forks and reap at
    # teardown; a segment published inside a sandbox worker would leak.
    # The seed is unique to this test so the supervisor cache cannot hide
    # the publish.
    config = CampaignConfig(
        benchmark="nw", injections=8, seed=29, benchmark_params=dict(NW_PARAMS)
    )
    result = run_campaign(
        config,
        workers=1,
        shard_size=4,
        isolation=IsolationConfig(mode=IsolationMode.SUBPROCESS),
    )
    assert len(result.records) == 8
    assert segments(shm_tmp) == []


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs Linux /proc")
def test_finished_campaigns_leave_no_store_mapped(shm_tmp):
    """A process keeps no golden store of a campaign that has returned:
    its supervisor leaves the cache and its segment's mappings and file
    descriptors close."""
    configs = [
        CampaignConfig(benchmark=name, injections=16, seed=3)
        for name in ("lud", "nw", "hotspot")
    ]
    for config in configs:
        assert len(run_campaign(config, workers=2).records) == 16
    gc.collect()
    maps = Path("/proc/self/maps").read_text().splitlines()
    mapped = [line for line in maps if str(shm_tmp) in line]
    assert mapped == []
    fds = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            fds.append(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:  # closed since the listing
            pass
    assert [target for target in fds if str(shm_tmp) in target] == []
    assert not any(supervisor_key(config) in _SUPERVISORS for config in configs)


def test_release_published_reaps_only_own_segments(shm_tmp):
    key, _ = toy_segment()
    foreign = shm_tmp / "repro-shm-foreign.seg"
    foreign.write_bytes(b"someone else's segment")
    shmstore.release_published()
    assert not shmstore.segment_path(key).exists()
    assert foreign.exists()  # never touch segments we did not publish
    foreign.unlink()


def test_sigkilled_attacher_mid_restore_leaks_nothing(shm_tmp):
    key, _ = toy_segment()
    ready_r, ready_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # attacher child: map, restore, dirty pages, spin
        try:
            os.close(ready_r)
            segment = shmstore.attach(key)
            restored = segment.materialize(2)
            restored["a"][:] = 7
            os.write(ready_w, b"r")
            while True:
                restored = segment.materialize(2)
                restored["a"][:] = 9
        finally:  # pragma: no cover — only reached if the kill raced us
            os._exit(0)
    os.close(ready_w)
    assert os.read(ready_r, 1) == b"r"  # child is mid-restore
    os.close(ready_r)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    # The attacher owned nothing: the publisher's entry is intact, and
    # the publisher's release leaves the directory empty.
    assert segments(shm_tmp) != []
    shmstore.release_published()
    assert segments(shm_tmp) == []


def test_forked_child_never_reaps_parent_segments(shm_tmp):
    key, _ = toy_segment()
    pid = os.fork()
    if pid == 0:  # child inherits _PUBLISHED but must not act on it
        shmstore.release_published()
        os._exit(0)
    _, status = os.waitpid(pid, 0)
    assert os.WEXITSTATUS(status) == 0
    assert shmstore.segment_path(key).exists()  # pid guard held


# -- store keys ---------------------------------------------------------------


def test_store_key_sensitivity():
    base = dict(benchmark="nw", seed=1, benchmark_params={"n": 16})
    key = shmstore.store_key(**base)
    assert key == shmstore.store_key(**base)
    assert key != shmstore.store_key(**{**base, "seed": 2})
    assert key != shmstore.store_key(**base, density=8)
    assert key != shmstore.store_key(**base, byte_budget=1 << 20)
    assert key != shmstore.store_key(**{**base, "benchmark_params": {"n": 32}})
