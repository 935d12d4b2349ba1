"""Tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(autouse=True)
def private_shm(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SHM_DIR", str(tmp_path / "shm"))
    (tmp_path / "shm").mkdir()
    monkeypatch.delenv("REPRO_GOLDEN_CACHE", raising=False)


def tiny(name: str, tmp_path: Path, traced: bool, kernels=("dgemm",), runs: int = 12) -> dict:
    """A shrunken execution in this process, as cold as the benchmark's."""
    from repro.carolfi import isolation

    isolation._SUPERVISORS.clear()  # the pooled engine's per-process cache
    work = tmp_path / f"{name}-{int(traced)}"
    return workloads.execute(workloads.WORKLOADS[name], 11, work, traced, runs, kernels)


def test_digest_ignores_batch_size_and_worker_count(tmp_path):
    from repro.carolfi.campaign import CampaignConfig, run_campaign

    digests = set()
    for batch_size in (1, 8):
        for workers in (1, 2):
            config = CampaignConfig(
                benchmark="hotspot", injections=16, seed=3, batch_size=batch_size
            )
            extra = {"checkpoint_dir": tmp_path / f"ck-{batch_size}"} if workers > 1 else {}
            records = run_campaign(config, workers=workers, **extra).records
            rows = [workloads.canonical(r) for r in records]
            digests.add(workloads.digest([("hotspot", rows)]))
    assert len(digests) == 1


def test_dense_and_pooled_workloads_agree(tmp_path):
    dense = tiny("carolfi-dense", tmp_path, traced=False)
    pool = tiny("carolfi-pool", tmp_path, traced=False)
    assert dense["digest"] == pool["digest"]
    assert pool["engine"]["shards"] == 12  # one run per shard at 12 runs
    assert pool["engine"]["checkpoint_bytes"] > 0
    assert not list((tmp_path / "shm").iterdir())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Nested:
    def __init__(self, clock: FakeClock):
        self.clock = clock

    def outer(self) -> None:
        self.clock.now += 1.0
        self.inner()
        self.untraced()
        self.clock.now += 2.0

    def inner(self) -> None:
        self.clock.now += 4.0

    def untraced(self) -> None:
        self.clock.now += 8.0


def test_self_time_excludes_wrapped_callees_only():
    clock = FakeClock()
    with tracing.Tracer(clock=clock) as tracer:
        tracer.wrap(Nested, "outer", "outer")
        tracer.wrap(Nested, "inner", "inner")
        Nested(clock).outer()
        Nested(clock).inner()
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.inclusive_s == {"outer": 15.0, "inner": 8.0}
    # 15 s in outer minus the 4 s of the wrapped inner call; the
    # unwrapped callee's 8 s stay in outer's self time.
    assert tracer.self_s == {"outer": 11.0, "inner": 8.0}


def test_times_are_scaled_by_the_probes_around_them(tmp_path, monkeypatch):
    reference = hostspeed.REFERENCE_S
    assert hostspeed.scaled(3.0, reference / 2, reference * 3 / 2) == pytest.approx(3.0)
    assert 0 < hostspeed.probe_s() < 1.0
    # A host that runs the reference at half speed halves every time.
    monkeypatch.setattr(hostspeed, "probe_s", lambda: 2 * reference)
    result = tiny("carolfi-dense", tmp_path, traced=False, runs=4)
    assert result["wall_s"] == pytest.approx(result["raw_wall_s"] / 2)
    assert result["setup_s"] == pytest.approx(result["raw_setup_s"] / 2)
    assert result["setup_s"] > 0


def test_wrappers_are_removed_after_a_traced_execution(tmp_path):
    targets = tracing.trace_targets()
    before = {(owner, attr): owner.__dict__.get(attr) for owner, attr, _, _ in targets}
    tiny("hardened", tmp_path, traced=True, runs=2)
    after = {(owner, attr): owner.__dict__.get(attr) for owner, attr, _, _ in targets}
    assert after == before
    assert not any(hasattr(getattr(owner, attr), "__wrapped__") for owner, attr in before)


def test_counts_repeat_and_every_metric_is_named_and_emitted(tmp_path):
    names = {n for n, *_ in run.END_TO_END} | {n for n, *_ in run.PER_LAYER}
    names |= set(run.PINS) | set(workloads.WORKLOADS)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    for name in workloads.WORKLOADS:
        untraced = tiny(name, tmp_path / "a", traced=False, runs=3)
        first = tiny(name, tmp_path / "b", traced=True, runs=3)
        second = tiny(name, tmp_path / "c", traced=True, runs=3)
        assert first["trace"]["calls"] == second["trace"]["calls"]
        assert first["trace"]["counts"] == second["trace"]["counts"]
        assert untraced["digest"] == first["digest"] == second["digest"]
        layer = run.per_layer([first], [untraced])
        assert list(layer) == [n for n, *_ in run.PER_LAYER]
        assert list(run.end_to_end([untraced])) == [n for n, *_ in run.END_TO_END]


def test_benchmark_json_matches_the_definitions():
    assert (HERE.parent / "BENCHMARK.json").read_text() == run.render_spec()
    for workload in workloads.WORKLOADS.values():
        assert "\n" not in workload.why and len(workload.why) <= 200


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "beam", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    with pytest.raises(json.JSONDecodeError):
        json.loads((done.stdout.strip().splitlines() or [""])[-1])
