"""Propagation profiles cloned at the interrupt step equal lockstep ones.

``propagation_profile`` steps only the clean replica through the
fault-free prefix and clones the corrupted one from it through the
snapshot protocol at the interrupt step.  The reference below is the
loop it replaced: both replicas stepped in lockstep from step 0, the
corrupted one a ``copy.deepcopy`` of the clean input.
"""

from __future__ import annotations

import copy

import pytest

from repro.analysis.propagation import (
    PropagationPoint,
    PropagationProfile,
    _compare,
    propagation_profile,
)
from repro.benchmarks.base import Benchmark, BenchmarkError
from repro.benchmarks.registry import create, names
from repro.carolfi.flipscript import FlipScript, SitePolicy
from repro.faults.models import FaultModel
from repro.faults.site import FaultSite
from repro.util.rng import derive_rng

from tests.carolfi.test_prefixcache import SMALL_PARAMS
from tests.conftest import SMALL_DGEMM

PARAMS = {**SMALL_PARAMS, "dgemm": SMALL_DGEMM}


def lockstep_profile(
    benchmark: Benchmark,
    seed: int,
    model: FaultModel = FaultModel.SINGLE,
    interrupt_step: int | None = None,
    policy: SitePolicy = SitePolicy.FOOTPRINT,
) -> PropagationProfile:
    """Both replicas stepped side by side from step 0."""
    rng = derive_rng(seed, "propagation", benchmark.name)
    clean = benchmark.make_state(derive_rng(seed, "propagation", benchmark.name, "in"))
    dirty = copy.deepcopy(clean)
    total = benchmark.num_steps(clean)
    if interrupt_step is None:
        interrupt_step = int(rng.integers(0, total))

    flip = FlipScript(policy)
    site = FaultSite("none", "none", 0, "none")
    points: list[PropagationPoint] = []
    crashed = False
    crash_detail = ""

    for index in range(total):
        if index == interrupt_step:
            site, _bits = flip.inject(benchmark, dirty, index, model, rng)
        benchmark.step(clean, index)
        try:
            benchmark.step(dirty, index)
        except (BenchmarkError, IndexError, ValueError, KeyError, OverflowError) as exc:
            crashed = True
            crash_detail = f"{type(exc).__name__}: {exc}"
            break
        if index >= interrupt_step:
            wrong, fraction, rel = _compare(benchmark, clean, dirty)
            points.append(
                PropagationPoint(
                    step=index,
                    steps_since_injection=index - interrupt_step,
                    wrong_elements=wrong,
                    wrong_fraction=fraction,
                    max_rel_err=rel,
                )
            )

    return PropagationProfile(
        benchmark=benchmark.name,
        site=site,
        fault_model=FaultModel(model).value,
        interrupt_step=interrupt_step,
        total_steps=total,
        points=points,
        crashed=crashed,
        crash_detail=crash_detail,
    )


@pytest.mark.parametrize("name", names())
def test_profiles_match_lockstep_replay(name):
    bench = create(name, **PARAMS[name])
    profiles = []
    for seed in range(12):
        for model in FaultModel.all():
            got = propagation_profile(bench, seed=seed, model=model)
            assert repr(got) == repr(lockstep_profile(bench, seed=seed, model=model))
            profiles.append(got)
    assert any(p.crashed for p in profiles) or any(p.final_wrong for p in profiles)


@pytest.mark.parametrize("name", names())
def test_profiles_match_lockstep_replay_at_the_extremes(name):
    bench = create(name, **PARAMS[name])
    total = bench.num_steps(bench.make_state(derive_rng(0, "probe")))
    for step in (0, total - 1):
        for model in FaultModel.all():
            got = propagation_profile(bench, seed=3, model=model, interrupt_step=step)
            expected = lockstep_profile(bench, seed=3, model=model, interrupt_step=step)
            assert repr(got) == repr(expected)
            assert got.interrupt_step == step


def test_default_scale_profiles_match_lockstep_replay():
    """The propagation experiment profiles the kernels at default size."""
    for name in ("dgemm", "hotspot", "lud", "nw"):
        bench = create(name)
        for seed in range(4):
            model = FaultModel.all()[seed]
            assert repr(propagation_profile(bench, seed=seed, model=model)) == repr(
                lockstep_profile(bench, seed=seed, model=model)
            )
