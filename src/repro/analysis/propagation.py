"""Error propagation through execution time.

The paper observes (Section 4.4) that "errors not only tend to
propagate, but also tend to compound" for most benchmarks, while
HotSpot's open-system stencil dissipates them; its related work
(Ashraf et al.) tracks propagation explicitly and finds faults
contaminating "a consistent part of the output" roughly linearly in
time.  This module measures exactly that on our substrate: run a clean
and a corrupted replica in lockstep and record, after every scheduling
quantum, how many output elements differ and how large the worst
relative deviation is.  The two replicas are identical up to the
injection, so only the clean one walks the prefix; the corrupted one is
cloned from it through the snapshot protocol at the interrupt step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.benchmarks.base import Benchmark, BenchmarkError
from repro.carolfi.flipscript import FlipScript, SitePolicy
from repro.faults.models import FaultModel
from repro.faults.site import FaultSite
from repro.util.rng import derive_rng

__all__ = ["PropagationPoint", "PropagationProfile", "propagation_profile"]


@dataclass(frozen=True)
class PropagationPoint:
    """Corruption extent one quantum after the previous sample."""

    step: int
    steps_since_injection: int
    wrong_elements: int
    wrong_fraction: float
    max_rel_err: float


@dataclass
class PropagationProfile:
    """The full propagation trajectory of one injected fault."""

    benchmark: str
    site: FaultSite
    fault_model: str
    interrupt_step: int
    total_steps: int
    points: list[PropagationPoint]
    crashed: bool = False
    crash_detail: str = ""

    @property
    def final_wrong(self) -> int:
        return self.points[-1].wrong_elements if self.points else 0

    @property
    def peak_wrong(self) -> int:
        return max((p.wrong_elements for p in self.points), default=0)

    def monotone_growth_fraction(self) -> float:
        """Fraction of consecutive samples where corruption grew or held.

        ~1.0 means compounding propagation (the algebraic codes);
        lower values mean the algorithm attenuates (HotSpot).
        """
        if len(self.points) < 2:
            return 1.0
        grew = sum(
            1
            for a, b in zip(self.points, self.points[1:])
            if b.wrong_elements >= a.wrong_elements
        )
        return grew / (len(self.points) - 1)


def _compare(benchmark: Benchmark, clean, dirty) -> tuple[int, float, float]:
    golden = benchmark.output(clean)
    observed = benchmark.output(dirty)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = np.asarray(golden, dtype=np.float64)
        o = np.asarray(observed, dtype=np.float64)
        neq = ~np.isclose(o, g, rtol=0.0, atol=0.0, equal_nan=True)
        wrong = int(neq.sum())
        if wrong == 0:
            return 0, 0.0, 0.0
        diff = np.abs(o - g)[neq]
        denom = np.abs(g)[neq]
        rel = np.where(denom > 0, diff / denom, np.inf)
        rel = np.where(np.isfinite(o[neq]), rel, np.inf)
    return wrong, wrong / g.size, float(rel.max())


def propagation_profile(
    benchmark: Benchmark,
    seed: int,
    model: FaultModel = FaultModel.SINGLE,
    interrupt_step: int | None = None,
    policy: SitePolicy = SitePolicy.FOOTPRINT,
) -> PropagationProfile:
    """Inject one fault and trace its corruption footprint over time.

    The clean and corrupted replicas share inputs bit-for-bit; the
    corrupted replica's output is diffed against the clean one's after
    every quantum, so the curve shows spreading (wrong count rising),
    attenuation (falling), and compounding (max relative error rising).
    """
    rng = derive_rng(seed, "propagation", benchmark.name)
    clean = benchmark.make_state(derive_rng(seed, "propagation", benchmark.name, "in"))
    total = benchmark.num_steps(clean)
    if interrupt_step is None:
        interrupt_step = int(rng.integers(0, total))
    if not 0 <= interrupt_step < total:
        raise ValueError(f"interrupt step {interrupt_step} out of range")

    flip = FlipScript(policy)
    points: list[PropagationPoint] = []
    crashed = False
    crash_detail = ""

    for index in range(interrupt_step):
        benchmark.step(clean, index)
    dirty = benchmark.restore(benchmark.snapshot(clean))
    site, _bits = flip.inject(benchmark, dirty, interrupt_step, model, rng)
    for index in range(interrupt_step, total):
        benchmark.step(clean, index)
        try:
            benchmark.step(dirty, index)
        except (BenchmarkError, IndexError, ValueError, KeyError, OverflowError) as exc:
            crashed = True
            crash_detail = f"{type(exc).__name__}: {exc}"
            break
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
