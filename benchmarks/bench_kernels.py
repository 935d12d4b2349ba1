"""Substrate performance: golden runtimes of the six benchmarks.

Campaign throughput is benchmark-runtime bound (one injection = one
full re-execution), so these are the numbers that size every figure's
wall-clock cost.
"""

import numpy as np
import pytest

from repro.benchmarks.registry import create, names
from repro.util.rng import derive_rng


@pytest.mark.parametrize("name", names())
def test_golden_run(benchmark, name):
    bench = create(name)
    counter = iter(range(10**9))
    result = benchmark(lambda: bench.golden(derive_rng(next(counter), "kernel")))
    assert result.size > 0


def test_clamr_kdtree_build(benchmark):
    from repro.benchmarks.clamr.kdtree import KdTree

    rng = derive_rng(5, "kd-bench")
    x, y = rng.random(480), rng.random(480)
    tree = benchmark(lambda: KdTree.build(x, y, leaf_size=8))
    assert int(tree.n_nodes[()]) > 1


def _refined_dam_break():
    """A default-size CLAMR mesh after three adapt phases."""
    bench = create("clamr")
    state = bench.make_state(derive_rng(7, "kernel"))
    for index in range(3 * 6):  # three timesteps of six phases each
        bench.step(state, index)
    return state.mesh


def test_clamr_neighbour_queries(benchmark):
    from repro.benchmarks.clamr.kdtree import KdTree
    from repro.benchmarks.clamr.shallow import find_face_neighbors

    mesh = _refined_dam_break()
    n = mesh.live()
    tree = KdTree.build(mesh.x[:n], mesh.y[:n], leaf_size=8)
    # Face-offset query points, exactly as a CLAMR step issues them.
    nbrs = benchmark(lambda: find_face_neighbors(mesh, tree))
    assert nbrs.shape == (4, n)
    assert (nbrs >= 0).any()


def test_clamr_coarsen(benchmark):
    mesh = _refined_dam_break()
    quiet = np.ones(mesh.live(), dtype=bool)
    removed = benchmark.pedantic(
        lambda fresh: fresh.coarsen(quiet),
        setup=lambda: ((mesh.clone(),), {}),
        rounds=200,
    )
    assert removed > 0
