"""Infrastructure benchmark: placement-engine latency at scale.

Not a paper experiment — a regression guard for the TreeMatch engines
after the delta-gain/branch-and-bound rewrite. Before it, the full
Algorithm 1 pipeline took ~107 s for 2048 threads on SMP20E7; the
scalable engines bring that to about a second, and these benchmarks are
the figure to watch when touching grouping/aggregate/maporder internals.
`scripts/bench_repro.py` records the bigger sweeps into ``BENCH_sim.json``
(its ``MAPPING_SIZES`` and ``MAPPING_SCALE_SIZES``, the latter up to 10^6
tasks); this file is the fast pytest-visible smoke subset.
"""

import numpy as np

from repro.topology import smp20e7
from repro.treematch.commmatrix import CommunicationMatrix
from repro.treematch.grouping import group_greedy, intra_group_weight, refine_groups
from repro.treematch.mapping import multilevel_map, treematch_map


def test_group_greedy_2048(benchmark):
    aff = CommunicationMatrix.stencil2d(2048).affinity()

    groups = benchmark.pedantic(
        lambda: group_greedy(aff, 8), rounds=3, iterations=1
    )
    assert len(groups) == 256


def test_refine_2048(benchmark):
    aff = CommunicationMatrix.stencil2d(2048).affinity()
    base = group_greedy(aff, 8)
    w_base = intra_group_weight(aff, base)

    refined = benchmark.pedantic(
        lambda: refine_groups(aff, base), rounds=3, iterations=1
    )
    w_ref = intra_group_weight(aff, refined)
    print(f"\nintra-group weight {w_base:.0f} -> {w_ref:.0f}")
    assert w_ref >= w_base - 1e-9


def test_full_map_1024(benchmark):
    topo = smp20e7()
    comm = CommunicationMatrix.stencil2d(1024)

    pl = benchmark.pedantic(
        lambda: treematch_map(topo, comm), rounds=3, iterations=1
    )
    assert sorted(pl.thread_to_pu) == list(range(1024))
    counts = np.bincount(list(pl.thread_to_pu.values()))
    assert counts.max() <= pl.oversub_factor


def test_mapping_scale_100k(benchmark):
    # The ISSUE 7 headline: a 10^5-task sparse stencil through the
    # multilevel engine in single-digit seconds (vs ~quadratic blowup on
    # the dense greedy pipeline, and an 80 GB affinity if densified).
    topo = smp20e7()
    comm = CommunicationMatrix.stencil2d(100_000, sparse=True)

    pl = benchmark.pedantic(
        lambda: multilevel_map(topo, comm), rounds=3, iterations=1
    )
    assert sorted(pl.thread_to_pu) == list(range(100_000))
    counts = np.bincount(list(pl.thread_to_pu.values()))
    assert counts.max() <= pl.oversub_factor
    assert benchmark.stats.stats.min < 10.0
