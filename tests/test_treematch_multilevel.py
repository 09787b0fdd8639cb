"""The multilevel mapping engine: coarsening, bisection, and quality.

Three layers of coverage for ISSUE 7:

* structural invariants of the coarsening hierarchy and ``split_k``
  (cover, balance, determinism, dense/CSR backend agreement);
* ``multilevel_map`` end-to-end: valid placements, oversubscription,
  backend agreement, in-process only;
* a curated 21-instance quality gallery asserting the multilevel
  placement lands within 5% of the dense greedy+refine engine.

The gallery instances were pre-scanned (stencil, clustered, and ring
traffic on SMP20E7 at n between 640 and 1600); both engines are
deterministic, so each gap is exact and reproducible.
"""

import numpy as np
import pytest
from scipy import sparse as sp

from repro.errors import MappingError
from repro.topology import machine_by_name
from repro.treematch import (
    MULTILEVEL_CUTOVER,
    CommunicationMatrix,
    coarsen,
    mapping_strategy,
    multilevel_map,
    split_k,
    treematch_map,
)
from repro.treematch.bisect import REFINE_LIMIT
from repro.treematch.coarsen import heavy_edge_matching


def clustered(n, seed, k=None):
    """Block-community traffic: heavy inside a random cluster, light across."""
    rng = np.random.default_rng(seed)
    k = k or max(4, n // 40)
    labels = rng.integers(0, k, size=n)
    m = rng.random((n, n)) * 5
    same = labels[:, None] == labels[None, :]
    m[same] += rng.random((n, n))[same] * 95
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return CommunicationMatrix(m)


def ring(n, seed):
    """Directed nearest-neighbour ring with jittered weights."""
    rng = np.random.default_rng(seed)
    m = np.zeros((n, n))
    i = np.arange(n)
    m[i, (i + 1) % n] = 100.0 + rng.integers(0, 10, size=n)
    return CommunicationMatrix(m)


def pattern_matrix(pattern: str, n: int, seed: int) -> CommunicationMatrix:
    if pattern == "stencil":
        return CommunicationMatrix.stencil2d(n)
    if pattern == "clustered":
        return clustered(n, seed)
    return ring(n, seed)


class TestCoarsen:
    def hierarchy(self, aff, target=32):
        return coarsen(aff, target=target)

    @pytest.mark.parametrize("make", [
        lambda: CommunicationMatrix.stencil2d(500).affinity(),
        lambda: clustered(300, 0).affinity(),
    ])
    def test_invariants(self, make):
        aff = make()
        n = aff.shape[0]
        levels = self.hierarchy(aff)
        assert levels[0].n == n
        assert np.array_equal(levels[0].weights, np.ones(n, dtype=np.int64))
        total = aff.sum()
        for depth, lv in enumerate(levels):
            # Task mass is conserved on every level ...
            assert int(lv.weights.sum()) == n
            # ... while contraction drops intra-pair traffic, so the
            # surviving edge weight can only shrink.
            level_total = lv.data.sum()
            assert level_total <= total + 1e-9
            total = level_total
            dense = sp.csr_array(
                (lv.data, lv.indices, lv.indptr), shape=(lv.n, lv.n)
            ).toarray()
            # Structurally symmetric; values agree up to summation order
            # of the contracted duplicates.
            assert np.array_equal(dense != 0, dense.T != 0)
            assert np.allclose(dense, dense.T, rtol=1e-12, atol=0.0)
            assert not dense.diagonal().any()
            if depth + 1 < len(levels):
                nxt = levels[depth + 1]
                assert nxt.n < lv.n
                assert lv.coarse_of is not None
                assert lv.coarse_of.shape == (lv.n,)
                assert lv.coarse_of.min() >= 0
                assert lv.coarse_of.max() == nxt.n - 1
        assert levels[-1].coarse_of is None

    def test_reaches_target_on_connected_graph(self):
        aff = CommunicationMatrix.stencil2d(500).affinity()
        levels = self.hierarchy(aff, target=32)
        assert levels[-1].n <= 64  # matching halves at best; ~target reached

    def test_deterministic(self):
        aff = clustered(256, 3).affinity()
        a = coarsen(aff, target=16)
        b = coarsen(aff, target=16)
        assert len(a) == len(b)
        for la, lb in zip(a, b):
            assert np.array_equal(la.indptr, lb.indptr)
            assert np.array_equal(la.indices, lb.indices)
            assert np.array_equal(la.data, lb.data)
            assert np.array_equal(la.coarse_of is None, lb.coarse_of is None)
            if la.coarse_of is not None:
                assert np.array_equal(la.coarse_of, lb.coarse_of)

    def test_edge_free_graph_stalls(self):
        levels = coarsen(np.zeros((40, 40)), target=4)
        assert len(levels) == 1

    def test_matching_pairs_at_most_two(self):
        aff = clustered(200, 1).affinity()
        from repro.treematch.coarsen import csr_parts

        indptr, indices, data, n = csr_parts(aff)
        coarse_of, n_c = heavy_edge_matching(indptr, indices, data, n)
        assert n_c < n
        assert np.bincount(coarse_of, minlength=n_c).max() <= 2

    def test_bad_target_rejected(self):
        with pytest.raises(MappingError):
            coarsen(np.zeros((4, 4)), target=0)


class TestSplitK:
    @pytest.mark.parametrize("n,k", [(64, 4), (640, 20), (1536, 4)])
    def test_cover_and_balance(self, n, k):
        aff = CommunicationMatrix.stencil2d(n).affinity()
        parts = split_k(aff, k)
        assert len(parts) == k
        assert all(len(p) == n // k for p in parts)
        assert sorted(i for p in parts for i in p) == list(range(n))

    def test_deterministic(self):
        aff = clustered(640, 2).affinity()
        assert split_k(aff, 20) == split_k(aff, 20)

    def test_dense_and_sparse_agree(self):
        comm = CommunicationMatrix.stencil2d(1280)
        dense = comm.affinity()
        parts_d = split_k(dense, 20)
        parts_s = split_k(sp.csr_array(dense), 20)
        assert parts_d == parts_s

    def test_indivisible_rejected(self):
        with pytest.raises(MappingError):
            split_k(np.zeros((10, 10)), 3)

    def test_trivial_splits(self):
        aff = clustered(16, 0).affinity()
        assert split_k(aff, 1) == [list(range(16))]
        assert split_k(aff, 16) == [[i] for i in range(16)]

    def test_groups_clustered_traffic(self):
        # Four perfectly separable communities must come out exactly.
        n, k = 64, 4
        rng = np.random.default_rng(7)
        labels = np.repeat(np.arange(k), n // k)
        m = np.where(labels[:, None] == labels[None, :],
                     50.0 + rng.random((n, n)), 0.0)
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0.0)
        parts = split_k(m, k)
        for part in parts:
            assert len({int(labels[i]) for i in part}) == 1


def stars(n_stars: int, leaves: int, seed: int):
    """Stars of weighted leaves whose hubs form a light ring (CSR).

    Heavy-edge matching can merge only one leaf per hub, too few for
    ``coarsen``'s shrink threshold, so the coarsest level is the graph.
    """
    rng = np.random.default_rng(seed)
    n = n_stars * (leaves + 1)
    hubs = np.arange(n_stars) * (leaves + 1)
    rows = np.concatenate([np.repeat(hubs, leaves), hubs])
    cols = np.concatenate([
        rows[: n_stars * leaves] + np.tile(np.arange(1, leaves + 1), n_stars),
        np.roll(hubs, -1),
    ])
    w = np.concatenate([
        rng.integers(1, 11, size=n_stars * leaves).astype(float),
        np.full(n_stars, 0.5),
    ])
    m = sp.csr_array((w, (rows, cols)), shape=(n, n))
    return sp.csr_array(m + m.T)


def _with_entry(value: float):
    def make(m):
        m[3, 5] = m[5, 3] = value
        return m
    return make


def _one_sided(m):
    m[3, 5] += 1.0
    return m


#: Affinity defects, each applied to a 600-task stencil, and the word
#: the MappingError must name.
DEFECTS = {
    "nan": (_with_entry(np.nan), "non-finite"),
    "inf": (_with_entry(np.inf), "non-finite"),
    "negative": (_with_entry(-1.0), "negative"),
    "asymmetric": (_one_sided, "not symmetric"),
    "upper-only": (np.triu, "not symmetric"),
    "lower-only": (np.tril, "not symmetric"),
}


class TestBadAffinity:
    """``split_k`` and ``coarsen`` are public: they check what they get."""

    @staticmethod
    def matrix(defect: str, backend: str):
        make, _ = DEFECTS[defect]
        m = make(CommunicationMatrix.stencil2d(600).affinity())
        if backend == "csr":
            return sp.csr_array(m)
        return m

    @pytest.mark.parametrize("backend", ["dense", "csr"])
    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_split_k_rejects(self, defect, backend):
        with pytest.raises(MappingError, match=DEFECTS[defect][1]):
            split_k(self.matrix(defect, backend), 4)

    @pytest.mark.parametrize("backend", ["dense", "csr"])
    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_coarsen_rejects(self, defect, backend):
        with pytest.raises(MappingError, match=DEFECTS[defect][1]):
            coarsen(self.matrix(defect, backend), target=16)

    def test_asymmetry_names_the_entry(self):
        with pytest.raises(MappingError, match=r"\[3, 5\] = 1.0 but \[5, 3\] = 0.0"):
            split_k(self.matrix("asymmetric", "dense"), 4)

    def test_non_square_rejected(self):
        with pytest.raises(MappingError, match="square"):
            split_k(np.zeros((4, 6)), 2)
        with pytest.raises(MappingError, match="square"):
            coarsen(np.zeros(5), target=2)

    def test_explicit_zero_is_not_an_asymmetry(self):
        m = sp.csr_array(CommunicationMatrix.stencil2d(600).affinity())
        assert m[0, 300] == 0
        # Store a zero at [0, 300] but none at [300, 0]: equal values.
        c = m.tocoo()
        m0 = sp.csr_array((np.append(c.data, 0.0),
                           (np.append(c.row, 0), np.append(c.col, 300))),
                          shape=m.shape)
        assert m0.nnz == m.nnz + 1
        parts = split_k(m0, 4)
        assert sorted(i for p in parts for i in p) == list(range(600))


class TestBisectionMemory:
    def test_stalled_coarsest_level_is_never_densified(self):
        import tracemalloc

        aff = stars(128, 24, seed=11)
        n_c = coarsen(aff, target=128)[-1].n
        assert n_c > REFINE_LIMIT  # bisected and projected, never refined
        tracemalloc.start()
        try:
            parts = split_k(aff, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(i for p in parts for i in p) == list(range(aff.shape[0]))
        # A dense n_c x n_c float matrix would need n_c**2 * 8 bytes.
        assert peak < n_c * n_c * 8 / 10


    def test_split_k_never_densifies_a_level(self, monkeypatch):
        # A multilevel split refines each level on its CSR rows: it
        # reaches neither the dense engines nor a dense level matrix.
        import importlib

        bisect = importlib.import_module("repro.treematch.bisect")
        library_refine = bisect.refine_groups
        refined = []

        def refuse(*args, **kwargs):
            raise AssertionError("split_k densified a level")

        def refine_rows(a, groups, **kwargs):
            if isinstance(a, np.ndarray):
                raise AssertionError("split_k refined a dense level")
            refined.append(len(groups))
            return library_refine(a, groups, **kwargs)

        monkeypatch.setattr(bisect, "_densify", refuse)
        monkeypatch.setattr(bisect, "group_processes", refuse)
        monkeypatch.setattr(bisect, "refine_groups", refine_rows)
        aff = CommunicationMatrix.stencil2d(1280, sparse=False).affinity()
        levels = coarsen(aff, target=320)
        assert levels[0].n > 512 and min(lv.n for lv in levels) <= REFINE_LIMIT
        parts = split_k(aff, 20)
        assert sorted(i for p in parts for i in p) == list(range(1280))
        assert refined and set(refined) == {20}


class TestMultilevelMap:
    def test_valid_oversubscribed_placement(self):
        topo = machine_by_name("SMP20E7")
        comm = CommunicationMatrix.stencil2d(640)
        pl = multilevel_map(topo, comm)
        assert pl.oversub_factor == 4  # 640 tasks on 160 PUs
        assert sorted(pl.thread_to_pu) == list(range(640))
        assert pl.violations(topo, n_threads=640) == []

    def test_valid_on_hyperthreaded_machine(self):
        topo = machine_by_name("SMP12E5")
        comm = CommunicationMatrix.stencil2d(24)
        pl = multilevel_map(topo, comm)
        assert pl.granularity == "core"
        assert pl.violations(topo, n_threads=24) == []

    def test_empty_matrix_rejected(self):
        topo = machine_by_name("SMP20E7")
        with pytest.raises(MappingError):
            multilevel_map(topo, CommunicationMatrix(np.zeros((0, 0))))

    def test_threads_listed_in_leaf_order(self):
        # Placements list threads by virtual leaf; their JSON form
        # keeps that key order.
        from repro.treematch.mapping import _leaf_view

        topo = machine_by_name("SMP20E7")
        pl = multilevel_map(topo, CommunicationMatrix.stencil2d(640))
        leaves = [leaf.os_index for leaf in _leaf_view(topo, True)[0]]
        ranks = [leaves.index(pu) for pu in pl.thread_to_pu.values()]
        assert ranks == sorted(ranks)

    def test_dense_backed_input_is_held_once(self):
        # 2,000 tasks on SMP20E7 pad to lv = 2,080 virtual leaves. The
        # sparse-backed run peaks at split_k's own working set, about
        # 0.36 lv^2 * 8 B (the 1,040-vertex level is densified for
        # refine_groups); a dense-backed input adds its one lv x lv
        # affinity. Copying an n x n affinity into the padded matrix
        # held two of them: 1.93 lv^2 * 8 B in all.
        import tracemalloc

        topo = machine_by_name("SMP20E7")
        lv = 2080
        peaks, placements = {}, {}
        for sparse in (True, False):
            comm = CommunicationMatrix.stencil2d(2000, sparse=sparse)
            tracemalloc.start()
            try:
                placements[sparse] = multilevel_map(topo, comm)
                _, peaks[sparse] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert placements[False] == placements[True]
        assert peaks[False] < peaks[True] + 1.1 * lv * lv * 8

    def test_sparse_and_dense_backends_agree(self):
        topo = machine_by_name("SMP20E7")
        raw = CommunicationMatrix.stencil2d(640).raw
        pl_dense = multilevel_map(topo, CommunicationMatrix(raw, sparse=False))
        pl_sparse = multilevel_map(topo, CommunicationMatrix(raw, sparse=True))
        assert pl_dense.thread_to_pu == pl_sparse.thread_to_pu

    def test_runs_in_process_only(self):
        # n_jobs stays for bench/workloads.py's n_jobs=1 call; no other
        # value is accepted.
        topo = machine_by_name("SMP20E7")
        comm = CommunicationMatrix.stencil2d(640)
        for n_jobs in (0, 2, -1, None, True, 1.0):
            with pytest.raises(MappingError, match="n_jobs must be 1"):
                multilevel_map(topo, comm, n_jobs=n_jobs)
        assert multilevel_map(topo, comm, n_jobs=1) == multilevel_map(
            topo, comm
        )


class TestStrategySelection:
    def test_auto_cutover(self):
        assert mapping_strategy("auto", MULTILEVEL_CUTOVER) == "greedy"
        assert mapping_strategy("auto", MULTILEVEL_CUTOVER + 1) == "multilevel"

    def test_explicit_names_pass_through(self):
        assert mapping_strategy("greedy", 10**6) == "greedy"
        assert mapping_strategy("multilevel", 2) == "multilevel"

    def test_unknown_rejected(self):
        with pytest.raises(MappingError, match="unknown mapping strategy"):
            mapping_strategy("anneal", 100)


# Curated instances (pre-scanned): multilevel lands within 5% of the
# dense greedy+refine engine on each — often well below, since recursive
# bisection sees global structure the bottom-up greedy pairing misses.
GALLERY = [
    ("stencil", 640, 0),
    ("stencil", 800, 0),
    ("stencil", 960, 0),
    ("stencil", 1600, 0),
    ("clustered", 640, 0),
    ("clustered", 640, 1),
    ("clustered", 640, 2),
    ("clustered", 800, 0),
    ("clustered", 800, 1),
    ("clustered", 800, 2),
    ("clustered", 960, 0),
    ("clustered", 960, 1),
    ("clustered", 960, 2),
    ("clustered", 1120, 0),
    ("clustered", 1120, 1),
    ("ring", 640, 0),
    ("ring", 640, 1),
    ("ring", 640, 2),
    ("ring", 800, 0),
    ("ring", 800, 1),
    ("ring", 960, 0),
]


class TestQualityGallery:
    @pytest.mark.parametrize("pattern,n,seed", GALLERY)
    def test_within_five_percent_of_greedy(self, pattern, n, seed):
        topo = machine_by_name("SMP20E7")
        comm = pattern_matrix(pattern, n, seed)
        cost_ml = multilevel_map(topo, comm).cost(topo, comm)
        cost_greedy = treematch_map(topo, comm, engine="greedy").cost(
            topo, comm
        )
        assert cost_greedy > 0
        assert cost_ml <= cost_greedy * 1.05
