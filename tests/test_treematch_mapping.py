"""Tests for Algorithm 1: the full treematch_map driver and its adaptations."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.topology import fig2_machine, smp12e5, smp20e7
from repro.treematch import (
    CommunicationMatrix,
    compact_placement,
    cores_close_placement,
    cores_spread_placement,
    scatter_placement,
    treematch_map,
)
from repro.treematch.control import (
    CONTROL_EPSILON,
    ControlPlan,
    control_edges,
    plan_control_threads,
)
from repro.treematch.oversub import manage_oversubscription


def ring_matrix(n, weight=100.0):
    m = np.zeros((n, n))
    for i in range(n):
        m[i, (i + 1) % n] = weight
    return CommunicationMatrix(m)


def pipeline_matrix(n, weight=50.0):
    m = np.zeros((n, n))
    for i in range(n - 1):
        m[i + 1, i] = weight
    return CommunicationMatrix(m)


class TestCommunicationMatrix:
    def test_affinity_symmetrized(self):
        comm = pipeline_matrix(4)
        aff = comm.affinity()
        assert np.allclose(aff, aff.T)
        assert aff[0, 1] == 50.0 and aff[1, 0] == 50.0

    def test_from_edges(self):
        comm = CommunicationMatrix.from_edges(3, {(1, 0): 10.0, (2, 1): 5.0})
        assert comm.raw[1, 0] == 10.0
        assert comm.raw[2, 1] == 5.0
        assert comm.raw.sum() == 15.0

    def test_from_edges_validates(self):
        for edges, message in [
            ({(0, 5): 1.0}, r"edge \(0, 5\) outside order 2"),
            ({(0, 1): -1.0}, r"negative traffic on edge \(0, 1\)"),
            # A float or str index is rejected, not truncated.
            ({(0.5, 1): 1.0}, r"edge \(0.5, 1\) is not a pair of integer"),
            ({(1.9, 0): 1.0}, r"edge \(1.9, 0\) is not a pair of integer"),
            ({("1", 0): 1.0}, r"edge \('1', 0\) is not a pair of integer"),
            # A 3-tuple is rejected, not cut to its first two entries.
            ({(0, 1, 1): 1.0}, r"edge \(0, 1, 1\) is not a pair of integer"),
            ({(0, 2**70): 1.0}, rf"edge \(0, {2**70}\) outside order 2"),
            ({(0, 1): 1.0, (1, 0): 1 + 2j},
             r"traffic \(1\+2j\) on edge \(1, 0\) is not a real number"),
            # numpy complex scalars would lose their imaginary part to a
            # float64 cast, whatever its value.
            ({(0, 1): np.complex128(1 + 2j)},
             r"traffic np.complex128\(1\+2j\) on edge \(0, 1\) is not a "
             r"real number"),
            ({(0, 1): 1.0, (1, 0): np.complex64(1)},
             r"traffic np.complex64\(1\+0j\) on edge \(1, 0\) is not a "
             r"real number"),
        ]:
            for sparse in (False, True):
                with pytest.raises(MappingError, match=message):
                    CommunicationMatrix.from_edges(2, edges, sparse=sparse)

    def test_label_length_checked(self):
        with pytest.raises(MappingError):
            CommunicationMatrix(np.zeros((2, 2)), labels=["only-one"])

    def test_stencil2d_matches_loop_reference(self):
        # 3x4 grid (ceil(sqrt(12)) = 4 wide), row-major: the vectorized
        # builder must produce exactly the 5-point halo-exchange edges a
        # nested loop would.
        n, width, weight = 12, 4, 100.0
        ref = np.zeros((n, n))
        for t in range(n):
            r, c = divmod(t, width)
            for nr, nc in ((r, c + 1), (r + 1, c)):
                u = nr * width + nc
                if nc < width and u < n:
                    ref[t, u] = ref[u, t] = weight
        comm = CommunicationMatrix.stencil2d(n)
        np.testing.assert_allclose(comm.raw, ref)

    def test_stencil2d_default_width_and_ragged_last_row(self):
        # n=10 -> ceil(sqrt(10)) = 4 wide; last row has only 2 cells.
        comm = CommunicationMatrix.stencil2d(10)
        assert comm.order == 10
        assert comm.raw[8, 9] > 0        # horizontal edge in ragged row
        assert comm.raw[3, 7] > 0        # vertical edge in full column
        assert np.allclose(comm.raw, comm.raw.T)
        # Interior cell 5 (row 1, col 1) has all 4 neighbours.
        assert np.count_nonzero(comm.raw[5]) == 4

    def test_stencil2d_degenerate_sizes(self):
        assert not CommunicationMatrix.stencil2d(1).raw.any()
        comm = CommunicationMatrix.stencil2d(2)
        assert comm.raw[0, 1] > 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4096, 100_000])
    def test_ring_stores_the_edge_dict_entries(self, n):
        """``ring`` stores what the ``{(i, (i + 1) % n): 100.0}`` dict
        ``repro-paper map --pattern ring`` used to build gave through
        ``from_edges``: backend, entries and index dtypes. Orders 1-3
        are dense and 4096 and up CSR; below 100,000 (80 GB dense) the
        entries are also compared on the other backend."""
        edges = {(i, (i + 1) % n): 100.0 for i in range(n)} if n > 1 else {}
        got = CommunicationMatrix.ring(n)
        want = CommunicationMatrix.from_edges(n, edges)
        assert got.is_sparse == want.is_sparse == (n >= 4096)
        if got.is_sparse:
            for a, b in zip(got.csr_rows(), want.csr_rows()):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        else:
            assert np.array_equal(got.raw, want.raw)
        if n < 100_000:
            other = not got.is_sparse
            a = CommunicationMatrix(got.tocsr(), sparse=other)
            b = CommunicationMatrix.from_edges(n, edges, sparse=other)
            assert a.is_sparse == b.is_sparse == other
            assert (a.tocsr() != b.tocsr()).nnz == 0

    def test_ring_validates(self):
        for n in (0, -3):
            with pytest.raises(MappingError, match="ring order must be"):
                CommunicationMatrix.ring(n)


class TestOversubscription:
    def test_no_extension_when_fits(self):
        plan = manage_oversubscription([2, 4], 8)
        assert plan.factor == 1 and not plan.oversubscribed
        assert plan.arities == (2, 4)

    def test_virtual_level_added(self):
        plan = manage_oversubscription([2, 4], 9)
        assert plan.factor == 2
        assert plan.arities == (2, 4, 2)
        assert plan.virtual_leaves == 16

    def test_invalid_inputs(self):
        with pytest.raises(MappingError):
            manage_oversubscription([2, 4], 0)
        with pytest.raises(MappingError):
            manage_oversubscription([0], 1)


class TestControlExtension:
    """Line 1 of Algorithm 1 as ``treematch_map`` runs it: the plan is
    sized from the counts, then the control edges are placed."""

    def test_ht_mode_keeps_matrix(self):
        plan = plan_control_threads(4, 4, 8, hyperthreading=True)
        assert plan == ControlPlan("ht-sibling", 0)

    def test_spare_core_mode_extends(self):
        assert plan_control_threads(
            4, 4, 8, hyperthreading=False
        ) == ControlPlan("spare-core", 4)
        # One slot per spare leaf, at most one per control thread.
        assert plan_control_threads(
            4, 9, 8, hyperthreading=False
        ) == ControlPlan("spare-core", 4)
        assert plan_control_threads(
            4, 3, 8, hyperthreading=False
        ) == ControlPlan("spare-core", 3)

    def test_os_mode_when_no_room(self):
        plan = plan_control_threads(8, 4, 8, hyperthreading=False)
        assert plan == ControlPlan("os", 0)

    def test_zero_control_is_os(self):
        for ht in (False, True):
            assert plan_control_threads(
                2, 0, 8, hyperthreading=ht
            ) == ControlPlan("os", 0)

    def test_negative_control_count_rejected(self):
        with pytest.raises(MappingError, match="n_control must be >= 0"):
            plan_control_threads(2, -1, 8, hyperthreading=False)

    def test_edges_are_symmetric_pairs(self):
        rows, cols, _ = control_edges(4, [2, 0, 2], 10.0)
        assert rows.tolist() == [4, 5, 6, 2, 0, 2]
        assert cols.tolist() == [2, 0, 2, 4, 5, 6]
        assert set(zip(rows.tolist(), cols.tolist())) == set(
            zip(cols.tolist(), rows.tolist())
        )

    def test_epsilon_scales_with_heaviest(self):
        assert control_edges(4, [0], 250.0)[2] == CONTROL_EPSILON * 250.0
        for heaviest in (0.0, -1.0):
            assert control_edges(4, [0], heaviest)[2] == CONTROL_EPSILON

    @pytest.mark.parametrize("owner", [-1, 4])
    def test_out_of_range_owner_rejected(self, owner):
        with pytest.raises(MappingError, match=rf"control owner {owner} "
                           r"outside \[0, 4\)"):
            control_edges(4, [0, owner], 1.0)


#: ``id: (machine, tasks, control mode, owners, the bad owner as the
#: error names it)``, one control thread per owner. Each mode checks
#: every owner, the ones past the spare-core slots included, and an
#: owner that is not an integer is refused, not truncated.
BAD_OWNERS = {
    "ht-sibling-high": (smp12e5, 16, "ht-sibling", [0, 99], "99"),
    "ht-sibling-negative": (smp12e5, 16, "ht-sibling", [0, -1], "-1"),
    "ht-sibling-float": (smp12e5, 16, "ht-sibling", [3.9], r"3\.9"),
    "spare-core-past-slots": (smp20e7, 158, "spare-core", [0, 1, 2, 999],
                              "999"),
    "spare-core-float": (smp20e7, 16, "spare-core", [3.9], r"3\.9"),
    "os-high": (smp20e7, 160, "os", [0, 999], "999"),
    "os-string": (smp20e7, 160, "os", ["a", 1], "'a'"),
}


class TestTreematchMap:
    def test_threads_get_distinct_pus(self):
        pl = treematch_map(fig2_machine(), ring_matrix(8))
        assert len(set(pl.thread_to_pu.values())) == 8

    def test_heavy_pairs_share_socket(self):
        # 4 isolated heavy pairs must land pairwise on the same socket.
        topo = fig2_machine()
        m = np.zeros((8, 8))
        for i in range(0, 8, 2):
            m[i, i + 1] = 1000.0
        pl = treematch_map(topo, CommunicationMatrix(m))
        for i in range(0, 8, 2):
            s_a = topo.socket_of_pu(pl.thread_to_pu[i]).logical_index
            s_b = topo.socket_of_pu(pl.thread_to_pu[i + 1]).logical_index
            assert s_a == s_b

    def test_better_or_equal_cost_than_baselines(self):
        topo = fig2_machine()
        comm = ring_matrix(16)
        pl = treematch_map(topo, comm)
        assert pl.cost(topo, comm) <= scatter_placement(topo, 16).cost(topo, comm)

    def test_ht_machine_uses_core_granularity(self):
        topo = smp12e5()
        pl = treematch_map(topo, ring_matrix(8), n_control=8)
        assert pl.granularity == "core"
        assert pl.control_mode == "ht-sibling"
        # compute threads on first PU of a core (even os index), controls on odd
        assert all(pu % 2 == 0 for pu in pl.thread_to_pu.values())
        assert all(pu % 2 == 1 for pu in pl.control_to_pu.values())

    def test_control_sibling_is_same_core(self):
        topo = smp12e5()
        pl = treematch_map(topo, ring_matrix(8), n_control=8)
        for j, cpu in pl.control_to_pu.items():
            owner_pu = pl.thread_to_pu[j % 8]
            assert topo.core_of_pu(cpu) is topo.core_of_pu(owner_pu)

    def test_no_ht_spare_core_control(self):
        topo = fig2_machine()  # 32 cores, no HT
        pl = treematch_map(topo, ring_matrix(30), n_control=30)
        assert pl.control_mode == "spare-core"
        compute_pus = set(pl.thread_to_pu.values())
        control_pus = set(pl.control_to_pu.values())
        assert control_pus.isdisjoint(compute_pus)
        assert len(control_pus) == 2  # the two spare cores (cf. Fig. 2)

    def test_no_room_falls_back_to_os(self):
        topo = fig2_machine()
        pl = treematch_map(topo, ring_matrix(32), n_control=8)
        assert pl.control_mode == "os"
        assert pl.control_to_pu == {}

    def test_oversubscription_goes_up_one_level(self):
        topo = fig2_machine()  # 32 PUs
        pl = treematch_map(topo, ring_matrix(40))
        assert pl.oversub_factor == 2
        counts = Counter(pl.thread_to_pu.values())
        assert max(counts.values()) <= 2
        assert len(pl.thread_to_pu) == 40

    def test_empty_matrix_rejected(self):
        with pytest.raises(MappingError):
            treematch_map(fig2_machine(), CommunicationMatrix(np.zeros((0, 0))))

    def test_control_owner_length_checked(self):
        with pytest.raises(MappingError):
            treematch_map(
                fig2_machine(), ring_matrix(4), n_control=3, control_owners=[0]
            )

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize("case", sorted(BAD_OWNERS))
    def test_every_control_owner_checked(self, case, sparse):
        machine, n, mode, owners, bad = BAD_OWNERS[case]
        topo = machine()
        comm = CommunicationMatrix.stencil2d(n, sparse=sparse)
        valid = treematch_map(topo, comm, n_control=len(owners))
        assert valid.control_mode == mode
        with pytest.raises(MappingError, match=rf"control owner {bad} "):
            treematch_map(topo, comm, n_control=len(owners),
                          control_owners=owners)

    def test_deterministic(self):
        topo = smp20e7()
        comm = pipeline_matrix(24)
        a = treematch_map(topo, comm, n_control=24)
        b = treematch_map(topo, comm, n_control=24)
        assert a.thread_to_pu == b.thread_to_pu
        assert a.control_to_pu == b.control_to_pu

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=24))
    def test_any_size_maps_every_thread(self, n):
        topo = fig2_machine()
        pl = treematch_map(topo, ring_matrix(n))
        assert sorted(pl.thread_to_pu) == list(range(n))
        for pu in pl.thread_to_pu.values():
            topo.pu(pu)  # must exist

    def test_dict_round_trip_preserves_groups_per_level(self):
        from repro.treematch.mapping import Placement

        topo = smp20e7()
        pl = treematch_map(topo, ring_matrix(24), n_control=4)
        assert pl.groups_per_level  # the driver records every level
        data = pl.to_dict()
        assert "groups_per_level" in data
        back = Placement.from_dict(data)
        assert back.groups_per_level == pl.groups_per_level
        assert back == pl

    def test_dict_round_trip_survives_json(self):
        import json

        from repro.treematch.mapping import Placement

        topo = fig2_machine()
        pl = treematch_map(topo, ring_matrix(12))
        back = Placement.from_dict(json.loads(json.dumps(pl.to_dict())))
        assert back == pl
        assert back.groups_per_level == pl.groups_per_level


class TestScale:
    """The tentpole: thousands of threads must map in interactive time."""

    def test_stencil_1040_oversubscribed(self):
        topo = smp20e7()  # 160 PUs, no HT
        comm = CommunicationMatrix.stencil2d(1040)
        pl = treematch_map(topo, comm)
        assert pl.oversub_factor == 7  # ceil(1040 / 160)
        assert sorted(pl.thread_to_pu) == list(range(1040))
        counts = Counter(pl.thread_to_pu.values())
        assert max(counts.values()) <= 7
        # A topology-aware stencil placement must beat the affinity-blind
        # scatter baseline on the distance objective.
        blind = scatter_placement(topo, 1040, oversubscribe=True)
        assert pl.cost(topo, comm) < blind.cost(topo, comm)

    def test_stencil_2048_latency_smoke(self):
        # Regression guard for the scalable engines: p=2048 took ~107 s
        # before the delta-gain rewrite; it now runs in about a second.
        # The generous bound only catches order-of-magnitude regressions.
        import time

        topo = smp20e7()
        comm = CommunicationMatrix.stencil2d(2048)
        t0 = time.perf_counter()
        pl = treematch_map(topo, comm)
        elapsed = time.perf_counter() - t0
        assert sorted(pl.thread_to_pu) == list(range(2048))
        assert elapsed < 30.0

    @pytest.mark.parametrize("sparse", [False, True])
    def test_dense_path_holds_one_leaf_order_matrix(self, sparse):
        # 2000 tasks on 160 PUs pad to lv = 2080 virtual leaves, and one
        # lv x lv float64 matrix is 33 MiB. The dense backend holds one
        # such matrix plus refine_groups' lv x 160 arrays, 1.44 of it; a
        # second lv x lv copy (of the input's affinity, or a working
        # copy in the greedy engine) would reach 2.0. The CSR backend
        # builds none (test_treematch_sparse bounds it).
        import tracemalloc

        lv = 2080
        comm = CommunicationMatrix.stencil2d(2000, sparse=sparse)
        tracemalloc.start()
        try:
            pl = treematch_map(smp20e7(), comm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(pl.thread_to_pu) == list(range(2000))
        assert peak < 1.7 * lv * lv * 8


class TestBaselineStrategies:
    def test_compact_uses_siblings_first(self):
        topo = smp12e5()
        pl = compact_placement(topo, 4)
        assert [pl.thread_to_pu[i] for i in range(4)] == [0, 1, 2, 3]

    def test_scatter_spreads_over_sockets(self):
        topo = fig2_machine()
        pl = scatter_placement(topo, 4)
        sockets = {
            topo.socket_of_pu(pu).logical_index for pu in pl.thread_to_pu.values()
        }
        assert len(sockets) == 4

    def test_cores_close_skips_siblings(self):
        topo = smp12e5()
        pl = cores_close_placement(topo, 4)
        assert [pl.thread_to_pu[i] for i in range(4)] == [0, 2, 4, 6]

    def test_cores_spread_round_robins(self):
        topo = fig2_machine()
        pl = cores_spread_placement(topo, 8)
        per_socket = Counter(
            topo.socket_of_pu(pu).logical_index for pu in pl.thread_to_pu.values()
        )
        assert all(v == 2 for v in per_socket.values())

    def test_capacity_checked(self):
        topo = fig2_machine()
        with pytest.raises(MappingError):
            compact_placement(topo, 33)
        with pytest.raises(MappingError):
            compact_placement(topo, 0)

    def test_oversubscribe_wraps_leaf_order(self):
        topo = fig2_machine()  # 32 PUs
        pl = compact_placement(topo, 40, oversubscribe=True)
        assert pl.oversub_factor == 2
        assert len(pl.thread_to_pu) == 40
        # Thread 32 wraps back onto the same PU as thread 0.
        assert pl.thread_to_pu[32] == pl.thread_to_pu[0]
        counts = Counter(pl.thread_to_pu.values())
        assert max(counts.values()) <= 2

    def test_oversubscribe_all_baselines(self):
        topo = fig2_machine()
        for strat in (compact_placement, scatter_placement,
                      cores_close_placement, cores_spread_placement):
            pl = strat(topo, 80, oversubscribe=True)
            assert len(pl.thread_to_pu) == 80
            assert pl.oversub_factor >= 2
            with pytest.raises(MappingError):
                strat(topo, 80)
