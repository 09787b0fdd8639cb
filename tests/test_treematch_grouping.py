"""Tests for GroupProcesses / AggregateComMatrix and their invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.errors import MappingError
from repro.treematch.aggregate import aggregate_comm_matrix
from repro.treematch.control import control_edges
from repro.treematch.grouping import (
    OPTIMAL_SEARCH_LIMIT,
    group_greedy,
    group_optimal,
    group_processes,
    intra_group_weight,
    partition_count,
    partition_count_exceeds,
    refine_groups,
)
from tests.harness.fresh import run_fresh


def symmetric(n, rng):
    m = rng.random((n, n)) * 100
    m = m + m.T
    np.fill_diagonal(m, 0)
    return m


class TestPartitionCount:
    def test_known_values(self):
        assert partition_count(4, 2) == 3
        assert partition_count(6, 2) == 15
        assert partition_count(6, 3) == 10
        assert partition_count(8, 4) == 35
        assert partition_count(4, 4) == 1

    def test_indivisible_rejected(self):
        with pytest.raises(MappingError):
            partition_count(5, 2)


class TestPartitionCountExceeds:
    @pytest.mark.parametrize("p,a", [(4, 2), (6, 2), (6, 3), (8, 4), (4, 4)])
    def test_agrees_with_full_count(self, p, a):
        count = partition_count(p, a)
        assert not partition_count_exceeds(p, a, count)
        assert partition_count_exceeds(p, a, count - 1)
        assert not partition_count_exceeds(p, a, count + 1)

    def test_huge_instance_short_circuits(self):
        # 4160 elements into groups of 26: the true count has thousands of
        # digits; the early-exit variant must answer without computing it.
        assert partition_count_exceeds(4160, 26, 200_000)

    def test_indivisible_rejected(self):
        with pytest.raises(MappingError):
            partition_count_exceeds(5, 2, 10)


class TestGroupProcesses:
    def test_arity_one_identity(self):
        m = symmetric(5, np.random.default_rng(0))
        assert group_processes(m, 1) == [[i] for i in range(5)]

    def test_full_arity_single_group(self):
        m = symmetric(4, np.random.default_rng(0))
        assert group_processes(m, 4) == [[0, 1, 2, 3]]

    def test_indivisible_rejected(self):
        m = symmetric(5, np.random.default_rng(0))
        with pytest.raises(MappingError):
            group_processes(m, 2)

    def test_bad_arity_rejected(self):
        m = symmetric(4, np.random.default_rng(0))
        with pytest.raises(MappingError):
            group_processes(m, 0)

    def test_unknown_engine_rejected(self):
        m = symmetric(4, np.random.default_rng(0))
        with pytest.raises(MappingError):
            group_processes(m, 2, force="magic")

    def test_forced_optimal_refused_above_search_limit(self):
        # 16 in pairs: 2,027,025 partitions, over the limit.
        assert partition_count_exceeds(16, 2, OPTIMAL_SEARCH_LIMIT)
        with pytest.raises(MappingError, match=r"16 processes into groups "
                           r"of 2 exceeds OPTIMAL_SEARCH_LIMIT \(200000"):
            group_processes(np.ones((16, 16)), 2, force="optimal")
        # Order 12 in threes (15,400 partitions) stays searchable.
        assert not partition_count_exceeds(12, 3, OPTIMAL_SEARCH_LIMIT)
        groups = group_processes(symmetric(12, np.random.default_rng(2)), 3,
                                 force="optimal")
        assert sorted(i for g in groups for i in g) == list(range(12))

    def test_obvious_pairs_found(self):
        # Threads (0,1) and (2,3) communicate heavily; optimal pairing is clear.
        m = np.zeros((4, 4))
        m[0, 1] = m[1, 0] = 100
        m[2, 3] = m[3, 2] = 100
        m[0, 2] = m[2, 0] = 1
        for force in (None, "optimal", "greedy"):
            groups = group_processes(m, 2, force=force)
            assert groups == [[0, 1], [2, 3]]

    def test_partition_is_exact_cover(self):
        rng = np.random.default_rng(7)
        m = symmetric(12, rng)
        groups = group_processes(m, 3)
        flat = sorted(i for g in groups for i in g)
        assert flat == list(range(12))
        assert all(len(g) == 3 for g in groups)

    def test_greedy_matches_optimal_on_separable(self):
        # Block-diagonal affinity: both engines must find the blocks.
        rng = np.random.default_rng(3)
        m = np.zeros((8, 8))
        for base in range(0, 8, 4):
            blk = rng.random((4, 4)) * 10 + 50
            m[base : base + 4, base : base + 4] = blk + blk.T
        np.fill_diagonal(m, 0)
        opt = group_processes(m, 4, force="optimal")
        greedy = group_processes(m, 4, force="greedy")
        assert intra_group_weight(m, opt) == pytest.approx(
            intra_group_weight(m, greedy)
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_optimal_never_worse_than_greedy(self, seed):
        rng = np.random.default_rng(seed)
        m = symmetric(6, rng)
        opt = group_optimal(m, 2)
        greedy = refine_groups(m, group_greedy(m, 2))
        assert (
            intra_group_weight(m, opt)
            >= intra_group_weight(m, greedy) - 1e-9
        )

    def test_refine_improves_or_keeps(self):
        rng = np.random.default_rng(11)
        m = symmetric(10, rng)
        base = group_greedy(m, 2)
        refined = refine_groups(m, base)
        assert intra_group_weight(m, refined) >= intra_group_weight(m, base) - 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        m = symmetric(16, rng)
        assert group_processes(m, 2) == group_processes(m, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_intra_group_weight_csr_matches_dense(self, seed):
        """Stored entries inside a group, diagonal left out, halved: the
        dense value on integer weights, for partitions and for groups
        that cover only some elements."""
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 40))
        m = rng.integers(0, 9, size=(p, p)).astype(float)
        m[rng.random((p, p)) < 0.5] = 0.0
        m = m + m.T  # the diagonal stays: it must be left out
        csr = sp.csr_array(m)
        order = rng.permutation(p).tolist()
        cut = sorted(rng.choice(np.arange(1, p), size=min(3, p - 1),
                                replace=False).tolist())
        groups = [order[a:b] for a, b in zip([0, *cut], [*cut, p])]
        for gs in (groups, groups[1:], [[0]], []):
            want = intra_group_weight(m, gs)
            assert intra_group_weight(csr, gs) == want
            assert intra_group_weight(
                (csr.indptr, csr.indices, csr.data), gs
            ) == want


class TestAggregate:
    def test_pairwise_sums(self):
        m = np.array(
            [
                [0.0, 1.0, 2.0, 3.0],
                [1.0, 0.0, 4.0, 5.0],
                [2.0, 4.0, 0.0, 6.0],
                [3.0, 5.0, 6.0, 0.0],
            ]
        )
        agg = aggregate_comm_matrix(m, [[0, 1], [2, 3]])
        # Traffic between group {0,1} and {2,3}: m[0,2]+m[0,3]+m[1,2]+m[1,3]
        assert agg[0, 1] == pytest.approx(2 + 3 + 4 + 5)
        assert agg[1, 0] == agg[0, 1]
        assert agg[0, 0] == 0 and agg[1, 1] == 0

    def test_total_cross_traffic_preserved(self):
        rng = np.random.default_rng(13)
        m = rng.random((6, 6)) * 10
        m = m + m.T
        np.fill_diagonal(m, 0)
        groups = [[0, 3], [1, 4], [2, 5]]
        agg = aggregate_comm_matrix(m, groups)
        cross = sum(
            m[i, j]
            for gi in range(3)
            for gj in range(3)
            if gi != gj
            for i in groups[gi]
            for j in groups[gj]
        )
        assert agg.sum() == pytest.approx(cross)

    def test_incomplete_cover_rejected(self):
        m = np.zeros((4, 4))
        with pytest.raises(MappingError):
            aggregate_comm_matrix(m, [[0, 1]])

    def test_duplicate_rejected(self):
        m = np.zeros((4, 4))
        with pytest.raises(MappingError):
            aggregate_comm_matrix(m, [[0, 1], [1, 2], [3]])

    def test_out_of_range_rejected(self):
        m = np.zeros((2, 2))
        with pytest.raises(MappingError):
            aggregate_comm_matrix(m, [[0, 5]])

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([(4, 2), (6, 2), (6, 3), (9, 3), (12, 4)]),
    )
    def test_matmul_matches_loop_reference(self, seed, shape):
        # The G.T @ m @ G formulation must agree with the per-pair loop it
        # replaced — including on *asymmetric* inputs, where the mirror of
        # the upper triangle defines the result.
        n, size = shape
        rng = np.random.default_rng(seed)
        m = rng.random((n, n)) * 100  # deliberately not symmetrized
        perm = rng.permutation(n)
        groups = [sorted(perm[i : i + size].tolist())
                  for i in range(0, n, size)]
        k = len(groups)
        ref = np.zeros((k, k))
        for gi in range(k):
            for gj in range(gi + 1, k):
                w = m[np.ix_(groups[gi], groups[gj])].sum()
                ref[gi, gj] = ref[gj, gi] = w
        np.testing.assert_allclose(
            aggregate_comm_matrix(m, groups), ref, atol=1e-9
        )


def _one_nan():
    m = np.ones((4, 4))
    np.fill_diagonal(m, 0.0)
    m[1, 2] = np.nan
    return m


def _upper_only():
    return np.triu(np.arange(1.0, 37.0).reshape(6, 6), 1)


def _negative():
    m = np.ones((4, 4))
    m[0, 3] = m[3, 0] = -1.0
    return m


#: ``(make, message)``: one defect each; the triangle is an asymmetry.
BAD_INPUTS = {
    "nan": (_one_nan, "non-finite"),
    "upper-only": (_upper_only, r"not symmetric: \[0, 1\] = 2.0 but \[1, 0\] = 0.0"),
    "non-square": (lambda: np.ones((4, 6)), "square"),
    "negative": (_negative, "negative"),
    "complex": (lambda: np.full((4, 4), 1 + 2j), "complex entries"),
}


def _pairs(m):
    return [[i, i + 1] for i in range(0, m.shape[0], 2)]


#: The public grouping entry points, each with valid other arguments.
ENTRY_POINTS = {
    "group_processes": lambda m: group_processes(m, 2),
    "aggregate_comm_matrix": lambda m: aggregate_comm_matrix(m, _pairs(m)),
}


class TestTypedValidation:
    """A bad matrix fails with MappingError naming the defect."""

    @pytest.mark.parametrize("entry, defect", [
        (entry, defect)
        for entry in sorted(ENTRY_POINTS)
        for defect in sorted(BAD_INPUTS)
        # Aggregation accepts asymmetric input (see below).
        if (entry, defect) != ("aggregate_comm_matrix", "upper-only")
    ])
    def test_rejects(self, entry, defect):
        make, message = BAD_INPUTS[defect]
        with pytest.raises(MappingError, match=message):
            ENTRY_POINTS[entry](make())

    def test_aggregate_accepts_upper_triangle(self):
        m = _upper_only()
        groups = _pairs(m)
        ref = np.zeros((3, 3))
        for gi in range(3):
            for gj in range(gi + 1, 3):
                ref[gi, gj] = ref[gj, gi] = m[np.ix_(groups[gi], groups[gj])].sum()
        assert np.array_equal(aggregate_comm_matrix(m, groups), ref)

    @pytest.mark.parametrize("defect", ["nan", "negative", "non-square",
                                        "complex"])
    def test_sparse_aggregate_checks_stored_entries(self, defect):
        make, message = BAD_INPUTS[defect]
        m = make()
        with pytest.raises(MappingError, match=message):
            aggregate_comm_matrix(sp.csr_array(m), _pairs(m))

    def test_sparse_aggregate_accepts_upper_triangle(self):
        m = _upper_only()
        assert np.array_equal(
            aggregate_comm_matrix(sp.csr_array(m), _pairs(m)),
            aggregate_comm_matrix(m, _pairs(m)),
        )

    def test_group_processes_takes_sparse(self):
        """A scipy sparse affinity gives the dense groups on every engine:
        the exhaustive one on a densified copy, greedy and refinement on
        the CSR rows."""
        for p, arity, force in [(4, 2, None), (12, 3, "optimal"),
                                (48, 4, None), (48, 6, "greedy")]:
            rng = np.random.default_rng(p * arity)
            m = rng.integers(0, 4, size=(p, p)).astype(float)
            m[rng.random((p, p)) < 0.6] = 0.0
            m = m + m.T
            np.fill_diagonal(m, 0.0)
            for refine in (True, False):
                want = group_processes(m, arity, force=force, refine=refine)
                got = group_processes(
                    sp.csr_array(m), arity, force=force, refine=refine
                )
                assert got == want, (p, arity, force, refine)

    @pytest.mark.parametrize("groups, message", [
        ([[0, 0], [1, 2]], "listed more than once"),
        ([[-1, 0], [1, 2]], "outside order 4"),
        ([[0, 5], [1, 2]], "outside order 4"),
    ])
    @pytest.mark.parametrize("backend", ["dense", "csr", "rows"])
    def test_refine_rejects_malformed_members(self, groups, message, backend):
        m = np.ones((4, 4))
        np.fill_diagonal(m, 0.0)
        if backend != "dense":
            m = sp.csr_array(m)
            if backend == "rows":
                m = (m.indptr, m.indices, m.data)
        with pytest.raises(MappingError, match=message):
            refine_groups(m, groups)

    def test_greedy_rejects_an_arity_that_does_not_divide(self):
        # Run in a fresh interpreter: the unchecked loop spun forever.
        proc = run_fresh(
            "import numpy as np\n"
            "from repro.errors import MappingError\n"
            "from repro.treematch.grouping import group_greedy\n"
            "for arity in (3, 0, -2):\n"
            "    try:\n"
            "        group_greedy(np.ones((4, 4)), arity)\n"
            "    except MappingError as exc:\n"
            "        print(exc)\n",
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.splitlines() == [
            "4 processes are not divisible into groups of 3",
            "arity must be positive, got 0",
            "arity must be positive, got -2",
        ]

    @pytest.mark.parametrize("backend", ["csr", "rows"])
    def test_greedy_and_weight_take_csr(self, backend):
        m = np.ones((4, 4))
        np.fill_diagonal(m, 0.0)
        csr = sp.csr_array(m)
        a = csr if backend == "csr" else (csr.indptr, csr.indices, csr.data)
        groups = group_greedy(a, 2)
        assert groups == group_greedy(m, 2)
        assert intra_group_weight(a, groups) == intra_group_weight(m, groups)

    def test_control_extension_rejects_empty_matrix(self):
        # With no compute thread, a control slot has no owner to tie to.
        with pytest.raises(MappingError,
                           match=r"control owner 0 outside \[0, 0\)"):
            control_edges(0, [0, 0], 0.0)


def exhaustive_best_weight(m, arity):
    """Unpruned reference for group_optimal: enumerate every partition."""
    from itertools import combinations

    best = [-np.inf]

    def recurse(rest, weight):
        if not rest:
            best[0] = max(best[0], weight)
            return
        anchor = rest[0]
        for combo in combinations(rest[1:], arity - 1):
            members = (anchor, *combo)
            w = sum(m[a, b] for i, a in enumerate(members)
                    for b in members[i + 1 :])
            recurse([u for u in rest[1:] if u not in combo], weight + w)

    recurse(list(range(m.shape[0])), 0.0)
    return best[0]


class TestEngineEquivalence:
    """Property tests pinning the vectorized engines to their references."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([(6, 2), (6, 3), (8, 2), (8, 4), (10, 5), (12, 3)]),
    )
    def test_refine_never_decreases_weight(self, seed, shape):
        # From an arbitrary (not greedy) starting partition, refinement
        # must be monotone in intra-group weight.
        n, size = shape
        rng = np.random.default_rng(seed)
        m = symmetric(n, rng)
        perm = rng.permutation(n)
        start = [sorted(perm[i : i + size].tolist())
                 for i in range(0, n, size)]
        before = intra_group_weight(m, start)
        after = intra_group_weight(m, refine_groups(m, start))
        assert after >= before - 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([(6, 2), (6, 3), (8, 4), (9, 3)]),
    )
    def test_branch_and_bound_is_exact(self, seed, shape):
        # group_optimal prunes with an upper bound; the result must still
        # have the same weight as full enumeration.
        n, size = shape
        m = symmetric(n, np.random.default_rng(seed))
        w = intra_group_weight(m, group_optimal(m, size))
        assert w == pytest.approx(exhaustive_best_weight(m, size), abs=1e-9)

    # Curated instances (pre-scanned) where the greedy+refine pipeline
    # lands on the exact optimum — a floor the fast path must not lose.
    GALLERY = [
        (0, 6, 2), (1, 6, 2), (2, 6, 2),
        (0, 6, 3), (1, 6, 3), (2, 6, 3),
        (0, 8, 2), (1, 8, 2), (2, 8, 2),
        (0, 8, 4), (1, 8, 4), (2, 8, 4),
        (0, 9, 3), (2, 9, 3), (3, 9, 3),
        (1, 10, 2), (2, 10, 2), (3, 10, 2),
        (0, 12, 3), (5, 12, 3), (7, 12, 3),
    ]

    @pytest.mark.parametrize("seed,n,size", GALLERY)
    def test_greedy_refine_reaches_optimal_on_gallery(self, seed, n, size):
        rng = np.random.default_rng(seed)
        m = symmetric(n, rng)
        w_opt = intra_group_weight(m, group_optimal(m, size))
        w_fast = intra_group_weight(
            m, refine_groups(m, group_greedy(m, size))
        )
        assert w_fast == pytest.approx(w_opt, abs=1e-9)
