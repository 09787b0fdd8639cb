"""Differential family: placement objectives against their oracle.

``tests/harness/cost_oracle.py`` keeps ``Placement.cost`` with one
``common_ancestor_depth`` call per pair of used PUs and both objectives
with per-thread dict gathers. The library builds the same index arrays
vectorized, so both objectives must return the same float, ``==``.

The placements cover every machine preset plus a machine whose NUMA
nodes differ in size and whose PU numbers are dealt across them; dense
and CSR matrices; threads left unbound; thread ids at or past the
matrix order (which both objectives ignore); several threads per PU;
and the placements TreeMatch itself computes.

A CSR matrix is scored on its own stored entries, each directed pair
once, instead of half the sum over its symmetrized affinity.
``TestStoredEntryScoring`` pins that against the half-sum the harness
keeps: equal, ``==``, and equal to the dense backend, on integer
weights, and within 1e-12 relative on float weights; and the CSR
scoring never builds the affinity.
"""

import numpy as np
import pytest
from scipy import sparse as sp

import repro.treematch.commmatrix as commmatrix
from repro.topology import list_machines, machine_by_name
from repro.treematch import CommunicationMatrix
from repro.treematch.mapping import Placement, multilevel_map, treematch_map
from tests.harness import cost_oracle
from tests.harness.sched_oracle import skewed_machine

MACHINES = [*list_machines(), "skewed"]


def _machine(name):
    return skewed_machine() if name == "skewed" else machine_by_name(name)


def _comm(n, rng, *, sparse):
    """Random traffic on *n* threads, with some exact-zero rows."""
    w = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    w[rng.choice(n, size=n // 5, replace=False)] = 0.0
    np.fill_diagonal(w, 0.0)
    if sparse:
        return CommunicationMatrix(sp.csr_array(w))
    return CommunicationMatrix(w)


def _random_placement(topo, order, rng):
    """Thread ids up to ``order + 8``, about a fifth of them unbound,
    dealt onto random PUs (several threads may share one)."""
    pus = [pu.os_index for pu in topo.pus]
    table = {}
    for tid in rng.permutation(order + 8).tolist():
        if rng.random() < 0.8:
            table[tid] = pus[int(rng.integers(len(pus)))]
    return Placement(thread_to_pu=table, topology_name=topo.name)


def _assert_same(placement, topo, comm):
    assert placement.cost(topo, comm) == cost_oracle.cost(placement, topo, comm)
    assert placement.slit_cost(topo, comm) == cost_oracle.slit_cost(
        placement, topo, comm
    )


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("name", MACHINES)
def test_random_placements(name, sparse):
    topo = _machine(name)
    rng = np.random.default_rng([MACHINES.index(name), sparse])
    for order in (1, 2, topo.n_pus // 2, 2 * topo.n_pus + 3):
        comm = _comm(order, rng, sparse=sparse)
        for _ in range(3):
            _assert_same(_random_placement(topo, order, rng), topo, comm)


@pytest.mark.parametrize("name", MACHINES)
def test_degenerate_placements(name):
    topo = _machine(name)
    comm = _comm(12, np.random.default_rng(7), sparse=False)
    first, last = topo.pus[0].os_index, topo.pus[-1].os_index
    for table in (
        {},                                  # nothing bound
        {3: first},                          # one bound thread
        {0: first, 1: first, 2: first},      # one PU
        {20: first, 30: last, -1: last},     # only ids outside the order
        {0: first, 11: last, 12: first},     # one id at the order
    ):
        _assert_same(Placement(thread_to_pu=table), topo, comm)


@pytest.mark.parametrize("name", ["SMP12E5", "SMP20E7", "FIG2-4S32C"])
def test_treematch_placements(name):
    topo = machine_by_name(name)
    n = topo.n_cores + 4
    comm = CommunicationMatrix.stencil2d(n, sparse=False)
    _assert_same(treematch_map(topo, comm), topo, comm)
    comm = CommunicationMatrix.stencil2d(3 * topo.n_pus)
    _assert_same(multilevel_map(topo, comm), topo, comm)


def _int_csr(n, rng, *, density=0.3, diagonal=False, zeros=False):
    """Random integer traffic on *n* threads as a canonical CSR array,
    with stored diagonal entries and stored explicit zeros on request."""
    w = rng.integers(1, 50, size=(n, n)) * (rng.random((n, n)) < density)
    if not diagonal:
        np.fill_diagonal(w, 0)
    stored = w != 0
    if zeros:
        stored |= rng.random((n, n)) < 0.1
    r, c = np.nonzero(stored)
    m = sp.csr_array((w[r, c].astype(float), (r, c)), shape=(n, n))
    assert m.has_canonical_format
    return m


def _ring(n, rng):
    """A one-directional ring with its task labels permuted."""
    perm = rng.permutation(n)
    return CommunicationMatrix.ring(n).tocsr()[perm][:, perm]


def _int_family(topo, rng):
    """``(csr, label)`` for each input kind, at two orders."""
    for order in (topo.n_pus // 2 + 1, 2 * topo.n_pus + 3):
        yield _int_csr(order, rng), "random"
        yield _int_csr(order, rng, diagonal=True), "diagonal"
        yield _int_csr(order, rng, zeros=True), "explicit zeros"
        yield _int_csr(order, rng, diagonal=True, zeros=True), "both"
        yield _ring(order, rng), "ring"


def _objectives(placement, topo, comm):
    return (placement.cost(topo, comm), placement.slit_cost(topo, comm))


def _half_sums(placement, topo, comm):
    return (cost_oracle.cost(placement, topo, comm, half_sum=True),
            cost_oracle.slit_cost(placement, topo, comm, half_sum=True))


class TestStoredEntryScoring:
    @pytest.mark.parametrize("name", MACHINES)
    def test_integer_weights_equal_half_sum_and_dense(self, name):
        topo = _machine(name)
        rng = np.random.default_rng([MACHINES.index(name), 29])
        for m, kind in _int_family(topo, rng):
            csr = CommunicationMatrix(m, sparse=True)
            dense = CommunicationMatrix(m, sparse=False)
            for _ in range(3):
                pl = _random_placement(topo, m.shape[0], rng)
                got = _objectives(pl, topo, csr)
                assert got == _half_sums(pl, topo, csr), (kind, pl)
                assert got == _objectives(pl, topo, dense), (kind, pl)

    @pytest.mark.parametrize("name", MACHINES)
    def test_float_weights_within_rounding_of_half_sum(self, name):
        topo = _machine(name)
        rng = np.random.default_rng([MACHINES.index(name), 31])
        for order in (topo.n_pus // 2 + 1, 2 * topo.n_pus + 3):
            w = rng.random((order, order)) * (rng.random((order, order)) < 0.3)
            comm = CommunicationMatrix(sp.csr_array(w))
            for _ in range(3):
                pl = _random_placement(topo, order, rng)
                for got, want in zip(_objectives(pl, topo, comm),
                                     _half_sums(pl, topo, comm)):
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_csr_scoring_never_symmetrizes(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("CSR scoring built the affinity")

        topo = machine_by_name("SMP20E7")
        mapped = []
        for comm in (CommunicationMatrix.stencil2d(5000),
                     CommunicationMatrix.ring(5000)):
            assert comm.is_sparse
            mapped.append((multilevel_map(topo, comm), comm))
        monkeypatch.setattr(commmatrix, "_sym_zero_diag_csr", refuse)
        for pl, comm in mapped:
            assert pl.cost(topo, comm) > 0
            assert pl.slit_cost(topo, comm) > 0
