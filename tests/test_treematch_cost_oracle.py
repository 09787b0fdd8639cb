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
"""

import numpy as np
import pytest
from scipy import sparse as sp

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
