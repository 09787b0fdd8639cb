"""Algorithm 1 — the full mapping driver (``MapGroups`` included).

Ties together the pieces: control-thread matrix extension, oversubscription
via a virtual level, bottom-up grouping + aggregation along the topology
arities, and the final assignment of every thread (compute and control) to
a PU.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse as _sp

from repro.errors import MappingError
from repro.topology.tree import Topology
from repro.treematch.aggregate import aggregate_comm_matrix
from repro.treematch.bisect import split_k
from repro.treematch.coarsen import take_submatrix
from repro.treematch.commmatrix import CommunicationMatrix, _row_ids
from repro.treematch.control import (
    CONTROL_MODES,
    ControlPlan,
    add_control_edges,
    control_edges,
    plan_control_threads,
)
from repro.treematch.grouping import _canonical, group_processes, refine_groups
from repro.treematch.maporder import child_distance_matrix, order_top_groups
from repro.treematch.oversub import manage_oversubscription

__all__ = ["Placement", "treematch_map", "multilevel_map"]

#: The values of :attr:`Placement.granularity`, the default first.
GRANULARITIES = ("pu", "core")


@dataclass(frozen=True)
class Placement:
    """A computed thread→PU mapping.

    ``thread_to_pu`` binds compute threads, ``control_to_pu`` binds control
    threads (empty when ``control_mode == "os"``, i.e. the OS schedules
    them). ``reserved_pus`` lists PUs set aside for control threads (the
    hyperthread siblings or the spare cores of Fig. 2).
    """

    thread_to_pu: dict[int, int]
    control_to_pu: dict[int, int] = field(default_factory=dict)
    control_mode: str = "os"
    granularity: str = "pu"  # "core" when hyperthread-aware mapping was used
    oversub_factor: int = 1
    topology_name: str = ""
    groups_per_level: tuple = ()

    @property
    def reserved_pus(self) -> list[int]:
        return sorted(set(self.control_to_pu.values()) - set(self.thread_to_pu.values()))

    def to_dict(self) -> dict:
        """JSON-compatible form (inverse of :meth:`from_dict`)."""
        return {
            "thread_to_pu": {str(k): v for k, v in self.thread_to_pu.items()},
            "control_to_pu": {str(k): v for k, v in self.control_to_pu.items()},
            "control_mode": self.control_mode,
            "granularity": self.granularity,
            "oversub_factor": self.oversub_factor,
            "topology_name": self.topology_name,
            "groups_per_level": [
                [list(g) for g in level] for level in self.groups_per_level
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Placement":
        """Rebuild a placement recorded by :meth:`to_dict`.

        Only what :meth:`to_dict` writes is accepted, so every field of
        an accepted record comes back unchanged: thread ids are
        canonical decimal strings, PUs and group members are integers
        (not bools or floats), ``oversub_factor`` is at least 1,
        ``control_mode`` and ``granularity`` take their known values and
        ``topology_name`` is a string. Anything else raises
        :class:`MappingError` naming the field.
        """
        if not isinstance(data, dict) or "thread_to_pu" not in data:
            raise _bad_record("not an object with a thread_to_pu field")
        factor = _record_int(data.get("oversub_factor", 1), "oversub_factor")
        if factor < 1:
            raise _bad_record(f"oversub_factor = {factor} is below 1")
        name = data.get("topology_name", "")
        if not isinstance(name, str):
            raise _bad_record(f"topology_name = {name!r:.40} is not a string")
        return cls(
            thread_to_pu=_record_bindings(data, "thread_to_pu"),
            control_to_pu=_record_bindings(data, "control_to_pu"),
            control_mode=_record_choice(data, "control_mode", CONTROL_MODES),
            granularity=_record_choice(data, "granularity", GRANULARITIES),
            oversub_factor=factor,
            topology_name=name,
            groups_per_level=_record_levels(data.get("groups_per_level", [])),
        )

    def violations(
        self,
        topology: Topology,
        *,
        n_threads: int | None = None,
        n_control: int | None = None,
    ) -> list[tuple[str, str, str]]:
        """Structural checks of this mapping against *topology*.

        Returns ``(code, message, subject)`` tuples (empty = valid):

        * ``pu-out-of-range`` — a binding targets a PU the topology does
          not have;
        * ``unbound-thread`` — with *n_threads* given, a compute thread
          has no PU (its migrations cannot be proven zero);
        * ``unbound-control`` — with *n_control* given and a non-``os``
          control mode, a control thread has no PU;
        * ``oversubscribed-core`` — a mapping leaf (core in core
          granularity, PU otherwise) hosts more compute threads than
          ``oversub_factor`` allows;
        * ``control-on-compute-pu`` — a control thread shares its PU
          with a compute thread;
        * ``control-not-sibling`` — in ``ht-sibling`` mode, a control
          thread's PU shares a core with no compute thread.

        The severity policy lives in :mod:`repro.analyze.placement`;
        this method stays pure topology arithmetic.
        """
        out: list[tuple[str, str, str]] = []
        valid_pus = {pu.os_index for pu in topology.pus}
        for label, table in (
            ("compute", self.thread_to_pu),
            ("control", self.control_to_pu),
        ):
            for tid, pu in sorted(table.items()):
                if pu not in valid_pus:
                    out.append((
                        "pu-out-of-range",
                        f"{label} thread {tid} bound to PU {pu}, but "
                        f"{topology.name!r} has PUs "
                        f"0..{topology.n_pus - 1}",
                        f"{label}:{tid}",
                    ))
        if n_threads is not None:
            for tid in range(n_threads):
                if tid not in self.thread_to_pu:
                    out.append((
                        "unbound-thread",
                        f"compute thread {tid} has no PU in the mapping",
                        f"compute:{tid}",
                    ))
        if n_control is not None and self.control_mode != "os":
            for cid in range(n_control):
                if cid not in self.control_to_pu:
                    out.append((
                        "unbound-control",
                        f"control thread {cid} has no PU although control "
                        f"mode is {self.control_mode!r}",
                        f"control:{cid}",
                    ))

        # Per-leaf compute load against the oversubscription policy.
        def leaf_of(pu: int):
            if pu not in valid_pus:
                return None
            if self.granularity == "core":
                return ("core", topology.core_of_pu(pu).logical_index)
            return ("pu", pu)

        load: dict = {}
        for tid, pu in self.thread_to_pu.items():
            leaf = leaf_of(pu)
            if leaf is not None:
                load.setdefault(leaf, []).append(tid)
        for (kind, idx), tids in sorted(load.items()):
            if len(tids) > self.oversub_factor:
                out.append((
                    "oversubscribed-core",
                    f"{kind} {idx} hosts {len(tids)} compute threads "
                    f"{sorted(tids)} but the oversubscription policy "
                    f"allows {self.oversub_factor}",
                    f"{kind}:{idx}",
                ))

        compute_pus = set(self.thread_to_pu.values())
        compute_cores = {
            topology.core_of_pu(pu).logical_index
            for pu in compute_pus
            if pu in valid_pus
        }
        for cid, pu in sorted(self.control_to_pu.items()):
            if pu in compute_pus:
                out.append((
                    "control-on-compute-pu",
                    f"control thread {cid} bound to PU {pu}, which also "
                    "hosts a compute thread",
                    f"control:{cid}",
                ))
            elif (
                self.control_mode == "ht-sibling"
                and pu in valid_pus
                and topology.core_of_pu(pu).logical_index not in compute_cores
            ):
                out.append((
                    "control-not-sibling",
                    f"control thread {cid} on PU {pu} shares a core with "
                    "no compute thread despite ht-sibling control mode",
                    f"control:{cid}",
                ))
        return out

    def migrations_provably_zero(
        self, *, n_threads: int, n_control: int = 0
    ) -> bool:
        """True when every thread is pinned to exactly one PU.

        Singleton cpusets make the OS scheduler's placement a constant,
        so the migration counter must read 0 (the affinity rows of
        Tables II-IV). Control threads left to the OS (mode ``"os"``)
        may migrate, so they must be covered too.
        """
        if any(tid not in self.thread_to_pu for tid in range(n_threads)):
            return False
        if n_control > 0 and self.control_mode == "os":
            return False
        if n_control > 0:
            return all(c in self.control_to_pu for c in range(n_control))
        return True

    def _bound_arrays(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        """Thread ids < *order* that have a PU binding, in the order of
        ``thread_to_pu``, and their PUs."""
        count = len(self.thread_to_pu)
        tids = np.fromiter(self.thread_to_pu, dtype=np.intp, count=count)
        pus = np.fromiter(
            self.thread_to_pu.values(), dtype=np.intp, count=count
        )
        keep = (tids >= 0) & (tids < order)
        return tids[keep], pus[keep]

    def _pairwise_cost(
        self, comm: CommunicationMatrix, tids: np.ndarray, midx: np.ndarray,
        metric_matrix: np.ndarray,
    ) -> float:
        """Half the sum of ``affinity[i, j] * metric[midx_i, midx_j]``.

        Shared engine of :meth:`cost` and :meth:`slit_cost`: *tids* are
        the bound threads (see :meth:`_bound_arrays`) and *midx* their
        rows of *metric_matrix*, which is symmetric.

        A CSR *comm* is scored on its own stored entries: the sum of
        ``m[i, j] * metric[midx_i, midx_j]`` over every stored ``(i,
        j)``, ``i != j``, whose threads are both bound. By the metric's
        symmetry that is the half-sum over the affinity ``m + m.T``,
        in one O(nnz) pass with no affinity built: the same value
        whenever the partial sums are exact, as on integer weights, and
        up to rounding on others. A dense *comm* runs in row blocks of
        its affinity, in ascending thread order, so a 4096-thread
        evaluation is a handful of vectorized passes instead of p^2
        dict lookups.
        """
        if tids.size < 2:
            return 0.0
        if comm.is_sparse:
            indptr, indices, data = comm.csr_rows()
            # int32 halves the gathers' memory traffic; metric rows
            # number the used PUs or NUMA nodes.
            slot = np.full(comm.order, -1, dtype=np.int32)
            slot[tids] = midx
            sr, sc = np.repeat(slot, np.diff(indptr)), slot[indices]
            ok = (sr >= 0) & (sc >= 0) & (indices != _row_ids(indptr))
            if not ok.all():
                data, sr, sc = data[ok], sr[ok], sc[ok]
            return float((data * metric_matrix[sr, sc]).sum())
        by_tid = np.argsort(tids)
        tids, midx = tids[by_tid], midx[by_tid]
        aff = comm.affinity()
        total = 0.0
        block = 1024
        for start in range(0, tids.size, block):
            stop = min(start + block, tids.size)
            sub = aff[np.ix_(tids[start:stop], tids)]
            total += float(
                (sub * metric_matrix[np.ix_(midx[start:stop], midx)]).sum()
            )
        return total / 2.0

    def slit_cost(self, topology: Topology, comm: CommunicationMatrix) -> float:
        """Traffic weighted by SLIT NUMA distance (latency-proportional).

        Unlike :meth:`cost` (tree-depth separation, which treats all
        cross-node pairs equally), this metric sees the interconnect's
        non-uniformity — the quantity the distance-aware MapGroups
        ordering optimizes.
        """
        from repro.topology.distance import numa_distance_matrix

        dist = numa_distance_matrix(topology)
        tids, pus = self._bound_arrays(comm.order)
        used, slot = np.unique(pus, return_inverse=True)
        node = np.zeros(used.size, dtype=np.intp)
        for i, pu in enumerate(used.tolist()):
            numa = topology.numa_of_pu(pu)
            if numa is not None:
                node[i] = numa.logical_index
        return self._pairwise_cost(comm, tids, node[slot], dist)

    def cost(self, topology: Topology, comm: CommunicationMatrix) -> float:
        """Communication-distance objective: sum of traffic × tree distance.

        Distance between two PUs is the number of tree levels separating
        them from their deepest common ancestor (0 when they share a core).
        The pairwise tree distances are computed once per distinct PU pair
        (at most n_pus^2, independent of the thread count), then the
        traffic-weighted sum is evaluated vectorized.
        """
        tids, pus = self._bound_arrays(comm.order)
        used, slot = np.unique(pus, return_inverse=True)
        # Ancestor chains, all of one length since the tree is balanced:
        # two PUs sit as many levels apart as their chains differ in
        # entries.
        chains = np.array([
            [id(o) for o in (pu, *pu.ancestors())]
            for pu in map(topology.pu, used.tolist())
        ], dtype=np.uint64).reshape(used.size, topology.tree_depth)
        dmat = np.zeros((used.size, used.size))
        for level in chains.T:
            dmat += level[:, None] != level[None, :]
        return self._pairwise_cost(comm, tids, slot, dmat)


def _bad_record(what: str) -> MappingError:
    return MappingError(f"bad placement record: {what}")


def _record_int(value, where: str) -> int:
    """*value*, an integer that is not a bool, as an int."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise _bad_record(f"{where} = {value!r:.40} is not an integer")


def _record_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise _bad_record(f"{where} is a {type(value).__name__}, not a list")
    return value


def _record_choice(data: dict, name: str, choices: tuple[str, ...]) -> str:
    """Field *name* of *data*, one of *choices* (the first by default)."""
    value = data.get(name, choices[0])
    if not isinstance(value, str) or value not in choices:
        raise _bad_record(f"{name} = {value!r:.40} is not one of {choices}")
    return value


def _record_bindings(data: dict, name: str) -> dict[int, int]:
    """The ``{thread: PU}`` table *name* of *data* (empty by default),
    its keys canonical decimal strings."""
    table = data.get(name, {})
    if not isinstance(table, dict):
        raise _bad_record(f"{name} is a {type(table).__name__}, not an object")
    out = {}
    for key, pu in table.items():
        try:
            tid = int(key) if isinstance(key, str) else None
        except ValueError:
            tid = None
        if tid is None or str(tid) != key:
            raise _bad_record(f"{name} key {key!r:.40} is not a decimal thread id")
        out[tid] = _record_int(pu, f"{name}[{key!r}]")
    return out


def _record_levels(levels) -> tuple:
    """``groups_per_level``: a list of levels, each a list of groups,
    each a list of integers."""
    out = []
    for a, level in enumerate(_record_list(levels, "groups_per_level")):
        at = f"groups_per_level[{a}]"
        out.append(tuple(
            tuple(_record_int(i, f"{at}[{b}][{c}]")
                  for c, i in enumerate(_record_list(g, f"{at}[{b}]")))
            for b, g in enumerate(_record_list(level, at))
        ))
    return tuple(out)


def treematch_map(
    topology: Topology,
    comm: CommunicationMatrix,
    *,
    n_control: int = 0,
    control_owners: list[int] | None = None,
    hyperthread_aware: bool = True,
    engine: str | None = None,
    refine: bool = True,
    distance_aware: bool = True,
    warm_start: Placement | None = None,
    refine_stats: dict | None = None,
) -> Placement:
    """Compute the topology-aware placement of *comm*'s threads (Algorithm 1).

    Parameters mirror the paper's adaptations:

    * ``n_control`` — number of ORWL control threads to account for
      (line 1 of Algorithm 1). ``control_owners[j]`` names the compute
      thread whose locations control thread *j* manages (default
      ``j % n_compute``); each must be an integer in ``[0, n_compute)``
      in every control mode, or :class:`MappingError` is raised.
    * ``hyperthread_aware`` — when the machine has hyperthreads, map
      compute threads one-per-physical-core and reserve sibling PUs for
      control threads (the paper's systematically applied policy).
    * ``engine``/``refine`` — pin the :func:`group_processes` engine
      (ablation hooks; default = size-based selection with refinement).
    * ``distance_aware`` — order the final groups onto the root's
      children by interconnect distance (see
      :mod:`repro.treematch.maporder`) instead of arbitrarily.
    * ``warm_start`` — a prior :class:`Placement` of the *same* problem
      shape (same topology, same extended thread count): each level's
      grouping is seeded from the prior run's groups and only *refined*
      (pairwise-swap local search) instead of grouped from scratch.
      Seeded with a placement that is already locally optimal for
      *comm* — e.g. its own cold-start output — the result is
      bit-identical to the cold start. ``refine_stats`` (a dict)
      accumulates the ``"sweeps"``/``"swaps"`` counters of every
      :func:`refine_groups` call, which is how warm-start convergence
      is counted. Raises :class:`MappingError` when the warm placement
      is structurally incompatible.

    The first level groups lv threads, lv being the compute and
    control-slot count rounded up to a multiple of the leaf count, on a
    matrix in *comm*'s backend; every level above it works on its small
    dense aggregates. A dense *comm* writes its affinity into one
    ``lv × lv`` float64 array. A CSR *comm* keeps its CSR affinity,
    with the control edges as stored entries and empty padding rows, so
    no ``lv × lv`` array is built: the greedy engine makes the dense
    choices on any weights, and the refinement and the first aggregate
    give the dense bits whenever their sums are exact, as on integer
    weights (on others they sum in stored-entry order instead of BLAS
    order, so a near-tie can resolve differently).
    """
    if warm_start is not None:
        _check_warm_start(topology, warm_start)
    p = comm.order
    if p == 0:
        raise MappingError("empty communication matrix")

    leaf_objs, arities, granularity = _leaf_view(topology, hyperthread_aware)

    if control_owners is None:
        owners = [j % p for j in range(n_control)]
    else:
        owners = _check_owners(control_owners, p)
    if len(owners) != n_control:
        raise MappingError(
            f"{len(owners)} control owners for {n_control} control threads"
        )

    # Line 1: control pseudo-threads extend the matrix to p_ext.
    control_plan = plan_control_threads(
        p, n_control, len(leaf_objs), hyperthreading=granularity == "core"
    )
    p_ext = p + control_plan.slots

    # Line 2: manage oversubscription with a virtual level.
    plan = manage_oversubscription(list(arities), p_ext)
    lv = plan.virtual_leaves

    # The affinity, the control edges and zero-communication padding
    # threads up to the leaf count.
    m_cur = _padded_affinity(comm, lv, owners[: control_plan.slots])

    # Lines 4-7: group bottom-up, aggregating between levels. Cluster c
    # holds the tasks order[c * size:(c + 1) * size], in member order.
    order = np.arange(lv)
    size = 1
    groups_per_level: list[list[list[int]]] = []
    arity_list = list(reversed(plan.arities))
    if warm_start is not None and len(warm_start.groups_per_level) != len(
        arity_list
    ):
        raise MappingError(
            f"warm-start placement has {len(warm_start.groups_per_level)} "
            f"grouping levels; this problem has {len(arity_list)}"
        )
    for li, a in enumerate(arity_list):
        at_root = li == len(arity_list) - 1
        n_clusters = lv // size
        if (
            at_root
            and distance_aware
            and a > 2
            and n_clusters == a
            and len(topology.root.children) == a
        ):
            # MapGroups refinement: the member order of the final (single)
            # group assigns subtrees to the root's children — pick it by
            # interconnect distance instead of index order.
            dist = child_distance_matrix(topology)
            ordered = order_top_groups(
                [[i] for i in range(a)], m_cur, dist
            )
            groups = [[g[0] for g in ordered]]
        elif warm_start is not None:
            seed = _warm_level_seed(
                warm_start.groups_per_level[li], li, a, n_clusters
            )
            groups = _canonical(
                refine_groups(m_cur, seed, stats=refine_stats)
            )
        else:
            groups = group_processes(
                m_cur, a, force=engine, refine=refine, stats=refine_stats
            )
        # Each group joins `a` clusters of `size` tasks: the new
        # clusters are their blocks of order, concatenated group by
        # group.
        members = np.array(groups, dtype=np.intp).reshape(-1)
        order = order.reshape(-1, size)[members].reshape(-1)
        size *= a
        groups_per_level.append(groups)
        m_cur = aggregate_comm_matrix(m_cur, groups)
    if size != lv:
        raise MappingError(
            f"grouping terminated with {lv // size} clusters (tree arities "
            f"{plan.arities})"
        )

    # Line 8: MapGroups — the compute threads and the control slots
    # take the leaves of their positions in the final order.
    thread_to_pu = _bind_positions(order, leaf_objs, plan.factor, 0, p)
    slot_pus = _bind_positions(order, leaf_objs, plan.factor, p, p_ext)

    control_to_pu = _bind_control_threads(
        topology, control_plan, thread_to_pu, slot_pus, owners
    )

    return Placement(
        thread_to_pu=thread_to_pu,
        control_to_pu=control_to_pu,
        control_mode=control_plan.mode,
        granularity=granularity,
        oversub_factor=plan.factor,
        topology_name=topology.name,
        groups_per_level=tuple(
            tuple(tuple(g) for g in level) for level in groups_per_level
        ),
    )


def _check_owners(owners, p: int) -> list[int]:
    """*owners* as ints, each the index of one of *p* compute threads.

    Every control mode checks every owner, whether or not it gets a
    control slot; an owner that is not an integer (``operator.index``
    refuses it, so 3.9 is not truncated) or lies outside ``[0, p)``
    raises :class:`MappingError` naming it.
    """
    out = []
    for j, owner in enumerate(owners):
        try:
            own = operator.index(owner)
        except TypeError:
            raise MappingError(
                f"control owner {owner!r} of control thread {j} is not an "
                "integer thread index"
            ) from None
        if not 0 <= own < p:
            raise MappingError(
                f"control owner {own} of control thread {j} outside [0, {p})"
            )
        out.append(own)
    return out


def _check_warm_start(topology: Topology, warm: Placement) -> None:
    """Structural compatibility of a warm-start seed placement."""
    if warm.topology_name and warm.topology_name != topology.name:
        raise MappingError(
            f"warm-start placement was computed for {warm.topology_name!r}, "
            f"not {topology.name!r}"
        )
    if not warm.groups_per_level:
        raise MappingError(
            "warm-start placement records no per-level groups (multilevel "
            "placements cannot seed the direct pipeline)"
        )


def _warm_level_seed(
    level: tuple[tuple[int, ...], ...], li: int, arity: int, count: int
) -> list[list[int]]:
    """Validate one warm-start level as a partition of ``range(count)``
    into ``count // arity`` groups of size *arity*; returns it as lists.
    """
    seed = [list(g) for g in level]
    if len(seed) * arity != count or any(len(g) != arity for g in seed):
        raise MappingError(
            f"warm-start level {li}: expected {count // arity} groups of "
            f"size {arity}, got sizes {[len(g) for g in seed]}"
        )
    seen = sorted(i for g in seed for i in g)
    if seen != list(range(count)):
        raise MappingError(
            f"warm-start level {li}: groups do not partition "
            f"range({count})"
        )
    return seed


def _leaf_view(
    topology: Topology, hyperthread_aware: bool
) -> tuple[list, list[int], str]:
    """Mapping leaves and level arities at the chosen granularity.

    With hyperthreads and ``hyperthread_aware``, compute threads map
    one-per-core (first PU of each core) and the PU level drops out of
    the arity list; otherwise every PU is a leaf.
    """
    if hyperthread_aware and topology.has_hyperthreading:
        leaf_objs = [core.children[0] for core in topology.cores]
        arities = list(topology.level_arities()[:-1])
        granularity = "core"
    else:
        # PUs in tree order; one entry per leaf of the full tree.
        leaf_objs = [pu for core in topology.cores for pu in core.leaves()]
        arities = list(topology.level_arities())
        granularity = "pu"
    return leaf_objs, arities, granularity


def _padded_affinity(comm: CommunicationMatrix, lv: int, owners=()):
    """*comm*'s affinity with zero-communication padding rows up to
    order *lv*, and the control edges of *owners* (pseudo-thread
    ``comm.order + s`` tied to ``owners[s]``): CSR when *comm* is
    sparse, else dense, written once into its ``lv x lv`` array."""
    n = comm.order
    if not comm.is_sparse:
        m = comm.affinity_into(np.zeros((lv, lv)))
        add_control_edges(m, n, owners)
        return m
    csr = comm.affinity_any()
    if owners:
        rows, cols, eps = control_edges(n, owners, csr.data.max(initial=0.0))
        coo = csr.tocoo()
        return _sp.csr_array((
            np.concatenate([coo.data, np.full(rows.size, eps)]),
            (np.concatenate([coo.row, rows]), np.concatenate([coo.col, cols])),
        ), shape=(lv, lv))
    if lv == n:
        return csr
    indptr = np.concatenate([
        np.asarray(csr.indptr, dtype=np.int64),
        np.full(lv - n, csr.indptr[-1], dtype=np.int64),
    ])
    return _sp.csr_array((csr.data, csr.indices, indptr), shape=(lv, lv))


# -- the multilevel engine ------------------------------------------------------


def _order_block(aff, arities: list[int]) -> list[int]:
    """Recursively order a block's tasks onto its subtree's virtual leaves.

    Splits along the first remaining arity, then recurses into each
    part's submatrix; position ``q`` of the returned permutation is the
    task on virtual leaf ``q`` of this subtree.
    """
    n = int(aff.shape[0])
    if n == 1 or not arities:
        return list(range(n))
    k = arities[0]
    if k >= n:
        # Splitting into singletons: every task is its own virtual leaf
        # and any remaining arities are 1s — the order is the identity.
        return list(range(n))
    parts = split_k(aff, k)
    rest = arities[1:]
    if not rest or (len(rest) == 1 and rest[0] >= len(parts[0])):
        # Terminal blocks: the remainder cannot reorder within a part
        # (each part lands on one leaf / becomes singletons), so skip
        # the per-part submatrix extraction entirely.
        return np.concatenate(parts).tolist()
    return _order_parts(aff, parts, rest).tolist()


def _order_parts(aff, parts: list[list[int]], rest: list[int]) -> np.ndarray:
    """The tasks of *parts*, part by part, each part ordered by
    :func:`_order_block` on its own submatrix of *aff*."""
    out = []
    for part in parts:
        ia = np.asarray(part, dtype=np.intp)
        out.append(ia[_order_block(take_submatrix(aff, ia), rest)])
    return np.concatenate(out)


def multilevel_map(
    topology: Topology,
    comm: CommunicationMatrix,
    *,
    n_jobs: int = 1,
) -> Placement:
    """Scalable TreeMatch: multilevel coarsening + recursive bisection.

    Equivalent in structure to :func:`treematch_map` — threads are
    grouped along the topology arities (one per core on a hyperthreaded
    machine) and oversubscription goes through the same virtual level —
    but the grouping runs top-down as recursive bisection on a coarsened
    affinity graph, so a sparse million-task matrix maps without any
    O(n²) work. The top parts go to the root's children by interconnect
    distance, as in :func:`treematch_map`, and each is then ordered in
    this process.

    ``n_jobs`` accepts only 1, its default, and any other value raises
    :class:`MappingError`. It stays only because the benchmark's ``map``
    workload (``bench/workloads.py``) passes ``n_jobs=1``; it goes when
    that call drops it.

    Control threads are not modelled on this path (``control_mode`` is
    always ``"os"``) — at the scales where multilevel matters,
    per-thread control slots are noise; use :func:`treematch_map` below
    the cutover when control placement matters.
    """
    if type(n_jobs) is not int or n_jobs != 1:
        raise MappingError(
            f"multilevel_map runs in this process: n_jobs must be 1, "
            f"got {n_jobs!r}"
        )
    p = comm.order
    if p == 0:
        raise MappingError("empty communication matrix")
    leaf_objs, arities, granularity = _leaf_view(topology, True)

    plan = manage_oversubscription(arities, p)
    lv = plan.virtual_leaves
    aff = _padded_affinity(comm, lv)

    seq = [a for a in plan.arities if a > 1]
    if seq:
        k0 = seq[0]
        parts = split_k(aff, k0)
        if k0 > 2 and len(topology.root.children) == k0:
            # MapGroups refinement, as in treematch_map: assign the top
            # parts to the root's children by interconnect distance.
            agg = aggregate_comm_matrix(aff, parts)
            dist = child_distance_matrix(topology)
            ordered = order_top_groups([[i] for i in range(k0)], agg, dist)
            parts = [parts[g[0]] for g in ordered]
        flat = _order_parts(aff, parts, seq[1:])
    else:
        flat = np.arange(lv)

    # The padding tasks (ids >= p) bind nothing.
    return Placement(
        thread_to_pu=_bind_positions(flat, leaf_objs, plan.factor, 0, p),
        control_mode="os",
        granularity=granularity,
        oversub_factor=plan.factor,
        topology_name=topology.name,
        groups_per_level=(),
    )


def _bind_positions(
    flat: np.ndarray, leaf_objs: list, factor: int, lo: int, hi: int
) -> dict[int, int]:
    """``{task - lo: PU}`` for the tasks ``lo <= task < hi`` of *flat*,
    in position order.

    Position q of *flat* is virtual leaf q, i.e. physical leaf
    ``q // factor`` (threads "go up one level" when oversubscribed).
    """
    leaf_os = np.array([leaf.os_index for leaf in leaf_objs], dtype=np.intp)
    q = np.flatnonzero((flat >= lo) & (flat < hi))
    return dict(zip((flat[q] - lo).tolist(), leaf_os[q // factor].tolist()))


def _bind_control_threads(
    topology: Topology,
    control_plan: ControlPlan,
    thread_to_pu: dict[int, int],
    slot_pus: dict[int, int],
    owners: list[int],
) -> dict[int, int]:
    """Assign each control thread a PU according to the control plan."""
    if control_plan.mode == "ht-sibling":
        out: dict[int, int] = {}
        for j, owner in enumerate(owners):
            owner_pu = thread_to_pu.get(owner)
            if owner_pu is None:
                continue
            siblings = topology.siblings_of_pu(owner_pu)
            if not siblings:
                continue
            out[j] = siblings[j % len(siblings)].os_index
        return out
    if control_plan.mode == "spare-core":
        if not slot_pus:
            return {}
        slots = sorted(slot_pus)
        return {
            j: slot_pus[slots[j % len(slots)]] for j in range(len(owners))
        }
    return {}
