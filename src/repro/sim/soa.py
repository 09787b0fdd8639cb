"""The SoA simulator core: thread state in arrays, buckets drained vectorized.

``run_soa`` is the third run-loop implementation of
:class:`~repro.sim.machine.SimMachine` (after the object path and the
batched core). It keeps the batched core's calendar-bucket queue and
inlined op pump, but moves the per-thread quantum state — ``slice_used``,
``pending_busy``, ``cur_chunk``, ``slices_run``, ``busy_cycles``, the
occupied PU and the bound/unbound flag — out of the ``SimThread`` objects
into preallocated columns for the duration of the run:

* storage is ``array('d')`` / ``array('q')`` / ``array('b')`` columns, so
  the *scalar* paths (the op pump, single busy completions) index them at
  plain-list speed and read back native Python floats — no numpy-scalar
  boxing on the hot scalar arithmetic;
* ``np.frombuffer`` views over the same buffers give the *vector* paths
  zero-copy fancy indexing, so a run of same-instant busy completions is
  priced in one numpy pass (mask, ``np.minimum``, scatter) instead of k
  interpreter iterations.

Vectorized runs emit their follow-on completions as **one**
:data:`~repro.sim.engine.EV_VBUSY` bucket triple (payload: the int64 tid
array, owning consecutive seqs) when every chunk lands at the same
instant — the steady state of a lockstep gang — so the next drain of
that gang is again one event. Eligibility for vectorization is exactly
the set of events whose scalar processing is a pure quantum advance
(no generator resumption, no preemption, no rng): pending work remains
and either the quantum continues or the thread is bound with an empty
ready queue. Everything else — and every lane of a vector event that
stopped qualifying — falls back to the scalar handlers, lane order and
sequence numbers preserved, so fixed-seed runs stay *bit-identical* to
the batched and object cores (``tests/test_sim_batched_equivalence.py``
and the difftest harness referee all three).

Two run-ahead paths sit on top of the vectorized drain, both strictly
semantics-preserving:

* the **chain chase** — the serial complement of the vector path. A
  dependency chain (token ring, pipeline stage hand-off) leaves exactly
  one event per calendar bucket, so the vectorized drain never engages
  and every hop pays a full bucket+heap round-trip. When an emitted
  completion is provably the unique next event in the world (the live
  bucket is drained, the timestamp heap and the object heap are empty,
  and the budget/horizon allow it), the scalar handlers skip the
  calendar: they relocate the drained live bucket to the completion
  instant (so same-instant signals still append to it), jump the clock,
  and process the completion directly at the top of the loop. Each
  chased hop still allocates its seq, counts against the event budget
  and fires every tap exactly as the round-trip would — the chase
  changes *where* the next event comes from, never *what* happens.
  ``SimLimits.chase`` is the off switch for A/B runs.

* the optional **compiled run-ahead kernel** (:mod:`repro.sim.jit`,
  ``SimLimits.jit``) — the vector complement of the chase. A lockstep
  gang that is alone in the world re-runs the same predetermined
  vector round bucket after bucket; the kernel advances the columns
  through the whole stretch in one call (numba-compiled when the
  ``repro[jit]`` extra is installed, same function pure-python
  otherwise) and the interpreter re-seats the pending completion it
  leaves behind. ``machine.core_used`` reports ``"soa+jit"`` when the
  kernel is selected; ``machine.core_stats`` counts the events either
  fast path absorbed.

Column state folds back into the ``SimThread`` objects in the ``finally``
block, before :meth:`SimObserver.fold` runs and before leftover bucket
events are converted to object-path re-entry shims — which is what makes
:meth:`SimMachine.run_window` (the sharded driver's epoch step) safe to
call repeatedly on any core.
"""

from __future__ import annotations

import heapq
from array import array

import numpy as np

from repro.errors import SimulationError
from repro.sim.engine import (
    EV_BUSY,
    EV_CALL,
    EV_DRAIN,
    EV_STEP,
    EV_VBUSY,
    BatchedQueue,
    _ReBusy,
    _ReDrain,
    _ReStep,
)
from repro.sim.observe import (
    QUEUE_DEPTH_BUCKETS,
    TR_BLOCK,
    TR_BUSY,
    TR_CRASH,
    TR_DONE,
    TR_PREEMPT,
    TR_READY,
    TR_RUN,
)
from repro.sim.process import Compute, Spawn, Touch, Wait, YieldCPU

__all__ = ["run_soa"]


def run_soa(machine, *, max_cycles, max_events, jit=False):
    """Drain *machine* on the SoA core (see module docstring).

    Mirrors ``SimMachine._run_batched`` statement for statement on the
    scalar paths — same float expressions, same (when, seq) order, same
    rng call order. When changing either core, mirror the other; the
    golden-trace equivalence tests are the referee. *jit* selects the
    run-ahead kernel (resolved by ``SimMachine`` from ``SimLimits.jit``
    and numba availability).
    """
    # Lazy import: machine.py imports this module at its top.
    from repro.sim.machine import _OP_BASES, _OP_CODE

    eng = machine.engine
    model = machine.model
    limits = machine.limits
    max_ops = limits.max_ops_per_step
    vec_min = limits.vec_min
    # Flat buckets interleave seq/kind/payload: the cheap probe gate
    # compares against 3x the event count.
    vec_min3 = vec_min * 3
    chase_on = limits.chase
    runahead = None
    if jit:
        from repro.sim.jit import chain_runahead as runahead
    # Both run-ahead paths compare emission instants against one plain
    # float: +inf when the run is unbounded in time.
    horizon = float("inf") if max_cycles is None else max_cycles
    n_chased = 0
    n_jit = 0

    # -- hoisted model constants and subsystem internals ----------------
    timeslice = model.timeslice_cycles
    ts_edge = timeslice - 1e-9
    rebalance_slices = model.rebalance_slices
    cpf = model.cycles_per_flop
    htc = model.ht_contention
    os_jitter = model.os_jitter
    ctx_cycles = model.context_switch_cycles
    mig_cycles = model.migration_cycles
    cache_line = model.cache_line
    node_bw = model.node_bandwidth_cyc_per_byte
    caches = machine.caches
    line = caches._line
    l3_hit_cy = caches._l3_hit_cycles
    stall_f = caches._stall_fraction
    winv = caches._write_invalidate
    l3s = caches._l3s
    presence = caches._presence
    miss_cost = machine.memory._miss_cost
    pu_l3 = caches.pu_l3_list()
    pu_numa = machine.memory.pu_numa_list()
    node_free_at = machine.memory.free_at_list()
    sched = machine.scheduler
    busy_map = sched._busy
    node_free = sched._node_free
    place = sched.place
    rng = machine._rng
    ready = machine._ready
    sibling_pus = machine._sibling_pus
    pu_last_tid = machine._pu_last_tid
    op_code = _OP_CODE
    cls_touch = Touch
    cls_compute = Compute
    cls_wait = Wait
    cls_spawn = Spawn
    cls_yield = YieldCPU
    cls_restep = _ReStep
    cls_rebusy = _ReBusy
    cls_redrain = _ReDrain

    # -- observability taps, bound to locals ----------------------------
    # Identical discipline to the batched core: metric sites update flat
    # arrays unconditionally (throwaway storage when untapped), ring and
    # trace records keep their guards, and no tap can perturb pricing,
    # rng order or event order.
    notify_touch = machine._monitor_fns("on_touch")
    notify_block = machine._monitor_fns("on_block")
    notify_finish = machine._monitor_fns("on_finish")
    trace_tap = machine.trace
    trace_rec = trace_tap.record if trace_tap is not None else None
    on_place = sched.on_place or None
    obs = machine.observer
    ring_add = None
    ring_add_raw = None
    ring_busy_period = 0
    ring_cd = None
    obs_kinds = obs_depths = obs_preempts = None
    obs_pub = None
    if obs is not None:
        obs_pub = obs.pu_busy
        obs_kinds = obs.kind_counts
        obs_depths = obs.queue_depths
        obs_preempts = obs.preempts
        if obs.ring is not None:
            ring_add = obs.ring.add
            ring_add_raw = obs.ring.add_raw
            ring_busy_period = obs.ring._period[TR_BUSY]
            ring_cd = obs.ring._countdown
    # Per-PU busy cycles live in a column too: scalar sites index the
    # array('d') directly, the vector scatter adds through the numpy
    # view. Folded back into the observer's list on exit.
    if obs_pub is not None:
        col_pub = array("d", obs_pub)
    else:
        col_pub = array(
            "d", bytes(8 * (max(p.os_index for p in machine.topology.pus) + 1))
        )
    pub_np = np.frombuffer(col_pub)
    if obs_kinds is None:
        obs_kinds = [0] * 4
    if obs_depths is None:
        obs_depths = [0] * QUEUE_DEPTH_BUCKETS
    if obs_preempts is None:
        obs_preempts = [0]
    depth_last = QUEUE_DEPTH_BUCKETS - 1

    # -- the SoA columns -------------------------------------------------
    # Capacity is fixed at entry: growing would invalidate the frombuffer
    # views, and no supported workload adds threads mid-run (make_ready
    # raises if one ever does). array('d')/('q')/('b') + frombuffer give
    # the same memory two personalities: python-float scalar access and
    # zero-copy numpy vector access.
    thread_list = machine.threads
    n = len(thread_list)
    col_slice = array("d", bytes(8 * n))
    col_pend = array("d", bytes(8 * n))
    col_chunk = array("d", bytes(8 * n))
    col_busy = array("d", bytes(8 * n))
    col_sr = array("q", bytes(8 * n))
    col_pu = array("q", bytes(8 * n))
    col_bound = array("b", bytes(n))
    for _i, _t in enumerate(thread_list):
        col_slice[_i] = _t.slice_used
        col_pend[_i] = _t.pending_busy
        col_chunk[_i] = _t.cur_chunk
        col_busy[_i] = _t.counters.busy_cycles
        col_sr[_i] = _t.slices_run
        col_pu[_i] = -1 if _t.pu is None else _t.pu
        col_bound[_i] = 0 if _t.cpuset is None else 1
    sl_np = np.frombuffer(col_slice)
    pend_np = np.frombuffer(col_pend)
    ch_np = np.frombuffer(col_chunk)
    busy_np = np.frombuffer(col_busy)
    sr_np = np.frombuffer(col_sr, dtype=np.int64)
    puq_np = np.frombuffer(col_pu, dtype=np.int64)
    bnd_np = np.frombuffer(col_bound, dtype=np.bool_)
    # bind_thread keeps the bound column coherent while we run.
    machine._soa_bound = col_bound

    queue = BatchedQueue()
    buckets = queue.buckets
    when_heap = queue.when_heap
    push = heapq.heappush
    pop = heapq.heappop
    eheap = eng._heap
    buckets_l = buckets
    wheap_l = when_heap

    sib_compute = sched.compute_pressure(sibling_pus)

    now = eng.now
    processed = eng._events_processed
    # run()/run_window() always normalize max_events.
    budget = processed + max_events

    # -- the object path's helper methods, as flat closures -------------

    def make_ready(thread):
        if thread.state == "done":
            raise SimulationError(
                f"cannot restart finished thread {thread.name}"
            )
        if thread.tid >= n:
            raise SimulationError(
                f"thread {thread.name} was added after run() started — the "
                "SoA core preallocates its columns at entry; use "
                "core='batched' for dynamic thread creation"
            )
        thread.state = "ready"
        ready.append(thread)
        if trace_rec is not None:
            trace_rec(now, thread.tid, "ready", "")
        if ring_add is not None:
            ring_add(TR_READY, now, thread.tid, thread.pu)

    def release_pu(thread):
        pu = thread.pu
        if pu is None:
            raise SimulationError(f"{thread.name} holds no PU")
        if busy_map[pu] is None:
            raise SimulationError(f"PU {pu} is not busy")
        busy_map[pu] = None
        node_free[pu_numa[pu]] ^= 1 << pu
        thread.pu = None
        col_pu[thread.tid] = -1
        if thread.kind == "compute":
            for sib in sibling_pus[pu]:
                sib_compute[sib] -= 1

    def start_on(thread, pu):
        overhead = 0.0
        counters = thread.counters
        if pu_last_tid.get(pu) != thread.tid:
            counters.context_switches += 1
            overhead += ctx_cycles
        last = thread.last_pu
        if last is not None and last != pu:
            counters.cpu_migrations += 1
            overhead += mig_cycles
        if busy_map[pu] is not None:
            raise SimulationError(f"PU {pu} already busy")
        busy_map[pu] = thread
        node_free[pu_numa[pu]] ^= 1 << pu
        if on_place is not None:
            # Mirrors OSScheduler.occupy: hooks fire with the busy map
            # already updated, before the run transition is recorded.
            for hook in on_place:
                hook(pu, thread)
        pu_last_tid[pu] = thread.tid
        thread.state = "running"
        thread.pu = pu
        thread.last_pu = pu
        col_pu[thread.tid] = pu
        if trace_rec is not None:
            trace_rec(now, thread.tid, "run", f"pu={pu}")
        if ring_add is not None:
            ring_add(TR_RUN, now, thread.tid, pu)
        if thread.kind == "compute":
            for sib in sibling_pus[pu]:
                sib_compute[sib] += 1
        eng._seq = s = eng._seq + 1
        w = now + overhead
        b = buckets.get(w)
        if b is None:
            buckets[w] = [s, EV_STEP, thread]
            push(when_heap, w)
        else:
            b.append(s)
            b.append(EV_STEP)
            b.append(thread)

    def dispatch():
        d = len(ready)
        obs_depths[d if d < depth_last else depth_last] += 1
        while d == 1:
            # Single-ready fast path — the common shape on serial
            # dependency chains, where every wakeup readies exactly one
            # thread. Same placement decision, same failure handling
            # (peek instead of popleft+append keeps the thread at the
            # head), none of the rotation scaffolding.
            thread = ready[0]
            pu = place(thread, rebalance=thread.needs_rebalance)
            if pu is None:
                return
            ready.popleft()
            thread.needs_rebalance = False
            start_on(thread, pu)
            # A placement hook may have readied more threads; re-check.
            d = len(ready)
            if d == 0:
                return
        progressed = True
        while progressed and ready:
            progressed = False
            for _ in range(len(ready)):
                thread = ready.popleft()
                pu = place(thread, rebalance=thread.needs_rebalance)
                if pu is None:
                    ready.append(thread)
                    continue
                thread.needs_rebalance = False
                start_on(thread, pu)
                progressed = True

    def advance(thread, cycles):
        # _run_busy: returns True when the op cost zero cycles and the
        # caller should keep stepping (fresh op budget, like the object
        # path's recursion through _step).
        tid = thread.tid
        if cycles <= 0.0:
            col_pend[tid] = 0.0
            return True
        remaining = timeslice - col_slice[tid]
        chunk = cycles if cycles <= remaining else remaining
        col_pend[tid] = cycles - chunk
        col_busy[tid] += chunk
        col_pub[thread.pu] += chunk
        col_chunk[tid] = chunk
        eng._seq = s = eng._seq + 1
        w = now + chunk
        b = buckets.get(w)
        if b is None:
            buckets[w] = [s, EV_BUSY, thread]
            push(when_heap, w)
        else:
            b.append(s)
            b.append(EV_BUSY)
            b.append(thread)
        return False

    def finish(thread, crashed=False):
        thread.state = "done"
        if notify_finish:
            for fn in notify_finish:
                fn(thread)
        if trace_rec is not None:
            trace_rec(now, thread.tid, "crash" if crashed else "done", "")
        if ring_add is not None:
            ring_add(TR_CRASH if crashed else TR_DONE, now, thread.tid,
                     thread.pu)
        if thread.pu is not None:
            release_pu(thread)
        dispatch()

    def drain(event):
        waiters = event.waiters
        if event.count == 1 and len(waiters) == 1:
            # Single-waiter fast path: the token hand-off of a serial
            # chain. Same pop/decrement order as the general loop.
            thread = waiters.pop(0)
            event.count = 0
            thread.waiting_on = None
            make_ready(thread)
            dispatch()
            return
        woke = False
        while event.count > 0 and waiters:
            thread = waiters.pop(0)
            event.count -= 1
            thread.waiting_on = None
            make_ready(thread)
            woke = True
        if woke:
            dispatch()

    def fast_signal(event):
        eng._seq = s = eng._seq + 1
        b = buckets.get(now)
        if b is None:
            buckets[now] = [s, EV_DRAIN, event]
            push(when_heap, now)
        else:
            b.append(s)
            b.append(EV_DRAIN)
            b.append(event)

    def busy_boundary(thread):
        # Quantum expired: account a slice, decide preemption/migration.
        # Returns True when the thread keeps its PU with no pending busy
        # work — the caller then resumes its generator (the inlined pump
        # in the main loop).
        tid = thread.tid
        col_sr[tid] = sr = col_sr[tid] + 1
        col_slice[tid] = 0.0
        rebalance_due = (
            thread.cpuset is None and sr % rebalance_slices == 0
        )
        contender = False
        if ready:
            pu = thread.pu
            for t in ready:
                cs = t.cpuset
                if cs is None or pu in cs:
                    contender = True
                    break
        if rebalance_due or contender:
            thread.needs_rebalance = rebalance_due
            obs_preempts[0] += 1
            if trace_rec is not None:
                trace_rec(now, thread.tid, "preempt", "")
            if ring_add is not None:
                ring_add(TR_PREEMPT, now, thread.tid, thread.pu)
            release_pu(thread)
            make_ready(thread)
            dispatch()
            return False
        pb = col_pend[tid]
        if pb > 0.0:
            advance(thread, pb)
            return False
        return True

    def vec_advance(tids_v, su_v, below_v, pend_v):
        # Price one eligible segment of same-instant busy completions in
        # a single numpy pass. Bit-identity with the scalar handlers:
        # same expressions elementwise (IEEE ops are elementwise
        # identical), lanes tapped in event order before processing, and
        # seqs allocated exactly as a scalar emit loop would.
        seg = len(tids_v)
        if ring_busy_period:
            # The busy ring tap stays a scalar in-order loop — it mutates
            # the shared sampling countdown exactly like the scalar
            # handler, one tick per lane.
            tl = tids_v.tolist()
            if ring_busy_period == 1:
                for _x in tl:
                    t = thread_list[_x]
                    ring_add_raw(TR_BUSY, now, t.tid, t.pu)
            else:
                for _x in tl:
                    left = ring_cd[TR_BUSY] - 1
                    if left:
                        ring_cd[TR_BUSY] = left
                    else:
                        ring_cd[TR_BUSY] = ring_busy_period
                        t = thread_list[_x]
                        ring_add_raw(TR_BUSY, now, t.tid, t.pu)
        su2 = np.where(below_v, su_v, 0.0)
        if not below_v.all():
            sr_np[tids_v] += ~below_v
        chunk = np.minimum(pend_v, timeslice - su2)
        sl_np[tids_v] = su2
        pend_np[tids_v] = pend_v - chunk
        ch_np[tids_v] = chunk
        busy_np[tids_v] += chunk
        pub_np[puq_np[tids_v]] += chunk
        c0 = chunk[0]
        if bool((chunk == c0).all()):
            # The lockstep steady state: every lane's next completion
            # lands at the same instant — emit one vector event owning
            # the seg consecutive seqs a scalar emit loop would have
            # allocated. float(c0) unboxes exactly, so the bucket key is
            # the same python float `now + chunk` computes scalar-side.
            eng._seq = s = eng._seq + seg
            w2 = now + float(c0)
            b2 = buckets_l.get(w2)
            if b2 is None:
                buckets_l[w2] = [s - seg + 1, EV_VBUSY, tids_v]
                push(wheap_l, w2)
            else:
                b2.append(s - seg + 1)
                b2.append(EV_VBUSY)
                b2.append(tids_v)
        else:
            when_l = (now + chunk).tolist()
            tl2 = tids_v.tolist()
            s = eng._seq
            for _x in range(seg):
                s += 1
                w2 = when_l[_x]
                t = thread_list[tl2[_x]]
                b2 = buckets_l.get(w2)
                if b2 is None:
                    buckets_l[w2] = [s, EV_BUSY, t]
                    push(wheap_l, w2)
                else:
                    b2.append(s)
                    b2.append(EV_BUSY)
                    b2.append(t)
            eng._seq = s

    # -- run ------------------------------------------------------------
    machine._fast_signal = fast_signal
    # Live-bucket cursor, exactly as in the batched core.
    bb: list = []
    bi = 0
    bwhen = 0.0
    blive = False
    # The chain chase's hand-off slot: an emit site that proved its
    # completion is the unique next event parks the thread here instead
    # of the calendar; the loop top picks it up immediately.
    chase_t = None
    try:
        for thread in thread_list:
            if thread.state == "new":
                make_ready(thread)
        dispatch()
        while True:
            if chase_t is not None:
                # A chased completion. The emit site proved nothing else
                # is pending anywhere (drained live bucket, empty
                # timestamp heap, empty object heap), allocated the seq,
                # advanced the clock and checked budget and horizon —
                # processing it here is bit-identical to the calendar
                # round-trip it skipped, including every tap.
                payload = chase_t
                chase_t = None
                ev_kind = EV_BUSY
                processed += 1
                obs_kinds[EV_BUSY] += 1
                n_chased += 1
            elif bi < len(bb):
                if eheap:
                    # External engine.schedule traffic — and re-entry
                    # shims from a previous window's exit conversion,
                    # which reconstruct their original kind-coded
                    # triples so windowed runs keep draining natively.
                    while eheap:
                        w, s, fn = pop(eheap)
                        tf = fn.__class__
                        if tf is cls_rebusy:
                            kind = EV_BUSY
                            pl = fn.t
                        elif tf is cls_restep:
                            kind = EV_STEP
                            pl = fn.t
                        elif tf is cls_redrain:
                            kind = EV_DRAIN
                            pl = fn.e
                        else:
                            kind = EV_CALL
                            pl = fn
                        b = buckets_l.get(w)
                        if b is None:
                            buckets_l[w] = [s, kind, pl]
                            push(wheap_l, w)
                        else:
                            b.append(s)
                            b.append(kind)
                            b.append(pl)
                ev_kind = bb[bi + 1]
                if ev_kind == EV_VBUSY:
                    # A vector busy completion: re-check eligibility lane
                    # by lane (the world may have changed since emit — a
                    # wakeup filled `ready`, pending work drained). The
                    # still-eligible prefix advances vectorized; the rest
                    # re-materializes as scalar triples at the cursor,
                    # seqs preserved, and drains through the unchanged
                    # scalar handlers.
                    tids = bb[bi + 2]
                    base = bb[bi]
                    bi += 3
                    k = len(tids)
                    if (
                        runahead is not None
                        and not ready
                        and not wheap_l
                        and bi == len(bb)
                        and not eheap
                        and ring_busy_period == 0
                        and processed + k <= budget
                    ):
                        # The gang is alone in the world: every further
                        # round is predetermined, so hand the stretch to
                        # the run-ahead kernel (repro.sim.jit), adopt
                        # the clock of its last processed round, and
                        # re-seat the pending completion it leaves as a
                        # fresh single-event bucket — the unchanged
                        # handler logic then deals with whatever
                        # stopped it (narrowing, divergence, budget,
                        # horizon).
                        rounds, t_pend, t_proc = runahead(
                            sl_np, pend_np, ch_np, busy_np, pub_np,
                            sr_np, bnd_np, puq_np, tids, now,
                            timeslice, ts_edge, horizon,
                            (budget - processed) // k,
                        )
                        if rounds:
                            rk = rounds * k
                            processed += rk
                            n_jit += rk
                            obs_kinds[EV_BUSY] += rk
                            eng._seq = eng._seq + rk
                            now = t_proc
                            eng.now = t_proc
                            del buckets_l[bwhen]
                            blive = False
                            del bb[:]
                            bb.append(eng._seq - k + 1)
                            bb.append(EV_VBUSY)
                            bb.append(tids)
                            buckets_l[t_pend] = bb
                            push(wheap_l, t_pend)
                            continue
                    su_v = sl_np[tids] + ch_np[tids]
                    pend_v = pend_np[tids]
                    below_v = su_v < ts_edge
                    pos = pend_v > 0.0
                    if ready:
                        elig = below_v & pos
                    else:
                        elig = pos & (below_v | bnd_np[tids])
                    seg = k if bool(elig.all()) else int(np.argmin(elig))
                    if seg < k and seg < vec_min:
                        # The gang narrowed mid-drain: a still-eligible
                        # prefix below vec_min is not worth the numpy
                        # setup per sub-batch — re-materialize every
                        # lane and take the scalar pump (identical
                        # arithmetic and emission order either way).
                        seg = 0
                    if processed + seg > budget:
                        seg = 0
                    if seg:
                        vec_advance(
                            tids[:seg], su_v[:seg], below_v[:seg],
                            pend_v[:seg],
                        )
                        processed += seg
                        obs_kinds[EV_BUSY] += seg
                    if seg < k:
                        rest = tids[seg:].tolist()
                        sq = base + seg
                        ins = []
                        for tid_ in rest:
                            ins.append(sq)
                            ins.append(EV_BUSY)
                            ins.append(thread_list[tid_])
                            sq += 1
                        bb[bi:bi] = ins
                    continue
                if ev_kind == EV_BUSY:
                    # Cheap O(1) probe on this event before any scan: is
                    # it itself a pure quantum advance? Only then is a
                    # run worth gathering — pump-bound buckets stay on
                    # the scalar path with one condition of overhead.
                    t0 = bb[bi + 2]
                    tid0 = t0.tid
                    if (
                        col_pend[tid0] > 0.0
                        and len(bb) - bi >= vec_min3
                        and (
                            col_slice[tid0] + col_chunk[tid0] < ts_edge
                            or (col_bound[tid0] and not ready)
                        )
                    ):
                        nbb = len(bb)
                        j = bi + 4
                        while j < nbb and bb[j] == EV_BUSY:
                            j += 3
                        k = (j - bi - 1) // 3
                        if k >= vec_min:
                            # hotlint: ok(alloc) — the genexp amortizes
                            # over k >= vec_min events; that is the point
                            # of the vectorized segment.
                            tids = np.fromiter(
                                (bb[x].tid for x in range(bi + 2, j + 1, 3)),  # hotlint: ok(alloc)
                                dtype=np.int64, count=k,
                            )
                            su_v = sl_np[tids] + ch_np[tids]
                            pend_v = pend_np[tids]
                            below_v = su_v < ts_edge
                            pos = pend_v > 0.0
                            if ready:
                                elig = below_v & pos
                            else:
                                elig = pos & (below_v | bnd_np[tids])
                            seg = (
                                k if bool(elig.all())
                                else int(np.argmin(elig))
                            )
                            if seg >= vec_min and processed + seg <= budget:
                                vec_advance(
                                    tids[:seg], su_v[:seg], below_v[:seg],
                                    pend_v[:seg],
                                )
                                bi += 3 * seg
                                processed += seg
                                obs_kinds[EV_BUSY] += seg
                                continue
                if processed >= budget:
                    eng._events_processed = processed
                    raise SimulationError(
                        f"event budget {max_events} exhausted at "
                        f"t={now:.3g} — runaway simulation?"
                    )
                payload = bb[bi + 2]
                bi += 3
                processed += 1
                obs_kinds[ev_kind] += 1
            else:
                if eheap:
                    while eheap:
                        w, s, fn = pop(eheap)
                        tf = fn.__class__
                        if tf is cls_rebusy:
                            kind = EV_BUSY
                            pl = fn.t
                        elif tf is cls_restep:
                            kind = EV_STEP
                            pl = fn.t
                        elif tf is cls_redrain:
                            kind = EV_DRAIN
                            pl = fn.e
                        else:
                            kind = EV_CALL
                            pl = fn
                        b = buckets_l.get(w)
                        if b is None:
                            buckets_l[w] = [s, kind, pl]
                            push(wheap_l, w)
                        else:
                            b.append(s)
                            b.append(kind)
                            b.append(pl)
                    if bi < len(bb):
                        # Zero-delay traffic landed in the live bucket.
                        continue
                if blive:
                    del buckets_l[bwhen]
                    blive = False
                if not wheap_l:
                    break
                w0 = wheap_l[0]
                if w0 > horizon:
                    break
                if processed >= budget:
                    eng._events_processed = processed
                    raise SimulationError(
                        f"event budget {max_events} exhausted at "
                        f"t={now:.3g} — runaway simulation?"
                    )
                pop(wheap_l)
                bb = buckets_l[w0]
                bi = 0
                bwhen = w0
                blive = True
                now = w0
                eng.now = w0
                continue
            if ev_kind == EV_BUSY:
                # The hottest kind: a busy chunk ended. Either the
                # quantum continues (fall through to the pump) or the
                # boundary logic decides preemption/rebalance.
                thread = payload
                tid = thread.tid
                if ring_busy_period:
                    if ring_busy_period == 1:
                        ring_add_raw(TR_BUSY, now, thread.tid, thread.pu)
                    else:
                        left = ring_cd[TR_BUSY] - 1
                        if left:
                            ring_cd[TR_BUSY] = left
                        else:
                            ring_cd[TR_BUSY] = ring_busy_period
                            ring_add_raw(
                                TR_BUSY, now, thread.tid, thread.pu
                            )
                su = col_slice[tid] + col_chunk[tid]
                if su < ts_edge:
                    col_slice[tid] = su
                    pb = col_pend[tid]
                    if pb > 0.0:  # inline advance(): pb > 0 known
                        remaining = timeslice - su
                        chunk = pb if pb <= remaining else remaining
                        col_pend[tid] = pb - chunk
                        col_busy[tid] += chunk
                        col_pub[thread.pu] += chunk
                        col_chunk[tid] = chunk
                        eng._seq = s2 = eng._seq + 1
                        w2 = now + chunk
                        if (
                            chase_on
                            and bi == len(bb)
                            and processed < budget
                            and w2 <= horizon
                            and (not wheap_l or w2 < wheap_l[0])
                            and (not eheap or w2 < eheap[0][0])
                        ):
                            # Chain chase: this completion is provably
                            # the next event anywhere — the live bucket
                            # is drained and w2 strictly beats every
                            # pending timestamp (a tie would lose on
                            # seq order, and strictness also means no
                            # bucket exists at w2 yet). Relocate the
                            # drained live bucket to w2 (same-instant
                            # signals keep appending to it), jump the
                            # clock, skip the calendar round-trip.
                            del buckets_l[bwhen]
                            del bb[:]
                            buckets_l[w2] = bb
                            bwhen = w2
                            bi = 0
                            now = w2
                            eng.now = w2
                            chase_t = thread
                            continue
                        b2 = buckets_l.get(w2)
                        if b2 is None:
                            buckets_l[w2] = [s2, EV_BUSY, thread]
                            push(wheap_l, w2)
                        else:
                            b2.append(s2)
                            b2.append(EV_BUSY)
                            b2.append(thread)
                        continue
                else:
                    if not busy_boundary(thread):
                        continue
            elif ev_kind == EV_STEP:
                thread = payload
                tid = thread.tid
                pb = col_pend[tid]
                if pb > 0.0:  # inline advance(): pb > 0 known
                    remaining = timeslice - col_slice[tid]
                    chunk = pb if pb <= remaining else remaining
                    col_pend[tid] = pb - chunk
                    col_busy[tid] += chunk
                    col_pub[thread.pu] += chunk
                    col_chunk[tid] = chunk
                    eng._seq = s2 = eng._seq + 1
                    w2 = now + chunk
                    if (
                        chase_on
                        and bi == len(bb)
                        and processed < budget
                        and w2 <= horizon
                        and (not wheap_l or w2 < wheap_l[0])
                        and (not eheap or w2 < eheap[0][0])
                    ):
                        # Chain chase (see the EV_BUSY handler).
                        del buckets_l[bwhen]
                        del bb[:]
                        buckets_l[w2] = bb
                        bwhen = w2
                        bi = 0
                        now = w2
                        eng.now = w2
                        chase_t = thread
                        continue
                    b2 = buckets_l.get(w2)
                    if b2 is None:
                        buckets_l[w2] = [s2, EV_BUSY, thread]
                        push(wheap_l, w2)
                    else:
                        b2.append(s2)
                        b2.append(EV_BUSY)
                        b2.append(thread)
                    continue
            elif ev_kind == EV_DRAIN:
                drain(payload)
                continue
            else:  # EV_CALL
                eng._events_processed = processed
                payload()
                continue

            # ---- op pump: resume the generator and price ops until one
            # costs cycles. Identical to the batched core's pump except
            # that quantum state lives in the columns.
            gen = thread.gen
            counters = thread.counters
            is_compute = thread.kind == "compute"
            ops = 0
            resets = 0
            while True:
                try:
                    sv = thread.send_value
                    if sv is None:
                        op = next(gen)
                    else:
                        thread.send_value = None
                        op = gen.send(sv)
                except StopIteration:
                    finish(thread)
                    break
                except Exception:
                    finish(thread, True)
                    raise
                cls = op.__class__
                if cls is cls_touch:
                    code = 0
                elif cls is cls_compute:
                    code = 1
                elif cls is cls_wait:
                    code = 2
                elif cls is cls_spawn:
                    code = 3
                elif cls is cls_yield:
                    code = 4
                else:
                    code = op_code.get(cls)
                    if code is None:
                        for base in _OP_BASES:
                            if isinstance(op, base):
                                code = op_code[base]
                                op_code[cls] = code
                                break
                        else:
                            raise SimulationError(
                                f"{thread.name} yielded unknown op {op!r}"
                            )
                if code == 0:  # Touch
                    buf = op.buffer
                    nbytes = op.nbytes
                    if nbytes is None:
                        nbytes = buf.size
                    if notify_touch:
                        # Same observation point as _step: the request
                        # size before clamping, priced right after.
                        for fn in notify_touch:
                            fn(thread, buf, nbytes, op.write)
                    pu = thread.pu
                    if nbytes <= 0:
                        if buf.home_numa is None:
                            buf.home_numa = pu_numa[pu]
                        busy = 0.0
                    else:
                        nb = nbytes
                        size = buf.size
                        if nb > size:
                            nb = size
                        l3_idx = pu_l3[pu]
                        l3 = l3s[l3_idx]
                        buf_id = buf.buf_id
                        od = l3._resident
                        resident = od.get(buf_id, 0.0)
                        if resident >= size:
                            # Steady-state all-hit touch; see the batched
                            # core for the full derivation.
                            lines_hit = nb / line
                            busy = lines_hit * l3_hit_cy
                            counters.l3_hits += lines_hit
                            counters.memory_cycles += busy
                            counters.bytes_touched += nb
                            cur = od.pop(buf_id)
                            od[buf_id] = cur
                            if op.write and winv:
                                present = presence.get(buf_id)
                                if present and (
                                    len(present) > 1 or l3_idx not in present
                                ):
                                    # Deterministic invalidation order on
                                    # a handful of L3 indices.
                                    for idx in sorted(present):  # hotlint: ok(alloc)
                                        if idx != l3_idx:
                                            l3s[idx].invalidate(buf_id)
                            if is_compute and sib_compute[pu]:
                                busy *= htc
                        else:
                            accessor = pu_numa[pu]
                            home = buf.home_numa
                            if home is None:
                                home = accessor
                                buf.home_numa = home
                            hit_fraction = resident / size
                            hit_bytes = nb * hit_fraction
                            miss_bytes = nb - hit_bytes
                            lines_hit = hit_bytes / line
                            lines_miss = miss_bytes / line
                            hit_cycles = lines_hit * l3_hit_cy
                            miss_cycles = (
                                lines_miss * miss_cost[accessor][home]
                            )
                            busy = hit_cycles + miss_cycles
                            counters.l3_hits += lines_hit
                            counters.l3_misses += lines_miss
                            counters.stalled_cycles += miss_cycles * stall_f
                            counters.memory_cycles += busy
                            counters.bytes_touched += nb
                            if accessor != home:
                                counters.remote_bytes += miss_bytes
                            cap = l3.capacity
                            if nb > cap:
                                l3.invalidate(buf_id)
                                if op.write and winv:
                                    present = presence.get(buf_id)
                                    if present and (
                                        len(present) > 1
                                        or l3_idx not in present
                                    ):
                                        for idx in sorted(present):  # hotlint: ok(alloc)
                                            if idx != l3_idx:
                                                l3s[idx].invalidate(buf_id)
                            else:
                                inst = resident + miss_bytes
                                if inst > size:
                                    inst = size
                                # Inline L3State.install; see the batched
                                # core for the derivation.
                                if inst > cap:
                                    inst = cap
                                cur = resident
                                if cur > 0.0:
                                    del od[buf_id]
                                used = l3.used - cur
                                tgt = cur if cur >= inst else inst
                                if tgt > cap:
                                    tgt = cap
                                while used + tgt > cap and od:
                                    ev_id = next(iter(od))
                                    ev_bytes = od.pop(ev_id)
                                    used -= ev_bytes
                                    p = presence.get(ev_id)
                                    if p is not None:
                                        p.discard(l3_idx)
                                if used + tgt > cap:
                                    tgt = cap - used
                                od[buf_id] = tgt
                                l3.used = used + tgt
                                ps = presence.get(buf_id)
                                if ps is None:
                                    # Fresh singleton: once per (buffer,
                                    # first install), not per event.
                                    presence[buf_id] = {l3_idx}  # hotlint: ok(alloc)
                                else:
                                    ps.add(l3_idx)
                                    if op.write and winv and len(ps) > 1:
                                        for idx in sorted(ps):  # hotlint: ok(alloc)
                                            if idx != l3_idx:
                                                l3s[idx].invalidate(
                                                    buf_id
                                                )
                            if is_compute and sib_compute[pu]:
                                busy *= htc
                                extra = htc - 1.0
                                counters.l3_misses += (
                                    miss_bytes / cache_line * extra
                                )
                                counters.stalled_cycles += (
                                    miss_cycles * extra * stall_f
                                )
                            if miss_bytes > 0:
                                free_at = node_free_at[home]
                                start = now if now >= free_at else free_at
                                end = start + miss_bytes * node_bw
                                node_free_at[home] = end
                                queued = end - now - busy
                                if queued > 0:
                                    busy += queued
                                    counters.stalled_cycles += (
                                        queued * stall_f
                                    )
                                    counters.memory_cycles += queued
                    if busy > 0.0:  # inline advance()
                        remaining = timeslice - col_slice[tid]
                        chunk = busy if busy <= remaining else remaining
                        col_pend[tid] = busy - chunk
                        col_busy[tid] += chunk
                        col_pub[pu] += chunk
                        col_chunk[tid] = chunk
                        eng._seq = s2 = eng._seq + 1
                        w2 = now + chunk
                        if (
                            chase_on
                            and bi == len(bb)
                            and processed < budget
                            and w2 <= horizon
                            and (not wheap_l or w2 < wheap_l[0])
                            and (not eheap or w2 < eheap[0][0])
                        ):
                            # Chain chase (see the EV_BUSY handler).
                            del buckets_l[bwhen]
                            del bb[:]
                            buckets_l[w2] = bb
                            bwhen = w2
                            bi = 0
                            now = w2
                            eng.now = w2
                            chase_t = thread
                            break
                        b2 = buckets_l.get(w2)
                        if b2 is None:
                            buckets_l[w2] = [s2, EV_BUSY, thread]
                            push(wheap_l, w2)
                        else:
                            b2.append(s2)
                            b2.append(EV_BUSY)
                            b2.append(thread)
                        break
                    col_pend[tid] = 0.0
                    ops = 0
                    resets += 1
                    if resets > max_ops:
                        raise SimulationError(
                            f"{thread.name} issued {max_ops} zero-cost "
                            "ops — livelock?"
                        )
                    continue
                elif code == 1:  # Compute
                    flops = op.flops
                    eff = op.efficiency
                    cycles = flops * cpf if eff == 1.0 else flops * cpf / eff
                    if is_compute and sib_compute[thread.pu]:
                        cycles *= htc
                    if thread.cpuset is None and os_jitter > 0:
                        cycles *= 1.0 + rng.uniform(-os_jitter, os_jitter)
                    counters.flops += flops
                    counters.compute_cycles += cycles
                    if cycles > 0.0:  # inline advance()
                        remaining = timeslice - col_slice[tid]
                        chunk = cycles if cycles <= remaining else remaining
                        col_pend[tid] = cycles - chunk
                        col_busy[tid] += chunk
                        col_pub[thread.pu] += chunk
                        col_chunk[tid] = chunk
                        eng._seq = s2 = eng._seq + 1
                        w2 = now + chunk
                        if (
                            chase_on
                            and bi == len(bb)
                            and processed < budget
                            and w2 <= horizon
                            and (not wheap_l or w2 < wheap_l[0])
                            and (not eheap or w2 < eheap[0][0])
                        ):
                            # Chain chase (see the EV_BUSY handler).
                            del buckets_l[bwhen]
                            del bb[:]
                            buckets_l[w2] = bb
                            bwhen = w2
                            bi = 0
                            now = w2
                            eng.now = w2
                            chase_t = thread
                            break
                        b2 = buckets_l.get(w2)
                        if b2 is None:
                            buckets_l[w2] = [s2, EV_BUSY, thread]
                            push(wheap_l, w2)
                        else:
                            b2.append(s2)
                            b2.append(EV_BUSY)
                            b2.append(thread)
                        break
                    col_pend[tid] = 0.0
                    ops = 0
                    resets += 1
                    if resets > max_ops:
                        raise SimulationError(
                            f"{thread.name} issued {max_ops} zero-cost "
                            "ops — livelock?"
                        )
                    continue
                elif code == 2:  # Wait
                    event = op.event
                    if event.count > 0:
                        event.count -= 1
                        ops += 1
                        if ops >= max_ops:
                            raise SimulationError(
                                f"{thread.name} issued {max_ops} "
                                "untimed ops — livelock?"
                            )
                        continue
                    thread.state = "blocked"
                    thread.waiting_on = event
                    event.waiters.append(thread)
                    if notify_block:
                        for fn in notify_block:
                            fn(thread, event)
                    if trace_rec is not None:
                        trace_rec(now, thread.tid, "block", event.name)
                    if ring_add is not None:
                        ring_add(TR_BLOCK, now, thread.tid, thread.pu)
                    release_pu(thread)
                    if ready:
                        dispatch()
                    else:
                        # Inline the empty-queue dispatch: nothing to
                        # place, only the depth histogram to keep exact.
                        obs_depths[0] += 1
                    break
                elif code == 3:  # Spawn
                    target = op.thread
                    if target.state in ("new", "unstarted"):
                        make_ready(target)
                    ops += 1
                    if ops >= max_ops:
                        raise SimulationError(
                            f"{thread.name} issued {max_ops} "
                            "untimed ops — livelock?"
                        )
                    continue
                else:  # YieldCPU
                    # The object path routes this through _requeue, so it
                    # counts and traces as a preemption there too.
                    obs_preempts[0] += 1
                    if trace_rec is not None:
                        trace_rec(now, thread.tid, "preempt", "")
                    if ring_add is not None:
                        ring_add(TR_PREEMPT, now, thread.tid, thread.pu)
                    release_pu(thread)
                    make_ready(thread)
                    dispatch()
                    break
    finally:
        machine._fast_signal = None
        machine._soa_bound = None
        eng.now = now
        eng._events_processed = processed
        # Diagnostic only (benchmarks and threshold tests read these):
        # how many events each run-ahead path absorbed. Accumulates
        # across windows.
        stats = machine.core_stats
        stats["chase_events"] = stats.get("chase_events", 0) + n_chased
        stats["jit_events"] = stats.get("jit_events", 0) + n_jit
        machine.memory.store_free_at(node_free_at)
        # Fold the columns back into the SimThread objects by assignment
        # — exact (the column held the authoritative double), and safe
        # across windows (re-entry re-seeds the columns from here).
        for _i in range(n):
            _t = thread_list[_i]
            _t.slice_used = col_slice[_i]
            _t.pending_busy = col_pend[_i]
            _t.cur_chunk = col_chunk[_i]
            _t.slices_run = col_sr[_i]
            _t.counters.busy_cycles = col_busy[_i]
        if obs_pub is not None:
            for _i in range(len(col_pub)):
                obs_pub[_i] = col_pub[_i]
        if buckets:
            # A max_cycles/budget stop (or an app raise mid-bucket) can
            # leave events in flight: convert them to typed re-entry
            # shims so engine.pending, manual engine.run() and the next
            # run_window() all keep working — the merge loops above
            # recognize the shims and rebuild their kind-coded triples.
            for w, b_l in buckets.items():
                j0 = bi if blive and w == bwhen else 0
                for j in range(j0, len(b_l), 3):
                    ev_kind = b_l[j + 1]
                    payload = b_l[j + 2]
                    if ev_kind == EV_VBUSY:
                        base = b_l[j]
                        for off, tid_ in enumerate(payload.tolist()):
                            heapq.heappush(
                                eheap,
                                (
                                    w, base + off,
                                    _ReBusy(machine, thread_list[tid_]),
                                ),
                            )
                        continue
                    if ev_kind == EV_CALL:
                        fn = payload
                    elif ev_kind == EV_STEP:
                        fn = _ReStep(machine, payload)
                    elif ev_kind == EV_BUSY:
                        fn = _ReBusy(machine, payload)
                    else:
                        fn = _ReDrain(machine, payload)
                    heapq.heappush(eheap, (w, b_l[j], fn))
            buckets.clear()
            del when_heap[:]
