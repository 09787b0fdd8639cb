#!/usr/bin/env python3
"""Benchmark the simulator substrate and record the results.

Two modes:

``python scripts/bench_repro.py``
    Runs the infrastructure benchmarks
    (``benchmarks/test_infra_simulator_throughput.py``) under
    pytest-benchmark plus a quick-scale Fig. 4 wall-clock probe, and
    distils everything into ``BENCH_sim.json`` at the repo root. If a
    previous ``BENCH_sim.json`` exists, its measurements rotate into the
    ``previous`` key — so running the script once on the old tree and
    once on the new one leaves a before/after record in a single file.

``python scripts/bench_repro.py --check [--tolerance 0.3] [--quick]``
    Fast preflight (no pytest): runs the engine event-throughput ring
    inline and exits 1 if it processes <= 2_000 events — the same floor
    ``test_engine_event_throughput`` asserts. Paired-ratio regression
    gates follow. Every probe gets one untimed warmup pass first, every
    gate is best-of-N interleaved pairs (N >= 5, ``--pairs``), and the
    verdict is always the *median of per-pair ratios* measured on this
    machine right now (recorded absolute rates are never compared
    against — they swing tens of percent between runs on the shared
    container):

    * core gate — batched must keep a real edge over the object core
      (recorded speedup discounted 50%, floored at 1.2x);
    * observability gate — the fully tapped run must stay within
      ``--tolerance`` (default 30%; the honest interleaved measurement
      puts the true tap cost at ~15-20%, where the old best-vs-best
      comparison once recorded taps as *faster* — pure bias) of the
      untapped batched run; a median ratio *below* 1.0 marks the
      measurement unstable instead of being celebrated;
    * shard gate — a 2-shard scenario must produce the same global
      trace fingerprint with 1 worker and 2 workers;
    * mapping gate — the TreeMatch probe (greedy p=1024 + multilevel
      p=4096) must stay within 2x of its recorded ratio against a numpy
      matmul canary (informational until a ratio is recorded);
    * adaptive gates — on the phase-shift workload the remapping
      controller must beat the best static placement >= 1.1x in
      deterministic virtual seconds, and on the phase-stable control
      program (zero remaps) its wall-clock overhead must stay <= 5%.

    ``--quick`` drops to 3 pairs and skips the mapping gate — a <10s
    smoke for lint preflight; ``regenerate_all.py`` runs the full check
    before spending minutes on figures.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_FILE = ROOT / "benchmarks" / "test_infra_simulator_throughput.py"
OUT_PATH = ROOT / "BENCH_sim.json"

#: Floor asserted by ``test_engine_event_throughput`` (events per run).
ENGINE_EVENTS_FLOOR = 2_000

#: Thread counts the mapping benchmarks sweep (ISSUE 3 scaling ladder).
MAPPING_SIZES = (128, 512, 2048, 4096)

#: Once one size of a mapping benchmark takes longer than this, the
#: larger sizes are recorded as skipped instead of run — keeps a run on a
#: slow (pre-optimization) tree from taking tens of minutes.
MAPPING_BUDGET_S = 60.0

#: Task counts of the sparse multilevel scaling probes (ISSUE 7): the
#: 10^5 point must land in single-digit seconds, the 10^6 point must
#: complete at all (it is the dense-n² infeasibility demonstrator).
MAPPING_SCALE_SIZES = (100_000, 1_000_000)

#: Separate, larger budget for the scale probes — a million-task map is
#: allowed minutes, and skipping it on a slow tree is still recorded.
MAPPING_SCALE_BUDGET_S = 240.0

#: Sizes at which the multilevel sweep also records its placement cost
#: relative to the dense greedy+refine engine (quality gate: <= 1.05).
MAPPING_QUALITY_SIZES = (512, 2048, 4096)

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def engine_ring_events(
    core: str = "auto", *, traced: bool = False
) -> tuple[int, float]:
    """The ``test_engine_event_throughput`` workload, inline.

    Returns (events processed, wall-clock seconds). ``core`` selects the
    simulator core ("auto" resolves to the batched one). ``traced``
    attaches the full observability stack — metrics plus a ring trace
    with 1-in-16 busy sampling, the docs/OBSERVABILITY.md reference
    configuration — to measure tap overhead on the same workload.
    Machine construction is timed on purpose: the metric has always been
    end-to-end, so generations stay comparable.
    """
    from repro.sim import Compute, SimMachine, Touch, Wait
    from repro.topology import smp12e5
    from repro.util.bitmap import Bitmap

    t0 = time.perf_counter()
    machine = SimMachine(smp12e5(), core=core)
    if traced:
        from repro.sim.observe import RingTrace, SimObserver

        machine.attach_observer(SimObserver(
            trace=RingTrace(capacity=4096, sample={"busy": 16})
        ))
    bufs = [machine.allocate(1 << 16, f"b{i}") for i in range(32)]
    events = [machine.event(f"e{i}") for i in range(32)]

    def stage(i):
        nxt = events[(i + 1) % 32]
        for _ in range(50):
            yield Compute(1e4)
            yield Touch(bufs[i], 4096, write=True)
            nxt.signal()
            yield Wait(events[i])

    for i in range(32):
        machine.add_thread(f"s{i}", stage(i), cpuset=Bitmap.single(2 * i))
    events[0].signal()
    machine.run()
    return machine.engine.events_processed, time.perf_counter() - t0


def shard_smoke() -> dict:
    """Tiny 2-shard halo ring, workers=1 vs workers=2: one fingerprint.

    The cheapest end-to-end exercise of the conservative shard protocol
    — program build, epochs, message exchange, forked workers — with the
    determinism invariant as the pass criterion.
    """
    from repro.sim.shard import halo_ring_scenario, run_sharded

    sc = halo_ring_scenario(
        2, width=4, iters=2, flops=4e6, nbytes=1 << 13, latency=5e7
    )
    r1 = run_sharded(sc, workers=1)
    r2 = run_sharded(sc, workers=2)
    return {
        "fingerprint": r1.fingerprint,
        "match": r1.fingerprint == r2.fingerprint,
        "epochs": r1.epochs,
        "messages": r1.messages,
    }


def shard_scaling_probe() -> dict:
    """4-machine halo ring at 1/2/4 workers: invariance + wall clock.

    The fingerprint must be identical at every worker count — that gate
    is unconditional. The >= 2.5x speedup-at-4-workers gate only applies
    when the container actually exposes >= 4 CPUs; on a 1-CPU box the
    probe records the (necessarily ~1x) measurement plus the CPU count
    and marks the speedup gate skipped, so the record stays honest
    instead of encoding an impossible expectation.
    """
    from repro.sim.shard import available_cpus, halo_ring_scenario, run_sharded

    cpus = available_cpus()
    sc = halo_ring_scenario(
        4, width=192, iters=60, flops=2e8, nbytes=1 << 16, latency=1e9
    )
    entry: dict = {"cpus_available": cpus, "workers": {}}
    fingerprints = set()
    base = None
    for w in (1, 2, 4):
        r = run_sharded(sc, workers=w)
        fingerprints.add(r.fingerprint)
        entry["workers"][str(w)] = {
            "wall_seconds": round(r.wall_seconds, 3),
            "events": r.events_processed,
        }
        if w == 1:
            base = r.wall_seconds
        print(
            f"  shard_scaling workers={w}: {r.wall_seconds:.3f}s "
            f"({r.events_processed} events, {r.epochs} epochs)",
            flush=True,
        )
    entry["epochs"] = r.epochs
    entry["messages"] = r.messages
    entry["fingerprint_invariant"] = len(fingerprints) == 1
    w4 = entry["workers"]["4"]["wall_seconds"]
    entry["speedup_at_4"] = round(base / w4, 2) if w4 > 0 else None
    if cpus >= 4:
        entry["gate"] = (
            "pass" if (entry["speedup_at_4"] or 0) >= 2.5 else "FAIL (< 2.5x)"
        )
    else:
        entry["gate"] = (
            f"skipped ({cpus} cpu available; the speedup gate needs >= 4)"
        )
    return entry


def fig4_probe() -> dict:
    """Wall-clock of one quick-scale Fig. 4 sweep (no cache, one worker)."""
    from repro.experiments.figures import fig4_lk23
    from repro.experiments.runner import QUICK

    t0 = time.perf_counter()
    fig = fig4_lk23("SMP12E5", scale=QUICK, jobs=1, cache=False)
    dt = time.perf_counter() - t0
    return {
        "seconds": dt,
        "series": len(fig.series),
        "points": sum(len(s.y) for s in fig.series),
    }


def mapping_benchmarks() -> dict:
    """Time the TreeMatch placement engines on synthetic stencil matrices.

    Three benchmarks per thread count: ``group`` (the greedy grouping
    engine, arity 8), ``refine`` (the swap local search on the greedy
    result), and ``full_map`` (the whole Algorithm 1 pipeline on the
    SMP20E7 topology, oversubscription included). Deterministic — the
    stencil matrix has no randomness — so two runs on the same tree agree
    and before/after generations are directly comparable.
    """
    import numpy as np  # noqa: F401  (keeps the import cost out of the timing)

    from repro.topology import smp20e7
    from repro.treematch import (
        CommunicationMatrix,
        multilevel_map,
        treematch_map,
    )
    from repro.treematch.grouping import (
        group_greedy,
        intra_group_weight,
        refine_groups,
    )

    topo = smp20e7()
    out: dict = {}
    greedy_costs: dict[int, float] = {}

    def sweep(kind: str, run, *, sizes=MAPPING_SIZES,
              budget=MAPPING_BUDGET_S) -> None:
        entries: dict = {}
        over_budget = False
        for p in sizes:
            if over_budget:
                entries[str(p)] = {"skipped": True,
                                   "reason": f"budget {budget}s"}
                continue
            entry = run(p)
            entries[str(p)] = entry
            print(f"  mapping {kind} p={p}: {entry['seconds']:.3f}s",
                  flush=True)
            if entry["seconds"] > budget:
                over_budget = True
        out[kind] = entries

    def bench_group(p: int) -> dict:
        aff = CommunicationMatrix.stencil2d(p).affinity()
        t0 = time.perf_counter()
        groups = group_greedy(aff, 8)
        dt = time.perf_counter() - t0
        return {"seconds": dt,
                "intra_group_weight": intra_group_weight(aff, groups)}

    def bench_refine(p: int) -> dict:
        aff = CommunicationMatrix.stencil2d(p).affinity()
        groups = group_greedy(aff, 8)
        before = intra_group_weight(aff, groups)
        t0 = time.perf_counter()
        refined = refine_groups(aff, groups)
        dt = time.perf_counter() - t0
        return {"seconds": dt,
                "weight_before": before,
                "intra_group_weight": intra_group_weight(aff, refined)}

    def bench_full_map(p: int) -> dict:
        comm = CommunicationMatrix.stencil2d(p)
        t0 = time.perf_counter()
        pl = treematch_map(topo, comm)
        dt = time.perf_counter() - t0
        entry = {"seconds": dt,
                 "oversub_factor": pl.oversub_factor,
                 "threads_bound": len(pl.thread_to_pu)}
        if p in MAPPING_QUALITY_SIZES:
            cost = pl.cost(topo, comm)
            greedy_costs[p] = cost
            entry["cost"] = cost
        return entry

    def bench_multilevel(p: int) -> dict:
        comm = CommunicationMatrix.stencil2d(p)
        t0 = time.perf_counter()
        pl = multilevel_map(topo, comm)
        dt = time.perf_counter() - t0
        entry = {"seconds": dt,
                 "oversub_factor": pl.oversub_factor,
                 "threads_bound": len(pl.thread_to_pu)}
        if p in MAPPING_QUALITY_SIZES and greedy_costs.get(p):
            cost = pl.cost(topo, comm)
            entry["cost"] = cost
            entry["cost_vs_greedy"] = round(cost / greedy_costs[p], 4)
        return entry

    def bench_multilevel_scale(p: int) -> dict:
        # CSR end to end: build, affinity, coarsen, bisect — no O(p²)
        # array ever exists (dense would be 8 TB at 10^6 tasks).
        t0 = time.perf_counter()
        comm = CommunicationMatrix.stencil2d(p, sparse=True)
        build_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        pl = multilevel_map(topo, comm)
        dt = time.perf_counter() - t0
        return {"seconds": dt,
                "build_seconds": build_s,
                "sparse": comm.is_sparse,
                "nnz": comm.nnz,
                "oversub_factor": pl.oversub_factor,
                "threads_bound": len(pl.thread_to_pu)}

    sweep("group", bench_group)
    sweep("refine", bench_refine)
    sweep("full_map", bench_full_map)
    sweep("multilevel", bench_multilevel)
    sweep("multilevel_scale", bench_multilevel_scale,
          sizes=MAPPING_SCALE_SIZES, budget=MAPPING_SCALE_BUDGET_S)
    return out


def mapping_speedups(current: dict, previous: dict | None) -> dict:
    """Per-benchmark speedup vs. the previous generation (sizes in both)."""
    if not previous:
        return {}
    prev_bench = previous.get("mapping_bench")
    if not prev_bench:
        return {}
    speedups: dict = {}
    for kind, entries in current.items():
        prev_entries = prev_bench.get(kind, {})
        for size, entry in entries.items():
            prev = prev_entries.get(size)
            if (
                prev
                and not entry.get("skipped")
                and not prev.get("skipped")
                and entry.get("seconds")
            ):
                speedups.setdefault(kind, {})[size] = round(
                    prev["seconds"] / entry["seconds"], 2
                )
    return speedups


def pytest_benchmarks() -> dict:
    """Run the infra benchmarks under pytest-benchmark, distil the stats."""
    fd, json_path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    try:
        proc = subprocess.run(
            [
                sys.executable, "-m", "pytest", str(BENCH_FILE),
                "-q", f"--benchmark-json={json_path}",
            ],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            print(proc.stdout, file=sys.stderr)
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"benchmark run failed (exit {proc.returncode})")
        with open(json_path) as fh:
            data = json.load(fh)
    finally:
        try:
            os.unlink(json_path)
        except OSError:
            pass

    out = {}
    for bench in data.get("benchmarks", []):
        stats = bench.get("stats", {})
        out[bench["name"]] = {
            "mean_s": stats.get("mean"),
            "min_s": stats.get("min"),
            "rounds": stats.get("rounds"),
        }
    return out


def mapping_probe() -> tuple[int, float]:
    """Fixed mapping workload for the paired ``--check`` gate.

    One dense greedy+refine map (p=1024) plus one multilevel map
    (p=4096, auto-CSR) — together they cross every hot loop ISSUE 3 and
    ISSUE 7 optimized: ``group_greedy``, ``refine_groups``, coarsening,
    bisection, and the sparse matrix plumbing. Deterministic; returns
    ``(1, seconds)`` so it plugs into :func:`_paired_ratios`.
    """
    from repro.topology import smp20e7
    from repro.treematch import (
        CommunicationMatrix,
        multilevel_map,
        treematch_map,
    )

    topo = smp20e7()
    t0 = time.perf_counter()
    treematch_map(topo, CommunicationMatrix.stencil2d(1024))
    multilevel_map(topo, CommunicationMatrix.stencil2d(4096))
    return 1, time.perf_counter() - t0


def numpy_canary() -> tuple[int, float]:
    """Machine-speed canary paired against :func:`mapping_probe`.

    A fixed dense matmul whose wall-clock tracks the container's current
    compute throughput; the probe/canary time ratio cancels machine
    drift the same way the engine gates' paired ratios do.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 1024 * 1024).reshape(1024, 1024)
    t0 = time.perf_counter()
    (a @ a).sum()
    return 1, time.perf_counter() - t0


def adaptive_static_probe(declared: str) -> tuple[int, float]:
    """One static run of the phase-shift experiment, *virtual* seconds.

    Returns ``(1, simulated_seconds)`` so it plugs into
    :func:`_paired_ratios`. Virtual time is deterministic — the paired
    discipline here guards the *comparison shape* (and doubles as a
    determinism check: every pair must produce the same ratio), not
    machine drift.
    """
    from repro.experiments.adaptive import AdaptSetup, run_static

    return 1, run_static(declared, AdaptSetup(iters_per_phase=16))["seconds"]


def adaptive_adaptive_probe() -> tuple[int, float]:
    """One controller run of the phase-shift experiment, virtual seconds."""
    from repro.experiments.adaptive import AdaptSetup, run_adaptive

    return 1, run_adaptive(AdaptSetup(iters_per_phase=16))["seconds"]


def adaptive_best_static() -> str:
    """Which static declaration wins on the phase-shift workload."""
    from repro.experiments.adaptive import DECLARED, AdaptSetup, run_static

    setup = AdaptSetup(iters_per_phase=16)
    return min(
        ((run_static(d, setup)["seconds"], d) for d in DECLARED)
    )[1]


def adaptive_overhead_probe(controlled: bool) -> tuple[int, float]:
    """Phase-stable control program, wall-clock, with/without controller.

    Both sides run the *windowed* drain at the controller's window
    spacing — the per-epoch teardown/re-entry cost of ``run_window`` is
    the execution substrate's (the shard driver pays it with no
    controller in sight), so the baseline includes it and the ratio
    isolates what the controller itself adds: the telemetry tap, the
    window fold and the drift score. The controller performs zero
    remaps here (virtual time is bit-identical to the uncontrolled
    run), and the addition is gated at <= 5%.
    """
    from repro.affinity import AdaptiveController
    from repro.experiments.adaptive import (
        AdaptSetup,
        adapt_config,
        build_runtime,
        run_windowed,
    )

    setup = AdaptSetup(iters_per_phase=16, shift=False)
    t0 = time.perf_counter()
    if controlled:
        rt = build_runtime("stencil", setup)
        AdaptiveController.for_orwl(rt, config=adapt_config()).run()
    else:
        run_windowed("stencil", setup)
    return 1, time.perf_counter() - t0


def _paired_ratios(
    run_num, run_den, pairs: int, inner: int = 3
) -> tuple[list, float, float]:
    """Back-to-back pairs of two probes; per-pair ``dt_num / dt_den``.

    Machine-level drift (frequency scaling, noisy neighbours) moves both
    runs of a pair together and cancels in the ratio, where comparing
    two independently-measured rates — or worse, a rate measured now
    against one recorded on a different container — sees the drift as a
    regression. One untimed warmup pass of each side precedes the timed
    pairs so allocator/import/branch-predictor cold starts never land in
    pair #1, and each side of a pair is the best of *inner* back-to-back
    runs — scheduler interruptions only ever *add* time, so the min
    filters them symmetrically and the surviving ratio tracks the code,
    not the container. Returns (ratios, best num rate, best den rate).
    """
    run_den()
    run_num()
    ratios: list[float] = []
    rate_num = rate_den = 0.0
    for _ in range(pairs):
        ev_d, dt_d = min(
            (run_den() for _ in range(inner)), key=lambda r: r[1]
        )
        ev_n, dt_n = min(
            (run_num() for _ in range(inner)), key=lambda r: r[1]
        )
        if dt_d > 0 and dt_n > 0:
            ratios.append(dt_n / dt_d)
            rate_den = max(rate_den, ev_d / dt_d)
            rate_num = max(rate_num, ev_n / dt_n)
    return ratios, rate_num, rate_den


def _best_of(run, n: int) -> tuple[int, float]:
    """One warmup pass, then the fastest of *n* timed runs."""
    run()
    return min(run() for _ in range(n))


def run_check(
    tolerance: float = 0.3, pairs: int = 5, quick: bool = False
) -> int:
    """Floor check + paired-ratio regression gates.

    Every gate is *relative*, measured as the median of back-to-back
    per-pair ratios on this machine, right now, after an untimed warmup
    pass of each probe:

    1. absolute floor — the auto core must process more than
       ``ENGINE_EVENTS_FLOOR`` events (best-of-*pairs* after warmup);
    2. core gate — the batched core must stay genuinely faster than the
       object core. The required edge derives from the recorded
       ``batched_vs_object_speedup`` but is discounted 50% (and floored
       at 1.2x), so a generation recorded on a fast container can't
       fail a healthy run on a loaded one;
    3. observability gate — the fully tapped batched run (metrics +
       1-in-16 sampled busy tracing) must stay within *tolerance* of
       the untapped batched run; a median *negative* overhead is
       reported as an unstable measurement, not a win;
    4. shard gate — the 2-shard smoke's fingerprint must match between
       1 and 2 workers;
    5. the full check (not ``quick``) adds the shard scaling, mapping
       (probe vs numpy canary within 2x of the recorded ratio) and
       adaptive-remap gates.

    Recorded absolute rates in BENCH_sim.json (which have swung 40%
    between runs of the same code on the shared container) are never
    compared against directly.
    """
    import statistics

    pairs = 3 if quick else max(5, pairs)

    events, dt = _best_of(engine_ring_events, pairs)
    rate = events / dt if dt > 0 else float("inf")
    ok = events > ENGINE_EVENTS_FLOOR
    status = "ok" if ok else "FAIL"
    print(
        f"bench_repro --check: {events} engine events in {dt:.3f}s "
        f"({rate:,.0f} ev/s) — floor {ENGINE_EVENTS_FLOOR} [{status}]"
    )
    if not ok:
        return 1

    recorded = None
    recorded_speedup = None
    if OUT_PATH.exists():
        try:
            with open(OUT_PATH) as fh:
                recorded = json.load(fh)
            recorded_speedup = recorded.get("engine_batched", {}).get(
                "batched_vs_object_speedup"
            )
        except (OSError, ValueError, AttributeError):
            print("bench_repro --check: BENCH_sim.json unreadable — "
                  "recorded speedup unavailable")

    # Core gate: batched vs object, paired.
    ratios, rate_o, rate_b = _paired_ratios(
        lambda: engine_ring_events("object"),
        lambda: engine_ring_events("batched"),
        pairs,
    )
    speedup = statistics.median(ratios) if ratios else float("inf")
    required = 1.2
    if recorded_speedup:
        required = max(required, 1.0 + (recorded_speedup - 1.0) * 0.5)
    regressed = speedup < required
    verdict = "REGRESSION" if regressed else "ok"
    print(
        f"bench_repro --check: engine_batched {rate_b:,.0f} ev/s vs object "
        f"{rate_o:,.0f}, median paired speedup {speedup:.2f}x "
        f"(required >= {required:.2f}x"
        + (f", recorded {recorded_speedup:.2f}x" if recorded_speedup else "")
        + f") [{verdict}]"
    )
    if regressed:
        return 1

    # Observability gate: tapped vs untapped batched runs, paired,
    # interleaved in this same warmed process so both sides see the
    # same allocator and cache state.
    ratios, rate_t, rate_b = _paired_ratios(
        lambda: engine_ring_events("batched", traced=True),
        lambda: engine_ring_events("batched"),
        max(pairs, 5),
    )
    overhead = statistics.median(ratios) - 1.0 if ratios else 0.0
    traced_regressed = overhead > tolerance
    unstable = overhead < 0.0
    verdict = "REGRESSION" if traced_regressed else (
        "ok, UNSTABLE measurement" if unstable else "ok"
    )
    print(
        f"bench_repro --check: engine_ring_traced {rate_t:,.0f} ev/s vs "
        f"untapped {rate_b:,.0f}, median paired overhead {overhead:+.1%} "
        f"(allowed <= {tolerance:.0%}) [{verdict}]"
    )
    if unstable:
        print(
            "bench_repro --check: taps measuring faster than no taps is "
            "noise, not speedup — treat the overhead number as unreliable"
        )
    if traced_regressed:
        return 1

    # Shard gate: the conservative protocol's determinism invariant on
    # the cheapest real scenario.
    smoke = shard_smoke()
    verdict = "ok" if smoke["match"] else "FAIL"
    print(
        f"bench_repro --check: shard smoke fingerprint "
        f"{smoke['fingerprint'][:16]} ({smoke['epochs']} epochs, "
        f"{smoke['messages']} msgs), workers 1 vs 2 "
        f"{'match' if smoke['match'] else 'MISMATCH'} [{verdict}]"
    )
    if not smoke["match"]:
        return 1

    if quick:
        print("bench_repro --check: shard scaling + mapping + "
              "adaptive_remap gates skipped (--quick)")
        return 0

    # Shard scaling gate: on a box with >= 4 CPUs the 4-machine halo
    # ring must actually go >= 2.5x faster at 4 workers — honest
    # multi-worker scaling, enforced, not just recorded. On a smaller
    # box the probe is skipped with the CPU count in the message (the
    # full run_full record keeps the same skip reason).
    from repro.sim.shard import available_cpus

    cpus = available_cpus()
    if cpus >= 4:
        scaling = shard_scaling_probe()
        gate = scaling.get("gate", "")
        verdict = "ok" if gate == "pass" else "REGRESSION"
        print(
            f"bench_repro --check: shard scaling speedup at 4 workers "
            f"{scaling.get('speedup_at_4')}x on {cpus} cpus "
            f"(required >= 2.5x) [{verdict}]"
        )
        if gate != "pass":
            return 1
    else:
        print(
            f"bench_repro --check: shard scaling gate skipped "
            f"({cpus} cpu available; the speedup gate needs >= 4)"
        )

    # Mapping gate: probe vs numpy canary, paired — same discipline as
    # the engine gates. The recorded ratio gets 2x headroom (cache state
    # and BLAS threading move the two sides differently on the shared
    # container); without a recorded ratio the result is informational.
    recorded_ratio = None
    if isinstance(recorded, dict):
        recorded_ratio = recorded.get("mapping_check", {}).get(
            "probe_vs_canary_ratio"
        )
    ratios, _, _ = _paired_ratios(mapping_probe, numpy_canary, pairs)
    ratio = statistics.median(ratios) if ratios else float("inf")
    if recorded_ratio:
        allowed = recorded_ratio * 2.0
        map_regressed = ratio > allowed
        verdict = "REGRESSION" if map_regressed else "ok"
        print(
            f"bench_repro --check: mapping probe/canary ratio {ratio:.2f} "
            f"(recorded {recorded_ratio:.2f}, allowed <= {allowed:.2f}) "
            f"[{verdict}]"
        )
        if map_regressed:
            return 1
    else:
        print(
            f"bench_repro --check: mapping probe/canary ratio {ratio:.2f} "
            f"(no recorded ratio — informational)"
        )

    # Adaptive speedup gate: on the phase-shift workload the controller
    # must beat the best static placement by >= 1.1x in *virtual*
    # (simulated) seconds — deterministic, so every pair must also agree
    # on the ratio exactly.
    best = adaptive_best_static()
    ratios, _, _ = _paired_ratios(
        lambda: adaptive_static_probe(best),
        adaptive_adaptive_probe,
        3, inner=1,
    )
    adapt_speedup = statistics.median(ratios) if ratios else 0.0
    nondet = len(set(round(r, 12) for r in ratios)) > 1
    adapt_regressed = adapt_speedup < 1.1 or nondet
    verdict = "REGRESSION" if adapt_regressed else "ok"
    print(
        f"bench_repro --check: adaptive_remap phase-shift speedup "
        f"{adapt_speedup:.2f}x vs best static ({best}) in virtual time "
        f"(required >= 1.10x, deterministic"
        + (", NONDETERMINISTIC" if nondet else "")
        + f") [{verdict}]"
    )
    if adapt_regressed:
        return 1

    # Adaptive overhead gate: on the phase-stable control program the
    # controller does nothing (zero remaps, bit-identical virtual time),
    # so what it adds over the uncontrolled *windowed* baseline — the
    # telemetry tap, the window fold and the drift score — must stay
    # within 5%. Gate on the ratio of best-observed runs, not the
    # median: scheduler noise is strictly additive and this probe's
    # true delta (~3%) sits below the per-run noise floor of a busy
    # container, where a median over 5 pairs still flakes. The medians
    # are printed for the record; a median below 1.0 marks the
    # measurement unstable.
    ratios, rate_ctl, rate_base = _paired_ratios(
        lambda: adaptive_overhead_probe(True),
        lambda: adaptive_overhead_probe(False),
        max(pairs, 5),
    )
    adapt_overhead = rate_base / rate_ctl - 1.0 if rate_ctl > 0 else 0.0
    med = statistics.median(ratios) - 1.0 if ratios else 0.0
    overhead_regressed = adapt_overhead > 0.05
    unstable = med < 0.0
    verdict = "REGRESSION" if overhead_regressed else (
        "ok, UNSTABLE measurement" if unstable else "ok"
    )
    print(
        f"bench_repro --check: adaptive_remap phase-stable controller "
        f"overhead {adapt_overhead:+.1%} wall-clock best-of "
        f"(median {med:+.1%}, allowed <= 5%) [{verdict}]"
    )
    if overhead_regressed:
        return 1
    return 0


def run_full() -> int:
    previous = None
    if OUT_PATH.exists():
        try:
            with open(OUT_PATH) as fh:
                previous = json.load(fh)
            previous.pop("previous", None)  # keep exactly one generation back
        except (OSError, ValueError):
            previous = None

    import statistics

    print("running pytest-benchmark suite ...", flush=True)
    benches = pytest_benchmarks()
    print("running engine ring probe ...", flush=True)
    # Warmup + best-of-5: the headline regression-gate number;
    # single-core CI boxes jitter 10-20% and only the fastest run
    # reflects the code.
    events, dt = _best_of(engine_ring_events, 5)
    print("running batched-vs-object core probe ...", flush=True)
    ev_b, dt_b = _best_of(lambda: engine_ring_events("batched"), 5)
    ev_o, dt_o = _best_of(lambda: engine_ring_events("object"), 5)
    print("running ring-traced observability probe ...", flush=True)
    traced_pairs, _, _ = _paired_ratios(
        lambda: engine_ring_events("batched", traced=True),
        lambda: engine_ring_events("batched"),
        7,
    )
    traced_overhead = (
        round(statistics.median(traced_pairs), 3) if traced_pairs else None
    )
    ev_t, dt_t = _best_of(
        lambda: engine_ring_events("batched", traced=True), 5
    )
    print("running shard scaling probe ...", flush=True)
    shard_scaling = shard_scaling_probe()
    print("running quick-scale Fig. 4 probe ...", flush=True)
    probe = fig4_probe()
    print("running mapping benchmarks ...", flush=True)
    mapping = mapping_benchmarks()
    print("running mapping probe/canary pairs ...", flush=True)
    map_ratios, _, _ = _paired_ratios(mapping_probe, numpy_canary, 5)
    map_ratio = (
        round(statistics.median(map_ratios), 3) if map_ratios else None
    )
    print("running adaptive remap experiment ...", flush=True)
    from repro.experiments.adaptive import AdaptSetup, run_experiment

    adapt_report = run_experiment(AdaptSetup(iters_per_phase=16))
    adapt_oh_pairs, oh_rate_ctl, oh_rate_base = _paired_ratios(
        lambda: adaptive_overhead_probe(True),
        lambda: adaptive_overhead_probe(False),
        5,
    )
    # Best-of ratio (same estimator the --check gate uses) plus the
    # median for the record.
    adapt_overhead = (
        round(oh_rate_base / oh_rate_ctl - 1.0, 3) if oh_rate_ctl > 0 else None
    )
    adapt_overhead_median = (
        round(statistics.median(adapt_oh_pairs) - 1.0, 3)
        if adapt_oh_pairs else None
    )

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "engine_ring": {
            "events": events,
            "seconds": dt,
            "events_per_second": events / dt if dt > 0 else None,
        },
        "engine_batched": {
            "batched_events_per_second": ev_b / dt_b if dt_b > 0 else None,
            "object_events_per_second": ev_o / dt_o if dt_o > 0 else None,
            "batched_vs_object_speedup": (
                round(dt_o / dt_b, 2) if dt_b > 0 else None
            ),
            "events": ev_b,
        },
        "engine_ring_traced": {
            "events": ev_t,
            "seconds": dt_t,
            "events_per_second": ev_t / dt_t if dt_t > 0 else None,
            # Median paired (interleaved same-process) time ratio; the
            # old best-vs-best comparison once recorded taps as 25%
            # *faster*, which is noise. A ratio below 1.0 is flagged
            # unstable rather than reported as a win.
            "overhead_vs_batched": traced_overhead,
            "unstable": (
                traced_overhead is not None and traced_overhead < 1.0
            ),
        },
        "shard_scaling": shard_scaling,
        "pytest_benchmarks": benches,
        "fig4_quick_probe": probe,
        "mapping_bench": mapping,
        "mapping_check": {"probe_vs_canary_ratio": map_ratio},
        "adaptive_remap": {
            # Virtual-time (deterministic) phase-shift comparison; the
            # --check gate requires speedup >= 1.1x over the best static.
            "statics_seconds": adapt_report["statics"],
            "adaptive_seconds": adapt_report["adaptive_seconds"],
            "best_static": adapt_report["best_static"],
            "speedup_vs_best_static": round(adapt_report["speedup"], 3),
            "remaps": adapt_report["remaps"],
            "windows": adapt_report["windows"],
            # Wall-clock controller cost over the uncontrolled windowed
            # baseline on the phase-stable control program (zero remaps;
            # gate <= 5% on the best-of ratio). A negative median =
            # unstable measurement, not a win.
            "stable_overhead_wall": adapt_overhead,
            "stable_overhead_wall_median": adapt_overhead_median,
            "stable_overhead_unstable": (
                adapt_overhead_median is not None
                and adapt_overhead_median < 0.0
            ),
        },
    }
    speedups = mapping_speedups(mapping, previous)
    if speedups:
        record["mapping_speedup_vs_previous"] = speedups
    if previous is not None:
        # Only what this tree still measures: a probe whose code is gone
        # has nothing left to compare against.
        record["previous"] = {
            k: v for k, v in previous.items() if k in record
        }

    with open(OUT_PATH, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {OUT_PATH}")
    print(json.dumps({k: v for k, v in record.items() if k != "previous"},
                     indent=1))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="fast engine-throughput floor + regression check "
             "(no pytest, no JSON write)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.3, metavar="FRAC",
        help="allowed tapped-vs-untapped overhead before --check fails "
             "(default 0.3; honest interleaved overhead is ~15-20%%)",
    )
    parser.add_argument(
        "--pairs", type=int, default=5, metavar="N",
        help="interleaved measurement pairs per --check gate "
             "(default 5, minimum 5; --quick forces 3)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="with --check: 3 pairs and no mapping gate — a <10s smoke "
             "for lint preflight",
    )
    args = parser.parse_args(argv)
    if args.check:
        return run_check(args.tolerance, pairs=args.pairs, quick=args.quick)
    if args.quick:
        parser.error("--quick only applies to --check")
    return run_full()


if __name__ == "__main__":
    raise SystemExit(main())
