#!/usr/bin/env python3
"""Benchmark the simulator substrate, gate regressions, record the results.

Every gated probe is one row of :data:`ROWS`, measured by one runner,
:func:`_paired_ratios`. Gates compare ratios measured on this machine
right now, never recorded absolute rates: those swing tens of percent
between runs of the same code on a shared container.

``python scripts/bench_repro.py --check [--quick]``
    Walks the rows in order and exits 1 at the first failing gate;
    ``--quick`` runs only the rows with a quick pair count (the lint
    preflight's smoke). ``regenerate_all.py`` runs the full check before
    spending minutes on figures.

``python scripts/bench_repro.py``
    Walks the same rows (printing verdicts, failing none), then the
    record-only probes of :data:`RECORD_ONLY`, and writes everything to
    ``BENCH_sim.json``. The measurements it replaces rotate into the
    ``previous`` key, so running it on the old tree and then on the new
    one leaves a before/after record in one file.

Both modes read the committed ``BENCH_sim.json`` before any probe runs;
one that exists but is malformed exits 2, naming the file and key.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_FILE = ROOT / "benchmarks" / "test_infra_simulator_throughput.py"
OUT_PATH = ROOT / "BENCH_sim.json"

#: Floor asserted by ``test_engine_event_throughput`` (events per run).
ENGINE_EVENTS_FLOOR = 2_000

#: Allowed median paired overhead of the fully tapped engine ring. The
#: honest interleaved measurement puts the true tap cost at ~15-20%.
TAP_TOLERANCE = 0.30

#: Appended to a gate line whose median says the probe got *cheaper*:
#: that is noise, not a speedup, so the number is unreliable.
UNSTABLE = "; UNSTABLE measurement"

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
    core: str = "batched", *, traced: bool = False
) -> tuple[int, float]:
    """The ``test_engine_event_throughput`` workload, inline.

    Returns (events processed, wall-clock seconds). ``core`` selects the
    simulator core (batched by default). ``traced``
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


def mapping_speedups(current: dict, previous: dict) -> dict:
    """Per-benchmark speedup vs. the previous generation (sizes timed in
    both; a skipped size has no ``seconds``)."""
    prev_bench = previous.get("mapping_bench", {})
    speedups: dict = {}
    for kind, entries in current.items():
        for size, entry in entries.items():
            prev = prev_bench.get(kind, {}).get(size, {})
            if entry.get("seconds") and prev.get("seconds"):
                speedups.setdefault(kind, {})[size] = round(
                    prev["seconds"] / entry["seconds"], 2
                )
    return speedups


def pytest_benchmarks() -> dict:
    """Run the infra benchmarks under pytest-benchmark, distil the stats."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "benchmarks.json"
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
        data = json.loads(json_path.read_text())

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


def adaptive_static_probe() -> tuple[dict, float]:
    """Every static run of the phase-shift experiment, *virtual* seconds.

    Returns ``({declaration: seconds}, best seconds)`` — the best static
    placement is the side the controller is paired against. Virtual time
    is deterministic: the paired discipline here guards the *comparison
    shape* (and doubles as a determinism check: every pair must produce
    the same ratio), not machine drift.
    """
    from repro.experiments.adaptive import DECLARED, AdaptSetup, run_static

    setup = AdaptSetup(iters_per_phase=16)
    statics = {d: run_static(d, setup)["seconds"] for d in DECLARED}
    return statics, min(statics.values())


def adaptive_adaptive_probe() -> tuple[dict, float]:
    """One controller run of the phase-shift experiment, virtual seconds,
    with its remap decisions (the runtime itself is not kept alive)."""
    from repro.experiments.adaptive import AdaptSetup, run_adaptive

    r = run_adaptive(AdaptSetup(iters_per_phase=16))
    return {"remaps": r["remaps"], "windows": r["windows"]}, r["seconds"]


def adaptive_overhead_probe(controlled: bool) -> tuple[int, float]:
    """Phase-stable control program, wall-clock, with/without controller.

    Both sides run the *windowed* drain at the controller's window
    spacing — the per-epoch teardown/re-entry cost of ``run_window`` is
    paid by any windowed loop, so the uncontrolled baseline
    (``run_windowed``) pays it too and the ratio isolates what the
    controller itself adds: the telemetry tap, the window fold and the
    drift score. The controller performs zero
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


def _paired_ratios(run_num, run_den, pairs: int, inner: int) -> tuple:
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
    not the container. Returns (ratios, fastest num run, fastest den
    run), each run a probe's ``(work, seconds)``. With *run_den* None
    this is the unpaired case: no ratios, and None for the den run.
    """
    sides = (run_den, run_num) if run_den else (run_num,)
    for run in sides:
        run()
    runs = [
        [min((run() for _ in range(inner)), key=itemgetter(1))
         for run in sides]
        for _ in range(pairs)
    ]
    ratios = [num[1] / den[1] for den, num in runs] if run_den else []
    fastest = [min(side, key=itemgetter(1)) for side in zip(*runs)]
    return ratios, fastest[-1], fastest[0] if run_den else None


class Verdict(NamedTuple):
    """A gate's outcome, its report line and the row's recorded fields."""

    ok: bool
    text: str
    fields: dict


class Row(NamedTuple):
    """One probe of the table and its gate.

    The per-pair ratio is ``probe`` time over ``against`` time (unpaired
    without ``against``). ``quick_pairs`` replaces ``pairs`` under
    ``--quick``; None skips the row there. ``gate(ratios, num, den,
    recorded)`` gets :func:`_paired_ratios`' result and the committed
    value of the ``key`` section's ``recorded`` field.
    """

    key: str
    probe: Callable[[], tuple]
    against: Callable[[], tuple] | None
    pairs: int
    quick_pairs: int | None
    inner: int
    gate: Callable[..., Verdict]
    recorded: str | None = None


def _floor_gate(ratios, num, den, recorded: float | None) -> Verdict:
    events, dt = num
    return Verdict(
        events > ENGINE_EVENTS_FLOOR,
        f"{events} engine events in {dt:.3f}s ({events / dt:,.0f} ev/s) "
        f"— floor {ENGINE_EVENTS_FLOOR}",
        {"events": events, "seconds": dt, "events_per_second": events / dt},
    )


def _core_gate(ratios, num, den, recorded: float | None) -> Verdict:
    # The batched core must keep a real edge over the object core. The
    # required edge is the recorded speedup discounted 50% and floored at
    # 1.2x, so a generation recorded on a fast container can't fail a
    # healthy run on a loaded one.
    (ev_o, dt_o), (ev_b, dt_b) = num, den
    speedup = statistics.median(ratios)
    required = max(1.2, 1.0 + (recorded - 1.0) * 0.5) if recorded else 1.2
    return Verdict(
        speedup >= required,
        f"engine_batched {ev_b / dt_b:,.0f} ev/s vs object "
        f"{ev_o / dt_o:,.0f}, median paired speedup {speedup:.2f}x "
        f"(required >= {required:.2f}x"
        + (f", recorded {recorded:.2f}x" if recorded else "") + ")",
        {"batched_events_per_second": ev_b / dt_b,
         "object_events_per_second": ev_o / dt_o,
         "batched_vs_object_speedup": round(speedup, 2),
         "events": ev_b},
    )


def _tap_gate(ratios, num, den, recorded: float | None) -> Verdict:
    # Tapped and untapped runs interleave in one warmed process, so both
    # sides see the same allocator and cache state. The old best-vs-best
    # comparison once recorded taps as 25% *faster*: a median ratio below
    # 1.0 is noise, flagged unstable rather than reported as a win.
    (ev_t, dt_t), (ev_b, dt_b) = num, den
    ratio = statistics.median(ratios)
    return Verdict(
        ratio - 1.0 <= TAP_TOLERANCE,
        f"engine_ring_traced {ev_t / dt_t:,.0f} ev/s vs untapped "
        f"{ev_b / dt_b:,.0f}, median paired overhead {ratio - 1.0:+.1%} "
        f"(allowed <= {TAP_TOLERANCE:.0%}{UNSTABLE * (ratio < 1.0)})",
        {"events": ev_t, "seconds": dt_t, "events_per_second": ev_t / dt_t,
         "overhead_vs_batched": round(ratio, 3), "unstable": ratio < 1.0},
    )


def _mapping_gate(ratios, num, den, recorded: float | None) -> Verdict:
    # The recorded probe/canary ratio gets 2x headroom: cache state and
    # BLAS threading move the two sides differently on a shared
    # container. Without a recorded ratio the result is informational.
    ratio = statistics.median(ratios)
    bound = (f"recorded {recorded:.2f}, allowed <= {2.0 * recorded:.2f}"
             if recorded else "no recorded ratio — informational")
    return Verdict(
        not recorded or ratio <= 2.0 * recorded,
        f"mapping probe/canary ratio {ratio:.2f} ({bound})",
        {"probe_vs_canary_ratio": round(ratio, 3)},
    )


def _phase_shift_gate(ratios, num, den, recorded: float | None) -> Verdict:
    # On the phase-shift workload the controller must beat the best
    # static placement by >= 1.1x in *virtual* seconds — deterministic,
    # so every pair must also agree on the ratio exactly.
    statics, (adaptive, adaptive_s) = num[0], den
    best = min(statics, key=statics.get)
    speedup = statistics.median(ratios)
    nondet = len({round(r, 12) for r in ratios}) > 1
    return Verdict(
        speedup >= 1.1 and not nondet,
        f"adaptive_remap phase-shift speedup {speedup:.2f}x vs best static "
        f"({best}) in virtual time (required >= 1.10x, deterministic"
        + (", NONDETERMINISTIC" if nondet else "") + ")",
        {"statics_seconds": statics,
         "adaptive_seconds": adaptive_s,
         "best_static": best,
         "speedup_vs_best_static": round(speedup, 3),
         "remaps": adaptive["remaps"],
         "windows": adaptive["windows"]},
    )


def _phase_stable_gate(ratios, num, den, recorded: float | None) -> Verdict:
    # On the phase-stable control program the controller does nothing
    # (zero remaps, bit-identical virtual time), so what it adds over the
    # uncontrolled windowed baseline must stay within 5%. The gate is the
    # ratio of best-observed runs, not the median: scheduler noise is
    # strictly additive and this probe's true delta (~3%) sits below the
    # per-run noise floor of a busy container, where a median over 5
    # pairs still flakes. The median is reported; below 1.0 it marks the
    # measurement unstable.
    overhead = num[1] / den[1] - 1.0
    median = statistics.median(ratios) - 1.0
    return Verdict(
        overhead <= 0.05,
        f"adaptive_remap phase-stable controller overhead {overhead:+.1%} "
        f"wall-clock best-of (median {median:+.1%}, allowed <= 5%"
        f"{UNSTABLE * (median < 0.0)})",
        {"stable_overhead_wall": round(overhead, 3),
         "stable_overhead_wall_median": round(median, 3),
         "stable_overhead_unstable": median < 0.0},
    )


#: The probe table, in gate order. ``--check`` stops at the first failing
#: gate; full mode measures every row and merges each row's fields into
#: its ``BENCH_sim.json`` section. The two ``adaptive_remap`` rows share
#: one: both run the adaptive controller's ``run_window`` epochs.
ROWS = (
    #   key, probe, against, pairs, quick_pairs, inner, gate
    Row("engine_ring", engine_ring_events, None, 5, 3, 1, _floor_gate),
    Row("engine_batched", lambda: engine_ring_events("object"),
        engine_ring_events, 5, 3, 3, _core_gate,
        recorded="batched_vs_object_speedup"),
    Row("engine_ring_traced", lambda: engine_ring_events(traced=True),
        engine_ring_events, 5, 5, 3, _tap_gate),
    Row("mapping_check", mapping_probe, numpy_canary, 5, None, 3,
        _mapping_gate, recorded="probe_vs_canary_ratio"),
    Row("adaptive_remap", adaptive_static_probe, adaptive_adaptive_probe,
        3, None, 1, _phase_shift_gate),
    Row("adaptive_remap", lambda: adaptive_overhead_probe(True),
        lambda: adaptive_overhead_probe(False), 5, None, 3,
        _phase_stable_gate),
)

#: Probes full mode records without a gate: (BENCH_sim.json key, probe).
RECORD_ONLY = (
    ("pytest_benchmarks", pytest_benchmarks),
    ("fig4_quick_probe", fig4_probe),
    ("mapping_bench", mapping_benchmarks),
)


class RecordError(Exception):
    """The committed BENCH_sim.json exists but cannot be used."""


def read_record() -> dict:
    """The committed record, checked wherever this script reads it.

    A missing file reads as an empty record: no recorded bounds and no
    previous generation. Invalid JSON, a section that is not an object,
    or a number this script reads that is not positive and finite (or
    null) raises :class:`RecordError` naming the file and key.
    """
    try:
        record = json.loads(OUT_PATH.read_text())
    except FileNotFoundError:
        return {}
    except (OSError, ValueError) as exc:
        raise RecordError(f"{OUT_PATH}: unreadable JSON: {exc}") from None

    def section(value, where: str) -> dict:
        if not isinstance(value, dict):
            raise RecordError(f"{OUT_PATH}: {where} must be a JSON object, "
                              f"got {type(value).__name__}")
        return value

    def number(value, where: str) -> None:
        # type(), not isinstance(): a JSON true is not a number here.
        if value is not None and (type(value) not in (int, float)
                                  or not 0 < value < math.inf):
            raise RecordError(f"{OUT_PATH}: {where} must be a positive "
                              f"number or null, got {value!r}")

    for key, value in section(record, "the top level").items():
        if key != "timestamp":
            section(value, key)
    for row in ROWS:  # number(None) passes: rows without a recorded field
        number(record.get(row.key, {}).get(row.recorded),
               f"{row.key}.{row.recorded}")
    for kind, entries in record.get("mapping_bench", {}).items():
        for size, entry in section(entries, f"mapping_bench.{kind}").items():
            where = f"mapping_bench.{kind}.{size}"
            number(section(entry, where).get("seconds"), f"{where}.seconds")
    return record


def _measure(row: Row, pairs: int, record: dict, prefix: str) -> Verdict:
    """Run *row* with *pairs* pairs, apply its gate, print the verdict."""
    recorded = record.get(row.key, {}).get(row.recorded)
    verdict = row.gate(
        *_paired_ratios(row.probe, row.against, pairs, row.inner), recorded
    )
    print(f"{prefix}{verdict.text} [{'ok' if verdict.ok else 'FAIL'}]",
          flush=True)
    return verdict


def run_check(record: dict, quick: bool = False) -> int:
    """Walk :data:`ROWS` and apply each gate; 1 at the first failure."""
    rows = [row for row in ROWS if not quick or row.quick_pairs]
    for row in rows:
        pairs = row.quick_pairs if quick else row.pairs
        if not _measure(row, pairs, record, "bench_repro --check: ").ok:
            return 1
    if quick:
        skipped = dict.fromkeys(row.key for row in ROWS if row not in rows)
        print(f"bench_repro --check: {', '.join(skipped)} gates skipped "
              "(--quick)")
    return 0


def run_full(previous: dict) -> int:
    """Measure every row and record-only probe into ``BENCH_sim.json``."""
    record: dict = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    for row in ROWS:
        verdict = _measure(row, row.pairs, previous, "bench_repro: ")
        record.setdefault(row.key, {}).update(verdict.fields)
    for key, probe in RECORD_ONLY:
        print(f"bench_repro: running {key} ...", flush=True)
        record[key] = probe()
    speedups = mapping_speedups(record["mapping_bench"], previous)
    if speedups:
        record["mapping_speedup_vs_previous"] = speedups
    if previous:
        # One generation back, and only what this tree still measures: a
        # probe whose code is gone has nothing left to compare against.
        record["previous"] = {
            k: v for k, v in previous.items() if k in record
        }

    OUT_PATH.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {OUT_PATH}")
    print(json.dumps({k: v for k, v in record.items() if k != "previous"},
                     indent=1))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="walk the probe table and exit 1 at the first failing gate "
             "(no pytest, no JSON write)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="with --check: only the rows with a quick pair count — a "
             "smoke of a few seconds for lint preflight",
    )
    args = parser.parse_args(argv)
    if args.quick and not args.check:
        parser.error("--quick only applies to --check")
    try:
        record = read_record()
    except RecordError as exc:
        print(f"bench_repro: {exc}", file=sys.stderr)
        return 2
    return run_check(record, args.quick) if args.check else run_full(record)


if __name__ == "__main__":
    raise SystemExit(main())
