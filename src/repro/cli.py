"""Command-line interface: inspect machines, regenerate experiments.

Installed as ``repro-paper`` (see pyproject.toml)::

    repro-paper machines                     # list machine presets
    repro-paper topology SMP12E5             # lstopo-style dump
    repro-paper fig 4 --machine SMP20E7      # regenerate a figure
    repro-paper fig 5 --jobs 4               # fan cells out over 4 processes
    repro-paper table 2 --no-cache           # bypass the on-disk result cache
    repro-paper comm-matrix                  # Fig. 1 ASCII rendering
    repro-paper allocation                   # Fig. 2 placement
    repro-paper map --machine SMP20E7 --threads 4096   # TreeMatch placement
    repro-paper lint lk23 --dynamic          # static + dynamic verifier
    repro-paper lint --all --json            # machine-readable findings
    repro-paper trace lk23 --out trace.json  # Chrome trace_event export

Scale selection follows ``REPRO_SCALE`` (quick | paper); worker count
defaults to ``REPRO_JOBS`` and cache behaviour to ``REPRO_CACHE`` /
``REPRO_CACHE_DIR`` (see docs/API.md).

Exit codes: 0 success, 2 usage/runtime error, 3 when ``lint`` reports
at least one error-level finding.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-paper",
        description=(
            "Reproduction harness for 'Automatic, Abstracted and Portable "
            "Topology-Aware Thread Placement' (IEEE CLUSTER 2017)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mach = sub.add_parser("machines", help="list machine presets")
    p_mach.add_argument("--json", action="store_true",
                        help="emit machine facts as JSON")

    p_topo = sub.add_parser("topology", help="print a machine's topology tree")
    p_topo.add_argument("machine", help="preset name, e.g. SMP12E5")
    p_topo.add_argument("--depth", type=int, default=None,
                        help="limit the printed depth")

    p_fig = sub.add_parser("fig", help="regenerate a figure (1, 2, 4, 5, 6)")
    p_fig.add_argument("number", type=int, choices=(1, 2, 4, 5, 6))
    p_fig.add_argument("--machine", default=None,
                       help="machine preset (figures 4-6)")
    p_fig.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: REPRO_JOBS or 1; "
                            "0 = one per CPU)")
    p_fig.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache")

    p_tab = sub.add_parser("table", help="regenerate a table (1, 2, 3, 4)")
    p_tab.add_argument("number", type=int, choices=(1, 2, 3, 4))
    p_tab.add_argument("--json", action="store_true",
                       help="emit table rows as JSON")
    p_tab.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: REPRO_JOBS or 1; "
                            "0 = one per CPU)")
    p_tab.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache")

    p_map = sub.add_parser(
        "map",
        help="run the TreeMatch placement engine on a synthetic pattern",
    )
    p_map.add_argument("--machine", default="SMP20E7",
                       help="machine preset (default: SMP20E7)")
    p_map.add_argument("--threads", type=int, default=64,
                       help="number of compute threads (default: 64); "
                            "counts beyond the machine's capacity are "
                            "oversubscribed via a virtual tree level")
    p_map.add_argument("--pattern", choices=("stencil", "ring"),
                       default="stencil",
                       help="synthetic communication pattern (default: "
                            "stencil = 2-D 5-point halo exchange)")
    p_map.add_argument("--engine", choices=("optimal", "greedy"), default=None,
                       help="pin the grouping engine of the greedy "
                            "strategy (default: size-based)")
    p_map.add_argument("--no-refine", action="store_true",
                       help="skip the swap-refinement pass after grouping "
                            "(greedy strategy only)")
    p_map.add_argument("--strategy", choices=("auto", "greedy", "multilevel"),
                       default="auto",
                       help="mapping engine: greedy = bottom-up group+refine, "
                            "multilevel = coarsening + recursive bisection "
                            "for very large task counts (default: auto = "
                            "cut over by task count)")
    p_map.add_argument("--json", action="store_true",
                       help="emit the placement and costs as JSON")

    p_adapt = sub.add_parser(
        "adapt",
        help="adaptive-remapping experiment: phase-shift vs static placements",
    )
    p_adapt.add_argument(
        "app", nargs="?", default="phase-shift",
        choices=("phase-shift", "phase-stable"),
        help="phase-shift = stencil->transpose->reduce workload (default); "
             "phase-stable = control program on which the controller must "
             "stay quiet",
    )
    p_adapt.add_argument("--ipp", type=int, default=None,
                         help="iterations per phase (default 24)")
    p_adapt.add_argument("--json", action="store_true",
                         help="emit the full report as JSON")

    sub.add_parser("comm-matrix", help="Fig. 1 communication matrix (ASCII)")
    sub.add_parser("allocation", help="Fig. 2 task allocation")
    sub.add_parser("dfg", help="Fig. 3 data-flow graph of the video app (DOT)")

    p_lint = sub.add_parser(
        "lint",
        help="static deadlock/race/placement verifier (see docs/ANALYZE.md)",
    )
    p_lint.add_argument("app", nargs="?", default=None,
                        help="application to analyze (lk23, matmul, video)")
    p_lint.add_argument("--all", action="store_true",
                        help="analyze every registered application")
    p_lint.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    p_lint.add_argument("--dynamic", action="store_true",
                        help="cross-check against a monitored execution")
    p_lint.add_argument("--hb", action="store_true",
                        help="surface happens-before verdicts: ORDERED "
                             "lockset pairs become race-ordered notes and "
                             "the replay summary is printed")
    p_lint.add_argument("--sanitize", action="store_true",
                        help="run the dynamic cross-check under the "
                             "SimSanitizer's checked-mode invariants "
                             "(implies --dynamic)")
    p_lint.add_argument("--hotlint", action="store_true",
                        help="also lint the simulator's hot loops for "
                             "per-event allocations and unguarded taps "
                             "(no app name needed)")
    p_lint.add_argument("--sarif", action="store_true",
                        help="emit findings as a SARIF 2.1 log")

    p_trace = sub.add_parser(
        "trace",
        help="run an app with the ring trace and export Chrome trace_event "
             "JSON (see docs/OBSERVABILITY.md)",
    )
    p_trace.add_argument("app",
                         help="application to trace (lk23, matmul, video)")
    p_trace.add_argument("--out", default=None,
                         help="output file (default: JSON to stdout)")
    p_trace.add_argument("--capacity", type=int, default=65536,
                         help="ring-buffer capacity in records "
                              "(default: 65536)")
    p_trace.add_argument("--sample-busy", type=int, default=16,
                         help="keep 1-in-N busy-completion records "
                              "(0 drops them, 1 keeps all; default: 16)")
    p_trace.add_argument("--core", default="batched",
                         help="simulator core: batched (default) or "
                              "object")
    return parser


def _cmd_machines(as_json: bool = False) -> str:
    from repro.topology import list_machines, machine_by_name

    if as_json:
        from repro.analyze.report import json_text

        rows = []
        for name in list_machines():
            topo = machine_by_name(name)
            rows.append({
                "name": name,
                "numa_nodes": len(topo.numa_nodes),
                "cores": topo.n_cores,
                "pus": topo.n_pus,
                "hyperthreading": topo.has_hyperthreading,
            })
        return json_text(rows)

    lines = []
    for name in list_machines():
        topo = machine_by_name(name)
        ht = "HT" if topo.has_hyperthreading else "no-HT"
        lines.append(
            f"{name:<12} {len(topo.numa_nodes):>3} NUMA x "
            f"{topo.n_cores // max(1, len(topo.numa_nodes)):>2} cores "
            f"({topo.n_pus} PUs, {ht})"
        )
    return "\n".join(lines)


def _cmd_topology(machine: str, depth: int | None) -> str:
    from repro.topology import machine_by_name, render_ascii

    return render_ascii(machine_by_name(machine), max_depth=depth)


def _cmd_fig(
    number: int,
    machine: str | None,
    jobs: int | None = None,
    no_cache: bool = False,
) -> str:
    from repro.experiments import (
        fig1_comm_matrix,
        fig2_allocation,
        fig4_lk23,
        fig5_matmul,
        fig6_video,
        format_figure,
    )
    from repro.experiments.figures import comm_matrix_ascii

    cache = False if no_cache else None
    if number == 1:
        comm, fig = fig1_comm_matrix()
        return f"{fig.title}\n" + comm_matrix_ascii(comm)
    if number == 2:
        text, info = fig2_allocation()
        return text + f"\nreserved for control: PUs {info['reserved_pus']}"
    if number == 4:
        return format_figure(fig4_lk23(machine or "SMP12E5",
                                       jobs=jobs, cache=cache))
    if number == 5:
        return format_figure(fig5_matmul(machine or "SMP12E5",
                                         jobs=jobs, cache=cache))
    return format_figure(fig6_video(machine or "SMP12E5-4S",
                                    jobs=jobs, cache=cache))


def _cmd_table(
    number: int,
    as_json: bool = False,
    jobs: int | None = None,
    no_cache: bool = False,
) -> str:
    from repro.experiments import (
        format_table,
        table1_machines,
        table2_lk23_counters,
        table3_matmul_counters,
        table4_video_counters,
    )
    from repro.experiments.report import format_counter_rows

    cache = False if no_cache else None
    if as_json:
        import dataclasses

        from repro.analyze.report import json_text

        if number == 1:
            return json_text(table1_machines())
        fn = {2: table2_lk23_counters, 3: table3_matmul_counters,
              4: table4_video_counters}[number]
        return json_text(
            [dataclasses.asdict(r) for r in fn(jobs=jobs, cache=cache)]
        )

    if number == 1:
        rows = table1_machines()
        keys = list(rows[0].keys())
        return format_table(keys, [[r[k] for k in keys] for r in rows],
                            title="Table I")
    if number == 2:
        return format_counter_rows(
            "Table II: LK23 counters (SMP12E5, 64 cores)",
            table2_lk23_counters(jobs=jobs, cache=cache),
        )
    if number == 3:
        return format_counter_rows(
            "Table III: matmul counters (SMP12E5, 64 cores)",
            table3_matmul_counters(jobs=jobs, cache=cache),
        )
    return format_counter_rows(
        "Table IV: video counters (SMP12E5-4S, HD)",
        table4_video_counters(jobs=jobs, cache=cache),
    )


def _cmd_map(
    machine: str,
    threads: int,
    pattern: str,
    engine: str | None,
    refine: bool,
    as_json: bool,
    strategy: str = "auto",
) -> str:
    """Run the selected mapping engine on a synthetic pattern."""
    import time

    from repro.topology import machine_by_name
    from repro.treematch.commmatrix import CommunicationMatrix
    from repro.treematch.mapping import multilevel_map, treematch_map
    from repro.treematch.strategies import mapping_strategy

    resolved = mapping_strategy(strategy, threads)
    if resolved == "multilevel":
        for flag, given in (("--engine", engine is not None),
                            ("--no-refine", not refine)):
            if given:
                raise ReproError(
                    f"{flag} only applies to the greedy strategy, but this "
                    f"map runs multilevel ({threads} tasks, --strategy "
                    f"{strategy})"
                )
    topo = machine_by_name(machine)
    if pattern == "stencil":
        comm = CommunicationMatrix.stencil2d(threads)
    else:  # ring: each thread talks to its successor (wrap-around)
        comm = CommunicationMatrix.ring(threads)

    t0 = time.perf_counter()
    if resolved == "multilevel":
        placement = multilevel_map(topo, comm)
    else:
        placement = treematch_map(topo, comm, engine=engine, refine=refine)
    elapsed = time.perf_counter() - t0
    cost = placement.cost(topo, comm)
    slit = placement.slit_cost(topo, comm)

    if as_json:
        from repro.analyze.report import json_text

        return json_text({
            "machine": machine,
            "threads": threads,
            "pattern": pattern,
            "strategy": resolved,
            "engine": engine or "auto",
            "refine": refine,
            "seconds": round(elapsed, 4),
            "cost": cost,
            "slit_cost": slit,
            "placement": placement.to_dict(),
        })

    used = sorted(set(placement.thread_to_pu.values()))
    lines = [
        f"TreeMatch placement: {threads} {pattern} threads on {machine}",
        f"  strategy={resolved} engine={engine or 'auto'} refine={refine} "
        f"granularity={placement.granularity} "
        f"oversubscription={placement.oversub_factor}x",
        f"  solved in {elapsed:.3f} s; tree-distance cost {cost:.0f}, "
        f"SLIT cost {slit:.0f}",
        f"  {len(used)} PUs used: {used[0]}..{used[-1]}",
    ]
    if threads <= 64:
        per_pu: dict[int, list[int]] = {}
        for tid, pu in sorted(placement.thread_to_pu.items()):
            per_pu.setdefault(pu, []).append(tid)
        for pu in used:
            tids = ",".join(str(t) for t in per_pu[pu])
            lines.append(f"  PU {pu:>4}: threads {tids}")
    else:
        lines.append("  (per-PU table suppressed for >64 threads; "
                     "use --json for the full binding)")
    return "\n".join(lines)


def _cmd_dfg() -> str:
    from repro.apps.video import VideoConfig
    from repro.apps.video.pipeline import build_orwl_video
    from repro.orwl import Runtime
    from repro.orwl.graph import to_dot
    from repro.topology import smp20e7_4s

    rt = Runtime(smp20e7_4s(), affinity=False)
    build_orwl_video(rt, VideoConfig(resolution="HD", frames=1))
    return to_dot(rt, name="video-tracking")


def _cmd_lint(
    app: str | None,
    all_apps: bool,
    as_json: bool,
    dynamic: bool,
    hb: bool = False,
    sanitize: bool = False,
    hotlint: bool = False,
    sarif: bool = False,
) -> tuple[str, int]:
    """Run the analyzers; exit code 3 when any error-level finding."""
    from repro.analyze import analyze_app, json_text, sarif_log
    from repro.analyze.apps import app_names
    from repro.analyze.openmp import OMP_APPS, analyze_openmp, omp_app_names

    if all_apps:
        names = app_names()
        if dynamic or sanitize:
            # The fork-join apps only have an execution to check.
            names += omp_app_names()
    elif app is not None:
        names = [app]
    elif hotlint:
        names = []
    else:
        known = ", ".join(app_names() + omp_app_names())
        raise ReproError("lint needs an app name, --all or --hotlint "
                         f"(known: {known})")

    analyses = [
        analyze_openmp(n, sanitize=sanitize) if n in OMP_APPS
        else analyze_app(n, dynamic=dynamic, hb_notes=hb, sanitize=sanitize)
        for n in names
    ]
    reports = [a.report for a in analyses]
    hot_report = None
    if hotlint:
        from repro.analyze.hotlint import run_hotlint

        hot_report = run_hotlint()
        reports.append(hot_report)
    code = max((r.exit_code() for r in reports), default=0)

    if sarif:
        return json_text(sarif_log(reports)), code
    if as_json:
        payload = [a.to_dict() for a in analyses]
        if hot_report is not None:
            payload.append(hot_report.to_dict())
        return json_text(payload[0] if len(payload) == 1 else payload), code
    chunks = []
    for a in analyses:
        text = a.to_text()
        if hb and a.hb is not None:
            s = a.hb.summary()
            text += (
                f"\nhappens-before replay: {s['events_replayed']} event(s) "
                f"over {s['rounds']} round(s), {s['touches_checked']} "
                f"touch(es) checked, {s['delegations']} delegation(s), "
                f"{s['ops_eligible']} op(s) fully ordered, "
                f"{s['ops_stalled']} stalled, {s['hb_races']} HB race(s)"
            )
        chunks.append(text)
    if hot_report is not None:
        chunks.append(hot_report.to_text())
    return "\n\n".join(chunks), code


def _cmd_trace(
    app: str, out: str | None, capacity: int, sample_busy: int, core: str
) -> str:
    """Execute *app* with a ring trace attached, export Chrome JSON."""
    import json

    from repro.analyze.apps import app_builder
    from repro.sim.machine import SimMachine
    from repro.sim.observe import RingTrace, SimObserver

    if core not in SimMachine.CORES:
        raise ReproError(
            f"unknown core {core!r} (choose from {', '.join(SimMachine.CORES)})"
        )
    if capacity < 1:
        raise ReproError(f"--capacity must be >= 1, got {capacity}")
    if sample_busy < 0:
        raise ReproError(f"--sample-busy must be >= 0, got {sample_busy}")

    rt = app_builder(app)()
    rt.machine.core = core
    obs = SimObserver(
        trace=RingTrace(capacity=capacity, sample={"busy": sample_busy})
    )
    rt.machine.attach_observer(obs)
    rt.run()

    payload = json.dumps(obs.chrome_trace(), indent=1)
    if out is None:
        return payload
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(payload + "\n")
    ring = obs.ring
    return (
        f"{app}: {ring.recorded} record(s) kept, {ring.dropped} dropped "
        f"({rt.machine.core_used} core) -> {out}"
    )


def _cmd_adapt(app: str, ipp: int | None, as_json: bool) -> str:
    """Run the adaptive-remapping experiment (docs/ADAPTIVE.md)."""
    import json

    from repro.experiments.adaptive import (
        AdaptSetup,
        build_runtime,
        format_experiment,
        run_adaptive,
        run_experiment,
    )

    setup = AdaptSetup() if ipp is None else AdaptSetup(iters_per_phase=ipp)
    if app == "phase-stable":
        stable = AdaptSetup(iters_per_phase=setup.iters_per_phase, shift=False)
        baseline = build_runtime("stencil", stable).run()
        run = run_adaptive(stable)
        payload = {
            "app": app,
            "uncontrolled_seconds": baseline.seconds,
            "adaptive_seconds": run["seconds"],
            "remaps": run["remaps"],
            "windows": run["windows"],
        }
        if as_json:
            return json.dumps(payload, indent=1)
        return (
            f"phase-stable control ({run['windows']} windows): "
            f"{len(run['remaps'])} remap(s); adaptive "
            f"{run['seconds'] * 1e3:.3f} ms vs uncontrolled "
            f"{baseline.seconds * 1e3:.3f} ms"
        )
    report = run_experiment(setup)
    if as_json:
        report = dict(report)
        return json.dumps(report, indent=1)
    return format_experiment(report)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    code = 0
    try:
        if args.command == "machines":
            out = _cmd_machines(args.json)
        elif args.command == "topology":
            out = _cmd_topology(args.machine, args.depth)
        elif args.command == "fig":
            out = _cmd_fig(args.number, args.machine, args.jobs, args.no_cache)
        elif args.command == "table":
            out = _cmd_table(args.number, args.json, args.jobs, args.no_cache)
        elif args.command == "comm-matrix":
            out = _cmd_fig(1, None)
        elif args.command == "allocation":
            out = _cmd_fig(2, None)
        elif args.command == "map":
            out = _cmd_map(args.machine, args.threads, args.pattern,
                           args.engine, not args.no_refine, args.json,
                           args.strategy)
        elif args.command == "dfg":
            out = _cmd_dfg()
        elif args.command == "adapt":
            out = _cmd_adapt(args.app, args.ipp, args.json)
        elif args.command == "lint":
            out, code = _cmd_lint(args.app, args.all, args.json, args.dynamic,
                                  args.hb, args.sanitize, args.hotlint,
                                  args.sarif)
        elif args.command == "trace":
            out = _cmd_trace(args.app, args.out, args.capacity,
                             args.sample_busy, args.core)
        else:  # pragma: no cover - argparse enforces choices
            raise ReproError(f"unknown command {args.command!r}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(out)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
