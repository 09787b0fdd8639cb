#!/usr/bin/env python3
"""Regenerate every table and figure and dump a full report.

Usage:
    REPRO_SCALE=paper python scripts/regenerate_all.py [outfile]
    python scripts/regenerate_all.py --jobs 4            # 4 worker processes
    python scripts/regenerate_all.py --no-cache          # force re-simulation

Writes the rendered report to *outfile* (default: stdout) and a raw JSON
dump next to it when an outfile is given.

Regeneration is incremental: experiment cells already present in the
on-disk result cache (see ``repro.parallel.cache``) are served without
re-simulating, so a second run at the same scale finishes in seconds.
``--no-cache`` (or ``REPRO_CACHE=off``) bypasses the cache; ``--jobs``
(or ``REPRO_JOBS``) fans cache misses out over worker processes.
"""

from __future__ import annotations

import argparse
import json
import time

from repro.experiments import (
    current_scale,
    fig1_comm_matrix,
    fig2_allocation,
    fig4_lk23,
    fig5_matmul,
    fig6_video,
    format_figure,
    table1_machines,
    table2_lk23_counters,
    table3_matmul_counters,
    table4_video_counters,
)
from repro.experiments.figures import comm_matrix_ascii
from repro.experiments.report import format_counter_rows, format_table


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outfile", nargs="?", default=None,
                        help="report destination (default: stdout)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS or 1; "
                             "0 = one per CPU)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> None:
    args = parse_args(argv)
    out_path = args.outfile
    jobs = args.jobs
    cache = False if args.no_cache else None

    # Preflight: every app must lint clean and src must byte-compile
    # before we spend minutes regenerating figures from a broken tree.
    # lint_repro also runs the quick simulator smoke (bench gates on a
    # few paired samples, plus the object-vs-batched differential
    # smoke); the *full* noise-robust --check then gates with all
    # probes, including the mapping-engine comparison.
    import bench_repro
    import lint_repro

    code = lint_repro.main([])
    if code != 0:
        raise SystemExit(code)
    code = bench_repro.main(["--check"])
    if code != 0:
        raise SystemExit(code)

    scale = current_scale()
    chunks: list[str] = [f"# Full regeneration at scale {scale.name!r}", ""]
    raw: dict = {"scale": scale.name}
    t_start = time.time()

    def add(title: str, text: str) -> None:
        elapsed = time.time() - t_start
        chunks.append(f"## {title}  [t+{elapsed:.0f}s]")
        chunks.append(text)
        chunks.append("")
        print(f"done: {title} (t+{elapsed:.0f}s)", flush=True)

    rows = table1_machines()
    keys = list(rows[0].keys())
    add("Table I", format_table(keys, [[r[k] for k in keys] for r in rows]))

    comm, _ = fig1_comm_matrix()
    add("Fig. 1 (communication matrix, log-gray ASCII)",
        comm_matrix_ascii(comm))
    raw["fig1"] = comm.raw.tolist()

    text, info = fig2_allocation()
    add("Fig. 2 (task allocation)",
        text + f"\nreserved for control threads: PUs {info['reserved_pus']}")

    for machine in ("SMP12E5", "SMP20E7"):
        fig = fig4_lk23(machine, jobs=jobs, cache=cache)
        raw[f"fig4_{machine}"] = [(s.label, s.x, s.y) for s in fig.series]
        add(f"Fig. 4 ({machine})", format_figure(fig))

    rows2 = table2_lk23_counters(jobs=jobs, cache=cache)
    raw["table2"] = [vars(r) for r in rows2]
    add("Table II", format_counter_rows("LK23 counters, SMP12E5/64", rows2))

    for machine in ("SMP12E5", "SMP20E7"):
        fig = fig5_matmul(machine, jobs=jobs, cache=cache)
        raw[f"fig5_{machine}"] = [(s.label, s.x, s.y) for s in fig.series]
        add(f"Fig. 5 ({machine})", format_figure(fig))

    rows3 = table3_matmul_counters(jobs=jobs, cache=cache)
    raw["table3"] = [vars(r) for r in rows3]
    add("Table III", format_counter_rows("Matmul counters, SMP12E5/64", rows3))

    for machine in ("SMP12E5-4S", "SMP20E7-4S"):
        fig = fig6_video(machine, jobs=jobs, cache=cache)
        raw[f"fig6_{machine}"] = [(s.label, s.x, s.y) for s in fig.series]
        add(f"Fig. 6 ({machine})", format_figure(fig))

    rows4 = table4_video_counters(jobs=jobs, cache=cache)
    raw["table4"] = [vars(r) for r in rows4]
    add("Table IV", format_counter_rows("Video counters, SMP12E5-4S/HD", rows4))

    report = "\n".join(chunks)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(report)
        with open(out_path.rsplit(".", 1)[0] + ".json", "w") as fh:
            json.dump(raw, fh, indent=1)
        print(f"\nwrote {out_path}")
    else:
        print(report)


if __name__ == "__main__":
    main()
