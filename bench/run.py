#!/usr/bin/env python3
"""Benchmark the reproduction's user-facing products end to end.

Usage (from the repository root)::

    python bench/run.py                                  # all four workloads
    python bench/run.py --workload map --seed 3 --seconds 20 --trace 0
    python bench/run.py --workload paper-cold --trace 1  # per-layer run
    python bench/run.py --workload paper-cold --profile  # cProfile rollup

Workloads: ``paper-cold``, ``paper-warm``, ``map``, ``adapt`` (see
bench/README.md). Each prints its metrics with unit and sample count,
checks the program's outputs, and ends with one JSON line::

    {"correct": true, "attempted": 163, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics (the spans are
also written as a Chrome trace). Several workloads run one subprocess
each, so set-up time and peak memory belong to one workload. Exit code
0 when every output was correct, 1 when one was not, 2 on a usage
error or when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
GOLDEN_FILE = Path(__file__).resolve().parent / "golden.json"
#: Everything a run leaves behind: result caches (deleted at exit),
#: Chrome traces and ``--out`` files of several workloads.
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("paper-cold", "paper-warm", "map", "adapt")

# One client, one worker, single-threaded BLAS; set before numpy loads.
RUNNER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_JOBS": "1",
}
#: Program switches that would change what is measured.
CLEARED_ENV = ("REPRO_SANITIZE", "REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_SCALE")
#: The import of the program is part of set-up. It is timed in this
#: process and in fresh interpreters, ``IMPORT_REPS`` times in all, and
#: the median counts.
IMPORT_REPS = 3
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
                "t0 = time.perf_counter(); import bench.workloads; "
                "print(time.perf_counter() - t0)")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", nargs="+", choices=WORKLOAD_NAMES, default=None,
                   help="workloads to run (default: all; paper-cold with "
                        "--profile)")
    p.add_argument("--seed", type=int, default=1,
                   help="input seed (default 1, the seed with recorded digests)")
    # BENCHMARK.json's command is invoked as ``--workload W --seed N
    # --seconds <run_seconds> --trace 0|1``, so the flag must exist;
    # leaving it out measures for the same run_seconds.
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring budget of each workload (default: "
                        "run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 = per-layer run: report per-layer metrics and "
                        "write a Chrome trace to .bench_out/")
    p.add_argument("--out", default=None,
                   help="also write the full results (provenance, sample "
                        "counts, layer seconds) as JSON here")
    p.add_argument("--profile", action="store_true",
                   help="cProfile one pass and roll it up by program module")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds is not None and args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.workload is None:
        args.workload = ["paper-cold"] if args.profile else list(WORKLOAD_NAMES)
    if args.profile and len(args.workload) != 1:
        p.error("--profile takes one workload")
    return args


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import importlib.util
    import platform

    import numpy

    from repro.sim.shard import available_cpus

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "available_cpus": available_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "numba": importlib.util.find_spec("numba") is not None,
        "commit": git_commit(),
        "runner_env": {k: os.environ.get(k) for k in
                       sorted(set(RUNNER_ENV) | set(CLEARED_ENV))},
    }


def metric_line(name: str, value: float, unit: str, n: int | None = None) -> str:
    count = f"  (n={n})" if n is not None else ""
    return f"  {name:<34} {value:>14.6g} {unit}{count}"


def layer_table(seconds: dict) -> str:
    rows = sorted(seconds.items(), key=lambda kv: -kv[1]["self_s"])
    lines = [f"  {'layer span':<34} {'calls/pass':>10} {'busy_s':>10} {'self_s':>10}"]
    for name, row in rows:
        if row["calls"]:
            lines.append(f"  {name:<34} {row['calls']:>10.6g} "
                         f"{row['busy_s']:>10.4f} {row['self_s']:>10.4f}")
    return "\n".join(lines)


def fresh_import_seconds() -> float:
    """Time the program's import in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(ROOT)],
        stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT,
    )
    return float(proc.stdout.splitlines()[-1])


def run_one(args, spec: dict, name: str) -> int:
    """Measure one workload in this process."""
    seconds = args.seconds or spec["run_seconds"]
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    if not (ROOT / "src" / "repro").is_dir():
        return fail(f"the program is not here: {ROOT / 'src' / 'repro'} is missing")
    t0 = time.perf_counter()
    try:
        from bench import harness, workloads
    except ImportError as exc:
        return fail(f"cannot import the program: {exc}")
    imports = [time.perf_counter() - t0]
    if not args.profile:
        imports += [fresh_import_seconds() for _ in range(IMPORT_REPS - 1)]

    work_dir = OUT_DIR / "work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[name](args.seed, str(work_dir))
        if args.profile:
            return report_profile(args, name, harness.profile_pass(workload))
        golden = None
        if GOLDEN_FILE.exists():
            recorded = json.loads(GOLDEN_FILE.read_text())
            if recorded["seed"] == args.seed:
                golden = recorded["digests"].get(name)
        result = harness.measure(workload, seconds=seconds, trace=bool(args.trace),
                                 import_s=statistics.median(imports), golden=golden)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        for parent in (work_dir.parent, OUT_DIR):
            try:
                parent.rmdir()
            except OSError:
                break  # another run, a trace or an --out file is there
    return report(args, spec, name, seconds, result)


def report(args, spec: dict, name: str, seconds: float, result: dict) -> int:
    print(f"workload {name}  seed {args.seed}  budget {seconds:g} s  "
          f"trace {args.trace}")
    prov = provenance()
    print("provenance " + json.dumps(prov, sort_keys=True))
    metrics = {}
    if args.trace and "per_layer" in result:
        for m in spec["per_layer"]:
            value = result["per_layer"][m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(metric_line(m["name"], value, m["unit"]))
        print(layer_table(result["layer_seconds"]), file=sys.stderr)
        trace_out = OUT_DIR / f"{name}-seed{args.seed}.trace.json"
        trace_out.parent.mkdir(exist_ok=True)
        tracer = result.pop("tracer")
        trace_out.write_text(json.dumps(tracer.chrome_trace(
            result.pop("trace_passes"), {"workload": name, "seed": args.seed})))
        print(f"chrome trace -> {trace_out}")
    elif result["end_to_end"]:
        for m in spec["end_to_end"]:
            value, n = result["end_to_end"][m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(metric_line(m["name"], value, m["unit"], n))
        seconds = result["seconds"]
        print("  in seconds (not steady on a shared host): "
              + ", ".join(f"{k} {v:.6g}" for k, v in seconds.items()))
    failed_frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<34} {failed_frac:>14.6g}  "
          f"({result['failed']} of {result['attempted']} operations)")
    print(f"digest {result['digest']}")
    for problem in result["problems"]:
        print(f"INCORRECT: {problem}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            dict(result, workload=name, seed=args.seed, seconds=seconds,
                 trace=args.trace, provenance=prov, metrics=metrics),
            indent=1, sort_keys=True, default=str))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


def report_profile(args, name: str, prof: dict) -> int:
    total = sum(m["self_s"] for m in prof["modules"].values()) or 1.0
    print(f"cProfile of one {name} pass (seed {args.seed}): "
          f"{prof['wall_s']:.2f} s wall")
    print(f"  {'module':<28} {'self_s':>10} {'share':>7} {'calls':>12}")
    metrics = {}
    for mod, row in sorted(prof["modules"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {mod:<28} {row['self_s']:>10.4f} "
              f"{100 * row['self_s'] / total:>6.1f}% {row['calls']:>12}")
        metrics[f"prof.{mod}.self_s"] = {"value": row["self_s"], "unit": "s"}
        metrics[f"prof.{mod}.calls"] = {"value": row["calls"], "unit": "count"}
    if args.out:
        Path(args.out).write_text(json.dumps(
            dict(prof, workload=name, seed=args.seed, provenance=provenance()),
            indent=1, sort_keys=True))
    print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                      "metrics": metrics}))
    return 0


def run_many(args) -> int:
    """One subprocess per workload; the last line aggregates them."""
    correct, attempted, failed, metrics, results = True, 0, 0, {}, {}
    for name in args.workload:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds:
            cmd += ["--seconds", str(args.seconds)]
        child_out = None
        if args.out:
            OUT_DIR.mkdir(exist_ok=True)
            child_out = OUT_DIR / f"{name}-seed{args.seed}.results.json"
            cmd += ["--out", str(child_out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"workload {name}: no result (exit {proc.returncode})",
                  file=sys.stderr)
            return 2
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
        if child_out is not None:
            results[name] = json.loads(child_out.read_text())
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads(SPEC_FILE.read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read {SPEC_FILE}: {exc}")
    os.environ.update(RUNNER_ENV)
    for key in CLEARED_ENV:
        os.environ.pop(key, None)
    if len(args.workload) == 1:
        return run_one(args, spec, args.workload[0])
    return run_many(args)


if __name__ == "__main__":
    raise SystemExit(main())
