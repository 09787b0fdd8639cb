#!/usr/bin/env python3
"""Repository preflight: verify every paper app, then byte-compile src.

Usage:
    PYTHONPATH=src python scripts/lint_repro.py [--dynamic]

Runs, in order:

1. the equivalent of ``repro-paper lint --all`` (exit 3 on any
   error-level finding);
2. the hot-loop purity lint (``repro-paper lint --hotlint``) over the
   simulator's hot paths;
3. ``ruff check`` with the ``[tool.ruff]`` config from pyproject.toml —
   skipped with a notice when ruff is not installed (the container
   image does not bake it in);
4. ``python -m compileall src`` (exit 1 on syntax errors anywhere);
5. the simulator smoke: ``bench_repro --check --quick`` (throughput
   floor, batched-vs-object gate, tap overhead, shard fingerprint — a
   few noise-robust paired samples each) plus the differential smoke
   (object/batched bit-identity on generated app and serial-chain
   programs);
6. the adaptive-controller family: ``pytest -m adaptive`` (drift
   detector properties, warm-start contract, zero-remap differential).

Intended for CI and as the preflight step of
``scripts/regenerate_all.py``.
"""

from __future__ import annotations

import compileall
import os
import shutil
import subprocess
import sys


def run_lint(dynamic: bool = False) -> int:
    from repro.cli import main as cli_main

    argv = ["lint", "--all"] + (["--dynamic"] if dynamic else [])
    return cli_main(argv)


def run_hotlint() -> int:
    from repro.cli import main as cli_main

    return cli_main(["lint", "--hotlint"])


def run_ruff() -> int:
    """``ruff check`` on the whole tree; 0 (with a notice) if absent."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ruff = shutil.which("ruff")
    if ruff is None:
        print("lint_repro: ruff not installed — skipping ruff check")
        return 0
    proc = subprocess.run([ruff, "check", root], cwd=root)
    return proc.returncode


def run_compileall() -> int:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    ok = compileall.compile_dir(src, quiet=1, force=False)
    return 0 if ok else 1


def run_sim_smoke() -> int:
    """Quick bench gates + object-vs-batched differential smoke."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    for extra in (here, os.path.join(root, "tests")):
        if extra not in sys.path:
            sys.path.insert(0, extra)
    import bench_repro

    code = bench_repro.main(["--check", "--quick"])
    if code != 0:
        return code
    from harness import difftest

    n = difftest.run_smoke()
    print(f"lint_repro: difftest smoke — {n} program(s) bit-identical "
          "across the object and batched cores")
    return 0


def run_adaptive_tests() -> int:
    """The ``adaptive`` pytest family (controller + warm-start tests)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else src
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-m", "adaptive", "-q"],
        cwd=root, env=env,
    )
    return proc.returncode


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    dynamic = "--dynamic" in args

    code = run_lint(dynamic=dynamic)
    if code != 0:
        print(f"lint_repro: lint failed (exit {code})", file=sys.stderr)
        return code

    code = run_hotlint()
    if code != 0:
        print(f"lint_repro: hotlint failed (exit {code})", file=sys.stderr)
        return code

    code = run_ruff()
    if code != 0:
        print(f"lint_repro: ruff failed (exit {code})", file=sys.stderr)
        return code

    code = run_compileall()
    if code != 0:
        print("lint_repro: compileall found syntax errors", file=sys.stderr)
        return code

    code = run_sim_smoke()
    if code != 0:
        print(f"lint_repro: simulator smoke failed (exit {code})",
              file=sys.stderr)
        return code

    code = run_adaptive_tests()
    if code != 0:
        print(f"lint_repro: adaptive test family failed (exit {code})",
              file=sys.stderr)
        return code

    print("lint_repro: all apps lint clean, hot paths pure, "
          "src byte-compiles, simulator smoke green, adaptive family green")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
