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
5. the simulator smoke: ``bench_repro --check --quick`` (the quick rows
   of its probe table, ``bench_repro.ROWS``) plus the differential smoke
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

SCRIPTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(SCRIPTS)
SRC = os.path.join(ROOT, "src")


def run_lint(dynamic: bool = False) -> int:
    from repro.cli import main as cli_main

    argv = ["lint", "--all"] + (["--dynamic"] if dynamic else [])
    return cli_main(argv)


def run_hotlint() -> int:
    from repro.cli import main as cli_main

    return cli_main(["lint", "--hotlint"])


def run_ruff() -> int:
    """``ruff check`` on the whole tree; 0 (with a notice) if absent."""
    ruff = shutil.which("ruff")
    if ruff is None:
        print("lint_repro: ruff not installed — skipping ruff check")
        return 0
    proc = subprocess.run([ruff, "check", ROOT], cwd=ROOT)
    return proc.returncode


def run_compileall() -> int:
    ok = compileall.compile_dir(SRC, quiet=1, force=False)
    return 0 if ok else 1


def run_sim_smoke() -> int:
    """Quick bench gates + object-vs-batched differential smoke."""
    for extra in (SCRIPTS, os.path.join(ROOT, "tests")):
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
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        SRC + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else SRC
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-m", "adaptive", "-q"],
        cwd=ROOT, env=env,
    )
    return proc.returncode


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    dynamic = "--dynamic" in args
    # (message on failure, step); the first failing step's code is ours.
    steps = (
        ("lint failed (exit {code})", lambda: run_lint(dynamic=dynamic)),
        ("hotlint failed (exit {code})", run_hotlint),
        ("ruff failed (exit {code})", run_ruff),
        ("compileall found syntax errors", run_compileall),
        ("simulator smoke failed (exit {code})", run_sim_smoke),
        ("adaptive test family failed (exit {code})", run_adaptive_tests),
    )
    for failed, step in steps:
        code = step()
        if code != 0:
            print("lint_repro: " + failed.format(code=code), file=sys.stderr)
            return code

    print("lint_repro: all apps lint clean, hot paths pure, "
          "src byte-compiles, simulator smoke green, adaptive family green")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
