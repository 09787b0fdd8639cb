"""Run a snippet in a new interpreter that imports repro from this tree."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

__all__ = ["run_fresh"]

SRC = Path(repro.__file__).resolve().parent.parent


def run_fresh(code: str, *, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run *code* with ``python -c`` and return the finished process.

    Nothing the snippet imports leaks into the caller, and a snippet
    that runs past *timeout* seconds is killed and raises
    :class:`subprocess.TimeoutExpired`, so a hang fails instead of
    stalling the suite.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
