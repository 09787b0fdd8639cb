"""Every repro subpackage imports on its own, in a fresh interpreter.

An import cycle only bites when a package is the *first* one imported:
once another entry point has loaded the cycle's other half, the import
works. So each case starts a new interpreter that imports one package
and nothing else.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parent
PACKAGES = sorted(
    ".".join(("repro",) + init.parent.relative_to(ROOT).parts)
    for init in ROOT.rglob("__init__.py")
    if init.parent != ROOT
)


@pytest.mark.parametrize("package", PACKAGES)
def test_imports_first(package):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT.parent), env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_every_subpackage_listed():
    assert {"repro.parallel", "repro.experiments", "repro.sim"} <= set(PACKAGES)
