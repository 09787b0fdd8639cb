"""Every repro subpackage imports on its own, in a fresh interpreter.

An import cycle only bites when a package is the *first* one imported:
once another entry point has loaded the cycle's other half, the import
works. So each case starts a new interpreter that imports one package
and nothing else.
"""

from pathlib import Path

import pytest

import repro
from tests.harness.fresh import run_fresh

ROOT = Path(repro.__file__).resolve().parent
PACKAGES = sorted(
    ".".join(("repro",) + init.parent.relative_to(ROOT).parts)
    for init in ROOT.rglob("__init__.py")
    if init.parent != ROOT
)


@pytest.mark.parametrize("package", PACKAGES)
def test_imports_first(package):
    proc = run_fresh(f"import {package}")
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_simulator_sits_below_the_executor():
    """``repro.sim`` loads no ``repro.parallel`` module: the cell executor
    runs simulations, never the other way round."""
    proc = run_fresh(
        "import sys, repro.sim\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[:2] == ['repro', 'parallel']))"
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_every_subpackage_listed():
    assert {"repro.parallel", "repro.experiments", "repro.sim"} <= set(PACKAGES)
