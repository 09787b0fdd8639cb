"""Every repro subpackage imports on its own, in a fresh interpreter.

An import cycle only bites when a package is the *first* one imported:
once another entry point has loaded the cycle's other half, the import
works. So each case starts a new interpreter that imports one package
and nothing else.
"""

import ast
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


def _imported_modules(node: ast.AST, package: str) -> list[str]:
    """The modules an import statement may load, resolved absolutely:
    ``from a import b`` names both ``a`` and ``a.b``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    parts = package.split(".")
    base = parts[: len(parts) - node.level + 1] if node.level else []
    module = ".".join(base + ([node.module] if node.module else []))
    return [module] + [f"{module}.{alias.name}" for alias in node.names]


def test_mapping_library_sits_below_the_executor():
    """No ``repro.treematch`` module imports ``repro.parallel`` or
    ``repro.experiments``, at module level or inside a function: a
    placement is computed in the process that asks for it."""
    found = []
    for path in sorted((ROOT / "treematch").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            for name in _imported_modules(node, "repro.treematch"):
                if name.split(".")[:2] in (["repro", "parallel"],
                                           ["repro", "experiments"]):
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


def test_every_subpackage_listed():
    assert {"repro.parallel", "repro.experiments", "repro.sim"} <= set(PACKAGES)
