"""Self-tests of the benchmark: ``python -m pytest bench/tests``.

They sit outside the tier-1 ``testpaths`` and import the program from
``src/`` directly.
"""

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(autouse=True)
def _restore_environ():
    """Workloads set ``REPRO_SCALE``/``REPRO_CACHE_DIR``; undo that."""
    saved = dict(os.environ)
    os.environ["REPRO_JOBS"] = "1"
    os.environ.pop("REPRO_SANITIZE", None)
    yield
    os.environ.clear()
    os.environ.update(saved)
