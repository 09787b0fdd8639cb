"""Each workload runs once at a small size and reports declared metrics."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import harness, run, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

SMALL_CALLS = (
    (None, "table1_machines", None),
    ("fig1", "fig1_comm_matrix", None),
    (None, "fig2_allocation", None),
    ("fig4_SMP12E5", "fig4_lk23", "SMP12E5"),
    ("table2", "table2_lk23_counters", None),
)
# Table II's cells, so the table is served from the cache the figure filled.
SMALL_SWEEP = {"fig4_lk23": {"cores": [64]}}


def small(name: str, work_dir: str):
    if name in ("paper-cold", "paper-warm"):
        w = workloads.WORKLOADS[name](1, work_dir, calls=SMALL_CALLS,
                                      sweep_kwargs=SMALL_SWEEP)
        w.scale = "tiny"
        return w
    if name == "map":
        return workloads.Map(1, work_dir, inputs=(("stencil", 9000), ("ring", 64)))
    # The smallest phase length at which the controller still wins.
    return workloads.Adapt(1, work_dir, iters_per_phase=8)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_reports_declared_metrics(name, trace, tmp_path):
    result = harness.measure(small(name, str(tmp_path)), seconds=1e-6,
                             trace=trace, import_s=0.0)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    e2e = result["end_to_end"]
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in e2e.values()), e2e
    names = list(e2e)
    if trace:
        assert set(result["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        assert result["per_layer"]["trace.coverage_pct"] > 50
        names += list(result["per_layer"])
    assert all(NAME.match(n) for n in names)


def test_pass_digest_repeats_and_changes_with_the_seed(tmp_path):
    digests = []
    for seed in (1, 1, 2):
        w = workloads.Map(seed, str(tmp_path), inputs=(("stencil", 256),))
        w.setup()
        digests.append(harness.digest(w.run_pass(harness.Recorder())))
    assert digests[0] == digests[1] != digests[2]


#: How BENCHMARK.json's command is invoked.
CONTRACT_ARGS = ["--workload", "map", "--seed", "1",
                 "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]


def test_command_takes_the_benchmark_arguments():
    args = run.parse_args(CONTRACT_ARGS)
    assert (args.workload, args.seed, args.seconds, args.trace) == (
        ["map"], 1, SPEC["run_seconds"], 0)


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *CONTRACT_ARGS],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "the program is not here" in proc.stderr
    assert '"correct"' not in proc.stdout
