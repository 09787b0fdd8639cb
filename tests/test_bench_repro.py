"""``scripts/bench_repro.py``'s probe table, driven with stub probes.

No simulator runs: every row's probe and baseline are replaced by stubs
that return fixed ``(work, seconds)`` measurements, so each test pins
what one gate, the table walk or the record reader does with them.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_repro", ROOT / "scripts" / "bench_repro.py"
)
bench_repro = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_repro)

#: gate name -> (probe result, against result) that passes the gate.
PASSING = {
    "_floor_gate": ((3430, 0.020), None),
    "_core_gate": ((3430, 0.040), (3430, 0.020)),
    "_tap_gate": ((3430, 0.022), (3430, 0.020)),
    "_mapping_gate": ((1, 0.60), (1, 0.10)),
    "_phase_shift_gate": (({"stencil": 0.038, "transpose": 0.020}, 0.020),
                          ({"remaps": [], "windows": 18}, 0.013)),
    "_phase_stable_gate": ((1, 0.103), (1, 0.100)),
}

#: gate name -> (probe result, against result) that fails it, and the
#: start of the verdict line the failure prints.
FAILING = {
    "_floor_gate": (((2000, 0.020), None), "2000 engine events"),
    "_core_gate": (((3430, 0.030), (3430, 0.020)),
                   "engine_batched 171,500 ev/s"),
    "_tap_gate": (((3430, 0.027), (3430, 0.020)), "engine_ring_traced"),
    "_mapping_gate": (((1, 1.30), (1, 0.10)), "mapping probe/canary"),
    "_phase_shift_gate": (
        (({"stencil": 0.038, "transpose": 0.014}, 0.014),
         ({"remaps": [], "windows": 18}, 0.013)),
        "adaptive_remap phase-shift"),
    "_phase_stable_gate": (((1, 0.106), (1, 0.100)),
                           "adaptive_remap phase-stable"),
}
GATES = list(PASSING)


@pytest.fixture
def record(tmp_path, monkeypatch):
    """OUT_PATH in a temporary directory, holding the committed record."""
    path = tmp_path / "BENCH_sim.json"
    path.write_text((ROOT / "BENCH_sim.json").read_text())
    monkeypatch.setattr(bench_repro, "OUT_PATH", path)
    return path


def stub_rows(monkeypatch, calls, **results):
    """Replace every row's probes by stubs returning *results* (by gate
    name, default :data:`PASSING`); *calls* collects the gates run."""
    def stub(name, result):
        def run():
            calls.append(name)
            return result
        return run

    rows = []
    for row in bench_repro.ROWS:
        name = row.gate.__name__
        probe, against = results.get(name, PASSING[name])
        rows.append(row._replace(
            probe=stub(name, probe),
            against=against and stub(name, against),
        ))
    monkeypatch.setattr(bench_repro, "ROWS", tuple(rows))


def test_table_has_the_six_gates_in_order():
    assert [row.gate.__name__ for row in bench_repro.ROWS] == GATES


def test_all_rows_pass(record, monkeypatch, capsys):
    calls = []
    stub_rows(monkeypatch, calls)
    assert bench_repro.main(["--check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 and all(ln.endswith("[ok]") for ln in lines)
    assert list(dict.fromkeys(calls)) == GATES


@pytest.mark.parametrize("gate", GATES)
def test_failing_measurement_fails_its_gate(record, monkeypatch, capsys,
                                            gate):
    results, line = FAILING[gate]
    calls = []
    stub_rows(monkeypatch, calls, **{gate: results})
    assert bench_repro.main(["--check"]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith(f"bench_repro --check: {line}")
    assert last.endswith("[FAIL]")
    assert calls[-1] == gate  # the walk stops at the failing gate


def test_quick_runs_only_the_quick_rows(record, monkeypatch, capsys):
    calls = []
    stub_rows(monkeypatch, calls)
    assert bench_repro.main(["--check", "--quick"]) == 0
    assert list(dict.fromkeys(calls)) == [
        "_floor_gate", "_core_gate", "_tap_gate"]
    assert capsys.readouterr().out.splitlines()[-1] == (
        "bench_repro --check: mapping_check, adaptive_remap gates skipped "
        "(--quick)")


def test_pair_counts():
    """3 pairs under --quick, else 5; the tap row keeps 5 under --quick;
    the phase-shift row is 3 pairs of 1 run."""
    counts = {row.gate.__name__: (row.pairs, row.quick_pairs, row.inner)
              for row in bench_repro.ROWS}
    assert counts["_floor_gate"] == (5, 3, 1)
    assert counts["_core_gate"] == (5, 3, 3)
    assert counts["_tap_gate"] == (5, 5, 3)
    assert counts["_mapping_gate"] == (5, None, 3)
    assert counts["_phase_shift_gate"] == (3, None, 1)
    assert counts["_phase_stable_gate"] == (5, None, 3)


def test_paired_runner_takes_the_best_inner_run_of_each_side():
    den = iter([9.0, 1.0, 0.8, 1.2, 1.1])  # warmup, then 2 pairs x 2 runs
    num = iter([9.0, 2.0, 1.6, 2.2, 2.4])
    ratios, fastest_num, fastest_den = bench_repro._paired_ratios(
        lambda: (1, next(num)), lambda: (1, next(den)), 2, 2)
    assert ratios == [2.0, 2.0]
    assert (fastest_num, fastest_den) == ((1, 1.6), (1, 0.8))


def test_unpaired_runner_is_best_of():
    times = iter([0.4, 0.9, 0.5, 0.7])  # warmup, then three runs
    ratios, best, den = bench_repro._paired_ratios(
        lambda: (1, next(times)), None, 3, 1)
    assert (ratios, best, den) == ([], (1, 0.5), None)


@pytest.mark.parametrize("recorded, required", [
    (None, 1.2), (1.3, 1.2), (2.24, 1.62), (3.0, 2.0),
])
def test_core_edge_discounts_the_recorded_speedup(recorded, required):
    gate = bench_repro._core_gate
    above = gate([required + 1e-9], (1, required), (1, 1.0), recorded)
    below = gate([required - 0.01], (1, required), (1, 1.0), recorded)
    assert above.ok and not below.ok
    assert f"required >= {required:.2f}x" in above.text


def test_mapping_allowance_is_twice_the_recorded_ratio():
    gate = bench_repro._mapping_gate
    assert gate([12.0], (1, 12.0), (1, 1.0), 6.0).ok
    assert not gate([12.01], (1, 12.01), (1, 1.0), 6.0).ok
    informational = gate([99.0], (1, 99.0), (1, 1.0), None)
    assert informational.ok and "informational" in informational.text


def test_tap_gate_allows_thirty_percent():
    gate = bench_repro._tap_gate
    assert gate([1.29], (1, 1.29), (1, 1.0), None).ok
    assert not gate([1.31], (1, 1.31), (1, 1.0), None).ok


def test_phase_stable_gate_is_best_of_not_median():
    gate = bench_repro._phase_stable_gate
    assert not gate([1.02] * 5, (1, 0.106), (1, 0.100), None).ok
    assert gate([1.08] * 5, (1, 0.104), (1, 0.100), None).ok


def test_phase_shift_gate_requires_determinism():
    verdict = bench_repro._phase_shift_gate(
        [1.5, 1.5, 1.6], ({"stencil": 0.03}, 0.03),
        ({"remaps": [], "windows": 18}, 0.02), None)
    assert not verdict.ok and "NONDETERMINISTIC" in verdict.text


def test_negative_tap_overhead_is_unstable_and_passes(record, monkeypatch,
                                                      capsys):
    stub_rows(monkeypatch, [],
              _tap_gate=((3430, 0.018), (3430, 0.020)))
    assert bench_repro.main(["--check", "--quick"]) == 0
    tap = capsys.readouterr().out.splitlines()[2]
    assert "overhead -10.0%" in tap and "UNSTABLE" in tap
    assert tap.endswith("[ok]")


def test_full_mode_records_under_the_committed_keys(record, monkeypatch):
    committed = json.loads(record.read_text())
    previous = {**committed, "gone_probe": {"seconds": 1.0}}
    record.write_text(json.dumps(previous))
    stub_rows(monkeypatch, [])
    mapping = {"group": {"128": {"seconds": 0.001}}}
    monkeypatch.setattr(bench_repro, "RECORD_ONLY", (
        ("pytest_benchmarks", lambda: {}),
        ("fig4_quick_probe", lambda: {"seconds": 1.0}),
        ("mapping_bench", lambda: mapping),
    ))
    assert bench_repro.main([]) == 0
    written = json.loads(record.read_text())
    assert set(written) == set(committed)
    for key in ("engine_ring", "engine_batched", "engine_ring_traced",
                "mapping_check", "adaptive_remap"):
        assert set(written[key]) == set(committed[key]), key
    assert set(written["previous"]) == set(written) - {"previous"}
    assert written["previous"]["engine_ring"] == committed["engine_ring"]
    prev_s = committed["mapping_bench"]["group"]["128"]["seconds"]
    assert written["mapping_speedup_vs_previous"] == {
        "group": {"128": round(prev_s / 0.001, 2)}}


@pytest.mark.parametrize("text, key", [
    ('{"mapping_check": null}', "mapping_check"),
    ('{"engine_batched": {"batched_vs_object_speedup": "2.2"}}',
     "engine_batched.batched_vs_object_speedup"),
    ('{"mapping_check": {"probe_vs_canary_ratio": NaN}}',
     "mapping_check.probe_vs_canary_ratio"),
    ('{"mapping_check": {"probe_vs_canary_ratio": true}}',
     "mapping_check.probe_vs_canary_ratio"),
    ('{"mapping_bench": {"group": {"128": []}}}', "mapping_bench.group.128"),
    ("[1, 2]", "top level"),
    ("{not json", "JSON"),
], ids=["null-section", "string-number", "nan-number", "bool-number",
        "list-entry", "list-top-level", "invalid-json"])
@pytest.mark.parametrize("argv", [["--check"], []], ids=["check", "full"])
def test_malformed_record_exits_2_before_any_probe(record, monkeypatch,
                                                   capsys, text, key, argv):
    record.write_text(text)
    calls = []
    stub_rows(monkeypatch, calls)
    assert bench_repro.main(argv) == 2
    err = capsys.readouterr().err
    assert str(record) in err and key in err
    assert calls == []


def test_missing_record_keeps_the_no_record_bounds(record, monkeypatch,
                                                   capsys):
    record.unlink()
    stub_rows(monkeypatch, [])
    assert bench_repro.main(["--check"]) == 0
    out = capsys.readouterr().out
    assert "required >= 1.20x)" in out and "informational" in out
