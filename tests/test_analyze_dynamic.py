"""Direct tests for the simulator taps and the dynamic monitor."""

from repro.analyze.deadlock import WaitForGraph
from repro.analyze.dynamic import DynamicResult, cross_check, run_dynamic
from repro.analyze.report import Report
from repro.orwl import Runtime
from repro.sim.process import Compute
from repro.topology import fig2_machine


def tiny_runtime():
    rt = Runtime(fig2_machine(), affinity=True)
    a, b = rt.task("a"), rt.task("b")
    loc = a.location("chan", 4096)
    hw = a.write_handle(loc, iterative=True)
    hr = b.read_handle(loc, iterative=True)

    def wbody(op):
        for _ in range(2):
            yield from hw.acquire()
            yield hw.touch()
            yield Compute(1e5)
            hw.release()

    def rbody(op):
        for _ in range(2):
            yield from hr.acquire()
            yield hr.touch()
            hr.release()

    a.set_body(wbody)
    b.set_body(rbody)
    return rt


class TestSimTaps:
    def test_monitor_sees_touches_and_placements(self):
        result = run_dynamic(tiny_runtime)
        assert result.completed
        mon = result.monitor
        # both compute ops touched the channel buffer
        assert len(mon.accesses) == 1
        (entries,) = mon.accesses.values()
        assert {op.name for op, _, _ in entries} == {"a/op0", "b/op0"}
        # every access was made under the location's lock
        assert all(lockset for _, _, lockset in entries)
        # pinned threads occupy exactly one PU each, ever
        assert mon.placements
        assert all(len(h) == 1 for h in mon.placements.values())
        assert result.migrations == 0

    def test_no_race_between_locked_ops(self):
        result = run_dynamic(tiny_runtime)
        assert result.races == []

    def test_blocks_and_finishes_counted(self):
        result = run_dynamic(tiny_runtime)
        assert result.monitor.finished >= 2
        assert result.monitor.blocks > 0


class TestCrossCheckLogic:
    def test_unconfirmed_race_is_note(self):
        static = Report(program="p")
        static.add("error", "data-race", "m", subject="buf")
        result = DynamicResult(completed=True, deadlocked=False)
        findings = cross_check(static, result)
        assert [f.code for f in findings] == ["race-unconfirmed"]
        assert findings[0].severity == "note"
        assert findings[0].source == "dynamic"

    def test_unpredicted_deadlock_is_warning(self):
        static = Report(program="p")
        result = DynamicResult(
            completed=False, deadlocked=True, blocked=["a on 'x'"]
        )
        findings = cross_check(static, result)
        assert [f.code for f in findings] == ["deadlock-unpredicted"]
        assert findings[0].severity == "warning"

    def test_migration_contradiction_is_error(self):
        static = Report(program="p")
        result = DynamicResult(
            completed=True, deadlocked=False, migrations=5
        )
        findings = cross_check(static, result, migrations_proved=True)
        assert [f.code for f in findings] == ["migration-despite-binding"]
        assert findings[0].severity == "error"


class TestWaitForGraph:
    def test_zero_lag_cycle_found(self):
        g = WaitForGraph()
        g.add_node("a", "A")
        g.add_node("b", "B")
        g.add_edge("a", "b", 0)
        g.add_edge("b", "a", 0)
        sccs = g.zero_lag_sccs()
        assert len(sccs) == 1
        assert set(sccs[0]) == {"a", "b"}

    def test_lagged_cycle_is_fine(self):
        # An iteration wrap-around edge (lag 1) must not be a deadlock.
        g = WaitForGraph()
        g.add_node("a", "A")
        g.add_node("b", "B")
        g.add_edge("a", "b", 0)
        g.add_edge("b", "a", 1)
        assert g.zero_lag_sccs() == []
