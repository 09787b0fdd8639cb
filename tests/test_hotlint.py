"""Hot-loop purity lint: the tree is clean and each rule catches its bug."""

import textwrap

from repro.analyze.hotlint import lint_source, run_hotlint


def lint(source, **kwargs):
    return lint_source(textwrap.dedent(source), **kwargs)


def codes(findings):
    return [f.code for f in findings]


class TestTreeIsClean:
    def test_hot_targets_lint_clean(self):
        report = run_hotlint()
        assert [f for f in report.findings if f.severity == "error"] == []

    def test_all_configured_targets_found(self):
        # A rename in the simulator must update the lint config too.
        report = run_hotlint()
        assert "hot-target-missing" not in {f.code for f in report.findings}
        assert "hot-missing-slots" not in {f.code for f in report.findings}


class TestAllocRule:
    def test_dict_display_in_while_flagged(self):
        findings = lint("""
            def drain(q):
                while q:
                    state = {"head": q[0]}
                    q.pop()
        """)
        assert codes(findings) == ["hot-loop-alloc"]
        assert findings[0].line == 4

    def test_comprehension_flagged(self):
        findings = lint("""
            def drain(q):
                while q:
                    live = [t for t in q if t.ready]
                    q.pop()
        """)
        assert codes(findings) == ["hot-loop-alloc"]

    def test_builtin_ctor_flagged(self):
        findings = lint("""
            def drain(q):
                while q:
                    order = sorted(q)
                    q.pop()
        """)
        assert codes(findings) == ["hot-loop-alloc"]

    def test_list_display_allowed(self):
        # Fixed-size list displays compile to BUILD_LIST — cheap, common.
        findings = lint("""
            def drain(q):
                while q:
                    pair = [q[0], q[-1]]
                    q.pop()
        """)
        assert findings == []

    def test_raise_path_exempt(self):
        findings = lint("""
            def drain(q):
                while q:
                    if q[0] is None:
                        raise ValueError(f"bad head in {sorted(q)}")
                    q.pop()
        """)
        assert findings == []

    def test_outside_while_allowed(self):
        findings = lint("""
            def drain(q):
                seen = {q[0]: True}
                while q:
                    q.pop()
        """)
        assert findings == []

    def test_suppression_comment(self):
        findings = lint("""
            def drain(q):
                while q:
                    order = sorted(q)  # hotlint: ok(alloc)
                    q.pop()
        """)
        assert findings == []

    def test_nested_def_in_while_flagged_once(self):
        findings = lint("""
            def drain(q):
                while q:
                    fn = lambda: 1
                    q.pop()
        """)
        assert codes(findings) == ["hot-loop-alloc"]


class TestTapRule:
    def test_unguarded_tap_flagged(self):
        findings = lint("""
            def run(self):
                while self.pending:
                    self.step()
                    notify_monitors(self)
        """, rules=("tap",))
        assert codes(findings) == ["hot-tap-unguarded"]

    def test_guarded_tap_allowed(self):
        findings = lint("""
            def run(self):
                while self.pending:
                    self.step()
                    if self.monitors:
                        notify_monitors(self)
        """, rules=("tap",))
        assert findings == []


class TestSelfAttrRule:
    def test_self_attr_in_while_body_flagged(self):
        findings = lint("""
            def run(self):
                while True:
                    x = self.pending
        """, rules=("self-attr",))
        assert codes(findings) == ["hot-self-attr"]

    def test_while_condition_itself_allowed(self):
        # The loop must re-check its own condition; only body traffic
        # is expected to be hoisted.
        findings = lint("""
            def run(self):
                while self.pending:
                    pass
        """, rules=("self-attr",))
        assert findings == []

    def test_hoisted_local_allowed(self):
        findings = lint("""
            def run(self):
                pending = self.pending
                while pending:
                    pending.pop()
        """, rules=("self-attr",))
        assert findings == []


class TestSlotsRule:
    def test_missing_slots_flagged(self):
        findings = lint("""
            class Event:
                def __init__(self):
                    self.when = 0.0
        """, rules=(), slots_classes=("Event",))
        assert codes(findings) == ["hot-missing-slots"]

    def test_present_slots_clean(self):
        findings = lint("""
            class Event:
                __slots__ = ("when",)

                def __init__(self):
                    self.when = 0.0
        """, rules=(), slots_classes=("Event",))
        assert findings == []


class TestTargetResolution:
    def test_missing_qualname_warns(self):
        findings = lint("def f():\n    pass\n", qualname="Engine.run")
        assert codes(findings) == ["hot-target-missing"]
        assert findings[0].severity == "warning"

    def test_qualname_scopes_the_scan(self):
        src = """
            class Engine:
                def run(self):
                    while self.q:
                        x = sorted(self.q)

            def cold():
                while True:
                    y = sorted([])
        """
        findings = lint(src, qualname="Engine.run", rules=("alloc",))
        assert len(findings) == 1
        assert "Engine.run" in findings[0].message or findings[0].line == 5


class TestPerCallTargets:
    def test_whole_body_scanned(self):
        src = """
            def place(free):
                candidates = [p for p in free if p]
                return candidates[0]
        """
        assert codes(lint(src, per_call=True)) == ["hot-loop-alloc"]
        assert lint(src) == []

    def test_list_scan_placement_flagged(self):
        # The list-scan place() the per-node masks replaced: the guard
        # must catch its candidate lists, node_key closure and generator.
        import inspect

        from tests.harness.sched_oracle import ListScanScheduler

        src = inspect.getsource(ListScanScheduler)
        findings = lint(src, qualname="ListScanScheduler.place",
                        rules=("alloc",), per_call=True)
        assert len(findings) >= 4
        assert set(codes(findings)) == {"hot-loop-alloc"}

    def test_scheduler_place_guarded_without_suppressions(self):
        from pathlib import Path

        import repro.sim.scheduler as scheduler
        from repro.analyze.hotlint import HOT_TARGETS, PER_CALL_TARGETS

        assert ("repro/sim/scheduler.py", "OSScheduler.place",
                ("alloc",)) in HOT_TARGETS
        assert "OSScheduler.place" in PER_CALL_TARGETS
        assert "hotlint:" not in Path(scheduler.__file__).read_text()
