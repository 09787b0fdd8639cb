"""Hot-loop purity lint: the tree is clean and each rule catches its bug."""

import re
import textwrap

import pytest

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


class TestConstructionRule:
    """The alloc rule sees constructions of the per-event classes where it
    sees displays: in hot while loops and anywhere in a per-call target."""

    @pytest.mark.parametrize(
        "cls", ["Touch", "Compute", "Wait", "SimEvent", "Request"]
    )
    def test_construction_in_while_flagged(self, cls):
        findings = lint(f"""
            def body(q, x):
                while q:
                    yield {cls}(x)
                    q.pop()
        """)
        assert codes(findings) == ["hot-loop-alloc"]
        assert findings[0].line == 4
        assert f"{cls}(...)" in findings[0].message

    def test_dotted_construction_flagged(self):
        findings = lint("""
            def body(q, buf):
                while q:
                    yield process.Touch(buf, 64)
                    q.pop()
        """)
        assert codes(findings) == ["hot-loop-alloc"]

    def test_op_built_before_the_loop_allowed(self):
        findings = lint("""
            def body(q, buf):
                op = Touch(buf, 64)
                while q:
                    yield op
                    q.pop()
        """)
        assert findings == []

    def test_other_classes_and_raise_path_allowed(self):
        findings = lint("""
            def body(q):
                while q:
                    if q[0] is None:
                        raise SimulationError(repr(Wait(q)))
                    item = Item(q.pop())
        """)
        assert findings == []

    def test_per_call_construction_flagged(self):
        # Handle.touch as it was before it kept one op per byte count.
        src = """
            class Handle:
                def touch(self, nbytes=None):
                    if not self.held:
                        raise HandleStateError(f"{self}: touch while not held")
                    return Touch(self.location.buffer, nbytes,
                                 write=(self.mode == "w"))
        """
        findings = lint(src, qualname="Handle.touch", rules=("alloc",),
                        per_call=True)
        assert codes(findings) == ["hot-loop-alloc"]
        assert "Touch(...)" in findings[0].message
        assert lint(src, qualname="Handle.touch", rules=("alloc",)) == []

    def test_suppressed_construction(self):
        findings = lint("""
            def new_request(self):
                return Request(self, self.mode)  # hotlint: ok(alloc) — FIFO entry
        """, rules=("alloc",), per_call=True)
        assert findings == []


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
        # The list-scan place() the free-PU masks replaced: the guard
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

    def test_loop_free_function_targets_are_per_call(self):
        # Outside PER_CALL_TARGETS only while bodies are scanned, so a
        # loop-free function target would be checked for nothing.
        import ast
        from pathlib import Path

        import repro
        from repro.analyze.hotlint import (
            HOT_TARGETS,
            PER_CALL_TARGETS,
            _resolve_qualname,
        )

        root = Path(repro.__file__).resolve().parent.parent
        for rel_path, qualname, _rules in HOT_TARGETS:
            node = _resolve_qualname(
                ast.parse((root / rel_path).read_text()), qualname
            )
            if isinstance(node, ast.ClassDef):
                continue
            has_loop = any(isinstance(n, ast.While) for n in ast.walk(node))
            assert has_loop or qualname in PER_CALL_TARGETS, qualname

    def test_block_rng_draws_guarded_without_suppressions(self):
        from pathlib import Path

        import repro.util.rng as rng
        from repro.analyze.hotlint import HOT_TARGETS, PER_CALL_TARGETS

        for draw in ("BlockRng.random", "BlockRng.uniform"):
            assert ("repro/util/rng.py", draw, ("alloc",)) in HOT_TARGETS
            assert draw in PER_CALL_TARGETS
        assert "hotlint:" not in Path(rng.__file__).read_text()


class TestOrwlHandOff:
    #: Handle._new_request as it was when every iteration made its own
    #: grant event, named per iteration.
    PER_ITERATION_REQUEST = """
        class Handle:
            def _new_request(self):
                runtime = self.op.task.runtime
                event = runtime.machine.event(
                    f"{self.location.name}:{self.op.name}:{self.mode}{self.iteration}"
                )
                req = Request(self, self.mode, event)
                self.current_request = req
                return req
    """

    HAND_OFF = (
        ("repro/orwl/handle.py", "Handle._new_request"),
        ("repro/orwl/handle.py", "Handle.release"),
        ("repro/orwl/handle.py", "Handle.acquire"),
        ("repro/orwl/handle.py", "Handle.touch"),
        ("repro/orwl/location.py", "LocationFIFO.advance"),
        ("repro/orwl/location.py", "LocationFIFO.release"),
        ("repro/orwl/runtime.py", "Runtime._control_body"),
    )

    def test_per_iteration_event_flagged(self):
        findings = lint(self.PER_ITERATION_REQUEST,
                        qualname="Handle._new_request", rules=("alloc",),
                        per_call=True)
        assert codes(findings) == ["hot-loop-alloc"] * 2
        assert "f-string" in findings[0].message
        assert "Request(...)" in findings[1].message

    def test_request_without_slots_caught(self):
        findings = lint("""
            from dataclasses import dataclass

            @dataclass(eq=False)
            class Request:
                mode: str
        """, rules=(), slots_classes=("Request",))
        assert codes(findings) == ["hot-missing-slots"]

    def test_slots_false_caught(self):
        findings = lint("""
            import dataclasses

            @dataclasses.dataclass(slots=False)
            class Request:
                mode: str
        """, rules=(), slots_classes=("Request",))
        assert codes(findings) == ["hot-missing-slots"]

    def test_slotted_dataclass_accepted(self):
        for decorator in ("dataclass(slots=True, eq=False)",
                          "dataclasses.dataclass(slots=True)"):
            findings = lint(f"""
                import dataclasses
                from dataclasses import dataclass

                @{decorator}
                class Request:
                    mode: str
            """, rules=(), slots_classes=("Request",))
            assert findings == [], decorator

    #: Constructions the hand-off keeps on purpose, per file: the first
    #: Touch of each byte count and each Request (handle.py), and the
    #: control thread's two ops, made before its loop (runtime.py).
    KEPT = {"handle.py": 2, "location.py": 0, "runtime.py": 2}

    def test_hand_off_pinned_with_reasoned_suppressions(self):
        from pathlib import Path

        import repro
        from repro.analyze.hotlint import (
            HOT_TARGETS,
            PER_CALL_TARGETS,
            SLOTS_REQUIRED,
        )

        root = Path(repro.__file__).resolve().parent
        for rel_path, qualname in self.HAND_OFF:
            assert (rel_path, qualname, ("alloc",)) in HOT_TARGETS
            assert qualname in PER_CALL_TARGETS
        for name, kept in self.KEPT.items():
            lines = [line for line in
                     (root / "orwl" / name).read_text().splitlines()
                     if "hotlint:" in line]
            assert len(lines) == kept, name
            for line in lines:
                # Each names the rule it waives and says why.
                assert re.search(r"# hotlint: ok\(alloc\) — \w", line), line
        assert SLOTS_REQUIRED["repro/orwl/location.py"] == ("Request",)
        assert set(SLOTS_REQUIRED["repro/sim/process.py"]) == {
            "SimEvent", "SimThread", "Compute", "Touch", "Wait",
        }
