"""Tests for the program linter and the ring trace's Gantt rendering."""


from repro.orwl import Runtime
from repro.sim.observe import RingTrace, SimObserver
from repro.sim.process import Compute
from repro.topology import fig2_machine


def issue_codes(rt):
    return sorted(i.code for i in rt.validate())


class TestLint:
    def test_clean_pipeline_has_no_warnings(self):
        rt = Runtime(fig2_machine(), affinity=False)
        a, b = rt.task("a"), rt.task("b")
        loc = a.location("chan", 64)
        a.write_handle(loc, iterative=True)
        b.read_handle(loc, iterative=True)
        issues = rt.validate()
        assert [i for i in issues if i.level == "warning"] == []

    def test_unread_location_noted(self):
        rt = Runtime(fig2_machine(), affinity=False)
        a = rt.task("a")
        loc = a.location("out", 64)
        a.write_handle(loc, iterative=True)
        assert "unread-location" in issue_codes(rt)

    def test_writerless_location_warned(self):
        rt = Runtime(fig2_machine(), affinity=False)
        a, b = rt.task("a"), rt.task("b")
        loc = a.location("src", 64)
        b.read_handle(loc, iterative=True)
        codes = issue_codes(rt)
        assert "writerless-location" in codes
        assert "absent-owner" in codes

    def test_orphan_location_warned(self):
        rt = Runtime(fig2_machine(), affinity=False)
        a = rt.task("a")
        a.location("dead", 64)
        assert "orphan-location" in issue_codes(rt)

    def test_handleless_operation_noted(self):
        rt = Runtime(fig2_machine(), affinity=False)
        a, b = rt.task("a"), rt.task("b")
        loc = a.location("x", 64)
        a.write_handle(loc, iterative=True)
        b.main_op  # op with no handles
        assert "handleless-operation" in issue_codes(rt)

    def test_mixed_iteration_noted(self):
        rt = Runtime(fig2_machine(), affinity=False)
        a, b = rt.task("a"), rt.task("b")
        loc = a.location("x", 64)
        a.write_handle(loc, iterative=True)
        b.read_handle(loc, iterative=False)
        assert "mixed-iteration" in issue_codes(rt)

    def test_issue_levels(self):
        rt = Runtime(fig2_machine(), affinity=False)
        a = rt.task("a")
        a.location("dead", 64)
        levels = {i.level for i in rt.validate()}
        assert levels <= {"warning", "note"}


class TestGantt:
    def run_traced(self):
        rt = Runtime(fig2_machine(), affinity=True,
                     observer=SimObserver(trace=RingTrace()))
        a, b = rt.task("a"), rt.task("b")
        loc = a.location("chan", 4096)
        hw = a.write_handle(loc, iterative=True)
        hr = b.read_handle(loc, iterative=True)

        def wbody(op):
            for _ in range(3):
                yield from hw.acquire()
                yield Compute(1e6)
                hw.release()

        def rbody(op):
            for _ in range(3):
                yield from hr.acquire()
                yield Compute(1e6)
                hr.release()

        a.set_body(wbody)
        b.set_body(rbody)
        res = rt.run()
        return res, rt.machine.observer.ring

    def test_gantt_renders_rows(self):
        res, ring = self.run_traced()
        chart = ring.gantt(
            names={t.tid: t.name for t in res.machine.threads}, width=40
        )
        lines = chart.splitlines()
        assert len(lines) == len(res.machine.threads)
        assert any("#" in ln for ln in lines)
        assert any("a/op0" in ln for ln in lines)

    def test_gantt_width_respected(self):
        _, ring = self.run_traced()
        chart = ring.gantt(width=25)
        for line in chart.splitlines():
            bar = line.split("|")[1]
            assert len(bar) == 25

    def test_empty_trace(self):
        assert RingTrace().gantt() == "(empty trace)"

    def test_max_threads_cap(self):
        _, ring = self.run_traced()
        chart = ring.gantt(max_threads=1)
        assert len(chart.splitlines()) == 1


class TestDeterminism:
    def test_same_seed_same_result(self):
        def run(seed):
            rt = Runtime(fig2_machine(), affinity=False, seed=seed)
            tasks = [rt.task(f"t{i}") for i in range(6)]
            locs = [t.location("l", 8192) for t in tasks]
            for i, t in enumerate(tasks):
                hw = t.write_handle(locs[i], iterative=True)
                hr = t.read_handle(locs[i - 1], iterative=True)

                def body(op, hw=hw, hr=hr):
                    for _ in range(5):
                        yield from hw.acquire()
                        yield Compute(2e6)
                        hw.release()
                        yield from hr.acquire()
                        yield hr.touch()
                        hr.release()

                t.set_body(body)
            res = rt.run()
            return (res.seconds, res.counters.cpu_migrations,
                    res.counters.context_switches, res.counters.l3_misses)

        assert run(7) == run(7)

    def test_different_seed_may_differ_but_completes(self):
        def run(seed):
            rt = Runtime(fig2_machine(), affinity=False, seed=seed)
            t = rt.task("t")
            loc = t.location("l", 64)
            h = t.write_handle(loc, iterative=True)

            def body(op):
                for _ in range(50):
                    yield from h.acquire()
                    yield Compute(5e7)
                    h.release()

            t.set_body(body)
            return rt.run().seconds

        assert run(1) > 0 and run(2) > 0


class TestFindingFormatting:
    """The findings model contract (Issue is an alias of Finding now)."""

    def test_str_format(self):
        from repro.orwl.lint import Issue

        issue = Issue("warning", "writerless-location",
                      "location 'src' has readers but no writer")
        assert str(issue) == (
            "[warning] writerless-location: "
            "location 'src' has readers but no writer"
        )

    def test_issue_is_finding_alias(self):
        from repro.analyze.report import Finding
        from repro.orwl.lint import Issue

        assert Issue is Finding

    def test_level_aliases_severity(self):
        from repro.orwl.lint import Issue

        issue = Issue("note", "x", "m")
        assert issue.level == issue.severity == "note"

    def test_stable_finding_order(self):
        from repro.analyze.report import Finding, sort_findings

        notes_first = [
            Finding("note", "b-code", "m"),
            Finding("warning", "z-code", "m", subject="s2"),
            Finding("warning", "z-code", "m", subject="s1"),
            Finding("error", "a-code", "m"),
        ]
        ordered = sort_findings(notes_first)
        assert [f.severity for f in ordered] == [
            "error", "warning", "warning", "note"
        ]
        # ties broken by code then subject, deterministically
        assert [f.subject for f in ordered[1:3]] == ["s1", "s2"]
        assert sort_findings(list(reversed(notes_first))) == ordered

    def test_validate_returns_canonical_order(self):
        rt = Runtime(fig2_machine(), affinity=False)
        a = rt.task("a")
        a.location("dead_b", 64)
        a.location("dead_a", 64)
        issues = rt.validate()
        from repro.analyze.report import sort_findings

        assert issues == sort_findings(issues)


class TestLintSplitPrograms:
    """Regression: handles attached via orwl_split / orwl_fifo extensions
    count as attachments — split programs are not orphan-location."""

    def test_split_readers_not_orphan(self):
        from repro.orwl.split import split_readers

        rt = Runtime(fig2_machine(), affinity=False)
        writer = rt.task("w")
        readers = [rt.task(f"r{i}") for i in range(3)]
        loc = writer.location("frame", 4096)
        writer.write_handle(loc, iterative=True)
        split_readers(loc, [t.main_op for t in readers])
        codes = issue_codes(rt)
        assert "orphan-location" not in codes
        assert "unread-location" not in codes

    def test_split_only_location_not_orphan(self):
        # Even a location reached *exclusively* through ext handles is
        # attached: this was the spurious-orphan bug.
        from repro.orwl.split import split_readers

        rt = Runtime(fig2_machine(), affinity=False)
        owner = rt.task("owner")
        reader = rt.task("r")
        loc = owner.location("shared", 1024)
        split_readers(loc, [reader.main_op])
        assert "orphan-location" not in issue_codes(rt)

    def test_fifo_channel_slots_not_orphan(self):
        from repro.orwl.split import fifo_channel

        rt = Runtime(fig2_machine(), affinity=False)
        prod, cons = rt.task("prod"), rt.task("cons")
        chan = fifo_channel(prod.main_op, "pipe", 256, depth=3)
        chan.writer(prod.main_op)
        chan.reader(cons.main_op)
        codes = issue_codes(rt)
        assert "orphan-location" not in codes
        assert "writerless-location" not in codes
