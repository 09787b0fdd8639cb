"""Span arithmetic, wrapper install/uninstall, profile rollup."""

import cProfile
import sys
from pathlib import Path

import pytest

import bench.workloads  # noqa: F401  (loads the program, experiments first)
from bench import layers, profiling


def scripted(*times):
    """A clock returning *times* in order (the first is the origin)."""
    return iter(times).__next__


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 6].
    t = layers.Tracer(clock=scripted(0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0))
    t.begin("a")
    t.begin("b")
    t.begin("c")
    t.end()
    t.end()
    t.begin("d")
    t.end()
    t.end()
    assert dict(t.self_time) == {"a": 6.0, "b": 2.0, "c": 1.0, "d": 1.0}
    assert dict(t.busy) == {"a": 10.0, "b": 3.0, "c": 1.0, "d": 1.0}
    assert dict(t.calls) == {"a": 1, "b": 1, "c": 1, "d": 1}
    assert t.top_time == 10.0
    assert t.events == [
        ("c", 2.0, 3.0), ("b", 1.0, 4.0), ("d", 5.0, 6.0), ("a", 0.0, 10.0)
    ]


def test_recursive_span_counts_busy_time_once():
    # a [0, 10] holds a second a [2, 5].
    t = layers.Tracer(clock=scripted(0.0, 0.0, 2.0, 5.0, 10.0))
    t.begin("a")
    t.begin("a")
    t.end()
    t.end()
    assert t.calls["a"] == 2
    assert t.busy["a"] == 10.0
    assert t.self_time["a"] == 10.0


def test_span_closes_when_the_call_raises():
    t = layers.Tracer(clock=scripted(0.0, 1.0, 3.0))
    with pytest.raises(ZeroDivisionError):
        t.span("x", lambda: 1 / 0)
    assert t.busy["x"] == 2.0 and not t.inside("x")


def _bindings() -> dict:
    """Every binding a span target has: ``(owner, attr) -> original``."""
    out = {}
    for _, module, attr in layers.SPANS:
        cls, name, original = layers.resolve(module, attr)
        if cls is not None:
            out[(cls, name)] = original
            continue
        for modname, mod in list(sys.modules.items()):
            if mod is not None and modname.startswith("repro"):
                for key, value in vars(mod).items():
                    if value is original:
                        out[(mod, key)] = original
    return out


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    before = _bindings()
    # Names bound by ``from x import f`` must be covered too.
    import repro.affinity.controller as controller
    import repro.orwl.affinity as orwl_affinity
    import repro.parallel.executor as executor

    assert (controller, "treematch_map") in before
    assert (orwl_affinity, "treematch_map") in before
    assert (executor, "run_cell") in before

    tracer = layers.Tracer()
    with layers.Patcher() as patcher:
        layers.install_tracing(patcher, tracer)
        for (owner, attr), original in before.items():
            assert _current(owner, attr) is not original, (owner, attr)
        from repro.affinity.drift import DriftDetector

        DriftDetector().update(0.5)
        assert tracer.calls["affinity.drift_update"] == 1
    for (owner, attr), original in before.items():
        assert _current(owner, attr) is original, (owner, attr)


def test_install_counting_restores_the_op_target():
    import repro.parallel.executor as executor
    import repro.parallel.jobs as jobs
    from repro.sim.machine import SimMachine

    from bench.harness import Recorder

    original, run = jobs.run_cell, SimMachine.__dict__["run"]
    with layers.Patcher() as patcher:
        layers.install_counting(patcher, {}, op=("repro.parallel.jobs", "run_cell"),
                                recorder=Recorder(), sim=True)
        assert jobs.run_cell is not original
        assert executor.run_cell is jobs.run_cell
        assert SimMachine.__dict__["run"] is not run
    assert jobs.run_cell is original and executor.run_cell is original
    assert SimMachine.__dict__["run"] is run


def test_profile_rollup_by_program_module():
    src = Path(profiling.__file__).resolve().parents[1] / "src" / "repro"
    assert profiling.module_of(str(src / "sim" / "soa.py")) == "sim.soa"
    assert profiling.module_of(str(src / "apps" / "video" / "__init__.py")) == "apps.video"
    assert profiling.module_of("~") is None

    from repro.util.bitmap import Bitmap

    prof = cProfile.Profile()
    prof.enable()
    for _ in range(5):
        Bitmap.single(3)
    prof.disable()
    modules = profiling.rollup(prof)
    assert modules["util.bitmap"]["calls"] >= 5
    assert all(row["self_s"] >= 0 for row in modules.values())
