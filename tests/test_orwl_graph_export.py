"""Tests for the DFG export (Fig. 3 rendering) and remaining machine ops."""

import pytest

from repro.apps.video import VideoConfig
from repro.apps.video.pipeline import build_orwl_video
from repro.orwl import Runtime
from repro.orwl.graph import edge_list, to_dot
from repro.sim import Compute, SimMachine
from repro.topology import fig2_machine, smp20e7_4s
from repro.util.bitmap import Bitmap


def small_program():
    rt = Runtime(fig2_machine(), affinity=False)
    a, b = rt.task("prod"), rt.task("cons")
    loc = a.location("chan", 512)
    a.write_handle(loc, iterative=True)
    h = b.read_handle(loc, iterative=True)
    h.traffic = 128.0
    return rt


class TestEdgeList:
    def test_edges_and_traffic(self):
        rt = small_program()
        edges = edge_list(rt)
        assert ("prod/op0", "chan", "w", 512.0) in edges
        assert ("chan", "cons/op0", "r", 128.0) in edges

    def test_video_graph_edge_count(self):
        rt = Runtime(smp20e7_4s(), affinity=False)
        build_orwl_video(rt, VideoConfig(resolution="HD", frames=1))
        edges = edge_list(rt)
        # every handle (declared or split/fifo-attached) gives one edge
        n_handles = sum(len(op.all_handles) for op in rt.operations)
        assert len(edges) == n_handles
        assert any(len(op.ext_handles) > 0 for op in rt.operations)


class TestDot:
    def test_dot_structure(self):
        dot = to_dot(small_program(), name="demo")
        assert dot.startswith('digraph "demo" {')
        assert dot.rstrip().endswith("}")
        assert '"prod/op0" [shape=box' in dot
        assert '"chan" [shape=ellipse' in dot
        assert '"prod/op0" -> "chan"' in dot
        assert '"chan" -> "cons/op0"' in dot

    def test_write_solid_read_dashed(self):
        dot = to_dot(small_program())
        assert "style=solid" in dot
        assert "style=dashed" in dot

    def test_video_dot_contains_fig3_nodes(self):
        rt = Runtime(smp20e7_4s(), affinity=False)
        build_orwl_video(rt, VideoConfig(resolution="HD", frames=1))
        dot = to_dot(rt)
        for node in ("producer", "gmm", "erode", "dilate", "ccl",
                     "tracking", "consumer", "fg_mask"):
            assert node in dot


class TestMachineRemainingOps:
    def test_max_cycles_partial_run(self):
        m = SimMachine(fig2_machine())
        m.add_thread("t", iter([Compute(1e12)]), cpuset=Bitmap.single(0))
        m.run_window(1e6)
        assert m.threads[0].state != "done"

    def test_busy_cycles_accumulate(self):
        m = SimMachine(fig2_machine())
        m.add_thread("t", iter([Compute(1000.0)]), cpuset=Bitmap.single(0))
        m.run()
        assert m.total_counters().busy_cycles == pytest.approx(500.0)
