"""Tests for the persistence / reporting conveniences."""

import numpy as np
import pytest

from repro.errors import MappingError, TopologyError
from repro.orwl import Runtime
from repro.sim.process import Compute
from repro.topology import smp12e5, smp20e7_4s
from repro.topology.serialize import load_topology, save_topology
from repro.treematch import CommunicationMatrix, Placement, treematch_map


class TestTopologyFiles:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "machine.json"
        topo = smp12e5()
        save_topology(topo, path)
        clone = load_topology(path)
        assert clone.n_pus == topo.n_pus
        assert clone.level_arities() == topo.level_arities()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(TopologyError):
            load_topology(tmp_path / "nope.json")

    def test_load_garbage(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(TopologyError):
            load_topology(p)


class TestPlacementSerialization:
    def make_placement(self):
        m = np.zeros((6, 6))
        for i in range(5):
            m[i + 1, i] = 10
        return treematch_map(smp12e5(), CommunicationMatrix(m), n_control=6)

    def test_roundtrip(self):
        pl = self.make_placement()
        clone = Placement.from_dict(pl.to_dict())
        assert clone.thread_to_pu == pl.thread_to_pu
        assert clone.control_to_pu == pl.control_to_pu
        assert clone.control_mode == pl.control_mode
        assert clone.granularity == pl.granularity

    def test_json_compatible(self):
        import json

        pl = self.make_placement()
        blob = json.dumps(pl.to_dict())
        clone = Placement.from_dict(json.loads(blob))
        assert clone.thread_to_pu == pl.thread_to_pu

    def test_bad_record_rejected(self):
        with pytest.raises(MappingError):
            Placement.from_dict({"thread_to_pu": {"x": "y"}})
        with pytest.raises(MappingError):
            Placement.from_dict({})


class TestRunReport:
    def test_report_fields(self):
        rt = Runtime(smp20e7_4s(), affinity=True)
        t = rt.task("a")
        loc = t.location("x", 4096)
        h = t.write_handle(loc, iterative=True)

        def body(op):
            for _ in range(3):
                yield from h.acquire()
                yield Compute(1e6)
                h.release()

        t.set_body(body)
        res = rt.run()
        text = res.report()
        for token in ("elapsed", "GFLOP/s", "utilization", "migrations",
                      "placement"):
            assert token in text
        assert "control=" in text

    def test_utilization_bounds(self):
        rt = Runtime(smp20e7_4s(), affinity=False)
        t = rt.task("a")
        t.set_body(lambda op: iter([Compute(1e6)]))
        res = rt.run()
        assert 0.0 <= res.machine.utilization() <= 1.0
