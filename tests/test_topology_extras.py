"""Tests for distances, binding helpers, rendering and serialization."""

import json

import numpy as np
import pytest

from repro.errors import BindingError, MappingError, TopologyError
from repro.topology import (
    fig2_machine,
    numa_distance_matrix,
    render_ascii,
    render_mapping,
    smp12e5,
    topology_from_dict,
    topology_to_dict,
)
from repro.topology.binding import full_cpuset, singlify, validate_cpuset
from repro.topology.distance import LOCAL_DISTANCE, router_hops
from repro.topology.serialize import load_topology
from repro.treematch.mapping import Placement
from repro.util.bitmap import Bitmap


class TestDistance:
    def test_router_hops_basics(self):
        assert router_hops(3, 3) == 0
        assert router_hops(0, 1) == 1
        assert router_hops(0, 2) == 2
        assert router_hops(1, 2) == 2
        assert router_hops(0, 4) == 3
        assert router_hops(0, 16) == 5

    def test_hops_symmetric(self):
        for a in range(8):
            for b in range(8):
                assert router_hops(a, b) == router_hops(b, a)

    def test_distance_matrix_properties(self):
        topo = smp12e5()
        d = numa_distance_matrix(topo)
        assert d.shape == (12, 12)
        assert np.allclose(np.diag(d), LOCAL_DISTANCE)
        assert np.allclose(d, d.T)
        assert (d[~np.eye(12, dtype=bool)] > LOCAL_DISTANCE).all()

    def test_farther_nodes_cost_more(self):
        d = numa_distance_matrix(smp12e5())
        assert d[0, 1] < d[0, 2] < d[0, 4] < d[0, 8]


class TestBinding:
    def test_validate_rejects_empty(self):
        with pytest.raises(BindingError):
            validate_cpuset(fig2_machine(), Bitmap())

    def test_validate_rejects_foreign(self):
        with pytest.raises(BindingError):
            validate_cpuset(fig2_machine(), Bitmap([999]))

    def test_validate_passes_subset(self):
        topo = fig2_machine()
        cs = Bitmap([0, 5])
        assert validate_cpuset(topo, cs) == cs

    def test_singlify(self):
        assert list(singlify(Bitmap([4, 9]))) == [4]
        with pytest.raises(BindingError):
            singlify(Bitmap())

    def test_full_cpuset(self):
        topo = fig2_machine()
        assert len(full_cpuset(topo)) == topo.n_pus


class TestRender:
    def test_ascii_contains_all_levels(self):
        text = render_ascii(fig2_machine())
        for token in ("Machine", "Blade", "NUMANode", "Package", "L3", "Core", "PU P#31"):
            assert token in text

    def test_ascii_depth_limit(self):
        shallow = render_ascii(fig2_machine(), max_depth=1)
        assert "PU" not in shallow

    def test_mapping_render_shows_threads_and_reserved(self):
        topo = fig2_machine()
        text = render_mapping(
            topo,
            {0: 0, 1: 1},
            {0: "producer", 1: "gmm"},
            reserved={22: "control", 23: "control"},
        )
        assert "0:producer" in text
        assert "1:gmm" in text
        assert "<control>" in text


def _topology_record(core=None, l3=None, root=None, pu=None):
    """A one-core topology record, each level's fields overridden."""
    pu = {"type": "PU", "os_index": 0, **(pu or {})}
    core_d = {"type": "Core", "children": [pu], **(core or {})}
    l3_d = {"type": "L3", "cache": {"size": 1024}, "children": [core_d],
            **(l3 or {})}
    return {"format": 1, "name": "m",
            "root": {"type": "Machine", "children": [l3_d], **(root or {})}}


class TestSerialize:
    def test_roundtrip_preserves_shape(self):
        topo = smp12e5()
        clone = topology_from_dict(topology_to_dict(topo))
        assert clone.n_pus == topo.n_pus
        assert clone.n_cores == topo.n_cores
        assert clone.level_arities() == topo.level_arities()
        assert clone.root.attrs["clock_hz"] == topo.root.attrs["clock_hz"]

    def test_roundtrip_preserves_caches(self):
        from repro.topology.objects import ObjType

        topo = fig2_machine()
        clone = topology_from_dict(topology_to_dict(topo))
        l3s = clone.objects_by_type(ObjType.L3)
        assert l3s and l3s[0].cache.size == 20480 * 1024

    def test_bad_format_rejected(self):
        with pytest.raises(TopologyError):
            topology_from_dict({"format": 99})

    def test_missing_root_rejected(self):
        with pytest.raises(TopologyError):
            topology_from_dict({"format": 1})

    @pytest.mark.parametrize("record, error, where", [
        ([1, 2], TopologyError, "JSON object"),
        ({**_topology_record(), "root": "x"}, TopologyError, "root"),
        (_topology_record(l3={"children": ["x"]}), TopologyError,
         "root.children[0].children[0]"),
        (_topology_record(l3={"cache": {"line": 64}}), TopologyError,
         "root.children[0]"),
        (_topology_record(core={"os_index": "x"}), TopologyError,
         "root.children[0].children[0]"),
        (_topology_record(root={"children": 3}), TopologyError, "root"),
        (_topology_record(root={"attrs": [1, 2]}), TopologyError, "root"),
        ({"thread_to_pu": [1, 2]}, MappingError, "placement"),
        (_topology_record(core={"os_index": float("inf")}), TopologyError,
         "root.children[0].children[0]"),
        (_topology_record(l3={"cache": {"size": float("inf")}}),
         TopologyError, "root.children[0]"),
        ({"thread_to_pu": {"0": float("inf")}}, MappingError, "placement"),
        ({"thread_to_pu": {}, "oversub_factor": float("inf")}, MappingError,
         "placement"),
        (_topology_record(pu={"os_index": 2**63}), TopologyError, "os_index"),
        (_topology_record(pu={"os_index": 10**30}), TopologyError, "os_index"),
        (_topology_record(pu={"os_index": 10**9}), TopologyError, "os_index"),
        # A placement record holds only what Placement.to_dict writes.
        ({"thread_to_pu": {"1_0": 0}}, MappingError, "thread_to_pu key"),
        ({"thread_to_pu": {" 2": 0}}, MappingError, "thread_to_pu key"),
        ({"thread_to_pu": {"0": 2.9}}, MappingError, "thread_to_pu['0']"),
        ({"thread_to_pu": {"0": True}}, MappingError, "thread_to_pu['0']"),
        ({"thread_to_pu": {}, "control_to_pu": {"01": 1}}, MappingError,
         "control_to_pu key"),
        ({"thread_to_pu": {}, "groups_per_level": [[[0.7]]]}, MappingError,
         "groups_per_level[0][0][0]"),
        ({"thread_to_pu": {}, "oversub_factor": -2}, MappingError,
         "oversub_factor"),
        ({"thread_to_pu": {}, "control_mode": "x"}, MappingError,
         "control_mode"),
        ({"thread_to_pu": {}, "granularity": "x"}, MappingError,
         "granularity"),
    ], ids=["list-top-level", "string-root", "string-child",
            "cache-without-size", "string-os-index", "int-children",
            "list-attrs", "list-thread-to-pu", "infinite-os-index",
            "infinite-cache-size", "infinite-pu", "infinite-oversub",
            "pu-number-2e63", "pu-number-1e30", "pu-number-1e9",
            "underscore-thread-id", "spaced-thread-id", "float-pu",
            "bool-pu", "zero-padded-control-id", "float-group-member",
            "negative-oversub", "unknown-control-mode",
            "unknown-granularity"])
    def test_malformed_records_raise_typed_errors(
        self, tmp_path, record, error, where
    ):
        path = tmp_path / "record.json"
        path.write_text(json.dumps(record))
        with pytest.raises(error) as info:
            if error is MappingError:
                Placement.from_dict(json.loads(path.read_text()))
            else:
                load_topology(path)
        assert where in str(info.value)
