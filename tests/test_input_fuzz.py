"""Seeded mutation fuzzing of the parsers that read outside input.

Each case mutates a valid record — a topology record or a placement
record — and hands it to its parser. A case passes when the parser
returns a valid object or raises its typed error (:class:`TopologyError`
/ :class:`MappingError`); any other exception, or a hang, is a bug. The
seeds are fixed, so a failure reproduces.
"""

import copy
import random

import pytest

from repro.errors import MappingError, TopologyError
from repro.topology import (
    Topology,
    TopologySpec,
    build_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.treematch.mapping import Placement

#: Replacement values: null, non-finite floats, huge integers, negative
#: numbers and every wrong JSON type.
BAD_VALUES = (
    None, float("nan"), float("inf"), float("-inf"), 2**63, 10**30, 10**9,
    -1, 0, 1.5, True, "x", "", [], [1, "x"], {}, {"type": "PU"},
)


def _spots(tree):
    """Every (container, key) slot of a JSON tree, depth first."""
    items = (tree.items() if isinstance(tree, dict)
             else enumerate(tree) if isinstance(tree, list) else ())
    for key, value in items:
        yield tree, key
        yield from _spots(value)


def mutate_record(record, rng):
    """A deep copy of *record* with one to three slots damaged."""
    record = copy.deepcopy(record)
    for _ in range(rng.randint(1, 3)):
        spots = list(_spots(record))
        if not spots:
            break
        container, key = rng.choice(spots)
        op = rng.randrange(3)
        if op == 0:
            container[key] = copy.deepcopy(rng.choice(BAD_VALUES))
        elif op == 1:
            del container[key]
        elif isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        else:
            container[key] = copy.deepcopy(rng.choice(spots)[0])
    return record


def _topology():
    return build_topology(TopologySpec(
        name="fuzz", groups=2, cores_per_socket=2, pus_per_core=2,
    ))


def _check_topology(record):
    topo = topology_from_dict(record)
    assert isinstance(topo, Topology) and topo.n_pus >= 1
    assert all(0 <= pu.os_index <= Topology.MAX_PU_OS_INDEX
               for pu in topo.pus)


def _check_placement(record):
    placement = Placement.from_dict(record)
    # An accepted record is read as written: each of its fields comes
    # back unchanged, so nothing was cast, truncated or renamed.
    written = placement.to_dict()
    assert {key: written[key] for key in record} == record
    assert Placement.from_dict(written) == placement


def _placement_record():
    record = {
        "thread_to_pu": {str(t): 2 * (t // 2) for t in range(8)},
        "control_to_pu": {"0": 1, "1": 3},
        "control_mode": "ht-sibling",
        "granularity": "core",
        "oversub_factor": 2,
        "topology_name": "fuzz",
        "groups_per_level": [[[0, 1], [2, 5]], [[0], [1]]],
    }
    return record


@pytest.mark.parametrize("check, error, base, mutate, cases", [
    (_check_topology, TopologyError,
     lambda: topology_to_dict(_topology()), mutate_record, 3000),
    (_check_placement, MappingError, _placement_record, mutate_record, 3000),
], ids=["topology", "placement"])
def test_mutated_input_parses_or_raises_typed_error(
    check, error, base, mutate, cases
):
    rng = random.Random(20261017)
    record = base()
    check(record)
    for case in range(cases):
        mutated = mutate(record, rng)
        try:
            check(mutated)
        except error:
            pass
        except Exception as exc:
            raise AssertionError(
                f"case {case}: {type(exc).__name__}: {exc} on {mutated!r}"
            ) from exc
