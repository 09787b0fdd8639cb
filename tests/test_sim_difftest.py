"""Differential tests: 54 generated programs on both simulator cores.

Driven by :mod:`tests.harness.difftest` — each generated spec executes
on the object and batched cores and the full fingerprint (counters,
final clock, event count, thread states, plus ring/metrics/monitor
streams when taps are attached) must be bit-identical. A second pass pins the
complementary guarantee: attaching taps never perturbs the run itself.
"""

from __future__ import annotations

import dataclasses

import pytest

pytestmark = pytest.mark.simcore

from tests.harness import difftest

N_PROGRAMS = 54
SPECS = difftest.generate_programs(N_PROGRAMS, seed=2026)

#: Fingerprint fields that describe the run itself (must also be
#: invariant under tap configuration, not just across cores).
RUN_FIELDS = (
    "counters", "compute", "control",
    "elapsed_cycles", "events_processed", "thread_states",
)


def test_generator_coverage():
    """The 54 specs cover every (app, tap-mode) pair, every topology
    preset and both affinity settings."""
    assert len(SPECS) >= 50
    combos = {(s.app, s.tap_mode) for s in SPECS}
    assert combos == {
        (a, m) for a in difftest.APPS for m in difftest.TAP_MODES
    }
    assert {s.topology for s in SPECS} == set(difftest.TOPOLOGIES)
    assert {s.affinity for s in SPECS} == {False, True}


def test_generator_deterministic():
    again = difftest.generate_programs(N_PROGRAMS, seed=2026)
    assert again == SPECS
    assert difftest.generate_programs(8, seed=1) != \
        difftest.generate_programs(8, seed=2)


@pytest.mark.parametrize(
    "spec", SPECS, ids=lambda s: f"{s.index:02d}-{s.app}-{s.tap_mode}"
)
def test_bit_identical_across_cores(spec):
    fp = difftest.check_program(spec)
    assert fp["core_used"] == "batched"
    if spec.tap_mode != "off":
        recorded, _dropped = fp["ring_totals"]
        assert recorded > 0
        assert fp["metrics"]["sim_events_processed_total"] == \
            fp["events_processed"]
        assert fp["monitor"]["finished"] > 0


@pytest.mark.parametrize("core", ["object", "batched"])
@pytest.mark.parametrize("index", range(9))
def test_taps_do_not_perturb_the_run(index, core):
    """Same spec, all three tap modes, each core: the run-describing
    fields must not move at all when observation is attached."""
    base = SPECS[index]
    fps = {
        mode: difftest.run_one(
            dataclasses.replace(base, tap_mode=mode), core
        )
        for mode in difftest.TAP_MODES
    }
    for mode in ("on", "sampled"):
        for key in RUN_FIELDS:
            assert fps[mode][key] == fps["off"][key], (key, mode)


def test_sampled_mode_wraps_and_drops():
    """At least one generated sampled-mode program overflows its
    256-record ring, exercising wraparound accounting."""
    dropped = []
    for spec in SPECS:
        if spec.tap_mode != "sampled":
            continue
        fp = difftest.run_one(spec, "batched")
        recorded, drop = fp["ring_totals"]
        assert len(fp["ring"]) == min(recorded, 256)
        dropped.append(drop)
    assert any(d > 0 for d in dropped)


def test_run_smoke_passes():
    # The first four specs are one of each app, the chain family included.
    assert difftest.run_smoke(4) == 4
