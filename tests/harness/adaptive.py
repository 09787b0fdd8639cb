"""Shared builders for the adaptive-controller test family.

Everything runs the phase-shift experiment's program generator
(:mod:`repro.experiments.adaptive`) at miniature iteration counts, so
controller tests, the zero-remap differential family and the live
rebind tests all agree on what "the workload" is. Import-light: pytest
modules and tooling can both use it.
"""

from __future__ import annotations

from repro.affinity import AdaptiveController, ControllerConfig
from repro.experiments.adaptive import AdaptSetup, build_runtime

__all__ = [
    "CORES",
    "stable_setup",
    "shift_setup",
    "small_config",
    "run_uncontrolled",
    "run_controlled",
    "machine_fingerprint",
]

#: Every simulator core the controller must behave identically on.
CORES = ("object", "batched")


def stable_setup(iters_per_phase: int = 4) -> AdaptSetup:
    """Phase-stable control program: the traffic pattern never changes,
    so a correct controller performs exactly zero remaps on it."""
    return AdaptSetup(iters_per_phase=iters_per_phase, shift=False)


def shift_setup(iters_per_phase: int = 8) -> AdaptSetup:
    """Miniature phase-shifting program (stencil -> transpose -> reduce)."""
    return AdaptSetup(iters_per_phase=iters_per_phase)


def small_config(**overrides) -> ControllerConfig:
    """The experiment's controller config (test-sized windows)."""
    kwargs = dict(window_cycles=2e6, calibrate_windows=2, gather_windows=2)
    kwargs.update(overrides)
    return ControllerConfig(**kwargs)


def run_uncontrolled(setup: AdaptSetup, *, declared: str = "stencil",
                     core: str = "auto", observer=None,
                     config: ControllerConfig | None = None):
    """Windowed run with no controller: the differential baseline.

    Mirrors the controller's loop shape — same window spacing, same
    sanitizer handling (attach before the first window, verify after
    the last) — minus the telemetry tap and the drift scoring. Returns
    the drained machine.
    """
    config = config or small_config()
    rt = build_runtime(declared, setup)
    machine = rt.machine
    machine.core = core
    if observer is not None:
        machine.attach_observer(observer)
    rt.prepare_run()
    if machine.sanitize:
        machine.attach_sanitizer()
    threads = machine.threads
    horizon = machine.engine.now + config.window_cycles
    for _ in range(config.max_windows):
        machine.run_window(horizon)
        if all(t.state in ("done", "unstarted") for t in threads):
            break
        horizon += config.window_cycles
    if machine.observer is not None:
        machine.observer.fold(machine)
    if machine.sanitizer is not None:
        machine.sanitizer.verify(machine)
    return machine


def run_controlled(setup: AdaptSetup, *, declared: str = "stencil",
                   core: str = "auto", observer=None,
                   config: ControllerConfig | None = None, registry=None):
    """Same program under the adaptive controller.

    Returns ``(controller, result, machine)``.
    """
    rt = build_runtime(declared, setup)
    rt.machine.core = core
    if observer is not None:
        rt.machine.attach_observer(observer)
    controller = AdaptiveController.for_orwl(
        rt, config=config or small_config(), registry=registry
    )
    result = controller.run()
    return controller, result, rt.machine


def machine_fingerprint(machine) -> tuple:
    """Everything a controller with zero remaps must leave untouched."""
    return (
        machine.engine.now,
        machine.engine.events_processed,
        machine.window_drained_at,
        machine.total_counters().snapshot(),
        [t.state for t in machine.threads],
        [t.slices_run for t in machine.threads],
    )
