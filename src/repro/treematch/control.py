"""Control-thread handling (Algorithm 1, line 1).

ORWL deploys control threads alongside compute threads to manage location
FIFOs and data transfer. The paper's policy, in priority order:

1. **Hyperthreading available** — compute threads get one PU per physical
   core; the sibling PU of each core is reserved for the control threads
   of the tasks placed there.
2. **Spare cores** (more leaves than compute threads) — the communication
   matrix is extended with control pseudo-threads (tiny affinity towards
   their owning task) so TreeMatch places them on the spare leaves.
3. **Neither** — control threads stay unbound and the OS schedules them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MappingError

__all__ = [
    "CONTROL_MODES",
    "ControlPlan",
    "plan_control_threads",
    "add_control_edges",
    "control_edges",
    "CONTROL_EPSILON",
]

#: Relative weight of control↔task affinity edges; small enough never to
#: perturb the grouping of compute threads, large enough to pull a control
#: pseudo-thread towards its owner when slots allow.
CONTROL_EPSILON = 1e-6


#: The modes of a :class:`ControlPlan`, ``"os"`` (no binding) first.
CONTROL_MODES = ("os", "ht-sibling", "spare-core")


@dataclass(frozen=True)
class ControlPlan:
    """How control threads will be handled for one mapping run.

    ``mode`` is one of ``"ht-sibling"``, ``"spare-core"`` or ``"os"``;
    ``slots`` is the number of control pseudo-threads appended to the
    matrix (only in spare-core mode).
    """

    mode: str
    slots: int = 0


def plan_control_threads(
    p: int, n_control: int, n_leaves: int, *, hyperthreading: bool
) -> ControlPlan:
    """The control plan for *p* compute threads on *n_leaves* leaves.

    Decided from the counts alone, so a caller can size its matrix
    (``p + plan.slots``) before building it.
    """
    if n_control < 0:
        raise MappingError(f"n_control must be >= 0, got {n_control}")
    if n_control == 0:
        return ControlPlan("os", 0)
    if hyperthreading:
        # Sibling PUs absorb control threads; the matrix is unchanged
        # because compute mapping happens at core granularity.
        return ControlPlan("ht-sibling", 0)
    spare = n_leaves - p
    if spare <= 0:
        return ControlPlan("os", 0)
    return ControlPlan("spare-core", min(spare, n_control))


def control_edges(
    p: int, owners: list[int], heaviest: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """The control edges of *p* compute threads: ``(rows, cols, eps)``.

    Control pseudo-thread ``p + s`` is tied to compute thread
    ``owners[s]`` both ways, so the entries ``(rows[e], cols[e])`` are
    symmetric. Each weighs ``CONTROL_EPSILON`` times *heaviest*, the
    heaviest compute affinity, or times 1 when that is not positive.
    Both matrix backends place their control edges with this.
    """
    own = np.asarray(owners, dtype=np.intp)
    bad = (own < 0) | (own >= p)
    if bad.any():
        raise MappingError(
            f"control owner {own[bad][0]} outside [0, {p})"
        )
    slot = p + np.arange(own.size)
    eps = CONTROL_EPSILON * (heaviest if heaviest > 0 else 1.0)
    return np.concatenate([slot, own]), np.concatenate([own, slot]), eps


def add_control_edges(m: np.ndarray, p: int, owners: list[int]) -> None:
    """Write the :func:`control_edges` of *owners* into dense *m*, in place.

    ``m[:p, :p]`` is the compute affinity and rows and columns
    ``p .. p + len(owners) - 1`` of *m* are zero.
    """
    if not owners:
        return
    a = m[:p, :p]
    rows, cols, eps = control_edges(p, owners, float(a.max()) if a.size else 0.0)
    m[rows, cols] = eps
