"""Differential oracle for ``group_greedy``.

The function here is the greedy grouping as it stood before it was
rewritten to read rows of its input in place: it copies the whole p x p
matrix into ``work``, fills the copy's diagonal with -inf and takes its
first row maxima with one ``work.max(axis=1)``. Its logic is kept
unchanged as the reference the library version must agree with, group
for group and member for member.
"""

from __future__ import annotations

import numpy as np

__all__ = ["group_greedy"]


def group_greedy(m: np.ndarray, arity: int) -> list[list[int]]:
    """Greedy grouping on a -inf-diagonal copy of *m*."""
    p = m.shape[0]
    if arity == 1:
        return [[i] for i in range(p)]
    work = np.array(m, dtype=np.float64)
    np.fill_diagonal(work, -np.inf)
    free = np.ones(p, dtype=bool)
    n_free = p
    mask = np.zeros(p)
    cand = np.empty(p)
    attract = np.empty(p)
    row_max = work.max(axis=1)
    row_arg = work.argmax(axis=1)
    groups: list[list[int]] = []

    def retire(i: int) -> None:
        nonlocal n_free
        free[i] = False
        n_free -= 1
        row_max[i] = -np.inf
        mask[i] = -np.inf

    def heaviest_pair() -> tuple[int, int]:
        while True:
            i = int(row_max.argmax())
            j = int(row_arg[i])
            if free[j]:
                return i, j
            np.add(work[i], mask, out=cand)
            row_max[i] = cand.max()
            row_arg[i] = cand.argmax()

    while n_free:
        if n_free == arity:
            groups.append([int(i) for i in np.flatnonzero(free)])
            break
        seed_i, seed_j = heaviest_pair()
        group = [seed_i, seed_j]
        np.add(work[seed_i], work[seed_j], out=attract)
        retire(seed_i)
        retire(seed_j)
        while len(group) < arity:
            np.add(attract, mask, out=cand)
            best = int(cand.argmax())
            retire(best)
            group.append(best)
            attract += work[best]
        groups.append(group)
    return groups
