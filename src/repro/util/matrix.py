"""Dense matrix helpers used by the communication-matrix code.

TreeMatch treats communication as undirected affinity, so matrices are
symmetrized before grouping. These helpers keep that logic in one place.
The checks walk a matrix in bounded row blocks or tiles, so none of them
allocates a temporary the size of the matrix.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_square",
    "first_asymmetry",
    "row_blocks",
    "write_affinity",
]

#: Size of one float64 row block (see :func:`row_blocks`): 1 MB, 31 rows
#: at order 4160. The min/max pass of :func:`check_square` over an
#: order-4160 matrix took 15-16 ms at 16-64 rows and 19 ms at 128-256.
_ROW_BLOCK_BYTES = 1 << 20

#: Edge of the square tiles :func:`first_asymmetry` compares with their
#: mirrors. An order-4160 matrix took 34 ms at 128-512 and 39 ms at 1024.
_TILE = 512


def row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Consecutive row slices of about ``_ROW_BLOCK_BYTES`` of float64."""
    step = max(1, _ROW_BLOCK_BYTES // (8 * max(n_cols, 1)))
    return [slice(r, min(r + step, n_rows)) for r in range(0, n_rows, step)]


def check_square(m: np.ndarray, *, name: str = "matrix") -> np.ndarray:
    """Validate that *m* is a finite, non-negative 2-D square array and
    return it as float64.

    Complex entries are rejected before the cast, which would drop their
    imaginary parts. Each row block passes when its minimum is ``>= 0``
    and its maximum ``< inf`` (a NaN fails both comparisons); the defect
    is named only on the error path, where non-finite entries are
    reported first.
    """
    if np.iscomplexobj(m):
        raise ValueError(f"{name} contains complex entries")
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square 2-D, got shape {a.shape}")
    blocks = row_blocks(*a.shape)
    if all(a[rows].min() >= 0 and a[rows].max() < np.inf for rows in blocks):
        return a
    if not all(np.isfinite(a[rows]).all() for rows in blocks):
        raise ValueError(f"{name} contains non-finite entries")
    raise ValueError(f"{name} contains negative entries")


def first_asymmetry(a: np.ndarray) -> tuple[int, int] | None:
    """The first pair ``(i, j)`` in row-major order with
    ``a[i, j] != a[j, i]``, or None when square *a* is symmetric.

    Tiles are compared with their mirrors; only after a mismatch are row
    blocks scanned for the first pair.
    """
    n = a.shape[0]
    t = _TILE
    if all(
        (a[i : i + t, j : j + t] == a[j : j + t, i : i + t].T).all()
        for i in range(0, n, t)
        for j in range(i, n, t)
    ):
        return None
    for rows in row_blocks(n, n):
        hit = np.argwhere(a[rows] != a[:, rows].T)
        if hit.size:
            return rows.start + int(hit[0, 0]), int(hit[0, 1])
    return None


def write_affinity(out: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Write ``m + m.T`` with a zero diagonal into *out* and return it.

    *out* has *m*'s shape and does not overlap it. The entries are those
    of ``m + m.T``, without that sum's temporary, and exactly symmetric
    because IEEE addition commutes.
    """
    np.copyto(out, m)
    out += m.T
    np.fill_diagonal(out, 0.0)
    return out
