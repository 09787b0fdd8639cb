"""The communication matrix.

Entry ``[i, j]`` is the number of bytes thread *i* receives from (reads
that are produced by) thread *j* per iteration. TreeMatch works on the
symmetrized, zero-diagonal view: total traffic between the pair.

Two storage backends share one API:

* **dense** — a float64 ``numpy`` array, the historical default and the
  representation every small-instance code path uses;
* **sparse** — a ``scipy.sparse`` CSR array, selected explicitly with
  ``sparse=True`` or automatically by density when a matrix is built
  from edges (:meth:`from_edges`, :meth:`stencil2d`). A million-task
  stencil has ~4 entries per row; CSR keeps it at O(nnz) instead of an
  8 TB dense allocation.
"""

from __future__ import annotations

import operator
import warnings
from collections.abc import Mapping, Sequence

import numpy as np
from scipy import sparse as _sp

from repro.errors import MappingError
from repro.util.matrix import check_square, first_asymmetry, write_affinity

__all__ = ["CommunicationMatrix", "check_affinity",
           "SPARSE_AUTO_ORDER", "SPARSE_AUTO_DENSITY"]

#: Edge-built matrices of at least this order are candidates for the
#: automatic CSR backend selection ...
SPARSE_AUTO_ORDER = 4096
#: ... when their density (nnz / n^2) stays at or below this bound.
SPARSE_AUTO_DENSITY = 0.25

#: numpy >= 1.25 keeps its warning classes in ``np.exceptions``.
_ComplexWarning = getattr(np, "exceptions", np).ComplexWarning


def _pick_sparse(flag: bool | None, n: int, nnz: int) -> bool:
    """Resolve the ``sparse`` constructor flag (None = auto by density)."""
    if flag is not None:
        return bool(flag)
    return n >= SPARSE_AUTO_ORDER and nnz <= SPARSE_AUTO_DENSITY * n * n


class _DefaultLabels(Sequence):
    """Lazy ``t{i}`` labels.

    A million-task matrix must not materialize a million strings just to
    satisfy the label API; this sequence renders each name on demand.
    """

    __slots__ = ("_n",)

    def __init__(self, n: int) -> None:
        self._n = n

    def __len__(self) -> int:
        return self._n

    def _one(self, i: int) -> str:
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(i)
        return f"t{i}"

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._one(j) for j in range(*i.indices(self._n))]
        return self._one(int(i))

    def __eq__(self, other) -> bool:
        if isinstance(other, _DefaultLabels):
            return self._n == other._n
        if isinstance(other, (list, tuple)):
            return len(other) == self._n and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover
        return f"<_DefaultLabels n={self._n}>"


def _check_dense(m, *, name: str = "matrix") -> np.ndarray:
    """:func:`repro.util.matrix.check_square`, failing with MappingError."""
    try:
        return check_square(m, name=name)
    except ValueError as exc:
        raise MappingError(str(exc)) from exc


def _check_entries(data: np.ndarray, *, name: str = "matrix") -> None:
    """The type, finiteness and sign checks over a sparse matrix's stored
    entries, made before they are cast to float64."""
    if np.iscomplexobj(data):
        raise MappingError(f"{name} contains complex entries")
    if not np.isfinite(data).all():
        raise MappingError(f"{name} contains non-finite entries")
    if data.size and data.min() < 0:
        raise MappingError(f"{name} contains negative entries")


def _canonical_csr(m):
    """Sparse *m* as a CSR array with sorted, duplicate-free rows.

    *m* is never modified: a canonical CSR input shares its arrays with
    the result, and any other is canonicalized on a copy.
    """
    csr = _sp.csr_array(m)
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    return csr


def _check_csr(m, *, name: str = "matrix", copy: bool = False):
    """CSR analogue of :func:`repro.util.matrix.check_square`.

    Returns a canonical float64 CSR array without modifying *m* (see
    :func:`_canonical_csr`); *copy* makes its arrays its own even when
    *m* is canonical already.
    """
    csr = _sp.csr_array(m)
    if csr.ndim != 2 or csr.shape[0] != csr.shape[1]:
        raise MappingError(f"{name} must be square 2-D, got shape {csr.shape}")
    _check_entries(csr.data, name=name)
    csr = csr.astype(np.float64, copy=False)
    if copy and csr.has_canonical_format:
        return csr.copy()
    return _canonical_csr(csr)


def check_affinity(m):
    """Return affinity matrix *m* validated, or raise MappingError
    naming its first defect.

    An affinity must pass the checks a communication matrix does
    (square, finite, non-negative) and be symmetric, which rules out an
    upper- or lower-triangle-only matrix. A sparse one is checked over
    its stored entries, so the cost is linear in the input, and returned
    as canonical CSR; a dense one is walked in row blocks and tiles, so
    no temporary of its size is allocated, and returned as float64.
    """
    if _sp.issparse(m):
        a = _check_csr(m, name="affinity matrix")
        t = a.T.tocsr()
        if (np.array_equal(a.indptr, t.indptr)
                and np.array_equal(a.indices, t.indices)
                and np.array_equal(a.data, t.data)):
            return a
        # Unequal storage can still hold equal values (an explicit zero
        # facing an absent entry), so compare the values themselves.
        differ = (a != a.T).tocoo()
        pair = (int(differ.row[0]), int(differ.col[0])) if differ.nnz else None
    else:
        a = _check_dense(m, name="affinity matrix")
        pair = first_asymmetry(a)
    if pair is not None:
        i, j = pair
        raise MappingError(
            f"affinity matrix is not symmetric: [{i}, {j}] = "
            f"{float(a[i, j])!r} but [{j}, {i}] = {float(a[j, i])!r}"
        )
    return a


def _bad_edge(n: int, edges: Mapping) -> str | None:
    """What is wrong with the first of *edges* whose key is not a pair
    of integer task indices below *n* or whose traffic is not a real
    number; None when every edge is well-formed."""
    for key, w in edges.items():
        try:
            i, j = map(operator.index, key)
        except (TypeError, ValueError):
            return f"edge {key!r} is not a pair of integer task indices"
        if not (0 <= i < n and 0 <= j < n):
            return f"edge ({i}, {j}) outside order {n}"
        # float() of a numpy complex scalar drops its imaginary part with
        # only a warning, so complex traffic is rejected by type.
        if np.iscomplexobj(w):
            return f"traffic {w!r} on edge ({i}, {j}) is not a real number"
        try:
            float(w)
        except (TypeError, ValueError):
            return f"traffic {w!r} on edge ({i}, {j}) is not a real number"
    return None


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    """The row of every stored entry of a CSR matrix."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def _sym_zero_diag_csr(m):
    """``m + m.T`` as a canonical CSR array without its diagonal.

    scipy's sum stores no explicit zeros and no duplicates, and sorted
    rows whenever *m*'s are. Masking out its stored diagonal entries
    then leaves a canonical CSR with the sum's index dtype, in one pass
    over the stored entries. *m* is read as a CSR array: a
    ``csr_matrix`` sum would pick its index dtype from the contents of
    an uninitialized buffer.
    """
    m = _sp.csr_array(m)
    s = m + m.T
    s.sort_indices()
    rows = _row_ids(s.indptr)
    keep = s.indices != rows
    indptr = np.zeros_like(s.indptr)
    np.cumsum(np.bincount(rows[keep], minlength=s.shape[0]), out=indptr[1:])
    return _sp.csr_array(
        (s.data[keep], s.indices[keep], indptr), shape=s.shape
    )


class CommunicationMatrix:
    """An ``n × n`` thread-to-thread traffic matrix with optional labels."""

    def __init__(
        self,
        data,
        labels: Sequence[str] | None = None,
        *,
        sparse: bool | None = None,
    ) -> None:
        if _sp.issparse(data):
            if sparse is False:
                self._m = _check_dense(data.toarray(),
                                       name="communication matrix")
            else:
                # A copy, so the caller's matrix and this one never
                # share arrays.
                self._m = _check_csr(data, name="communication matrix",
                                     copy=True)
        else:
            dense = _check_dense(data, name="communication matrix")
            if sparse:
                self._m = _check_csr(_sp.csr_array(dense),
                                     name="communication matrix")
            else:
                self._m = dense
        if labels is not None and len(labels) != self.order:
            raise MappingError(
                f"{len(labels)} labels for a matrix of order {self.order}"
            )
        self.labels: Sequence[str] = (
            list(labels) if labels is not None else _DefaultLabels(self.order)
        )

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Mapping[tuple[int, int], float],
        labels: Sequence[str] | None = None,
        *,
        sparse: bool | None = None,
    ) -> CommunicationMatrix:
        """Build from sparse ``{(receiver, producer): bytes}`` edges.

        The backend follows *sparse* (None = automatic: CSR for large,
        low-density instances). Construction is vectorized and — on the
        CSR path — never touches an O(n²) array. A key that is not a
        pair of integer task indices below *n*, or traffic that is not
        a real number (a numpy complex scalar included, whatever its
        imaginary part), raises :class:`MappingError` naming the edge.
        """
        if n < 0:
            raise MappingError(f"negative order {n}")
        k = len(edges)
        index = operator.index
        try:
            # Unpacking rejects a key that is not a pair, operator.index
            # one whose entries are not integers (instead of truncating).
            rows = np.fromiter(map(index, (i for i, _ in edges)),
                               dtype=np.int64, count=k)
            cols = np.fromiter(map(index, (j for _, j in edges)),
                               dtype=np.int64, count=k)
            with warnings.catch_warnings():
                # numpy casts its complex scalars to float64 with only a
                # ComplexWarning, dropping the imaginary part.
                warnings.simplefilter("error", _ComplexWarning)
                vals = np.fromiter(edges.values(), dtype=np.float64,
                                   count=k)
        except (TypeError, ValueError, OverflowError, _ComplexWarning) as exc:
            raise MappingError(_bad_edge(n, edges) or str(exc)) from None
        bad = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)
        if bad.any():
            b = int(np.flatnonzero(bad)[0])
            raise MappingError(
                f"edge ({rows[b]}, {cols[b]}) outside order {n}"
            )
        neg = vals < 0
        if neg.any():
            b = int(np.flatnonzero(neg)[0])
            raise MappingError(
                f"negative traffic on edge ({rows[b]}, {cols[b]})"
            )
        return cls._from_entries(n, rows, cols, vals, labels, sparse=sparse)

    @classmethod
    def _from_entries(
        cls, n: int, rows, cols, vals, labels=None, *, sparse: bool | None
    ) -> CommunicationMatrix:
        """The order-*n* matrix that sums each ``vals[e]`` into entry
        ``[rows[e], cols[e]]``, on the backend :func:`_pick_sparse`
        picks for that many entries."""
        if _pick_sparse(sparse, n, rows.size):
            csr = _sp.csr_array(
                _sp.coo_array((vals, (rows, cols)), shape=(n, n))
            )
            return cls(csr, labels)
        m = np.zeros((n, n))
        np.add.at(m, (rows, cols), vals)
        return cls(m, labels)

    @classmethod
    def stencil2d(
        cls, n: int, *, sparse: bool | None = None
    ) -> CommunicationMatrix:
        """Synthetic 2-D 5-point stencil: each thread exchanges 100
        bytes per iteration with its grid neighbours (halo exchange).

        Threads are laid out row-major on a ``ceil(sqrt(n))``-wide
        grid. The matrix is built with vectorized scatter; with the CSR
        backend (*sparse* = True, or automatic for large instances) a
        million-task stencil costs O(n) memory instead of O(n²). This
        is the ``stencil`` pattern of ``repro-paper map`` and the
        placement-scaling workload of the mapping benchmarks.
        """
        if n <= 0:
            raise MappingError(f"stencil order must be positive, got {n}")
        w = int(np.ceil(np.sqrt(n)))
        idx = np.arange(n)
        x = idx % w
        right = idx + 1
        ok_r = (x + 1 < w) & (right < n)
        down = idx + w
        ok_d = down < n
        src_r, dst_r = idx[ok_r], right[ok_r]
        src_d, dst_d = idx[ok_d], down[ok_d]
        rows = np.concatenate([src_r, dst_r, src_d, dst_d])
        cols = np.concatenate([dst_r, src_r, dst_d, src_d])
        vals = np.full(rows.size, 100.0)
        return cls._from_entries(n, rows, cols, vals, sparse=sparse)

    @classmethod
    def ring(cls, n: int) -> CommunicationMatrix:
        """Synthetic one-directional ring: thread *i* receives 100 bytes
        per iteration from thread ``(i + 1) % n``.

        The entries of ``from_edges(n, {(i, (i + 1) % n): 100.0, ...})``
        (none for ``n == 1``), with the same backend rule, built from
        arrays rather than an n-entry dict. This is the ``ring`` pattern
        of ``repro-paper map``.
        """
        if n <= 0:
            raise MappingError(f"ring order must be positive, got {n}")
        rows = np.arange(n if n > 1 else 0)
        cols = (rows + 1) % n
        vals = np.full(rows.size, 100.0)
        return cls._from_entries(n, rows, cols, vals, sparse=None)

    # -- views ----------------------------------------------------------------

    @property
    def order(self) -> int:
        return self._m.shape[0]

    @property
    def is_sparse(self) -> bool:
        """True when the CSR backend holds this matrix."""
        return _sp.issparse(self._m)

    @property
    def nnz(self) -> int:
        """Stored entry count (dense matrices count their nonzeros)."""
        if self.is_sparse:
            return int(self._m.nnz)
        return int(np.count_nonzero(self._m))

    @property
    def raw(self) -> np.ndarray:
        """The directed matrix as a dense array (copy; densifies CSR)."""
        if self.is_sparse:
            return self._m.toarray()
        return self._m.copy()

    def tocsr(self):
        """The directed matrix as a ``scipy.sparse`` CSR array (copy)."""
        if self.is_sparse:
            return self._m.copy()
        return _sp.csr_array(self._m)

    def csr_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The CSR backend's stored entries as ``(indptr, indices,
        data)``: sorted, duplicate-free rows and float64 data, explicit
        zeros and diagonal entries kept as stored.

        The arrays are read-only views of this matrix's own, not copies,
        so reading a million-task matrix costs nothing. A dense matrix
        raises :class:`MappingError` (:meth:`tocsr` converts it).
        """
        if not self.is_sparse:
            raise MappingError("csr_rows() reads the CSR backend; this "
                               "matrix is dense (use tocsr())")
        views = (self._m.indptr.view(), self._m.indices.view(),
                 self._m.data.view())
        for v in views:
            v.flags.writeable = False
        return views

    def affinity(self) -> np.ndarray:
        """Symmetrized, zero-diagonal traffic — what TreeMatch groups on.

        Always dense; use :meth:`affinity_any` for the CSR view when the
        instance is too large to densify.
        """
        return self.affinity_into(np.zeros((self.order, self.order)))

    def affinity_into(self, out: np.ndarray) -> np.ndarray:
        """Write :meth:`affinity` into ``out[:order, :order]``; returns *out*.

        *out* is a zero-filled float64 array of at least this order; the
        rest of it is left as it is. No temporary of the matrix's order
        is made: a CSR matrix scatters the stored entries of its CSR
        affinity, a dense one is copied in, then its transpose added and
        the diagonal zeroed — the values of ``m + m.T`` element for
        element.
        """
        n = self.order
        if self.is_sparse:
            s = _sym_zero_diag_csr(self._m)
            out[_row_ids(s.indptr), s.indices] = s.data
        else:
            write_affinity(out[:n, :n], self._m)
        return out

    def affinity_any(self):
        """Affinity in the native backend: CSR when sparse, else dense.

        The multilevel engines consume this — they accept either form
        and must never force a densification of a large CSR instance.
        """
        if self.is_sparse:
            return _sym_zero_diag_csr(self._m)
        return self.affinity()

    def __repr__(self) -> str:  # pragma: no cover
        kind = "sparse" if self.is_sparse else "dense"
        return f"<CommunicationMatrix order={self.order} {kind} nnz={self.nnz}>"
