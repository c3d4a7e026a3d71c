"""The CSR sparse matrix container.

``Matrix`` is a plain data holder with canonical CSR invariants; all
real work lives in the kernel modules (:mod:`repro.sparse.spgemm`,
...).  Convenience methods delegate there so user code can read like
the paper's pseudocode (``E.T().mxm(E)``, ``R.apply(...)`` ...).

Canonical form invariants (enforced at construction):

* ``indptr`` has length ``nrows + 1``, is non-decreasing, starts at 0
  and ends at ``nnz``;
* within each row, column ``indices`` are strictly increasing (sorted,
  no duplicates);
* ``values`` is a 1-D array aligned with ``indices``.

Explicit entries may hold any value, including the semiring zero;
:meth:`Matrix.prune` drops explicit zeros when an algorithm needs the
stored pattern to equal the logical support (e.g. the paper's k-truss
edge removal).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.semiring import BinaryOp, Monoid, Semiring, UnaryOp


class Matrix:
    """Immutable-by-convention CSR sparse matrix over a value set.

    Construct via :mod:`repro.sparse.construct` helpers (``from_coo``,
    ``from_dense``, ``from_edges``) rather than this raw constructor,
    which expects canonical CSR arrays.
    """

    __slots__ = ("nrows", "ncols", "indptr", "indices", "values")

    def __init__(
        self,
        nrows: int,
        ncols: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
        _validate: bool = True,
    ):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.values = np.asarray(values)
        if _validate:
            self._check_canonical()

    # -- construction / validation ----------------------------------------

    def _check_canonical(self) -> None:
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError(f"negative shape ({self.nrows}, {self.ncols})")
        if self.indptr.shape != (self.nrows + 1,):
            raise ValueError(
                f"indptr length {self.indptr.shape[0]} != nrows+1 = {self.nrows + 1}"
            )
        if self.indices.shape != self.values.shape:
            raise ValueError("indices and values length mismatch")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr does not span the index arrays")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices):
            if self.indices.min() < 0 or self.indices.max() >= self.ncols:
                raise ValueError("column index out of range")
            # strictly increasing within each row <=> diffs positive except
            # at row boundaries
            d = np.diff(self.indices)
            row_starts = self.indptr[1:-1]
            boundary = np.zeros(len(d), dtype=bool)
            inner = row_starts[(row_starts > 0) & (row_starts < len(self.indices))]
            boundary[inner - 1] = True
            if np.any((d <= 0) & ~boundary):
                raise ValueError("column indices must be sorted and unique per row")

    # -- basic properties ---------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        """Number of stored entries (including explicit zeros)."""
        return len(self.indices)

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    @property
    def row_lengths(self) -> np.ndarray:
        """Stored entries per row, shape ``(nrows,)``."""
        return np.diff(self.indptr)

    def row_ids(self) -> np.ndarray:
        """COO row index for every stored entry (expanded from indptr)."""
        return np.repeat(np.arange(self.nrows, dtype=np.intp), self.row_lengths)

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rows, cols, values)`` in row-major sorted order."""
        return self.row_ids(), self.indices.copy(), self.values.copy()

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Column indices and values of stored entries in row ``i``."""
        if not 0 <= i < self.nrows:
            raise IndexError(f"row {i} out of range for {self.nrows} rows")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def get(self, i: int, j: int, default=0.0):
        """Stored value at ``(i, j)`` or ``default`` when absent."""
        cols, vals = self.row(i)
        if not 0 <= j < self.ncols:
            raise IndexError(f"column {j} out of range for {self.ncols} columns")
        k = np.searchsorted(cols, j)
        if k < len(cols) and cols[k] == j:
            return vals[k]
        return default

    def to_dense(self, fill=0.0) -> np.ndarray:
        """Materialise as a dense array, absent entries set to ``fill``.

        ``fill`` should be the relevant semiring's zero (0 for
        arithmetic, +inf for min-plus).
        """
        dtype = np.result_type(self.values.dtype, type(fill)) if self.nnz else np.float64
        out = np.full(self.shape, fill, dtype=dtype)
        out[self.row_ids(), self.indices] = self.values
        return out

    def copy(self) -> "Matrix":
        return Matrix(
            self.nrows,
            self.ncols,
            self.indptr.copy(),
            self.indices.copy(),
            self.values.copy(),
            _validate=False,
        )

    def astype(self, dtype) -> "Matrix":
        return Matrix(
            self.nrows,
            self.ncols,
            self.indptr,
            self.indices,
            self.values.astype(dtype),
            _validate=False,
        )

    def with_values(self, values: np.ndarray) -> "Matrix":
        """Same pattern, new values (must align with stored entries)."""
        values = np.asarray(values)
        if values.shape != self.values.shape:
            raise ValueError(
                f"values length {values.shape} != nnz pattern {self.values.shape}"
            )
        return Matrix(self.nrows, self.ncols, self.indptr, self.indices, values,
                      _validate=False)

    # -- structural ops -----------------------------------------------------

    def transpose(self) -> "Matrix":
        """Return Aᵀ (O(nnz) counting transpose, canonical output)."""
        rows, cols, vals = self.to_coo()
        # counting sort by (new row = old col); indices within each new row
        # come out sorted because the COO stream is row-major sorted.
        order = np.argsort(cols, kind="stable")
        new_cols = rows[order]
        new_vals = vals[order]
        indptr = np.zeros(self.ncols + 1, dtype=np.intp)
        np.cumsum(np.bincount(cols, minlength=self.ncols), out=indptr[1:])
        return Matrix(self.ncols, self.nrows, indptr, new_cols, new_vals,
                      _validate=False)

    @property
    def T(self) -> "Matrix":
        return self.transpose()

    def pattern(self, one=1.0) -> "Matrix":
        """Structure-only copy: every stored entry becomes ``one``."""
        return self.with_values(np.full(self.nnz, one,
                                        dtype=np.result_type(type(one))))

    def prune(self, zero=0.0) -> "Matrix":
        """Drop stored entries equal to ``zero`` (restores support)."""
        keep = self.values != zero
        if keep.all():
            return self
        rows = self.row_ids()[keep]
        indptr = np.zeros(self.nrows + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=self.nrows), out=indptr[1:])
        return Matrix(self.nrows, self.ncols, indptr, self.indices[keep],
                      self.values[keep], _validate=False)

    def iter_entries(self) -> Iterator[Tuple[int, int, object]]:
        """Yield ``(i, j, value)`` in row-major order (test/debug helper)."""
        rows = self.row_ids()
        for i, j, v in zip(rows, self.indices, self.values):
            yield int(i), int(j), v

    # -- kernel delegation (reads like the paper's pseudocode) --------------

    def mxm(self, other: "Matrix", semiring: Optional[Semiring] = None,
            mask: Optional["Matrix"] = None) -> "Matrix":
        """SpGEMM: ``self ⊕.⊗ other`` (defaults to plus-times)."""
        from repro.sparse.spgemm import mxm as _mxm

        return _mxm(self, other, semiring=semiring, mask=mask)

    def mxv(self, x, semiring: Optional[Semiring] = None) -> np.ndarray:
        from repro.sparse.spmv import mxv as _mxv

        return _mxv(self, x, semiring=semiring)

    def ewise_mult(self, other: "Matrix", op: Optional[BinaryOp] = None) -> "Matrix":
        from repro.sparse.ewise import ewise_mult as _em

        return _em(self, other, op=op)

    def ewise_add(self, other: "Matrix", op: Optional[BinaryOp] = None) -> "Matrix":
        from repro.sparse.ewise import ewise_add as _ea

        return _ea(self, other, op=op)

    def apply(self, op: UnaryOp) -> "Matrix":
        from repro.sparse.apply import apply as _apply

        return _apply(self, op)

    def scale(self, scalar, op: Optional[BinaryOp] = None) -> "Matrix":
        from repro.sparse.apply import scale as _scale

        return _scale(self, scalar, op=op)

    def reduce_rows(self, monoid: Optional[Monoid] = None, dense: bool = True):
        from repro.sparse.reduce import reduce_rows as _rr

        return _rr(self, monoid=monoid, dense=dense)

    def reduce_cols(self, monoid: Optional[Monoid] = None, dense: bool = True):
        from repro.sparse.reduce import reduce_cols as _rc

        return _rc(self, monoid=monoid, dense=dense)

    def reduce_scalar(self, monoid: Optional[Monoid] = None):
        from repro.sparse.reduce import reduce_scalar as _rs

        return _rs(self, monoid=monoid)

    def extract(self, rows=None, cols=None) -> "Matrix":
        from repro.sparse.select import extract as _extract

        return _extract(self, rows=rows, cols=cols)

    def select_values(self, predicate) -> "Matrix":
        from repro.sparse.select import select_values as _sv

        return _sv(self, predicate)

    def triu(self, k: int = 0) -> "Matrix":
        from repro.sparse.select import triu as _triu

        return _triu(self, k=k)

    def tril(self, k: int = 0) -> "Matrix":
        from repro.sparse.select import tril as _tril

        return _tril(self, k=k)

    def diag(self) -> np.ndarray:
        from repro.sparse.select import diag as _diag

        return _diag(self)

    def offdiag(self) -> "Matrix":
        from repro.sparse.select import offdiag as _od

        return _od(self)

    # -- operator sugar (arithmetic semiring) --------------------------------

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            return self.mxm(other)
        return self.mxv(other)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self.ewise_add(other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        # a - b over the union support: negate b, then union-add.
        from repro.semiring import AINV

        return self.ewise_add(other.apply(AINV))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self.ewise_mult(other)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    # -- comparison / repr ----------------------------------------------------

    def equal(self, other: "Matrix", rtol: float = 0.0, atol: float = 0.0) -> bool:
        """Structural + value equality (optionally with tolerance)."""
        if not isinstance(other, Matrix) or self.shape != other.shape:
            return False
        a, b = self.prune(), other.prune()
        if a.nnz != b.nnz:
            return False
        if not (np.array_equal(a.indptr, b.indptr)
                and np.array_equal(a.indices, b.indices)):
            return False
        if rtol == 0.0 and atol == 0.0:
            return bool(np.array_equal(a.values, b.values))
        return bool(np.allclose(a.values, b.values, rtol=rtol, atol=atol))

    def __repr__(self) -> str:
        return (f"Matrix(shape=({self.nrows}, {self.ncols}), nnz={self.nnz}, "
                f"dtype={self.dtype})")
