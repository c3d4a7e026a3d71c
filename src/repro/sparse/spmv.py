"""SpMV / SpMSpV: semiring matrix–vector multiply.

``mxv`` takes a dense NumPy vector and returns a dense vector (rows with
no stored entries get the semiring zero).  ``mxv_sparse`` is the
SpM{Sp}V variant: a sparse frontier in, a sparse result out, touching
only matrix entries whose column is in the frontier — the operation BFS
and Bellman–Ford iterate (paper §III-A's centrality loops use the dense
form).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.obs import trace as _trace
from repro.semiring import Semiring
from repro.semiring.builtin import PLUS_TIMES
from repro.sparse.matrix import Matrix
from repro.sparse.vector import Vector


def mxv(a: Matrix, x, semiring: Optional[Semiring] = None) -> np.ndarray:
    """Dense ``y = A ⊕.⊗ x``; ``y[i] = ⊕_t A(i,t) ⊗ x[t]``.

    Implicit entries of ``A`` act as the semiring zero (annihilator), so
    only stored entries contribute.
    """
    semiring = semiring or PLUS_TIMES
    x = np.asarray(x)
    if x.shape != (a.ncols,):
        raise ValueError(f"x has shape {x.shape}, expected ({a.ncols},)")
    with _trace.span("kernel.spmv", rows=a.nrows, cols=a.ncols, nnz=a.nnz,
                     semiring=semiring.name):
        products = np.asarray(semiring.mul(a.values, x[a.indices]))
        out_dtype = products.dtype if products.size \
            else np.result_type(a.dtype, x.dtype)
        y = np.full(a.nrows, semiring.zero, dtype=np.result_type(
            out_dtype, type(semiring.zero)))
        if products.size:
            nonempty = np.flatnonzero(a.row_lengths)
            y[nonempty] = semiring.add.reduceat(products,
                                                a.indptr[nonempty])
        return y


def vxm(x, a: Matrix, semiring: Optional[Semiring] = None) -> np.ndarray:
    """Dense row-vector multiply ``y = x ⊕.⊗ A`` (≡ ``Aᵀ ⊕.⊗ x``).

    Computed without materialising the transpose: scatter-reduce the
    per-entry products into columns.  Requires the add monoid to carry a
    true ufunc (all built-ins do).
    """
    semiring = semiring or PLUS_TIMES
    x = np.asarray(x)
    if x.shape != (a.nrows,):
        raise ValueError(f"x has shape {x.shape}, expected ({a.nrows},)")
    with _trace.span("kernel.vxm", rows=a.nrows, cols=a.ncols, nnz=a.nnz,
                     semiring=semiring.name):
        products = np.asarray(semiring.mul(x[a.row_ids()], a.values))
        out_dtype = products.dtype if products.size \
            else np.result_type(a.dtype, x.dtype)
        y = np.full(a.ncols, semiring.zero, dtype=np.result_type(
            out_dtype, type(semiring.zero)))
        if products.size:
            if semiring.add.ufunc is None:
                raise TypeError(
                    f"monoid {semiring.add.name} has no ufunc for scatter")
            semiring.add.ufunc.at(y, a.indices, products)
        return y


def mxd(a: Matrix, d: np.ndarray) -> np.ndarray:
    """Sparse × dense-matrix product ``A @ D`` (arithmetic semiring).

    One SpMV per column, batched: the per-entry products form an
    ``(nnz, k)`` block reduced row-wise with one ``reduceat``.  Used by
    NMF, where ``A`` is the big sparse term matrix and ``D`` a thin
    dense factor.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != a.ncols:
        raise ValueError(f"D has shape {d.shape}, expected ({a.ncols}, k)")
    out = np.zeros((a.nrows, d.shape[1]))
    if a.nnz == 0:
        return out
    products = a.values[:, None] * d[a.indices, :]
    lens = a.row_lengths
    nonempty = np.flatnonzero(lens)
    out[nonempty, :] = np.add.reduceat(products, a.indptr[nonempty], axis=0)
    return out


def mxv_sparse(a: Matrix, x: Vector, semiring: Optional[Semiring] = None) -> Vector:
    """SpMSpV: sparse ``y = A ⊕.⊗ x`` touching only active columns.

    Pull-style: stored entries of ``A`` whose column lies in ``x``'s
    support are selected with a sorted-membership test, multiplied, and
    reduced by output row.  Cost is O(nnz(A) · log nnz(x)) worst case but
    proportional to the frontier work for the CSR rows actually hit.
    """
    semiring = semiring or PLUS_TIMES
    if not isinstance(x, Vector):
        raise TypeError(f"x must be a Vector, got {type(x).__name__}")
    if x.n != a.ncols:
        raise ValueError(f"x has length {x.n}, expected {a.ncols}")
    with _trace.span("kernel.spmspv", rows=a.nrows, cols=a.ncols,
                     nnz=a.nnz, frontier=x.nnz,
                     semiring=semiring.name) as sp:
        out_idx = np.empty(0, dtype=np.intp)
        out_val = np.empty(0, dtype=a.dtype)
        if x.nnz and a.nnz:
            # membership of each stored column index in the frontier
            pos = np.searchsorted(x.indices, a.indices)
            pos_c = np.minimum(pos, x.nnz - 1)
            hit = x.indices[pos_c] == a.indices
            if hit.any():
                rows = a.row_ids()[hit]
                products = np.asarray(semiring.mul(a.values[hit],
                                                   x.values[pos_c[hit]]))
                # rows are already sorted (CSR row-major order is
                # preserved by masking)
                starts = np.flatnonzero(np.r_[True, np.diff(rows) != 0])
                out_idx = rows[starts]
                out_val = semiring.add.reduceat(products, starts)
        sp.set(nnz_out=len(out_idx))
        return Vector(a.nrows, out_idx, out_val, _validate=False)
