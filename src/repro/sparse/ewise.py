"""SpEWiseX / eWiseAdd: elementwise multiply (intersection) and add (union).

Both operate on the sorted COO key streams that CSR canonical form
already provides, so intersection/union reduce to one
``numpy.intersect1d`` / concatenate-and-sort over int64-encoded keys.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.semiring import BinaryOp
from repro.semiring.builtin import PLUS, TIMES
from repro.sparse.construct import _coo_to_csr
from repro.sparse.matrix import Matrix
from repro.semiring.builtin import PLUS_MONOID


def _keys(m: Matrix) -> np.ndarray:
    """Row-major int64 key per stored entry (sorted by CSR invariant)."""
    return m.row_ids().astype(np.int64) * m.ncols + m.indices


def ewise_mult(a: Matrix, b: Matrix, op: Optional[BinaryOp] = None) -> Matrix:
    """Intersection elementwise combine: ``C(i,j) = a(i,j) ⊗ b(i,j)``
    only where *both* store an entry (GraphBLAS SpEWiseX / Hadamard).

    The default ⊗ is arithmetic times.
    """
    op = op or TIMES
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    ka, kb = _keys(a), _keys(b)
    common, ia, ib = np.intersect1d(ka, kb, assume_unique=True,
                                    return_indices=True)
    if len(common) == 0:
        vals = np.empty(0, dtype=np.result_type(a.dtype, b.dtype))
    else:
        vals = np.asarray(op(a.values[ia], b.values[ib]))
    rows = (common // a.ncols).astype(np.intp)
    cols = (common % a.ncols).astype(np.intp)
    # keys were sorted and unique, so the COO stream is already canonical
    indptr = np.zeros(a.nrows + 1, dtype=np.intp)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return Matrix(a.nrows, a.ncols, indptr, cols, vals, _validate=False)


def ewise_add(a: Matrix, b: Matrix, op: Optional[BinaryOp] = None) -> Matrix:
    """Union elementwise combine: present-in-one entries pass through,
    present-in-both combine with ``op`` (default arithmetic plus).

    This is the associative-array "summation is union" operation from
    paper §II-A.
    """
    op = op or PLUS
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    ka, kb = _keys(a), _keys(b)
    common, ia, ib = np.intersect1d(ka, kb, assume_unique=True,
                                    return_indices=True)
    mask_a = np.ones(a.nnz, dtype=bool)
    mask_a[ia] = False
    mask_b = np.ones(b.nnz, dtype=bool)
    mask_b[ib] = False
    if len(common):
        both_vals = np.asarray(op(a.values[ia], b.values[ib]))
    else:
        both_vals = a.values[:0]
    keys = np.concatenate([common, ka[mask_a], kb[mask_b]])
    vals = np.concatenate([both_vals, a.values[mask_a], b.values[mask_b]])
    rows = (keys // a.ncols).astype(np.intp)
    cols = (keys % a.ncols).astype(np.intp)
    # unique keys: the shared fold only sorts them
    return _coo_to_csr(a.nrows, a.ncols, rows, cols, vals, PLUS_MONOID)
