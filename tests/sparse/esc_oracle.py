"""Reference SpGEMM: the monolithic expand–sort–compress kernel with a
lexsort fold, kept only as the oracle ``mxm`` and ``_coo_to_csr`` are
tested against.  It shares ``expand_products`` with the library but not
its fold (the fused-key argsort) or its mask filter.
"""

import numpy as np

from repro.semiring.builtin import PLUS_TIMES
from repro.sparse.matrix import Matrix
from repro.sparse.spgemm import expand_products


def lexsort_coo_to_csr(nrows, ncols, rows, cols, vals, dup):
    """Lexsort COO triples by ``(row, col)`` and fold duplicates with
    ``dup.reduceat`` in input order."""
    if rows.size == 0:
        return Matrix(nrows, ncols, np.zeros(nrows + 1, dtype=np.intp),
                      rows.astype(np.intp), vals, _validate=False)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    starts = np.flatnonzero(
        np.r_[True, (np.diff(rows) != 0) | (np.diff(cols) != 0)])
    out_vals = vals if len(starts) == len(vals) \
        else dup.reduceat(vals, starts)
    indptr = np.zeros(nrows + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows[starts], minlength=nrows), out=indptr[1:])
    return Matrix(nrows, ncols, indptr, cols[starts].astype(np.intp),
                  out_vals, _validate=False)


def esc_mxm(a, b, semiring=None, mask=None):
    """``A ⊕.⊗ B`` in one expansion, masked by ``np.isin`` on flat keys."""
    semiring = semiring or PLUS_TIMES
    rows, cols, av, bv = expand_products(a, b)
    if rows.size == 0:
        vals = np.empty(0, dtype=np.result_type(a.dtype, b.dtype))
    else:
        vals = np.asarray(semiring.mul(av, bv))
        if mask is not None:
            keep = np.isin(rows * b.ncols + cols,
                           mask.row_ids() * mask.ncols + mask.indices)
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return lexsort_coo_to_csr(a.nrows, b.ncols, rows, cols, vals,
                              semiring.add)
