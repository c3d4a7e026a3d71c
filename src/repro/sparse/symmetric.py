"""Symmetry-exploiting multiply — the paper's §IV wish-list item.

    "Since it is fairly common to work with undirected graphs, providing
    a version of matrix multiplication that exploits the symmetry, only
    stores the upper-triangular part, and only computes the
    upper-triangular part of pairwise statistics, would be a welcome
    contribution to this effort."

:func:`mxm_triu` is that contribution: an SpGEMM that discards
lower-triangle products *before* the sort/compress step, so the
dominant cost (the fused-key sort + reduce of the expanded product
stream) is paid only for the upper-triangular half.  For a symmetric statistic
``S = f(A·Aᵀ)`` this halves the compress work and the output memory;
callers reconstruct the full matrix with ``C + Cᵀ`` when needed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.semiring import Semiring
from repro.semiring.builtin import PLUS_TIMES
from repro.sparse.construct import _coo_to_csr
from repro.sparse.matrix import Matrix
from repro.sparse.spgemm import expand_products


def mxm_triu(a: Matrix, b: Matrix, semiring: Optional[Semiring] = None,
             k: int = 0) -> Matrix:
    """``C = triu(A ⊕.⊗ B, k)`` computed without forming the lower part.

    Products landing strictly below diagonal ``k`` are dropped during
    expansion, before any sorting or ⊕-reduction happens — unlike
    ``triu(mxm(A, B))``, which pays full compress cost first.
    """
    semiring = semiring or PLUS_TIMES
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    rows, cols, av, bv = expand_products(a, b)
    keep = cols - rows >= k
    rows, cols = rows[keep], cols[keep]
    if rows.size == 0:
        return _coo_to_csr(a.nrows, b.ncols, rows, cols,
                           np.empty(0, dtype=np.result_type(a.dtype, b.dtype)),
                           semiring.add)
    products = np.asarray(semiring.mul(av[keep], bv[keep]))
    return _coo_to_csr(a.nrows, b.ncols, rows, cols, products, semiring.add)


def symmetric_square_upper(a: Matrix, semiring: Optional[Semiring] = None,
                           k: int = 1) -> Matrix:
    """Upper part of ``A²`` for symmetric A via the Algorithm 2 split:

        ``triu(A², k≥1) = U² + triu(U·Uᵀ, k) + triu(Uᵀ·U, k)``

    with ``U = triu(A, 1)`` — three half-sized triangular multiplies
    instead of one full square.  Returns the strictly-upper (``k=1``)
    or upper-including-diagonal (``k=0``) part.
    """
    from repro.sparse.select import triu

    if not a.equal(a.T):
        raise ValueError("symmetric_square_upper requires a symmetric matrix")
    u = triu(a, 1)
    ut = u.T
    first = mxm_triu(u, u, semiring=semiring, k=k)
    second = mxm_triu(u, ut, semiring=semiring, k=k)
    third = mxm_triu(ut, u, semiring=semiring, k=k)
    return first.ewise_add(second, op=semiring.add if semiring else None) \
        .ewise_add(third, op=semiring.add if semiring else None)
