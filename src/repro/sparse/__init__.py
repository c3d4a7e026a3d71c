"""Semiring-generic sparse linear algebra: the GraphBLAS kernel substrate.

Implements the kernel set the paper builds on (Section I):

================  =============================================
GraphBLAS kernel  Here
================  =============================================
SpGEMM            :func:`repro.sparse.spgemm.mxm`
SpM{Sp}V          :func:`repro.sparse.spmv.mxv` / ``mxv_sparse``
SpEWiseX          :func:`repro.sparse.ewise.ewise_mult`
(SpEWiseAdd)      :func:`repro.sparse.ewise.ewise_add`
SpRef             :func:`repro.sparse.select.extract`
SpAsgn            :func:`repro.sparse.select.assign`
Scale             :func:`repro.sparse.apply.scale`
Apply             :func:`repro.sparse.apply.apply`
Reduce            :func:`repro.sparse.reduce.reduce_rows` et al.
================  =============================================

Matrices are CSR with canonically sorted, duplicate-free indices; all
kernels are parameterised by :class:`repro.semiring.Semiring` (or a
monoid / binary op where that is the natural signature) and implemented
with vectorised NumPy — no per-entry Python loops.
"""

from repro.sparse.matrix import Matrix
from repro.sparse.vector import Vector
from repro.sparse.construct import (
    diag_matrix,
    from_coo,
    from_dense,
    from_edges,
    identity,
    zeros,
)
from repro.sparse.spgemm import (
    DEFAULT_EXPANSION_BUDGET,
    mxm,
    plan_tiles,
    predict_row_flops,
    set_expansion_probe,
)
from repro.sparse.spmv import mxd, mxv, mxv_sparse, vxm
from repro.sparse.ewise import ewise_add, ewise_mult
from repro.sparse.select import (
    assign,
    diag,
    extract,
    offdiag,
    select_values,
    tril,
    triu,
)
from repro.sparse.apply import apply, prune, scale
from repro.sparse.reduce import reduce_cols, reduce_rows, reduce_scalar
from repro.sparse.kron import kron
from repro.sparse.symmetric import mxm_triu, symmetric_square_upper
from repro.sparse.io import (
    read_matrix_market,
    read_tsv_matrix,
    write_matrix_market,
    write_tsv_matrix,
)

__all__ = [
    "Matrix",
    "Vector",
    "diag_matrix",
    "from_coo",
    "from_dense",
    "from_edges",
    "identity",
    "zeros",
    "mxm",
    "DEFAULT_EXPANSION_BUDGET",
    "plan_tiles",
    "predict_row_flops",
    "set_expansion_probe",
    "mxd",
    "mxv",
    "mxv_sparse",
    "vxm",
    "ewise_add",
    "ewise_mult",
    "assign",
    "diag",
    "extract",
    "offdiag",
    "select_values",
    "tril",
    "triu",
    "apply",
    "prune",
    "scale",
    "reduce_cols",
    "reduce_rows",
    "reduce_scalar",
    "kron",
    "mxm_triu",
    "symmetric_square_upper",
    "read_matrix_market",
    "read_tsv_matrix",
    "write_matrix_market",
    "write_tsv_matrix",
]
