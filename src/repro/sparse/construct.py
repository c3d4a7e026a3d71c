"""Matrix constructors: COO/dense/edge-list ingestion, identity, diag.

``from_coo`` is the canonical entry point: it sorts, deduplicates (with
a configurable combining monoid — NoSQL ingest semantics, where writing
the same key twice combines under the table's combiner iterator), and
produces canonical CSR.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.semiring import Monoid
from repro.semiring.builtin import PLUS_MONOID
from repro.sparse.matrix import Matrix


def _coo_to_csr(nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray,
                vals: np.ndarray, dup: Monoid) -> Matrix:
    """Sort + deduplicate COO triples into canonical CSR.

    The one fold every kernel that produces COO output goes through
    (SpGEMM, eWiseAdd, kron, extract/assign, ``from_coo``): one stable
    ``argsort`` of the fused key ``row * ncols + col``, one segmented
    ``dup.reduceat``.  A stable sort of the fused key is exactly
    ``lexsort((cols, rows))``'s ``(row, col, position)`` order, so
    duplicates fold in input order and every output bit is the lexsort
    fold's.  Only when ``nrows * ncols - 1`` overflows ``intp`` — the
    one shape the fused key cannot represent — does it lexsort instead.
    """
    if rows.size == 0:
        indptr = np.zeros(nrows + 1, dtype=np.intp)
        return Matrix(nrows, ncols, indptr, rows.astype(np.intp), vals,
                      _validate=False)
    if int(nrows) * int(ncols) - 1 > np.iinfo(np.intp).max:
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        # a new (row, col) key starts where either component changes
        starts = np.flatnonzero(
            np.r_[True, (np.diff(rows) != 0) | (np.diff(cols) != 0)])
        out_rows, out_cols = rows[starts], cols[starts]
    else:
        key = rows.astype(np.intp, copy=False) * ncols + cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.r_[True, np.diff(key) != 0])
        out_rows, out_cols = np.divmod(key[starts], ncols)
    vals = vals[order]
    if len(starts) == len(vals):
        out_vals = vals  # no duplicates: skip the reduce entirely
    else:
        out_vals = dup.reduceat(vals, starts)
    # bincount + cumsum, not np.add.at: add.at's unbuffered fancy-index
    # loop is ~10x slower and this runs on every kernel's output path.
    indptr = np.zeros(nrows + 1, dtype=np.intp)
    np.cumsum(np.bincount(out_rows, minlength=nrows), out=indptr[1:])
    return Matrix(nrows, ncols, indptr, out_cols.astype(np.intp, copy=False),
                  out_vals, _validate=False)


def from_coo(nrows: int, ncols: int, rows, cols, values=None,
             dup: Optional[Monoid] = None) -> Matrix:
    """Build a Matrix from COO triples.

    Parameters
    ----------
    rows, cols:
        Integer index arrays (any order, duplicates allowed).
    values:
        Aligned value array; defaults to all-ones (pattern matrix).
    dup:
        Monoid combining duplicate ``(i, j)`` entries (default: plus).
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ValueError("rows/cols must be aligned 1-D arrays")
    if values is None:
        values = np.ones(len(rows), dtype=np.float64)
    else:
        values = np.asarray(values)
        if values.shape != rows.shape:
            raise ValueError("values must align with rows/cols")
    if len(rows):
        if rows.min() < 0 or rows.max() >= nrows:
            raise ValueError(f"row index out of range for nrows={nrows}")
        if cols.min() < 0 or cols.max() >= ncols:
            raise ValueError(f"col index out of range for ncols={ncols}")
    return _coo_to_csr(nrows, ncols, rows, cols, values, dup or PLUS_MONOID)


def from_dense(dense, zero=0.0) -> Matrix:
    """Sparsify a dense 2-D array; entries equal to ``zero`` are dropped."""
    dense = np.asarray(dense)
    if dense.ndim != 2:
        raise ValueError(f"expected 2-D array, got ndim={dense.ndim}")
    if isinstance(zero, float) and np.isnan(zero):
        rows, cols = np.nonzero(~np.isnan(dense))
    else:
        rows, cols = np.nonzero(dense != zero)
    return from_coo(dense.shape[0], dense.shape[1], rows, cols,
                    dense[rows, cols])


def from_edges(n: int, edges, weights=None, undirected: bool = False,
               dup: Optional[Monoid] = None) -> Matrix:
    """Adjacency matrix from an edge list (paper §II-B1 schema).

    ``edges`` is an iterable/array of ``(u, v)`` pairs.  Parallel edges
    accumulate under ``dup`` (default plus — matching the paper's
    "A(i,j) = # edges from vi to vj").  With ``undirected=True``, each
    edge is mirrored; self loops are not double-counted.
    """
    edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                       dtype=np.intp)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must be an (m, 2) array of pairs")
    u, v = edges[:, 0], edges[:, 1]
    if weights is None:
        w = np.ones(len(u), dtype=np.float64)
    else:
        w = np.asarray(weights)
        if w.shape != u.shape:
            raise ValueError("weights must align with edges")
    if undirected:
        keep = u != v  # don't mirror self loops
        u = np.concatenate([u, v[keep]])
        v = np.concatenate([v, edges[:, 0][keep]])
        w = np.concatenate([w, w[keep]])
    return from_coo(n, n, u, v, w, dup=dup)


def identity(n: int, one=1.0) -> Matrix:
    """The n×n identity under a semiring whose multiplicative one is ``one``."""
    idx = np.arange(n, dtype=np.intp)
    indptr = np.arange(n + 1, dtype=np.intp)
    return Matrix(n, n, indptr, idx, np.full(n, one), _validate=False)


def diag_matrix(d) -> Matrix:
    """Square matrix with vector ``d`` on the diagonal (zeros dropped)."""
    d = np.asarray(d)
    if d.ndim != 1:
        raise ValueError("d must be 1-D")
    n = len(d)
    keep = np.flatnonzero(d != 0)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(keep, minlength=n), out=indptr[1:])
    return Matrix(n, n, indptr, keep, d[keep], _validate=False)


def zeros(nrows: int, ncols: int, dtype=np.float64) -> Matrix:
    """Matrix with no stored entries."""
    return Matrix(nrows, ncols, np.zeros(nrows + 1, dtype=np.intp),
                  np.empty(0, dtype=np.intp), np.empty(0, dtype=dtype),
                  _validate=False)
