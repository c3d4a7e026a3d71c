"""SpGEMM: memory-bounded semiring sparse matrix–matrix multiply.

One kernel, expand–fold per row tile:

* rows of A are split into contiguous tiles whose exact predicted flop
  count (:func:`predict_row_flops`, O(nnz(A))) stays under
  ``expansion_budget`` (a single row whose own flops exceed the budget
  gets a tile of its own — the hard floor row-wise SpGEMM admits);
* per tile, every multiplication ``A(i,t) ⊗ B(t,j)`` Gustavson's
  algorithm would perform is materialised as one COO product entry
  (grouped-arange gather, no Python loop), an optional structural
  ``mask`` drops products outside its stored pattern *before* the
  reduction — which is how Graphulo fuses filtering into server-side
  multiplies — and :func:`~repro.sparse.construct._coo_to_csr` folds
  the stream with the semiring's ⊕ monoid: one stable argsort of the
  fused key ``row * ncols + col``, one ``⊕.reduceat``;
* the tiles' CSR blocks are stacked.

Peak transient memory is O(budget).  The output does not depend on the
budget: tiles keep each ``(i, j)``'s products in increasing inner index
``t``, and a stable sort of the fused key folds them in that order, so
every budget gives the bytes of a single lexsorted expand–sort–compress
(the test suite's oracle).

When tracing is enabled the ``kernel.spgemm`` span records the tile
count, the peak expansion and the budget (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.obs import trace as _trace
from repro.semiring import Semiring
from repro.semiring.builtin import PLUS_TIMES
from repro.sparse.construct import _coo_to_csr
from repro.sparse.matrix import Matrix

#: Default cap on materialised Gustavson products per tile.  2^22
#: products ≈ 130 MB of transient expansion arrays at float64 — small
#: enough to stay cache-friendly, large enough that every matrix in the
#: test/benchmark zoo fits in one tile.
DEFAULT_EXPANSION_BUDGET = 1 << 22

#: Test probe: a callable invoked with every tile's expansion size
#: (number of materialised products).  Install via
#: :func:`set_expansion_probe`; used by tests to assert the budget holds.
_EXPANSION_PROBE: Optional[Callable[[int], None]] = None


def set_expansion_probe(fn: Optional[Callable[[int], None]]):
    """Install ``fn`` as the expansion-size probe (``None`` clears it).

    Returns the previous probe so tests can restore it.
    """
    global _EXPANSION_PROBE
    previous, _EXPANSION_PROBE = _EXPANSION_PROBE, fn
    return previous


def _probe(size: int) -> None:
    if _EXPANSION_PROBE is not None:
        _EXPANSION_PROBE(int(size))


def grouped_arange(counts: np.ndarray, starts: Optional[np.ndarray] = None) -> np.ndarray:
    """Concatenate ``arange(starts[k], starts[k] + counts[k])`` for all k.

    The standard vectorised "ragged ranges" trick: one global arange with
    per-group offset corrections.  With ``starts=None`` groups start at 0.

    >>> grouped_arange(np.array([2, 0, 3]), np.array([5, 9, 1]))
    array([5, 6, 1, 2, 3])
    """
    counts = np.asarray(counts, dtype=np.intp)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp)
    ends = np.cumsum(counts)
    group_starts_in_output = ends - counts
    out = np.arange(total, dtype=np.intp)
    out -= np.repeat(group_starts_in_output, counts)
    if starts is not None:
        out += np.repeat(np.asarray(starts, dtype=np.intp), counts)
    return out


def expand_products(a: Matrix, b: Matrix):
    """Materialise all Gustavson products as COO arrays.

    Returns ``(out_rows, out_cols, a_vals_expanded, b_vals_gathered)``
    so callers can choose the ⊗ operator (and SpMSpV can reuse this).
    """
    # For each stored A(i, t): how many entries does row t of B have?
    b_row_len = np.diff(b.indptr)
    counts = b_row_len[a.indices]
    out_rows = np.repeat(a.row_ids(), counts)
    gather = grouped_arange(counts, starts=b.indptr[a.indices])
    out_cols = b.indices[gather]
    a_expanded = np.repeat(a.values, counts)
    b_gathered = b.values[gather]
    return out_rows, out_cols, a_expanded, b_gathered


# -- flop prediction and tile planning ----------------------------------------

def predict_row_flops(a: Matrix, b: Matrix) -> np.ndarray:
    """Exact Gustavson multiply count per row of ``A @ B`` in O(nnz(A)).

    ``flops[i] = Σ_{t ∈ row i of A} nnz(B[t, :])`` — this is the exact
    size of the expansion :func:`mxm` materialises for row ``i``,
    not an estimate, so tile planning gives a hard memory cap.
    """
    counts = np.diff(b.indptr)[a.indices]
    prefix = np.concatenate((np.zeros(1, dtype=np.int64),
                             np.cumsum(counts, dtype=np.int64)))
    return prefix[a.indptr[1:]] - prefix[a.indptr[:-1]]


def plan_tiles(row_flops: np.ndarray, budget: int) -> List[Tuple[int, int]]:
    """Greedy contiguous row tiles whose flop sums stay ≤ ``budget``.

    Every tile holds at least one row, so a single row whose own flops
    exceed the budget becomes its own (over-budget) tile — the minimum
    granularity SpGEMM-by-rows admits.  Returns ``[(lo, hi), ...)``
    covering ``[0, nrows)``.
    """
    if budget < 1:
        raise ValueError(f"expansion budget must be >= 1, got {budget}")
    n = len(row_flops)
    if n == 0:
        return []
    prefix = np.concatenate((np.zeros(1, dtype=np.int64),
                             np.cumsum(row_flops, dtype=np.int64)))
    tiles: List[Tuple[int, int]] = []
    lo = 0
    while lo < n:
        # largest hi with prefix[hi] - prefix[lo] <= budget, but >= lo+1
        hi = int(np.searchsorted(prefix, prefix[lo] + budget, side="right")) - 1
        hi = min(max(hi, lo + 1), n)
        tiles.append((lo, hi))
        lo = hi
    return tiles


def _slice_rows(a: Matrix, lo: int, hi: int) -> Matrix:
    """Zero-copy row-range view ``A[lo:hi, :]`` (tile extraction)."""
    s, e = a.indptr[lo], a.indptr[hi]
    return Matrix(hi - lo, a.ncols, a.indptr[lo:hi + 1] - a.indptr[lo],
                  a.indices[s:e], a.values[s:e], _validate=False)


# -- the public kernel --------------------------------------------------------

def mxm(a: Matrix, b: Matrix, semiring: Optional[Semiring] = None,
        mask: Optional[Matrix] = None,
        expansion_budget: Optional[int] = None) -> Matrix:
    """``C = A ⊕.⊗ B`` (GraphBLAS SpGEMM).

    Parameters
    ----------
    semiring:
        Defaults to arithmetic plus-times.
    mask:
        Optional structural mask; only positions stored in ``mask`` are
        kept in the output (applied pre-reduction).
    expansion_budget:
        Cap on materialised products per row tile (default
        :data:`DEFAULT_EXPANSION_BUDGET`).  Peak transient memory is
        O(budget) instead of O(flops), up to single-row granularity;
        the result is the same for every budget.
    """
    semiring = semiring or PLUS_TIMES
    if a.ncols != b.nrows:
        raise ValueError(
            f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    if mask is not None:
        if mask.shape != (a.nrows, b.ncols):
            raise ValueError(f"mask shape {mask.shape} != output shape "
                             f"{(a.nrows, b.ncols)}")
        _check_mask_key_range(mask)
    budget = DEFAULT_EXPANSION_BUDGET if expansion_budget is None \
        else int(expansion_budget)
    with _trace.span("kernel.spgemm", rows=a.nrows, inner=a.ncols,
                     cols=b.ncols, nnz_a=a.nnz, nnz_b=b.nnz,
                     semiring=semiring.name, masked=mask is not None,
                     expansion_budget=budget) as sp:
        # plan row tiles under the budget, expand–mask–fold each, stack
        # the blocks
        row_flops = predict_row_flops(a, b)
        tiles = plan_tiles(row_flops, budget)
        c = _stack_tiles(a.nrows, b.ncols, a.dtype, b.dtype,
                         [_tile(a, lo, hi, b, semiring, mask)
                          for lo, hi in tiles])
        sp.set(nnz_out=c.nnz, n_tiles=len(tiles),
               peak_expansion=max((int(row_flops[lo:hi].sum())
                                   for lo, hi in tiles), default=0))
        return c


def _tile(a: Matrix, lo: int, hi: int, b: Matrix, semiring: Semiring,
          mask: Optional[Matrix]) -> Matrix:
    """Expand, mask and fold the row tile ``A[lo:hi]`` → tile-local CSR."""
    tile = _slice_rows(a, lo, hi)
    out_rows, out_cols, av, bv = expand_products(tile, b)
    _probe(out_rows.size)
    if out_rows.size == 0:
        products = np.empty(0, dtype=np.result_type(a.dtype, b.dtype))
    else:
        products = np.asarray(semiring.mul(av, bv))
        if mask is not None:
            keep = _mask_filter(mask, out_rows + lo, out_cols)
            out_rows, out_cols = out_rows[keep], out_cols[keep]
            products = products[keep]
    return _coo_to_csr(tile.nrows, b.ncols, out_rows, out_cols, products,
                       semiring.add)


def _stack_tiles(nrows: int, ncols: int, a_dtype, b_dtype,
                 parts: List[Matrix]) -> Matrix:
    """Stitch contiguous tile CSR blocks into the full output matrix.

    A lone tile is the output.  Otherwise zero-nnz tiles are skipped
    when concatenating values so an empty tile's placeholder dtype never
    promotes the result dtype.
    """
    if len(parts) == 1:
        return parts[0]
    indptr_parts = [np.zeros(1, dtype=np.intp)]
    offset = 0
    for part in parts:
        indptr_parts.append(part.indptr[1:] + offset)
        offset += part.nnz
    live = [p for p in parts if p.nnz]
    if live:
        indices = np.concatenate([p.indices for p in live])
        values = np.concatenate([p.values for p in live])
    else:
        indices = np.empty(0, dtype=np.intp)
        values = np.empty(0, dtype=np.result_type(a_dtype, b_dtype))
    return Matrix(nrows, ncols, np.concatenate(indptr_parts), indices, values,
                  _validate=False)


# -- masking ------------------------------------------------------------------

def _check_mask_key_range(mask: Matrix) -> None:
    """Reject masks whose flat ``row * ncols + col`` key would overflow
    int64 — a silent wraparound would drop/keep the wrong entries."""
    if mask.nrows and mask.ncols \
            and mask.nrows * mask.ncols - 1 > np.iinfo(np.int64).max:
        raise ValueError(
            f"mask of shape {mask.shape} cannot be key-encoded: "
            f"nrows * ncols = {mask.nrows * mask.ncols} exceeds the int64 "
            "flat-index range")


def _mask_filter(mask: Matrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Boolean keep-array: which (rows, cols) positions are stored in mask.

    Relies on the :class:`Matrix` canonical-CSR invariant: the mask's
    ``(row, col)`` keys are row-major sorted with no duplicates, so the
    flat keys ``row * ncols + col`` are strictly increasing and a single
    ``searchsorted`` decides membership — no pre-sort is ever needed.
    Callers must run :func:`_check_mask_key_range` first (the flat
    encoding overflows int64 for pathologically wide masks).
    """
    key = rows.astype(np.int64) * mask.ncols + cols
    mkey = mask.row_ids().astype(np.int64) * mask.ncols + mask.indices
    if len(mkey) == 0:
        return np.zeros(len(key), dtype=bool)
    pos = np.minimum(np.searchsorted(mkey, key), len(mkey) - 1)
    return mkey[pos] == key


def mxm_dense_reference(a: Matrix, b: Matrix,
                        semiring: Optional[Semiring] = None) -> np.ndarray:
    """O(n³) dense semiring multiply — the test oracle for :func:`mxm`.

    Kept in the library (not tests) because benchmarks also use it as
    the naive baseline.
    """
    semiring = semiring or PLUS_TIMES
    zero = semiring.zero
    ad = a.to_dense(fill=zero)
    bd = b.to_dense(fill=zero)
    m, k = ad.shape
    k2, n = bd.shape
    if k != k2:
        raise ValueError(f"dimension mismatch: {ad.shape} @ {bd.shape}")
    out = np.full((m, n), zero, dtype=np.result_type(ad, bd))
    for t in range(k):  # single Python loop over the shared dimension
        # outer "product" of A[:, t] and B[t, :] under ⊗, folded with ⊕
        contrib = np.asarray(semiring.mul(ad[:, t][:, None], bd[t, :][None, :]))
        out = np.asarray(semiring.add(out, contrib))
    return out
