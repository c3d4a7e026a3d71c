"""Block-partitioned SpGEMM — the tablet-parallel execution shape.

Accumulo splits a table into tablets by row range; Graphulo's server-
side multiply runs per tablet.  :func:`blocked_mxm` mirrors that on a
matrix: partition A's rows into blocks, multiply each block against B
independently (optionally across a process pool), and stack the
results.  Output is bit-identical to :func:`repro.sparse.spgemm.mxm`
because SpGEMM is row-independent in A.

With ``workers > 1`` the shared operand B is handed to the pool through
``multiprocessing.shared_memory``: its CSR arrays are published once
and every worker attaches zero-copy views, so per-task pickling cost is
just the (small) A block.  Set ``share_b=False`` to fall back to
pickling B with every task (e.g. when a platform lacks POSIX shared
memory).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.obs import trace as _trace
from repro.semiring import Semiring
from repro.sparse.matrix import Matrix
from repro.sparse.spgemm import mxm
from repro.util.timing import Timer
from repro.util.validation import check_positive


def row_blocks(a: Matrix, n_blocks: int) -> List[Matrix]:
    """Split A into ≤ ``n_blocks`` contiguous row-range sub-matrices
    (the matrix analogue of tablet split points)."""
    check_positive(n_blocks, "n_blocks")
    n_blocks = min(n_blocks, max(a.nrows, 1))
    bounds = np.linspace(0, a.nrows, n_blocks + 1).astype(int)
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi <= lo:
            continue
        indptr = a.indptr[lo:hi + 1] - a.indptr[lo]
        s, e = a.indptr[lo], a.indptr[hi]
        out.append(Matrix(hi - lo, a.ncols, indptr, a.indices[s:e],
                          a.values[s:e], _validate=False))
    return out


def vstack(blocks: List[Matrix]) -> Matrix:
    """Stack row-block matrices back into one (inverse of row_blocks)."""
    if not blocks:
        raise ValueError("need at least one block")
    ncols = blocks[0].ncols
    if any(b.ncols != ncols for b in blocks):
        raise ValueError("blocks must share a column count")
    indptr = [np.zeros(1, dtype=np.intp)]
    offset = 0
    for b in blocks:
        indptr.append(b.indptr[1:] + offset)
        offset += b.nnz
    return Matrix(sum(b.nrows for b in blocks), ncols,
                  np.concatenate(indptr),
                  np.concatenate([b.indices for b in blocks]),
                  np.concatenate([b.values for b in blocks]),
                  _validate=False)


def _mxm_block(block: Matrix, b: Matrix,
               semiring_name: Optional[str]) -> Matrix:
    """Pool worker: multiply one row block against a pickled B."""
    from repro.semiring import get_semiring

    sr = get_semiring(semiring_name) if semiring_name else None
    return mxm(block, b, semiring=sr)


def _mxm_block_shm(block: Matrix, b_shape, b_meta,
                   semiring_name: Optional[str]) -> Matrix:
    """Pool worker: multiply one row block against a shared-memory B.

    Attaches zero-copy views onto B's published CSR arrays; every array
    of the result is freshly allocated by the kernel, so the views can
    be detached before returning.
    """
    from repro.parallel.pool import attach_arrays
    from repro.semiring import get_semiring

    arrays, handles = attach_arrays(b_meta)
    try:
        b = Matrix(b_shape[0], b_shape[1], arrays["indptr"],
                   arrays["indices"], arrays["values"], _validate=False)
        sr = get_semiring(semiring_name) if semiring_name else None
        return mxm(block, b, semiring=sr)
    finally:
        for shm in handles:
            shm.close()


def blocked_mxm(a: Matrix, b: Matrix, n_blocks: int = 4, workers: int = 1,
                semiring: Optional[Semiring] = None, share_b: bool = True,
                timer: Optional[Timer] = None) -> Matrix:
    """``C = A ⊕.⊗ B`` computed block-row-wise, optionally in parallel.

    ``workers > 1`` fans blocks across a process pool (built-in
    semirings only — custom operator objects don't round-trip a process
    boundary); results equal :func:`repro.sparse.spgemm.mxm` exactly.
    By default B travels to the pool through shared memory (one publish,
    zero-copy attach per worker); ``share_b=False`` pickles B per task
    instead.  ``timer`` aggregates per-worker chunk timings via
    :func:`repro.parallel.pool.parallel_map`.
    """
    if _trace.ENABLED:
        with _trace.span("kernel.spgemm.blocked", rows=a.nrows,
                         cols=b.ncols, n_blocks=n_blocks, workers=workers,
                         shared_memory=bool(share_b and workers > 1)) as sp:
            c = _blocked_mxm(a, b, n_blocks, workers, semiring, share_b,
                             timer)
            sp.set(nnz_out=c.nnz)
            return c
    return _blocked_mxm(a, b, n_blocks, workers, semiring, share_b, timer)


def _blocked_mxm(a: Matrix, b: Matrix, n_blocks: int, workers: int,
                 semiring: Optional[Semiring], share_b: bool,
                 timer: Optional[Timer]) -> Matrix:
    from repro.parallel.pool import parallel_map, share_arrays, unlink_arrays

    if workers > 1 and semiring is not None:
        from repro.semiring.builtin import _REGISTRY

        if semiring.name not in _REGISTRY:
            raise ValueError(
                "parallel blocked_mxm supports built-in semirings only")
    sr_name = semiring.name if semiring is not None else None
    blocks = row_blocks(a, n_blocks)
    if workers == 1 or len(blocks) <= 1:
        results = [mxm(blk, b, semiring=semiring) for blk in blocks]
    elif share_b:
        handles, meta = share_arrays({"indptr": b.indptr,
                                      "indices": b.indices,
                                      "values": b.values})
        try:
            results = parallel_map(
                _mxm_block_shm,
                [(blk, b.shape, meta, sr_name) for blk in blocks],
                workers=workers, timer=timer)
        finally:
            unlink_arrays(handles)
    else:
        results = parallel_map(
            _mxm_block,
            [(blk, b, sr_name) for blk in blocks],
            workers=workers, timer=timer)
    if not results:
        from repro.sparse.construct import zeros

        return zeros(a.nrows, b.ncols)
    return vstack(results)
