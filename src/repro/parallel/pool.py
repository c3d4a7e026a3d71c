"""Process-pool sweep drivers.

All worker functions are module level (picklable); each takes one
self-contained argument tuple, computes a chunk, and the driver
combines chunk results.  ``workers=1`` short-circuits to serial
execution — no pool, no pickling — which is also the safe default for
small inputs where process startup would dominate.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.sparse.matrix import Matrix
from repro.util.timing import Timer
from repro.util.validation import check_positive, check_square


def chunk_evenly(items: Sequence, n_chunks: int) -> List[Sequence]:
    """Split ``items`` into ≤ n_chunks contiguous, size-balanced chunks."""
    check_positive(n_chunks, "n_chunks")
    n = len(items)
    if n == 0:
        return []
    n_chunks = min(n_chunks, n)
    bounds = np.linspace(0, n, n_chunks + 1).astype(int)
    return [items[bounds[i]:bounds[i + 1]] for i in range(n_chunks)
            if bounds[i] < bounds[i + 1]]


def _timed_call(fn: Callable, args: Sequence):
    """Worker-side wrapper: run one chunk under a fresh Timer and ship
    both back (Timer is a picklable dataclass of dicts)."""
    t = Timer()
    with t.section(getattr(fn, "__name__", "chunk")):
        result = fn(*args)
    return result, t


def parallel_map(fn: Callable, args_list: Sequence, workers: int = 1,
                 timer: Optional[Timer] = None) -> List:
    """Map a picklable function over argument tuples, preserving order.

    With ``timer`` given, each chunk runs under a per-worker
    :class:`~repro.util.timing.Timer` that is merged back into it
    (section name = the worker function's name), so callers see
    aggregate chunk time and call counts across the pool.
    """
    check_positive(workers, "workers")
    if workers == 1 or len(args_list) <= 1:
        if timer is None:
            return [fn(*args) for args in args_list]
        results = []
        for args in args_list:
            result, t = _timed_call(fn, args)
            timer.merge(t)
            results.append(result)
        return results
    with ProcessPoolExecutor(max_workers=workers) as pool:
        if timer is None:
            futures = [pool.submit(fn, *args) for args in args_list]
            return [f.result() for f in futures]
        futures = [pool.submit(_timed_call, fn, args) for args in args_list]
        results = []
        for f in futures:
            result, t = f.result()
            timer.merge(t)
            results.append(result)
        return results


# -- module-level chunk workers (must be picklable) --------------------------

def _betweenness_chunk(a: Matrix, sources: np.ndarray) -> np.ndarray:
    from repro.algorithms.centrality import betweenness_centrality

    # per-chunk partial sums; undirected halving is applied once by the
    # driver, so ask for the raw directed accumulation here
    deltas = betweenness_centrality(a, directed=True, sources=sources)
    return deltas


def _closeness_chunk(a: Matrix, vertices: np.ndarray,
                     weighted: bool) -> np.ndarray:
    from repro.algorithms.shortestpath import bellman_ford
    from repro.algorithms.traversal import bfs

    n = a.nrows
    out = np.zeros(n)
    for v in vertices:
        if weighted:
            d = bellman_ford(a, int(v))
            reach = np.isfinite(d)
        else:
            d = bfs(a, int(v)).astype(np.float64)
            reach = d >= 0
        total = float(d[reach].sum())
        k = int(reach.sum())
        if k <= 1 or total <= 0:
            continue
        c = (k - 1) / total
        if n > 1:
            c *= (k - 1) / (n - 1)
        out[int(v)] = c
    return out


def _sssp_chunk(a: Matrix, sources: np.ndarray) -> np.ndarray:
    from repro.algorithms.baselines import dijkstra

    return np.vstack([dijkstra(a, int(s)) for s in sources])


# -- drivers -------------------------------------------------------------------

def parallel_betweenness(a: Matrix, workers: int = 1,
                         directed: bool = False,
                         timer: Optional[Timer] = None) -> np.ndarray:
    """Exact betweenness with the per-source sweep spread over a
    process pool.  Matches
    :func:`repro.algorithms.centrality.betweenness_centrality`.
    """
    n = check_square(a, "adjacency matrix")
    chunks = chunk_evenly(np.arange(n), workers)
    partials = parallel_map(_betweenness_chunk,
                            [(a, c) for c in chunks], workers=workers,
                            timer=timer)
    total = np.sum(partials, axis=0) if partials else np.zeros(n)
    if not directed:
        total /= 2.0
    return total


def parallel_closeness(a: Matrix, workers: int = 1,
                       weighted: bool = False,
                       timer: Optional[Timer] = None) -> np.ndarray:
    """Closeness centrality (Wasserman–Faust corrected), chunked by
    source vertex across processes."""
    n = check_square(a, "adjacency matrix")
    chunks = chunk_evenly(np.arange(n), workers)
    partials = parallel_map(_closeness_chunk,
                            [(a, c, weighted) for c in chunks],
                            workers=workers, timer=timer)
    return np.sum(partials, axis=0) if partials else np.zeros(n)


def parallel_sssp_matrix(a: Matrix, workers: int = 1,
                         sources: Optional[Sequence[int]] = None,
                         timer: Optional[Timer] = None) -> np.ndarray:
    """Distance matrix rows for ``sources`` (default: all) via
    per-source Dijkstra spread over processes — the classical APSP
    counterpart to :func:`repro.algorithms.shortestpath.apsp_min_plus`.
    """
    n = check_square(a, "adjacency matrix")
    src = np.arange(n) if sources is None else np.asarray(sources, dtype=np.intp)
    chunks = chunk_evenly(src, workers)
    blocks = parallel_map(_sssp_chunk, [(a, c) for c in chunks],
                          workers=workers, timer=timer)
    if not blocks:
        return np.zeros((0, n))
    return np.vstack(blocks)
