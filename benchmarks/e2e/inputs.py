"""Seeded inputs: everything a workload feeds the store comes from here.

``--seed`` picks the Kronecker/R-MAT graph, the lookup keys and the BFS
seeds; the program under test receives only what this module returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.generators import rmat_edges, rmat_graph

EDGE_FACTOR = 8
N_TABLETS = 4
#: the graph a ``relabel=True`` input permutes
STRUCTURE_SEED = 7


@dataclass(frozen=True)
class Graph:
    """A simple undirected R-MAT graph in D4M form: vertex ``i`` is the
    row key ``keys[i]``; ``src``/``dst`` hold both directions of every
    edge in row-major order, so ``(src, dst)`` is Tedge and ``(dst,
    src)`` is TedgeT."""

    scale: int
    keys: List[str]
    splits: List[str]        # 3 split rows -> 4 tablets
    src: np.ndarray
    dst: np.ndarray
    raw: np.ndarray          # generator-order edge pairs, duplicates kept
    degree: np.ndarray       # out-degree per vertex
    rmat_s: float            # time spent inside repro.generators

    @property
    def n(self) -> int:
        return len(self.keys)

    @property
    def n_edges(self) -> int:
        return len(self.src)

    def key_pairs(self):
        """``(row key, column key)`` per stored edge, Tedge order."""
        keys = self.keys
        return [(keys[i], keys[j]) for i, j in
                zip(self.src.tolist(), self.dst.tolist())]

    def median_degree(self) -> float:
        """Median over vertices that have at least one edge."""
        return float(np.median(self.degree[self.degree > 0]))


def make_graph(scale: int, seed: int, raw: bool = False,
               relabel: bool = False) -> Graph:
    """``raw=True`` also samples the generator-order edge list (the
    ``mixed_rw`` input); it costs a second R-MAT draw, so only the
    workload that ingests it asks for it.

    ``relabel=True`` is for graphs too small for the law of large
    numbers to help: at scale 7 the partial-product count of two R-MAT
    draws differs by a fifth, which would read as run-to-run noise.  The
    structure then comes from ``STRUCTURE_SEED`` and ``seed`` permutes
    the vertex labels — row keys, sort order and tablet placement change
    with the seed, the amount of work does not."""
    t0 = time.perf_counter()
    adj = rmat_graph(scale, edge_factor=EDGE_FACTOR,
                     seed=STRUCTURE_SEED if relabel else seed)
    raw_edges = (rmat_edges(scale, edge_factor=EDGE_FACTOR, seed=seed)
                 if raw else np.empty((0, 2), dtype=np.intp))
    rmat_s = time.perf_counter() - t0
    n = 1 << scale
    width = len(str(n - 1))
    keys = [f"v{i:0{width}d}" for i in range(n)]
    src, dst, _ = adj.to_coo()
    if relabel:
        perm = np.random.default_rng([seed, 3]).permutation(n)
        src, dst = perm[src], perm[dst]
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
    return Graph(
        scale=scale, keys=keys,
        splits=[keys[n * q // N_TABLETS] for q in range(1, N_TABLETS)],
        src=src, dst=dst, raw=raw_edges,
        degree=np.bincount(src, minlength=n), rmat_s=rmat_s)
