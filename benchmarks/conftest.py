"""Shared benchmark fixtures and workload builders.

Every benchmark module regenerates one of the paper's tables/figures
(see DESIGN.md §4).  Graphs come from the RMAT/planted-structure
generators at sizes that keep the full suite under a few minutes while
still showing the scaling shape.

Observability hooks: set ``REPRO_TRACE=out.jsonl`` to stream kernel /
dbsim spans from the benchmark run to a JSONL trace file.  The session
always ends with a dump of the global metrics registry (per-table dbsim
counters accumulated across all benchmarks).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.generators import planted_clique, rmat_graph
from repro.obs import JSONLSink, global_registry
from repro.obs import trace as _trace
from repro.schemas import edge_list_from_adjacency, incidence_unoriented


def pytest_configure(config):
    path = os.environ.get("REPRO_TRACE")
    if path:
        _trace.enable(JSONLSink(path))


def pytest_sessionfinish(session, exitstatus):
    if os.environ.get("REPRO_TRACE"):
        _trace.disable(close=True)
    export = global_registry().export()
    if export:
        print("\n-- repro metrics registry " + "-" * 40)
        for name in sorted(export):
            print(f"{name:<56} {export[name]}")


def rmat_workload(scale: int, edge_factor: int = 8, seed: int = 0):
    """Simple undirected RMAT graph + its incidence matrix + edge list."""
    a = rmat_graph(scale, edge_factor=edge_factor, seed=seed)
    edges = edge_list_from_adjacency(a)
    e = incidence_unoriented(a.nrows, edges)
    return a, e, edges


@pytest.fixture(scope="session")
def rmat_small():
    """~256-vertex power-law graph (fast per-iteration benchmarks)."""
    return rmat_workload(8)


@pytest.fixture(scope="session")
def rmat_medium():
    """~1024-vertex power-law graph."""
    return rmat_workload(10)


@pytest.fixture(scope="session")
def clique_workload():
    """Planted-clique graph for subgraph-detection benchmarks."""
    a, members = planted_clique(300, 20, p=0.03, seed=0)
    edges = edge_list_from_adjacency(a)
    e = incidence_unoriented(a.nrows, edges)
    return a, e, members
