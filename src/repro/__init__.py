"""Graphulo reproduction: linear-algebra graph kernels for NoSQL databases.

Reproduces Gadepally et al., *"Graphulo: Linear Algebra Graph Kernels
for NoSQL Databases"* (IPDPSW 2015, arXiv:1508.07372):

* :mod:`repro.semiring` — semiring algebra (tropical, boolean, ...);
* :mod:`repro.sparse` — the GraphBLAS kernel substrate (SpGEMM,
  SpM{Sp}V, SpEWiseX, SpRef, SpAsgn, Scale, Apply, Reduce);
* :mod:`repro.assoc` — D4M associative arrays;
* :mod:`repro.schemas` — adjacency / incidence / D4M graph schemas;
* :mod:`repro.dbsim` — a simulated Accumulo (sorted KV tablets,
  server-side iterators, Graphulo TableMult);
* :mod:`repro.algorithms` — the paper's algorithms recast in kernel
  form (k-truss, Jaccard, centrality, NMF, traversal, shortest paths,
  similarity, prediction, community detection);
* :mod:`repro.generators` — graphs and the synthetic tweet corpus;
* :mod:`repro.obs` — observability: span tracing, metrics registry,
  convergence telemetry (see docs/OBSERVABILITY.md).

Quickstart::

    from repro.generators import fig1_graph, fig1_edges
    from repro.schemas import incidence_unoriented
    from repro.algorithms import ktruss, jaccard

    E = incidence_unoriented(5, fig1_edges())
    E3 = ktruss(E, k=3)          # paper Algorithm 1
    J = jaccard(fig1_graph())    # paper Algorithm 2
"""

import importlib

__version__ = "1.0.0"

__all__ = [
    "algorithms",
    "assoc",
    "dbsim",
    "generators",
    "obs",
    "schemas",
    "semiring",
    "sparse",
    "util",
    "__version__",
]


def __getattr__(name: str):
    """Import a subpackage on first access (PEP 562).  A spawned tablet
    server runs ``repro.net.server`` and nothing else: importing all
    nine subpackages here cost every child ~0.2 s of numpy and kernels
    it never calls, and a cluster waits for its slowest child."""
    if name in __all__:  # __version__ is a global: never gets here
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
