"""Jaccard, k-truss and intersect as two-table ops, against the client
loops they replaced (``tests/dbsim/algorithms_oracle.py``), over random
inputs.

Every example runs the library in process on one server and on two,
and on a thread cluster, and compares its result table with the
oracle's, run in process: ``table_jaccard`` and ``table_ktruss`` on
random undirected 0/1 graphs, value for value (their timestamps are
stamped, so they differ), and ``table_ktruss`` on weighted edge tables,
a 0-valued edge among them; ``table_intersect`` — a masked one-table
op, matching on (row, qualifier) whatever the families — on random
tables with two families, visibilities and explicit timestamps, cell
for cell, timestamps included, keeping either side, on a process
cluster too.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dbsim import Connector
from repro.dbsim.graphulo_algorithms import (
    table_intersect,
    table_jaccard,
    table_ktruss,
)
from repro.dbsim.server import Instance
from repro.net.cluster import LocalCluster
from repro.obs.metrics import MetricsRegistry

from tests.dbsim.algorithms_oracle import (
    filter_ktruss,
    merge_intersect,
    mirror_jaccard,
)

BACKENDS = pytest.mark.parametrize("backend", ["1 server", "2 servers",
                                               "thread cluster"])
SETTINGS = settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _running(processes):
    with LocalCluster(n_servers=2, processes=processes) as running:
        conn = running.connect(metrics=MetricsRegistry())
        try:
            yield conn
        finally:
            conn.close()


@pytest.fixture(scope="module")
def cluster():
    yield from _running(processes=False)


@pytest.fixture(scope="module")
def process_cluster():
    yield from _running(processes=True)


def _local(n_servers=1):
    return Connector(Instance(n_servers=n_servers, metrics=MetricsRegistry()))


def _backend(backend, cluster):
    """A connection with no tables on the named backend: ``cluster``
    for either kind of cluster."""
    if not backend.endswith("cluster"):
        return _local(int(backend[0]))
    for table in cluster.instance.list_tables():
        cluster.delete_table(table)
    return cluster


def _vertex(i):
    return f"v{i}"


@st.composite
def graphs(draw):
    """An undirected simple graph as its edge set, each edge once."""
    n = draw(st.integers(2, 9))
    return n, draw(st.sets(st.sampled_from(
        list(itertools.combinations(range(n), 2)))))


def _load_graph(conn, graph):
    n, edges = graph
    conn.create_table("A", splits=[_vertex(3), _vertex(6)])
    with conn.batch_writer("A") as writer:
        for u, v in sorted(edges):
            writer.put(_vertex(u), "", _vertex(v), 1)
            writer.put(_vertex(v), "", _vertex(u), 1)


def _values(conn, table):
    return {(c.key.row, c.key.family, c.key.qualifier, c.key.visibility):
            c.value for c in conn.scanner(table)}


@BACKENDS
@SETTINGS
@given(graph=graphs(), k=st.integers(3, 5))
def test_jaccard_and_ktruss_equal_the_client_loops(cluster, backend, graph,
                                                   k):
    ours, ref = _backend(backend, cluster), _local()
    for conn in (ours, ref):
        _load_graph(conn, graph)
    table_jaccard(ours, "A", "J")
    table_ktruss(ours, "A", "K", k)
    mirror_jaccard(ref, "A", "J")
    filter_ktruss(ref, "A", "K", k)
    assert _values(ours, "J") == _values(ref, "J")
    assert _values(ours, "K") == _values(ref, "K")
    assert sorted(ours.instance.list_tables()) == ["A", "J", "K"]


#: edge values k-truss must ignore: weights, and a weight of 0
EDGE_VALUES = {"weighted": lambda u, v: 0.25 * (1 + (u * 3 + v) % 4),
               "zero edge": lambda u, v: 0 if (u, v) == (0, 1) else 1}


@BACKENDS
@pytest.mark.parametrize("values", sorted(EDGE_VALUES))
def test_ktruss_ignores_edge_values(cluster, backend, values):
    """k-truss's first round reads the edge table itself under ⊗ =
    ``pair``: ``K`` is the one the client loop's 0/1 copy of it gives,
    a 0-valued edge counted like any other.  Under ⊗ = times, weights
    below 1 and the 0 would each drop edges of this 4-truss."""
    weight = EDGE_VALUES[values]
    # a K4, whose edges have support exactly k − 2, and a triangle and
    # a pendant edge hanging off it that a 4-truss peels away
    edges = [*itertools.combinations(range(4), 2),
             (3, 4), (3, 5), (4, 5), (5, 6)]
    ours, ref = _backend(backend, cluster), _local()
    for conn in (ours, ref):
        conn.create_table("A", splits=[_vertex(3)])
        with conn.batch_writer("A") as writer:
            for u, v in edges:
                writer.put(_vertex(u), "", _vertex(v), weight(u, v))
                writer.put(_vertex(v), "", _vertex(u), weight(u, v))
    table_ktruss(ours, "A", "K", 4)
    filter_ktruss(ref, "A", "K", 4)
    got = _values(ours, "K")
    assert got == _values(ref, "K")
    assert len(got) == 12 and (_vertex(0), "", _vertex(1), "") in got


#: keys drawn from a small space, so the two tables overlap
KEYS = st.tuples(st.sampled_from(["r0", "r1", "r2", "r3", "r4"]),
                 st.sampled_from(["", "f"]),
                 st.sampled_from(["q0", "q1", "q2"]),
                 st.sampled_from(["", "", "hidden"]))
TABLES = st.dictionaries(KEYS, st.tuples(st.integers(1, 50),
                                         st.integers(-3, 9)), max_size=30)


def _load_cells(conn, name, cells):
    conn.create_table(name, splits=["r2"])
    with conn.batch_writer(name) as writer:
        for (row, family, qual, vis), (stamp, value) in sorted(cells.items()):
            writer.put_many([row], [qual], [value], family=[family],
                            visibility=[vis], timestamps=[stamp])


@pytest.mark.parametrize("backend", ["1 server", "2 servers",
                                     "thread cluster", "process cluster"])
@SETTINGS
@given(left=TABLES, right=TABLES, keep=st.sampled_from(["left", "right"]))
def test_intersect_equals_the_client_merge(request, backend, left, right,
                                           keep):
    clusters = {"thread cluster": "cluster",
                "process cluster": "process_cluster"}
    ours = _backend(backend, request.getfixturevalue(
        clusters[backend]) if backend in clusters else None)
    ref = _local()
    for conn in (ours, ref):
        _load_cells(conn, "L", left)
        _load_cells(conn, "R", right)
    table_intersect(ours, "L", "R", "I", keep=keep)
    merge_intersect(ref, "L", "R", "I", keep=keep)
    assert list(ours.scanner("I")) == list(ref.scanner("I"))
