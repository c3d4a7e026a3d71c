"""Multi-tenant analytics: one physical graph table, per-analyst
visibility labels, different server-side results per authorization set.

This exercises the paper's NoSQL motivation end to end: cell-level
security (an Accumulo differentiator) composed with the Graphulo ops —
each analyst's TableMult/BFS sees only their subgraph.
"""

import numpy as np
import pytest

from repro.dbsim import (
    Authorizations,
    Connector,
    degree_table,
    table_bfs,
    table_mult,
    table_to_assoc,
)
from repro.dbsim.key import decode_number
from repro.dbsim.server import Instance


@pytest.fixture
def conn():
    """A graph whose edges are split between two compartments.

    Public spine: v0–v1–v2.  Compartment "red" adds v2–v3, v3–v4;
    compartment "blue" adds v0–v5.
    """
    c = Connector(Instance(n_servers=2))
    c.create_table("edges")
    def put_edge(w, u, v, vis=""):
        w.put(f"v{u}", "", f"v{v}", 1, visibility=vis)
        w.put(f"v{v}", "", f"v{u}", 1, visibility=vis)

    with c.batch_writer("edges") as w:
        put_edge(w, 0, 1)
        put_edge(w, 1, 2)
        put_edge(w, 2, 3, "red")
        put_edge(w, 3, 4, "red")
        put_edge(w, 0, 5, "blue")
    return c


RED = Authorizations(["red"])
BLUE = Authorizations(["blue"])


class TestVisibilityScopedBFS:
    def test_public_sees_spine_only(self, conn):
        d = table_bfs(conn, "edges", ["v0"], hops=5)
        assert set(d) == {"v0", "v1", "v2"}

    def test_red_reaches_red_subgraph(self, conn):
        d = table_bfs(conn, "edges", ["v0"], hops=5, authorizations=RED)
        assert set(d) == {"v0", "v1", "v2", "v3", "v4"}
        assert d["v4"] == 4

    def test_blue_reaches_blue_subgraph(self, conn):
        d = table_bfs(conn, "edges", ["v0"], hops=5, authorizations=BLUE)
        assert set(d) == {"v0", "v1", "v2", "v5"}

    def test_filtered_bfs_reads_degrees_under_the_callers_auths(self, conn):
        # v2's degree cell is labelled: only a caller holding "red" may
        # see it, and so only such a caller may expand v2
        conn.create_table("deg")
        with conn.batch_writer("deg") as w:
            for v in ("v0", "v1", "v3"):
                w.put(v, "", "deg", 2)
            w.put("v2", "", "deg", 2, visibility="red")
        red = table_bfs(conn, "edges", ["v0"], hops=5, min_degree=2,
                        degree_table_name="deg", authorizations=RED)
        assert red == {"v0": 0, "v1": 1, "v2": 2, "v3": 3, "v4": 4}
        public = table_bfs(conn, "edges", ["v0"], hops=5, min_degree=2,
                           degree_table_name="deg")
        assert public == {"v0": 0, "v1": 1, "v2": 2}


class TestVisibilityScopedDegrees:
    def test_degree_tables_differ_per_analyst(self, conn):
        degree_table(conn, "edges", "deg_pub", count_entries=True)
        degree_table(conn, "edges", "deg_red", count_entries=True,
                     authorizations=RED)
        pub = {c.key.row: decode_number(c.value)
               for c in conn.scanner("deg_pub")}
        red = {c.key.row: decode_number(c.value)
               for c in conn.scanner("deg_red")}
        assert pub["v2"] == 1 and red["v2"] == 2
        assert "v3" not in pub and red["v3"] == 2


class TestVisibilityScopedTableMult:
    def test_two_hop_counts_differ(self, conn):
        table_mult(conn, "edges", "edges", "hop_pub")
        table_mult(conn, "edges", "edges", "hop_red", authorizations=RED)
        pub = table_to_assoc(conn, "hop_pub")
        red = table_to_assoc(conn, "hop_red")
        # v2–v4 share neighbour v3 only in the red view
        assert red.get("v2", "v4") == 1.0
        assert pub.get("v2", "v4") == 0.0
        # public spine correlation identical in both views
        assert pub.get("v0", "v2") == red.get("v0", "v2") == 1.0
