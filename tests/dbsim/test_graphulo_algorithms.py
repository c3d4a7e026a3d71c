"""Server-side Jaccard, k-truss and triangle count vs the matrix
implementations."""

import numpy as np
import pytest

from repro.algorithms.jaccard import jaccard
from repro.algorithms.structure import triangle_count
from repro.algorithms.truss import ktruss
from repro.dbsim import (
    Connector,
    table_intersect,
    table_jaccard,
    table_ktruss,
    table_to_assoc,
    table_triangles,
)
from repro.dbsim.key import decode_number
from repro.dbsim.server import Instance
from repro.generators import erdos_renyi, fig1_graph
from repro.schemas import edge_list_from_adjacency, incidence_unoriented


@pytest.fixture
def conn():
    return Connector(Instance(n_servers=2))


def load_adjacency(conn, a, table):
    conn.create_table(table)
    rows, cols, _ = a.to_coo()
    with conn.batch_writer(table) as w:
        for u, v in zip(rows, cols):
            w.put(f"v{u:04d}", "", f"v{v:04d}", 1)


def vid(key: str) -> int:
    return int(key[1:])


class TestTableIntersect:
    def test_keeps_common_keys(self, conn):
        conn.create_table("L")
        conn.create_table("R")
        with conn.batch_writer("L") as w:
            w.put("a", "", "x", 1)
            w.put("b", "", "y", 2)
        with conn.batch_writer("R") as w:
            w.put("b", "", "y", 9)
            w.put("c", "", "z", 3)
        table_intersect(conn, "L", "R", "out")
        cells = list(conn.scanner("out"))
        assert [(c.key.row, c.value) for c in cells] == [("b", "2")]

    def test_keep_right(self, conn):
        conn.create_table("L")
        conn.create_table("R")
        with conn.batch_writer("L") as w:
            w.put("a", "", "x", 1)
        with conn.batch_writer("R") as w:
            w.put("a", "", "x", 7)
        table_intersect(conn, "L", "R", "out", keep="right")
        assert list(conn.scanner("out"))[0].value == "7"

    def test_disjoint_empty(self, conn):
        conn.create_table("L")
        conn.create_table("R")
        with conn.batch_writer("L") as w:
            w.put("a", "", "x", 1)
        with conn.batch_writer("R") as w:
            w.put("b", "", "x", 1)
        table_intersect(conn, "L", "R", "out")
        assert list(conn.scanner("out")) == []

    def test_matches_row_and_qualifier_whatever_the_family(self, conn):
        """The mask is the other table's (row, qualifier) pairs: every
        kept-side cell of a stored pair is written, in its own family,
        and the other side's family need not match."""
        conn.create_table("L")
        conn.create_table("R")
        with conn.batch_writer("L") as w:
            w.put("a", "", "x", 1)
            w.put("a", "f", "x", 2)
            w.put("b", "f", "y", 3)
        with conn.batch_writer("R") as w:
            w.put("a", "g", "x", 9)
        table_intersect(conn, "L", "R", "out")
        assert [(c.key.family, c.value) for c in conn.scanner("out")] == [
            ("", "1"), ("f", "2")]

    def test_keep_validated(self, conn):
        conn.create_table("L")
        conn.create_table("R")
        with pytest.raises(ValueError):
            table_intersect(conn, "L", "R", "out", keep="both")


class TestTableJaccard:
    def test_fig1_matches_paper(self, conn):
        a = fig1_graph()
        load_adjacency(conn, a, "A")
        table_jaccard(conn, "A", "J")
        ref = jaccard(a)
        got = {(vid(c.key.row), vid(c.key.qualifier)):
               decode_number(c.value) for c in conn.scanner("J")}
        assert got[(1, 3)] == pytest.approx(2 / 3)
        for (i, j), v in got.items():
            assert ref.get(i, j) == pytest.approx(v)
        # every nonzero coefficient present (both triangle halves)
        assert len(got) == ref.nnz

    @pytest.mark.parametrize("seed", range(2))
    def test_random_matches_matrix(self, conn, seed):
        a = erdos_renyi(16, 0.3, seed=seed)
        load_adjacency(conn, a, "A")
        table_jaccard(conn, "A", "J")
        ref = jaccard(a)
        got = {(vid(c.key.row), vid(c.key.qualifier)):
               decode_number(c.value) for c in conn.scanner("J")}
        assert len(got) == ref.nnz
        for (i, j), v in got.items():
            assert ref.get(i, j) == pytest.approx(v)

    def test_temp_tables_cleaned(self, conn):
        load_adjacency(conn, fig1_graph(), "A")
        table_jaccard(conn, "A", "J")
        assert conn.instance.list_tables() == ["A", "J"]

    @pytest.mark.parametrize("call", [
        lambda conn: table_jaccard(conn, "A", "A"),
        lambda conn: table_ktruss(conn, "A", "A", 3)],
        ids=["jaccard", "ktruss"])
    def test_out_that_is_the_input_refused(self, conn, call):
        """``out`` is dropped before the op that reads the edge table,
        so naming the edge table as ``out`` is refused first."""
        load_adjacency(conn, fig1_graph(), "A")
        cells = list(conn.scanner("A"))
        with pytest.raises(ValueError, match="edge table"):
            call(conn)
        assert list(conn.scanner("A")) == cells


class TestTableKtruss:
    def test_fig1_three_truss(self, conn):
        a = fig1_graph()
        load_adjacency(conn, a, "A")
        table_ktruss(conn, "A", "T3", 3)
        surviving = {(vid(c.key.row), vid(c.key.qualifier))
                     for c in conn.scanner("T3")}
        # matrix version on the incidence form
        e = incidence_unoriented(5, edge_list_from_adjacency(a))
        kept = ktruss(e, 3)
        expected = set()
        for pair in kept.indices.reshape(-1, 2):
            u, v = int(pair[0]), int(pair[1])
            expected.add((u, v))
            expected.add((v, u))
        assert surviving == expected
        assert (4, 1) not in surviving  # edge e6 (v2–v5) removed

    def test_four_truss_empty(self, conn):
        load_adjacency(conn, fig1_graph(), "A")
        table_ktruss(conn, "A", "T4", 4)
        assert list(conn.scanner("T4")) == []

    @pytest.mark.parametrize("k", [3, 4])
    def test_random_matches_matrix(self, conn, k):
        a = erdos_renyi(14, 0.35, seed=7)
        load_adjacency(conn, a, "A")
        table_ktruss(conn, "A", "T", k)
        surviving = {(vid(c.key.row), vid(c.key.qualifier))
                     for c in conn.scanner("T")}
        e = incidence_unoriented(14, edge_list_from_adjacency(a))
        kept = ktruss(e, k)
        expected = set()
        if kept.nrows:
            for pair in kept.indices.reshape(-1, 2):
                u, v = int(pair[0]), int(pair[1])
                expected.add((u, v))
                expected.add((v, u))
        assert surviving == expected

    def test_k_validated(self, conn):
        load_adjacency(conn, fig1_graph(), "A")
        with pytest.raises(ValueError):
            table_ktruss(conn, "A", "T", 2)


class TestTableTriangles:
    @pytest.mark.parametrize("n, p, seed", [(5, 1.0, 0), (16, 0.3, 0),
                                            (16, 0.3, 1), (30, 0.2, 2)])
    def test_matches_triangle_count(self, conn, n, p, seed):
        a = erdos_renyi(n, p, seed=seed)
        load_adjacency(conn, a, "A")
        conn.add_split("A", "v0008")
        assert table_triangles(conn, "A") == triangle_count(a)[0]

    def test_fig1(self, conn):
        a = fig1_graph()
        load_adjacency(conn, a, "A")
        assert table_triangles(conn, "A") == triangle_count(a)[0] > 0

    def test_temp_table_dropped(self, conn):
        load_adjacency(conn, fig1_graph(), "A")
        table_triangles(conn, "A")
        assert conn.instance.list_tables() == ["A"]


class TestTablePageRank:
    def test_fig1_matches_matrix(self, conn):
        from repro.algorithms.centrality import pagerank
        from repro.dbsim import table_pagerank

        a = fig1_graph()
        load_adjacency(conn, a, "A")
        table_pagerank(conn, "A", "PR", jump=0.15, tol=1e-12)
        got = {vid(c.key.row): decode_number(c.value)
               for c in conn.scanner("PR")}
        ref = pagerank(a, jump=0.15)
        for v in range(5):
            assert got[v] == pytest.approx(ref[v], abs=1e-8)

    def test_random_matches_matrix(self, conn):
        from repro.algorithms.centrality import pagerank
        from repro.dbsim import table_pagerank

        a = erdos_renyi(12, 0.3, seed=5)
        load_adjacency(conn, a, "A")
        table_pagerank(conn, "A", "PR", tol=1e-12)
        got = {vid(c.key.row): decode_number(c.value)
               for c in conn.scanner("PR")}
        ref = pagerank(a)
        for v, val in got.items():
            assert val == pytest.approx(ref[v], abs=1e-8)

    def test_sums_to_one(self, conn):
        from repro.dbsim import table_pagerank

        load_adjacency(conn, fig1_graph(), "A")
        table_pagerank(conn, "A", "PR")
        total = sum(decode_number(c.value) for c in conn.scanner("PR"))
        assert total == pytest.approx(1.0)

    def test_temp_tables_cleaned(self, conn):
        from repro.dbsim import table_pagerank

        load_adjacency(conn, fig1_graph(), "A")
        table_pagerank(conn, "A", "PR")
        assert all(not t.startswith("_pr") for t in conn.instance.list_tables())

    def test_empty_table_rejected(self, conn):
        from repro.dbsim import table_pagerank

        conn.create_table("E")
        with pytest.raises(ValueError):
            table_pagerank(conn, "E", "PR")

    def test_jump_validated(self, conn):
        from repro.dbsim import table_pagerank

        load_adjacency(conn, fig1_graph(), "A")
        with pytest.raises(ValueError):
            table_pagerank(conn, "A", "PR", jump=1.0)
