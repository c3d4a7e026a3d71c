"""Graphulo server-side ops: TableMult, degree tables, apply/filter, BFS."""

import inspect
from dataclasses import fields

import numpy as np
import pytest

from repro.assoc import AssocArray
from repro.dbsim import (
    Connector,
    apply_to_table,
    assoc_to_table,
    degree_table,
    filter_table,
    table_bfs,
    table_mult,
    table_to_assoc,
)
from repro.dbsim import graphulo
from repro.dbsim.graphulo import create_combiner_table
from repro.dbsim.key import Range, decode_number
from repro.dbsim.server import Instance, MultSpec
from repro.generators.classic import fig1_edges
from repro.net.cluster import LocalCluster

from tests.dbsim.tablemult_oracle import stream_table_mult


@pytest.fixture
def conn():
    return Connector(Instance(n_servers=2))


@pytest.fixture(params=["local", "remote"])
def both(request):
    """A connector to the in-process backend, or to a thread cluster."""
    if request.param == "local":
        yield Connector(Instance(n_servers=2))
        return
    with LocalCluster(n_servers=2, processes=False) as cluster:
        remote = cluster.connect()
        try:
            yield remote
        finally:
            remote.close()


def random_assoc(rng, rows, cols, density=0.4):
    r, c, v = [], [], []
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                r.append(f"r{i:03d}")
                c.append(f"c{j:03d}")
                v.append(float(rng.integers(1, 9)))
    return AssocArray.from_triples(r, c, np.asarray(v))


class TestTableMult:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_assoc_matmul(self, conn, seed):
        """TableMult(C, A, B) must equal Aᵀ·B computed client-side."""
        rng = np.random.default_rng(seed)
        a = random_assoc(rng, 8, 6)
        b = random_assoc(rng, 8, 5)
        # shared inner keys: both use r### rows
        assoc_to_table(conn, a, "A")
        assoc_to_table(conn, b, "B")
        table_mult(conn, "A", "B", "C")
        out = table_to_assoc(conn, "C")
        ref = a.T @ b
        assert out.equal(ref)

    def test_accumulates_into_existing_result(self, conn):
        """Running TableMult twice into the same table doubles values —
        the summing-combiner accumulation Graphulo relies on."""
        rng = np.random.default_rng(9)
        a = random_assoc(rng, 6, 4)
        assoc_to_table(conn, a, "A")
        table_mult(conn, "A", "A", "C")
        table_mult(conn, "A", "A", "C")
        out = table_to_assoc(conn, "C")
        assert out.equal((a.T @ a).scale(2.0))

    def test_min_combiner_tropical(self, conn):
        """min-combiner output table + plus multiply = min-plus TableMult."""
        a = AssocArray.from_triples(["k", "k"], ["u", "v"], [1.0, 5.0])
        b = AssocArray.from_triples(["k"], ["w"], [2.0])
        assoc_to_table(conn, a, "A")
        assoc_to_table(conn, b, "B")
        table_mult(conn, "A", "B", "C", mul=lambda x, y: x + y,
                   combiner="min")
        out = table_to_assoc(conn, "C")
        assert out.get("u", "w") == 3.0 and out.get("v", "w") == 7.0

    def test_stats_reported(self, conn):
        rng = np.random.default_rng(1)
        a = random_assoc(rng, 5, 5)
        assoc_to_table(conn, a, "A")
        stats = table_mult(conn, "A", "A", "C")
        assert stats.entries_read > 0 and stats.entries_written > 0

    def test_empty_inner_intersection(self, conn):
        a = AssocArray.from_triples(["x"], ["u"], [1.0])
        b = AssocArray.from_triples(["y"], ["w"], [1.0])
        assoc_to_table(conn, a, "A")
        assoc_to_table(conn, b, "B")
        table_mult(conn, "A", "B", "C")
        assert table_to_assoc(conn, "C").nnz == 0


class TestTableMultEngine:
    """The one multiply path: columnar merge-join → row-blocked SpGEMM
    engine → bulk write (what ``via="engine"`` used to select)."""

    def test_matches_stream_oracle(self, conn):
        rng = np.random.default_rng(5)
        a = random_assoc(rng, 7, 7)
        assoc_to_table(conn, a, "A")
        stream_table_mult(conn, "A", "A", "C_stream")
        stats = table_mult(conn, "A", "A", "C")
        assert table_to_assoc(conn, "C").equal(
            table_to_assoc(conn, "C_stream"))
        assert stats.entries_read > 0 and stats.entries_written > 0

    def test_writes_summed_cells_not_partial_products(self, conn):
        """Pre-summing before the write: one cell per result entry."""
        rng = np.random.default_rng(2)
        a = random_assoc(rng, 9, 6, density=0.7)
        assoc_to_table(conn, a, "A")
        inst = conn.instance
        before = inst.total_stats().snapshot()
        partial_products = stream_table_mult(conn, "A", "A", "C_stream")
        stream_written = inst.total_stats().delta(before).entries_written
        stats = table_mult(conn, "A", "A", "C")
        result_cells = (a.T @ a).nnz
        assert stream_written == partial_products > result_cells
        assert stats.entries_written == result_cells

    def test_multi_block_accumulates_across_blocks(self, conn, monkeypatch):
        """A block bound small enough to split the join into several
        engine calls: the out table's combiner sums across them."""
        rng = np.random.default_rng(6)
        a = random_assoc(rng, 10, 6, density=0.6)
        assoc_to_table(conn, a, "A")
        blocks = []
        multiply = graphulo._multiply_block

        def spy(at, b, *args):
            blocks.append(sum(x * y for x, y in zip(at[0], b[0])))
            return multiply(at, b, *args)

        monkeypatch.setattr(graphulo, "_multiply_block", spy)
        monkeypatch.setattr(graphulo, "BLOCK_PARTIAL_PRODUCTS", 20)
        table_mult(conn, "A", "A", "C")
        assert len(blocks) >= 3
        assert table_to_assoc(conn, "C").equal(a.T @ a)

    def test_via_parameter_removed(self, conn):
        """There is one implementation and no knob selecting it."""
        assert "via" not in inspect.signature(table_mult).parameters
        rng = np.random.default_rng(8)
        assoc_to_table(conn, random_assoc(rng, 3, 3), "A")
        with pytest.raises(TypeError, match="via"):
            table_mult(conn, "A", "A", "C", via="engine")

    def test_strategy_parameter_removed(self, conn):
        """One SpGEMM kernel: no strategy or budget rides the op, its
        spec or the spec's wire form."""
        params = inspect.signature(table_mult).parameters
        assert "strategy" not in params and "expansion_budget" not in params
        names = {f.name for f in fields(MultSpec)}
        assert not names & {"strategy", "expansion_budget"}
        assoc_to_table(conn, random_assoc(np.random.default_rng(7), 3, 3),
                       "A")
        with pytest.raises(TypeError, match="strategy"):
            table_mult(conn, "A", "A", "C", strategy="tiled")


class TestDegreeTable:
    def test_weighted_and_count(self, conn):
        a = AssocArray.from_triples(["r1", "r1", "r2"], ["a", "b", "a"],
                                    [2.0, 3.0, 4.0])
        assoc_to_table(conn, a, "T")
        degree_table(conn, "T", "Tdeg")
        degs = {c.key.row: decode_number(c.value)
                for c in conn.scanner("Tdeg")}
        assert degs == {"r1": 5.0, "r2": 4.0}
        degree_table(conn, "T", "Tcount", count_entries=True)
        counts = {c.key.row: decode_number(c.value)
                  for c in conn.scanner("Tcount")}
        assert counts == {"r1": 2.0, "r2": 1.0}

    def test_refresh_rewrites_each_degree(self, conn):
        """Each row's degree cell is written at the row's newest
        timestamp, so a refresh over an unchanged source leaves every
        degree as it was (an ``out`` that summed doubled them), and a
        row that gained a cell reads its new degree."""
        a = AssocArray.from_triples(["a", "a", "z"], ["x", "y", "x"],
                                    [2.0, 3.0, 4.0])
        assoc_to_table(conn, a, "T")

        def degrees():
            return {c.key.row: (decode_number(c.value), c.key.timestamp)
                    for c in conn.scanner("Tdeg")}

        newest = {}
        for c in conn.scanner("T"):
            newest[c.key.row] = max(newest.get(c.key.row, 0),
                                    c.key.timestamp)
        want = {"a": (5.0, newest["a"]), "z": (4.0, newest["z"])}
        degree_table(conn, "T", "Tdeg")
        assert degrees() == want
        degree_table(conn, "T", "Tdeg")
        assert degrees() == want
        with conn.batch_writer("T") as w:
            w.put("z", "", "y", 1.0)
        degree_table(conn, "T", "Tdeg")
        assert {row: deg for row, (deg, _) in degrees().items()} == {
            "a": 5.0, "z": 5.0}


    def test_a_refresh_sees_deletes(self, both):
        """A refresh rebuilds a plain ``out``: a row that lost a cell
        reads its new degree, and a row that lost them all has none;
        an ``out`` that combines adds each refresh to what it holds."""
        a = AssocArray.from_triples(["a", "a", "z"], ["x", "y", "x"],
                                    [2.0, 3.0, 4.0])
        assoc_to_table(both, a, "T")
        create_combiner_table(both, "Tsum", "sum")

        def degrees(table="Tdeg"):
            return {c.key.row: decode_number(c.value)
                    for c in both.scanner(table)}

        degree_table(both, "T", "Tdeg")
        degree_table(both, "T", "Tsum")
        assert degrees() == degrees("Tsum") == {"a": 5.0, "z": 4.0}
        for qualifier, want in (("x", {"a": 3.0, "z": 4.0}),
                                ("y", {"z": 4.0})):
            with both.batch_writer("T") as w:
                w.delete("a", "", qualifier)
            degree_table(both, "T", "Tdeg")
            assert degrees() == want
        assert len(both.instance.tablets("Tdeg")) == \
            len(both.instance.tablets("T"))
        degree_table(both, "T", "Tsum")
        assert degrees("Tsum") == {"a": 5.0, "z": 8.0}


class TestApplyFilter:
    def test_apply(self, conn):
        a = AssocArray.from_triples(["r"], ["c"], [3.0])
        assoc_to_table(conn, a, "T")
        apply_to_table(conn, "T", "T2", lambda v: v * v)
        assert table_to_assoc(conn, "T2").get("r", "c") == 9.0

    def test_apply_drop_zero(self, conn):
        a = AssocArray.from_triples(["r", "r"], ["c1", "c2"], [2.0, 5.0])
        assoc_to_table(conn, a, "T")
        apply_to_table(conn, "T", "T2", lambda v: 1.0 if v == 2.0 else 0.0)
        out = table_to_assoc(conn, "T2")
        assert out.nnz == 1 and out.get("r", "c1") == 1.0

    def test_filter(self, conn):
        a = AssocArray.from_triples(["r1", "r2"], ["c", "c"], [1.0, 10.0])
        assoc_to_table(conn, a, "T")
        filter_table(conn, "T", "big", lambda c: decode_number(c.value) > 5)
        out = table_to_assoc(conn, "big")
        assert out.nnz == 1 and out.get("r2", "c") == 10.0


class TestTableBFS:
    @pytest.fixture
    def edge_conn(self, conn):
        conn.create_table("edges")
        with conn.batch_writer("edges") as w:
            for u, v in fig1_edges():
                w.put(f"v{u}", "", f"v{v}", 1)
                w.put(f"v{v}", "", f"v{u}", 1)
        return conn

    def test_hop_distances(self, edge_conn):
        d = table_bfs(edge_conn, "edges", ["v0"], hops=3)
        assert d == {"v0": 0, "v1": 1, "v2": 1, "v3": 1, "v4": 2}

    def test_matches_matrix_bfs(self, edge_conn):
        from repro.algorithms.traversal import bfs
        from repro.generators.classic import fig1_graph

        matrix_d = bfs(fig1_graph(), 2)
        table_d = table_bfs(edge_conn, "edges", ["v2"], hops=5)
        for v in range(5):
            assert table_d.get(f"v{v}", -1) == matrix_d[v]

    def test_hop_limit(self, edge_conn):
        d = table_bfs(edge_conn, "edges", ["v0"], hops=1)
        assert "v4" not in d

    def test_multi_seed(self, edge_conn):
        d = table_bfs(edge_conn, "edges", ["v4", "v3"], hops=1)
        assert d["v4"] == 0 and d["v3"] == 0 and d["v1"] == 1

    def test_degree_filter_skips_supernode(self, edge_conn):
        degree_table(edge_conn, "edges", "deg", count_entries=True)
        # v4 has degree 1; requiring >= 2 stops expansion through v4
        d = table_bfs(edge_conn, "edges", ["v4"], hops=2, min_degree=2,
                      degree_table_name="deg")
        assert d == {"v4": 0}

    def test_validation(self, edge_conn):
        with pytest.raises(ValueError):
            table_bfs(edge_conn, "edges", [], hops=1)
        with pytest.raises(ValueError):
            table_bfs(edge_conn, "edges", ["v0"], hops=-1)
        with pytest.raises(ValueError):
            table_bfs(edge_conn, "edges", ["v0"], hops=1, min_degree=1.0)


class TestCombinerTableValidation:
    def test_unknown_combiner(self, conn):
        with pytest.raises(ValueError):
            create_combiner_table(conn, "x", combiner="xor")


class TestD4MBridge:
    def test_roundtrip_with_splits(self, conn):
        rng = np.random.default_rng(4)
        a = random_assoc(rng, 12, 6)
        assoc_to_table(conn, a, "T", n_splits=3)
        assert len(conn.instance.tablets("T")) >= 2
        assert table_to_assoc(conn, "T").equal(a)

    def test_partial_range_read(self, conn):
        a = AssocArray.from_triples(["a", "m", "z"], ["c", "c", "c"],
                                    [1.0, 2.0, 3.0])
        assoc_to_table(conn, a, "T")
        part = table_to_assoc(conn, "T", rng=Range("m", None))
        assert part.row_keys.tolist() == ["m", "z"]

    def test_repeated_ingest_accumulates(self, conn):
        a = AssocArray.from_triples(["r"], ["c"], [2.0])
        assoc_to_table(conn, a, "T")
        assoc_to_table(conn, a, "T")
        assert table_to_assoc(conn, "T").get("r", "c") == 4.0

    def test_empty_table(self, conn):
        conn.create_table("empty")
        assert table_to_assoc(conn, "empty").nnz == 0
