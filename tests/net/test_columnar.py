"""The zero-materialization columnar scan pipeline, end to end.

Bit-identity is the contract: every batch yielded by ``scan_columns``
must materialise to exactly the cells — order and timestamps included —
that the per-cell iterator path produces, on the in-process backend and
on a faulted remote cluster alike, and the Graphulo kernels must emit
bit-identical result tables when fed through the columnar path.
"""

import inspect
import time

import pytest

from repro.dbsim.client import Connector
from repro.dbsim import graphulo
from repro.dbsim.graphulo import degree_table, table_bfs, table_mult
from repro.dbsim.graphulo_algorithms import table_jaccard, table_ktruss
from repro.dbsim.key import Range
from repro.dbsim.server import Instance
from repro.generators.kronecker import rmat_graph
from repro.net.cluster import LocalCluster
from repro.net.server import SCAN_CHUNK_CELLS
from repro.obs.metrics import MetricsRegistry

#: seeded drop + delay (+ corrupt, to force scan resumes) fault plan
SPECS = ["write_batch:drop:0.1", "scan:corrupt:0.25", "*:delay:0.05:0.002"]
SEED = 42


def _local_conn(n_servers=3):
    return Connector(Instance(n_servers=n_servers,
                              metrics=MetricsRegistry()))


def _ingest_graph(conn):
    """Deterministic small graph + TableMult operands (same write order
    everywhere so logical timestamps line up bit-for-bit)."""
    conn.create_table("E", splits=["v3", "v6"])
    with conn.batch_writer("E", buffer_size=16) as w:
        for i in range(9):
            for j in range(1, 4):
                w.put(f"v{i}", "", f"v{(i * j + 1) % 9}", 1 + (i + j) % 3)
    conn.create_table("AT", splits=["t3"])
    conn.create_table("B", splits=["t3"])
    with conn.batch_writer("AT", buffer_size=16) as w:
        for t in range(6):
            for u in range(4):
                if (t + u) % 3:
                    w.put(f"t{t}", "", f"u{u}", t + u)
    with conn.batch_writer("B", buffer_size=16) as w:
        for t in range(6):
            for v in range(5):
                if (t * v) % 4 != 1:
                    w.put(f"t{t}", "", f"w{v}", t - v)


def _run_kernels(conn):
    """Run the columnar-consuming kernels; return everything an
    equality check needs (result cells include timestamps)."""
    table_mult(conn, "AT", "B", "C")
    degree_table(conn, "E", "Edeg")
    bfs = table_bfs(conn, "E", ["v0"], hops=3)
    bfs_deg = table_bfs(conn, "E", ["v0", "v4"], hops=2,
                        min_degree=4.0, degree_table_name="Edeg")
    table_jaccard(conn, "E", "J")
    table_ktruss(conn, "E", "K", 3)
    return ([list(conn.scanner(t)) for t in ("C", "Edeg", "J", "K")],
            bfs, bfs_deg)


class TestScanColumnsEquivalence:
    def test_local_scanner_columnar_equals_per_cell(self):
        conn = _local_conn()
        _ingest_graph(conn)
        for table in ("E", "AT", "B"):
            want = list(conn.scanner(table))
            got = [c for b in conn.scanner(table).scan_columns()
                   for c in b.cells()]
            assert got == want  # order + timestamps

    def test_local_batch_scanner_columnar_equals_per_cell(self):
        from repro.dbsim.key import Range
        conn = _local_conn()
        _ingest_graph(conn)
        ranges = [Range.exact_row(f"v{i}") for i in range(0, 9, 2)]
        # sorted: one range set; reversed: range by range
        for rngs in (ranges, ranges[::-1]):
            want = list(conn.batch_scanner("E").set_ranges(rngs))
            got = [c for b in conn.batch_scanner("E").set_ranges(rngs)
                   .scan_columns() for c in b.cells()]
            assert got == want

    def test_bare_callable_layer_rejected_at_construction(self):
        conn = _local_conn()
        conn.create_table("t")
        noop = lambda src: src
        with pytest.raises(TypeError, match=r"Layer\(stage\)"):
            conn.scanner("t", scan_iterators=(noop,))
        with pytest.raises(TypeError, match=r"Layer\(stage\)"):
            conn.batch_scanner("t", scan_iterators=(noop,))

    def test_remote_columnar_equals_per_cell_under_faults(self):
        n = 2 * SCAN_CHUNK_CELLS + 101  # several CHUNK frames per scan
        with LocalCluster(n_servers=3, processes=False,
                          fault_specs=SPECS, fault_seed=SEED) as c:
            registry = MetricsRegistry()
            conn = c.connect(metrics=registry)
            try:
                conn.create_table("t", splits=["r2", "r4", "r6", "r8"])
                with conn.batch_writer("t") as w:
                    for i in range(n):
                        w.put(f"r{i % 10}x{i:05d}", "f", "qé", i)
                want = list(conn.scanner("t"))
                got = [cell for b in conn.scanner("t").scan_columns()
                       for cell in b.cells()]
                assert got == want  # bit-identical incl. timestamps
            finally:
                conn.close()
            export = registry.export()
            assert export["net.client.scan_chunks"] > 0
            assert export["net.client.scan_resumes"] > 0  # faults hit

    @pytest.mark.parametrize("fault", ["scan:reset:0.3", "scan:corrupt:0.3"])
    def test_remote_per_cell_view_is_a_chain_and_survives_resumes(
            self, fault):
        """A remote ``for cell in scanner`` is the batches' cells chained
        (no generator frame of the client per cell), and a stream that
        dies mid-scan and resumes still yields exactly the columnar
        read — every field, timestamps included."""
        n = 3 * SCAN_CHUNK_CELLS + 57
        with LocalCluster(n_servers=2, processes=False,
                          fault_specs=[fault], fault_seed=SEED) as c:
            registry = MetricsRegistry()
            conn = c.connect(metrics=registry)
            try:
                conn.create_table("t", splits=["r3", "r6"])
                with conn.batch_writer("t") as w:
                    for i in range(n):
                        w.put(f"r{i % 9}x{i:05d}", "f", f"q{i % 3}", i)
                cells = iter(conn.scanner("t"))
                assert not inspect.isgenerator(cells)
                got = list(cells)
                # the faults hit the per-cell read itself
                assert registry.export()["net.client.scan_resumes"] > 0
                columns = [tuple(zip(b.rows, b.families, b.qualifiers,
                                     b.visibilities, b.timestamps,
                                     b.deletes, b.values))
                           for b in conn.scanner("t").scan_columns()]
            finally:
                conn.close()
        want = [row for batch in columns for row in batch]
        assert len(got) == len(want) == n
        assert [(*cell.key, cell.value) for cell in got] == want
        assert all(type(cell.key.timestamp) is int and cell.key.timestamp
                   for cell in got)


class TestEmptyTabletScan:
    """A full-range remote scan over a table with an empty non-final
    tablet used to stall until the RPC deadline: the empty segment's
    bare DONE was taken for the previous segment's trailing DONE."""

    @staticmethod
    def _ingest(conn):
        # 4 tablets; nothing lands in [r3, r6)
        conn.create_table("t", splits=["r3", "r6", "r8"])
        with conn.batch_writer("t") as w:
            for i in (0, 1, 2, 6, 7, 8, 9):
                for q in range(5):
                    w.put(f"r{i}", "f", f"q{q}", i * q)

    @pytest.mark.parametrize("processes", [False, True],
                             ids=["threads", "processes"])
    def test_scan_finishes_and_matches_in_process(self, processes):
        local = _local_conn(n_servers=2)
        self._ingest(local)
        want = list(local.scanner("t"))
        with LocalCluster(n_servers=2, processes=processes) as c:
            conn = c.connect()
            try:
                self._ingest(conn)
                t0 = time.perf_counter()
                columnar = [cell for b in conn.scanner("t").scan_columns()
                            for cell in b.cells()]
                per_cell = list(conn.scanner("t"))
                took = time.perf_counter() - t0
            finally:
                conn.close()
        assert columnar == want and per_cell == want  # timestamps incl.
        assert took < 2.0


@pytest.fixture(params=[None, 8], ids=["one-block", "multi-block"])
def block_bound(request, monkeypatch):
    """Run the kernels with the library's block bound, and with one
    small enough that every TableMult here splits into several engine
    calls (AT·B alone predicts 61 partial products)."""
    if request.param is not None:
        monkeypatch.setattr(graphulo, "BLOCK_PARTIAL_PRODUCTS",
                            request.param)
    return request.param


class TestGraphuloColumnarBitIdentity:
    def test_kernels_thread_cluster_vs_in_process(self, block_bound):
        local = _local_conn(n_servers=3)
        _ingest_graph(local)
        want = _run_kernels(local)

        with LocalCluster(n_servers=3, processes=False,
                          fault_specs=SPECS, fault_seed=SEED) as c:
            registry = MetricsRegistry()
            conn = c.connect(metrics=registry)
            try:
                _ingest_graph(conn)
                got = _run_kernels(conn)
            finally:
                conn.close()
        assert got == want  # result cells (ts incl.) + both BFS dicts
        assert registry.export()["net.client.scan_chunks"] > 0

    def test_kernels_process_cluster_vs_in_process(self, block_bound):
        local = _local_conn(n_servers=2)
        _ingest_graph(local)
        want = _run_kernels(local)

        with LocalCluster(n_servers=2, processes=True,
                          fault_specs=SPECS, fault_seed=SEED) as c:
            conn = c.connect()
            try:
                _ingest_graph(conn)
                got = _run_kernels(conn)
            finally:
                conn.close()
        assert got == want

    def test_multi_block_bound_really_splits(self, monkeypatch):
        """Guard for the fixture above: at bound 8 the kernels' first
        TableMult runs as at least three blocks."""
        calls = []
        multiply = graphulo._multiply_block
        monkeypatch.setattr(
            graphulo, "_multiply_block",
            lambda *args: calls.append(1) or multiply(*args))
        monkeypatch.setattr(graphulo, "BLOCK_PARTIAL_PRODUCTS", 8)
        conn = _local_conn()
        _ingest_graph(conn)
        table_mult(conn, "AT", "B", "C")
        assert len(calls) >= 3


def _every_edge_bfs(conn, table, seeds, hops):
    """The BFS as it was before ``distinct`` was pushed down: every
    edge of the frontier's rows comes back to the client."""
    dist = dict.fromkeys(seeds, 0)
    frontier = set(seeds)
    for hop in range(1, hops + 1):
        bs = conn.batch_scanner(table)
        bs.set_ranges([Range.exact_row(v) for v in sorted(frontier)])
        frontier = set()
        for batch in bs.scan_columns():
            for dst in batch.qualifiers:
                if dst not in dist:
                    dist[dst] = hop
                    frontier.add(dst)
    return dist


class TestBfsTraffic:
    def test_a_hop_ships_each_tablets_new_neighbours(self):
        """A 3-hop BFS over an undirected scale-10 R-MAT graph receives
        at most 0.35x the scan bytes of the every-edge hop, and reaches
        the same vertices at the same hops as the in-process BFS."""
        src, dst, _ = rmat_graph(10, edge_factor=16, seed=1).to_coo()

        def load(conn):
            conn.create_table("T", splits=["v0256", "v0512", "v0768"])
            with conn.batch_writer("T") as w:
                for u, v in zip(src.tolist(), dst.tolist()):
                    w.put(f"v{u:04d}", "", f"v{v:04d}", 1)
            conn.compact("T")

        seeds = ["v0001", "v0003", "v0017"]
        local = _local_conn(n_servers=2)
        load(local)
        want = table_bfs(local, "T", seeds, 3)
        assert len(want) > 300
        name = "net.client.op.scan.bytes_received"
        with LocalCluster(n_servers=2, processes=False) as c:
            registry = MetricsRegistry()
            conn = c.connect(metrics=registry)
            try:
                load(conn)
                before = registry.export().get(name, 0)
                got = table_bfs(conn, "T", seeds, 3)
                mid = registry.export()[name]
                every_edge = _every_edge_bfs(conn, "T", seeds, 3)
                after = registry.export()[name]
            finally:
                conn.close()
        assert got == want and every_edge == want
        assert mid - before <= 0.35 * (after - mid)


class TestUserStageLayers:
    """A user's ``Layer`` carries a batch stage whether or not it has a
    wire form, so a scan holding one runs as column batches on both
    backends (client-side over a cluster) — and the library ops built
    on the one-table op, given their stages' wire forms, leave the same
    tables either side of the socket."""

    @staticmethod
    def _observe(conn):
        from repro.dbsim.graphulo import apply_to_table, filter_table
        from repro.dbsim.graphulo_algorithms import table_pagerank
        from repro.dbsim.iterators import Layer, apply_stage
        from repro.net.iterspec import IterSpec

        halve = Layer(apply_stage(lambda v: v // 2))  # drops the 1s
        per_cell = list(conn.scanner("E", scan_iterators=(halve,)))
        columnar = [cell for batch in conn.scanner(
            "E", scan_iterators=(halve,)).scan_columns()
            for cell in batch.cells()]
        assert columnar == per_cell and 0 < len(per_cell) < 27

        # v * v - 1, the 1s dropped; value >= 2 in the rows below "v7"
        apply_to_table(conn, "E", "E2",
                       IterSpec().apply("square").apply("add", -1.0))
        filter_table(conn, "E", "Ebig",
                     IterSpec().value_ge(2).regex(row="^v[0-6]$"))
        table_pagerank(conn, "E", "PR", max_iter=4)
        return [per_cell] + [list(conn.scanner(t))
                             for t in ("E2", "Ebig", "PR")]

    def test_thread_cluster_vs_in_process(self):
        local = _local_conn(n_servers=3)
        _ingest_graph(local)
        want = self._observe(local)
        assert all(want)
        with LocalCluster(n_servers=3, processes=False) as c:
            conn = c.connect()
            try:
                _ingest_graph(conn)
                assert self._observe(conn) == want  # timestamps included
            finally:
                conn.close()
