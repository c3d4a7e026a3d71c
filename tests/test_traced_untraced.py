"""Each instrumented op has one body, traced or not: run untraced and
traced, it gives the same answer and does the same work.

Every site runs twice from the same start — once with tracing off (an
:class:`InMemorySink` installed but disabled), once on — and both runs
must give equal results (cells with their timestamps, work counts and
the OpStats delta of the op).  The untraced run must record nothing;
the traced one records the span docs/OBSERVABILITY.md lists for the
site.  The sites: the four sparse kernels (the calls
``tests/test_docs_spans.py`` makes); TableMult (through
``graphulo._multiply``), ``degree_table`` and ``table_bfs``; a
``BatchScanner`` read per cell and in columns; a ``BatchWriter``
flush; ``Tablet.flush`` and ``Tablet.compact``; and, on a thread
``LocalCluster``, a unary RPC, a ``SCAN`` and the requests the servers
serve for them.
"""

import numpy as np
import pytest

from repro.assoc import AssocArray
from repro.dbsim import (Connector, Instance, Range, Tablet, assoc_to_table,
                         degree_table, table_bfs)
from repro.dbsim.graphulo import BLOCK_PARTIAL_PRODUCTS, _multiply
from repro.dbsim.key import Key
from repro.dbsim.server import MultSpec
from repro.net.cluster import LocalCluster
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import InMemorySink, NullSink
from repro.sparse import Vector
from tests.test_docs_spans import CALLS, _square


@pytest.fixture(autouse=True)
def _clean_tracing():
    trace.disable()
    trace.set_sink(NullSink())
    yield
    trace.disable()
    trace.set_sink(NullSink())


def both_states(setup, run):
    """``run(setup())`` untraced, then traced, each from a fresh
    ``setup()`` made with tracing off; asserts the two answers equal
    and the untraced run recorded nothing.  Returns the traced run's
    answer and its sink."""
    answers = []
    for traced in (False, True):
        state = setup()
        sink = InMemorySink()
        trace.set_sink(sink)
        if traced:
            trace.enable(sink)
        try:
            answers.append(run(state))
        finally:
            trace.disable()
            trace.set_sink(NullSink())
        if not traced:
            assert len(sink) == 0
    untraced, traced_answer = answers
    assert traced_answer == untraced
    return traced_answer, sink


# -- kernels ----------------------------------------------------------------


def _comparable(result):
    """A kernel's answer as lists: a matrix's COO triple, a sparse
    vector's indices and values, or a dense vector — and its dtype."""
    if isinstance(result, Vector):
        parts = (result.indices, result.values)
    elif isinstance(result, np.ndarray):
        parts = (result,)
    else:
        parts = result.to_coo()
    return [part.tolist() for part in parts] + [str(parts[-1].dtype)]


@pytest.mark.parametrize("span_name", sorted(CALLS))
def test_kernel(span_name):
    """test_docs_spans' documented kernel calls, in both states."""
    _, sink = both_states(_square,
                          lambda a: _comparable(CALLS[span_name](a)))
    [span] = sink.spans(span_name)
    assert span["attrs"]["rows"] == 12


# -- in process: graphulo ops, scanners, writers, a tablet ------------------


def _graph():
    rows = [f"v{i}" for i in range(12) for j in range(i % 4 + 1)]
    cols = [f"v{(i * 5 + j * 3) % 12}" for i in range(12)
            for j in range(i % 4 + 1)]
    return AssocArray.from_triples(rows, cols, [1.0] * len(rows))


def _connected():
    """A 2-server instance holding the graph in ``A``, split in four."""
    conn = Connector(Instance(n_servers=2, metrics=MetricsRegistry()))
    assoc_to_table(conn, _graph(), "A", n_splits=3)
    return conn


def _cells(conn, table):
    return list(conn.scanner(table))


def _with_delta(conn, op):
    """``op()``'s answer and the instance's OpStats delta over it."""
    before = conn.instance.total_stats().snapshot()
    answer = op()
    return answer, conn.instance.total_stats().delta(before).as_dict()


def _rows(*names):
    return [Range.exact_row(name) for name in names]


IN_PROCESS = {
    "graphulo.table_mult": lambda conn: (
        _with_delta(conn, lambda: _multiply(
            conn, "A", MultSpec("A", "C", BLOCK_PARTIAL_PRODUCTS))),
        _cells(conn, "C")),
    "graphulo.degree_table": lambda conn: (
        degree_table(conn, "A", "D").as_dict(), _cells(conn, "D")),
    "graphulo.table_bfs": lambda conn: _with_delta(
        conn, lambda: table_bfs(conn, "A", ["v0", "v7"], 3)),
    "dbsim.batch_scan": lambda conn: _with_delta(conn, lambda: (
        list(conn.batch_scanner("A").set_ranges(_rows("v1", "v5", "v9"))),
        [list(batch.cells()) for batch in conn.batch_scanner(
            "A").set_ranges(_rows("v2", "v3", "v8")).scan_columns()])),
    "dbsim.batch_write": lambda conn: (_with_delta(conn, lambda: _write(
        conn)), _cells(conn, "A")),
}


def _write(conn):
    """Two flushes of a ``BatchWriter`` into ``A``."""
    writer = conn.batch_writer("A", buffer_size=5)
    for i in range(7):
        writer.put(f"v{i * 2}", "", f"w{i}", i)
    writer.close()


@pytest.mark.parametrize("span_name", sorted(IN_PROCESS))
def test_in_process_op(span_name):
    answer, sink = both_states(_connected, IN_PROCESS[span_name])
    spans = sink.spans(span_name)
    assert spans
    if span_name == "graphulo.table_mult":
        (work, delta), _ = answer
        [span] = spans
        assert {k: span["attrs"][k] for k in work} == work
        assert span["opstats"] == delta
    if span_name == "dbsim.batch_scan":
        (per_cell, columnar), _ = answer
        assert [span["attrs"]["entries"] for span in spans] == [
            len(per_cell), sum(map(len, columnar))]
    if span_name == "dbsim.batch_write":
        assert [span["attrs"]["mutations"] for span in spans] == [5, 2]


def _tablet():
    tablet = Tablet(Range())
    for i in range(6):
        tablet.write(Key(f"r{i % 3}", "", "q"), str(i))
    return tablet


def _flush_and_compact(tablet):
    tablet.flush()
    flushed = tablet.stats.as_dict()
    tablet.write(Key("r9", "", "q"), "9")
    tablet.flush()
    tablet.compact()
    return flushed, tablet.stats.as_dict(), tablet.scan()


def test_tablet_flush_and_compact():
    (_, stats, cells), sink = both_states(_tablet, _flush_and_compact)
    assert [span["attrs"]["entries"]
            for span in sink.spans("tablet.flush")] == [6, 1]
    [compact] = sink.spans("tablet.compact")
    assert compact["attrs"]["entries_out"] == len(cells)
    assert stats["flushes"] == 2 and stats["compactions"] == 1


# -- on a thread cluster: a unary RPC, a SCAN, the served requests ----------


@pytest.fixture(scope="module")
def cluster_conn():
    with LocalCluster(n_servers=2, processes=False) as cluster:
        conn = cluster.connect(metrics=MetricsRegistry())
        try:
            assoc_to_table(conn, _graph(), "A", n_splits=3)
            yield conn
        finally:
            conn.close()


def test_rpc_scan_and_served_requests(cluster_conn):
    conn = cluster_conn

    def reads(_):
        # TABLET_INFO to each tablet (unary, submitted), then one SCAN
        # per tablet the range reaches
        return _with_delta(conn, lambda: (
            conn.instance.table_entry_estimate("A"),
            list(conn.scanner("A").set_range(Range("v1", "v6")))))

    ((entries, cells), _), sink = both_states(lambda: None, reads)
    assert entries == len(_cells(conn, "A")) and cells
    calls = [s for s in sink.spans("rpc.client.call")
             if s["attrs"]["op"] == "tablet_info"]
    assert len(calls) == 4 and all("unawaited_s" in s["attrs"]
                                   for s in calls)
    scans = sink.spans("rpc.client.scan")
    assert scans and all(s["attrs"]["chunks"] >= 1 and s["attrs"]["bytes"]
                         for s in scans)
    for client_spans, served in ((calls, "rpc.server.tablet_info"),
                                 (scans, "rpc.server.scan")):
        served = sink.spans(served)
        assert len(served) == len(client_spans)
        assert {s["parent_id"] for s in served} == {
            s["span_id"] for s in client_spans}
        assert all({"server", "queue_s", "service_s"} <= set(s["attrs"])
                   for s in served)
