"""A served scan counts into its tablet's stats once, as a local one does.

A ``SCAN`` reaches its tablet through ``TabletServer.scan_tablet`` —
the call a TableMult step makes of its own tablets, and, over the
wire, of a peer's.  The runs are sliced under the server's lock; the
stream counts its ``seeks`` and ``entries_read`` as it goes, straight
into the counters its tablet resolved when it was hosted, so what it
read is counted once however it ends.  Checked through the
``dbsim.table.<table>.seeks`` / ``entries_read`` counters against an
in-process ``Instance`` holding the same cells in the same layout: a
drained scan, a scan cancelled after its first ``CHUNK``, a scan
resumed after a seeded dropped connection, and a TableMult step's read
of a peer's tablet.
"""

import time

import pytest

from repro.dbsim.client import Connector
from repro.dbsim.graphulo import table_mult
from repro.dbsim.key import Range
from repro.dbsim.server import Instance
from repro.net.cluster import LocalCluster
from repro.net.server import SCAN_CHUNK_CELLS
from repro.obs.metrics import MetricsRegistry

N_ROWS, N_QUALS = 2000, 12
#: two ranges holding most of the table: many CHUNKs per scan
RANGES = [Range("r0010", "r0900"), Range("r1000", "r1990")]
COUNTERS = ("seeks", "entries_read")


def _load(conn, table="t", rows=N_ROWS, quals=N_QUALS):
    """``table`` filled and compacted: one run per tablet, so every
    scan of it reads the same storage on both backends."""
    conn.create_table(table)
    with conn.batch_writer(table) as writer:
        for r in range(rows):
            for q in range(quals):
                writer.put(f"r{r:04d}", "", f"q{q:02d}", r + q)
    conn.compact(table)


def _counts(registries, tables=("t",)):
    """``(seeks, entries_read)`` of each of ``tables``, summed over
    ``registries``."""
    exports = [registry.export() for registry in registries]
    return tuple(sum(export.get(f"dbsim.table.{table}.{name}", 0)
                     for export in exports)
                 for table in tables for name in COUNTERS)


def _settle(cluster):
    """Wait until no request is in flight on any tablet server: a
    cancelled or dropped stream ends when its thread notices."""
    deadline = time.monotonic() + 10.0
    while any(service.metrics.gauge("net.server.inflight").value
              for service in cluster._servers):
        assert time.monotonic() < deadline, "a scan never ended"
        time.sleep(0.01)


def _counted(registries, run, tables=("t",), cluster=None):
    """What ``run()`` returned, and the ``(seeks, entries_read)`` it
    added to each of ``tables`` once every stream it opened on
    ``cluster`` (if any) has ended."""
    before = _counts(registries, tables)
    got = run()
    if cluster is not None:
        _settle(cluster)
    after = _counts(registries, tables)
    return got, tuple(a - b for a, b in zip(after, before))


def _servers(cluster):
    return [service.metrics for service in cluster._servers]


def _cells(batches):
    return [cell for batch in batches for cell in batch.cells()]


@pytest.fixture(scope="module")
def local():
    """The in-process reference: a full scan of :data:`RANGES`."""
    inst = Instance(n_servers=2, metrics=MetricsRegistry())
    _load(Connector(inst))
    cells, counts = _counted([inst.metrics], lambda: _cells(
        inst.scan_columns("t", RANGES)))
    assert len(cells) > 8 * SCAN_CHUNK_CELLS
    return cells, counts


def test_a_drained_scan_counts_once(local):
    want, want_counts = local
    with LocalCluster(n_servers=2, processes=False) as cluster:
        conn = cluster.connect(metrics=MetricsRegistry())
        try:
            _load(conn)
            got, counts = _counted(_servers(cluster), lambda: _cells(
                conn.instance.scan_columns("t", RANGES)), cluster=cluster)
        finally:
            conn.close()
    assert got == want
    assert counts == want_counts


def test_a_cancelled_scan_counts_what_it_read_once(local):
    want, (want_seeks, want_read) = local
    # every scan frame delayed: the stream is still being read when the
    # client stops listening
    with LocalCluster(n_servers=2, processes=False,
                      fault_specs=["scan:delay:1:0.05"],
                      fault_seed=1) as cluster:
        conn = cluster.connect(metrics=MetricsRegistry())
        try:
            _load(conn)

            def first_batch():
                batches = conn.instance.scan_columns("t", RANGES)
                first = next(batches)
                del batches  # the pump cancels its stream
                return first.cells()

            got, (seeks, read) = _counted(_servers(cluster), first_batch,
                                          cluster=cluster)
        finally:
            conn.close()
    assert got == want[:len(got)]
    # the runs were sliced once; the storage pass stopped early
    assert seeks == want_seeks
    assert len(got) <= read < want_read


def test_a_resumed_scan_counts_each_open_once(local):
    want, (want_seeks, want_read) = local
    client = MetricsRegistry()
    with LocalCluster(n_servers=2, processes=False,
                      fault_specs=["scan:drop:0.3"],
                      fault_seed=7) as cluster:
        conn = cluster.connect(metrics=client)
        try:
            _load(conn)
            got, (seeks, read) = _counted(_servers(cluster), lambda: _cells(
                conn.instance.scan_columns("t", RANGES)), cluster=cluster)
        finally:
            conn.close()
    opens = 1 + client.export()["net.client.scan_resumes"]
    assert opens > 1
    assert got == want
    # each open slices the same runs once; a reopen re-reads from the
    # resume key, so the storage pass reads at least the scan's cells
    assert seeks == opens * want_seeks
    assert want_read <= read <= opens * want_read


def _mult(conn):
    """``C = ATᵀ·B``, with ``AT`` and ``B`` sharing every row, each one
    tablet on its own server of two (tables are dealt round-robin)."""
    for table in ("AT", "B"):
        _load(conn, table, rows=40, quals=6)
    return lambda: table_mult(conn, "AT", "B", "C")


def test_a_peer_read_counts_as_a_local_read():
    tables = ("AT", "B")
    inst = Instance(n_servers=2, metrics=MetricsRegistry())
    local = Connector(inst)
    _, want = _counted([inst.metrics], _mult(local), tables)
    # each step read is of a whole one-tablet table: once, as a scan
    _, scanned = _counted([inst.metrics], lambda: [
        _cells(inst.scan_columns(table)) for table in tables], tables)
    assert want == scanned
    with LocalCluster(n_servers=2, processes=False) as cluster:
        conn = cluster.connect(metrics=MetricsRegistry())
        try:
            mult = _mult(conn)
            homes = {conn.instance.tablets(table)[0].server.addr
                     for table in tables}
            _, counts = _counted(_servers(cluster), mult, tables,
                                 cluster=cluster)
            got = list(conn.scanner("C"))
            # the step's SCANs of B, sent from AT's server
            peer_scans = sum(registry.export().get(
                "net.client.op.scan.bytes_sent", 0)
                for registry in _servers(cluster))
        finally:
            conn.close()
    assert len(homes) == 2 and peer_scans > 0
    assert counts == want and all(want)
    assert got == list(local.scanner("C"))
