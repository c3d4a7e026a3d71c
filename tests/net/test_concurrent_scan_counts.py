"""Scans drained at once on several threads count exactly.

A scan counts as it goes, each event one locked ``Counter.inc`` into
its tablet's resolved counters — the hosting server's cost-model
counters and the table's ``dbsim.table.<table>.*`` ones — with no
per-scan block folded back at its end.  K threads each drain the same
tablet's ``scan_tablet`` at once, over a memtable and two runs: the
server's ``stats`` delta and the ``dbsim.table.t.seeks`` /
``entries_read`` deltas must be K × one scan's.  In process the threads
call ``TabletServer.scan_tablet`` itself; on a thread ``LocalCluster``
they call ``RemoteTabletServer.scan_tablet``, each ``SCAN`` served on
its own connection thread.
"""

import sys
import threading
import time

from repro.dbsim.client import Connector
from repro.dbsim.key import Range
from repro.dbsim.server import Instance
from repro.net.cluster import LocalCluster
from repro.obs.metrics import MetricsRegistry

#: more threads than cores, switching as often as the interpreter allows
K = 8
COUNTERS = ("seeks", "entries_read")


def _load(conn):
    """``t``, one tablet: two runs and a memtable, rows interleaved."""
    conn.create_table("t")
    for phase in range(3):
        with conn.batch_writer("t") as writer:
            for r in range(phase, 900, 3):
                writer.put(f"r{r:04d}", "", f"q{phase}", r)
        if phase < 2:
            conn.flush("t")


def _counts(server, registry):
    """The server's cost-model counts and the table's scan counters."""
    export = registry.export()
    return (server.stats.snapshot(),
            tuple(export[f"dbsim.table.t.{name}"] for name in COUNTERS))


def _delta(before, after):
    return (after[0].delta(before[0]),
            tuple(a - b for a, b in zip(after[1], before[1])))


def _scans(scan, server, registry, settle, k):
    """What each of ``k`` threads drained from ``scan()`` at once, and
    the counts the ``k`` scans added."""
    barrier = threading.Barrier(k)
    got = [None] * k

    def drain(i):
        barrier.wait()
        got[i] = [cell for batch in scan() for cell in batch.cells()]

    before = _counts(server, registry)
    threads = [threading.Thread(target=drain, args=(i,)) for i in range(k)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # a lost update needs a switch mid-inc
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    settle()
    return got, _delta(before, _counts(server, registry))


def _check(scan, server, registry, settle=lambda: None):
    (one,), (stats, table) = _scans(scan, server, registry, settle, 1)
    assert len(one) == 900
    assert (stats.seeks, stats.entries_read) == table == (3, 900)
    got, (k_stats, k_table) = _scans(scan, server, registry, settle, K)
    assert got == [one] * K
    assert k_stats.as_dict() == {name: K * value for name, value
                                 in stats.as_dict().items()}
    assert k_table == tuple(K * value for value in table)


def test_in_process():
    inst = Instance(n_servers=1, metrics=MetricsRegistry())
    _load(Connector(inst))
    (entry,) = inst.tablets("t")
    server = entry.server
    # small batches: many increments from each thread, interleaved
    _check(lambda: server.scan_tablet("t", entry.tablet_id, [Range()],
                                      batch_cells=16),
           server, inst.metrics)


def test_on_a_thread_cluster():
    with LocalCluster(n_servers=1, processes=False) as cluster:
        conn = cluster.connect(metrics=MetricsRegistry())
        try:
            _load(conn)
            (entry,) = conn.instance.tablets("t")
            (service,) = cluster._servers

            def settle():
                # a stream's thread may still be ending after its DONE
                deadline = time.monotonic() + 10.0
                while service.metrics.gauge("net.server.inflight").value:
                    assert time.monotonic() < deadline, "a scan never ended"
                    time.sleep(0.01)

            _check(lambda: entry.server.scan_tablet("t", entry.tablet_id,
                                                    [Range()]),
                   service.tserver, service.metrics, settle)
        finally:
            conn.close()
