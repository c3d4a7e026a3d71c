"""One scan pipeline on the server: a SCAN carrying an ``iterspec`` runs
the same staged ``Tablet.scan_columns`` the in-process client calls.

So after the whole 17-spec catalog of ``test_iterspec`` has run against
a thread cluster, the tablets have counted their scans
(``scans_fused``) while ``pushdown.stacks`` counts every pushed-down
scan, no scan merged its runs while holding the service lock, and
both backends derive from the one base class the client programs
against.
"""

from repro.dbsim import tablet as tablet_module
from repro.dbsim.backend import ConnectorBackend
from repro.dbsim.client import Connector
from repro.dbsim.server import Instance
from repro.net.cluster import LocalCluster
from repro.net.iterspec import IterSpec
from repro.net.server import SCAN_CHUNK_CELLS
from repro.obs.metrics import MetricsRegistry

from tests.net.test_iterspec import CATALOG, _ingest


def test_spec_scans_run_the_staged_scan_outside_the_lock(monkeypatch):
    with LocalCluster(n_servers=3, processes=False) as cluster:
        services = cluster._servers
        merged_under_lock = []
        real_merge = tablet_module._merge_runs

        def spy(runs):
            merged_under_lock.append(
                any(s._lock._is_owned() for s in services))
            return real_merge(runs)

        monkeypatch.setattr(tablet_module, "_merge_runs", spy)
        conn = cluster.connect(metrics=MetricsRegistry())
        try:
            _ingest(conn)
            merged_under_lock.clear()  # flushes on ingest are not scans
            for spec in CATALOG:
                per_cell = list(conn.scanner("E", iterspec=spec))
                columnar = [cell for batch in conn.scanner(
                    "E", iterspec=spec).scan_columns()
                    for cell in batch.cells()]
                assert per_cell == columnar
            servers = conn.instance.cluster_metrics()["servers"]
        finally:
            conn.close()
    assert len(servers) == 3
    hosting = [m for m in servers.values()
               if m.get("dbsim.table.E.scans_fused")]
    assert len(hosting) >= 2  # round-robin left E on several servers
    for metrics in hosting:
        assert metrics["net.server.pushdown.stacks"] > 0
        assert metrics["net.server.pushdown.ops"] >= \
            metrics["net.server.pushdown.stacks"]
    assert sum(m.get("net.server.pushdown.cells_folded", 0)
               for m in servers.values()) > 0
    # every scan merged its runs, and none of them under a service lock
    assert merged_under_lock and not any(merged_under_lock)


def test_both_backends_conform_to_the_protocols():
    local = Instance(n_servers=2, metrics=MetricsRegistry())
    assert isinstance(local, ConnectorBackend)
    Connector(local).create_table("t")
    with LocalCluster(n_servers=1, processes=False) as cluster:
        conn = cluster.connect()
        try:
            assert isinstance(conn.instance, ConnectorBackend)
            conn.create_table("t")
        finally:
            conn.close()
    # scan_columns — and the instance's per-cell view of it — are part
    # of the contracts (the client calls them for every scan without
    # user callables)
    assert "scan_columns" in vars(ConnectorBackend)
    assert "scan_cells" in vars(ConnectorBackend)


def test_a_folding_scan_ships_full_chunks():
    """What a pushed-down ``reduce`` leaves of each storage batch is
    packed into full CHUNKs before it is sent: the scan arrives in as
    many chunks as its *result* needs, not as its source had batches."""
    n_rows = 5000  # two cells a row: five storage batches' worth
    spec = IterSpec().reduce("sum")
    local = Connector(Instance(n_servers=1, metrics=MetricsRegistry()))
    registry = MetricsRegistry()
    with LocalCluster(n_servers=1, processes=False) as cluster:
        remote = cluster.connect(metrics=registry)
        try:
            for conn in (local, remote):
                conn.create_table("t")
                with conn.batch_writer("t") as w:
                    for i in range(n_rows):
                        w.put(f"r{i:05d}", "", "a", 1)
                        w.put(f"r{i:05d}", "", "b", 2)
            assert 2 * n_rows > 4 * SCAN_CHUNK_CELLS
            want = list(local.scanner("t", iterspec=spec))
            before = registry.export().get("net.client.scan_chunks", 0)
            got = list(remote.scanner("t", iterspec=spec))
            chunks = registry.export()["net.client.scan_chunks"] - before
            folded = sum(
                m.get("net.server.pushdown.cells_folded", 0) for m in
                remote.instance.cluster_metrics()["servers"].values())
        finally:
            remote.close()
    assert len(want) == n_rows and got == want
    assert chunks == -(-n_rows // SCAN_CHUNK_CELLS)
    assert folded == n_rows
