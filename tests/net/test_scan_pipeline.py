"""One scan pipeline on the server: a SCAN carrying an ``iterspec`` runs
the same staged ``Tablet.scan_columns`` the in-process client calls.

So after the whole 17-spec catalog of ``test_iterspec`` has run against
a thread cluster, no server has built a per-cell ``SortedKVIterator``
stack (``scans_stack`` stays 0 while ``pushdown.stacks`` counts every
pushed-down scan), no scan merged its runs while holding the service
lock, and both backends satisfy the one protocol the client programs
against.
"""

from repro.dbsim import tablet as tablet_module
from repro.dbsim.backend import ConnectorBackend, TabletBackend
from repro.dbsim.client import Connector
from repro.dbsim.server import Instance
from repro.net.cluster import LocalCluster
from repro.obs.metrics import MetricsRegistry

from tests.net.test_iterspec import CATALOG, _ingest


def test_spec_scans_never_build_a_stack_on_a_server(monkeypatch):
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
        assert metrics["dbsim.table.E.scans_stack"] == 0
        assert metrics["net.server.pushdown.stacks"] > 0
        assert metrics["net.server.pushdown.ops"] >= \
            metrics["net.server.pushdown.stacks"]
    assert all(m.get("dbsim.table.E.scans_stack", 0) == 0
               for m in servers.values())
    assert sum(m.get("net.server.pushdown.cells_folded", 0)
               for m in servers.values()) > 0
    # every scan merged its runs, and none of them under a service lock
    assert merged_under_lock and not any(merged_under_lock)


def test_both_backends_conform_to_the_protocols():
    local = Instance(n_servers=2, metrics=MetricsRegistry())
    assert isinstance(local, ConnectorBackend)
    Connector(local).create_table("t")
    assert all(isinstance(t, TabletBackend) for t in local.tablets("t"))
    with LocalCluster(n_servers=1, processes=False) as cluster:
        conn = cluster.connect()
        try:
            assert isinstance(conn.instance, ConnectorBackend)
            conn.create_table("t")
            assert all(isinstance(t, TabletBackend)
                       for t in conn.instance.tablets("t"))
        finally:
            conn.close()
    # scan_columns — and the instance's per-cell view of it — are part
    # of the contracts (the client calls them for every scan without
    # user callables)
    assert "scan_columns" in vars(ConnectorBackend)
    assert "scan_cells" in vars(ConnectorBackend)
    assert "scan_columns" in vars(TabletBackend)
