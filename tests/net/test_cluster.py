"""Integration: live clusters, fault injection, crash/recover, and the
bit-identity acceptance scenario.

Thread-mode clusters (``processes=False``) carry most of the load —
same sockets, same wire protocol, no spawn cost.  One test boots real
OS processes end to end.
"""

import multiprocessing
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.cli import main as cli_main
from repro.dbsim.client import Connector
from repro.dbsim.graphulo import create_combiner_table
from repro.dbsim.iterators import Layer
from repro.dbsim.key import Range
from repro.dbsim.server import Instance, TableConfig
from repro.dbsim.stats import OpStats
from repro.net.client import RemoteConnector, RetryPolicy
from repro.net.cluster import LocalCluster
from repro.net.server import SCAN_CHUNK_CELLS, ManagerService
from repro.net.wire import RpcError
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def cluster():
    """Fault-free 2-server thread-mode cluster shared by a module's
    worth of read-mostly tests (each test uses its own tables)."""
    with LocalCluster(n_servers=2, processes=False) as c:
        yield c


def _fresh(cluster, **kw):
    conn = cluster.connect(**kw)
    for table in list(conn.instance.list_tables()):
        conn.instance.delete_table(table)
    return conn


class TestClusterBasics:
    def test_status_reports_every_server(self, cluster):
        conn = _fresh(cluster)
        try:
            status = conn.instance.status()
            assert sorted(status["servers"]) == ["tserver0", "tserver1"]
            assert all(not s["crashed"]
                       for s in status["servers"].values())
        finally:
            conn.close()

    def test_write_scan_roundtrip(self, cluster):
        conn = _fresh(cluster)
        try:
            conn.create_table("t", splits=["m"])
            with conn.batch_writer("t") as w:
                for i in range(40):
                    w.put(f"r{i:02d}", "f", "q", i)
            cells = list(conn.scanner("t"))
            assert [c.key.row for c in cells] == \
                [f"r{i:02d}" for i in range(40)]
            assert [c.value for c in cells] == [str(i) for i in range(40)]
        finally:
            conn.close()

    def test_combiner_config_crosses_the_wire(self, cluster):
        conn = _fresh(cluster)
        try:
            create_combiner_table(conn, "sums", "sum")
            with conn.batch_writer("sums") as w:
                w.put("a", "", "n", 2)
            with conn.batch_writer("sums") as w:
                w.put("a", "", "n", 5)
            assert [c.value for c in conn.scanner("sums")] == ["7"]
        finally:
            conn.close()

    def test_arbitrary_table_iterator_rejected_client_side(self, cluster):
        conn = _fresh(cluster)
        try:
            with pytest.raises(ValueError, match="not wire-serializable"):
                conn.create_table("bad", TableConfig(
                    table_iterators=(Layer(lambda batches: batches),)))
        finally:
            conn.close()

    def test_crash_recover_preserves_durable_writes(self, cluster):
        conn = _fresh(cluster)
        try:
            conn.create_table("d")
            with conn.batch_writer("d") as w:
                for i in range(60):
                    w.put(f"k{i:02d}", "", "c", i)
            before = list(conn.scanner("d"))
            for name in cluster.server_names:  # memtables lost, WAL kept
                conn.instance.crash_server(name)
            status = conn.instance.status()
            assert all(s["crashed"] for s in status["servers"].values())
            for name in cluster.server_names:
                conn.instance.recover_server(name, True)
            assert list(conn.scanner("d")) == before
        finally:
            conn.close()


class TestManagerFanOut:
    """``STATS`` and ``METRICS`` reach every server before the manager
    waits for any answer, and every call is resolved, even past one
    that fails."""

    def _manager(self, monkeypatch, fail=None):
        manager = ManagerService([(f"tserver{i}", ("127.0.0.1", 1 + i))
                                  for i in range(3)])
        events = []

        class Call:
            def __init__(self, port):
                self.port = port

            def result(self):
                events.append(("result", self.port))
                if self.port == fail:
                    raise RpcError(f"server on port {fail} is down")
                return OpStats(seeks=self.port).as_dict()

        def submit(addr, op, payload):
            events.append(("submit", addr[1]))
            return Call(addr[1])

        monkeypatch.setattr(manager.core, "submit", submit)
        return manager, events

    @pytest.mark.parametrize("handler", ["_fan_stats", "_fan_metrics"])
    def test_sends_to_every_server_first(self, monkeypatch, handler):
        manager, events = self._manager(monkeypatch)
        reply = getattr(manager, handler)({})
        assert events == [("submit", 1), ("submit", 2), ("submit", 3),
                          ("result", 1), ("result", 2), ("result", 3)]
        assert list(reply["servers"]) == ["tserver0", "tserver1", "tserver2"]
        if handler == "_fan_stats":
            assert reply["total"]["seeks"] == 6

    def test_resolves_every_call_past_a_failure(self, monkeypatch):
        manager, events = self._manager(monkeypatch, fail=2)
        with pytest.raises(RpcError, match="port 2"):
            manager._fan_stats({})
        assert events[3:] == [("result", 1), ("result", 2), ("result", 3)]


class TestFaultedCluster:
    def _run(self, specs, seed, fn):
        with LocalCluster(n_servers=2, processes=False,
                          fault_specs=specs, fault_seed=seed) as c:
            registry = MetricsRegistry()
            conn = c.connect(metrics=registry)
            try:
                fn(conn)
            finally:
                conn.close()
            return registry.export()

    def test_scan_survives_corrupt_frames(self):
        n = 2 * SCAN_CHUNK_CELLS + 100  # several chunk frames per scan

        def work(conn):
            conn.create_table("t")
            with conn.batch_writer("t") as w:
                for i in range(n):
                    w.put(f"r{i:05d}", "", "c", i)
            for _ in range(3):  # plenty of chunk frames for the RNG
                rows = [c.key.row for c in conn.scanner("t")]
                assert rows == [f"r{i:05d}" for i in range(n)]

        export = self._run(["scan:corrupt:0.4"], 5, work)
        assert export["net.client.scan_resumes"] > 0
        # retries (backoff sleeps) only accrue on *consecutive*
        # no-progress failures; since open+first-recv fused into one
        # loop trip, a reopen nearly always lands a chunk run before
        # the next corruption, so resumes — not retries — are the pin
        assert export["net.client.retries"] >= 0

    def test_writes_exactly_once_under_dropped_acks(self):
        # a dropped write_batch ack means the server applied the batch
        # but the client retries it; with a summing table any re-apply
        # would show up as a doubled value
        def work(conn):
            create_combiner_table(conn, "sums", "sum")
            with conn.batch_writer("sums", buffer_size=10) as w:
                for i in range(200):
                    w.put(f"r{i:03d}", "", "n", 1)
            values = [c.value for c in conn.scanner("sums")]
            assert values == ["1"] * 200

        export = self._run(["write_batch:drop:0.25"], 11, work)
        assert export["net.client.retries"] > 0

    def test_slowdrip_and_delay_are_only_slow(self):
        def work(conn):
            conn.create_table("t")
            with conn.batch_writer("t") as w:
                for i in range(50):
                    w.put(f"r{i:02d}", "", "c", i)
            assert sum(1 for _ in conn.scanner("t")) == 50

        self._run(["*:delay:0.2:0.002", "scan:slowdrip:0.3:64"], 2, work)


class TestProcessCluster:
    def test_real_processes_end_to_end(self):
        with LocalCluster(n_servers=2, processes=True) as c:
            conn = c.connect()
            try:
                conn.create_table("t", splits=["h", "p"])
                with conn.batch_writer("t") as w:
                    for i in range(120):
                        w.put(f"r{i:03d}", "", "c", i)
                conn.compact("t")
                assert sum(1 for _ in conn.scanner("t")) == 120
                got = [c_.value for c_ in conn.scanner("t").set_range(
                    Range("r010", "r020"))]
                assert got == [str(i) for i in range(10, 20)]
            finally:
                conn.close()


def _reference_cells(n_servers, rows):
    """The fault-free, in-process ground truth for the acceptance run."""
    local = Connector(Instance(n_servers=n_servers,
                               metrics=MetricsRegistry()))
    local.create_table("T", splits=["r100", "r200"])
    with local.batch_writer("T", buffer_size=40) as w:
        for r, v in rows:
            w.put(r, "", "c", v)
    return list(local.scanner("T"))


class TestAcceptance:
    """The ISSUE's acceptance scenario: seeded drop + delay faults plus
    one server crash/recover in the middle of an ingest, and the table
    still comes out bit-identical (timestamps included) to a fault-free
    in-process run — then the retry/timeout counters show up in
    ``repro stats --prom``."""

    SPECS = ["write_batch:drop:0.1", "scan:delay:0.05:0.005"]

    def test_faulted_ingest_is_bit_identical(self, tmp_path, capsys):
        rows = [(f"r{i:03d}", i) for i in range(300)]
        want = _reference_cells(2, rows)

        with LocalCluster(n_servers=2, processes=True,
                          fault_specs=self.SPECS, fault_seed=42) as c:
            registry = MetricsRegistry()
            conn = c.connect(metrics=registry)
            try:
                conn.create_table("T", splits=["r100", "r200"])
                with conn.batch_writer("T", buffer_size=40) as w:
                    for r, v in rows[:150]:
                        w.put(r, "", "c", v)
                    # crash one server mid-ingest; recover shortly
                    # after, while writes to it are still retrying
                    c.crash("tserver1")
                    timer = threading.Timer(
                        0.5, lambda: c.recover("tserver1", True))
                    timer.start()
                    try:
                        for r, v in rows[150:]:
                            w.put(r, "", "c", v)
                    finally:
                        timer.join()
                got = list(conn.scanner("T"))
            finally:
                conn.close()

            assert got == want  # cells, order, and timestamps
            export = registry.export()
            assert export["net.client.retries"] > 0

            # the counters must be visible through the CLI too
            tsv = tmp_path / "g.tsv"
            tsv.write_text("".join(f"a{i:02d}\tb{(i * 7) % 20:02d}\t1\n"
                                   for i in range(50)), encoding="utf-8")
            rc = cli_main(["stats", str(tsv),
                           "--connect", c.manager_addr_str, "--prom"])
            out = capsys.readouterr().out
            assert rc == 0
            assert "repro_net_client_retries" in out
            assert "repro_net_client_timeouts" in out
            assert "repro_net_client_requests" in out


class TestHealthCli:
    """`repro health` evaluates cluster SLOs over RPC and exits
    nonzero on breach — the CI health gate."""

    def test_healthy_cluster_exits_zero(self, cluster, tmp_path,
                                        capsys):
        conn = _fresh(cluster)
        try:
            conn.create_table("h")
            with conn.batch_writer("h") as w:
                for i in range(20):
                    w.put(f"r{i:02d}", "f", "q", i)
            assert sum(1 for _ in conn.scanner("h")) == 20
        finally:
            conn.close()
        out = tmp_path / "health.json"
        rc = cli_main(["health", "--connect", cluster.manager_addr_str,
                       "--window", "0.1", "--out", str(out)])
        text = capsys.readouterr().out
        assert rc == 0
        assert "rpc.queue.p99" in text and "BREACH" not in text
        import json

        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert {"manager", "tserver0", "tserver1"} <= \
            set(report["components"])

    def test_breached_slo_exits_nonzero(self, cluster, tmp_path,
                                        capsys):
        # a deliberately impossible objective: any observed latency
        # breaches a 0-second p99 target
        slos = tmp_path / "slos.json"
        import json

        slos.write_text(json.dumps([
            {"name": "impossible.p99",
             "histogram": "net.server.service_seconds",
             "p99_target_s": 0.0}]))
        rc = cli_main(["health", "--connect", cluster.manager_addr_str,
                       "--window", "0.1", "--slos", str(slos)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "BREACH" in captured.out
        assert "FAILED" in captured.err

    def test_unreachable_cluster_is_a_cli_error(self, capsys):
        c = LocalCluster(n_servers=1, processes=False).start()
        addr = c.manager_addr_str
        c.stop()
        rc = cli_main(["health", "--connect", addr, "--window", "0.0"])
        assert rc == 2
        assert "unreachable" in capsys.readouterr().err

    def test_rate_row_for_every_component(self, capsys, monkeypatch):
        with LocalCluster(n_servers=2, processes=False) as c:
            conn = c.connect()
            try:
                conn.create_table("t")

                def work(_seconds):  # the workload between the polls
                    with conn.batch_writer("t") as w:
                        for i in range(20):
                            w.put(f"r{i:02d}", "", "c", i)
                    assert len(list(conn.scanner("t"))) == 20

                monkeypatch.setattr(time, "sleep", work)
                capsys.readouterr()
                assert cli_main(["health", "--connect",
                                 c.manager_addr_str]) == 0
            finally:
                monkeypatch.undo()
                conn.close()
        rates, slos = capsys.readouterr().out.split("\n\n")
        assert rates.splitlines()[0] == "-- rates over the last 2s --"
        rows = {line.split()[0]: line.split()
                for line in rates.splitlines()[2:]}
        assert sorted(rows) == ["manager", "tserver0", "tserver1"]
        for name, cols in rows.items():
            assert cols[1] != "-", f"{name} has no QPS"  # a rate window
        # the writes and the scan name the hot table
        assert "t" in {rows["tserver0"][-1], rows["tserver1"][-1]}
        # every component's SLOs hold
        assert {line.split()[0] for line in slos.splitlines()[1:-1]} == \
            set(rows)
        assert "BREACH" not in slos
        assert slos.rstrip().endswith("all SLOs met")

    def test_reset_marker_after_crash_and_recover(self, capsys,
                                                  monkeypatch):
        with LocalCluster(n_servers=1, processes=False) as c:
            conn = c.connect()
            try:
                conn.create_table("t")
                with conn.batch_writer("t") as w:
                    w.put("r", "", "c", 1)

                # between the two polls: the unflushed cell is lost,
                # so the server's memtable gauges fall
                def bounce(_seconds):
                    conn.instance.crash_server("tserver0")
                    conn.instance.recover_server("tserver0",
                                                 replay_wal=False)

                monkeypatch.setattr(time, "sleep", bounce)
                capsys.readouterr()
                assert cli_main(["health", "--connect",
                                 c.manager_addr_str]) == 0
            finally:
                monkeypatch.undo()
                conn.close()
        rates = capsys.readouterr().out.split("\n\n")[0]
        assert "\ntserver0* " in rates
        assert rates.endswith("(* counters reset since last sample)")


@pytest.fixture()
def taken_port():
    """A localhost port somebody else is already listening on."""
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        yield taken.getsockname()[1]


class TestLifecycle:
    def test_connect_before_start_rejected(self):
        c = LocalCluster(n_servers=1, processes=False)
        with pytest.raises(RuntimeError):
            c.connect()

    def test_stop_is_idempotent(self):
        c = LocalCluster(n_servers=1, processes=False).start()
        c.stop()
        c.stop()

    def test_single_attempt_policy_fails_fast_when_down(self):
        c = LocalCluster(n_servers=1, processes=False).start()
        addr = c.manager_addr_str
        c.stop()
        conn = RemoteConnector(addr, retry=RetryPolicy(attempts=1,
                                                       deadline=1.0))
        try:
            with pytest.raises(Exception):
                conn.table_exists("t")
        finally:
            conn.close()

    def test_failed_start_raises_typed_and_leaves_no_child(self, taken_port):
        # the manager's port is taken: its child dies in bind.  The
        # parent must hear why (not sit out a 30 s timeout), and the
        # tablet servers already launched must not outlive the attempt
        cluster = LocalCluster(n_servers=2, manager_port=taken_port)
        t0 = time.perf_counter()
        with pytest.raises(OSError, match="in use"):
            cluster.start()
        assert time.perf_counter() - t0 < 5.0
        assert not [p.name for p in multiprocessing.active_children()
                    if p.name.startswith("repro-")]
        cluster.stop()  # nothing left to stop, and says so quietly

    def test_failed_launch_raises_its_own_error(self, monkeypatch):
        # the second child cannot even be started (fd exhaustion, say):
        # that error must surface — not an AssertionError from joining
        # a process that never started — promptly, with the first
        # child gone
        real_start = multiprocessing.context.SpawnProcess.start
        calls = []

        def start(process):
            calls.append(process.name)
            if len(calls) == 2:
                raise OSError("no more file descriptors")
            real_start(process)

        monkeypatch.setattr(multiprocessing.context.SpawnProcess, "start",
                            start)
        cluster = LocalCluster(n_servers=2)
        t0 = time.perf_counter()
        with pytest.raises(OSError, match="no more file descriptors"):
            cluster.start()
        assert time.perf_counter() - t0 < 1.0
        assert len(calls) == 2
        assert not [p.name for p in multiprocessing.active_children()
                    if p.name.startswith("repro-")]
        cluster.stop()

    def test_failed_thread_start_stops_what_it_started(self, taken_port):
        before = {t for t in threading.enumerate()
                  if t.name.endswith("-accept")}
        with pytest.raises(OSError):
            LocalCluster(n_servers=2, processes=False,
                         manager_port=taken_port).start()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leaked = {t for t in threading.enumerate()
                      if t.name.endswith("-accept")} - before
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked


class TestImportCost:
    """A spawned child's start-up is its imports (a cluster waits for
    the slowest of three), so what a server imports is a budget."""

    @staticmethod
    def _run(code):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__))]
            + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_a_server_imports_neither_numpy_nor_asyncio(self):
        done = self._run(
            "import repro.net.server, sys; "
            "print(sorted({'numpy', 'asyncio'} & set(sys.modules)))")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_subpackages_still_resolve_from_the_package(self):
        done = self._run(
            "import repro, sys; assert 'repro.sparse' not in sys.modules; "
            "print(repro.sparse.mxm.__name__, sorted(repro.__all__) == "
            "sorted(['algorithms', 'assoc', 'dbsim', 'generators', 'obs', "
            "'schemas', 'semiring', 'sparse', 'util', '__version__']))")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["mxm", "True"]
