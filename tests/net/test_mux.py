"""The multiplexed transport: request-id routing, admission control,
pipelined writes, stream overrun/resume, and the raw core surface.

What wire v3 bought and what must therefore hold:

* responses route by request id, never by arrival order — proven by
  forcing the server to *swap* adjacent unary responses (reorder
  fault) and by interleaving many clients on one socket;
* the server sheds load before running it (``BusyError``) and clients
  retry through it transparently;
* pipelined BatchWriter flushes stay exactly-once and bit-identical
  to an in-process fault-free run, timestamps included, in thread and
  process cluster modes;
* a scan stream that outruns its consumer while another request's
  waiter reads the connection is killed locally and resumes without
  duplicating or dropping cells; with nobody else reading, TCP
  back-pressure holds the server and nothing is shed.
"""

import threading
import time

import pytest

from repro.dbsim.client import Connector
from repro.dbsim.key import Range
from repro.dbsim.server import Instance
from repro.net import client as client_mod
from repro.net import wire
from repro.net.cluster import LocalCluster
from repro.net.server import (MAX_CONN_SCANS, SCAN_CHUNK_CELLS,
                              TabletServerService)
from repro.obs.metrics import MetricsRegistry
from tests.net import blocks


@pytest.fixture(scope="module")
def cluster():
    """Fault-free 2-server thread-mode cluster (fresh tables per test)."""
    with LocalCluster(n_servers=2, processes=False) as c:
        yield c


def _fresh(cluster, **kw):
    conn = cluster.connect(**kw)
    for table in list(conn.instance.list_tables()):
        conn.instance.delete_table(table)
    return conn


def _reference_cells(n_servers, rows, splits):
    local = Connector(Instance(n_servers=n_servers,
                               metrics=MetricsRegistry()))
    local.create_table("T", splits=splits)
    with local.batch_writer("T", buffer_size=32) as w:
        for r, v in rows:
            w.put(r, "", "c", v)
    return list(local.scanner("T"))


class TestRequestRouting:
    def test_reordered_responses_resolve_by_request_id(self):
        # reorder:1.0 on tablet_info makes the server hold every unary
        # ack until the next one goes out — adjacent responses arrive
        # swapped, so only request-id routing can pair them correctly
        with LocalCluster(n_servers=1, processes=False,
                          fault_specs=["tablet_info:reorder:1.0"],
                          fault_seed=3) as c:
            conn = c.connect(metrics=MetricsRegistry())
            try:
                conn.create_table("t", splits=["m"])
                left, right = conn.instance.tablets("t")
                assert left.server.addr == right.server.addr  # one server, one conn
                core = conn.instance.core
                # both in flight on the one connection before either
                # is resolved
                calls = [core.submit(p.server.addr, wire.TABLET_INFO,
                                     {"table": "t", "tablet_id": p.tablet_id})
                         for p in (left, right)]
                got_left, got_right = [call.result() for call in calls]
                assert got_left["extent"] == [None, "m"]
                assert got_right["extent"] == ["m", None]
                metrics = conn.instance.cluster_metrics()
                assert metrics["servers"]["tserver0"][
                    "net.server.faults.reorder"] > 0
            finally:
                conn.close()

    def test_one_connection_carries_interleaved_clients(self, cluster):
        # 8 threads of mixed scans and ingest share one RpcCore: the
        # mux must keep them on one socket per server and deliver
        # every response to its caller
        registry = MetricsRegistry()
        conn = _fresh(cluster, metrics=registry)
        try:
            conn.create_table("a")
            conn.create_table("b", splits=["m"])
            with conn.batch_writer("a") as w:
                for i in range(600):
                    w.put(f"r{i:04d}", "", "c", i)
            errors = []

            def scan_loop():
                try:
                    for _ in range(3):
                        n = sum(1 for _ in conn.scanner("a"))
                        assert n == 600
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            def write_loop(k):
                try:
                    with conn.batch_writer("b", buffer_size=50) as w:
                        for i in range(200):
                            w.put(f"w{k}-{i:03d}", "", "c", i)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=scan_loop)
                       for _ in range(4)]
            threads += [threading.Thread(target=write_loop, args=(k,))
                        for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert sum(1 for _ in conn.scanner("b")) == 800
            # one persistent connection per server + one to the
            # manager — not one per checkout like the old pool
            assert registry.export()["net.client.pool_misses"] <= 3
        finally:
            conn.close()


def _hold_until_shed(monkeypatch):
    """Make the flood's overlap certain, not hoped for: every admitted
    scan stream holds (the reader role passed on, as before a delayed
    frame) until the server has shed a scan, so the per-connection cap
    binds however the requests' arrivals spread out."""
    shed = threading.Event()
    real_shed, real_stream = (TabletServerService._shed,
                              TabletServerService._scan_stream)

    def shedding(self, *args):
        real_shed(self, *args)
        shed.set()

    def held(self, state, payload, req):
        self._handoff(state)
        shed.wait(30.0)
        return real_stream(self, state, payload, req)

    monkeypatch.setattr(TabletServerService, "_shed", shedding)
    monkeypatch.setattr(TabletServerService, "_scan_stream", held)


class TestAdmissionControl:
    @pytest.fixture()
    def slow_cluster(self):
        # every scan frame delayed: streams stay open long enough for
        # the per-connection scan cap to be the binding constraint
        with LocalCluster(n_servers=1, processes=False,
                          fault_specs=["scan:delay:1:0.02"],
                          fault_seed=1) as c:
            yield c

    def test_scan_flood_sheds_busy_then_recovers(self, slow_cluster,
                                                 monkeypatch):
        conn = slow_cluster.connect(metrics=MetricsRegistry())
        try:
            conn.create_table("t")
            with conn.batch_writer("t") as w:
                for i in range(600):
                    w.put(f"r{i:04d}", "", "c", i)
            _hold_until_shed(monkeypatch)
            entry = conn.instance.tablets("t")[0]
            core = conn.instance.core
            payload = {"table": "t", "tablet_id": entry.tablet_id,
                       "ranges": [[None, None]], "columns": None,
                       "resume": None}
            flood = MAX_CONN_SCANS + 4
            streams = [core.open_stream(entry.server.addr, wire.SCAN, payload)
                       for _ in range(flood)]
            done = busy = 0
            for s in streams:
                ncells = 0
                while True:
                    code, pay, _ = s.get(30.0)
                    if code == wire.CHUNK:
                        ncells += len(blocks.block_to_cells(pay.block))
                    elif code == wire.DONE:
                        assert ncells == 600
                        done += 1
                        break
                    else:
                        assert pay["type"] == "BusyError"
                        busy += 1
                        break
            # the exact split is timing-dependent (shed responses share
            # the faulted send path, so slots can free up mid-flood),
            # but the cap must bite and every admitted stream completes
            assert busy >= 1
            assert done == flood - busy
            metrics = conn.instance.cluster_metrics()
            assert metrics["servers"]["tserver0"][
                "net.server.busy_rejects"] == busy
        finally:
            conn.close()

    def test_facade_scans_retry_through_busy(self, slow_cluster,
                                             monkeypatch):
        registry = MetricsRegistry()
        conn = slow_cluster.connect(metrics=registry)
        try:
            conn.create_table("t")
            with conn.batch_writer("t") as w:
                for i in range(600):
                    w.put(f"r{i:04d}", "", "c", i)
            _hold_until_shed(monkeypatch)
            counts, errors = [], []

            def one_scan():
                try:
                    counts.append(sum(1 for _ in conn.scanner("t")))
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=one_scan)
                       for _ in range(MAX_CONN_SCANS + 4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert counts == [600] * (MAX_CONN_SCANS + 4)
            # at least one scan was shed and retried to success
            assert registry.export()["net.client.busy_retries"] > 0
        finally:
            conn.close()


class TestPipelinedWrites:
    # 15% of write acks dropped (the batch applied, the ack lost) and
    # 10% delayed: every pipelined flush's exactly-once dedup and
    # ordering discipline gets exercised
    SPECS = ["write_batch:drop:0.15", "write_batch:delay:0.1:0.01"]

    @pytest.mark.parametrize("processes", [False, True],
                             ids=["threads", "processes"])
    def test_pipelined_ingest_bit_identical(self, processes):
        rows = [(f"r{i:03d}", i) for i in range(400)]
        splits = ["r100", "r200"]
        want = _reference_cells(2, rows, splits)
        registry = MetricsRegistry()
        with LocalCluster(n_servers=2, processes=processes,
                          fault_specs=self.SPECS, fault_seed=9) as c:
            conn = c.connect(metrics=registry)
            try:
                conn.create_table("T", splits=splits)
                with conn.batch_writer("T", buffer_size=32) as w:
                    for r, v in rows:
                        w.put(r, "", "c", v)
                dedup_hits = sum(
                    s.get("net.server.dedup_hits", 0) for s in
                    conn.instance.cluster_metrics()["servers"].values())
                got = list(conn.scanner("T"))
            finally:
                conn.close()
        # cells, order, values, and server-stamped timestamps all match
        # the unpipelined fault-free in-process run
        assert got == want
        export = registry.export()
        assert export["net.client.retries"] > 0
        assert dedup_hits > 0  # dropped acks were replayed, not re-applied

    def test_flush_drains_the_pipeline(self, cluster):
        conn = _fresh(cluster)
        try:
            conn.create_table("t")
            w = conn.batch_writer("t", buffer_size=10)
            for i in range(35):
                w.put(f"r{i:02d}", "", "c", i)
            w.flush()
            # flush() keeps its durability contract: everything is
            # readable before close()
            assert sum(1 for _ in conn.scanner("t")) == 35
            w.close()
        finally:
            conn.close()


class TestStreamFlowControl:
    @pytest.fixture
    def paced_cluster(self):
        # every scan frame delayed, so chunks arrive one at a time: a
        # fast server can otherwise land the whole stream inside the
        # consumer's first coalesced read, leaving nothing to overrun
        with LocalCluster(n_servers=2, processes=False,
                          fault_specs=["scan:delay:1:0.02"],
                          fault_seed=1) as c:
            yield c

    @pytest.mark.parametrize("second_waiter", [True, False])
    def test_overrun_kills_stream_and_resume_is_exact(self, paced_cluster,
                                                      monkeypatch,
                                                      second_waiter):
        # a 2-chunk window + a consumer that stalls at the start.  While
        # it stalls, a second thread's pings to the same server read
        # the connection past the scan's chunks, so the reader sheds
        # the stream; the iterator must resume from its last delivered
        # key with no gaps and no duplicates.  With no second waiter
        # nobody reads while the consumer stalls: TCP back-pressure
        # holds the server, nothing is shed, and the scan is as exact.
        monkeypatch.setattr(client_mod, "STREAM_WINDOW_CHUNKS", 2)
        registry = MetricsRegistry()
        conn = paced_cluster.connect(metrics=registry)
        try:
            conn.create_table("big")
            # enough cells for well over STREAM_WINDOW_CHUNKS chunks,
            # whatever the server's chunk size is tuned to
            n = 4 * SCAN_CHUNK_CELLS + 500
            with conn.batch_writer("big") as w:
                for i in range(n):
                    w.put(f"r{i:05d}", "", "c", i)
            (entry,) = conn.instance.tablets("big")
            stalled = threading.Event()

            def ping_while_stalled():
                stalled.wait(10.0)
                for _ in range(12):
                    entry.server.submit("tablet_info", "big", entry.tablet_id)()
                    time.sleep(0.02)

            pinger = threading.Thread(target=ping_while_stalled)
            if second_waiter:
                pinger.start()
            rows = []
            for i, cell in enumerate(conn.scanner("big")):
                if i == 0:
                    stalled.set()
                    time.sleep(0.3)  # let the server run far ahead
                rows.append(cell.key.row)
            if second_waiter:
                pinger.join(10.0)
                assert not pinger.is_alive()
            assert rows == [f"r{i:05d}" for i in range(n)]
            export = registry.export()
            if second_waiter:
                assert export["net.client.stream_overruns"] >= 1
                assert export["net.client.scan_resumes"] >= 1
            else:
                assert export.get("net.client.stream_overruns", 0) == 0
        finally:
            conn.close()

    def test_abandoned_scan_cancels_server_stream(self):
        with LocalCluster(n_servers=1, processes=False,
                          fault_specs=["scan:delay:1:0.05"],
                          fault_seed=2) as c:
            conn = c.connect(metrics=MetricsRegistry())
            try:
                conn.create_table("t")
                with conn.batch_writer("t") as w:
                    for i in range(3000):  # several delayed chunks
                        w.put(f"r{i:05d}", "", "c", i)
                it = iter(conn.scanner("t"))
                assert next(it) is not None
                del it  # abandon mid-stream → CANCEL_SCAN
                deadline = time.time() + 5.0
                while time.time() < deadline:
                    metrics = conn.instance.cluster_metrics()
                    if metrics["servers"]["tserver0"].get(
                            "net.server.op.cancel_scan.bytes_received",
                            0) > 0:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("server never saw the cancel")
                # the connection stays healthy for later work
                assert sum(1 for _ in conn.scanner("t")) == 3000
            finally:
                conn.close()


class TestScanStreamEnd:
    def test_finished_scan_leaves_no_stream_pending(self):
        # a scan stream ends on its DONE, and the pump reads it before
        # it returns its last batch: once a scan is exhausted, no pooled
        # connection still owes that scan a frame
        with LocalCluster(n_servers=3, processes=False) as c:
            conn = c.connect(metrics=MetricsRegistry())
            try:
                conn.create_table("T", splits=["r100", "r200", "r300"])
                assert len(conn.instance.tablets("T")) == 4
                want = [f"r{i:03d}" for i in range(400)]
                with conn.batch_writer("T") as w:
                    for row in want:
                        w.put(row, "", "c", row)
                links = conn.instance.core._conns
                for i in range(30):
                    assert [cl.key.row for cl in conn.scanner("T")] == want
                    left = [(link.addr, s.req)
                            for link in list(links.values())
                            for s in list(link.pending.values())
                            if not s.unary]
                    assert left == [], f"scan {i} left {left} pending"
            finally:
                conn.close()

    @pytest.mark.parametrize("n", [0, 2 * SCAN_CHUNK_CELLS + 5])
    def test_stream_is_chunks_then_a_bare_done(self, cluster, n):
        # the wire form of a scan, read raw: one CHUNK per batch, no
        # CHUNK marked as the last, then a DONE with no payload — an
        # empty tablet's whole stream is that DONE
        conn = _fresh(cluster)
        try:
            conn.create_table("t")
            with conn.batch_writer("t") as w:
                for i in range(n):
                    w.put(f"r{i:05d}", "", "c", i)
            (entry,) = conn.instance.tablets("t")
            stream = conn.instance.core.open_stream(
                entry.server.addr, wire.SCAN,
                {"table": "t", "tablet_id": entry.tablet_id,
                 "ranges": [[None, None]], "columns": None,
                 "resume": None})
            frames = [stream.get(10.0)]
            while frames[-1][0] == wire.CHUNK:
                frames.append(stream.get(10.0))
            *chunks, (code, payload, _) = frames
            assert (code, payload) == (wire.DONE, None)
            assert [pay.meta for _, pay, _ in chunks] == [{}] * len(chunks)
            assert len(chunks) == -(-n // SCAN_CHUNK_CELLS)  # ceil
            rows = [c_.key.row for _, pay, _ in chunks
                    for c_ in blocks.block_to_cells(pay.block)]
            assert rows == [f"r{i:05d}" for i in range(n)]
            assert stream.req not in stream.conn.pending
        finally:
            conn.close()


class TestRawCore:
    def test_submitted_calls_and_stream_decode(self, cluster):
        conn = _fresh(cluster)
        try:
            conn.create_table("t", splits=["m"])
            with conn.batch_writer("t") as w:
                for i in range(700):
                    w.put(f"r{i:04d}", "", "c", i)
            want = [c_.key.row for c_ in conn.scanner("t")]
            entries = conn.instance.tablets("t")
            core = conn.instance.core
            manager = conn.instance.manager_addr
            # 25 pings in flight at once on the manager connection,
            # resolved in the reverse of the order they were answered
            pings = [core.submit(manager, wire.PING, {}) for _ in range(25)]
            assert [p.result() for p in reversed(pings)] == [{}] * 25
            rows = []
            for p in entries:  # extent order → global key order
                stream = core.open_stream(
                    p.server.addr, wire.SCAN,
                    {"table": "t", "tablet_id": p.tablet_id,
                     "ranges": [[None, None]], "columns": None,
                     "resume": None})
                while True:
                    code, pay, _ = stream.get(10.0)
                    if code == wire.DONE:
                        break
                    assert code == wire.CHUNK
                    rows.extend(c_.key.row for c_ in
                                blocks.block_to_cells(pay.block))
            assert rows == want
        finally:
            conn.close()
