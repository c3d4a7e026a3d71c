"""The tablet server's connection threads: whoever reads a request
serves it, and the reader never blocks on a send to its peer.

Each case drives one raw client socket whose receive buffer is far
smaller than a scan CHUNK, so a stream the client leaves unread holds
the server's sends — and under a deadline (every socket operation
times out after :data:`DEADLINE_S`), so a connection-model deadlock
fails the test instead of hanging it.  What must hold, on thread and
process clusters:

* a client sending a multi-MB ``WRITE_BATCH`` while a multi-chunk
  scan's answer sits unread in its socket gets both answers: the
  server reads the batch while the scan's thread waits on the client;
* pipelined write batches sent behind such a scan, so the first one's
  ack cannot be sent at once, apply in the order they arrived: the
  table equals the in-process run, timestamps included;
* a ``delay``-faulted scan answer does not hold up a ``PING`` sent
  after it on the same connection.
"""

import random
import socket
import time

import pytest

from repro.dbsim.client import Connector
from repro.dbsim.server import Instance
from repro.net import cells, wire
from repro.net.cluster import LocalCluster
from repro.net.server import SCAN_CHUNK_CELLS
from tests.net import blocks

#: the longest any one socket operation of a case may take
DEADLINE_S = 30.0

#: cells of the table whose scan the client leaves unread: four CHUNKs
#: of ~2048 x 210 bytes, far past both ends' socket buffers
BIG_CELLS = 4 * SCAN_CHUNK_CELLS

MODES = pytest.mark.parametrize("processes", [False, True],
                                ids=["threads", "processes"])


def _muts(rows, value):
    return [(row, "", "q", "", 0, False, value) for row in rows]


def _values(n, seed=0):
    rng = random.Random(seed)
    return [rng.randbytes(100).hex() for _ in range(n)]


class _Raw:
    """One client socket speaking frames to a tablet server directly."""

    def __init__(self, addr):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        self.sock.settimeout(DEADLINE_S)
        self.sock.connect(addr)
        self.frames = wire.FrameReader(self.sock)

    def send(self, req, code, payload):
        self.sock.sendall(wire.encode_frame(code, payload, req=req))

    def scan(self, req, table, entry):
        self.send(req, wire.SCAN, {"table": table,
                                   "tablet_id": entry.tablet_id,
                                   "ranges": [[None, None]],
                                   "columns": None})

    def write(self, req, table, entry, muts):
        self.send(req, wire.WRITE_BATCH, wire.CellsPayload(
            {"table": table, "tablet_id": entry.tablet_id},
            cells.encode_block(muts)))

    def answers(self, reqs):
        """Each request's frames, read until every one of ``reqs`` has
        its last (``OK``, ``ERROR`` or ``DONE``); also the order the
        requests finished in."""
        got, done = {req: [] for req in reqs}, []
        while len(done) < len(reqs):
            code, payload, _, _, req = self.frames.read()
            got[req].append((code, payload))
            if code != wire.CHUNK:
                done.append(req)
        return got, done

    def close(self):
        self.sock.close()


@pytest.fixture(scope="module", params=[False, True],
                ids=["threads", "processes"])
def cluster(request):
    """A one-server cluster holding ``big``, the table whose scan the
    client leaves unread."""
    with LocalCluster(n_servers=1, processes=request.param) as c:
        conn = c.connect()
        conn.create_table("big")
        with conn.batch_writer("big") as w:
            for i, value in enumerate(_values(BIG_CELLS)):
                w.put(f"r{i:05d}", "", "q", value)
        try:
            yield c, conn
        finally:
            conn.close()


def _table(conn, name):
    conn.create_table(name)
    (entry,) = conn.instance.tablets(name)
    return entry


def _scanned(frames):
    assert frames[-1][0] == wire.DONE, frames[-1]
    return sum(len(blocks.block_to_cells(payload.block))
               for code, payload in frames[:-1])


class TestReaderNeverBlocks:
    def test_big_write_beside_an_unread_scan(self, cluster):
        c, conn = cluster
        (big,) = conn.instance.tablets("big")
        target = _table(conn, "bulk")
        muts = _muts([f"w{i:05d}" for i in range(20_000)], "v" * 200)
        raw = _Raw(big.server.addr)
        try:
            raw.scan(1, "big", big)
            # ~4.5 MB: the server must read all of it while the scan's
            # answer fills the client's socket
            raw.write(2, "bulk", target, muts)
            got, _ = raw.answers([1, 2])
        finally:
            raw.close()
        assert got[2] == [(wire.OK, {"applied": len(muts)})]
        assert _scanned(got[1]) == BIG_CELLS
        assert sum(1 for _ in conn.scanner("bulk")) == len(muts)

    def test_pipelined_writes_apply_in_arrival_order(self, cluster):
        c, conn = cluster
        (big,) = conn.instance.tablets("big")
        target = _table(conn, "ordered")
        rows = [f"o{i:02d}" for i in range(50)]
        batches = [_muts(rows, f"v{k}") + _muts([f"p{k}"], "x")
                   for k in range(8)]
        raw = _Raw(big.server.addr)
        try:
            raw.scan(1, "big", big)
            time.sleep(0.2)  # the scan's thread now waits on the client
            for k, muts in enumerate(batches):
                raw.write(2 + k, "ordered", target, muts)
            got, _ = raw.answers(range(1, 2 + len(batches)))
        finally:
            raw.close()
        assert _scanned(got[1]) == BIG_CELLS
        for k, muts in enumerate(batches):
            assert got[2 + k] == [(wire.OK, {"applied": len(muts)})]
        local = Instance(n_servers=1)
        local.create_table("ordered")
        (e,) = local.tablets("ordered")
        tablet = e.server.tablet("ordered", e.tablet_id)
        for muts in batches:
            tablet.write_raw_batch(muts)
        assert (list(conn.scanner("ordered"))
                == list(Connector(local).scanner("ordered")))


@MODES
def test_a_delayed_scan_answer_does_not_hold_up_a_ping(processes):
    delay = 1.0
    with LocalCluster(n_servers=1, processes=processes,
                      fault_specs=[f"scan:delay:1:{delay}"]) as c:
        conn = c.connect()
        try:
            entry = _table(conn, "small")
            with conn.batch_writer("small") as w:
                for i in range(10):
                    w.put(f"r{i}", "", "q", i)
            raw = _Raw(entry.server.addr)
            try:
                t0 = time.perf_counter()
                raw.scan(1, "small", entry)
                raw.send(2, wire.PING, {})
                got, order = raw.answers([1, 2])
                elapsed = time.perf_counter() - t0
            finally:
                raw.close()
        finally:
            conn.close()
    assert order == [2, 1] and got[2] == [(wire.OK, {})]
    assert _scanned(got[1]) == 10
    assert elapsed >= delay
