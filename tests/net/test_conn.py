"""The client's connection: callers read their own socket.

``net.client._Conn`` has no I/O thread.  Whoever waits for a response
reads the socket — one reader at a time — and routes every frame it
reads to the request that owns it; the other waiters sleep until their
frame is routed or the reader role comes free.  What must hold:

* the reader delivers *other* requests' frames while it waits for its
  own (a fast call is not stuck behind a slow one's waiter);
* a deadline abandons one request, between frames or inside one — the
  late answer is a stale frame, the connection and everyone else on it
  carry on;
* a corrupt frame fails every pending request, and they all retry on
  one fresh socket;
* no thread is started on the client's behalf, ever;
* under contention no answer reaches the wrong caller.

Thread-mode clusters with seeded fault plans; the faults fire on the
server's send path, after the handler ran.
"""

import sys
import threading
import time

import pytest

from repro.dbsim.key import Range
from repro.net import client as client_mod
from repro.net import wire
from repro.net.cluster import LocalCluster
from repro.net.faults import FaultPlan, FaultRule
from repro.net.iterspec import IterSpec
from repro.obs.metrics import MetricsRegistry


def _seed_firing(spec, requests, pattern):
    """A FaultPlan seed under which the lone rule ``spec`` fires on the
    answers to its op's ``requests`` exactly as ``pattern`` says.  A
    request is ``(sender, number)``: its connection's place among the
    op's senders, and its number among that connection's requests of
    the op."""
    rule = FaultRule.from_spec(spec)
    for seed in range(10_000):
        plan = FaultPlan([rule], seed=seed)
        if [plan.draw(rule.op, *request) is not None
                for request in requests] == list(pattern):
            return seed
    raise AssertionError("no seed fires that pattern")


def _one_tablet(cluster, registry=None, **policy):
    """A client, its table "t" of one tablet, that tablet's entry and
    the TABLET_INFO payload naming it."""
    conn = cluster.connect(metrics=registry,
                           retry=client_mod.RetryPolicy(**policy))
    conn.create_table("t")
    (entry,) = conn.instance.tablets("t")
    return conn, entry, {"table": "t", "tablet_id": entry.tablet_id}


def test_the_waiting_reader_routes_other_requests_frames(monkeypatch):
    # reorder holds every tablet_info answer until the connection's
    # next response has gone out: A's call stays pending — A is the
    # connection's reader — until B's ping is answered, and B's answer
    # is on the wire *before* A's
    readers = []
    real_read = client_mod._Conn._read

    def spy(self, deadline):
        if self is link:
            readers.append(threading.current_thread().name)
        return real_read(self, deadline)

    with LocalCluster(n_servers=1, processes=False,
                      fault_specs=["tablet_info:reorder:1"]) as cluster:
        conn, entry, info = _one_tablet(cluster)
        try:
            core = conn.instance.core
            core.call(entry.server.addr, wire.PING, {})  # dial before spying
            (link,) = [c for c in core._conns.values()
                       if c.addr == entry.server.addr]
            monkeypatch.setattr(client_mod._Conn, "_read", spy)
            got = {}

            def slow():
                got["a"] = core.call(entry.server.addr, wire.TABLET_INFO, info)

            a = threading.Thread(target=slow, name="waiter-a")
            a.start()
            deadline = time.monotonic() + 5.0
            while not link._reading and time.monotonic() < deadline:
                time.sleep(0.001)
            assert link._reading  # A holds the reader role, blocked
            got["b"] = core.call(entry.server.addr, wire.PING, {})
            a.join(5.0)
            assert not a.is_alive()
        finally:
            conn.close()
    assert got["b"] == {} and got["a"]["extent"] == [None, None]
    # B's frame was read off the socket by A: B never read at all
    assert readers and set(readers) == {"waiter-a"}


@pytest.mark.parametrize("spec, op, mid_frame", [
    # the deadline passes before the late answer starts ...
    ("tablet_info:delay:1:0.4", wire.TABLET_INFO, False),
    # ... and inside it: ~0.6 kB of STATUS at one byte a millisecond
    ("status:slowdrip:1:1", wire.STATUS, True),
], ids=["between-frames", "mid-frame"])
def test_a_deadline_abandons_one_request_not_the_connection(spec, op,
                                                            mid_frame):
    registry = MetricsRegistry()
    with LocalCluster(n_servers=1, processes=False,
                      fault_specs=[spec]) as cluster:
        conn, entry, info = _one_tablet(cluster, registry)
        try:
            conn.create_table("pad", splits=[f"s{i}" for i in range(10)])
            core = conn.instance.core
            core.call(entry.server.addr, wire.PING, {})
            before = registry.export()
            slow = core._send(entry.server.addr, op, info)
            with pytest.raises(TimeoutError):
                slow.get(0.1)
            slow.abandon()
            reader = slow.conn._reader
            assert mid_frame == bool(reader._got or reader._body is not None)
            # another thread's call on the same connection is served:
            # it reads past the late answer (the rest of it, when the
            # deadline fell mid-frame) to its own
            got = []
            other = threading.Thread(target=lambda: got.append(
                core.call(entry.server.addr, wire.PING, {})))
            other.start()
            other.join(5.0)
            assert not other.is_alive() and got == [{}]
            after = registry.export()
        finally:
            conn.close()
    assert after["net.client.stale_frames"] \
        == before["net.client.stale_frames"] + 1
    assert after["net.client.pool_misses"] == before["net.client.pool_misses"]
    assert after["net.client.pool_evictions"] == 0
    assert after["net.client.retries"] == before["net.client.retries"]


def test_a_corrupt_frame_fails_all_pending_and_they_share_a_fresh_socket():
    registry = MetricsRegistry()
    with LocalCluster(
            n_servers=1, processes=False,
            fault_specs=["tablet_info:corrupt:0.5"],
            # the connection's first tablet_info answer is damaged, its
            # second is not, and neither is on the fresh socket
            fault_seed=_seed_firing("tablet_info:corrupt:0.5",
                                    [(0, 0), (0, 1), (1, 0), (1, 1)],
                                    [True, False, False, False])
    ) as cluster:
        conn, entry, info = _one_tablet(cluster, registry, base=0.001)
        try:
            core = conn.instance.core
            core.call(entry.server.addr, wire.PING, {})
            before = registry.export()
            # both pending on the one connection when the first answer
            # arrives damaged: its request id cannot be trusted, so
            # both fail, and both retry
            calls = [core.submit(entry.server.addr, wire.TABLET_INFO, info)
                     for _ in range(2)]
            answers = [call.result() for call in calls]
            after = registry.export()
            faults = conn.instance.cluster_metrics()["servers"]["tserver0"]
        finally:
            conn.close()
    assert [a["extent"] for a in answers] == [[None, None]] * 2
    assert faults["net.server.faults.corrupt"] == 1
    assert after["net.client.retries"] == before["net.client.retries"] + 2
    assert after["net.client.pool_evictions"] == 1
    assert after["net.client.pool_misses"] \
        == before["net.client.pool_misses"] + 1


def _client_threads():
    """Threads that are not a thread-mode cluster's own (its services
    name theirs ``<service>-accept|conn|unary|scan|telemetry``)."""
    return {t for t in threading.enumerate()
            if not t.name.startswith(("tserver", "manager"))}


def test_the_client_starts_no_thread():
    with LocalCluster(n_servers=2, processes=False) as cluster:
        before = _client_threads()
        conn = cluster.connect(metrics=MetricsRegistry())
        try:
            conn.create_table("t", splits=["m"])
            with conn.batch_writer("t", buffer_size=64) as writer:
                for i in range(1000):
                    writer.put(f"{'az'[i % 2]}{i:04d}", "", "q", i)
            assert sum(1 for _ in conn.scanner("t")) == 1000
            assert sum(len(b) for b in conn.scanner(
                "t", iterspec=IterSpec().value_ge(500)).scan_columns()) == 500
            assert _client_threads() == before
        finally:
            conn.close()
        assert _client_threads() == before


def test_contended_connection_never_misroutes():
    # more threads than cores, all on one core's three sockets, with a
    # switch interval short enough to interleave them inside the
    # reader hand-off: every answer must be the caller's own
    n_threads, rounds = 8, 25
    registry = MetricsRegistry()
    splits = [f"k{i}" for i in range(1, n_threads)]
    interval = sys.getswitchinterval()
    with LocalCluster(n_servers=2, processes=False) as cluster:
        conn = cluster.connect(metrics=registry)
        try:
            conn.create_table("t", splits=splits)
            with conn.batch_writer("t") as w:
                for i in range(n_threads):
                    for j in range(30):
                        w.put(f"k{i}-{j:02d}", "", "q", i)
            entries = conn.instance.tablets("t")
            errors = []

            def work(i):
                entry = entries[i]
                want_rows = [f"k{i}-{j:02d}" for j in range(30)]
                try:
                    for _ in range(rounds):
                        assert entry.server.submit("tablet_info", "t", entry.tablet_id)()["extent"] == \
                            wire.range_to_wire(entry.extent)
                        cells = list(conn.scanner("t").set_range(
                            Range(f"k{i}-", f"k{i}-~")))
                        assert [c.key.row for c in cells] == want_rows
                        assert {c.value for c in cells} == {str(i)}
                except BaseException as exc:  # noqa: BLE001 - reported
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(n_threads)]
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(30.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert not errors, errors[0]
            export = registry.export()
        finally:
            conn.close()
    # nothing timed out or was abandoned, so no frame was ever stale;
    # one socket per server and one to the manager carried all of it
    assert export["net.client.stale_frames"] == 0
    assert export["net.client.retries"] == 0
    assert export["net.client.pool_misses"] <= 3
