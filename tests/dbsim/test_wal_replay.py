"""Log recovery holds every logged cell exactly once.

The invariant: a tablet's memtable is a subset of its WAL until a flush
(or compaction) clears both.  ``Tablet.recover()`` therefore *rebuilds*
the memtable from the log, and a flush of a tablet whose log holds more
than its memtable replays first.  Three histories used to break it —

(a) ``recover()`` twice (a ``RECOVER`` retried after a lost ack)
    appended the log twice;
(b) a restart without log recovery, a write, then ``recover()`` put the
    new write in the memtable twice;
(c) write A, crash, restart without recovery, write B, flush cleared a
    log whose head (A) was never replayed — A was gone for good.

Duplicates are invisible on a ``max_versions=1`` table, so each history
runs on a sum-combiner table (a duplicate doubles the sum) and on a
``max_versions=2`` table (a duplicate shows the cell twice), on the
in-process backend and on a thread-mode cluster.
"""

import contextlib

import pytest

from repro.dbsim import Connector, SummingCombiner, TableConfig
from repro.dbsim.server import Instance
from repro.net.cluster import LocalCluster

TABLES = {
    "sum": TableConfig(max_versions=2 ** 31,
                       table_iterators=(SummingCombiner,)),
    "two-versions": TableConfig(max_versions=2),
}


class _InProcess:
    def __init__(self):
        self.conn = Connector(Instance(n_servers=2))

    def crash(self):
        for server in self.conn.instance.servers:
            server.crash()

    def recover(self, replay_wal=True):
        for server in self.conn.instance.servers:
            server.recover(replay_wal=replay_wal)


class _Cluster:
    def __init__(self, cluster):
        self._cluster = cluster
        self.conn = cluster.connect()

    def crash(self):
        for name in self._cluster.server_names:
            self._cluster.crash(name)

    def recover(self, replay_wal=True):
        for name in self._cluster.server_names:
            self._cluster.recover(name, replay_wal)


@pytest.fixture(params=["in-process", "threads"])
def backend(request):
    with contextlib.ExitStack() as stack:
        if request.param == "in-process":
            yield _InProcess()
        else:
            cluster = stack.enter_context(
                LocalCluster(n_servers=2, processes=False))
            remote = _Cluster(cluster)
            stack.callback(remote.conn.close)
            yield remote


def _put(conn, row, value):
    with conn.batch_writer("t") as w:
        w.put(row, "", "q", value)


def _cells(conn):
    return [(c.key.row, c.key.timestamp, c.value) for c in conn.scanner("t")]


@pytest.mark.parametrize("table", sorted(TABLES))
class TestLogRecovery:
    def test_a_recovering_twice_replays_once(self, backend, table):
        conn = backend.conn
        conn.create_table("t", TABLES[table])
        _put(conn, "r", 1)
        want = _cells(conn)
        assert [value for _, _, value in want] == ["1"]
        backend.crash()
        backend.recover()
        backend.recover()  # the retry of a RECOVER whose ack was lost
        assert _cells(conn) == want
        conn.compact("t")  # and nothing doubled becomes durable
        assert _cells(conn) == want

    def test_b_recovery_after_writes_that_followed_a_bare_restart(
            self, backend, table):
        conn = backend.conn
        conn.create_table("t", TABLES[table])
        _put(conn, "a", 1)
        backend.crash()
        backend.recover(replay_wal=False)  # restart, skip log recovery
        _put(conn, "b", 2)
        backend.recover()  # replay the log now: a comes back, b stays one
        assert [(row, value) for row, _, value in _cells(conn)] == \
            [("a", "1"), ("b", "2")]

    @pytest.mark.parametrize("clear", ["flush", "compact", "add_split"])
    def test_c_clearing_the_log_replays_its_unreplayed_head_first(
            self, backend, table, clear):
        conn = backend.conn
        conn.create_table("t", TABLES[table])
        _put(conn, "a", 1)
        backend.crash()
        backend.recover(replay_wal=False)
        _put(conn, "b", 2)
        getattr(conn, clear)("t", *(["b"] if clear == "add_split" else []))
        want = [("a", "1"), ("b", "2")]
        assert [(row, value) for row, _, value in _cells(conn)] == want
        backend.recover()  # nothing left in the log to lose or to double
        assert [(row, value) for row, _, value in _cells(conn)] == want
