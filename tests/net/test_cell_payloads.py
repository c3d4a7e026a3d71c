"""Cells cross the wire as packed cell blocks — never as JSON lists.

``MIGRATE_OUT`` / ``MIGRATE_IN`` carry a tablet's whole state (memtable,
WAL, every run) as one :class:`~repro.net.wire.CellsPayload`, section
lengths in its meta; ``WRITE_BATCH`` takes nothing but the binary
payload.  Checked here: the state survives the trip bit for bit
(timestamps, tombstones, clock), a lost ``MIGRATE_OUT`` ack is replayed
from the dedup window, a split + migrate under seeded drop / reset
faults leaves every scan as it was, and a JSON ``WRITE_BATCH`` is
refused with a typed error.
"""

import pytest

from repro.dbsim.client import Connector
from repro.dbsim.errors import NotHostedError
from repro.dbsim.key import run_cells
from repro.dbsim.server import Instance, TableConfig
from repro.net import cells, wire
from repro.net.client import RpcCore
from repro.net.cluster import LocalCluster
from repro.net.server import TabletServerService
from repro.obs.metrics import MetricsRegistry

#: seeded plan: migration acks get lost or reset often enough that the
#: manager's retries (and the servers' dedup replay) do real work
SPECS = ["migrate_out:drop:0.3", "migrate_in:reset:0.25",
         "split_tablet:drop:0.2", "write_batch:drop:0.1"]
SEED = 11


def _snap(cells_):
    return [(c.key.row, c.key.family, c.key.qualifier, c.key.visibility,
             c.key.timestamp, c.key.delete, c.value) for c in cells_]


def _history(conn, table="t"):
    """Two flushed runs, tombstones between versions, then a memtable
    (so the WAL is non-empty too) — all in one tablet."""
    conn.create_table(table, TableConfig(max_versions=3))
    rows = [f"r{i:02d}" for i in range(24)]
    with conn.batch_writer(table) as w:
        for row in rows:
            for q in ("q0", "q1"):
                w.put(row, "", q, 1)
    conn.flush(table)
    with conn.batch_writer(table) as w:
        for row in rows[::2]:
            w.put(row, "", "q0", 2)
        for row in rows[::3]:
            w.delete(row, "", "q1")
    conn.flush(table)
    with conn.batch_writer(table) as w:
        for row in rows[::4]:
            w.put(row, "", "q1", 3)       # above some of the tombstones
        w.delete("r05", "", "q0")
        w.put("r05", "f", "q9", 4, visibility="a|b")


class TestMigrateState:
    def _served(self, name):
        service = TabletServerService(name, metrics=MetricsRegistry())
        service.start()
        return service

    def test_state_is_one_cell_block_and_a_lost_ack_replays_it(self):
        a, b = self._served("a"), self._served("b")
        core = RpcCore(metrics=MetricsRegistry())
        try:
            ident = {"table": "t", "tablet_id": "t!0001"}
            core.mutate(a.addr, wire.HOST_TABLET, {
                **ident, "extent": ["m", None],
                "config": {"max_versions": 2, "table_iterators": ["sum"],
                           "flush_bytes": 1 << 20}})
            _, tablet = a.tserver.hosted["t!0001"]
            for flush, muts in (
                    (True, [("n", "", "q", "", 0, False, "1"),
                            ("o", "f", "q", "a&b", 0, False, "2")]),
                    (True, [("n", "", "q", "", 0, True, ""),
                            ("p", "", "q", "", 7, False, "x")]),
                    (False, [("n", "", "q", "", 0, False, "3"),
                             ("z", "", "q", "", 0, True, "")])):
                tablet.write_raw_batch(muts)
                if flush:
                    tablet.flush()
            want = (_snap(run_cells(*tablet.memtable.sorted_run())),
                    _snap(tablet.wal),
                    [_snap(run.cells()) for run in tablet.sstables],
                    tablet._clock)
            assert want[0] and want[1] and len(want[2]) == 2

            # the same stamped request twice: the second is the retry
            # of a MIGRATE_OUT whose ack was lost
            request = core._stamp(ident)
            state = core.call(a.addr, wire.MIGRATE_OUT, request)
            replay = core.call(a.addr, wire.MIGRATE_OUT, request)
            assert isinstance(state, wire.CellsPayload)
            assert state.meta == replay.meta
            assert bytes(state.block) == bytes(replay.block)
            assert state.meta["sections"] == [2, 2, 2, 2]
            assert len(cells.decode_batch(state.block)) == 8
            assert a.metrics.export()["net.server.dedup_hits"] == 1
            with pytest.raises(NotHostedError):  # it really left
                core.mutate(a.addr, wire.MIGRATE_OUT, ident)

            core.mutate(b.addr, wire.MIGRATE_IN, wire.CellsPayload(
                {**state.meta, **ident,
                 "config": {"max_versions": 2, "table_iterators": ["sum"],
                            "flush_bytes": 1 << 20}}, state.block))
            _, moved = b.tserver.hosted["t!0001"]
            assert (_snap(run_cells(*moved.memtable.sorted_run())),
                    _snap(moved.wal),
                    [_snap(run.cells()) for run in moved.sstables],
                    moved._clock) == want
            assert (moved.extent.start_row, moved.extent.stop_row,
                    moved.max_versions) == ("m", None, 2)
        finally:
            core.close()
            a.stop()
            b.stop()

    def test_json_migrate_in_is_refused(self):
        a = self._served("a")
        core = RpcCore(metrics=MetricsRegistry())
        try:
            with pytest.raises(ValueError, match="MIGRATE_IN takes a binary"):
                core.mutate(a.addr, wire.MIGRATE_IN, {
                    "table": "t", "tablet_id": "t!0001", "config": None,
                    "state": {"extent": [None, None], "clock": 0,
                              "memtable": [], "wal": [], "sstables": []}})
        finally:
            core.close()
            a.stop()


@pytest.mark.parametrize("processes", [False, True],
                         ids=["threads", "procs"])
def test_split_and_migrate_under_faults_is_bit_identical(processes):
    local = Connector(Instance(n_servers=3, metrics=MetricsRegistry()))
    _history(local)
    before = _snap(local.scanner("t"))
    for row in ("r08", "r16"):
        local.add_split("t", row)
    assert _snap(local.scanner("t")) == before

    with LocalCluster(n_servers=3, processes=processes, fault_specs=SPECS,
                      fault_seed=SEED) as c:
        conn = c.connect()
        try:
            _history(conn)
            assert _snap(conn.scanner("t")) == before
            for row in ("r08", "r16"):
                conn.add_split("t", row)
            homes = {p.server.addr for p in conn.instance.tablets("t")}
            assert len(homes) > 1  # children really moved
            assert _snap(conn.scanner("t")) == before
            # the logical clocks travelled too: new writes are stamped
            # as they are on the in-process backend
            for each in (local, conn):
                with each.batch_writer("t") as w:
                    for row in ("r00", "r09", "r23"):
                        w.put(row, "", "q0", 9)
            assert _snap(conn.scanner("t")) == _snap(local.scanner("t"))
            servers = conn.instance.cluster_metrics()["servers"]
        finally:
            conn.close()
    fired = sum(m.get(f"net.server.faults.{kind}", 0)
                for m in servers.values() for kind in ("drop", "reset"))
    assert fired > 0


def test_json_write_batch_is_a_typed_error():
    with LocalCluster(n_servers=1, processes=False) as c:
        conn = c.connect()
        try:
            conn.create_table("t")
            (entry,) = conn.instance.tablets("t")
            with pytest.raises(ValueError,
                               match="WRITE_BATCH takes a binary"):
                conn.instance.core.mutate(entry.server.addr, wire.WRITE_BATCH, {
                    "table": "t", "tablet_id": entry.tablet_id,
                    "mutations": [["r", "", "q", "", 0, False, "1"]]})
            assert list(conn.scanner("t")) == []  # nothing was applied
            with conn.batch_writer("t") as w:   # the binary form works
                w.put("r", "", "q", 1)
            assert [c.value for c in conn.scanner("t")] == ["1"]
        finally:
            conn.close()
