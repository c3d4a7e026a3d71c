"""Exact cost-model accounting for a scripted tablet history.

The simulator's claim to benchmark relevance is that its counters are
*deterministic* stand-ins for cluster work (DESIGN.md §2).  This pins
the exact seek/read/write/flush/compaction tallies of a fixed
ingest → flush → scan → compact → scan sequence, through both reporting
surfaces: the per-server ``OpStats`` and the metrics registry.

Ground truth for the numbers (1 server, 1 tablet, 6 distinct rows):

* 6 puts             → entries_written += 6
* flush              → flushes += 1
* full scan          → 2 seeks (memtable iter + 1 sstable), 6 reads
* compact            → internal merge scan: 2 seeks, 6 reads,
                       compactions += 1
* full scan          → 2 seeks, 6 reads (memtable iter + merged run)
"""

import pytest

from repro.dbsim import Connector
from repro.dbsim.server import Instance
from repro.dbsim.stats import OpStats
from repro.obs.metrics import MetricsRegistry


class TestOpStatsSerialization:
    def test_as_dict_field_order(self):
        d = OpStats(1, 2, 3, 4, 5).as_dict()
        assert list(d) == ["seeks", "entries_read", "entries_written",
                           "flushes", "compactions"]
        assert d["entries_written"] == 3

    def test_dict_round_trip(self):
        s = OpStats(seeks=7, flushes=2)
        assert OpStats.from_dict(s.as_dict()) == s

    def test_from_dict_defaults_missing(self):
        s = OpStats.from_dict({"seeks": 3})
        assert s == OpStats(seeks=3)

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown OpStats"):
            OpStats.from_dict({"seeks": 1, "bogus": 2})

    def test_str_round_trips_through_from_str(self):
        s = OpStats(1, 2, 3, 4, 5)
        assert str(s) == ("seeks=1 entries_read=2 entries_written=3 "
                          "flushes=4 compactions=5")
        assert OpStats.from_str(str(s)) == s


@pytest.fixture
def setup():
    reg = MetricsRegistry()
    inst = Instance(n_servers=1, metrics=reg)
    conn = Connector(inst)
    conn.create_table("t")
    return reg, inst, conn


def ingest(conn, n=6):
    with conn.batch_writer("t") as w:
        for i in range(n):
            w.put(f"r{i}", "", "q", "1")


class TestScriptedSequence:
    def test_exact_counters_via_opstats(self, setup):
        reg, inst, conn = setup

        ingest(conn)
        assert inst.total_stats().as_dict() == {
            "seeks": 0, "entries_read": 0, "entries_written": 6,
            "flushes": 0, "compactions": 0}

        conn.flush("t")
        assert inst.total_stats().flushes == 1

        assert sum(1 for _ in conn.scanner("t")) == 6
        s = inst.total_stats()
        # memtable iterator + one sstable = 2 seeks; 6 entries surfaced
        assert (s.seeks, s.entries_read) == (2, 6)

        conn.compact("t")
        s = inst.total_stats()
        # compaction is itself a metered merge scan over the same data
        assert (s.seeks, s.entries_read, s.compactions) == (4, 12, 1)

        assert sum(1 for _ in conn.scanner("t")) == 6
        assert inst.total_stats().as_dict() == {
            "seeks": 6, "entries_read": 18, "entries_written": 6,
            "flushes": 1, "compactions": 1}

    def test_registry_counters_match_opstats(self, setup):
        reg, inst, conn = setup
        ingest(conn)
        conn.flush("t")
        sum(1 for _ in conn.scanner("t"))
        conn.compact("t")
        sum(1 for _ in conn.scanner("t"))

        export = reg.export()
        total = inst.total_stats().as_dict()
        for field, expected in total.items():
            assert export[f"dbsim.table.t.{field}"] == expected

    def test_gauges_track_memtable_and_sstables(self, setup):
        reg, inst, conn = setup
        ingest(conn)
        export = reg.export()
        assert export["dbsim.table.t.memtable_entries"] == 6
        assert export["dbsim.table.t.memtable_bytes"] > 0
        assert export["dbsim.table.t.sstables"] == 0

        conn.flush("t")
        ingest(conn, 2)  # overwrites r0/r1 in the new memtable
        conn.flush("t")
        export = reg.export()
        assert export["dbsim.table.t.memtable_entries"] == 0
        assert export["dbsim.table.t.memtable_bytes"] == 0
        assert export["dbsim.table.t.sstables"] == 2

        conn.compact("t")
        assert reg.export()["dbsim.table.t.sstables"] == 1

    def test_server_tablet_gauge_follows_splits(self, setup):
        reg, inst, conn = setup
        ingest(conn)
        assert reg.export()["dbsim.server.tserver0.tablets"] == 1
        conn.add_split("t", "r3")
        export = reg.export()
        total_tablets = sum(v for k, v in export.items()
                            if k.startswith("dbsim.server.")
                            and k.endswith(".tablets"))
        assert total_tablets == 2

    def test_gauges_survive_splits(self, setup):
        # a split flushes, then replaces one tablet with two; the
        # per-table gauges must re-aggregate (old contribution
        # withdrawn, children's runs added)
        reg, inst, conn = setup
        ingest(conn)
        conn.add_split("t", "r3")
        export = reg.export()
        assert export["dbsim.table.t.memtable_entries"] == 0
        assert export["dbsim.table.t.sstables"] == 2  # one run per child
        ingest(conn, 2)
        assert reg.export()["dbsim.table.t.memtable_entries"] == 2

    def test_counters_survive_delete_table(self, setup):
        # counters are cumulative work: deleting the table keeps the
        # registry history but withdraws the gauge contributions
        reg, inst, conn = setup
        ingest(conn)
        conn.flush("t")
        conn.delete_table("t")
        export = reg.export()
        assert export["dbsim.table.t.entries_written"] == 6
        assert export["dbsim.table.t.memtable_entries"] == 0
        assert export["dbsim.table.t.sstables"] == 0

    def test_observability_export_shape(self, setup):
        reg, inst, conn = setup
        ingest(conn)
        conn.flush("t")
        out = inst.observability_export()
        assert out["metrics"] == reg.export()
        assert set(out["servers"]) == {"tserver0"}
        assert out["servers"]["tserver0"]["entries_written"] == 6
        assert out["total"]["flushes"] == 1

    def test_shared_registry_isolated_per_instance(self):
        # two instances with private registries must not cross-talk
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        c1 = Connector(Instance(n_servers=1, metrics=r1))
        c2 = Connector(Instance(n_servers=1, metrics=r2))
        c1.create_table("t")
        c2.create_table("t")
        with c1.batch_writer("t") as w:
            w.put("a", "", "q", "1")
        assert r1.export()["dbsim.table.t.entries_written"] == 1
        assert r2.export()["dbsim.table.t.entries_written"] == 0
