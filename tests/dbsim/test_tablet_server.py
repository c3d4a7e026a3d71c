"""Tablets (flush/compact/split) and the Instance/TabletServer fleet."""

import pytest

from repro.dbsim.iterators import SummingCombiner
from repro.dbsim.key import Cell, Key, Range
from repro.dbsim.server import Instance, TableConfig
from repro.dbsim.sstable import SSTable
from repro.dbsim.tablet import Tablet


def write_rows(tablet, rows, value="1"):
    for r in rows:
        tablet.write(Key(r, "", "q"), value)


class TestTablet:
    def test_scan_sorted(self):
        t = Tablet(Range())
        write_rows(t, ["c", "a", "b"])
        assert [c.key.row for c in t.scan()] == ["a", "b", "c"]

    def test_write_outside_extent_rejected(self):
        t = Tablet(Range("m", None))
        with pytest.raises(ValueError, match="outside"):
            t.write(Key("a"), "1")

    def test_last_write_wins(self):
        t = Tablet(Range())
        t.write(Key("r", "", "q"), "old")
        t.write(Key("r", "", "q"), "new")
        out = t.scan()
        assert len(out) == 1 and out[0].value == "new"

    def test_flush_moves_to_sstable(self):
        t = Tablet(Range())
        write_rows(t, ["a", "b"])
        t.flush()
        assert len(t.memtable) == 0 and len(t.sstables) == 1
        assert [c.key.row for c in t.scan()] == ["a", "b"]

    def test_flush_empty_noop(self):
        t = Tablet(Range())
        t.flush()
        assert t.sstables == [] and t.stats.flushes == 0

    def test_auto_flush_on_size(self):
        t = Tablet(Range(), flush_bytes=100)
        write_rows(t, [f"row{i:04d}" for i in range(20)])
        assert t.stats.flushes >= 1

    def test_reads_merge_memtable_and_runs(self):
        t = Tablet(Range())
        write_rows(t, ["a"])
        t.flush()
        write_rows(t, ["b"])
        assert [c.key.row for c in t.scan()] == ["a", "b"]

    def test_update_across_flush_respects_recency(self):
        t = Tablet(Range())
        t.write(Key("r", "", "q"), "old")
        t.flush()
        t.write(Key("r", "", "q"), "new")
        out = t.scan()
        assert len(out) == 1 and out[0].value == "new"

    def test_compact_merges_runs(self):
        t = Tablet(Range())
        write_rows(t, ["a"])
        t.flush()
        write_rows(t, ["b"])
        t.flush()
        t.compact()
        assert len(t.sstables) == 1
        assert [c.key.row for c in t.scan()] == ["a", "b"]

    def test_compact_makes_combiner_durable(self):
        t = Tablet(Range(), max_versions=2 ** 31)
        t.write(Key("r", "", "q"), "2")
        t.write(Key("r", "", "q"), "3")
        t.compact(table_iterators=(SummingCombiner,))
        assert t.entry_estimate() == 1
        out = t.scan(table_iterators=(SummingCombiner,))
        assert out[0].value == "5"

    def test_split(self):
        t = Tablet(Range())
        write_rows(t, ["a", "b", "m", "z"])
        left, right = t.split("m")
        assert [c.key.row for c in left.scan()] == ["a", "b"]
        assert [c.key.row for c in right.scan()] == ["m", "z"]
        assert left.extent == Range(None, "m")
        assert right.extent == Range("m", None)

    def test_split_row_outside_extent(self):
        t = Tablet(Range("a", "c"))
        with pytest.raises(ValueError):
            t.split("x")

    def test_scan_clipped_to_extent(self):
        t = Tablet(Range("b", "d"))
        write_rows(t, ["b", "c"])
        out = t.scan(Range())  # full-range request clips to extent
        assert [c.key.row for c in out] == ["b", "c"]
        assert t.scan(Range("x", None)) == []


class TestSSTable:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SSTable([Cell(Key("b"), "1"), Cell(Key("a"), "2")])

    def test_overlap_metadata(self):
        run = SSTable([Cell(Key("c"), "1"), Cell(Key("f"), "2")])
        assert run.overlaps(Range("a", "d"))
        assert run.overlaps(Range("f", None))
        assert not run.overlaps(Range("g", None))
        assert not run.overlaps(Range(None, "c"))

    def test_empty_never_overlaps(self):
        assert not SSTable([]).overlaps(Range())


class TestInstance:
    def test_create_and_list(self):
        inst = Instance()
        inst.create_table("t1")
        inst.create_table("t2")
        assert inst.list_tables() == ["t1", "t2"]

    def test_duplicate_create_rejected(self):
        inst = Instance()
        inst.create_table("t")
        with pytest.raises(ValueError):
            inst.create_table("t")

    def test_missing_table_raises(self):
        inst = Instance()
        with pytest.raises(KeyError):
            inst.tablets("nope")

    def test_delete_table(self):
        inst = Instance()
        inst.create_table("t")
        inst.delete_table("t")
        assert not inst.table_exists("t")
        assert all(not s.tablets for s in inst.servers)

    def test_splits_create_tablets_and_rebalance(self):
        inst = Instance(n_servers=2)
        inst.create_table("t", splits=["g", "p"])
        assert inst.splits("t") == ["g", "p"]
        assert len(inst.tablets("t")) == 3
        hosted = sum(len(s.tablets) for s in inst.servers)
        assert hosted == 3

    def test_locate(self):
        inst = Instance()
        inst.create_table("t", splits=["m"])
        assert inst.locate("t", "a").extent == Range(None, "m")
        assert inst.locate("t", "z").extent == Range("m", None)

    def test_duplicate_split_noop(self):
        inst = Instance()
        inst.create_table("t", splits=["m"])
        inst.add_split("t", "m")
        assert inst.splits("t") == ["m"]

    def test_split_preserves_data(self):
        inst = Instance()
        inst.create_table("t")
        entry = inst.locate("t", "a")
        tablet = entry.server.tablet("t", entry.tablet_id)
        for r in ["a", "k", "z"]:
            tablet.write(Key(r, "", "q"), "1")
        inst.add_split("t", "k")
        rows = []
        for e in inst.tablets("t"):
            tb = e.server.tablet("t", e.tablet_id)
            rows.extend(c.key.row for c in tb.scan())
        assert sorted(rows) == ["a", "k", "z"]

    def test_server_count_validated(self):
        with pytest.raises(ValueError):
            Instance(n_servers=0)

    def test_total_stats_aggregates(self):
        inst = Instance(n_servers=2)
        inst.create_table("t", splits=["m"])
        for row in ("a", "z"):
            e = inst.locate("t", row)
            e.server.tablet("t", e.tablet_id).write(Key(row, "", "q"), "1")
        assert inst.total_stats().entries_written == 2

    def test_table_config_used(self):
        inst = Instance()
        inst.create_table("t", TableConfig(max_versions=3))
        e = inst.locate("t", "x")
        assert e.server.tablet("t", e.tablet_id).max_versions == 3
