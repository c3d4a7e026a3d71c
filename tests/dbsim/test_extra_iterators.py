"""Regex, AgeOff, Apply and RowReduce iterators, directly on stacks."""

import pytest

from repro.dbsim import AgeOffIterator, Connector, RegexFilterIterator
from repro.dbsim.iterators import (ApplyIterator, ListIterator,
                                   RowReduceIterator, VersioningIterator,
                                   drain)
from repro.dbsim.key import Cell, Key, Range
from repro.dbsim.server import Instance
from tests.dbsim.per_cell_oracle import DeleteFilterIterator


def cells(*specs):
    out = [Cell(Key(r, "", q, "", ts), v) for (r, q, v, ts) in specs]
    return sorted(out, key=lambda c: c.key.sort_tuple())


class TestRegexFilter:
    DATA = cells(("user|alice", "age", "30", 1),
                 ("user|bob", "age", "25", 1),
                 ("word|hi", "count", "7", 1))

    def test_row_regex(self):
        it = RegexFilterIterator(ListIterator(self.DATA), row=r"^user\|")
        assert [c.key.row for c in drain(it)] == ["user|alice", "user|bob"]

    def test_qualifier_regex(self):
        it = RegexFilterIterator(ListIterator(self.DATA), qualifier="count")
        assert [c.value for c in drain(it)] == ["7"]

    def test_value_regex(self):
        it = RegexFilterIterator(ListIterator(self.DATA), value=r"^2")
        assert [c.key.row for c in drain(it)] == ["user|bob"]

    def test_combined(self):
        it = RegexFilterIterator(ListIterator(self.DATA),
                                 row="user", value="30")
        assert [c.key.row for c in drain(it)] == ["user|alice"]

    def test_none_matches_all(self):
        it = RegexFilterIterator(ListIterator(self.DATA))
        assert len(drain(it)) == 3

    def test_as_scan_iterator(self):
        conn = Connector(Instance())
        conn.create_table("t")
        with conn.batch_writer("t") as w:
            w.put("apple", "", "q", 1)
            w.put("banana", "", "q", 2)
        s = conn.scanner("t", scan_iterators=(
            lambda src: RegexFilterIterator(src, row="^a"),))
        assert [c.key.row for c in s] == ["apple"]


class TestAgeOff:
    def test_drops_old_timestamps(self):
        data = cells(("a", "q", "old", 1), ("b", "q", "new", 9))
        it = AgeOffIterator(ListIterator(data), cutoff=5)
        assert [c.value for c in drain(it)] == ["new"]

    def test_cutoff_inclusive(self):
        data = cells(("a", "q", "exact", 5))
        it = AgeOffIterator(ListIterator(data), cutoff=5)
        assert drain(it) == []

    def test_compaction_makes_ageoff_permanent(self):
        conn = Connector(Instance())
        conn.create_table("t")
        tablet = conn.instance.locate("t", "a")
        tablet.write(Key("a", "", "q", "", 1), "old")
        tablet.write(Key("b", "", "q", "", 9), "new")
        tablet.compact(table_iterators=(
            lambda src: AgeOffIterator(src, cutoff=5),))
        assert tablet.entry_estimate() == 1
        assert [c.value for c in tablet.scan()] == ["new"]


def tombstone(row, qualifier, ts):
    return Cell(Key(row, "", qualifier, "", ts, True), "")


class TestIteratorEdgeCases:
    """Empty scans, interleaved delete markers, multi-version keys."""

    def test_empty_source(self):
        empty = ListIterator([])
        for it in (RegexFilterIterator(ListIterator([]), row="x"),
                   AgeOffIterator(ListIterator([]), cutoff=5),
                   ApplyIterator(empty, lambda v: v + 1),
                   RowReduceIterator(ListIterator([]), op="sum")):
            assert drain(it) == []
            assert not it.has_top()

    def test_seek_to_empty_range(self):
        data = cells(("a", "q", "1", 1), ("b", "q", "2", 1))
        it = RegexFilterIterator(ListIterator(data), row=".")
        it.seek(Range("x", "z"), None)
        assert not it.has_top()

    def test_delete_markers_interleaved(self):
        """Stacked the way a tablet stacks them — DeleteFilter below —
        the scan iterators only ever see live cells."""
        data = sorted([
            Cell(Key("a", "", "q1", "", 2), "1"),
            tombstone("a", "q2", 3),
            Cell(Key("a", "", "q2", "", 2), "9"),   # older than tombstone
            Cell(Key("b", "", "q1", "", 4), "2"),
            tombstone("b", "q2", 1),                # deletes nothing
            Cell(Key("b", "", "q2", "", 5), "3"),
        ], key=lambda c: c.key.sort_tuple())
        stack = ApplyIterator(DeleteFilterIterator(ListIterator(data)),
                              lambda v: v * 10)
        got = [(c.key.row, c.key.qualifier, c.value) for c in drain(stack)]
        assert got == [("a", "q1", "10"), ("b", "q1", "20"),
                       ("b", "q2", "30")]
        reduced = drain(RowReduceIterator(
            DeleteFilterIterator(ListIterator(data)), op="sum"))
        assert [(c.key.row, c.value) for c in reduced] == \
            [("a", "1"), ("b", "5")]

    def test_multi_version_keys(self):
        data = cells(("a", "q", "3", 3), ("a", "q", "2", 2),
                     ("a", "q", "1", 1), ("b", "q", "7", 5))
        newest = drain(VersioningIterator(ListIterator(data), 1))
        assert [(c.value, c.key.timestamp) for c in newest] == \
            [("3", 3), ("7", 5)]
        two = drain(VersioningIterator(ListIterator(data), 2))
        assert [c.value for c in two] == ["3", "2", "7"]
        # an age-off below versioning can expose an older version
        aged = drain(VersioningIterator(
            AgeOffIterator(ListIterator(data), cutoff=2), 1))
        assert [(c.value, c.key.timestamp) for c in aged] == \
            [("3", 3), ("7", 5)]

    def test_apply_drop_zero_and_keep_zero(self):
        data = cells(("a", "q", "2", 1), ("b", "q", "-2", 1))
        shifted = ApplyIterator(ListIterator(data), lambda v: v + 2)
        assert [c.value for c in drain(shifted)] == ["4"]  # 0 dropped
        kept = ApplyIterator(ListIterator(data), lambda v: v + 2,
                             drop_zero=False)
        assert [c.value for c in drain(kept)] == ["4", "0"]

    def test_apply_preserves_key_and_timestamp(self):
        data = cells(("a", "q", "2.5", 7))
        got = drain(ApplyIterator(ListIterator(data), lambda v: v * 2))
        assert got[0].key == data[0].key
        assert got[0].value == "5"


class TestRowReduce:
    DATA = cells(("a", "x", "1", 1), ("a", "y", "2", 4), ("a", "z", "3", 2),
                 ("b", "x", "5", 3))

    def test_sum_min_max(self):
        for op, want in (("sum", ["6", "5"]), ("min", ["1", "5"]),
                         ("max", ["3", "5"])):
            got = drain(RowReduceIterator(ListIterator(self.DATA), op=op))
            assert [c.value for c in got] == want

    def test_count_mode_ignores_values(self):
        got = drain(RowReduceIterator(ListIterator(self.DATA), op="sum",
                                      count=True))
        assert [(c.key.row, c.value) for c in got] == [("a", "3"), ("b", "1")]

    def test_output_key_shape_and_timestamp(self):
        got = drain(RowReduceIterator(ListIterator(self.DATA), op="sum",
                                      family="f", qualifier="deg"))
        key = got[0].key
        # newest timestamp in the row group keeps the output key
        # deterministic for cross-backend bit-identity
        assert (key.row, key.family, key.qualifier, key.timestamp) == \
            ("a", "f", "deg", 4)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown reduce op"):
            RowReduceIterator(ListIterator([]), op="avg")

    def test_reseek_restarts_fold(self):
        it = RowReduceIterator(ListIterator(self.DATA), op="sum")
        it.seek(Range(), None)
        assert it.top().key.row == "a"
        it.seek(Range("b", None), None)
        out = []
        while it.has_top():
            out.append((it.top().key.row, it.top().value))
            it.advance()
        assert out == [("b", "5")]
