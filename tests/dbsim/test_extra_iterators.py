"""Regex, AgeOff, Apply and RowReduce stages, directly on batches."""

import pytest

from repro.dbsim import Connector, Layer
from repro.dbsim.iterators import (
    age_off_stage,
    apply_stage,
    reduce_stage,
    regex_stage,
    versions_stage,
)
from repro.dbsim.key import Cell, Key, Range
from repro.dbsim.server import Instance
from tests.dbsim.per_cell_oracle import delete_filter, run_stage
from tests.dbsim.test_iterators import chain


def cells(*specs):
    out = [Cell(Key(r, "", q, "", ts), v) for (r, q, v, ts) in specs]
    return sorted(out, key=lambda c: c.key.sort_tuple())


class TestRegexFilter:
    DATA = cells(("user|alice", "age", "30", 1),
                 ("user|bob", "age", "25", 1),
                 ("word|hi", "count", "7", 1))

    def test_row_regex(self):
        out = run_stage(regex_stage(row=r"^user\|"), self.DATA)
        assert [c.key.row for c in out] == ["user|alice", "user|bob"]

    def test_qualifier_regex(self):
        out = run_stage(regex_stage(qualifier="count"), self.DATA)
        assert [c.value for c in out] == ["7"]

    def test_value_regex(self):
        out = run_stage(regex_stage(value=r"^2"), self.DATA)
        assert [c.key.row for c in out] == ["user|bob"]

    def test_combined(self):
        out = run_stage(regex_stage(row="user", value="30"), self.DATA)
        assert [c.key.row for c in out] == ["user|alice"]

    def test_none_matches_all(self):
        assert run_stage(regex_stage(), self.DATA) == self.DATA

    def test_as_scan_iterator(self):
        conn = Connector(Instance())
        conn.create_table("t")
        with conn.batch_writer("t") as w:
            w.put("apple", "", "q", 1)
            w.put("banana", "", "q", 2)
        s = conn.scanner("t", scan_iterators=(Layer(regex_stage(row="^a")),))
        assert [c.key.row for c in s] == ["apple"]


class TestAgeOff:
    def test_drops_old_timestamps(self):
        data = cells(("a", "q", "old", 1), ("b", "q", "new", 9))
        assert [c.value for c in run_stage(age_off_stage(5), data)] == ["new"]

    def test_cutoff_inclusive(self):
        data = cells(("a", "q", "exact", 5))
        assert run_stage(age_off_stage(5), data) == []

    def test_compaction_makes_ageoff_permanent(self):
        conn = Connector(Instance())
        conn.create_table("t")
        entry = conn.instance.locate("t", "a")
        tablet = entry.server.tablet("t", entry.tablet_id)
        tablet.write(Key("a", "", "q", "", 1), "old")
        tablet.write(Key("b", "", "q", "", 9), "new")
        tablet.compact(table_iterators=(Layer(age_off_stage(5)),))
        assert tablet.entry_estimate() == 1
        assert [c.value for c in tablet.scan()] == ["new"]


def tombstone(row, qualifier, ts):
    return Cell(Key(row, "", qualifier, "", ts, True), "")


class TestStageEdgeCases:
    """Empty streams, interleaved delete markers, multi-version keys."""

    def test_empty_source(self):
        for stage in (regex_stage(row="x"), age_off_stage(5),
                      apply_stage(lambda v: v + 1), reduce_stage("sum")):
            assert run_stage(stage, []) == []

    def test_empty_range_scan(self):
        conn = Connector(Instance())
        conn.create_table("t")
        with conn.batch_writer("t") as w:
            w.put("a", "", "q", 1)
            w.put("b", "", "q", 2)
        s = conn.scanner("t", scan_iterators=(Layer(regex_stage(row=".")),))
        assert list(s.set_range(Range("x", "z"))) == []

    def test_delete_markers_interleaved(self):
        """Behind the tombstone rule — the storage pass's, below every
        stage — the stages only ever see live cells."""
        data = sorted([
            Cell(Key("a", "", "q1", "", 2), "1"),
            tombstone("a", "q2", 3),
            Cell(Key("a", "", "q2", "", 2), "9"),   # older than tombstone
            Cell(Key("b", "", "q1", "", 4), "2"),
            tombstone("b", "q2", 1),                # deletes nothing
            Cell(Key("b", "", "q2", "", 5), "3"),
        ], key=lambda c: c.key.sort_tuple())
        live = list(delete_filter(data))
        got = [(c.key.row, c.key.qualifier, c.value)
               for c in run_stage(apply_stage(lambda v: v * 10), live)]
        assert got == [("a", "q1", "10"), ("b", "q1", "20"),
                       ("b", "q2", "30")]
        reduced = run_stage(reduce_stage("sum"), live)
        assert [(c.key.row, c.value) for c in reduced] == \
            [("a", "1"), ("b", "5")]

    def test_multi_version_keys(self):
        data = cells(("a", "q", "3", 3), ("a", "q", "2", 2),
                     ("a", "q", "1", 1), ("b", "q", "7", 5))
        newest = run_stage(versions_stage(1), data)
        assert [(c.value, c.key.timestamp) for c in newest] == \
            [("3", 3), ("7", 5)]
        two = run_stage(versions_stage(2), data)
        assert [c.value for c in two] == ["3", "2", "7"]
        # an age-off below versioning can expose an older version
        aged = run_stage(chain(age_off_stage(2), versions_stage(1)), data)
        assert [(c.value, c.key.timestamp) for c in aged] == \
            [("3", 3), ("7", 5)]

    def test_apply_drop_zero_and_keep_zero(self):
        data = cells(("a", "q", "2", 1), ("b", "q", "-2", 1))
        shifted = run_stage(apply_stage(lambda v: v + 2), data)
        assert [c.value for c in shifted] == ["4"]  # 0 dropped
        kept = run_stage(apply_stage(lambda v: v + 2, drop_zero=False), data)
        assert [c.value for c in kept] == ["4", "0"]

    def test_apply_preserves_key_and_timestamp(self):
        data = cells(("a", "q", "2.5", 7))
        got = run_stage(apply_stage(lambda v: v * 2), data)
        assert got[0].key == data[0].key
        assert got[0].value == "5"


class TestRowReduce:
    DATA = cells(("a", "x", "1", 1), ("a", "y", "2", 4), ("a", "z", "3", 2),
                 ("b", "x", "5", 3))

    def test_sum_min_max(self):
        for op, want in (("sum", ["6", "5"]), ("min", ["1", "5"]),
                         ("max", ["3", "5"])):
            got = run_stage(reduce_stage(op), self.DATA)
            assert [c.value for c in got] == want

    def test_count_mode_ignores_values(self):
        got = run_stage(reduce_stage("sum", count=True), self.DATA)
        assert [(c.key.row, c.value) for c in got] == [("a", "3"), ("b", "1")]

    def test_output_key_shape_and_timestamp(self):
        got = run_stage(reduce_stage("sum", family="f", qualifier="deg"),
                        self.DATA)
        key = got[0].key
        # newest timestamp in the row group keeps the output key
        # deterministic for cross-backend bit-identity
        assert (key.row, key.family, key.qualifier, key.timestamp) == \
            ("a", "f", "deg", 4)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown reduce op"):
            reduce_stage("avg")

    def test_reused_stage_restarts_fold(self):
        """A stage holds no state between scans: a second run over
        other batches folds from scratch."""
        stage = reduce_stage("sum")
        assert [c.value for c in run_stage(stage, self.DATA)] == ["6", "5"]
        got = run_stage(stage, self.DATA[3:])
        assert [(c.key.row, c.value) for c in got] == [("b", "5")]
