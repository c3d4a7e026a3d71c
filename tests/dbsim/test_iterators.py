"""The SortedKVIterator framework: seek/top/advance contracts, merging,
versioning, combining, filtering, applying."""

import pytest

from repro.dbsim.iterators import (
    ApplyIterator,
    ColumnFilterIterator,
    ListIterator,
    MaxCombiner,
    MergeIterator,
    MinCombiner,
    PredicateFilterIterator,
    SummingCombiner,
    VersioningIterator,
    drain,
)
from repro.dbsim.key import Cell, Key, Range
from repro.dbsim.stats import OpStats


def cells(*triples):
    """Build sorted cells from (row, qual, value[, ts]) tuples."""
    out = [Cell(Key(r, "", q, "", t[3] if len(t) > 3 else 0), v)
           for t in triples for r, q, v in [t[:3]]]
    return sorted(out, key=lambda c: c.key.sort_tuple())


class TestListIterator:
    def test_full_scan(self):
        data = cells(("a", "x", "1"), ("b", "y", "2"))
        assert [c.value for c in drain(ListIterator(data))] == ["1", "2"]

    def test_seek_range(self):
        data = cells(("a", "x", "1"), ("b", "y", "2"), ("c", "z", "3"))
        out = drain(ListIterator(data), Range("b", "c"))
        assert [c.key.row for c in out] == ["b"]

    def test_seek_counts_stats(self):
        stats = OpStats()
        it = ListIterator(cells(("a", "x", "1")), stats=stats)
        drain(it)
        assert stats.seeks == 1 and stats.entries_read == 1

    def test_column_filter_at_seek(self):
        data = cells(("a", "x", "1"), ("a", "y", "2"))
        it = ListIterator(data)
        it.seek(Range(), [("", "y")])
        out = []
        while it.has_top():
            out.append(it.top().key.qualifier)
            it.advance()
        assert out == ["y"]

    def test_family_wildcard(self):
        data = [Cell(Key("a", "f1", "x"), "1"), Cell(Key("a", "f2", "y"), "2")]
        it = ListIterator(sorted(data, key=lambda c: c.key.sort_tuple()))
        it.seek(Range(), [("f2", None)])
        assert it.top().value == "2"

    def test_exhausted_top_raises(self):
        it = ListIterator([])
        it.seek(Range())
        assert not it.has_top()
        with pytest.raises(StopIteration):
            it.top()

    def test_reseek_resets(self):
        data = cells(("a", "x", "1"), ("b", "y", "2"))
        it = ListIterator(data)
        drain(it)
        out = drain(it, Range("b", None))
        assert [c.key.row for c in out] == ["b"]


class TestMergeIterator:
    def test_interleaves_sorted(self):
        l1 = ListIterator(cells(("a", "x", "1"), ("c", "x", "3")))
        l2 = ListIterator(cells(("b", "x", "2"), ("d", "x", "4")))
        out = drain(MergeIterator([l1, l2]))
        assert [c.key.row for c in out] == ["a", "b", "c", "d"]

    def test_tie_prefers_earlier_child(self):
        """Memtable (child 0) wins over sstables on identical keys."""
        l1 = ListIterator([Cell(Key("a", "", "x", "", 5), "new")])
        l2 = ListIterator([Cell(Key("a", "", "x", "", 5), "old")])
        out = drain(MergeIterator([l1, l2]))
        assert out[0].value == "new"

    def test_empty_children(self):
        out = drain(MergeIterator([ListIterator([]), ListIterator([])]))
        assert out == []

    def test_respects_timestamp_order(self):
        l1 = ListIterator([Cell(Key("a", "", "x", "", 1), "old")])
        l2 = ListIterator([Cell(Key("a", "", "x", "", 9), "new")])
        out = drain(MergeIterator([l1, l2]))
        assert [c.value for c in out] == ["new", "old"]

    def test_is_the_reference_for_the_tablet_sort_merge(self):
        """``_merge_runs`` (one stable sort over the concatenated
        ``(keys, values)`` runs) must order cells — ties included, the
        earlier run first — as this k-way merge does."""
        import random

        from repro.dbsim.key import run_cells
        from repro.dbsim.tablet import _merge_runs

        rnd = random.Random(13)
        for trial in range(50):
            runs = []
            for r in range(rnd.randint(1, 5)):
                run = [Cell(Key(rnd.choice("abcd"), "", rnd.choice("xy"), "",
                                rnd.randint(1, 3), rnd.random() < 0.1),
                            f"run{r}-{i}")
                       for i in range(rnd.randint(0, 12))]
                # duplicate keys inside and across runs are the point
                runs.append(sorted(run, key=lambda c: c.key.sort_tuple()))
            want = drain(MergeIterator([ListIterator(run) for run in runs]))
            got = run_cells(*_merge_runs(
                [([c.key.sort_tuple() for c in run], [c.value for c in run])
                 for run in runs if run]))
            assert [(c.key, c.value) for c in got] == \
                [(c.key, c.value) for c in want], trial


class TestVersioningIterator:
    def make(self, max_versions=1):
        data = [
            Cell(Key("a", "", "x", "", 3), "v3"),
            Cell(Key("a", "", "x", "", 2), "v2"),
            Cell(Key("a", "", "x", "", 1), "v1"),
            Cell(Key("b", "", "x", "", 1), "b1"),
        ]
        return VersioningIterator(ListIterator(data), max_versions)

    def test_keeps_newest(self):
        out = drain(self.make(1))
        assert [c.value for c in out] == ["v3", "b1"]

    def test_max_versions_two(self):
        out = drain(self.make(2))
        assert [c.value for c in out] == ["v3", "v2", "b1"]

    def test_invalid_max_versions(self):
        with pytest.raises(ValueError):
            VersioningIterator(ListIterator([]), 0)


class TestCombiners:
    def versions(self, *vals):
        return [Cell(Key("r", "", "q", "", ts), v)
                for ts, v in zip(range(len(vals), 0, -1), vals)]

    def test_summing(self):
        out = drain(SummingCombiner(ListIterator(self.versions("1", "2", "3"))))
        assert len(out) == 1 and out[0].value == "6"

    def test_min_max(self):
        data = self.versions("5", "2", "9")
        assert drain(MinCombiner(ListIterator(data)))[0].value == "2"
        assert drain(MaxCombiner(ListIterator(data)))[0].value == "9"

    def test_distinct_cells_not_combined(self):
        data = sorted([Cell(Key("r", "", "q1"), "1"),
                       Cell(Key("r", "", "q2"), "2")],
                      key=lambda c: c.key.sort_tuple())
        out = drain(SummingCombiner(ListIterator(data)))
        assert [c.value for c in out] == ["1", "2"]


class TestFiltersApply:
    def test_predicate_filter(self):
        data = cells(("a", "x", "5"), ("b", "y", "50"))
        it = PredicateFilterIterator(ListIterator(data),
                                     lambda c: float(c.value) > 10)
        assert [c.value for c in drain(it)] == ["50"]

    def test_column_filter(self):
        data = cells(("a", "x", "1"), ("a", "y", "2"), ("b", "x", "3"))
        it = ColumnFilterIterator(ListIterator(data), ["x"])
        assert [c.value for c in drain(it)] == ["1", "3"]

    def test_apply_transforms_values(self):
        data = cells(("a", "x", "3"))
        it = ApplyIterator(ListIterator(data), lambda v: v * v)
        assert drain(it)[0].value == "9"

    def test_apply_drops_zero(self):
        data = cells(("a", "x", "2"), ("a", "y", "3"))
        it = ApplyIterator(ListIterator(data), lambda v: 1.0 if v == 2 else 0.0)
        out = drain(it)
        assert len(out) == 1 and out[0].key.qualifier == "x"

    def test_apply_keep_zero(self):
        data = cells(("a", "x", "2"))
        it = ApplyIterator(ListIterator(data), lambda v: 0.0, drop_zero=False)
        assert drain(it)[0].value == "0"


class TestStacking:
    def test_versioning_then_combiner(self):
        """Stack order matters: versioning first keeps only the newest,
        so the combiner sees a single version per cell."""
        data = [
            Cell(Key("r", "", "q", "", 2), "10"),
            Cell(Key("r", "", "q", "", 1), "7"),
        ]
        stacked = SummingCombiner(VersioningIterator(ListIterator(data), 1))
        assert drain(stacked)[0].value == "10"

    def test_combiner_only_sums_all_versions(self):
        data = [
            Cell(Key("r", "", "q", "", 2), "10"),
            Cell(Key("r", "", "q", "", 1), "7"),
        ]
        assert drain(SummingCombiner(ListIterator(data)))[0].value == "17"
