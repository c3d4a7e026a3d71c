"""The iterator layers as batch stages: versioning, combining, filtering,
applying, and how they stack; plus the storage leaf under them — the
tablet's range / column selection and its sort-merge of runs."""

import heapq
import random
from operator import itemgetter

import pytest

from repro.dbsim.iterators import (
    Layer,
    MaxCombiner,
    MinCombiner,
    SummingCombiner,
    apply_stage,
    column_stage,
    select_stage,
    versions_stage,
)
from repro.dbsim.key import Cell, Key, Range, run_cells
from repro.dbsim.server import TableConfig
from repro.dbsim.tablet import Tablet, _merge_runs
from tests.dbsim.per_cell_oracle import run_stage


def cells(*triples):
    """Build sorted cells from (row, qual, value[, ts]) tuples."""
    out = [Cell(Key(r, "", q, "", t[3] if len(t) > 3 else 0), v)
           for t in triples for r, q, v in [t[:3]]]
    return sorted(out, key=lambda c: c.key.sort_tuple())


def chain(*stages):
    """Stages stacked bottom-up, as a tablet chains a scan's layers."""
    def stage(batches):
        for one in stages:
            batches = one(batches)
        return batches
    return stage


class TestLayerEntry:
    """A layer is ``Layer(stage)``; anything else is refused where
    layers enter, before any scan is built (the scanners' refusal:
    ``tests/net/test_columnar.py``)."""

    def test_table_config_refuses_a_bare_callable(self):
        with pytest.raises(TypeError, match=r"Layer\(stage\)"):
            TableConfig(table_iterators=(lambda src: src,))


class TestStorageLeaf:
    """What a stage sees: the tablet's cells inside the scan's rows and
    columns, each run opened once."""

    @staticmethod
    def tablet(data):
        tablet = Tablet(Range())
        tablet.write_batch(data)
        return tablet

    def test_full_scan(self):
        data = cells(("a", "x", "1"), ("b", "y", "2"))
        assert [c.value for c in self.tablet(data).scan()] == ["1", "2"]

    def test_range(self):
        data = cells(("a", "x", "1"), ("b", "y", "2"), ("c", "z", "3"))
        out = self.tablet(data).scan(Range("b", "c"))
        assert [c.key.row for c in out] == ["b"]

    def test_scan_counts_stats(self):
        tablet = self.tablet(cells(("a", "x", "1")))
        before = tablet.stats.snapshot()
        tablet.scan()
        delta = tablet.stats.delta(before)
        assert delta.seeks == 1 and delta.entries_read == 1

    def test_column_filter(self):
        data = cells(("a", "x", "1"), ("a", "y", "2"))
        out = self.tablet(data).scan(Range(), [("", "y")])
        assert [c.key.qualifier for c in out] == ["y"]

    def test_family_wildcard(self):
        data = [Cell(Key("a", "f1", "x"), "1"), Cell(Key("a", "f2", "y"), "2")]
        out = self.tablet(data).scan(Range(), [("f2", None)])
        assert [c.value for c in out] == ["2"]

    def test_compaction_refuses_a_layer_that_reorders(self):
        """A compaction through user layers checks its output is sorted
        before it becomes the run, and leaves storage as it was."""
        data = cells(("a", "x", "1"), ("b", "y", "2"))
        tablet = self.tablet(data)
        tablet.flush()

        def backwards(batches):
            for batch in batches:
                yield batch.select(range(len(batch) - 1, -1, -1))

        with pytest.raises(ValueError, match="sorted"):
            tablet.compact((Layer(backwards),))
        assert [c.value for c in tablet.scan()] == ["1", "2"]


def _merge_reference(runs):
    """``heapq.merge`` over the runs' (sort tuple, value) pairs: on
    equal keys the earlier run's entry comes first."""
    return list(heapq.merge(*(list(zip(*run)) for run in runs),
                            key=itemgetter(0)))


def _run(*entries):
    """(keys, values) of cells already in key order."""
    return ([c.key.sort_tuple() for c in entries], [c.value for c in entries])


class TestMergeRuns:
    """``tablet._merge_runs`` — one stable sort over the concatenated
    runs — orders entries as a k-way merge would, ties included."""

    def test_interleaves_sorted(self):
        got = run_cells(*_merge_runs([
            _run(*cells(("a", "x", "1"), ("c", "x", "3"))),
            _run(*cells(("b", "x", "2"), ("d", "x", "4")))]))
        assert [c.key.row for c in got] == ["a", "b", "c", "d"]

    def test_tie_prefers_earlier_run(self):
        """Memtable (run 0) wins over sstables on identical keys."""
        got = run_cells(*_merge_runs([
            _run(Cell(Key("a", "", "x", "", 5), "new")),
            _run(Cell(Key("a", "", "x", "", 5), "old"))]))
        assert [c.value for c in got] == ["new", "old"]

    def test_no_runs(self):
        """A tablet whose every run the scan's ranges miss."""
        assert _merge_runs([]) == ([], [])

    def test_respects_timestamp_order(self):
        got = run_cells(*_merge_runs([
            _run(Cell(Key("a", "", "x", "", 1), "old")),
            _run(Cell(Key("a", "", "x", "", 9), "new"))]))
        assert [c.value for c in got] == ["new", "old"]

    def test_equals_heapq_merge(self):
        rnd = random.Random(13)
        for trial in range(50):
            runs = []
            for r in range(rnd.randint(1, 5)):
                run = [Cell(Key(rnd.choice("abcd"), "", rnd.choice("xy"), "",
                                rnd.randint(1, 3), rnd.random() < 0.1),
                            f"run{r}-{i}")
                       for i in range(rnd.randint(1, 12))]
                # duplicate keys inside and across runs are the point
                runs.append(_run(*sorted(run,
                                         key=lambda c: c.key.sort_tuple())))
            got = _merge_runs(runs)
            assert list(zip(*got)) == _merge_reference(runs), trial


class TestVersions:
    DATA = [
        Cell(Key("a", "", "x", "", 3), "v3"),
        Cell(Key("a", "", "x", "", 2), "v2"),
        Cell(Key("a", "", "x", "", 1), "v1"),
        Cell(Key("b", "", "x", "", 1), "b1"),
    ]

    def test_keeps_newest(self):
        out = run_stage(versions_stage(1), self.DATA)
        assert [c.value for c in out] == ["v3", "b1"]

    def test_max_versions_two(self):
        out = run_stage(versions_stage(2), self.DATA)
        assert [c.value for c in out] == ["v3", "v2", "b1"]

    def test_invalid_max_versions(self):
        with pytest.raises(ValueError):
            versions_stage(0)


class TestCombiners:
    def versions(self, *vals):
        return [Cell(Key("r", "", "q", "", ts), v)
                for ts, v in zip(range(len(vals), 0, -1), vals)]

    def test_summing(self):
        out = run_stage(SummingCombiner.stage, self.versions("1", "2", "3"))
        assert [(c.key.timestamp, c.value) for c in out] == [(3, "6")]

    def test_min_max(self):
        data = self.versions("5", "2", "9")
        assert run_stage(MinCombiner.stage, data)[0].value == "2"
        assert run_stage(MaxCombiner.stage, data)[0].value == "9"

    def test_distinct_cells_not_combined(self):
        data = cells(("r", "q1", "1"), ("r", "q2", "2"))
        out = run_stage(SummingCombiner.stage, data)
        assert [c.value for c in out] == ["1", "2"]


class TestFiltersApply:
    def test_cell_predicate(self):
        data = cells(("a", "x", "5"), ("b", "y", "50"))
        keep = select_stage(lambda batch: map(
            lambda c: float(c.value) > 10, batch.cells()))
        assert [c.value for c in run_stage(keep, data)] == ["50"]

    def test_column_filter(self):
        data = cells(("a", "x", "1"), ("a", "y", "2"), ("b", "x", "3"))
        out = run_stage(column_stage(["x"]), data)
        assert [c.value for c in out] == ["1", "3"]

    def test_apply_transforms_values(self):
        data = cells(("a", "x", "3"))
        assert run_stage(apply_stage(lambda v: v * v), data)[0].value == "9"

    def test_apply_drops_zero(self):
        data = cells(("a", "x", "2"), ("a", "y", "3"))
        out = run_stage(apply_stage(lambda v: 1.0 if v == 2 else 0.0), data)
        assert len(out) == 1 and out[0].key.qualifier == "x"

    def test_apply_keep_zero(self):
        data = cells(("a", "x", "2"))
        out = run_stage(apply_stage(lambda v: 0.0, drop_zero=False), data)
        assert out[0].value == "0"


class TestStacking:
    DATA = [
        Cell(Key("r", "", "q", "", 2), "10"),
        Cell(Key("r", "", "q", "", 1), "7"),
    ]

    def test_versioning_then_combiner(self):
        """Stack order matters: versioning first keeps only the newest,
        so the combiner sees a single version per cell."""
        stacked = chain(versions_stage(1), SummingCombiner.stage)
        assert run_stage(stacked, self.DATA)[0].value == "10"

    def test_combiner_only_sums_all_versions(self):
        assert run_stage(SummingCombiner.stage, self.DATA)[0].value == "17"
