"""The clean-run transpose against the per-cell storage pass.

A scan that reads one sliced run of a *clean* sstable — no tombstone,
one version per logical cell — with no column filter and no leading
combiner takes its columns by one transpose (``Tablet._drain_clean``)
instead of the per-cell loop (``Tablet._drain_columns_fused``).  Over
random runs (tombstones, several versions, repeated cells, clean or
not, sometimes a memtable beside the run) crossed with random range
sets, column filters and a leading combiner, every scan must give the
loop's batches — boundaries, columns and timestamps — and the same
``entries_read`` / ``seeks`` / bloom counts.  ``SSTable.clean`` must be
false whenever a tombstone or a repeated cell is present, and is
learnt only by a scan that could use it.
"""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbsim import Range, SummingCombiner
from repro.dbsim.key import Key, clip_ranges, sort_run, sorted_disjoint
from repro.dbsim.sstable import SSTable
from repro.dbsim.tablet import Tablet
from repro.obs.metrics import MetricsRegistry

ROWS = [f"r{i}" for i in range(8)]
QUALS = ["a", "b", "c"]
BLOOM = ("bloom_hits", "bloom_misses", "index_seeks")

#: (row, family, qualifier, visibility, timestamp, delete, value)
entry = st.tuples(st.sampled_from(ROWS), st.sampled_from(["", "f"]),
                  st.sampled_from(QUALS), st.sampled_from(["", "x"]),
                  st.integers(1, 4), st.booleans(),
                  st.integers(0, 9).map(str))


@st.composite
def runs(draw):
    """A sorted run: random entries, or — half the time — a clean one
    (puts only, one per logical cell)."""
    entries = draw(st.lists(entry, max_size=40))
    if draw(st.booleans()):
        cells = {}
        for row, fam, qual, vis, ts, _, value in entries:
            cells[row, fam, qual, vis] = (ts, value)
        entries = [(*cid, ts, False, value)
                   for cid, (ts, value) in cells.items()]
    keys = [Key(*e[:6]).sort_tuple() for e in entries]
    return sort_run(keys, [e[6] for e in entries])


_range = st.one_of(
    st.sampled_from(ROWS).map(Range.exact_row),
    st.tuples(st.sampled_from(ROWS), st.sampled_from(ROWS)).filter(
        lambda p: p[0] < p[1]).map(lambda p: Range(*p)),
    st.just(Range()),
)


@st.composite
def range_sets(draw):
    kept = []
    for rng in sorted(draw(st.lists(_range, min_size=1, max_size=5)),
                      key=lambda r: r.effective_start()):
        if not kept or (kept[-1].stop_row is not None
                        and rng.start_row is not None
                        and kept[-1].stop_row <= rng.start_row):
            kept.append(rng)
    assert sorted_disjoint(kept)
    return kept


def _is_clean(keys) -> bool:
    """Brute force: no tombstone, no logical cell twice."""
    cells = [key[:4] for key in keys]
    return all(key[5] for key in keys) and len(set(cells)) == len(cells)


def _tablet(run, memtable, max_versions):
    tablet = Tablet(Range(), max_versions=max_versions)
    tablet.bind_metrics(MetricsRegistry(), "t")
    tablet.sstables = [SSTable.from_run(*run)] if run[0] else []
    if memtable:
        tablet.write_raw_batch(memtable)
    return tablet


def _counts(tablet, stats):
    export = tablet._registry.export()
    return (stats.seeks, stats.entries_read,
            [export[f"dbsim.table.t.{name}"] for name in BLOOM])


@settings(max_examples=300, deadline=None)
@given(run=runs(), memtable=st.lists(entry, max_size=3),
       ranges=range_sets(), max_versions=st.integers(1, 3),
       batch_cells=st.sampled_from([1, 2, 3, 7, 2048]),
       columns=st.sampled_from([None, [("", None)], [("f", "a")]]),
       combine=st.booleans())
def test_scan_equals_the_per_cell_pass(run, memtable, ranges, max_versions,
                                       batch_cells, columns, combine):
    layers = (SummingCombiner,) if combine else ()
    scanned = _tablet(run, memtable, max_versions)
    before = scanned.stats
    got = list(scanned.scan_columns(ranges, columns, layers,
                                    batch_cells=batch_cells))
    stats = scanned.stats.delta(before)

    looped = _tablet(run, memtable, max_versions)
    before = looped.stats
    clipped = clip_ranges(ranges, looped.extent)
    want = list(looped._drain_columns_fused(
        looped._sliced_runs(clipped), columns,
        operator.add if combine else None,
        batch_cells)) if clipped else []
    want_stats = looped.stats.delta(before)

    assert got == want  # ColumnBatch equality includes timestamps
    assert [len(b) for b in got] == [len(b) for b in want]
    assert _counts(scanned, stats) == _counts(looped, want_stats)
    for table in scanned.sstables:
        if table._clean is not None:
            assert table._clean == _is_clean(table.keys)


@settings(max_examples=200, deadline=None)
@given(run=runs())
def test_clean_is_false_with_a_tombstone_or_a_repeated_cell(run):
    assert SSTable.from_run(*run).clean == _is_clean(run[0])


def _clean_run(n=50):
    keys = [Key(f"r{i:03d}", "", f"q{i % 7}", "", i + 1).sort_tuple()
            for i in range(n)]
    return keys, [str(i) for i in range(n)]


class TestWhenTheFactIsLearnt:
    def test_a_plain_scan_of_a_clean_run_takes_the_transpose(
            self, monkeypatch):
        tablet = _tablet(_clean_run(), [], 1)
        (table,) = tablet.sstables
        assert table._clean is None
        want = list(tablet.scan_columns(batch_cells=16))
        assert table._clean is True

        def loop(*args, **kwargs):
            raise AssertionError("the per-cell pass ran")
        monkeypatch.setattr(Tablet, "_drain_columns_fused", loop)
        assert list(tablet.scan_columns(batch_cells=16)) == want
        assert [len(b) for b in want] == [16, 16, 16, 2]

    def test_flush_compaction_and_combining_scans_never_check(self):
        tablet = Tablet(Range())
        tablet.write_raw_batch([(f"r{i}", "", "q", "", 0, False, "1")
                                for i in range(20)])
        tablet.flush()
        list(tablet.scan_columns(table_iterators=(SummingCombiner,)))
        list(tablet.scan_columns(columns=[("", "q")]))
        assert tablet.sstables[0]._clean is None
        tablet.compact((SummingCombiner,))
        assert tablet.sstables[0]._clean is None

    def test_a_point_lookup_never_checks(self):
        tablet = _tablet(_clean_run(), [], 1)
        assert len(list(tablet.scan_columns(Range.exact_row("r007")))) == 1
        assert tablet.sstables[0]._clean is None

    @pytest.mark.parametrize("cells", [
        [("r1", "", "q", "", 2, False, "1"), ("r1", "", "q", "", 1, False,
                                              "2")],
        [("r1", "", "q", "", 2, True, ""), ("r2", "", "q", "", 1, False,
                                            "2")],
        [("r1", "", "q", "", 2, False, "1"), ("r1", "", "q", "", 2, False,
                                              "1")],
    ], ids=["two-versions", "tombstone", "repeated-cell"])
    def test_dirty_runs_are_not_clean(self, cells):
        keys = [Key(*c[:6]).sort_tuple() for c in cells]
        run = sort_run(keys, [c[6] for c in cells])
        assert SSTable.from_run(*run).clean is False
