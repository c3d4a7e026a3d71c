"""Combiners fold inside the fused drain.

A table whose first iterator is a built-in combiner has the fused
columnar pass fold it, for ``Tablet.scan_columns`` and
``Tablet.compact``.  The contract is bit-identity with the same
combiner run as a stage over the drain — cells, timestamps, and the
``OpStats`` cost model (``seeks``, ``entries_read``) — so every case
here builds two identical tablets and drives one through the built-in
layer (fused) and one through a user layer holding only its stage
(which carries no ``reduce_fn``, so the stage does the folding).

The same holds one level up: a pushed-down ``IterSpec``'s layers,
chained by the tablet onto its drain, must match — cells, timestamps
and every counter — the same stages applied by hand to the tablet's
output.
"""

import pytest

from repro.dbsim.iterators import (
    Layer,
    MaxCombiner,
    MinCombiner,
    SummingCombiner,
    age_off_stage,
)
from repro.dbsim.key import Range
from repro.dbsim.tablet import Tablet
from repro.net.iterspec import IterSpec
from repro.obs.metrics import MetricsRegistry

COMBINERS = [SummingCombiner, MinCombiner, MaxCombiner]
AUX = ("bloom_hits", "bloom_misses", "index_seeks", "scans_fused")


def _stacked(layer):
    """The same combiner as a user layer: its stage alone."""
    return Layer(layer.stage)


def _put(tablet, row, qual, value, family="f"):
    tablet.write_raw_batch([(row, family, qual, "", 0, False, str(value))])


def _delete(tablet, row, qual, family="f"):
    tablet.write_raw_batch([(row, family, qual, "", 0, True, "")])


def _history(tablet):
    """Memtable + three runs; versions spread across all of them, a
    tombstone between versions, a cell deleted outright, a second
    family for the column filter."""
    for row in range(6):
        for qual in range(4):
            _put(tablet, f"r{row}", f"q{qual}", row + qual)
    tablet.flush()
    for row in range(0, 6, 2):
        for qual in range(4):
            _put(tablet, f"r{row}", f"q{qual}", 10 * row - qual)
    _put(tablet, "r1", "q1", 7.5, family="g")
    tablet.flush()
    _delete(tablet, "r2", "q1")          # hides both versions so far
    _put(tablet, "r2", "q1", 100)        # ...and a newer one survives
    _delete(tablet, "r4", "q0")          # cell gone entirely
    _put(tablet, "r9", "q0", 1)          # a row only this run knows
    tablet.flush()
    for row in range(6):
        _put(tablet, f"r{row}", "q3", 0.25)   # memtable versions
    _put(tablet, "r2", "q1", -3)


def _pair(factory, max_versions=2 ** 31):
    """(fused tablet + iterators, staged tablet + iterators), each bound
    to its own registry so the aux counters can be compared too."""
    out = []
    for its in ((factory,), (_stacked(factory),)):
        tablet = Tablet(Range(), max_versions=max_versions)
        registry = MetricsRegistry()
        tablet.bind_metrics(registry, "t")
        _history(tablet)
        out.append((tablet, its, registry))
    return out


def _scan(tablet, its, rng=Range(), columns=None, batch_cells=7,
          scan_its=()):
    before = tablet.stats.snapshot()
    cells = [cell for batch in tablet.scan_columns(rng, columns, its,
                                                   scan_its,
                                                   batch_cells=batch_cells)
             for cell in batch.cells()]
    delta = tablet.stats.delta(before)
    return cells, (delta.seeks, delta.entries_read)


def _aux(registry):
    export = registry.export()
    return {name: export[f"dbsim.table.t.{name}"] for name in AUX}


@pytest.mark.parametrize("factory", COMBINERS)
class TestFusedCombinerScan:
    def test_full_scan_identical_to_stack(self, factory):
        (fused, f_its, f_reg), (stack, s_its, s_reg) = _pair(factory)
        got, got_stats = _scan(fused, f_its)
        want, want_stats = _scan(stack, s_its)
        assert got == want and got          # cells + timestamps
        assert got_stats == want_stats      # seeks, entries_read
        assert _aux(f_reg)["scans_fused"] == _aux(s_reg)["scans_fused"] == 1
        # every cell is one folded entry under its newest timestamp
        assert len({(c.key.row, c.key.family, c.key.qualifier)
                    for c in got}) == len(got)

    def test_column_filter_and_range(self, factory):
        (fused, f_its, _), (stack, s_its, _) = _pair(factory)
        for rng, columns in ((Range(), [("f", "q1"), ("g", None)]),
                             (Range("r1", "r3"), None),
                             (Range("r2", None), [("f", "q3")])):
            assert _scan(fused, f_its, rng, columns) == \
                _scan(stack, s_its, rng, columns)

    def test_point_lookup_bloom_accounting(self, factory):
        (fused, f_its, f_reg), (stack, s_its, s_reg) = _pair(factory)
        for row in ("r9", "r2", "r7"):   # one run / every run / no run
            assert _scan(fused, f_its, Range.exact_row(row)) == \
                _scan(stack, s_its, Range.exact_row(row))
        f_aux, s_aux = _aux(f_reg), _aux(s_reg)
        assert f_aux["bloom_hits"] == s_aux["bloom_hits"] > 0
        assert f_aux["bloom_misses"] == s_aux["bloom_misses"] > 0
        assert f_aux["index_seeks"] == s_aux["index_seeks"]

    def test_versioning_runs_below_the_fold(self, factory):
        """max_versions=2: only the two newest versions reach ⊕."""
        (fused, f_its, _), (stack, s_its, _) = _pair(factory,
                                                     max_versions=2)
        assert _scan(fused, f_its) == _scan(stack, s_its)

    def test_compact_identical_to_stack(self, factory):
        (fused, f_its, f_reg), (stack, s_its, s_reg) = _pair(factory)
        stats = []
        for tablet, its in ((fused, f_its), (stack, s_its)):
            before = tablet.stats.snapshot()
            tablet.compact(its)
            delta = tablet.stats.delta(before)
            stats.append((delta.seeks, delta.entries_read,
                          delta.compactions))
        assert stats[0] == stats[1]
        assert fused.sstables[0].cells() == stack.sstables[0].cells()
        assert len(fused.sstables) == 1 and len(fused.memtable) == 0
        assert _aux(f_reg)["index_seeks"] == _aux(s_reg)["index_seeks"]
        # compaction is not a scan
        assert _aux(f_reg)["scans_fused"] == _aux(s_reg)["scans_fused"] == 0
        # and the compacted run reads back the same on both paths
        assert _scan(fused, f_its) == _scan(stack, s_its)
        for row in ("r9", "r2", "r7"):
            assert _scan(fused, f_its, Range.exact_row(row)) == \
                _scan(stack, s_its, Range.exact_row(row))


@pytest.mark.parametrize("spec", [
    IterSpec().value_ge(3.0),
    IterSpec().reduce("sum"),
    IterSpec().versions(1).combiner("sum"),
], ids=repr)
@pytest.mark.parametrize("table_its", [(), (SummingCombiner,)],
                         ids=["plain", "sum-table"])
class TestStagedSpecScan:
    """A spec's layers chained onto the fused drain by the tablet vs
    the very same stages applied by hand to the tablet's output, over
    a table whose combiner (if any) runs as a stage."""

    def _pair(self, table_its):
        out = []
        for _ in range(2):
            tablet = Tablet(Range(), max_versions=2)
            registry = MetricsRegistry()
            tablet.bind_metrics(registry, "t")
            _history(tablet)
            out.append((tablet, registry))
        return out

    def test_cells_and_counters_identical_to_stages_by_hand(
            self, spec, table_its):
        (staged, st_reg), (by_hand, bh_reg) = self._pair(table_its)
        layers = spec.build_factories()
        by_hand_its = tuple(_stacked(layer) for layer in table_its)

        def scan(rng, columns):
            before = by_hand.stats.snapshot()
            batches = by_hand.scan_columns(rng, columns, by_hand_its,
                                           batch_cells=7)
            for layer in layers:
                batches = layer.stage(batches)
            cells = [cell for batch in batches for cell in batch.cells()]
            delta = by_hand.stats.delta(before)
            return cells, (delta.seeks, delta.entries_read)

        for rng, columns in ((Range(), None),
                             (Range("r1", "r3"), [("f", "q1"), ("g", None)]),
                             (Range.exact_row("r2"), None),
                             (Range.exact_row("r9"), None),
                             (Range.exact_row("r7"), None)):
            got = _scan(staged, table_its, rng, columns, scan_its=layers)
            assert got == scan(rng, columns), (rng, columns)
        st_aux, bh_aux = _aux(st_reg), _aux(bh_reg)
        assert st_aux == bh_aux
        assert st_aux["scans_fused"] == 5
        assert st_aux["bloom_hits"] > 0 and st_aux["bloom_misses"] > 0


class TestFusedFallback:
    def test_second_table_iterator_runs_the_combiner_as_a_stage(self):
        """A built-in combiner folds in the drain under any layers above
        it; with an age-off filter stacked on it, the scan still agrees
        with the combiner run as a stage, and compaction — through the
        cell path, not the stored-key one — writes the same run."""
        age_off = Layer(age_off_stage(20))
        tablets = []
        for its in ((SummingCombiner, age_off),
                    (_stacked(SummingCombiner), age_off)):
            tablet = Tablet(Range(), max_versions=2 ** 31)
            registry = MetricsRegistry()
            tablet.bind_metrics(registry, "t")
            _history(tablet)
            tablets.append((tablet, its, registry))
        (a, a_its, a_reg), (b, b_its, _) = tablets
        assert _scan(a, a_its) == _scan(b, b_its)
        assert _aux(a_reg)["scans_fused"] == 1
        a.compact(a_its)
        b.compact(b_its)
        assert a.sstables[0].cells() == b.sstables[0].cells()

    def test_scan_layers_keep_the_fold_in_the_drain(self, monkeypatch):
        seen = []
        real = Tablet._drain_columns_fused

        def spy(self, runs, columns, reduce_fn, *args, **kwargs):
            seen.append(reduce_fn)
            return real(self, runs, columns, reduce_fn, *args, **kwargs)

        monkeypatch.setattr(Tablet, "_drain_columns_fused", spy)
        tablet = Tablet(Range(), max_versions=2 ** 31)
        _history(tablet)
        list(tablet.scan_columns(Range(), None, (SummingCombiner,),
                                 (Layer(lambda batches: batches),)))
        list(tablet.scan_columns(Range(), None,
                                 (_stacked(SummingCombiner),)))
        assert seen == [SummingCombiner.reduce_fn, None]

    def test_plain_table_compaction_keeps_stored_cells(self):
        """Plain tables' compact takes the fused route too, and reuses
        the stored key tuples instead of copying them."""
        plain, reference = Tablet(Range()), Tablet(Range())
        for tablet in (plain, reference):
            _history(tablet)
        stored = {id(key) for run in plain.sstables for key in run.keys}
        stored |= {id(key) for key in plain.memtable.keys}
        stats = []
        for tablet, its in ((plain, ()),
                            (reference, (Layer(lambda batches: batches),))):
            before = tablet.stats.snapshot()
            tablet.compact(its)
            delta = tablet.stats.delta(before)
            stats.append((delta.seeks, delta.entries_read))
        assert stats[0] == stats[1]
        assert plain.sstables[0].cells() == reference.sstables[0].cells()
        assert all(id(key) in stored for key in plain.sstables[0].keys)

    def test_scan_path_counters_preregistered(self):
        registry = MetricsRegistry()
        Tablet(Range()).bind_metrics(registry, "fresh")
        export = registry.export()
        assert export["dbsim.table.fresh.scans_fused"] == 0
