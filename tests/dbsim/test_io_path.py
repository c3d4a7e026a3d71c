"""The indexed/batched/cached I/O path: SSTable key arrays + bloom
filters, write_batch / BatchWriter / coalescing BatchScanner, and the
bisect-based tablet locate cache.

The overriding invariant: every fast path must produce scans
bit-identical (keys, values, *timestamps*) to the simple path it
replaces.  Several tests here assert exactly that, alongside the
counters that prove the fast path actually ran.
"""

import random

import pytest

from repro.dbsim.client import Connector
from repro.dbsim.iterators import Layer
from repro.dbsim.key import Cell, Key, Range, run_cells
from repro.dbsim.memtable import MemTable
from repro.dbsim.server import Instance
from repro.dbsim.sstable import RowBloomFilter, SSTable
from repro.dbsim.tablet import Tablet
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry


def _cells(spec):
    """[(row, qual, ts, value)] -> sorted [Cell] (family fixed)."""
    out = [Cell(Key(r, "f", q, "", ts), v) for r, q, ts, v in spec]
    return sorted(out, key=lambda c: c.key.sort_tuple())


def _run(spec):
    """``_cells(spec)`` as storage holds it: (sort-key tuples, values)."""
    cells = _cells(spec)
    return [c.key.sort_tuple() for c in cells], [c.value for c in cells]


def _snap(conn, table, rng=Range()):
    """Full fidelity scan snapshot: includes timestamps."""
    return [(c.key.row, c.key.family, c.key.qualifier, c.key.visibility,
             c.key.timestamp, c.value)
            for c in conn.scanner(table).set_range(rng)]


@pytest.fixture
def registry():
    return MetricsRegistry()


def fresh_conn(registry=None, splits=("g", "n", "t"), n_servers=2,
               name="t"):
    conn = Connector(Instance(n_servers=n_servers, metrics=registry))
    conn.create_table(name, splits=list(splits))
    return conn


class TestRowBloomFilter:
    def test_no_false_negatives(self):
        rows = [f"row{i:04d}" for i in range(500)]
        bloom = RowBloomFilter(rows)
        assert all(bloom.may_contain(r) for r in rows)

    def test_mostly_rejects_absent_rows(self):
        bloom = RowBloomFilter(f"row{i:04d}" for i in range(500))
        absent = [f"other{i:04d}" for i in range(500)]
        false_positives = sum(bloom.may_contain(r) for r in absent)
        # 10 bits/key, 3 hashes -> ~1.7% theoretical FP rate
        assert false_positives < 50

    def test_deterministic_across_instances(self):
        a = RowBloomFilter(["x", "y", "z"])
        b = RowBloomFilter(["x", "y", "z"])
        probes = ["x", "q", "veryabsent", "z", ""]
        assert [a.may_contain(p) for p in probes] == \
            [b.may_contain(p) for p in probes]


class TestSSTableIndex:
    def make_run(self, n=500):
        return SSTable(_cells([(f"r{i:05d}", f"q{i % 3}", 1, str(i))
                               for i in range(n)]))

    @staticmethod
    def _scan_rows(run, rng):
        # a run is read the way scans read it: sliced by the tablet
        tablet = Tablet(Range())
        tablet.sstables.append(run)
        return [c.key.row for c in tablet.scan(rng)]

    def test_sliced_seek_matches_linear_scan(self):
        run = self.make_run()
        # every seek target must land exactly where a full scan would
        for start in ["r00000", "r00063", "r00064", "r00065", "r00250",
                      "r0025", "r00499", "zzz", ""]:
            got = self._scan_rows(run, Range(start, None))
            want = [c.key.row for c in run.cells() if c.key.row >= start]
            assert got == want, f"seek({start!r})"

    def test_seek_respects_stop_row(self):
        run = self.make_run(200)
        assert self._scan_rows(run, Range("r00100", "r00110")) == \
            [f"r{i:05d}" for i in range(100, 110)]

    def test_bounds_and_overlaps(self):
        run = self.make_run(100)
        assert run.first_row == "r00000"
        assert run.last_row == "r00099"
        assert run.overlaps(Range("r00050", "r00051"))
        assert not run.overlaps(Range("s", None))
        assert not run.overlaps(Range(None, "r00000"))  # stop is exclusive

    def test_may_contain_row(self):
        run = self.make_run(100)
        assert run.may_contain_row("r00042")
        assert not run.may_contain_row("a")   # below min key
        assert not run.may_contain_row("z")   # above max key

    def test_split_at_is_a_slice(self):
        run = self.make_run(100)
        left, right = run.split_at("r00040")
        assert [c.key.row for c in left.cells()] == \
            [f"r{i:05d}" for i in range(40) for _ in range(1)]
        assert right.cells()[0].key.row == "r00040"  # split row goes right
        assert len(left) + len(right) == len(run)

    def test_unsorted_input_rejected(self):
        cells = _cells([("b", "q", 1, "1"), ("a", "q", 1, "2")])
        SSTable(cells)  # sorted by helper: fine
        with pytest.raises(ValueError):
            SSTable(list(reversed(cells)))


class TestBloomCounters:
    def test_point_lookup_skips_non_matching_runs(self, registry):
        conn = fresh_conn(registry, splits=())
        # three runs with overlapping ROW RANGES (so min/max bounds
        # cannot prune them) but disjoint row sets — only the bloom
        # filter can prove two of them irrelevant to the point lookup
        for batch in (["a1", "z1"], ["a2", "h1", "z2"], ["a3", "z3"]):
            with conn.batch_writer("t") as w:
                for r in batch:
                    w.put(r, "f", "q", "1")
            conn.flush("t")
        out = [c.value for c in
               conn.scanner("t").set_range(Range.exact_row("h1"))]
        assert out == ["1"]
        hits = registry.counter("dbsim.table.t.bloom_hits").value
        misses = registry.counter("dbsim.table.t.bloom_misses").value
        # runs 1 and 3 are proven absent and skipped; run 2 is opened
        assert hits == 2
        assert misses == 1

    def test_full_scans_never_consult_bloom(self, registry):
        conn = fresh_conn(registry, splits=())
        with conn.batch_writer("t") as w:
            w.put("a", "f", "q", "1")
        conn.flush("t")
        list(conn.scanner("t").set_range(Range()))
        assert registry.counter("dbsim.table.t.bloom_hits").value == 0
        assert registry.counter("dbsim.table.t.bloom_misses").value == 0

    def test_index_seeks_counted(self, registry):
        conn = fresh_conn(registry, splits=())
        with conn.batch_writer("t") as w:
            for i in range(10):
                w.put(f"r{i}", "f", "q", "1")
        conn.flush("t")
        before = registry.counter("dbsim.table.t.index_seeks").value
        list(conn.scanner("t").set_range(Range.exact_row("r5")))
        assert registry.counter("dbsim.table.t.index_seeks").value == before + 1


class TestWriteBatch:
    def test_bit_identical_to_cell_at_a_time(self):
        random.seed(11)
        rows = [f"{random.choice('abcdefghijklmnopqrstuvwxyz')}{i % 97}"
                for i in range(2000)]
        conn_a = fresh_conn()
        conn_b = fresh_conn()
        with conn_a.batch_writer("t", buffer_size=500) as w:
            for i, r in enumerate(rows):
                w.put(r, "f", f"q{i % 5}", str(i))
        for i, r in enumerate(rows):  # direct per-cell server writes
            e = conn_b.instance.locate("t", r)
            e.server.tablet("t", e.tablet_id).write(Key(r, "f", f"q{i % 5}"),
                                                    str(i))
        assert _snap(conn_a, "t") == _snap(conn_b, "t")

    def test_batch_spanning_flush_bytes_flushes_once(self, registry):
        from repro.dbsim.server import TableConfig

        conn = Connector(Instance(metrics=registry))
        conn.create_table("t", TableConfig(flush_bytes=1000))
        (e,) = conn.instance.tablets("t")
        tablet = e.server.tablet("t", e.tablet_id)
        # one batch whose total size crosses flush_bytes several times
        # over must still trigger exactly one flush, at batch end
        cells = [Cell(Key(f"r{i:04d}", "f", "q"), "v" * 50)
                 for i in range(100)]
        tablet.write_batch(cells)
        assert registry.counter("dbsim.table.t.flushes").value == 1
        assert len(tablet.memtable) == 0
        assert len(tablet.sstables) == 1

    def test_batched_mutations_counter(self, registry):
        conn = fresh_conn(registry, splits=())
        with conn.batch_writer("t") as w:
            for i in range(7):
                w.put(f"r{i}", "f", "q", "1")
        assert registry.counter("dbsim.table.t.batched_mutations").value == 7

    def test_extent_violation_rejected(self):
        tablet = Tablet(Range("m", "q"))
        with pytest.raises(ValueError):
            tablet.write_batch([Cell(Key("a", "f", "q"), "1")])
        with pytest.raises(ValueError):
            tablet.write_raw_batch([("z", "f", "q", "", 0, False, "1")])

    def test_explicit_timestamps_preserved(self):
        tablet = Tablet(Range())
        tablet.write_batch([Cell(Key("a", "f", "q", "", 77), "old")])
        (cell,) = tablet.scan(Range.exact_row("a"))
        assert cell.key.timestamp == 77


class TestCrashRecovery:
    def ingest(self, conn, n=200):
        with conn.batch_writer("t", buffer_size=64) as w:
            for i in range(n):
                w.put(f"r{i % 50:03d}", "f", f"q{i % 4}", str(i))

    def test_wal_replay_after_crash_restores_batched_writes(self):
        conn = fresh_conn(splits=("r025",))
        self.ingest(conn)
        before = _snap(conn, "t")
        for server in conn.instance.servers:
            server.crash()
            server.recover(replay_wal=False)  # restart, skip log recovery
        assert _snap(conn, "t") != before  # memtables really were lost
        for server in conn.instance.servers:
            server.recover()  # WALs stayed durable; replay them now
        assert _snap(conn, "t") == before

    def test_recovery_is_idempotent_for_batched_writes(self):
        conn = fresh_conn(splits=("r025",))
        self.ingest(conn)
        before = _snap(conn, "t")
        for server in conn.instance.servers:
            server.crash()
            server.recover()
            server.crash()
            server.recover()  # double replay must not duplicate versions
        assert _snap(conn, "t") == before

    def test_crash_mid_buffer_loses_only_unflushed_client_buffer(self):
        conn = fresh_conn(splits=())
        w = conn.batch_writer("t", buffer_size=10)
        for i in range(25):  # two full flushes + 5 buffered client-side
            w.put(f"r{i:02d}", "f", "q", str(i))
        for server in conn.instance.servers:
            server.crash()
            server.recover()
        # the 20 flushed cells are durable (WAL), the 5 buffered are not
        assert [t[0] for t in _snap(conn, "t")] == \
            [f"r{i:02d}" for i in range(20)]
        w.close()


class TestClippedScan:
    def test_disjoint_range_is_explicitly_empty(self):
        tablet = Tablet(Range("m", "q"))
        tablet.write(Key("n", "f", "q"), "1")
        # disjoint from the extent: empty, and nothing is opened
        before = tablet.stats.snapshot()
        assert tablet.scan(Range("a", "b")) == []
        assert tablet.stats.delta(before).seeks == 0
        # the overlapping part of a wider range
        assert [c.key.row for c in tablet.scan(Range("m", "z"))] == ["n"]


class TestTabletSplit:
    def test_split_partitions_runs_without_rescan(self):
        tablet = Tablet(Range())
        for i in range(100):
            tablet.write(Key(f"r{i:03d}", "f", "q"), str(i))
        tablet.flush()
        left, right = tablet.split("r050")
        assert left.extent == Range(None, "r050")
        assert right.extent == Range("r050", None)
        assert [c.key.row for c in left.scan()] == \
            [f"r{i:03d}" for i in range(50)]
        assert [c.key.row for c in right.scan()] == \
            [f"r{i:03d}" for i in range(50, 100)]


class TestLocateCache:
    def test_locate_bisects_to_owning_tablet(self):
        conn = fresh_conn(splits=("g", "n", "t"))
        inst = conn.instance
        for row, start in [("a", None), ("g", "g"), ("mzz", "g"),
                           ("n", "n"), ("zzz", "t")]:
            assert inst.locate("t", row).extent.start_row == start

    def test_split_invalidates_the_index(self):
        conn = fresh_conn(splits=("g",))
        inst = conn.instance
        starts = inst.table("t").index.starts
        conn.add_split("t", "p")
        starts2 = inst.table("t").index.starts
        assert starts2 is not starts  # replaced, not mutated: staleness token
        assert starts2 == ["", "g", "p"]
        assert inst.locate("t", "q").extent.start_row == "p"

    def test_index_built_lazily_once(self, registry):
        conn = fresh_conn(registry, splits=("g",))
        inst = conn.instance
        builds = registry.counter("dbsim.locate.index_builds")
        before = builds.value
        for row in ("a", "b", "h", "z"):
            inst.locate("t", row)
        assert builds.value == before + 1  # one rebuild serves all four


class TestBatchScannerCoalescing:
    def setup_graph(self, registry=None):
        """Compacted 4-tablet table: rows v00..v39, one run per tablet."""
        conn = fresh_conn(registry, splits=("v10", "v20", "v30"))
        with conn.batch_writer("t") as w:
            for i in range(40):
                w.put(f"v{i:02d}", "f", f"q{i % 3}", str(i))
        conn.compact("t")
        return conn

    def test_coalesced_output_identical_to_per_range(self):
        conn = self.setup_graph()
        ranges = [Range.exact_row(f"v{i:02d}") for i in range(0, 40, 3)]
        fast = conn.batch_scanner("t").set_ranges(ranges)
        slow = [c for r in ranges
                for c in conn.batch_scanner("t").set_ranges([r])]
        snap = lambda cells: [(c.key.row, c.key.qualifier, c.key.timestamp,
                               c.value) for c in cells]
        assert snap(fast) == snap(slow)

    def test_one_stack_seek_per_tablet(self):
        conn = self.setup_graph()
        inst = conn.instance
        # 14 sorted point ranges across all 4 tablets
        ranges = [Range.exact_row(f"v{i:02d}") for i in range(0, 40, 3)]
        before = inst.total_stats().snapshot()
        list(conn.batch_scanner("t").set_ranges(ranges))
        delta = inst.total_stats().delta(before)
        # compacted: each tablet stack = memtable + 1 run = 2 seeks;
        # 4 tablets -> 8 seeks total, NOT 2 per range (28)
        assert delta.seeks == 2 * 4

    def test_per_range_path_seeks_per_range(self):
        # unsorted ranges select the per-range path
        conn = self.setup_graph()
        inst = conn.instance
        ranges = [Range.exact_row(f"v{i:02d}") for i in range(39, -1, -3)]
        before = inst.total_stats().snapshot()
        list(conn.batch_scanner("t").set_ranges(ranges))
        delta = inst.total_stats().delta(before)
        assert delta.seeks == 2 * len(ranges)

    def test_auto_detection(self):
        conn = self.setup_graph()
        sorted_rngs = [Range.exact_row("v01"), Range.exact_row("v05")]
        sink = trace.InMemorySink()
        trace.enable(sink)
        try:
            for rngs in (sorted_rngs, sorted_rngs[::-1]):
                list(conn.batch_scanner("t").set_ranges(rngs))
        finally:
            trace.disable()
            trace.set_sink(trace.NullSink())
        assert [s["attrs"]["coalesced"]
                for s in sink.spans("dbsim.batch_scan")] == [True, False]

    @pytest.mark.parametrize("ranges, coalesced", [
        ([Range("v00", "v05"), Range("v05", "v12")], True),
        ([Range(None, "v03"), Range("v31", None)], True),
        ([Range("v12", "v25")], True),
        ([Range("v00", "v12"), Range("v08", "v15")], False),
        ([Range("v21", "v24"), Range("v02", "v04")], False),
        ([Range("v02", "v04"), Range(None, "v01")], False),
    ], ids=["touching", "open-ends", "single", "overlapping", "reversed",
            "open-start-later"])
    def test_path_follows_the_input(self, ranges, coalesced):
        # the input alone picks the path; both keep the caller's
        # per-range order, an overlap returning its rows twice
        conn = self.setup_graph()
        sink = trace.InMemorySink()
        trace.enable(sink)
        try:
            out = list(conn.batch_scanner("t").set_ranges(ranges))
        finally:
            trace.disable()
            trace.set_sink(trace.NullSink())
        (span,) = sink.spans("dbsim.batch_scan")
        assert span["attrs"]["coalesced"] is coalesced
        per_range = [c for r in ranges for c in conn.scanner("t").set_range(r)]
        assert out == per_range

    def test_bfs_seeks_bounded_per_tablet_per_hop(self):
        from repro.dbsim.graphulo import table_bfs

        conn = fresh_conn(splits=("v2", "v4", "v6"))
        # path graph v0 -> v1 -> ... -> v7 across 4 tablets
        with conn.batch_writer("t") as w:
            for i in range(7):
                w.put(f"v{i}", "", f"v{i + 1}", "1")
        conn.compact("t")
        inst = conn.instance
        before = inst.total_stats().snapshot()
        dist = table_bfs(conn, "t", ["v0"], hops=7)
        delta = inst.total_stats().delta(before)
        assert dist == {f"v{i}": i for i in range(8)}
        # each hop's frontier fetch touches at most every tablet once:
        # <= 2 stack-child seeks per tablet per hop (memtable + 1 run)
        assert delta.seeks <= 7 * 2 * 4

    def test_batch_scan_trace_span(self):
        conn = self.setup_graph()
        sink = trace.InMemorySink()
        trace.enable(sink)
        try:
            ranges = [Range.exact_row("v01"), Range.exact_row("v05")]
            list(conn.batch_scanner("t").set_ranges(ranges))
        finally:
            trace.disable()
            trace.set_sink(trace.NullSink())
        (span,) = sink.spans("dbsim.batch_scan")
        assert span["attrs"]["table"] == "t"
        assert span["attrs"]["ranges"] == 2
        assert span["attrs"]["coalesced"] is True
        assert span["attrs"]["entries"] == 2
        # plain compacted table: one stored cell per result, and the
        # scan reads nothing but its two rows
        assert span["opstats"]["entries_read"] == 2

    def test_range_set_reads_only_its_rows(self):
        # Until the range set reached the storage slice, a coalesced
        # scan read each tablet's whole span from its first range to
        # its last (37 cells here) and dropped the gaps client-side.
        conn = self.setup_graph()
        inst = conn.instance
        ranges = [Range.exact_row(f"v{i:02d}") for i in range(0, 40, 3)]
        reads = {}
        for name, scan in [
                ("coalesced", lambda: list(
                    conn.batch_scanner("t").set_ranges(ranges))),
                ("columnar", lambda: list(
                    conn.batch_scanner("t").set_ranges(ranges)
                    .scan_columns())),
                ("per-range", lambda: [
                    c for r in ranges
                    for c in conn.batch_scanner("t").set_ranges([r])])]:
            before = inst.total_stats().snapshot()
            scan()
            reads[name] = inst.total_stats().delta(before).entries_read
        assert reads == {"coalesced": 14, "columnar": 14, "per-range": 14}

    def test_entries_read_counts_after_the_column_skip(self):
        conn = self.setup_graph()
        inst = conn.instance
        ranges = [Range("v00", "v06"), Range("v20", "v26")]
        for drain in (list, lambda bs: list(bs.scan_columns())):
            bs = conn.batch_scanner("t").set_ranges(ranges)
            bs.columns = [("f", "q0")]  # rows 0, 3, 21, 24
            before = inst.total_stats().snapshot()
            drain(bs)
            assert inst.total_stats().delta(before).entries_read == 4

    def test_range_set_accounting_is_per_opened_run(self, registry):
        # one tablet, two overlapping runs + a memtable: a scan opens
        # each once, however many ranges it carries
        conn = fresh_conn(registry, splits=())
        for lo in (0, 1):
            with conn.batch_writer("t") as w:
                for i in range(lo, 40, 2):
                    w.put(f"v{i:02d}", "f", "q", str(i))
            conn.flush("t")
        with conn.batch_writer("t") as w:
            w.put("v07", "f", "q", "new")
        inst = conn.instance
        counter = lambda name: registry.counter(f"dbsim.table.t.{name}")
        ranges = [Range.exact_row(f"v{i:02d}") for i in range(0, 40, 3)]
        for drain in (list, lambda bs: list(bs.scan_columns())):
            before = inst.total_stats().snapshot()
            index_seeks = counter("index_seeks").value
            drain(conn.batch_scanner("t").set_ranges(ranges))
            assert inst.total_stats().delta(before).seeks == 3
            assert counter("index_seeks").value == index_seeks + 2
        # a set of several rows never consults the bloom filters ...
        assert counter("bloom_hits").value == 0
        assert counter("bloom_misses").value == 0
        # ... a set that is one exact row does, and skips the run that
        # cannot hold it (v08 is even: only the first run has it)
        before = inst.total_stats().snapshot()
        list(conn.batch_scanner("t").set_ranges([Range.exact_row("v08")]))
        assert inst.total_stats().delta(before).seeks == 2
        assert counter("bloom_hits").value == 1
        assert counter("bloom_misses").value == 1


class TestMemTableBulk:
    def test_extend_matches_write_accounting(self):
        spec = [(f"r{i}", "q", i + 1, "val") for i in range(20)]
        keys, values = _run(spec)
        a, b = MemTable(), MemTable()
        for key, value in zip(keys, values):  # one cell at a time
            a.extend([key], [value])
        b.extend(keys, values)
        assert a.approximate_bytes == b.approximate_bytes
        assert run_cells(*a.sorted_run()) == run_cells(*b.sorted_run()) \
            == _cells(spec)
        # and the byte count a tablet sums from the batch's columns is
        # the one the memtable would have derived from the keys
        tablet = Tablet(Range(), flush_bytes=1 << 30)
        tablet.write_batch(_cells(spec))
        assert tablet.memtable.approximate_bytes == b.approximate_bytes

    def test_extend_detects_out_of_order(self):
        m = MemTable()
        m.extend(*_run([("b", "q", 1, "1")]))
        assert m._sorted
        m.extend(*_run([("a", "q", 1, "2")]))  # out of order vs last
        assert not m._sorted
        assert [c.key.row for c in run_cells(*m.sorted_run())] == ["a", "b"]
        assert m._sorted and [k[0] for k in m.sorted_run()[0]] == ["a", "b"]
        m.extend(*_run([("c", "q", 1, "3"), ("d", "q", 1, "4")]))
        assert m._sorted  # in order, batch after batch: never re-sorted
        m.extend(*_run([("f", "q", 1, "5"), ("e", "q", 1, "6")][::-1]))
        assert m._sorted


class TestMemTableScans:
    def test_point_lookup_allocates_its_result_not_the_memtable(self):
        import tracemalloc

        tablet = Tablet(Range(), flush_bytes=1 << 30)
        tablet.write_batch(Cell(Key(f"r{i:05d}", "f", "q"), "1")
                           for i in range(20_000))
        lookup = Range.exact_row("r12345")
        list(tablet.scan_columns(lookup))  # sorts the buffer, once
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            (batch,) = tablet.scan_columns(lookup)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert batch.rows == ["r12345"]
        # a copy of the 20k-cell list alone is 160 kB of pointers
        assert peak < 16_000

    @pytest.mark.parametrize("table_iterators",
                             [(), (Layer(lambda batches: batches),)],
                             ids=["fused", "staged"])
    def test_scan_opened_before_a_write_does_not_see_it(self,
                                                        table_iterators):
        tablet = Tablet(Range())
        for row in ("a", "c", "e"):
            tablet.write(Key(row, "f", "q"), "old")
        batches = tablet.scan_columns(Range(), None, table_iterators)
        tablet.write(Key("b", "f", "q"), "new")      # a new row
        tablet.write(Key("c", "f", "q"), "newer")    # a newer version
        assert [(r, v) for b in batches
                for r, v in zip(b.rows, b.values)] == \
            [("a", "old"), ("c", "old"), ("e", "old")]
        assert [c.value for c in tablet.scan(Range(), None,
                                             table_iterators)] == \
            ["old", "new", "newer", "old"]

    def test_iterator_keeps_snapshot_semantics(self):
        """What a scan iterates — a slice of the memtable's run — keeps
        snapshot semantics: taken before a write, it never
        sees it — whether the write lands in order (appended to the
        very lists the slice came from) or forces a re-sort."""
        from repro.dbsim.tablet import _slice_rows

        everything = [(("",), ("\U0010FFFF",))]
        m = MemTable()
        m.extend(*_run([("a", "q", 1, "1"), ("c", "q", 1, "1")]))
        first = _slice_rows(*m.sorted_run(), everything)
        m.extend(*_run([("d", "q", 2, "2")]))      # in order: appended
        second = _slice_rows(*m.sorted_run(), everything)
        m.extend(*_run([("b", "q", 3, "3")]))      # out of order: re-sort
        assert [k[0] for k in first[0]] == ["a", "c"]
        assert first[1] == ["1", "1"]
        assert [k[0] for k in second[0]] == ["a", "c", "d"]
        assert [k[0] for k in m.sorted_run()[0]] == ["a", "b", "c", "d"]


class TestBatchWriterThresholds:
    def test_max_memory_triggers_flush(self):
        conn = fresh_conn(splits=())
        w = conn.batch_writer("t", buffer_size=10_000, max_memory=200)
        for i in range(3):
            w.put(f"r{i}", "f", "q", "x" * 80)  # >100 bytes each
        assert len(w._buffer) < 3  # memory threshold flushed mid-stream
        w.close()
        assert len(_snap(conn, "t")) == 3

    def test_deletes_route_through_batches(self):
        conn = fresh_conn(splits=("m",))
        with conn.batch_writer("t") as w:
            w.put("a", "f", "q", "1")
            w.put("z", "f", "q", "2")
        with conn.batch_writer("t") as w:
            w.delete("z", "f", "q")
        assert [t[0] for t in _snap(conn, "t")] == ["a"]
