"""Tablets: the unit of storage and of server-side iteration.

A tablet owns a row-range *extent*, a memtable, and a stack of immutable
sorted runs.  A scan runs the canonical Accumulo stack:

    memtable + sstables, each sliced to the scan's row ranges and
    merged → tombstones → versioning → table-configured layers
    (combiners/filters) → scan-time layers

in one of two forms, chosen by what the layers are.  When every table
and scan layer carries a batch stage (see
:class:`~repro.dbsim.iterators.Layer`), :meth:`Tablet.scan_columns`
feeds its fused storage pass through the stages and builds no per-cell
object.  The first opaque callable — a user's ``lambda src: ...`` —
sends the whole scan down the per-cell ``SortedKVIterator`` stack
(:meth:`Tablet.scan_iterator`), which is also the reference the staged
form is tested against.

Minor compactions (flush) move the memtable into a new run when it
exceeds ``flush_bytes``; full compactions merge all runs through the
table's iterator stack, making combiner results durable.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from itertools import chain as _chain
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.dbsim.iterators import (
    Columns,
    DeleteFilterIterator,
    ListIterator,
    SortedKVIterator,
    VersioningIterator,
    _column_match,
    batches,
    drain,
)
from repro.dbsim.errors import ServerCrashedError
from repro.dbsim.key import (
    Cell,
    Key,
    Range,
    RangeSet,
    clip_ranges,
    covering,
    decode_number,
    encode_number,
)
from repro.dbsim.memtable import MemTable
from repro.dbsim.sstable import SSTable
from repro.dbsim.stats import MeteredStats, OpStats
from repro.obs import trace as _trace

#: A table-configured iterator layer: callable wrapping a source iterator.
IteratorFactory = Callable[[SortedKVIterator], SortedKVIterator]


def _cell_row_probe(cell: Cell) -> Tuple[str]:
    return (cell.key.row,)


def _cell_sort_key(cell: Cell):
    return cell.key.sort_tuple()


def _slice_rows(cells: List[Cell], index, probes, key=None) -> List[Cell]:
    """The cells of one sorted run inside a range set, concatenated.

    ``probes`` holds one ``((start,), (stop,))`` pair per range and
    ``index`` is what they bisect — the run's cached sort-key array,
    or the cells themselves under ``key``; a 1-tuple sorts before every
    longer key with the same row, so each bisect lands on a row
    boundary.  The set is sorted and disjoint, so the bisects only
    move forward (each range starts searching where the previous one
    ended) and a one-range set costs exactly two.  Slices are copies:
    nothing written to the run afterwards can show up in them."""
    if len(probes) == 1:
        start, stop = probes[0]
        lo = bisect_left(index, start, key=key)
        return cells[lo:bisect_left(index, stop, lo, key=key)]
    out: List[Cell] = []
    hi = 0
    for start, stop in probes:
        lo = bisect_left(index, start, hi, key=key)
        hi = bisect_left(index, stop, lo, key=key)
        if hi > lo:
            out += cells[lo:hi]
    return out


def _merge_runs(runs: List[List[Cell]]) -> List[Cell]:
    """Sliced runs → one sorted list.  Timsort gallops over the
    presorted runs and, being stable, keeps concatenation order
    (memtable first, then sstables) on ties — the memtable-over-sstable
    precedence of :class:`~repro.dbsim.iterators.MergeIterator`."""
    if len(runs) == 1:
        return runs[0]
    merged = list(_chain.from_iterable(runs))
    merged.sort(key=_cell_sort_key)
    return merged


def _fused_reduce(table_iterators: Sequence[IteratorFactory]):
    """The ⊕ the storage pass folds by itself: the first table layer's,
    when that layer is a built-in combiner (recognised by the
    ``reduce_fn`` it carries); else ``None``."""
    if not table_iterators:
        return None
    return getattr(table_iterators[0], "reduce_fn", None)


class Tablet:
    """One tablet of one table: extent + memtable + sorted runs."""

    def __init__(self, extent: Range, max_versions: int = 1,
                 flush_bytes: int = 1 << 20,
                 stats: Optional[OpStats] = None):
        self.extent = extent
        self.max_versions = max_versions
        self.flush_bytes = flush_bytes
        self._stats = stats if stats is not None else OpStats()
        self._registry = None     # metrics registry (bound by the Instance)
        #: hosting TabletServer (set by host/unhost); data ops consult
        #: its ``crashed`` flag so a downed server fails typed instead
        #: of silently serving reads
        self.server = None
        self.table: Optional[str] = None
        self._sink = self._stats  # counter target: stats, or a metered tee
        self._on_index_seek = None  # registry hook for sstable index seeks
        self._aux: dict = {}  # cached registry-only counters (_bump_aux)
        self.memtable = MemTable()
        self.sstables: List[SSTable] = []
        self._clock = 0  # per-tablet logical timestamps: last write wins
        #: write-ahead log: durable record of unflushed mutations
        self.wal: List[Cell] = []

    # -- stats / metrics binding --------------------------------------------

    @property
    def stats(self) -> OpStats:
        return self._stats

    @stats.setter
    def stats(self, value: OpStats) -> None:
        # servers re-point hosted tablets at their own counter block;
        # keep the metered tee (if bound) aimed at the new base
        self._stats = value
        self._rebuild_sink()

    def bind_metrics(self, registry, table: str) -> None:
        """Attach a metrics registry: from here on this tablet's work is
        also counted under ``dbsim.table.<table>.*``."""
        self._registry = registry
        self.table = table
        self._gauge_prev = {"memtable_bytes": 0, "memtable_entries": 0,
                            "sstables": 0}
        # pre-register every instrument so an export taken before any
        # activity still shows the table's full schema (at zero)
        prefix = f"dbsim.table.{table}"
        for name in ("seeks", "entries_read", "entries_written", "flushes",
                     "compactions", "bloom_hits", "bloom_misses",
                     "index_seeks", "batched_mutations", "scans_fused",
                     "scans_stack"):
            registry.counter(f"{prefix}.{name}")
        for name in self._gauge_prev:
            registry.gauge(f"{prefix}.{name}")
        self._rebuild_sink()
        self._update_gauges()

    def unbind_metrics(self) -> None:
        """Detach from the registry, withdrawing this tablet's gauge
        contributions (used when a tablet is retired by split/delete)."""
        if self._registry is None:
            return
        prefix = f"dbsim.table.{self.table}"
        for name, prev in self._gauge_prev.items():
            if prev:
                self._registry.gauge(f"{prefix}.{name}").add(-prev)
        self._registry = None
        self._rebuild_sink()

    def _rebuild_sink(self) -> None:
        self._aux = {}  # registry-only counters, by short name
        if self._registry is not None and self.table is not None:
            prefix = f"dbsim.table.{self.table}"
            self._sink = MeteredStats(self._stats, self._registry, prefix)
            self._on_index_seek = self._registry.counter(
                f"{prefix}.index_seeks").inc
        else:
            self._sink = self._stats
            self._on_index_seek = None

    def absorb_scan_stats(self, stats: OpStats) -> None:
        """Fold one finished scan's private OpStats (built with the
        ``sink=`` argument of :meth:`scan_iterator`) into the tablet's
        shared block and its metered tee.  The caller serializes calls
        (the net server holds its service lock)."""
        if stats.seeks:
            self._sink.seeks += stats.seeks
        if stats.entries_read:
            self._sink.entries_read += stats.entries_read

    def _bump_aux(self, name: str, amount: int = 1) -> None:
        """Count an I/O-path event that exists only in the registry
        (bloom/batching counters are not part of the OpStats cost
        model, whose field set is pinned by serialization tests)."""
        if self._registry is not None:
            counter = self._aux.get(name)
            if counter is None:  # resolved once per binding, not per scan
                counter = self._aux[name] = self._registry.counter(
                    f"dbsim.table.{self.table}.{name}")
            counter.inc(amount)

    def _update_gauges(self, memtable_bytes: Optional[int] = None) -> None:
        # table-level gauges are the sum over the table's tablets, so
        # each tablet adds the *change* in its own contribution
        if self._registry is None:
            return
        prefix = f"dbsim.table.{self.table}"
        if memtable_bytes is None:
            memtable_bytes = self.memtable.approximate_bytes
        now = {"memtable_bytes": memtable_bytes,
               "memtable_entries": len(self.memtable),
               "sstables": len(self.sstables)}
        for name, value in now.items():
            delta = value - self._gauge_prev[name]
            if delta:
                self._registry.gauge(f"{prefix}.{name}").add(delta)
        self._gauge_prev = now

    def _check_up(self) -> None:
        """Raise :class:`ServerCrashedError` when the hosting server is
        down (between ``crash()`` and ``recover()``).  Unhosted tablets
        (``server is None``) are always up — the unit-test path."""
        server = self.server
        if server is not None and server.crashed:
            raise ServerCrashedError(
                f"tablet server {server.name} is down "
                f"(crashed, not yet recovered)")

    # -- writes -------------------------------------------------------------

    def _apply(self, key: Key, value: str) -> None:
        """Stamp, WAL-append, and buffer one mutation (no accounting):
        timestamp 0 is replaced by a fresh logical tick so later writes
        version-sort first; the WAL append precedes the memtable — the
        durability contract crash recovery replays."""
        if not self.extent.contains_row(key.row):
            raise ValueError(
                f"row {key.row!r} outside tablet extent "
                f"[{self.extent.start_row!r}, {self.extent.stop_row!r})")
        if key.timestamp == 0:
            self._clock += 1
            key = Key(key.row, key.family, key.qualifier, key.visibility,
                      self._clock, key.delete)
        cell = Cell(key, value)
        self.wal.append(cell)
        self.memtable.write(cell)

    def write(self, key: Key, value: str) -> None:
        """Insert one cell."""
        self._check_up()
        self._apply(key, value)
        self._sink.entries_written += 1
        size = self.memtable.approximate_bytes
        self._update_gauges(memtable_bytes=size)
        if size >= self.flush_bytes:
            self.flush()

    def write_batch(self, cells: Iterable[Cell]) -> int:
        """Apply a batch of mutations with batch-granular accounting:
        cells are stamped in order (preserving the per-cell timestamp
        sequence ``write`` would assign, so scans are bit-identical to
        cell-at-a-time ingest) and appended to the WAL and memtable in
        bulk; counters, gauges and the auto-flush check run **once per
        batch** — not per cell.  Returns the number of cells applied."""
        self._check_up()
        extent = self.extent
        contains = extent.contains_row
        clock = self._clock
        nbytes = 0
        stamped: List[Cell] = []
        append = stamped.append
        for cell in cells:
            key = cell.key
            if not contains(key.row):
                raise ValueError(
                    f"row {key.row!r} outside tablet extent "
                    f"[{extent.start_row!r}, {extent.stop_row!r})")
            nbytes += (len(key.row) + len(key.family) + len(key.qualifier)
                       + len(cell.value) + 24)
            if key.timestamp == 0:
                clock += 1
                cell = Cell(Key(key.row, key.family, key.qualifier,
                                key.visibility, clock, key.delete),
                            cell.value)
            append(cell)
        return self._commit_batch(stamped, nbytes, clock)

    def write_raw_batch(self, mutations: Iterable[tuple]) -> int:
        """``write_batch`` over raw ``(row, family, qualifier,
        visibility, timestamp, delete, value)`` tuples — the
        BatchWriter wire format.  Each mutation is materialised as a
        :class:`Cell` exactly once, *after* its timestamp is assigned,
        instead of being built client-side and rebuilt here to stamp
        it.  Semantics are identical to ``write_batch``."""
        self._check_up()
        extent = self.extent
        contains = extent.contains_row
        clock = self._clock
        nbytes = 0
        stamped: List[Cell] = []
        append = stamped.append
        for row, family, qualifier, visibility, ts, delete, value in mutations:
            if not contains(row):
                raise ValueError(
                    f"row {row!r} outside tablet extent "
                    f"[{extent.start_row!r}, {extent.stop_row!r})")
            nbytes += (len(row) + len(family) + len(qualifier)
                       + len(value) + 24)
            if ts == 0:
                clock += 1
                ts = clock
            append(Cell(Key(row, family, qualifier, visibility, ts, delete),
                        value))
        return self._commit_batch(stamped, nbytes, clock)

    def _commit_batch(self, stamped: List[Cell], nbytes: int,
                      clock: int) -> int:
        """Shared tail of the batch write paths: bulk WAL + memtable
        append, then once-per-batch accounting and the auto-flush
        check."""
        if not stamped:
            return 0
        self._clock = clock
        self.wal.extend(stamped)
        self.memtable.extend(stamped, nbytes)
        n = len(stamped)
        self._sink.entries_written += n
        self._bump_aux("batched_mutations", n)
        size = self.memtable.approximate_bytes
        self._update_gauges(memtable_bytes=size)
        if size >= self.flush_bytes:
            self.flush()
        return n

    def delete(self, key: Key) -> None:
        """Write a tombstone hiding all versions of the cell at or
        before this mutation."""
        self.write(Key(key.row, key.family, key.qualifier, key.visibility,
                       key.timestamp, True), "")

    def flush(self) -> None:
        """Minor compaction: memtable → new immutable run; the WAL
        entries it covered are no longer needed."""
        self._check_up()
        if len(self.memtable) == 0:
            return
        if not _trace.ENABLED:
            self._flush()
            return
        with _trace.span("tablet.flush", stats=self._stats,
                         table=self.table, entries=len(self.memtable)):
            self._flush()

    def _flush(self) -> None:
        self.sstables.append(SSTable(self.memtable.snapshot()))
        self.memtable.clear()
        self.wal.clear()
        self._sink.flushes += 1
        self._update_gauges(memtable_bytes=0)

    # -- failure simulation ----------------------------------------------------

    def crash(self) -> None:
        """Lose in-memory state (memtable); sorted runs and the WAL are
        durable and survive."""
        self.memtable.clear()
        self._update_gauges(memtable_bytes=0)

    def recover(self) -> None:
        """Replay the WAL into a fresh memtable (idempotent: replayed
        cells carry their original timestamps, so re-application cannot
        reorder versions)."""
        for cell in self.wal:
            self.memtable.write(cell)
        self._update_gauges()

    # -- reads ---------------------------------------------------------------

    def _stack(self, ranges: Sequence[Range],
               table_iterators: Sequence[IteratorFactory],
               scan_iterators: Sequence[IteratorFactory],
               sink) -> SortedKVIterator:
        """The canonical per-cell stack over a range set (unseeked).

        Its storage leaf is the same sliced, merged cell list the fused
        drain walks, so rows outside the set are never read here
        either — sound because ``Range`` is row-granular and every
        iterator above the leaf is row-local."""
        if sink is None:
            sink = self._sink
        stack: SortedKVIterator = _SlicedLeaf(
            _merge_runs(self._sliced_runs(ranges, sink)), sink)
        stack = DeleteFilterIterator(stack)
        stack = VersioningIterator(stack, self.max_versions)
        for factory in table_iterators:
            stack = factory(stack)
        for factory in scan_iterators:
            stack = factory(stack)
        return stack

    def scan_iterator(self, rng: RangeSet,
                      table_iterators: Sequence[IteratorFactory] = (),
                      scan_iterators: Sequence[IteratorFactory] = (),
                      sink=None) -> SortedKVIterator:
        """Build the full stack over ``rng`` — one range, or a sorted,
        disjoint range set — clipped to this tablet's extent.

        The storage runs are sliced, copied and sort-merged **here**,
        for the whole clipped set, so the returned iterator sees the
        data as of this call; it is *unseeked*, and a seek can only
        narrow it further.  The per-run accounting (``seeks``,
        index-seek ticks, the point-lookup bloom consult) is therefore
        charged once per stack, at construction — not per ``seek()``.

        The trade against a lazy k-way merge of per-run iterators: a
        scan that drains its set (every caller in this package) pays
        about half as much per cell, but one that stops after a few
        cells of a large range has already paid O(cells in the set)
        time and memory.  Ask for the range you will read.

        ``sink`` redirects the stack's OpStats counting away from the
        tablet's shared block: the shared sink's ``+=`` updates are not
        atomic, so a server running scans concurrently hands each scan
        a private :class:`OpStats` and folds it back with
        :meth:`absorb_scan_stats` under its own serialization.
        """
        ranges = clip_ranges(rng, self.extent)
        if not ranges:
            return ListIterator([])
        self._bump_aux("scans_stack")
        out = self._stack(ranges, table_iterators, scan_iterators, sink)
        if self.server is not None:
            # hosted tablet: an open scan dies with its server.  A
            # crash between advances surfaces as ServerCrashedError
            # instead of the scan silently reading a dead server.
            out = _CrashGuardIterator(out, self.server)
        return out

    def scan(self, rng: Range = Range(), columns: Columns = None,
             table_iterators: Sequence[IteratorFactory] = (),
             scan_iterators: Sequence[IteratorFactory] = ()) -> List[Cell]:
        """Convenience: run the stack to completion and return cells."""
        it = self.scan_iterator(rng, table_iterators, scan_iterators)
        return drain(it, rng, columns)

    def scan_columns(self, rng: RangeSet = Range(), columns: Columns = None,
                     table_iterators: Sequence[IteratorFactory] = (),
                     scan_iterators: Sequence[IteratorFactory] = (),
                     batch_cells: int = 2048, sink=None):
        """Bulk columnar read of one range or a sorted, disjoint range
        set: :class:`~repro.net.cells.ColumnBatch`\\ es in key order.

        One rule, read off the layers: when every table and scan layer
        carries a batch ``stage``, the fused storage pass (column skip
        → tombstones → versioning → the fold of a leading built-in
        combiner, see :func:`_fused_reduce`) feeds the remaining
        layers' stages and no per-cell object is built; the first
        opaque callable sends the whole scan down the per-cell stack
        of :meth:`scan_iterator`, re-batched at the top.

        The runs are **sliced eagerly**, before this returns (so a
        caller sees the data as of the call), then a generator yields
        the batches — of up to ``batch_cells`` entries, fewer where a
        stage dropped or folded some.  The crash flag is re-checked
        once per storage batch: a crash mid-scan surfaces as
        :class:`ServerCrashedError` on the next one.
        """
        self._check_up()
        ranges = clip_ranges(rng, self.extent)
        if not ranges:
            return iter(())
        stages = [getattr(layer, "stage", None)
                  for layer in (*table_iterators, *scan_iterators)]
        if None in stages:
            stack = self.scan_iterator(ranges, table_iterators,
                                       scan_iterators, sink)
            stack.seek(covering(ranges), columns)
            return batches(stack, batch_cells)
        self._bump_aux("scans_fused")
        reduce_fn = _fused_reduce(table_iterators)
        out = self._drain_columns_fused(
            self._sliced_runs(ranges, sink), columns, reduce_fn, batch_cells,
            sink if sink is not None else self._sink)
        for stage in stages[reduce_fn is not None:]:
            out = stage(out)
        return out

    def _sliced_runs(self, ranges: Sequence[Range],
                     sink=None) -> List[List[Cell]]:
        """Slice every storage run down to a (clipped, non-empty)
        range set — the one place a scan's rows are selected, for the
        fused drain and the per-cell stack alike.

        Accounting is per opened run, however many ranges the set
        holds: one ``seeks`` bump per run that overlaps the set's
        span (the memtable always counts), one index-seek tick per
        such sstable, and — when the set is a single exact row — the
        bloom-filter consult (``bloom_hits`` / ``bloom_misses``) that
        can skip the run outright.  Run order is memtable first, then
        sstables in list order, so merge ties resolve with
        memtable-over-sstable precedence.
        """
        if sink is None:
            sink = self._sink
        span = covering(ranges)
        probes = [((r.effective_start(),), (r.effective_stop(),))
                  for r in ranges]
        runs: List[List[Cell]] = []
        cells = self.memtable.sorted_cells()
        sink.seeks += 1
        sliced = _slice_rows(cells, cells, probes, key=_cell_row_probe)
        if sliced:
            runs.append(sliced)
        point_row = span.single_row() if len(ranges) == 1 else None
        for run in self.sstables:
            if not run.overlaps(span):
                continue
            if point_row is not None:
                # point lookup: a "hit" is a run proven absent and
                # skipped; a "miss" means the run must be read
                if not run.may_contain_row(point_row):
                    self._bump_aux("bloom_hits")
                    continue
                self._bump_aux("bloom_misses")
            sink.seeks += 1
            if self._on_index_seek is not None:
                self._on_index_seek()
            sliced = _slice_rows(run._cells, run._keys, probes)
            if sliced:
                runs.append(sliced)
        return runs

    def _drain_columns_fused(self, runs: List[List[Cell]],
                             columns: Columns, reduce_fn,
                             batch_cells: int, sink,
                             stored: Optional[List[Cell]] = None):
        """One fused pass over pre-sliced sorted runs: column filter →
        tombstone suppression → versioning → combiner fold →
        column-list append, with no iterator stack and no per-cell
        wrapper calls.  With ``reduce_fn`` the versions of a cell that
        survive versioning fold into one entry under the newest key,
        exactly as :class:`CombinerIterator` above a
        :class:`VersioningIterator` would.  Output and counters are
        bit-identical to the stack path.

        ``stored`` is compaction's second sink: it receives, entry for
        entry, the stored :class:`Cell` each output entry's key came
        from, so the new run can reuse those objects."""
        from repro.net.cells import ColumnBatch  # lazy: dbsim ← net cycle

        merged = _merge_runs(runs)
        mv = self.max_versions
        check_up = self._check_up
        rows: List[str] = []
        fams: List[str] = []
        quals: List[str] = []
        viss: List[str] = []
        ts: List[int] = []
        vals: List[str] = []
        n = 0
        entries = 0
        del_cid = None
        del_ts = 0
        last_cid = None
        seen = 0
        acc = 0.0  # running ⊕ of the entry at vals[-1]
        check_up()
        for cell in merged:
            key = cell.key
            if columns is not None and not _column_match(key, columns):
                continue  # leaf-level skip: not counted as read
            entries += 1
            cid = (key.row, key.family, key.qualifier, key.visibility)
            if key.delete:
                del_cid = cid
                del_ts = key.timestamp
                continue
            if cid == del_cid and key.timestamp <= del_ts:
                continue
            if cid == last_cid:
                seen += 1
                if seen > mv:
                    continue
                if reduce_fn is not None:
                    acc = reduce_fn(acc, decode_number(cell.value))
                    continue
            else:
                last_cid = cid
                seen = 1
            if reduce_fn is not None:
                if n:  # the previous entry has seen its last version
                    vals[-1] = encode_number(acc)
                acc = decode_number(cell.value)
            if n == batch_cells:
                sink.entries_read += entries
                entries = 0
                yield ColumnBatch(rows, fams, quals, viss,
                                  array("q", ts), [False] * n, vals)
                check_up()
                rows, fams, quals, viss, ts, vals = [], [], [], [], [], []
                n = 0
            rows.append(key.row)
            fams.append(key.family)
            quals.append(key.qualifier)
            viss.append(key.visibility)
            ts.append(key.timestamp)
            vals.append(cell.value)
            n += 1
            if stored is not None:
                stored.append(cell)
        sink.entries_read += entries
        if n:
            if reduce_fn is not None:
                vals[-1] = encode_number(acc)
            yield ColumnBatch(rows, fams, quals, viss, array("q", ts),
                              [False] * n, vals)

    # -- maintenance ------------------------------------------------------------

    def compact(self, table_iterators: Sequence[IteratorFactory] = ()) -> None:
        """Major compaction: rewrite all data through the table stack
        (versioning + combiners become durable; single run remains)."""
        self._check_up()
        if not _trace.ENABLED:
            self._compact(table_iterators)
            return
        with _trace.span("tablet.compact", stats=self._stats,
                         table=self.table,
                         runs=len(self.sstables)) as sp:
            self._compact(table_iterators)
            sp.set(entries_out=self.entry_estimate())

    def _compact(self, table_iterators: Sequence[IteratorFactory]) -> None:
        reduce_fn = _fused_reduce(table_iterators)
        if len(table_iterators) == (reduce_fn is not None):
            # a plain table, or one whose only layer is a built-in
            # combiner: the same fused drain a scan takes, run with
            # both sinks; the new run (sorted by construction) keeps
            # every stored cell whose value the fold left as it was
            stored: List[Cell] = []
            values = [value for batch in self._drain_columns_fused(
                self._sliced_runs((self.extent,)), None, reduce_fn,
                sys.maxsize, self._sink, stored=stored)
                for value in batch.values]
            cells = [cell if cell.value == value else Cell(cell.key, value)
                     for cell, value in zip(stored, values)]
            self.sstables = [SSTable(cells, _presorted=True)] if cells else []
        else:
            cells = drain(self._stack((self.extent,), table_iterators, (),
                                      None), self.extent)
            self.sstables = [SSTable(cells)] if cells else []
        self.memtable.clear()
        self.wal.clear()
        self._sink.compactions += 1
        self._update_gauges(memtable_bytes=0)

    def split(self, split_row: str) -> Tuple["Tablet", "Tablet"]:
        """Split into two tablets at ``split_row`` (goes to the right
        child, matching Accumulo's exclusive-end split semantics)."""
        if not self.extent.contains_row(split_row):
            raise ValueError(f"split row {split_row!r} outside extent")
        self.flush()
        left = Tablet(Range(self.extent.start_row, split_row),
                      self.max_versions, self.flush_bytes, self.stats)
        right = Tablet(Range(split_row, self.extent.stop_row),
                       self.max_versions, self.flush_bytes, self.stats)
        left._clock = right._clock = self._clock
        for run in self.sstables:
            # one bisect + two slices per run (runs are sorted by key)
            lrun, rrun = run.split_at(split_row)
            if len(lrun):
                left.sstables.append(lrun)
            if len(rrun):
                right.sstables.append(rrun)
        return left, right

    def entry_estimate(self) -> int:
        """Stored-entry count across memtable and runs (pre-versioning)."""
        return len(self.memtable) + sum(len(t) for t in self.sstables)


class _CrashGuardIterator(SortedKVIterator):
    """Fail a scan stack the moment its hosting server is crashed.

    Every iterator call re-checks the server's ``crashed`` flag, so a
    crash *during* an open scan raises :class:`ServerCrashedError` on
    the next access — the signal a remote client resumes from — rather
    than continuing to stream a dead server's tablets.
    """

    __slots__ = ("_source", "_server")

    def __init__(self, source: SortedKVIterator, server):
        self._source = source
        self._server = server

    def _check(self) -> None:
        if self._server.crashed:
            raise ServerCrashedError(
                f"tablet server {self._server.name} crashed mid-scan")

    def seek(self, rng: Range, columns: Columns = None) -> None:
        self._check()
        self._source.seek(rng, columns)

    def has_top(self) -> bool:
        self._check()
        return self._source.has_top()

    def top(self) -> Cell:
        self._check()
        return self._source.top()

    def advance(self) -> None:
        self._check()
        self._source.advance()


class _SlicedLeaf(ListIterator):
    """Storage leaf of the per-cell stack: the tablet's runs, already
    sliced to the scan's range set and merged into one sorted list.

    ``_sliced_runs`` counted the seeks — one per opened run — when it
    built the list, so a seek here only positions (and can only narrow
    what construction selected).  ``entries_read`` counts a cell as it
    is consumed, after the column skip — the fused drain's definition."""

    seek = ListIterator._position
