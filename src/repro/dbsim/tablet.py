"""Tablets: the unit of storage and of server-side iteration.

A tablet owns a row-range *extent*, a memtable, and a stack of immutable
sorted runs.  A scan runs the canonical Accumulo stack:

    memtable + sstables, each sliced to the scan's row ranges and
    merged → tombstones → versioning → table-configured layers
    (combiners/filters) → scan-time layers

as one join: the fused drain (:meth:`Tablet._drain_columns_fused`:
everything up to versioning, plus the fold of a leading built-in
combiner) with the remaining layers' batch stages (see
:class:`~repro.dbsim.iterators.Layer`) chained onto it.  No per-cell
object is built.  A scan that reads one clean run (no tombstone, one
version per cell; see :attr:`SSTable.clean`) with nothing to filter or
fold has nothing for that drain to do, and reads the run's columns by
one transpose instead (:meth:`Tablet._drain_clean`).

Minor compactions (flush) move the memtable into a new run when it
exceeds ``flush_bytes``; full compactions merge all runs through the
table's layers, making combiner results durable.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from itertools import chain as _chain
from operator import neg
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.dbsim.iterators import Columns, Layer, _in_columns
from repro.dbsim.errors import ServerCrashedError
from repro.dbsim.key import (
    Cell,
    Key,
    Range,
    RangeSet,
    SortKey,
    clip_ranges,
    covering,
    decode_number,
    encode_numbers,
    field_columns,
    sort_keys,
    sort_run,
)
from repro.dbsim.memtable import CellBuffer, MemTable
from repro.dbsim.sstable import SSTable
from repro.dbsim.stats import COST, OpStats, cost_counters, counted
from repro.obs import trace as _trace

#: One sorted run as storage holds it: sort-key tuples, aligned values.
KVRun = Tuple[List[SortKey], List[str]]

#: what a tablet counts: the cost model's counters (:data:`COST`, also
#: counted into the hosting server's), then those only the registry keeps
EVENTS = (*COST, "bloom_hits", "bloom_misses", "index_seeks",
          "batched_mutations", "scans_fused")
#: the per-table gauges, summed over the table's tablets
GAUGES = ("memtable_bytes", "memtable_entries", "sstables")


def run_now(op: Callable, *args) -> Callable[[], object]:
    """``op(*args)`` run now and answered later, as a remote request
    is: the returned call returns what it returned, or raises what it
    raised — never the submission itself."""
    try:
        answer = op(*args)
    except Exception as exc:  # noqa: BLE001 - the answer raises it
        error = exc

        def fail():
            raise error
        return fail
    return lambda: answer


def _probes(ranges: Sequence[Range]) -> list:
    """The bisect probes :func:`_slice_rows` takes for a range set."""
    return [((r.effective_start(),), (r.effective_stop(),)) for r in ranges]


def _slice_rows(keys: List[SortKey], values: List[str], probes) -> KVRun:
    """The part of one sorted run inside a range set, concatenated.

    ``probes`` holds one ``((start,), (stop,))`` pair per range and
    bisects ``keys``; a 1-tuple sorts before every longer key with the
    same row, so each bisect lands on a row boundary.  The set is
    sorted and disjoint, so the bisects only move forward (each range
    starts searching where the previous one ended) and a one-range set
    costs exactly two.  Slices are copies: nothing written to the run
    afterwards can show up in them."""
    if len(probes) == 1:
        start, stop = probes[0]
        lo = bisect_left(keys, start)
        hi = bisect_left(keys, stop, lo)
        return keys[lo:hi], values[lo:hi]
    out_keys: List[SortKey] = []
    out_values: List[str] = []
    hi = 0
    for start, stop in probes:
        lo = bisect_left(keys, start, hi)
        hi = bisect_left(keys, stop, lo)
        out_keys += keys[lo:hi]
        out_values += values[lo:hi]
    return out_keys, out_values


def _merge_runs(runs: List[KVRun]) -> KVRun:
    """Sliced runs → one sorted run.  Timsort gallops over the
    presorted runs and, being stable, keeps concatenation order
    (memtable first, then sstables) on ties — memtable-over-sstable
    precedence."""
    if len(runs) == 1:
        return runs[0]
    return sort_run(list(_chain.from_iterable(keys for keys, _ in runs)),
                    list(_chain.from_iterable(vals for _, vals in runs)))


def _fused_reduce(layers: Sequence[Layer]):
    """The ⊕ the storage pass folds by itself: the first layer's, when
    that layer is a built-in combiner (recognised by the ``reduce_fn``
    it carries); else ``None``."""
    return layers[0].reduce_fn if layers else None


class Tablet:
    """One tablet of one table: extent + memtable + sorted runs."""

    def __init__(self, extent: Range, max_versions: int = 1,
                 flush_bytes: int = 1 << 20):
        self.extent = extent
        self.max_versions = max_versions
        self.flush_bytes = flush_bytes
        self._registry = None     # metrics registry (bound by the Instance)
        #: hosting TabletServer (set by host/unhost); data ops consult
        #: its ``crashed`` flag so a downed server fails typed instead
        #: of silently serving reads
        self.server = None
        self.table: Optional[str] = None
        self._own = cost_counters()  # what an unhosted tablet counts into
        self._resolve()
        self.memtable = MemTable()
        self.sstables: List[SSTable] = []
        self._clock = 0  # per-tablet logical timestamps: last write wins
        #: write-ahead log: durable record of unflushed mutations, in
        #: arrival order.  Invariant: the memtable's cells are a subset
        #: of the log's until a flush or compaction clears both.
        self.wal = CellBuffer()

    # -- stats / metrics binding --------------------------------------------

    @property
    def stats(self) -> OpStats:
        """The cost-model counts this tablet counts into, as a value:
        its hosting server's, or an unhosted tablet's own."""
        return counted(self._cost)

    def bind_metrics(self, registry, table: str) -> None:
        """Attach a metrics registry: from here on this tablet's work is
        also counted under ``dbsim.table.<table>.*``, and into the
        :attr:`server` hosting it (set before this is called)."""
        self._registry = registry
        self.table = table
        self._gauge_prev = dict.fromkeys(GAUGES, 0)
        self._resolve()
        self._update_gauges()

    def unbind_metrics(self) -> None:
        """Detach from the registry, withdrawing this tablet's gauge
        contributions (used when a tablet is retired by split/delete or
        released by its server, whose :attr:`server` is unset first)."""
        if self._registry is not None:
            for name, prev in self._gauge_prev.items():
                if prev:
                    self._gauges[name].add(-prev)
            self._registry = None
        self._resolve()

    def _resolve(self) -> None:
        """Look up, once per hosting or binding, what each event counts
        into: a cost-model event into the hosting server's counter (an
        unhosted tablet's own) and, while bound, every event and gauge
        into its table's registry instrument — registered here, so an
        export taken before any activity shows the table's schema."""
        self._cost = self._own if self.server is None \
            else self.server.counters
        targets = {name: [] for name in EVENTS}
        for name, counter in zip(COST, self._cost):
            targets[name].append(counter)
        self._gauges = {}
        if self._registry is not None:
            prefix = f"dbsim.table.{self.table}"
            for name in EVENTS:
                targets[name].append(
                    self._registry.counter(f"{prefix}.{name}"))
            self._gauges = {name: self._registry.gauge(f"{prefix}.{name}")
                            for name in GAUGES}
        self._counts = {name: tuple(each) for name, each in targets.items()}

    def _tick(self, event: str, amount: int = 1) -> None:
        """Count ``amount`` of ``event`` (an :data:`EVENTS` name) into
        each of its resolved counters: one locked increment each."""
        for counter in self._counts[event]:
            counter.inc(amount)

    def _update_gauges(self, memtable_bytes: Optional[int] = None) -> None:
        # table-level gauges are the sum over the table's tablets, so
        # each tablet adds the *change* in its own contribution
        if self._registry is None:
            return
        if memtable_bytes is None:
            memtable_bytes = self.memtable.approximate_bytes
        now = {"memtable_bytes": memtable_bytes,
               "memtable_entries": len(self.memtable),
               "sstables": len(self.sstables)}
        for name, value in now.items():
            delta = value - self._gauge_prev[name]
            if delta:
                self._gauges[name].add(delta)
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

    def write_columns(self, rows: Sequence[str], families: Sequence[str],
                      qualifiers: Sequence[str],
                      visibilities: Sequence[str],
                      timestamps: Sequence[int], deletes: Sequence[bool],
                      values: Sequence[str]) -> int:
        """Apply one batch of mutations, given as seven aligned
        columns — the shape it has on the wire — and return how many
        were applied.  The one write path: every other write method is
        an adapter over this.

        A row outside the extent rejects the whole batch (``ValueError``)
        before anything is applied.  A timestamp of 0 is replaced by a
        fresh tick of the tablet's logical clock, in batch order, and an
        explicit one moves the clock up to it (a Lamport clock): a later
        stamped write version-sorts before every cell the tablet holds,
        and a batch stamps exactly as its cells written one at a time
        would.  The WAL append precedes
        the memtable's — the durability contract crash recovery
        replays.  Counters, gauges and the auto-flush check run once
        per batch, not per cell."""
        self._check_up()
        n = len(rows)
        if not n:
            return 0
        extent = self.extent
        for row in (min(rows), max(rows)):
            if not extent.contains_row(row):
                raise ValueError(
                    f"row {row!r} outside tablet extent "
                    f"[{extent.start_row!r}, {extent.stop_row!r})")
        clock = self._clock
        if not any(timestamps):
            timestamps = range(clock + 1, clock + n + 1)
            clock += n
        elif all(timestamps):
            clock = max(clock, max(timestamps))
        else:
            stamped = []
            for ts in timestamps:
                if not ts:
                    clock += 1
                    ts = clock
                elif ts > clock:
                    clock = ts
                stamped.append(ts)
            timestamps = stamped
        keys = sort_keys(rows, families, qualifiers, visibilities,
                         timestamps, deletes)
        # a column's characters, counted by one join instead of n len()s
        nbytes = 24 * n + sum(len("".join(column)) for column in (
            rows, families, qualifiers, values))
        self._clock = clock
        self.wal.extend(keys, values)
        self.memtable.extend(keys, values, nbytes)
        self._tick("entries_written", n)
        self._tick("batched_mutations", n)
        size = self.memtable.approximate_bytes
        self._update_gauges(memtable_bytes=size)
        if size >= self.flush_bytes:
            self.flush()
        return n

    def write_raw_batch(self, mutations: Iterable[tuple]) -> int:
        """:meth:`write_columns` over row-major ``(row, family,
        qualifier, visibility, timestamp, delete, value)`` tuples —
        what a BatchWriter buffers."""
        return self.write_columns(*field_columns(mutations, 7))

    def write_batch(self, cells: Iterable[Cell]) -> int:
        """:meth:`write_columns` over :class:`Cell` objects."""
        return self.write_raw_batch(
            (c.key.row, c.key.family, c.key.qualifier, c.key.visibility,
             c.key.timestamp, c.key.delete, c.value) for c in cells)

    def write(self, key: Key, value: str) -> None:
        """Insert one cell: a batch of one."""
        self.write_columns((key.row,), (key.family,), (key.qualifier,),
                           (key.visibility,), (key.timestamp,),
                           (key.delete,), (value,))

    def delete(self, key: Key) -> None:
        """Write a tombstone hiding all versions of the cell at or
        before this mutation."""
        self.write(Key(key.row, key.family, key.qualifier, key.visibility,
                       key.timestamp, True), "")

    def flush(self) -> None:
        """Minor compaction: memtable → new immutable run; the WAL
        entries it covered are no longer needed."""
        self._check_up()
        if len(self.wal) == 0:
            return
        with _trace.span("tablet.flush", stats=lambda: self.stats,
                         table=self.table, entries=len(self.wal)):
            self._replay_if_behind()
            self.sstables.append(
                SSTable.from_run(*self.memtable.sorted_run()))
            self.memtable.clear()
            self.wal.clear()
            self._tick("flushes")
            self._update_gauges(memtable_bytes=0)

    # -- failure simulation ----------------------------------------------------

    def crash(self) -> None:
        """Lose in-memory state (memtable); sorted runs and the WAL are
        durable and survive."""
        self.memtable.clear()
        self._update_gauges(memtable_bytes=0)

    def recover(self) -> None:
        """Log recovery: rebuild the memtable from the WAL.  Rebuilt,
        not appended to — so recovering twice (a retried ``RECOVER``),
        or after writes that followed a restart without recovery,
        holds every logged cell exactly once."""
        self.memtable.clear()
        self.memtable.extend(self.wal.keys, self.wal.values)
        self._update_gauges()

    def _replay_if_behind(self) -> None:
        """Before the WAL is cleared: if a restart skipped log recovery
        the memtable holds less than the log, and what becomes a run
        must hold every logged cell — or the rest is lost for good."""
        if len(self.wal) > len(self.memtable):
            self.recover()

    # -- reads ---------------------------------------------------------------

    def scan(self, rng: Range = Range(), columns: Columns = None,
             table_iterators: Sequence[Layer] = (),
             scan_iterators: Sequence[Layer] = ()) -> List[Cell]:
        """Convenience: :meth:`scan_columns` as a list of cells."""
        return [cell for batch in self.scan_columns(
            rng, columns, table_iterators, scan_iterators)
            for cell in batch.cells()]

    def scan_columns(self, rng: RangeSet = Range(), columns: Columns = None,
                     table_iterators: Sequence[Layer] = (),
                     scan_iterators: Sequence[Layer] = (),
                     batch_cells: int = 2048):
        """Bulk columnar read of one range or a sorted, disjoint range
        set: :class:`~repro.net.cells.ColumnBatch`\\ es in key order.

        One join: the fused storage pass (column skip → tombstones →
        versioning → the fold of a leading built-in combiner, see
        :func:`_fused_reduce`) with the remaining layers' stages
        chained onto it; no per-cell object is built.  When the scan
        reads one sliced run of an sstable, is not a point lookup, and
        has no column filter and no leading combiner,
        :meth:`_drain_clean` takes that pass's place: if the sstable is
        clean, the pass would copy the run through unchanged.

        The runs are **sliced eagerly**, before this returns (so a
        caller sees the data as of the call), then a generator yields
        the batches — of up to ``batch_cells`` entries, fewer where a
        stage dropped or folded some.  The crash flag is re-checked
        once per storage batch: a crash mid-scan surfaces as
        :class:`ServerCrashedError` by the next one.

        The scan counts as it goes (:meth:`_tick`): the runs it slices
        now, the entries it reads as each batch is drained — so scans
        drained at once, on any threads, count exactly.
        """
        self._check_up()
        ranges = clip_ranges(rng, self.extent)
        if not ranges:
            return iter(())
        self._tick("scans_fused")
        layers = (*table_iterators, *scan_iterators)
        reduce_fn = _fused_reduce(layers)
        sources: List[Optional[SSTable]] = []
        runs = self._sliced_runs(ranges, sources)
        # a one-row slice is too small for the transpose to repay the
        # clean check, which reads the whole run
        if (columns is None and reduce_fn is None and len(runs) == 1
                and sources[0] is not None
                and (len(ranges) > 1 or ranges[0].single_row() is None)):
            out = self._drain_clean(sources[0], runs[0], batch_cells)
        else:
            out = self._drain_columns_fused(runs, columns, reduce_fn,
                                            batch_cells)
        for layer in layers[reduce_fn is not None:]:
            out = layer.stage(out)
        return out

    def _staged(self, runs: List[KVRun], columns: Columns,
                layers: Sequence[Layer], batch_cells: int):
        """The fused drain of ``runs`` with every layer it does not fold
        itself chained on as a stage: a scan's, and a compaction's
        through layers other than a lone built-in combiner."""
        reduce_fn = _fused_reduce(layers)
        out = self._drain_columns_fused(runs, columns, reduce_fn,
                                        batch_cells)
        for layer in layers[reduce_fn is not None:]:
            out = layer.stage(out)
        return out

    def _sliced_runs(self, ranges: Sequence[Range],
                     sources: Optional[list] = None) -> List[KVRun]:
        """Slice every storage run down to a (clipped, non-empty)
        range set — the one place a scan's rows are selected.

        Accounting is per opened run, however many ranges the set
        holds: one ``seeks`` bump per run that overlaps the set's
        span (the memtable always counts), one index-seek tick per
        such sstable, and — when the set is a single exact row — the
        bloom-filter consult (``bloom_hits`` / ``bloom_misses``) that
        can skip the run outright.  Run order is memtable first, then
        sstables in list order, so merge ties resolve with
        memtable-over-sstable precedence.  ``sources``, when given,
        receives run for run the :class:`SSTable` each was sliced from
        (``None`` for the memtable).
        """
        if sources is None:
            sources = []
        span = covering(ranges)
        probes = _probes(ranges)
        runs: List[KVRun] = []
        sliced = _slice_rows(*self.memtable.sorted_run(), probes)
        if sliced[0]:
            runs.append(sliced)
            sources.append(None)
        point_row = span.single_row() if len(ranges) == 1 else None
        opened = hits = 0
        for run in self.sstables:
            if not run.overlaps(span):
                continue
            # point lookup: a "hit" is a run proven absent and skipped;
            # a "miss" means the run must be read
            if point_row is not None and not run.may_contain_row(point_row):
                hits += 1
                continue
            opened += 1
            sliced = _slice_rows(run.keys, run.values, probes)
            if sliced[0]:
                runs.append(sliced)
                sources.append(run)
        self._tick("seeks", 1 + opened)
        self._tick("index_seeks", opened)
        if point_row is not None:
            self._tick("bloom_hits", hits)
            self._tick("bloom_misses", opened)
        return runs

    def _drain_clean(self, source: SSTable, run: KVRun, batch_cells: int):
        """:meth:`_drain_columns_fused` over ``run``, sliced from
        ``source``, with no column filter and no ⊕ to fold.  When
        ``source`` is clean every entry survives, so the batches are the
        run's own columns, each taken by one
        :func:`~repro.dbsim.key.field_columns` transpose — the same
        batch boundaries, the same ``entries_read`` and the same crash
        checks, without the per-cell loop.  The clean fact is asked for
        on the first pull, so a server learns it outside its lock."""
        if not source.clean:
            yield from self._drain_columns_fused([run], None, None,
                                                 batch_cells)
            return
        from repro.net.cells import ColumnBatch  # lazy: dbsim ← net cycle

        keys, values = run
        for lo in range(0, len(keys), batch_cells):
            self._check_up()
            hi = lo + batch_cells
            rows, fams, quals, viss, neg_ts = field_columns(keys[lo:hi], 5)
            n = len(rows)
            self._tick("entries_read", n)
            yield ColumnBatch(rows, fams, quals, viss,
                              array("q", list(map(neg, neg_ts))),
                              [False] * n,
                              values[lo:hi])

    def _drain_columns_fused(self, runs: List[KVRun],
                             columns: Columns, reduce_fn,
                             batch_cells: int,
                             stored: Optional[List[SortKey]] = None):
        """One fused pass over pre-sliced sorted runs: column filter →
        tombstone suppression → versioning → combiner fold →
        column-list append, with no iterator stack, no per-cell object
        and no per-cell wrapper calls — the storage leaf of every scan
        and compaction.  With ``reduce_fn`` the versions of a cell that
        survive versioning fold into one entry under the newest key,
        exactly as :func:`~repro.dbsim.iterators.combiner_stage` above
        them would; the folded numbers are encoded once per batch
        (:func:`~repro.dbsim.key.encode_numbers`).

        ``stored``, a compaction's, receives, entry for entry, the
        stored key tuple each output entry came from, so the new run can
        reuse those objects."""
        from repro.net.cells import ColumnBatch  # lazy: dbsim ← net cycle

        keys, values = _merge_runs(runs)
        mv = self.max_versions
        check_up = self._check_up
        rows: List[str] = []
        fams: List[str] = []
        quals: List[str] = []
        viss: List[str] = []
        ts: List[int] = []
        vals: list = []  # with reduce_fn, each closed entry's folded number
        n = 0
        entries = 0
        del_cid = None  # logical cell of the last tombstone seen
        del_neg_ts = 0
        last_row = last_fam = last_qual = last_vis = None
        seen = 0
        acc = 0.0  # running ⊕ of the entry at vals[-1]
        check_up()
        for key, value in zip(keys, values):
            row, fam, qual, vis, neg_ts, put = key
            if columns is not None and not _in_columns(fam, qual, columns):
                continue  # leaf-level skip: not counted as read
            entries += 1
            if not put:
                del_cid = (row, fam, qual, vis)
                del_neg_ts = neg_ts
                continue
            # newer sorts first, so "at or before" is -timestamp >=
            if (del_cid is not None and neg_ts >= del_neg_ts
                    and (row, fam, qual, vis) == del_cid):
                continue
            # qualifier first: within a row it is what usually differs
            if (qual == last_qual and row == last_row and fam == last_fam
                    and vis == last_vis):
                seen += 1
                if seen > mv:
                    continue
                if reduce_fn is not None:
                    acc = reduce_fn(acc, decode_number(value))
                    continue
            else:
                last_row, last_fam, last_qual, last_vis = row, fam, qual, vis
                seen = 1
            if reduce_fn is not None:
                if n:  # the previous entry has seen its last version
                    vals[-1] = acc
                acc = decode_number(value)
            if n == batch_cells:
                self._tick("entries_read", entries)
                entries = 0
                yield ColumnBatch(rows, fams, quals, viss,
                                  array("q", ts), [False] * n,
                                  vals if reduce_fn is None
                                  else encode_numbers(vals))
                check_up()
                rows, fams, quals, viss, ts, vals = [], [], [], [], [], []
                n = 0
            rows.append(row)
            fams.append(fam)
            quals.append(qual)
            viss.append(vis)
            ts.append(-neg_ts)
            vals.append(value)
            n += 1
            if stored is not None:
                stored.append(key)
        self._tick("entries_read", entries)
        if n:
            if reduce_fn is not None:
                vals[-1] = acc
                vals = encode_numbers(vals)
            yield ColumnBatch(rows, fams, quals, viss, array("q", ts),
                              [False] * n, vals)

    # -- maintenance ------------------------------------------------------------

    def compact(self, table_iterators: Sequence[Layer] = ()) -> None:
        """Major compaction: rewrite all data through the table stack
        (versioning + combiners become durable; single run remains)."""
        self._check_up()
        with _trace.span("tablet.compact", stats=lambda: self.stats,
                         table=self.table,
                         runs=len(self.sstables)) as sp:
            self._replay_if_behind()
            reduce_fn = _fused_reduce(table_iterators)
            if len(table_iterators) == (reduce_fn is not None):
                # a plain table, or one whose only layer is a built-in
                # combiner: the same fused drain a scan takes, keeping
                # the stored keys; the new run (sorted by construction)
                # is the stored key tuples that survived, beside the
                # folded values
                stored: List[SortKey] = []
                values = [value for batch in self._drain_columns_fused(
                    self._sliced_runs((self.extent,)), None, reduce_fn,
                    sys.maxsize, stored=stored)
                    for value in batch.values]
                run = SSTable.from_run(stored, values)
            else:
                # any other layers: the scan's join, its output
                # checked sorted (a user layer may reorder) as it
                # becomes the run
                run = SSTable([cell for batch in self._staged(
                    self._sliced_runs((self.extent,)), None,
                    table_iterators, sys.maxsize) for cell in batch.cells()])
            self.sstables = [run] if len(run) else []
            self.memtable.clear()
            self.wal.clear()
            self._tick("compactions")
            self._update_gauges(memtable_bytes=0)
            sp.set(entries_out=len(run))

    def split(self, split_row: str) -> Tuple["Tablet", "Tablet"]:
        """Split into two tablets at ``split_row`` (goes to the right
        child, matching Accumulo's exclusive-end split semantics)."""
        if not self.extent.contains_row(split_row):
            raise ValueError(f"split row {split_row!r} outside extent")
        self.flush()
        left = Tablet(Range(self.extent.start_row, split_row),
                      self.max_versions, self.flush_bytes)
        right = Tablet(Range(split_row, self.extent.stop_row),
                       self.max_versions, self.flush_bytes)
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

