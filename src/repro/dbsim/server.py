"""Tablet servers and the Instance (the simulation's master + ZooKeeper).

An :class:`Instance` owns table configurations (iterator stacks, split
points, versioning policy) and assigns tablets round-robin across a
fleet of :class:`TabletServer`\\ s.  Splitting a table redistributes the
new tablets, so scans and Graphulo ops exercise the same
locate-tablet → per-server scan flow a real client library performs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dbsim.key import Range, RangeSet, clip_ranges, covering
from repro.dbsim.stats import OpStats
from repro.dbsim.tablet import IteratorFactory, Tablet
from repro.obs.metrics import MetricsRegistry, global_registry


@dataclass
class TableConfig:
    """Per-table configuration: versioning, iterator stack, flush policy."""

    max_versions: int = 1
    table_iterators: Tuple[IteratorFactory, ...] = ()
    flush_bytes: int = 1 << 20


class TabletServer:
    """Hosts tablets; all per-tablet I/O lands in this server's stats."""

    def __init__(self, name: str):
        self.name = name
        self.stats = OpStats()
        #: True between :meth:`crash` and :meth:`recover`.  While set,
        #: every data op on a hosted tablet (write, scan, flush,
        #: compact) raises :class:`ServerCrashedError` — the typed
        #: signal a remote client's retry loop keys off.
        self.crashed = False
        #: (table, tablet) pairs hosted here
        self.tablets: List[Tuple[str, Tablet]] = []

    def host(self, table: str, tablet: Tablet) -> None:
        tablet.stats = self.stats
        tablet.server = self
        self.tablets.append((table, tablet))

    def unhost(self, table: str, tablet: Tablet) -> None:
        self.tablets.remove((table, tablet))
        tablet.server = None

    def crash(self) -> None:
        """Simulated process failure: every hosted tablet loses its
        memtable; sorted runs and WALs are durable.  The server stays
        down (data ops raise :class:`ServerCrashedError`, including
        scans already open) until :meth:`recover`."""
        self.crashed = True
        for _, tablet in self.tablets:
            tablet.crash()

    def recover(self, replay_wal: bool = True) -> None:
        """Bring the server back up, replaying each hosted tablet's WAL
        (Accumulo's log recovery).  ``replay_wal=False`` restarts
        without recovery — modelling a server whose write-ahead logs
        are not (yet) replayed; the WALs themselves stay durable, so a
        later ``recover()`` can still replay them."""
        if replay_wal:
            for _, tablet in self.tablets:
                tablet.recover()
        self.crashed = False

    def __repr__(self) -> str:
        return f"TabletServer({self.name}, tablets={len(self.tablets)})"


class Instance:
    """The database: tables, their tablets, and the server fleet."""

    def __init__(self, n_servers: int = 3,
                 metrics: Optional[MetricsRegistry] = None):
        if n_servers < 1:
            raise ValueError(f"need at least one tablet server, got {n_servers}")
        self.servers = [TabletServer(f"tserver{i}") for i in range(n_servers)]
        #: per-table work breakdown (``dbsim.table.<name>.*``); defaults
        #: to the process-global registry so ad-hoc instances aggregate
        self.metrics = metrics if metrics is not None else global_registry()
        self._tables: Dict[str, TableConfig] = {}
        #: per table: tablets sorted by extent start (None first)
        self._tablets: Dict[str, List[Tablet]] = {}
        #: per table: cached extent-start keys ("" for the unbounded
        #: first tablet), parallel to ``_tablets[name]`` — the bisect
        #: index ``locate`` uses; invalidated on split/create/delete
        self._locate_index: Dict[str, List[str]] = {}
        self._rr = 0  # round-robin assignment cursor

    # -- table lifecycle -----------------------------------------------------

    def table_exists(self, name: str) -> bool:
        return name in self._tables

    def list_tables(self) -> List[str]:
        return sorted(self._tables)

    def create_table(self, name: str, config: Optional[TableConfig] = None,
                     splits: Sequence[str] = ()) -> None:
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        config = config or TableConfig()
        self._tables[name] = config
        tablet = Tablet(Range(), config.max_versions, config.flush_bytes)
        self._tablets[name] = [tablet]
        self._locate_index.pop(name, None)
        self._assign(name, tablet)
        for split in splits:
            self.add_split(name, split)

    def delete_table(self, name: str) -> None:
        self._require(name)
        for tablet in self._tablets[name]:
            tablet.unbind_metrics()
            for server in self.servers:
                if (name, tablet) in server.tablets:
                    server.unhost(name, tablet)
                    self.metrics.gauge(
                        f"dbsim.server.{server.name}.tablets").set(
                            len(server.tablets))
        del self._tablets[name]
        del self._tables[name]
        self._locate_index.pop(name, None)

    def config(self, name: str) -> TableConfig:
        self._require(name)
        return self._tables[name]

    def _require(self, name: str) -> None:
        if name not in self._tables:
            raise KeyError(f"no such table: {name!r}")

    def _assign(self, table: str, tablet: Tablet) -> None:
        server = self.servers[self._rr % len(self.servers)]
        self._rr += 1
        server.host(table, tablet)
        tablet.bind_metrics(self.metrics, table)
        self.metrics.gauge(f"dbsim.server.{server.name}.tablets").set(
            len(server.tablets))

    # -- tablet management ------------------------------------------------------

    def tablets(self, name: str) -> List[Tablet]:
        self._require(name)
        return list(self._tablets[name])

    def add_split(self, name: str, split_row: str) -> None:
        """Split the tablet containing ``split_row`` (no-op if it is
        already a split point)."""
        self._require(name)
        tablet = self.locate(name, split_row)
        if tablet.extent.start_row == split_row:
            return
        left, right = tablet.split(split_row)
        tablet.unbind_metrics()
        tablets = self._tablets[name]
        idx = tablets.index(tablet)
        tablets[idx:idx + 1] = [left, right]
        self._locate_index.pop(name, None)  # split moved the boundaries
        for server in self.servers:
            if (name, tablet) in server.tablets:
                server.unhost(name, tablet)
        self._assign(name, left)
        self._assign(name, right)

    def splits(self, name: str) -> List[str]:
        self._require(name)
        return [t.extent.start_row for t in self._tablets[name]
                if t.extent.start_row is not None]

    def _starts(self, name: str) -> List[str]:
        """The cached bisect index: one sorted start key per tablet
        (rebuilt lazily after a split invalidates it)."""
        starts = self._locate_index.get(name)
        if starts is None:
            starts = [t.extent.start_row or "" for t in self._tablets[name]]
            self._locate_index[name] = starts
            self.metrics.counter("dbsim.locate.index_builds").inc()
        return starts

    def locate_index(self, name: str) -> Tuple[List[str], List[Tablet]]:
        """The table's location index: parallel (start keys, tablets)
        lists for client-side bisect routing (what a real client's
        tablet-location cache holds).  The start-key list is replaced —
        never mutated — when a split invalidates it, so callers may use
        its identity as a staleness token."""
        self._require(name)
        return self._starts(name), self._tablets[name]

    def locate(self, name: str, row: str) -> Tablet:
        """Find the tablet whose extent contains ``row`` — a bisect
        over the table's sorted split points, not a tablet walk."""
        self._require(name)
        self.metrics.counter("dbsim.locate.requests").inc()
        starts = self._starts(name)
        idx = bisect.bisect_right(starts, row) - 1
        tablet = self._tablets[name][max(idx, 0)]
        if not tablet.extent.contains_row(row):  # pragma: no cover
            raise AssertionError(f"no tablet covers row {row!r}")
        return tablet

    def tablets_for_range(self, name: str, rng: Range) -> List[Tablet]:
        self._require(name)
        tablets = self._tablets[name]
        starts = self._starts(name)
        # first candidate: the tablet containing rng's start row
        lo = 0 if rng.start_row is None else \
            max(bisect.bisect_right(starts, rng.start_row) - 1, 0)
        out: List[Tablet] = []
        for tablet in tablets[lo:]:
            if (rng.stop_row is not None
                    and tablet.extent.start_row is not None
                    and tablet.extent.start_row >= rng.stop_row):
                break  # tablets are in extent order; the rest are past rng
            if tablet.extent.clip(rng) is not None:
                out.append(tablet)
        return out

    def _tablet_batches(self, name: str, rng: RangeSet, columns,
                        scan_iterators: Sequence):
        """``(tablet, batch)`` for each ColumnBatch of a scan of ``rng``
        — a range, or a sorted, disjoint range set — across the table's
        tablets, in global key order: each overlapping tablet's
        ``scan_columns`` under the table's configured layers, chained."""
        ranges = clip_ranges(rng, Range())  # a lone Range → a set of one
        if not ranges:
            return
        table_iterators = self.config(name).table_iterators
        for tablet in self.tablets_for_range(name, covering(ranges)):
            for batch in tablet.scan_columns(ranges, columns,
                                             table_iterators, scan_iterators):
                yield tablet, batch

    def scan_columns(self, name: str, rng: RangeSet = Range(),
                     columns=None, scan_iterators: Sequence = ()):
        """Bulk columnar scan: see :meth:`_tablet_batches`."""
        return (batch for _, batch in self._tablet_batches(
            name, rng, columns, scan_iterators))

    def scan_cells(self, name: str, rng: RangeSet = Range(),
                   columns=None, scan_iterators: Sequence = ()):
        """:meth:`scan_columns`, cell by cell.  The hosting server's
        crash flag is re-checked between cells: an open scan dies with
        its server instead of finishing from a buffered batch."""
        for tablet, batch in self._tablet_batches(name, rng, columns,
                                                  scan_iterators):
            for cell in batch.cells():
                tablet._check_up()
                yield cell

    # -- maintenance ----------------------------------------------------------------

    def flush_table(self, name: str) -> None:
        for tablet in self.tablets(name):
            tablet.flush()

    def compact_table(self, name: str) -> None:
        config = self.config(name)
        for tablet in self.tablets(name):
            tablet.compact(config.table_iterators)

    # -- observability ------------------------------------------------------------------

    def total_stats(self) -> OpStats:
        out = OpStats()
        for server in self.servers:
            out = out.merge(server.stats)
        return out

    def observability_export(self) -> Dict[str, object]:
        """One JSON-ready report: the per-table/per-server metrics
        registry plus the merged OpStats cost model."""
        return {
            "metrics": self.metrics.export(),
            "servers": {s.name: s.stats.as_dict() for s in self.servers},
            "total": self.total_stats().as_dict(),
        }

    def write_metrics_snapshot(self, path: str) -> Dict[str, object]:
        """Atomically write a timestamped snapshot of this instance's
        metrics (plus the per-server/total OpStats) to ``path`` — the
        file a concurrent ``repro monitor`` polls for live counter
        deltas while a workload runs.  Returns the record written."""
        from repro.obs.expose import write_snapshot

        return write_snapshot(
            self.metrics, path,
            extra={"servers": {s.name: s.stats.as_dict()
                               for s in self.servers},
                   "total": self.total_stats().as_dict()})

    def table_entry_estimate(self, name: str) -> int:
        return sum(t.entry_estimate() for t in self.tablets(name))
