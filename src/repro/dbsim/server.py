"""The database's decisions, once: TabletIndex, TabletServer, ControlPlane.

Everything a tablet server and a manager *decide* lives here, and both
backends run it — the in-process :class:`Instance` directly, the
:mod:`repro.net` cluster behind sockets (a service decodes a frame,
calls one of these methods, and encodes the answer):

* :class:`TabletIndex` — one table's tablets in extent order: the one
  bisect over tablet start keys, the one overlapping-tablets walk, a
  split's ``replace``, the one per-tablet binning of a mutation buffer;
* :class:`TabletServer` — hosts tablets by id and owns the hosting ops
  (host, split in place, release / adopt — the two halves of a
  migration — drop, flush, compact), metrics binding included, the
  data ops (``tablet_info``, ``scan_tablet``, ``write_tablet``) that
  a served ``TABLET_INFO`` / ``SCAN`` / ``WRITE_BATCH`` and a peer's
  TableMult step make of it, and TableMult's step over its own
  tablets;
* :class:`ControlPlane` — what Accumulo's master + ZooKeeper own: table
  configs, each table's index of tablet → server assignments, the
  round-robin cursor, id minting; the only implementation of create /
  delete / ``add_split`` / flush / compact / TableMult.  Its
  ``servers`` are handles with :class:`TabletServer`'s hosting ops:
  the servers themselves in process, remote handles in a cluster;
* :class:`Instance` — the plane over an in-process fleet, with
  :class:`~repro.dbsim.backend.ConnectorBackend`'s data path over the
  plane's own index: scans and writes take the same locate-tablet →
  per-server flow, through the same ``scan_tablet`` / ``write_tablet``,
  as a remote client's.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import MISSING, dataclass, fields
from contextlib import nullcontext
from itertools import chain, count
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from repro.dbsim.backend import ConnectorBackend, TabletRead
from repro.dbsim.errors import NotHostedError, ServerCrashedError
from repro.dbsim.iterators import COMBINERS, Layer, as_layers
from repro.dbsim.key import Key, Range, RangeSet, clip_ranges
from repro.dbsim.stats import OpStats, cost_counters, counted
from repro.dbsim.tablet import Tablet, run_now
from repro.dbsim.visibility import Authorizations
from repro.obs.metrics import MetricsRegistry, global_registry

#: cells per ``write_tablet`` call of a TableMult step: bounds one
#: ``WRITE_BATCH`` frame however many cells a block sums to
MULT_WRITE_CELLS = 1 << 16
#: the triangles a TableMult may keep: all of the product, or its
#: strict upper half (row key < qualifier)
TRIANGLES = (None, "upper")
#: a combining table's ``max_versions``: its combiner consumes them all
ALL_VERSIONS = 2 ** 31


def answers(calls: Iterable[Callable[[], object]]) -> list:
    """Every call's answer, in order: what a fan-out of ``submit`` calls
    returns.  Each call is made even past one that raised; the first
    error then propagates."""
    out: list = []
    error: Optional[BaseException] = None
    for call in calls:
        try:
            out.append(call())
        except Exception as exc:  # noqa: BLE001 - re-raised below
            error = error or exc
    if error is not None:
        raise error
    return out


@dataclass(frozen=True)
class MultSpec:
    """What one two-table op computes — Graphulo's TwoTable, a stack of
    iterators, the write into ``out`` — as every server's step receives
    it: over the wire, as a JSON object of these fields
    (:meth:`from_wire`), checked here on arrival.  ``table_b`` selects
    the form: a table name makes the op a TableMult, ``None`` a
    one-table op, which streams the source's cells as they are.
    ``post`` is an :class:`~repro.net.iterspec.IterSpec` in wire form
    (in process, also a list of ``Layer``\\ s: Python stages) run
    before the write.  The rest is TableMult's: a block closes once
    its predicted partial products reach ``block_products`` (≥ 1: the
    caller's :data:`repro.dbsim.graphulo.BLOCK_PARTIAL_PRODUCTS`, so
    every server cuts where the caller's library does); ``mul`` is a
    built-in binary operator's name (in process, also any Python
    callable); ``combiner`` names ``out``'s ⊕.  ``auths`` are the
    scans' authorization tokens.  ``mask`` (a table name) keeps the
    cells whose (row, qualifier) is stored in ``mask``: a TableMult's
    products before the fold, so ``out`` never receives the rest, and
    a one-table op's streamed cells.  ``triangle`` (one of
    :data:`TRIANGLES`, TableMult only) keeps the products whose row key
    is below their qualifier, also before the fold.

    ``table_a`` (a table name, TableMult only) names the table that
    stores ``A = ATᵀ`` by rows — for an undirected adjacency table,
    ``AT`` itself.  With it a step owns whole output rows
    (:func:`repro.dbsim.graphulo.multiply_owned`): each ``out`` cell is
    folded inside one step and written once, so ``post`` may follow a
    TableMult exactly when ``table_a`` is given — it runs on the folded
    rows; without it a TableMult writes partial products that only
    ``out``'s combiner completes, and a ``post`` raises ``ValueError``
    here, before the spec is sent.  A ``table_a`` that does not exist
    raises ``KeyError`` where the op is planned
    (:meth:`ControlPlane.table_mult`), before ``out`` is created."""

    table_b: Optional[str]
    out: str
    block_products: int
    mul: Union[str, Callable[[float, float], float]] = "times"
    combiner: str = "sum"
    auths: Sequence[str] = ()
    post: Optional[list] = None
    mask: Optional[str] = None
    triangle: Optional[str] = None
    table_a: Optional[str] = None

    @classmethod
    def from_wire(cls, payload) -> "MultSpec":
        """The spec a ``TABLE_MULT`` or ``MULTIPLY_TABLETS`` payload
        carries.  An unknown or missing field raises ``ValueError``
        naming it, as a bad value does, before anything runs."""
        if not isinstance(payload, dict):
            raise ValueError(f"spec must be an object, got {payload!r}")
        known = {field.name: field.default for field in fields(cls)}
        for name in payload:
            if name not in known:
                raise ValueError(f"unknown spec field {name!r}")
        for name, default in known.items():
            if default is MISSING and name not in payload:
                raise ValueError(f"spec field {name!r} is missing")
        return cls(**payload)

    def __post_init__(self):
        if not isinstance(self.block_products, int) \
                or self.block_products < 1:
            raise ValueError(f"block_products must be an int >= 1, got "
                             f"{self.block_products!r}")
        if self.combiner not in COMBINERS:
            raise ValueError(f"combiner must be one of {sorted(COMBINERS)}, "
                             f"got {self.combiner!r}")
        if self.triangle not in TRIANGLES:
            raise ValueError(f"triangle must be one of {TRIANGLES}, got "
                             f"{self.triangle!r}")
        for field in ("table_b", "mask", "table_a"):
            name = getattr(self, field)
            if name is not None and not isinstance(name, str):
                raise ValueError(f"{field} must be a table name, got "
                                 f"{name!r}")
        if self.table_b is None and (self.triangle, self.table_a) != (
                None, None):
            raise ValueError(f"triangle and table_a take a TableMult only; "
                             f"got triangle={self.triangle!r}, table_a="
                             f"{self.table_a!r} on a one-table op")
        if self.post is not None:
            if self.table_b is not None and self.table_a is None:
                raise ValueError("post follows a TableMult only when "
                                 "table_a is given: without it a step "
                                 "writes partial products, not folded rows")
            from repro.net.iterspec import post_layers  # lazy: net imports dbsim

            post_layers(self.post)


@dataclass
class TableConfig:
    """Per-table configuration: versioning, iterator stack, flush policy."""

    max_versions: int = 1
    table_iterators: Tuple[Layer, ...] = ()
    flush_bytes: int = 1 << 20

    def __post_init__(self):
        self.table_iterators = as_layers(self.table_iterators,
                                         "table_iterators")

    @classmethod
    def combining(cls, combiner: str) -> "TableConfig":
        """A table whose versions of a cell fold with the built-in
        ``combiner`` — the Accumulo idiom for accumulating writes."""
        return cls(max_versions=ALL_VERSIONS,
                   table_iterators=(COMBINERS[combiner],))

    def folds(self, combiner: str) -> bool:
        """Whether every version of a cell reaches the built-in
        ``combiner`` first, as in a :meth:`combining` table: what a
        TableMult's partial products need of ``out``."""
        return (bool(self.table_iterators)
                and self.table_iterators[0] is COMBINERS[combiner]
                and self.max_versions >= ALL_VERSIONS)


class TabletIndex:
    """One table's tablets in extent order, and every question asked of
    that order.

    ``entries`` are anything with an ``extent`` — the
    :class:`Assignment`\\ s of a :class:`ControlPlane` and of a remote
    client's locate cache.  ``starts`` (one sorted start key per entry,
    ``""`` for the unbounded first) is built lazily and *replaced*,
    never mutated, when a split invalidates it, so callers may use its
    identity as a staleness token."""

    def __init__(self, entries: Iterable, builds=None):
        self.entries: list = list(entries)
        self._starts: Optional[List[str]] = None
        self._builds = builds  # counter ticked once per ``starts`` rebuild

    @property
    def starts(self) -> List[str]:
        starts = self._starts
        if starts is None:
            starts = self._starts = [e.extent.start_row or ""
                                     for e in self.entries]
            if self._builds is not None:
                self._builds.inc()
        return starts

    def at(self, row: str) -> int:
        """Position of the entry whose extent contains ``row`` — a
        bisect over the sorted start keys, not a tablet walk."""
        return max(bisect.bisect_right(self.starts, row) - 1, 0)

    def locate(self, row: str):
        return self.entries[self.at(row)]

    def overlapping(self, rng: Range) -> list:
        """The entries whose extents intersect ``rng``, in order."""
        # first candidate: the entry containing rng's start row
        lo = 0 if rng.start_row is None else self.at(rng.start_row)
        out = []
        for entry in self.entries[lo:]:
            start = entry.extent.start_row
            if (rng.stop_row is not None and start is not None
                    and start >= rng.stop_row):
                break  # entries are in extent order; the rest are past rng
            if entry.extent.clip(rng) is not None:
                out.append(entry)
        return out

    def replace(self, i: int, left, right) -> None:
        """A split: entry ``i`` becomes its two children."""
        self.entries[i:i + 1] = [left, right]
        self._starts = None  # the boundaries moved

    def partition(self, mutations: Iterable[tuple]
                  ) -> List[Tuple[object, List[tuple]]]:
        """Bin raw mutation tuples (row first) per owning entry:
        ``[(entry, mutations)]`` in order of first appearance.  Stable,
        so each tablet sees its mutations in buffer order — per-tablet
        logical clocks then assign the timestamps cell-at-a-time writes
        would.  One bisect per tablet *change*, not per mutation."""
        starts, entries = self.starts, self.entries
        locate = bisect.bisect_right
        group: Optional[List[tuple]] = None
        lo = ""  # current group's extent bounds, cached for cheap re-use
        hi: Optional[str] = ""
        groups: List[Tuple[object, List[tuple]]] = []
        by_entry: dict = {}
        for mut in mutations:
            row = mut[0]
            if group is None or row < lo or (hi is not None and row >= hi):
                idx = locate(starts, row) - 1
                entry = entries[idx if idx > 0 else 0]
                lo = entry.extent.start_row or ""
                hi = entry.extent.stop_row
                group = by_entry.get(id(entry))
                if group is None:
                    group = by_entry[id(entry)] = []
                    groups.append((entry, group))
            group.append(mut)
        return groups


def _skip_past(key: tuple):
    """The stage that drops a sorted stream's entries at or before the
    sort key ``key``: what a resumed scan already delivered."""
    def stage(batches):
        batches = iter(batches)
        for batch in batches:
            rows, fams = batch.rows, batch.families
            quals, viss = batch.qualifiers, batch.visibilities
            ts, dels = batch.timestamps, batch.deletes
            n = len(rows)
            i = 0
            while i < n and (rows[i], fams[i], quals[i], viss[i], -ts[i],
                             0 if dels[i] else 1) <= key:
                i += 1
            if i < n:
                yield batch.select(range(i, n)) if i else batch
                break
        yield from batches
    return stage


class TabletServer:
    """Hosts tablets by id; every hosted tablet counts its cost-model
    work into this server's :attr:`counters` and all of its work into
    ``metrics`` under its table's name."""

    def __init__(self, name: str, metrics: MetricsRegistry, lock=None):
        self.name = name
        self.metrics = metrics
        #: what a TableMult step holds to resolve a tablet and slice its
        #: runs, and to apply a write — never across a peer's call: in a
        #: cluster the service's lock, which its other requests take
        #: while the step runs; in process, nothing
        self.lock = lock if lock is not None else nullcontext()
        #: the cost model's counters (:func:`~repro.dbsim.stats.cost_counters`,
        #: unregistered) every hosted tablet counts into
        self.counters = cost_counters()
        #: True between :meth:`crash` and :meth:`recover`.  While set,
        #: every data op on a hosted tablet (write, scan, flush,
        #: compact) raises :class:`ServerCrashedError` — the typed
        #: signal a remote client's retry loop keys off.
        self.crashed = False
        #: tablet_id → (table, tablet): the one hosting registry
        self.hosted: Dict[str, Tuple[str, Tablet]] = {}
        #: table → TableConfig, as pushed with the last tablet hosted
        self.configs: Dict[str, TableConfig] = {}

    @property
    def stats(self) -> OpStats:
        """The hosted tablets' cost-model counts so far, as a value."""
        return counted(self.counters)

    @property
    def tablets(self) -> List[Tuple[str, Tablet]]:
        """(table, tablet) pairs hosted here."""
        return list(self.hosted.values())

    def tablet(self, table: Optional[str], tablet_id: str) -> Tablet:
        """The hosted tablet ``tablet_id`` (of ``table``, when given)."""
        entry = self.hosted.get(tablet_id)
        if entry is None or table not in (None, entry[0]):
            raise NotHostedError(
                f"server {self.name} does not host tablet {tablet_id!r} "
                f"of table {table!r} (split or migrated?)")
        return entry[1]

    def _host(self, table: str, tablet_id: str, tablet: Tablet) -> None:
        tablet.server = self
        tablet.bind_metrics(self.metrics, table)
        self.hosted[tablet_id] = (table, tablet)
        self._count()

    def _unhost(self, tablet_id: str) -> Tablet:
        _, tablet = self.hosted.pop(tablet_id)
        tablet.server = None
        tablet.unbind_metrics()
        self._count()
        return tablet

    def _count(self) -> None:
        self.metrics.gauge(f"dbsim.server.{self.name}.tablets").set(
            len(self.hosted))

    def _of(self, table: str) -> List[Tuple[str, Tablet]]:
        """``(tablet_id, tablet)`` of ``table``'s tablets here, by id."""
        return [(tid, tablet)
                for tid, (tab, tablet) in sorted(self.hosted.items())
                if tab == table]

    # -- hosting ops (what a ControlPlane drives) ---------------------------

    def host_tablet(self, table: str, tablet_id: str, extent: Range,
                    config: TableConfig) -> None:
        """Start hosting a new, empty tablet."""
        self.configs[table] = config
        self._host(table, tablet_id,
                   Tablet(extent, config.max_versions, config.flush_bytes))

    def split_tablet(self, table: str, tablet_id: str, split_row: str,
                     left_id: str, right_id: str) -> Tuple[Range, Range]:
        """Split in place (both children stay here); their extents."""
        left, right = self.tablet(table, tablet_id).split(split_row)
        self._unhost(tablet_id)  # after the split: it flushes, and may raise
        self._host(table, left_id, left)
        self._host(table, right_id, right)
        return left.extent, right.extent

    def release_tablet(self, table: str, tablet_id: str) -> Tablet:
        """First half of a migration: stop hosting the tablet and hand
        its state to the caller."""
        self.tablet(table, tablet_id)
        return self._unhost(tablet_id)

    def adopt_tablet(self, table: str, tablet_id: str, state: Tablet,
                     config: TableConfig) -> None:
        """Second half of a migration: host what another server's
        :meth:`release_tablet` returned."""
        self.configs[table] = config
        self._host(table, tablet_id, state)

    def drop_table(self, table: str) -> int:
        doomed = self._of(table)
        for tablet_id, _ in doomed:
            self._unhost(tablet_id)
        self.configs.pop(table, None)
        return len(doomed)

    def flush_table(self, table: str) -> None:
        for _, tablet in self._of(table):
            tablet.flush()

    def compact_table(self, table: str) -> None:
        for _, tablet in self._of(table):
            tablet.compact(self.configs[table].table_iterators)

    # -- data ops (a served request's, a TableMult step's) and TableMult ---

    def tablet_info(self, table: Optional[str], tablet_id: str) -> dict:
        """A hosted tablet's shape, JSON-ready: its extent as ``[start,
        stop]``, entry estimate, memtable and run sizes, and logical
        clock — no stamp it holds is newer."""
        with self.lock:
            tablet = self.tablet(table, tablet_id)
            return {"extent": [tablet.extent.start_row,
                               tablet.extent.stop_row],
                    "entries": tablet.entry_estimate(),
                    "memtable_entries": len(tablet.memtable),
                    "sstables": [len(run) for run in tablet.sstables],
                    "clock": tablet._clock}

    def scan_tablet(self, table: Optional[str], tablet_id: str,
                    ranges: Sequence[Range], layers: Sequence[Layer] = (),
                    columns=None, resume: Optional[Sequence] = None,
                    batch_cells: int = 2048):
        """A hosted tablet's cells inside ``ranges`` (sorted, disjoint),
        of ``columns`` when given, under the table's layers and then
        ``layers`` — a scan's visibility filter and pushed-down ops —,
        as a stream of column batches of up to ``batch_cells`` cells:
        a client scan's read of each tablet, the read a TableMult step
        makes of its own tablets and of a peer's, and what a ``SCAN``
        streams.  The runs are sliced now, under :attr:`lock`; the
        stream is drained outside it and counts as it goes, into the
        tablet's counters (:meth:`Tablet.scan_columns`), so scans
        drained at once on several threads count exactly.

        ``resume`` (a key, ``[row, family, qualifier, visibility,
        timestamp, delete]``) reopens a scan past what it delivered: the
        entries at or before it are skipped above every layer but a
        trailing ``distinct``, which starts from its ``seen`` list
        instead, so the skipped prefix never reaches it."""
        if resume:
            at = len(layers) - bool(layers and layers[-1].op
                                    and layers[-1].op["op"] == "distinct")
            layers = (*layers[:at], Layer(_skip_past(
                Key(*resume).sort_tuple())), *layers[at:])
        with self.lock:
            tablet = self.tablet(table, tablet_id)
            return tablet.scan_columns(
                ranges, columns, self.configs[tablet.table].table_iterators,
                layers, batch_cells=batch_cells)

    def retry_scan(self, exc: Exception, table: Optional[str],
                   attempts: int, sleep: Optional[float]) -> None:
        """Rule on a failed read of one of this server's tablets
        (:class:`~repro.dbsim.backend.TabletRead`): in process nothing
        is retried — a client scan re-plans on ``NotHostedError``."""
        raise exc

    def write_tablet(self, table: Optional[str], tablet_id: str,
                     columns) -> int:
        """:meth:`Tablet.write_columns` on a hosted tablet, under
        :attr:`lock`: the write a TableMult step makes of an ``out``
        tablet (a peer's, over the wire, is one stamped
        ``WRITE_BATCH``), and a client's batch.  A row outside the
        extent means the caller routed by a stale index (a split landed
        since): :class:`NotHostedError`, and nothing is applied, so the
        re-routed retry is exactly-once."""
        with self.lock:
            try:
                return self.tablet(table, tablet_id).write_columns(*columns)
            except ValueError as exc:
                raise NotHostedError(f"tablet {tablet_id!r}: {exc}") from None

    def submit(self, op: str, *args) -> Callable[[], object]:
        """The op ``op(*args)`` as a caller sends it to several servers
        before it waits on any (the plane's fan-outs, a step's writes):
        run now — so in process they run one after another, in the
        order sent — and answered by the returned call, which raises
        the op's error if it failed.  A remote handle sends the request
        now and waits in the call."""
        return run_now(getattr(self, op), *args)

    def multiply_tablets(self, table_at: str, tablet_ids: Sequence[str],
                         spec: MultSpec, b: Sequence["Assignment"],
                         out: Sequence["Assignment"],
                         mask: Sequence["Assignment"], base: int = 0,
                         step: int = 0, steps: int = 1) -> Dict[str, int]:
        """A two-table op's step on this server: its ``AT`` tablets
        ``tablet_ids`` (in extent order) streamed and written into
        ``out``.  A TableMult merge-joins them with ``B``'s rows in the
        same extents and multiplies a block of shared rows at a time
        (:func:`repro.dbsim.graphulo.multiply_rows`); a block may span
        this server's tablets, so a step pre-sums all of them before it
        writes (block bound permitting): how many partial cells ``out``
        receives grows with the servers, not the tablets.  A one-table
        op writes the streamed cells as they are, timestamps included,
        through ``spec.post``; under ``spec.mask`` it keeps those whose
        (row, qualifier) the mask stores, reading the mask rows of each
        streamed batch (:func:`repro.dbsim.graphulo.mask_cells`).
        Returns the step's work counts.

        Under ``spec.table_a`` the step is row-owned: ``table_at`` is
        ``table_a`` and ``tablet_ids`` are its tablets here.  The step
        streams their ``A`` rows in blocks of whole rows and, per
        block, reads the ``B`` rows the block's qualifiers name — one
        range-set scan per ``B`` tablet they reach, local or a peer's,
        every one opened before any is read — then multiplies, folds,
        runs ``spec.post`` on the folded rows and writes each cell once
        (:func:`repro.dbsim.graphulo.multiply_owned`).

        This is step ``step`` of the op's ``steps``, and ``base`` is at
        least every stamp ``out`` held before the op: a TableMult
        writes its block ``k`` at timestamp ``base + k·steps + step +
        1``, a stamp no other block of the op uses.

        ``b`` are the ``B`` tablets overlapping those extents (every
        ``B`` tablet under ``table_a``), ``out`` every ``out`` tablet
        and ``mask`` every tablet of ``spec.mask`` (none without one),
        as assignments whose ``server`` is this server — a local scan,
        a local write — or a handle with :meth:`scan_tablet`,
        :meth:`retry_scan` and :meth:`submit` of ``"write_tablet"``: in
        a cluster, a peer's remote handle, whose streams a
        :class:`~repro.dbsim.backend.TabletRead` reopens.  A server
        never calls itself over the wire.  A block's writes are all sent
        before the previous block's are waited for.  A masked block or
        batch reads its output rows' mask cells as a block reads ``B``."""
        # lazy: graphulo and net import this module, and numpy loads
        # with the first block multiplied, not with the server
        from repro.dbsim import graphulo
        from repro.net.iterspec import post_layers, scan_layers

        with self.lock:
            extents = [self.tablet(table_at, tablet_id).extent
                       for tablet_id in tablet_ids]
        # every read's layers: the visibility filter for the spec's auths
        layers = scan_layers(Authorizations(spec.auths))
        at = chain.from_iterable(
            self.scan_tablet(table_at, tablet_id, [extent], layers)
            for tablet_id, extent in zip(tablet_ids, extents))
        # one table, or one multiplied by itself: B's cells are the AT
        # stream (None); else each B tablet is read once, for its share
        # of the extents
        b_batches = None if spec.table_b in (None, table_at) \
            else chain.from_iterable(
                TabletRead(entry.server, spec.table_b, entry.tablet_id,
                           clip_ranges(extents, entry.extent), layers)
                for entry in b)
        index = TabletIndex(out)
        # the last write's acks, waited for once the next write is sent:
        # a block's writes to several tablets overlap, and a peer's ack
        # overlaps the next block.  Stamps, not arrival, order them
        unacked: list = []

        def write(columns: Sequence) -> None:
            # rows are sorted: each out tablet takes one contiguous run
            rows = columns[0]
            lo, n = 0, len(rows)
            sent = []
            while lo < n:
                entry = index.locate(rows[lo])
                stop = entry.extent.stop_row
                end = n if stop is None else bisect.bisect_left(rows, stop,
                                                                lo)
                for i in range(lo, end, MULT_WRITE_CELLS):
                    j = min(i + MULT_WRITE_CELLS, end)
                    sent.append(entry.server.submit(
                        "write_tablet", spec.out, entry.tablet_id,
                        [column[i:j] for column in columns]))
                lo = end
            answers(unacked)
            unacked[:] = sent

        def reader(table: Optional[str], entries: Sequence["Assignment"]):
            def read(rows: Sequence[str]):
                ranges = [Range.exact_row(row) for row in rows]
                # every read opened before any is drained: a peer's
                # overlap
                return chain.from_iterable([
                    TabletRead(entry.server, table, entry.tablet_id, share,
                               layers)
                    for entry in entries
                    for share in [clip_ranges(ranges, entry.extent)]
                    if share])
            return read

        stamps = count(base + step + 1, steps)
        if spec.table_a is not None:
            work = graphulo.multiply_owned(at, spec, reader(spec.table_b, b),
                                           reader(spec.mask, mask), write,
                                           stamps)
        elif spec.table_b is not None:
            work = graphulo.multiply_rows(at, b_batches, spec, write,
                                          reader(spec.mask, mask), stamps)
        else:
            stream = at if spec.mask is None else graphulo.mask_cells(
                at, reader(spec.mask, mask))
            for layer in post_layers(spec.post):
                stream = layer.stage(stream)
            written = 0
            for batch in stream:
                write(batch.columns())
                written += len(batch)
            work = {"cells_written": written}
        answers(unacked)
        return work

    def status(self) -> dict:
        """JSON-ready: this server's name, whether it is down, and each
        hosted tablet's table and extent (``[start, stop]``) by id."""
        return {"name": self.name, "crashed": self.crashed,
                "tablets": {tid: {"table": table,
                                  "extent": [tablet.extent.start_row,
                                             tablet.extent.stop_row]}
                            for tid, (table, tablet) in self.hosted.items()}}

    # -- failure simulation -------------------------------------------------

    def crash(self) -> None:
        """Simulated process failure: every hosted tablet loses its
        memtable; sorted runs and WALs are durable.  The server stays
        down (data ops raise :class:`ServerCrashedError`, including
        scans already open) until :meth:`recover`."""
        self.crashed = True
        for _, tablet in self.hosted.values():
            tablet.crash()

    def recover(self, replay_wal: bool = True) -> None:
        """Bring the server back up, replaying each hosted tablet's WAL
        (Accumulo's log recovery).  ``replay_wal=False`` restarts
        without recovery — modelling a server whose write-ahead logs
        are not (yet) replayed; the WALs themselves stay durable, so a
        later ``recover()`` can still replay them."""
        if replay_wal:
            for _, tablet in self.hosted.values():
                tablet.recover()
        self.crashed = False

    def __repr__(self) -> str:
        return f"TabletServer({self.name}, tablets={len(self.hosted)})"


@dataclass(eq=False)
class Assignment:
    """One tablet's slot in a table's index: where it lives now."""

    tablet_id: str
    extent: Range
    server: object  # a TabletServer, or a handle with its hosting ops


@dataclass
class TableMeta:
    """What the control plane knows of one table — and, over the wire,
    what a client caches of it: one ``LOCATE`` reply."""

    config: TableConfig
    index: TabletIndex
    #: bumped whenever the index changes
    version: int = 1


class ControlPlane:
    """The cluster's metadata owner: table configs, the tablet →
    server assignment (round-robin: a pre-split table's tablets dealt
    once at create, a live split's children re-dealt), the locate index
    clients cache, and split/migration orchestration.

    ``servers`` are handles with :class:`TabletServer`'s ``name`` and
    hosting ops.  An op that reaches several servers — hosting a new
    table's tablets, dropping, flushing or compacting a table, the
    steps of a two-table op — is sent to every one (``submit``) before
    any answer is awaited (:func:`answers`).  What ``release_tablet``
    returns goes to the destination's ``adopt_tablet`` unopened: the
    tablet object itself in process, its encoded state in a
    cluster."""

    def __init__(self, servers: Sequence, metrics: MetricsRegistry):
        if not servers:
            raise ValueError("need at least one tablet server")
        self.servers = list(servers)
        self.metrics = metrics
        self._tables: Dict[str, TableMeta] = {}
        self._rr = 0  # round-robin assignment cursor
        self._next_id = 0

    def _pick(self):
        server = self.servers[self._rr % len(self.servers)]
        self._rr += 1
        return server

    def _new_id(self, table: str) -> str:
        self._next_id += 1
        return f"{table}!{self._next_id:04d}"

    def _hosting(self, name: str) -> list:
        """The servers holding the table's tablets, in index order."""
        return list(dict.fromkeys(
            entry.server for entry in self.table(name).index.entries))

    def _each(self, name: str, op: str) -> None:
        """The hosting op ``op(name)`` on every server holding the
        table's tablets, sent to all before any answer is awaited."""
        answers([server.submit(op, name) for server in self._hosting(name)])

    # -- table lifecycle ----------------------------------------------------

    def table_exists(self, name: str) -> bool:
        return name in self._tables

    def list_tables(self) -> List[str]:
        return sorted(self._tables)

    def table(self, name: str) -> TableMeta:
        meta = self._tables.get(name)
        if meta is None:
            raise KeyError(f"no such table: {name!r}")
        return meta

    def config(self, name: str) -> TableConfig:
        return self.table(name).config

    def create_table(self, name: str, config: Optional[TableConfig] = None,
                     splits: Sequence[str] = (), hosts=None) -> None:
        """A new table, pre-split at ``splits`` (in any order; repeats
        are one split).  Its tablets are dealt once, in extent order:
        each is hosted empty on its server in ``hosts`` (one per
        tablet) when given, else on the next server round-robin — with
        4 tablets on 2 servers, 2 and 2 — every host sent before any is
        awaited.  No tablet is split or migrated, and each starts at
        clock 0, as a split of an empty tablet would.  If a host fails,
        the tablets already hosted are dropped and the name stays
        free."""
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        config = config or TableConfig()
        edges = [None, *sorted(set(splits)), None]
        if hosts is not None and len(hosts) != len(edges) - 1:
            raise ValueError(f"{len(edges) - 1} tablets, {len(hosts)} hosts")
        entries = [Assignment(self._new_id(name), Range(lo, hi),
                              self._pick() if hosts is None else hosts[i])
                   for i, (lo, hi) in enumerate(zip(edges, edges[1:]))]
        calls = [entry.server.submit("host_tablet", name, entry.tablet_id,
                                     entry.extent, config)
                 for entry in entries]
        hosted = []
        error: Optional[Exception] = None
        for entry, call in zip(entries, calls):
            try:
                call()
            except Exception as exc:  # noqa: BLE001 - re-raised below
                error = error or exc
            else:
                hosted.append(entry)
        if error is not None:
            answers([server.submit("drop_table", name) for server in
                     dict.fromkeys(entry.server for entry in hosted)])
            raise error
        # registered only now: a create whose host failed leaves the
        # name free for a retry
        self._tables[name] = TableMeta(config, TabletIndex(
            entries, self.metrics.counter("dbsim.locate.index_builds")))

    def delete_table(self, name: str) -> None:
        self._each(name, "drop_table")
        del self._tables[name]

    # -- tablet management --------------------------------------------------

    def add_split(self, name: str, split_row: str) -> None:
        """Split a live table's tablet containing ``split_row`` (no-op
        if it is already a split point).  The owner splits in place;
        then both children re-enter round-robin assignment — each may
        land on a different server, the migration that makes a client's
        cached routing go stale.  A create's ``splits`` do not come
        through here: :meth:`create_table` deals those tablets once."""
        meta = self.table(name)
        index = meta.index
        i = index.at(split_row)
        parent = index.entries[i]
        if parent.extent.start_row == split_row:
            return
        left_id, right_id = self._new_id(name), self._new_id(name)
        left, right = parent.server.split_tablet(
            name, parent.tablet_id, split_row, left_id, right_id)
        children = (Assignment(left_id, left, parent.server),
                    Assignment(right_id, right, parent.server))
        index.replace(i, *children)
        for child in children:
            dest = self._pick()
            if dest is not child.server:
                dest.adopt_tablet(
                    name, child.tablet_id,
                    child.server.release_tablet(name, child.tablet_id),
                    meta.config)
                child.server = dest
        meta.version += 1

    def splits(self, name: str) -> List[str]:
        return [entry.extent.start_row
                for entry in self.table(name).index.entries
                if entry.extent.start_row is not None]

    # -- maintenance --------------------------------------------------------

    def flush_table(self, name: str) -> None:
        self._each(name, "flush_table")

    def compact_table(self, name: str) -> None:
        self._each(name, "compact_table")

    # -- kernels ------------------------------------------------------------

    def table_mult(self, table_at: str, spec: MultSpec) -> Dict[str, int]:
        """Graphulo's two-table op where the rows live — TableMult
        ``out ⊕= ATᵀ ⊕.⊗ B`` when ``spec.table_b`` names ``B``, else a
        one-table op over ``AT``: every server hosting
        ``AT`` tablets runs them, in extent order, in one step
        (:meth:`TabletServer.multiply_tablets`).  The plan numbers the
        steps in the order of each server's first ``AT`` tablet and
        submits every one before it waits on any (``submit``): in a
        cluster they run at the same time, in process one after another
        in plan order.  What a step writes does not depend on that
        order: a TableMult stamps its blocks from a base above
        every stamp ``out`` held — 0 for an ``out`` created here — by
        the step's number, so ``out``'s combiner folds the same partial
        cells in the same order on every backend.  A failed step's
        error is raised once every step sent has answered, its message
        saying how many steps applied: an ``out`` the op created is
        dropped first, as ``table_ktruss`` drops its round tables, and
        an existing ``out`` keeps what the other steps wrote.

        The operands must exist.  A missing ``out`` is split like
        ``AT``, each tablet on the server of the ``AT`` tablet with its
        extent — combining with ``spec.combiner`` for a TableMult
        without ``table_a``, else plain — so a one-table op writes its
        own tablets.  An existing ``out`` of a TableMult must fold
        every partial product with ``spec.combiner``
        (:meth:`TableConfig.folds`), or ``ValueError`` is raised before
        any step runs.  Every op flushes ``out`` afterwards, and none
        compacts it: its combiner folds the partial products when they
        are read.  A ``spec.mask`` table must exist too, and every step
        reads the mask rows it needs from every mask tablet's server:
        its own, when the mask is split and placed like ``AT``.
        Under ``spec.table_a`` (which must exist too, or ``KeyError``
        is raised before ``out`` is created) the op is row-owned: the
        steps are those of the servers hosting ``table_a`` tablets —
        ``table_at`` is only checked to exist — a missing ``out`` is
        split like ``table_a`` and created plain, since each of its
        cells is folded inside one step and written once, and every
        step may read every ``B`` tablet.  Returns the work counts
        summed over the steps, and a ``peak_*`` count's maximum."""
        at_entries = self.table(table_at).index.entries
        owned = spec.table_a is not None
        if owned:
            table_at = spec.table_a
            at_entries = self.table(table_at).index.entries
        # a one-table op, and a table multiplied by itself, read no B tablet
        # unless a step owns its rows, which may reach any B row
        b_index = (None if spec.table_b in (None, table_at) and not owned
                   else self.table(spec.table_b).index)
        mask = ([] if spec.mask is None
                else self.table(spec.mask).index.entries)
        shares: Dict[object, list] = {}  # server → its AT tablets, in order
        for entry in at_entries:
            shares.setdefault(entry.server, []).append(entry)
        base = 0
        created = not self.table_exists(spec.out)
        if created:
            self.create_table(
                spec.out, TableConfig.combining(spec.combiner)
                if spec.table_b is not None and not owned else None,
                splits=self.splits(table_at),
                hosts=[entry.server for entry in at_entries])
        elif spec.table_b is not None:
            if not self.config(spec.out).folds(spec.combiner):
                raise ValueError(
                    f"out table {spec.out!r} does not fold every version "
                    f"with the {spec.combiner!r} combiner, so it would "
                    f"keep one server's partial products; write into a "
                    f"fresh table or one created with "
                    f"TableConfig.combining({spec.combiner!r})")
            base = max(info["clock"] for info in answers([
                entry.server.submit("tablet_info", spec.out, entry.tablet_id)
                for entry in self.table(spec.out).index.entries]))
        out = self.table(spec.out).index.entries
        steps = []
        for step, (server, entries) in enumerate(shares.items()):
            b = ([] if b_index is None else b_index.entries if owned
                 else list(dict.fromkeys(chain.from_iterable(
                     b_index.overlapping(entry.extent)
                     for entry in entries))))
            steps.append(server.submit(
                "multiply_tablets", table_at,
                [entry.tablet_id for entry in entries], spec, b, out, mask,
                base, step, len(shares)))
        work: Dict[str, int] = {}
        applied = 0
        error: Optional[Exception] = None
        for call in steps:
            try:
                step_work = call()
            except Exception as exc:  # noqa: BLE001 - raised below
                error = error or exc
                continue
            applied += 1
            for name, n in step_work.items():
                work[name] = (max if name.startswith("peak_")
                              else operator.add)(work.get(name, 0), n)
        if error is not None:
            if created:
                self.delete_table(spec.out)
            kept = (f"{spec.out!r}, which it created, is dropped" if created
                    else f"{spec.out!r} keeps what they wrote")
            message = error.args[0] if error.args else error
            # the step's own type: a caller's except clause, and a
            # client's retry verdict on it, stay what they were
            raise type(error)(f"{message} ({applied} of {len(steps)} steps "
                              f"of the op applied; {kept})") from error
        self.flush_table(spec.out)
        return work


class Instance(ControlPlane, ConnectorBackend):
    """The database in one process: the control plane over a fleet of
    :class:`TabletServer`\\ s.  Its data path — routing, writes, scans
    — is :class:`~repro.dbsim.backend.ConnectorBackend`'s, over the
    plane's own index, reaching each tablet through its server."""

    def __init__(self, n_servers: int = 3,
                 metrics: Optional[MetricsRegistry] = None):
        #: per-table work breakdown (``dbsim.table.<name>.*``); defaults
        #: to the process-global registry so ad-hoc instances aggregate
        metrics = metrics if metrics is not None else global_registry()
        super().__init__([TabletServer(f"tserver{i}", metrics)
                          for i in range(n_servers)], metrics)

    # -- scans --------------------------------------------------------------

    def scan_cells(self, name: str, rng: RangeSet = Range(),
                   columns=None, scan_iterators: Sequence = ()):
        """:meth:`~repro.dbsim.backend.ConnectorBackend.scan_cells`, with
        the crash flag of every server hosting a tablet the scan's plan
        reaches re-checked between cells: an open scan dies with its
        server instead of finishing from a buffered batch."""
        legs, batches = self._planned_scan(name, rng, columns,
                                           scan_iterators)
        servers = {leg[0].server for leg in legs}
        for batch in batches:
            for cell in batch.cells():
                for server in servers:
                    if server.crashed:
                        raise ServerCrashedError(
                            f"tablet server {server.name} is down "
                            f"(crashed, not yet recovered)")
                yield cell

    # -- observability ------------------------------------------------------

    def total_stats(self) -> OpStats:
        out = OpStats()
        for server in self.servers:
            out = out.merge(server.stats)
        return out

    def _stats_export(self) -> Dict[str, object]:
        return {"servers": {s.name: s.stats.as_dict() for s in self.servers},
                "total": self.total_stats().as_dict()}

    def observability_export(self) -> Dict[str, object]:
        """One JSON-ready report: the per-table/per-server metrics
        registry plus the merged OpStats cost model."""
        return {"metrics": self.metrics.export(), **self._stats_export()}
