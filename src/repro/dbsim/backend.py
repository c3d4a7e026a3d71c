"""The connector backend shared by local and remote clients.

:class:`~repro.dbsim.client.Connector` programs against an *instance*
object, never against storage directly.  :class:`ConnectorBackend` is
that instance's base class: the in-process simulator
(:class:`repro.dbsim.server.Instance`) and the RPC fabric's
client-side façade (:class:`repro.net.client.RemoteInstance`) both
derive from it — so ``Scanner`` / ``BatchScanner`` / ``BatchWriter``
drop in unchanged against either.  ``tests/dbsim/test_client.py`` runs
its whole suite over both.

A backend provides table lifecycle, ``table(name)`` — the table's
config and its index of :class:`~repro.dbsim.server.Assignment`\\ s,
``(tablet_id, extent, server)`` —, TableMult run by the servers, and
the merged OpStats cost model.  The data path is written here, once,
over that index: ``locate`` a row, the tablets a range reaches,
``partition`` — a mutation buffer binned per owning tablet, so the
writer routes exactly as the scanner does — and the client scan
(:meth:`ConnectorBackend.scan_columns`), which reads each tablet by a
:class:`TabletRead` — the one resumable read of a tablet, a TableMult
step's too — a few tablets ahead, and re-plans over a fresh index
when one moves under it.  Each
assignment's ``server`` is the one handle on its tablet server: a
:class:`~repro.dbsim.server.TabletServer` in process, a
:class:`~repro.net.client.RemoteTabletServer` in a cluster, with the
same method names and ``submit(op, *args)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import chain, takewhile
from operator import methodcaller
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.dbsim.errors import NotHostedError
from repro.dbsim.iterators import Layer, distinct_stage
from repro.dbsim.key import Range, RangeSet, clip_ranges, covering
from repro.dbsim.stats import OpStats

if TYPE_CHECKING:
    from repro.dbsim.server import Assignment, TableMeta

#: tablet scans a client scan keeps open ahead of its consumer: their
#: servers scan in parallel while the head tablet's batches are
#: consumed, so crossing a tablet boundary rarely waits on the network
_SCAN_FANOUT = 3


def _ship(scan_iterators: Sequence[Layer]
          ) -> Tuple[Tuple[Layer, ...], Tuple[Layer, ...]]:
    """Split a scan's layers at the wire: ``(layers each tablet's
    server runs, layers chained here over the whole stream)``.

    The leading layers that carry a wire form (``op``, see
    :class:`~repro.dbsim.iterators.Layer`) can run inside the tablet
    server, and ship when they hold at least one spec op.  A lone
    visibility filter ships nothing and runs here: a spec-less ``SCAN``
    is the plain payload it always was."""
    shipped = tuple(takewhile(lambda layer: layer.op, scan_iterators))
    if all(layer.op["op"] == "visibility" for layer in shipped):
        return (), tuple(scan_iterators)
    return shipped, tuple(scan_iterators[len(shipped):])


def _pushdown(ops: Sequence[dict]) -> dict:
    """The ``SCAN`` payload fields of shipped layers' wire forms
    ``ops``: the spec ops as ``"iterspec"`` (when there are any), the
    visibility filter's tokens as ``"auths"``."""
    spec = [op for op in ops if op["op"] != "visibility"]
    pushdown = {"iterspec": spec} if spec else {}
    for op in ops:
        if op["op"] == "visibility":
            pushdown["auths"] = op["auths"]
    return pushdown


def _seeded(layers: Tuple[Layer, ...], seen: set) -> Tuple[Layer, ...]:
    """``layers`` with their trailing ``distinct`` also dropping the
    qualifiers ``seen``: what a tablet read delivered, carried into
    its reopen or into the tablets a re-plan puts in its place."""
    *below, last = layers
    seen = sorted(seen.union(last.op.get("seen", ())))
    return (*below, Layer(distinct_stage(seen),
                          {"op": "distinct", "seen": seen}))


def _past(ranges: List[Range], resume: Optional[list]) -> List[Range]:
    """``ranges`` from the row of ``resume`` on: what a reopen past it
    asks for (the server skips the entries at or before the key)."""
    return clip_ranges(ranges, Range(resume[0], None)) if resume else ranges


class TabletRead:
    """One tablet's read through its server handle, resumable past
    what it delivered: a client scan's read of each tablet, and a
    TableMult step's of its ``B`` and mask tablets.  Iterating it
    yields the non-empty batches of ``server.scan_tablet(table,
    tablet_id, ranges, layers, columns, resume)``, whose stream opens
    now; a failure to open is raised by the first pull.

    The read keeps :attr:`resume`, the last key delivered, and — under
    a trailing ``distinct``, whose state crosses rows — :attr:`seen`,
    the qualifiers delivered.  It puts a failed stream to the handle's
    ``retry_scan``, which raises (a ``NotHostedError`` too: a client
    scan re-plans from :attr:`resume` and :attr:`seen`) or backs off;
    the read then reopens the tablet in place, from the resume row
    (:func:`_past`), the ``distinct`` seeded with :attr:`seen`.  A
    reopen carries a resume key, ``[]`` while nothing was delivered:
    it counts as a resume."""

    def __init__(self, server, table: Optional[str], tablet_id: str,
                 ranges: List[Range], layers: Tuple[Layer, ...] = (),
                 columns=None, resume: Optional[list] = None):
        self.server, self.table = server, table
        self._where = (tablet_id, ranges, layers, columns)
        #: the last key delivered (a re-planned tablet's: the moved one's)
        self.resume = resume
        #: the qualifiers delivered, kept under a trailing ``distinct``
        self.seen: Optional[set] = set() if layers and layers[-1].op \
            and layers[-1].op["op"] == "distinct" else None
        self._stream = self._failure = None
        self._open(resume)

    def _open(self, resume: Optional[list]) -> None:
        tablet_id, ranges, layers, columns = self._where
        try:
            self._stream = self.server.scan_tablet(
                self.table, tablet_id, _past(ranges, resume),
                _seeded(layers, self.seen) if self.seen else layers,
                columns, resume)
        except Exception as exc:  # noqa: BLE001 - the first pull judges it
            self._failure = exc

    def __iter__(self):
        attempts, sleep = 0, None  # reopens since the last batch
        while True:
            try:
                failure, self._failure = self._failure, None
                if failure is not None:
                    raise failure
                for batch in self._stream:
                    if len(batch):
                        attempts, sleep = 0, None
                        self.resume = batch.last_key()
                        if self.seen is not None:
                            self.seen.update(batch.qualifiers)
                        yield batch
                return
            except Exception as exc:
                self.close()
                sleep = self.server.retry_scan(exc, self.table, attempts,
                                               sleep)
                attempts += 1
                self._open(self.resume or [])

    def close(self) -> None:
        """Stop the open stream, if any: the server stops producing."""
        stream, self._stream = self._stream, None
        if stream is not None:
            stream.close()


class ConnectorBackend(ABC):
    """The instance-wide contract behind a ``Connector``, and the
    routing both backends share.

    ``Connector`` and its Scanner/BatchScanner/BatchWriter factories
    call exactly these methods — nothing else."""

    # -- table lifecycle --------------------------------------------------

    @abstractmethod
    def create_table(self, name: str, config=None,
                     splits: Sequence[str] = ()) -> None: ...

    @abstractmethod
    def delete_table(self, name: str) -> None: ...

    @abstractmethod
    def table_exists(self, name: str) -> bool: ...

    @abstractmethod
    def list_tables(self) -> List[str]: ...

    @abstractmethod
    def config(self, name: str):
        """The table's :class:`~repro.dbsim.server.TableConfig`."""

    @abstractmethod
    def table(self, name: str) -> "TableMeta":
        """The table's config and index of assignments: the control
        plane's own in process, a cached ``LOCATE`` reply remotely."""

    # -- tablet location --------------------------------------------------

    @abstractmethod
    def add_split(self, name: str, split_row: str) -> None: ...

    @abstractmethod
    def splits(self, name: str) -> List[str]: ...

    def invalidate(self, name: Optional[str] = None) -> None:
        """Forget the cached index of ``name`` (of every table, for
        ``None``): a route found stale.  In process the index is the
        plane's own, never stale."""

    def tablets(self, name: str) -> List["Assignment"]:
        return list(self.table(name).index.entries)

    def locate(self, name: str, row: str) -> "Assignment":
        """The tablet whose extent contains ``row``."""
        index = self.table(name).index
        self.metrics.counter("dbsim.locate.requests").inc()
        return index.locate(row)

    def tablets_for_range(self, name: str, rng: Range) -> List["Assignment"]:
        return self.table(name).index.overlapping(rng)

    def partition(self, name: str, mutations
                  ) -> List[Tuple["Assignment", list]]:
        """Raw mutation tuples binned per owning tablet, each tablet's
        in input order: ``[(assignment, mutations)]`` — see
        :meth:`~repro.dbsim.server.TabletIndex.partition`."""
        return self.table(name).index.partition(mutations)

    # -- scans ------------------------------------------------------------

    def scan_columns(self, name: str, rng: RangeSet = Range(),
                     columns=None, scan_iterators: Sequence[Layer] = ()):
        """The table's cells inside ``rng`` (one range, or a sorted,
        disjoint range set) as
        :class:`~repro.net.cells.ColumnBatch`\\ es in global key order:
        every overlapping tablet's cells, under the table's configured
        layers and the given scan layers.

        The scan is planned now, over this backend's index: each
        tablet the set reaches gets its share of it, read by a
        :class:`TabletRead` through its server's ``scan_tablet``, which
        runs the layers :func:`_ship` splits off at the wire; the rest
        (a lone visibility filter, user layers) are chained here, over
        the whole stream.  Up to :data:`_SCAN_FANOUT` reads are open
        ahead of the consumer, each drained before the next is read.

        When a read raises ``NotHostedError`` (its tablet split or
        migrated), the scan re-plans: it forgets the table's index and
        plans the ranges past the read's last key over a fresh one, the
        first opened past that key; under a trailing ``distinct`` each
        re-planned tablet also starts from the read's qualifiers, and
        keeps what seeded the tablet it replaces."""
        return self._planned_scan(name, rng, columns, scan_iterators)[1]

    def _planned_scan(self, name: str, rng: RangeSet, columns,
                      scan_iterators: Sequence[Layer]):
        """:meth:`scan_columns` as ``(legs, batches)``: the plan, one
        ``[entry, share, layers, resume]`` leg per tablet the set
        reaches (the scan consumes the list as it goes), and the
        stream."""
        shipped, here = _ship(scan_iterators)
        # no extent to clip to: this makes a lone Range a set of one
        # and drops a range that can hold nothing
        ranges = clip_ranges(rng, Range())
        legs = self._plan(name, ranges, shipped) if ranges else []
        out = self._scan(name, legs, columns)
        for layer in here:
            out = layer.stage(out)
        return legs, out

    def scan_cells(self, name: str, rng: RangeSet = Range(),
                   columns=None, scan_iterators: Sequence[Layer] = ()):
        """:meth:`scan_columns`, cell by cell — what ``for cell in
        scanner`` runs: a ``chain`` over the batches' cells, so the
        per-cell loop runs no Python frame."""
        return chain.from_iterable(map(methodcaller("cells"),
                                       self.scan_columns(name, rng, columns,
                                                         scan_iterators)))

    def _plan(self, name: str, ranges: List[Range], layers) -> list:
        """``[entry, share, layers, resume]`` for each tablet whose extent
        ``ranges`` reach into, in extent order, with its share of the
        set."""
        return [[entry, share, layers, None]
                for entry in self.tablets_for_range(name, covering(ranges))
                for share in [clip_ranges(ranges, entry.extent)] if share]

    def _replan(self, name: str, legs: list, head: TabletRead) -> list:
        """The ``legs`` left when the ``head`` read's tablet moved,
        planned again over a fresh index: the ranges past its resume
        key, the first leg opened past it.  Each new tablet takes the
        layers of the leg it overlaps, the head's seeded with the
        qualifiers it delivered (:attr:`TabletRead.seen`)."""
        if head.seen:
            legs[0][2] = _seeded(legs[0][2], head.seen)
        self.invalidate(name)
        ranges = _past(list(chain.from_iterable(leg[1] for leg in legs)),
                       head.resume)
        if not ranges:
            return []
        replanned = self._plan(name, ranges, ())
        for leg in replanned:
            leg[2] = next(old[2] for old in legs
                          if old[0].extent.clip(leg[0].extent))
        replanned[0][3] = head.resume
        return replanned

    def _scan(self, name: str, legs: list, columns):
        """The batches of the planned ``legs``, in order (see
        :meth:`scan_columns`)."""
        reads: List[TabletRead] = []  # the open reads of legs[:len(reads)]
        try:
            while legs:
                while len(reads) < min(len(legs), _SCAN_FANOUT):
                    entry, share, layers, resume = legs[len(reads)]
                    reads.append(TabletRead(entry.server, name,
                                            entry.tablet_id, share, layers,
                                            columns, resume))
                head = reads[0]
                try:
                    yield from head
                except NotHostedError:
                    # the head's tablet moved: the reads opened on the
                    # old layout close, and the rest is planned again
                    for read in reads:
                        read.close()
                    reads = []
                    legs = self._replan(name, legs, head)
                else:
                    reads.pop(0)
                    legs.pop(0)
        finally:
            for read in reads:
                read.close()

    # -- maintenance ------------------------------------------------------

    @abstractmethod
    def flush_table(self, name: str) -> None: ...

    @abstractmethod
    def compact_table(self, name: str) -> None: ...

    # -- kernels ----------------------------------------------------------

    @abstractmethod
    def table_mult(self, table_at: str, spec) -> dict:
        """Graphulo TableMult as one operation of the database:
        :meth:`~repro.dbsim.server.ControlPlane.table_mult` in process,
        one ``TABLE_MULT`` to the manager remotely.  ``spec`` is a
        :class:`~repro.dbsim.server.MultSpec`; returns the work
        counts."""

    # -- observability ----------------------------------------------------

    @abstractmethod
    def total_stats(self) -> OpStats:
        """Merged cost-model counters across the server fleet."""

    def table_entry_estimate(self, name: str) -> int:
        """The table's entries, summed over its tablets' ``tablet_info``
        — every one sent before any is awaited."""
        from repro.dbsim.server import answers  # server imports this module

        return sum(info["entries"] for info in answers([
            entry.server.submit("tablet_info", name, entry.tablet_id)
            for entry in self.tablets(name)]))
