"""Client API: Connector, Scanner, BatchScanner, BatchWriter.

Mirrors the Accumulo client library shape the D4M/Graphulo stack
programs against: a Connector locates tablets through the Instance, a
Scanner streams one range in key order, a BatchScanner handles many
ranges (sorted disjoint row-ranges travel as one set to each tablet,
which slices just those rows out of its runs — the way a real
BatchScanner amortises RPCs), and a BatchWriter
buffers mutations and sends them per owning tablet in bulk on flush —
a ``write_tablet`` to the tablet's server handle, the same on both
backends —, the answers of one flush awaited
(:func:`~repro.dbsim.server.answers`) before the next is sent.
"""

from __future__ import annotations

from itertools import repeat
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Union)

from repro.dbsim.backend import ConnectorBackend
from repro.dbsim.errors import MutationsRejectedError, NotHostedError
from repro.dbsim.iterators import Columns, Layer, as_layers
from repro.dbsim.key import (
    Cell,
    Range,
    encode_number,
    field_columns,
    sorted_disjoint,
)
from repro.dbsim.server import TableConfig, answers
from repro.dbsim.visibility import PUBLIC, Authorizations, check_expression
from repro.obs import trace as _trace


class Connector:
    """Entry point: table ops + scanner/writer factories.

    The backend may be any :class:`~repro.dbsim.backend.
    ConnectorBackend` — the in-process :class:`~repro.dbsim.server.
    Instance` or :class:`repro.net.client.RemoteInstance` speaking the
    RPC fabric; every data-path class below goes through
    ``self.instance`` only, so they work against either unchanged.
    """

    def __init__(self, instance: ConnectorBackend):
        self.instance = instance

    # -- table operations (subset of Accumulo's TableOperations) ----------

    def create_table(self, name: str, config: Optional[TableConfig] = None,
                     splits: Sequence[str] = ()) -> None:
        self.instance.create_table(name, config, splits)

    def delete_table(self, name: str) -> None:
        self.instance.delete_table(name)

    def table_exists(self, name: str) -> bool:
        return self.instance.table_exists(name)

    def add_split(self, name: str, split_row: str) -> None:
        self.instance.add_split(name, split_row)

    def flush(self, name: str) -> None:
        self.instance.flush_table(name)

    def compact(self, name: str) -> None:
        self.instance.compact_table(name)

    # -- data-path factories ------------------------------------------------

    def scanner(self, table: str,
                scan_iterators: Sequence[Layer] = (),
                authorizations: Authorizations = None,
                iterspec=None) -> "Scanner":
        return Scanner(self, table, scan_iterators,
                       authorizations=authorizations, iterspec=iterspec)

    def batch_scanner(self, table: str,
                      scan_iterators: Sequence[Layer] = (),
                      authorizations: Authorizations = None,
                      iterspec=None) -> "BatchScanner":
        return BatchScanner(self, table, scan_iterators,
                            authorizations=authorizations, iterspec=iterspec)

    def batch_writer(self, table: str, buffer_size: int = 10_000,
                     max_memory: int = 4 << 20) -> "BatchWriter":
        return BatchWriter(self, table, buffer_size, max_memory)


class _RangeSetScan:
    """What :class:`Scanner` and :class:`BatchScanner` share: the scan
    of one *range set* — a sorted, disjoint list of row ranges — of
    one table, per cell or in column batches.

    The backend's one client scan
    (:meth:`~repro.dbsim.backend.ConnectorBackend.scan_columns`) gives
    each overlapping tablet its share of the set, through the tablet
    server's ``scan_tablet`` — in process the ``TabletServer`` itself,
    in a cluster one ``SCAN`` to it —, and the tablet applies it where
    the storage runs are sliced; nothing outside the set is read,
    shipped or filtered here.  A single range is a set of one.
    """

    def __init__(self, conn: Connector, table: str,
                 scan_iterators: Sequence[Layer] = (),
                 authorizations: Authorizations = None,
                 iterspec=None):
        # lazy: dbsim must not import repro.net at module scope (net
        # imports dbsim)
        from repro.net.iterspec import scan_layers

        self._conn = conn
        self._table = table
        #: the scan's layers, bottom-up and the same for either
        #: backend: the visibility filter, then the pushed-down spec's
        #: ops (so a combiner/reduce never folds unauthorized cells),
        #: then the user's.  Each tablet's server runs the leading
        #: ones that can cross the wire; the rest run over the stream
        self._layers = scan_layers(
            PUBLIC if authorizations is None else authorizations,
            iterspec) + as_layers(scan_iterators, "scan_iterators")
        self.columns: Columns = None

    def _cells(self, ranges: Sequence[Range]) -> Iterator[Cell]:
        # the per-cell view is a thin layer over the batches — the
        # backend's own iterator, with no frame of ours per cell
        return self._conn.instance.scan_cells(
            self._table, ranges, self.columns, self._layers)

    def _batches(self, ranges: Sequence[Range]):
        yield from self._conn.instance.scan_columns(
            self._table, ranges, self.columns, self._layers)


class Scanner(_RangeSetScan):
    """Single-range scan in key order across all overlapping tablets."""

    def __init__(self, conn: Connector, table: str,
                 scan_iterators: Sequence[Layer] = (),
                 authorizations: Authorizations = None,
                 iterspec=None):
        super().__init__(conn, table, scan_iterators, authorizations,
                         iterspec)
        self.range = Range()

    def set_range(self, rng: Range) -> "Scanner":
        self.range = rng
        return self

    def fetch_column(self, family: str, qualifier: Optional[str] = None) -> "Scanner":
        cols = list(self.columns or [])
        cols.append((family, qualifier))
        self.columns = cols
        return self

    def __iter__(self) -> Iterator[Cell]:
        return self._cells((self.range,))

    def scan_columns(self):
        """Bulk columnar read: yields
        :class:`~repro.net.cells.ColumnBatch`\\ es over the scanner's
        range, backend-agnostic (both backends run one
        ``scan_columns``).  Entry sequence — timestamps included — is
        bit-identical to iterating the scanner per cell; no ``Cell``
        objects are built.
        """
        return self._batches((self.range,))


class BatchScanner(_RangeSetScan):
    """Multi-range scan (results in key order per range, ranges in the
    order given — the simulation is deterministic where Accumulo is not).

    When the ranges are sorted and disjoint (``table_bfs`` frontier
    fetches, degree lookups) they are one range set and the scan
    *coalesces*: every overlapping tablet is visited once, with its
    share of the set, and slices exactly those rows out of its runs —
    one seek per run per tablet instead of one per range, and no cell
    outside the ranges is read or shipped.  Output is bit-identical to
    the per-range path, except under a ``distinct`` op: it keeps the
    first cell of each qualifier per scan, so a coalesced scan dedups
    across each tablet's share of the set, and the per-range path
    within each range.  Unsorted or overlapping ranges are scanned
    range by range, each as a set of one.
    """

    def __init__(self, conn: Connector, table: str,
                 scan_iterators: Sequence[Layer] = (),
                 authorizations: Authorizations = None,
                 iterspec=None):
        super().__init__(conn, table, scan_iterators, authorizations,
                         iterspec)
        self.ranges: List[Range] = []

    def set_ranges(self, ranges: Iterable[Range]) -> "BatchScanner":
        self.ranges = list(ranges)
        if not self.ranges:
            raise ValueError("BatchScanner needs at least one range")
        return self

    def _run(self, scan, size):
        """``scan`` over the whole set when the ranges are sorted and
        disjoint, else over each range as a set of one, under the
        ``dbsim.batch_scan`` span (``entries`` counts cells, ``size``
        of each item yielded)."""
        coalesced = sorted_disjoint(self.ranges)
        sets = [self.ranges] if coalesced else [(r,) for r in self.ranges]
        with _trace.span("dbsim.batch_scan",
                         stats=self._conn.instance.total_stats,
                         table=self._table, ranges=len(self.ranges),
                         coalesced=coalesced) as sp:
            n = 0
            for ranges in sets:
                for item in scan(ranges):
                    n += size(item)
                    yield item
            sp.set(entries=n)

    def __iter__(self) -> Iterator[Cell]:
        return self._run(self._cells, lambda cell: 1)

    def scan_columns(self):
        """Bulk columnar read over all ranges: yields
        :class:`~repro.net.cells.ColumnBatch`\\ es.  Output cells —
        timestamps included — are bit-identical to iterating the
        batch scanner per cell, with the same coalescing rules; the
        ``dbsim.batch_scan`` span is emitted identically (``entries``
        counts cells, not batches)."""
        return self._run(self._batches, len)


class BatchWriter:
    """Buffered writer routing mutations to owning tablets.

    Mutations accumulate client-side as raw ``(row, family, qualifier,
    visibility, timestamp, delete, value)`` tuples — no :class:`Cell`
    is built here, and none by the owning tablet, which stores the
    stamped mutation as a key tuple and a value.  When either
    ``buffer_size`` mutations or ``max_memory`` approximate bytes are
    buffered (or ``flush`` / ``close`` is called), the buffer is binned
    per owning tablet — one bisect of the cached location index per
    tablet change — and each tablet's share is sent as one batch, a
    ``write_tablet`` to its server handle (:meth:`_send`), whose answer
    is awaited (:func:`~repro.dbsim.server.answers`) just before the
    next flush is sent, and in ``flush()`` / ``close()``: a remote
    writer fills the next buffer while the servers apply the last.  A
    server stamps a tablet's cells in arrival order, and buffer order
    is preserved, so assigned timestamps (and therefore scan results)
    are bit-identical to cell-at-a-time writes.  Usable as a context
    manager; ``close()``/``__exit__`` flushes.  Values may be numbers
    (encoded) or strings.

    A batch refused for any reason but a stale route is raised by the
    call that awaits it, and the writer stays failed: every later
    ``put``, ``flush`` and ``close`` raises
    :class:`~repro.dbsim.errors.MutationsRejectedError`, naming the
    refused tablets and their cells.  Applied batches stay applied.
    """

    def __init__(self, conn: Connector, table: str, buffer_size: int = 10_000,
                 max_memory: int = 4 << 20):
        if buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {buffer_size}")
        if max_memory < 1:
            raise ValueError(f"max_memory must be >= 1, got {max_memory}")
        self._conn = conn
        self._table = table
        #: raw mutation tuples, in write order
        self._buffer: List[tuple] = []
        self._buffer_size = buffer_size
        self._max_memory = max_memory
        self._buffer_bytes = 0
        self._closed = False
        #: the answers of the last flush's batches, not yet awaited
        self._unanswered: List[Callable[[], int]] = []
        #: tablet id → cells it refused; the writer is failed once set
        self._refused: Dict[str, int] = {}
        self._cause: Optional[BaseException] = None  # the first refusal

    def _rejected(self) -> None:
        """Raise :class:`MutationsRejectedError` if a batch was refused."""
        if self._refused:
            raise MutationsRejectedError(self._table,
                                         self._refused) from self._cause

    def _unwritable(self) -> None:
        """Raise why no mutation may be queued: a refused batch, else a
        closed writer (callers test ``_closed or _refused`` first — a
        put's one check)."""
        self._rejected()
        raise RuntimeError("writer is closed")

    def put(self, row: str, family: str = "", qualifier: str = "",
            value="1", visibility: str = "", timestamp: int = 0) -> None:
        if self._closed or self._refused:
            self._unwritable()
        if visibility:  # reject bad labels at write time
            check_expression(visibility)
        if isinstance(value, (int, float)):
            value = encode_number(value)
        buffer = self._buffer
        buffer.append((row, family, qualifier, visibility, timestamp,
                       False, value))
        nbytes = self._buffer_bytes = (self._buffer_bytes + len(row)
                                       + len(family) + len(qualifier)
                                       + len(value) + 24)
        if (len(buffer) >= self._buffer_size
                or nbytes >= self._max_memory):
            self._flush_pending()

    def put_many(self, rows: Sequence[str], qualifiers: Sequence[str],
                 values: Sequence, family: Union[str, Sequence[str]] = "",
                 visibility: Union[str, Sequence[str]] = "",
                 timestamps: Optional[Sequence[int]] = None) -> None:
        """Bulk :meth:`put`: queue one mutation per aligned ``(row,
        qualifier, value)`` with one buffer extend and one visibility
        check per distinct label.  ``family`` and ``visibility`` are one
        string for every cell or an aligned sequence; ``values`` are
        numbers (encoded) or strings; ``timestamps`` default to 0 (the
        owning tablet stamps).  Mutations enter the buffer in input
        order — so stamped timestamps are those of the equivalent
        ``put`` loop — and input that overfills the buffer is queued a
        buffer at a time, so no flush carries more than
        ``buffer_size`` mutations."""
        if self._closed or self._refused:
            self._unwritable()
        n = len(rows)
        columns = [qualifiers, values] + [
            column for column in (family, visibility, timestamps)
            if column is not None and not isinstance(column, str)]
        if any(len(column) != n for column in columns):
            raise ValueError("put_many columns must align with rows")
        for label in {visibility} if isinstance(visibility, str) \
                else set(visibility):
            check_expression(label)
        values = [v if isinstance(v, str) else encode_number(v)
                  for v in values]
        families = [family] * n if isinstance(family, str) else family
        muts = list(zip(
            rows, families, qualifiers,
            repeat(visibility) if isinstance(visibility, str) else visibility,
            repeat(0) if timestamps is None else timestamps,
            repeat(False), values))
        lo = 0
        while lo < n:
            hi = min(n, lo + self._buffer_size - len(self._buffer))
            self._buffer.extend(muts[lo:hi])
            self._buffer_bytes += 24 * (hi - lo) + sum(
                sum(map(len, column[lo:hi]))
                for column in (rows, families, qualifiers, values))
            lo = hi
            if (len(self._buffer) >= self._buffer_size
                    or self._buffer_bytes >= self._max_memory):
                self._flush_pending()

    def delete(self, row: str, family: str = "", qualifier: str = "",
               visibility: str = "") -> None:
        """Queue a tombstone for the addressed cell (all versions)."""
        if self._closed or self._refused:
            self._unwritable()
        check_expression(visibility)
        self._buffer.append((row, family, qualifier, visibility, 0, True, ""))
        self._buffer_bytes += len(row) + len(family) + len(qualifier) + 24
        if (len(self._buffer) >= self._buffer_size
                or self._buffer_bytes >= self._max_memory):
            self._flush_pending()

    def flush(self) -> None:
        """Send buffered mutations and wait until everything written so
        far is applied."""
        self._rejected()
        self._flush_pending()
        self._await()

    def _await(self) -> None:
        unanswered, self._unanswered = self._unanswered, []
        answers(unanswered)

    def _flush_pending(self) -> None:
        if not self._buffer:
            return
        # a callable, so the backend's stats are reached only when
        # traced: an untraced flush uses nothing of it but routing
        with _trace.span("dbsim.batch_write",
                         stats=lambda: self._conn.instance.total_stats(),
                         table=self._table,
                         mutations=len(self._buffer)):
            # the backend bins the buffer per owning tablet (stable, so
            # each tablet sees its mutations in buffer order) against
            # its location index — the client-side analogue of
            # Accumulo's tablet-location cache
            groups = self._conn.instance.partition(self._table,
                                                   self._buffer)
            self._await()
            self._unanswered = [self._send(entry, muts)
                                for entry, muts in groups]
            self._buffer.clear()
            self._buffer_bytes = 0

    def _send(self, entry, muts: List[tuple]) -> Callable[[], int]:
        """One tablet's share of a flush, in buffer order, sent now to
        ``entry``'s server — one transpose into the seven columns of a
        ``write_tablet``; the returned call answers the cells applied.
        Should the tablet have split or moved since the route was
        cached (``NotHostedError``: nothing was applied), the answer
        re-routes ``muts`` through a fresh index, each new owner's share
        in order (what its clock stamps).  Any other failure is a
        refusal, kept (:meth:`_rejected`) and raised."""
        table = self._table
        sent = entry.server.submit("write_tablet", table, entry.tablet_id,
                                   field_columns(muts, 7))

        def answer() -> int:
            try:
                return sent()
            except NotHostedError:
                inst = self._conn.instance
                inst.invalidate(table)
                return sum(answers([self._send(owner, share) for owner, share
                                    in inst.partition(table, muts)]))
            except Exception as exc:
                self._refused[entry.tablet_id] = \
                    self._refused.get(entry.tablet_id, 0) + len(muts)
                self._cause = self._cause or exc
                raise
        return answer

    def close(self) -> None:
        if self._refused or not self._closed:
            self.flush()
            self._closed = True

    def __enter__(self) -> "BatchWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
