"""The connector backend contract shared by local and remote clients.

:class:`~repro.dbsim.client.Connector` programs against an *instance*
object, never against storage directly.  This module names that
contract so the in-process simulator (:class:`repro.dbsim.server.
Instance`) and the RPC fabric's client-side façade
(:class:`repro.net.client.RemoteInstance`) implement one protocol —
and so ``Scanner`` / ``BatchScanner`` / ``BatchWriter`` drop in
unchanged against either.  ``tests/dbsim/test_client.py`` runs its
whole suite over both implementations.

Two protocols:

* :class:`TabletBackend` — what a scan or write path needs from one
  tablet: its row extent, a columnar scan (its layers' stages chained
  over one storage pass), and a raw-mutation batch sent now and
  answered later (``submit_raw_batch``).  Locally this is a real
  :class:`~repro.dbsim.tablet.Tablet`; remotely a ``TabletProxy``
  that turns the same calls into RPCs.
* :class:`ConnectorBackend` — the instance-wide surface: table
  lifecycle, routing (``locate`` a row, the tablets a range reaches,
  and ``partition`` — a mutation buffer binned per owning tablet: the
  writer asks the backend to route exactly as the scanner does; both
  backends answer from one :class:`~repro.dbsim.server.TabletIndex`
  per table), the scan of a range set across a table's tablets (in
  column batches, or the same batches cell by cell), TableMult run by
  the servers, and the merged OpStats cost model.

Both are :func:`typing.runtime_checkable`, so ``isinstance(obj,
ConnectorBackend)`` verifies structural conformance (method presence,
not signatures) in tests.
"""

from __future__ import annotations

from typing import (
    Callable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.dbsim.key import Range, RangeSet
from repro.dbsim.stats import OpStats


@runtime_checkable
class TabletBackend(Protocol):
    """One tablet as the client data path sees it."""

    #: the row-range this tablet owns (half-open ``[start, stop)``)
    extent: Range

    def scan_columns(self, rng: RangeSet = Range(), columns=None,
                     table_iterators: Sequence = (),
                     scan_iterators: Sequence = ()):
        """``extent ∩ rng`` as an iterator of
        :class:`~repro.net.cells.ColumnBatch`\\ es in key order, under
        the table's layers and the scan's; ``rng`` is one range or a
        sorted, disjoint range set (the tablet applies it where it
        slices its storage — nothing outside the set is read).
        Whatever the iterator yields is the state as of this call."""
        ...

    def submit_raw_batch(self, mutations) -> Callable[[], int]:
        """Send raw ``(row, family, qualifier, visibility, timestamp,
        delete, value)`` tuples to be applied in order; the returned
        call answers the cells applied (or raises the batch's error)."""
        ...

    def scan(self, rng: Range = Range(), columns=None,
             table_iterators: Sequence = (),
             scan_iterators: Sequence = ()) -> list:
        """Convenience: :meth:`scan_columns` as a cell list."""
        ...


@runtime_checkable
class ConnectorBackend(Protocol):
    """The instance-wide contract behind a ``Connector``.

    ``Connector`` and its Scanner/BatchScanner/BatchWriter factories
    call exactly these methods — nothing else — so any conforming
    object is a drop-in backend.
    """

    # -- table lifecycle --------------------------------------------------

    def create_table(self, name: str, config=None,
                     splits: Sequence[str] = ()) -> None: ...

    def delete_table(self, name: str) -> None: ...

    def table_exists(self, name: str) -> bool: ...

    def list_tables(self) -> List[str]: ...

    def config(self, name: str):
        """The table's :class:`~repro.dbsim.server.TableConfig` (or an
        equivalent object with ``table_iterators``)."""
        ...

    # -- tablet location --------------------------------------------------

    def add_split(self, name: str, split_row: str) -> None: ...

    def splits(self, name: str) -> List[str]: ...

    def locate(self, name: str, row: str) -> TabletBackend: ...

    def tablets_for_range(self, name: str,
                          rng: Range) -> List[TabletBackend]: ...

    def partition(self, name: str, mutations
                  ) -> List[Tuple[TabletBackend, list]]:
        """Raw mutation tuples binned per owning tablet, each tablet's
        in input order: ``[(tablet, mutations)]``, what ``BatchWriter``
        hands to ``submit_raw_batch`` one tablet at a time."""
        ...

    # -- scans ------------------------------------------------------------

    def scan_columns(self, name: str, rng: RangeSet = Range(),
                     columns=None, scan_iterators: Sequence = ()):
        """The table's cells inside ``rng`` (one range, or a sorted,
        disjoint range set) as
        :class:`~repro.net.cells.ColumnBatch`\\ es in global key order:
        every overlapping tablet's ``scan_columns``, under the table's
        configured layers and the given scan layers."""
        ...

    def scan_cells(self, name: str, rng: RangeSet = Range(),
                   columns=None, scan_iterators: Sequence = ()):
        """:meth:`scan_columns`, cell by cell — what ``for cell in
        scanner`` runs."""
        ...

    # -- maintenance ------------------------------------------------------

    def flush_table(self, name: str) -> None: ...

    def compact_table(self, name: str) -> None: ...

    # -- kernels ----------------------------------------------------------

    def table_mult(self, table_at: str, spec) -> dict:
        """Graphulo TableMult as one operation of the database:
        :meth:`~repro.dbsim.server.ControlPlane.table_mult` in process,
        one ``TABLE_MULT`` to the manager remotely.  ``spec`` is a
        :class:`~repro.dbsim.server.MultSpec`; returns the work
        counts."""
        ...

    # -- observability ----------------------------------------------------

    def total_stats(self) -> OpStats:
        """Merged cost-model counters across the server fleet."""
        ...

    def table_entry_estimate(self, name: str) -> int: ...
