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
``(tablet_id, extent, server)`` —, the scan of a range set across a
table's tablets (in column batches, or the same batches cell by cell),
TableMult run by the servers, and the merged OpStats cost model.  The
routing is written here, once, over that index: ``locate`` a row, the
tablets a range reaches, and ``partition`` — a mutation buffer binned
per owning tablet, so the writer routes exactly as the scanner does.
Each assignment's ``server`` is the one handle on its tablet server: a
:class:`~repro.dbsim.server.TabletServer` in process, a
:class:`~repro.net.client.RemoteTabletServer` in a cluster, with the
same method names and ``submit(op, *args)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.dbsim.key import Range, RangeSet
from repro.dbsim.stats import OpStats

if TYPE_CHECKING:
    from repro.dbsim.server import Assignment, TableMeta


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

    @abstractmethod
    def scan_columns(self, name: str, rng: RangeSet = Range(),
                     columns=None, scan_iterators: Sequence = ()):
        """The table's cells inside ``rng`` (one range, or a sorted,
        disjoint range set) as
        :class:`~repro.net.cells.ColumnBatch`\\ es in global key order:
        every overlapping tablet's cells, under the table's configured
        layers and the given scan layers."""

    @abstractmethod
    def scan_cells(self, name: str, rng: RangeSet = Range(),
                   columns=None, scan_iterators: Sequence = ()):
        """:meth:`scan_columns`, cell by cell — what ``for cell in
        scanner`` runs."""

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
