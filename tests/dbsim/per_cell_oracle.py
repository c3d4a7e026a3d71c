"""Per-cell reference iterators the library no longer runs.

Every tablet scan applies tombstones inside its fused storage pass
(``Tablet._drain_columns_fused``).  :class:`DeleteFilterIterator` is
the same rule written cell by cell over the ``SortedKVIterator``
contract, kept so tests can stack hand-built streams the way a tablet
reads them.
"""

from repro.dbsim.iterators import Columns, SortedKVIterator, _WrappingIterator
from repro.dbsim.key import Range


class DeleteFilterIterator(_WrappingIterator):
    """Apply tombstone semantics to a sorted merged stream.

    A delete marker suppresses all versions of its logical cell with
    timestamp ≤ the marker's, and is itself omitted from scan output.
    The merged stream is cell-grouped with timestamps descending and a
    delete-before-put tie-break, so one forward pass suffices.
    """

    def __init__(self, source: SortedKVIterator):
        self._del_cell = None
        self._del_ts = 0
        super().__init__(source)

    def seek(self, rng: Range, columns: Columns = None) -> None:
        self._del_cell = None
        super().seek(rng, columns)

    def _advance_to_top(self) -> None:
        src = self._source
        while src.has_top():
            cell = src.top()
            src.advance()
            key = cell.key
            if key.delete:
                self._del_cell = key.cell_id()
                self._del_ts = key.timestamp
                continue
            if (self._del_cell == key.cell_id()
                    and key.timestamp <= self._del_ts):
                continue
            self._top = cell
            return
        self._top = None
