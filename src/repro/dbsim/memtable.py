"""In-memory write buffer (Accumulo's in-memory map).

Writes append; reads see a sorted snapshot.  Sorting is deferred and
cached — the common pattern is a burst of BatchWriter mutations followed
by scans.
"""

from __future__ import annotations

from typing import List, Optional

from repro.dbsim.iterators import ListIterator
from repro.dbsim.key import Cell
from repro.dbsim.stats import OpStats


class MemTable:
    """Append-only buffer with lazily-sorted snapshots."""

    def __init__(self):
        self._cells: List[Cell] = []
        self._sorted = True
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def approximate_bytes(self) -> int:
        """Rough memory footprint used by the flush policy (maintained
        incrementally — reading it is O(1), not a rescan)."""
        return self._bytes

    def write(self, cell: Cell) -> None:
        if self._cells and not (self._cells[-1].key < cell.key):
            self._sorted = False
        self._cells.append(cell)
        self._bytes += (len(cell.key.row) + len(cell.key.family)
                        + len(cell.key.qualifier) + len(cell.value) + 24)

    def extend(self, cells: List[Cell], nbytes: Optional[int] = None) -> None:
        """Bulk append: one size update (callers that already walked the
        cells may pass the precomputed ``nbytes``), and the sortedness
        check stops at the first out-of-order key instead of comparing
        every pair (once unsorted, the snapshot sorts anyway)."""
        if not cells:
            return
        if self._sorted:
            prev = self._cells[-1].key.sort_tuple() if self._cells else None
            for cell in cells:
                cur = cell.key.sort_tuple()
                if prev is not None and cur <= prev:
                    self._sorted = False
                    break
                prev = cur
        self._cells.extend(cells)
        if nbytes is None:
            nbytes = sum(len(c.key.row) + len(c.key.family)
                         + len(c.key.qualifier) + len(c.value) + 24
                         for c in cells)
        self._bytes += nbytes

    def sorted_cells(self) -> List[Cell]:
        """The buffer itself, sorted in place (stable: later duplicates
        of a timestamp keep insertion order after their key).  No copy:
        the caller must not mutate it and must take what it needs —
        slices are private copies — before the next write."""
        if not self._sorted:
            self._cells.sort(key=lambda c: c.key.sort_tuple())
            self._sorted = True
        return self._cells

    def snapshot(self) -> List[Cell]:
        """Sorted private copy of the current contents."""
        return list(self.sorted_cells())

    def iterator(self, stats: Optional[OpStats] = None) -> ListIterator:
        return ListIterator(self.snapshot(), stats=stats)

    def clear(self) -> None:
        self._cells.clear()
        self._sorted = True
        self._bytes = 0
