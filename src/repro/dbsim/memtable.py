"""In-memory write buffer (Accumulo's in-memory map).

Cells are held the way all storage here holds them — as a ``(keys,
values)`` run: ``keys`` the sort-key tuples of :mod:`repro.dbsim.key`,
``values`` the aligned strings.  Writes append; reads see the buffer
sorted.  Sorting is deferred and cached — the common pattern is a
burst of BatchWriter mutations followed by scans.
"""

from __future__ import annotations

from itertools import islice
from operator import lt
from typing import Iterator, List, Optional, Tuple

from repro.dbsim.key import Cell, SortKey, run_cells, sort_run


class CellBuffer:
    """A growable ``(keys, values)`` run in arrival order — by itself,
    a tablet's write-ahead log.  Iterating it materialises the cells."""

    __slots__ = ("keys", "values")

    def __init__(self):
        self.keys: List[SortKey] = []
        self.values: List[str] = []

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Cell]:
        return iter(run_cells(self.keys, self.values))

    def extend(self, keys: List[SortKey], values: List[str]) -> None:
        self.keys.extend(keys)
        self.values.extend(values)

    def clear(self) -> None:
        self.keys, self.values = [], []


class MemTable(CellBuffer):
    """Append-only buffer, sorted lazily when read."""

    __slots__ = ("_sorted", "_bytes")

    def __init__(self):
        super().__init__()
        self._sorted = True
        self._bytes = 0

    @property
    def approximate_bytes(self) -> int:
        """Rough memory footprint used by the flush policy (maintained
        incrementally — reading it is O(1), not a rescan)."""
        return self._bytes

    def extend(self, keys: List[SortKey], values: List[str],
               nbytes: Optional[int] = None) -> None:
        """Bulk append: one size update (a caller that holds the batch
        as columns passes the ``nbytes`` it summed there), and a
        sortedness check that runs in C and stops at the first
        out-of-order key (once unsorted, the next read sorts anyway)."""
        if not keys:
            return
        if self._sorted:
            self._sorted = ((not self.keys or self.keys[-1] < keys[0])
                            and all(map(lt, keys, islice(keys, 1, None))))
        super().extend(keys, values)
        if nbytes is None:
            nbytes = (sum(len(k[0]) + len(k[1]) + len(k[2]) for k in keys)
                      + sum(map(len, values)) + 24 * len(keys))
        self._bytes += nbytes

    def sorted_run(self) -> Tuple[List[SortKey], List[str]]:
        """The buffer itself, in key order (stable: cells with equal
        keys stay in arrival order).  No copy: the caller must not
        mutate the lists and must take what it needs — slices are
        private copies — before the next write."""
        if not self._sorted:
            self.keys, self.values = sort_run(self.keys, self.values)
            self._sorted = True
        return self.keys, self.values

    def clear(self) -> None:
        super().clear()
        self._sorted = True
        self._bytes = 0
