"""Immutable sorted runs (the simulation's RFiles).

An SSTable is a frozen sorted ``(keys, values)`` run — ``keys`` the
sort-key tuples of :mod:`repro.dbsim.key`, ``values`` the aligned
strings — with the read-side structures a real RFile carries:

* the **key list itself is the index**: every scan of the run bisects
  it (``Tablet._sliced_runs``) to slice out its row ranges, the
  stand-in for the RFile index lookup;
* **min/max row bounds** for `overlaps` range pruning;
* a **row bloom filter** consulted by point lookups before the run is
  opened at all (no false negatives, so skipping is always safe);
* whether the run is **clean** — no tombstone and one version per
  logical cell — learnt on the first scan that can use it, which then
  reads the run's columns by one transpose (``Tablet._drain_clean``).
"""

from __future__ import annotations

import bisect
import zlib
from itertools import islice
from operator import eq, gt, itemgetter
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.dbsim.key import Cell, Range, SortKey, run_cells


class RowBloomFilter:
    """Classic m-bit / k-hash bloom filter over row keys.

    Hashing is deterministic (CRC32 double hashing, not Python's
    randomized ``hash``) so counters built on bloom decisions are
    reproducible across processes.  ``may_contain`` has no false
    negatives: ``False`` proves the row was never inserted.
    """

    __slots__ = ("_bits", "_nbits", "n_keys")

    BITS_PER_KEY = 10
    N_HASHES = 3

    def __init__(self, rows: Iterable[str]):
        rows = list(rows)
        self.n_keys = len(rows)
        self._nbits = max(8, self.n_keys * self.BITS_PER_KEY)
        self._bits = bytearray((self._nbits + 7) // 8)
        for row in rows:
            for pos in self._positions(row):
                self._bits[pos >> 3] |= 1 << (pos & 7)

    def _positions(self, row: str) -> Iterable[int]:
        data = row.encode("utf-8", "surrogatepass")
        h1 = zlib.crc32(data)
        h2 = zlib.crc32(data, 0x9E3779B9) | 1  # odd: full period mod 2^k
        for i in range(self.N_HASHES):
            yield (h1 + i * h2) % self._nbits

    def may_contain(self, row: str) -> bool:
        return all(self._bits[p >> 3] & (1 << (p & 7))
                   for p in self._positions(row))

    def __len__(self) -> int:
        return self._nbits


class SSTable:
    """Immutable sorted run with index + filter metadata."""

    def __init__(self, cells: Sequence[Cell] = ()):
        """A run out of cells (compaction through user layers, tests):
        their keys are derived here and checked to be in order."""
        keys = [cell.key.sort_tuple() for cell in cells]
        if any(map(gt, keys, islice(keys, 1, None))):
            raise ValueError("SSTable cells must be pre-sorted")
        self._adopt(keys, [cell.value for cell in cells])

    @classmethod
    def from_run(cls, keys: List[SortKey], values: List[str]) -> "SSTable":
        """Adopt an already sorted ``(keys, values)`` run as is: no
        copy, no check — what flush, compaction, split and migration
        hand over."""
        run = cls.__new__(cls)
        run._adopt(keys, values)
        return run

    def _adopt(self, keys: List[SortKey], values: List[str]) -> None:
        self.keys = keys
        self.values = values
        # read-side structures, computed once for the run's lifetime
        self.first_row: Optional[str] = keys[0][0] if keys else None
        self.last_row: Optional[str] = keys[-1][0] if keys else None
        self._bloom = RowBloomFilter(
            set(map(itemgetter(0), keys))) if keys else None
        self._clean: Optional[bool] = None  # unknown until a scan asks

    @property
    def clean(self) -> bool:
        """No tombstone and no two versions of one logical cell — a run
        the storage pass would copy through unchanged.  Checked once,
        in C, the first time a scan asks; flush, compaction and
        combining scans never do."""
        if self._clean is None:
            keys = self.keys
            cell = itemgetter(0, 1, 2, 3)  # the logical cell of a key
            self._clean = (0 not in map(itemgetter(5), keys)
                           and not any(map(eq, map(cell, keys), map(
                               cell, islice(keys, 1, None)))))
        return self._clean

    def __len__(self) -> int:
        return len(self.keys)

    def overlaps(self, rng: Range) -> bool:
        """Can this run contain cells inside ``rng``? (metadata check)"""
        if not self.keys:
            return False
        if rng.stop_row is not None and self.first_row >= rng.stop_row:
            return False
        if rng.start_row is not None and self.last_row < rng.start_row:
            return False
        return True

    def may_contain_row(self, row: str) -> bool:
        """Bloom-filter point check; ``False`` is definitive."""
        if self._bloom is None:
            return False
        if not (self.first_row <= row <= self.last_row):
            return False
        return self._bloom.may_contain(row)

    def cells(self) -> List[Cell]:
        """The run materialised as cells."""
        return run_cells(self.keys, self.values)

    def split_at(self, split_row: str) -> Tuple["SSTable", "SSTable"]:
        """Partition into runs below / at-or-above ``split_row`` with one
        bisect and two slices (cells with row == split_row go right,
        matching Accumulo's exclusive-end split semantics; a 1-tuple
        probe sorts before every key of its row)."""
        cut = bisect.bisect_left(self.keys, (split_row,))
        return (SSTable.from_run(self.keys[:cut], self.values[:cut]),
                SSTable.from_run(self.keys[cut:], self.values[cut:]))
