"""Immutable sorted runs (the simulation's RFiles).

An SSTable is a frozen sorted cell list with the read-side structures a
real RFile carries:

* cached **sort-key array** — computed once at construction; every
  scan of the run bisects it (``Tablet._sliced_runs``) to slice out
  its row ranges, the stand-in for the RFile index lookup;
* **min/max row bounds** for `overlaps` range pruning;
* a **row bloom filter** consulted by point lookups before the run is
  opened at all (no false negatives, so skipping is always safe).
"""

from __future__ import annotations

import bisect
import zlib
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.dbsim.key import Cell, Range

#: Seek sentinel: sorts before every real 6-tuple key of the same row.
_SEEK_MIN = ("", "", "", -(2 ** 63))


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
    """Immutable sorted cell run with index + filter metadata."""

    def __init__(self, cells: Sequence[Cell], _presorted: bool = False):
        cells = list(cells)
        if not _presorted:
            for a, b in zip(cells, cells[1:]):
                if b.key < a.key:
                    raise ValueError("SSTable cells must be pre-sorted")
        self._cells = cells
        # read-side structures, computed once for the run's lifetime
        self._keys: List[Tuple] = [c.key.sort_tuple() for c in cells]
        self._first_row: Optional[str] = cells[0].key.row if cells else None
        self._last_row: Optional[str] = cells[-1].key.row if cells else None
        self._bloom = RowBloomFilter(
            {c.key.row for c in cells}) if cells else None

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def first_row(self) -> Optional[str]:
        return self._first_row

    @property
    def last_row(self) -> Optional[str]:
        return self._last_row

    def overlaps(self, rng: Range) -> bool:
        """Can this run contain cells inside ``rng``? (metadata check)"""
        if not self._cells:
            return False
        if rng.stop_row is not None and self._first_row >= rng.stop_row:
            return False
        if rng.start_row is not None and self._last_row < rng.start_row:
            return False
        return True

    def may_contain_row(self, row: str) -> bool:
        """Bloom-filter point check; ``False`` is definitive."""
        if self._bloom is None:
            return False
        if not (self._first_row <= row <= self._last_row):
            return False
        return self._bloom.may_contain(row)

    def cells(self) -> List[Cell]:
        return list(self._cells)

    def split_at(self, split_row: str) -> Tuple["SSTable", "SSTable"]:
        """Partition into runs below / at-or-above ``split_row`` with one
        bisect and two slices (cells with row == split_row go right,
        matching Accumulo's exclusive-end split semantics)."""
        cut = bisect.bisect_left(self._keys, (split_row,) + _SEEK_MIN)
        return (SSTable(self._cells[:cut], _presorted=True),
                SSTable(self._cells[cut:], _presorted=True))
