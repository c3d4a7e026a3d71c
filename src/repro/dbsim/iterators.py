"""The server-side SortedKVIterator framework.

Accumulo's killer extension point — and the mechanism Graphulo rides —
is a stack of iterators applied server-side to the sorted merged cell
stream of each tablet.  Every iterator implements the same contract:

* ``seek(range, columns)`` — position at the first cell inside the
  row range (and column family/qualifier filter);
* ``has_top()`` / ``top()`` — whether a current cell exists, and what
  it is;
* ``advance()`` — move to the next cell.

Stacks compose bottom-up: storage iterators (memtable/sstable lists) →
merge → versioning → table-configured iterators (combiners, filters,
transforms) → scan-time iterators.
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.dbsim.key import Cell, Key, Range, decode_number, encode_number
from repro.dbsim.stats import OpStats

#: Column filter: None = all, else a set of (family, qualifier) pairs
#: where qualifier None means "whole family".
Columns = Optional[Sequence[Tuple[str, Optional[str]]]]


class SortedKVIterator:
    """Abstract base; concrete iterators override seek/has_top/top/advance."""

    def seek(self, rng: Range, columns: Columns = None) -> None:
        raise NotImplementedError

    def has_top(self) -> bool:
        raise NotImplementedError

    def top(self) -> Cell:
        raise NotImplementedError

    def advance(self) -> None:
        raise NotImplementedError


def _column_match(key: Key, columns: Columns) -> bool:
    if columns is None:
        return True
    for fam, qual in columns:
        if key.family == fam and (qual is None or key.qualifier == qual):
            return True
    return False


def drain(it: SortedKVIterator, rng: Optional[Range] = None,
          columns: Columns = None, seek: bool = True) -> List[Cell]:
    """Exhaust an iterator into a list (client-side collection)."""
    if seek:
        it.seek(rng or Range(), columns)
    out: List[Cell] = []
    while it.has_top():
        out.append(it.top())
        it.advance()
    return out


def _cell_row(cell: Cell) -> str:
    return cell.key.row


class ListIterator(SortedKVIterator):
    """Iterator over an already-sorted list of cells (a memtable
    snapshot, or a tablet's sliced and merged runs).  A seek is two
    bisects on the row — no per-instance key array is built; counts
    stats if given."""

    def __init__(self, cells: Sequence[Cell], stats: Optional[OpStats] = None):
        self._cells = cells
        self._pos = self._end = 0
        self._columns: Columns = None
        self._stats = stats

    def seek(self, rng: Range, columns: Columns = None) -> None:
        if self._stats is not None:
            self._stats.seeks += 1
        self._position(rng, columns)

    def _position(self, rng: Range, columns: Columns = None) -> None:
        cells = self._cells
        self._pos = bisect.bisect_left(cells, rng.effective_start(),
                                       key=_cell_row)
        self._end = bisect.bisect_left(cells, rng.effective_stop(),
                                       self._pos, key=_cell_row)
        self._columns = columns
        self._skip_filtered()

    def _skip_filtered(self) -> None:
        if self._columns is not None:
            cells, columns = self._cells, self._columns
            while self._pos < self._end and not _column_match(
                    cells[self._pos].key, columns):
                self._pos += 1

    def has_top(self) -> bool:
        return self._pos < self._end

    def top(self) -> Cell:
        if self._pos >= self._end:
            raise StopIteration("iterator exhausted")
        return self._cells[self._pos]

    def advance(self) -> None:
        if self._pos < self._end:
            if self._stats is not None:
                self._stats.entries_read += 1
            self._pos += 1
            self._skip_filtered()


class MergeIterator(SortedKVIterator):
    """K-way merge of child iterators in key order (ties: earlier child
    wins, matching Accumulo's memtable-over-sstable precedence).

    Tablet scans do not stack this — they sort-merge their sliced runs
    in one pass (``tablet._merge_runs``).  It stays as the lazy merge
    for user-composed stacks and as the reference ``_merge_runs`` is
    tested against."""

    def __init__(self, children: Sequence[SortedKVIterator]):
        self._children = list(children)
        self._current: Optional[int] = None

    def seek(self, rng: Range, columns: Columns = None) -> None:
        for child in self._children:
            child.seek(rng, columns)
        self._select()

    def _select(self) -> None:
        best = None
        best_key = None
        for i, child in enumerate(self._children):
            if child.has_top():
                k = child.top().key.sort_tuple()
                if best_key is None or k < best_key:
                    best, best_key = i, k
        self._current = best

    def has_top(self) -> bool:
        return self._current is not None

    def top(self) -> Cell:
        if self._current is None:
            raise StopIteration("iterator exhausted")
        return self._children[self._current].top()

    def advance(self) -> None:
        if self._current is None:
            raise StopIteration("iterator exhausted")
        self._children[self._current].advance()
        self._select()


class _WrappingIterator(SortedKVIterator):
    """Base for stacked iterators that transform a source stream."""

    def __init__(self, source: SortedKVIterator):
        self._source = source
        self._top: Optional[Cell] = None

    def seek(self, rng: Range, columns: Columns = None) -> None:
        self._source.seek(rng, columns)
        self._advance_to_top()

    def _advance_to_top(self) -> None:
        raise NotImplementedError

    def has_top(self) -> bool:
        return self._top is not None

    def top(self) -> Cell:
        if self._top is None:
            raise StopIteration("iterator exhausted")
        return self._top

    def advance(self) -> None:
        self._advance_to_top()


class DeleteFilterIterator(_WrappingIterator):
    """Apply tombstone semantics to a sorted merged stream.

    A delete marker suppresses all versions of its logical cell with
    timestamp ≤ the marker's, and is itself omitted from scan output.
    Sits between the storage merge and the versioning iterator (the
    merged stream is cell-grouped with timestamps descending and
    delete-before-put tie-break, so one forward pass suffices).
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


class VisibilityFilterIterator(_WrappingIterator):
    """Server-side cell-level security: drop cells whose visibility
    expression the scan's authorizations cannot satisfy."""

    def __init__(self, source: SortedKVIterator, auths):
        self._auths = auths
        super().__init__(source)

    def _advance_to_top(self) -> None:
        src = self._source
        while src.has_top():
            cell = src.top()
            src.advance()
            if self._auths.can_see(cell.key.visibility):
                self._top = cell
                return
        self._top = None


class VersioningIterator(_WrappingIterator):
    """Keep the ``max_versions`` newest timestamps per logical cell
    (Accumulo's default table iterator, max_versions=1)."""

    def __init__(self, source: SortedKVIterator, max_versions: int = 1):
        if max_versions < 1:
            raise ValueError(f"max_versions must be >= 1, got {max_versions}")
        self._max_versions = max_versions
        self._last_cell_id = None
        self._seen = 0
        super().__init__(source)

    def seek(self, rng: Range, columns: Columns = None) -> None:
        self._last_cell_id = None
        self._seen = 0
        super().seek(rng, columns)

    def _advance_to_top(self) -> None:
        src = self._source
        while src.has_top():
            cell = src.top()
            src.advance()
            cid = cell.key.cell_id()
            if cid == self._last_cell_id:
                self._seen += 1
            else:
                self._last_cell_id = cid
                self._seen = 1
            if self._seen <= self._max_versions:
                self._top = cell
                return
        self._top = None


class CombinerIterator(_WrappingIterator):
    """Fold all versions of a logical cell into one value with a binary
    reduce on decoded numbers — Accumulo's Combiner family.  With a
    ``plus`` reduce this is the SummingCombiner that gives Graphulo its
    ⊕ accumulation on writes (duplicate inserts *combine*, they don't
    overwrite)."""

    name = "combiner"

    def __init__(self, source: SortedKVIterator,
                 reduce_fn: Callable[[float, float], float]):
        self._reduce = reduce_fn
        super().__init__(source)

    def _advance_to_top(self) -> None:
        src = self._source
        if not src.has_top():
            self._top = None
            return
        first = src.top()
        src.advance()
        acc = decode_number(first.value)
        while src.has_top() and src.top().key.same_cell(first.key):
            acc = self._reduce(acc, decode_number(src.top().value))
            src.advance()
        self._top = Cell(first.key, encode_number(acc))


# Each built-in combiner factory carries its ⊕ as ``reduce_fn``: the
# tablet's fused drain folds a table whose only iterator is one of
# these with the very function CombinerIterator applies, so ⊕ is
# defined once.


def SummingCombiner(source: SortedKVIterator) -> CombinerIterator:
    """Combiner summing all versions (Graphulo's ⊕ = +)."""
    return CombinerIterator(source, SummingCombiner.reduce_fn)


def MinCombiner(source: SortedKVIterator) -> CombinerIterator:
    """Combiner keeping the minimum version (tropical ⊕ = min)."""
    return CombinerIterator(source, MinCombiner.reduce_fn)


def MaxCombiner(source: SortedKVIterator) -> CombinerIterator:
    return CombinerIterator(source, MaxCombiner.reduce_fn)


SummingCombiner.reduce_fn = lambda a, b: a + b
MinCombiner.reduce_fn = min
MaxCombiner.reduce_fn = max


class PredicateFilterIterator(_WrappingIterator):
    """Keep only cells satisfying a predicate (Accumulo Filter)."""

    def __init__(self, source: SortedKVIterator,
                 predicate: Callable[[Cell], bool]):
        self._predicate = predicate
        super().__init__(source)

    def _advance_to_top(self) -> None:
        src = self._source
        while src.has_top():
            cell = src.top()
            src.advance()
            if self._predicate(cell):
                self._top = cell
                return
        self._top = None


class ColumnFilterIterator(PredicateFilterIterator):
    """Filter to an explicit qualifier set (server-side column
    projection beyond the seek-time filter)."""

    def __init__(self, source: SortedKVIterator, qualifiers: Iterable[str]):
        quals = frozenset(qualifiers)
        super().__init__(source, lambda c: c.key.qualifier in quals)


class RegexFilterIterator(PredicateFilterIterator):
    """Keep cells whose row / qualifier / value match the given regexes
    (Accumulo's RegExFilter).  ``None`` fields match everything."""

    def __init__(self, source: SortedKVIterator, row: str = None,
                 qualifier: str = None, value: str = None):
        import re

        row_re = re.compile(row) if row else None
        qual_re = re.compile(qualifier) if qualifier else None
        val_re = re.compile(value) if value else None

        def pred(cell: Cell) -> bool:
            if row_re and not row_re.search(cell.key.row):
                return False
            if qual_re and not qual_re.search(cell.key.qualifier):
                return False
            if val_re and not val_re.search(cell.value):
                return False
            return True

        super().__init__(source, pred)


class AgeOffIterator(PredicateFilterIterator):
    """Drop cells whose timestamp is ≤ ``cutoff`` (Accumulo's AgeOff
    filter against the tablet's logical clock) — retention policy as an
    iterator, applied at scan *and* made permanent by compaction."""

    def __init__(self, source: SortedKVIterator, cutoff: int):
        super().__init__(source, lambda c: c.key.timestamp > cutoff)


class RowReduceIterator(_WrappingIterator):
    """Fold every cell of a row into ONE output cell — the Reduce/fold
    terminal of an iterator stack (Graphulo's server-side aggregation,
    e.g. degree computation: one ``deg`` cell per vertex row).

    ``op`` is a monoid name ("sum" | "min" | "max"); ``count=True``
    folds cell *counts* instead of decoded values (out-degree vs
    weighted degree).  The output key is deterministic so local and
    remote stacks stay bit-identical: the source row, the configured
    output family/qualifier, empty visibility, and the *maximum*
    timestamp seen in the row group.
    """

    _OPS = {"sum": lambda a, b: a + b, "min": min, "max": max}

    def __init__(self, source: SortedKVIterator, op: str = "sum",
                 family: str = "", qualifier: str = "deg",
                 count: bool = False):
        if op not in self._OPS:
            raise ValueError(
                f"unknown reduce op {op!r}; known: {sorted(self._OPS)}")
        self._op = self._OPS[op]
        self._family = family
        self._qualifier = qualifier
        self._count = count
        super().__init__(source)

    def _advance_to_top(self) -> None:
        src = self._source
        if not src.has_top():
            self._top = None
            return
        first = src.top()
        src.advance()
        row = first.key.row
        acc = 1.0 if self._count else decode_number(first.value)
        max_ts = first.key.timestamp
        while src.has_top() and src.top().key.row == row:
            cell = src.top()
            src.advance()
            nxt = 1.0 if self._count else decode_number(cell.value)
            acc = self._op(acc, nxt)
            if cell.key.timestamp > max_ts:
                max_ts = cell.key.timestamp
        self._top = Cell(Key(row, self._family, self._qualifier, "",
                             max_ts), encode_number(acc))


class ApplyIterator(_WrappingIterator):
    """Transform each cell's numeric value with a unary function — the
    GraphBLAS Apply kernel executed server-side (Graphulo ApplyIterator)."""

    def __init__(self, source: SortedKVIterator,
                 fn: Callable[[float], float], drop_zero: bool = True):
        self._fn = fn
        self._drop_zero = drop_zero
        super().__init__(source)

    def _advance_to_top(self) -> None:
        src = self._source
        while src.has_top():
            cell = src.top()
            src.advance()
            out = self._fn(decode_number(cell.value))
            if self._drop_zero and out == 0:
                continue
            self._top = Cell(cell.key, encode_number(out))
            return
        self._top = None
