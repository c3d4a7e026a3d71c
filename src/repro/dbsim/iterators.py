"""The server-side iterator framework: layers, stages, and the per-cell view.

Accumulo's killer extension point — and the mechanism Graphulo rides —
is a stack of iterators applied server-side to the sorted merged cell
stream of each tablet.  Here every row-/cell-local layer of that stack
(visibility, column / regex / age-off filters, versioning, combiners,
Apply, the row Reduce) is defined **once**, as a *batch stage*: a
generator function from :class:`~repro.net.cells.ColumnBatch` batches to
ColumnBatch batches.  A :class:`Layer` carries its stage, and a tablet whose
table and scan layers all carry one runs the scan as a chain of stages
over its fused storage pass — no per-cell object is built.

The classic per-cell contract is still here, for user-written
iterators (an opaque ``lambda src: ...`` layer) and for the public
per-cell classes:

* ``seek(range, columns)`` — position at the first cell inside the
  row range (and column family/qualifier filter);
* ``has_top()`` / ``top()`` — whether a current cell exists, and what
  it is;
* ``advance()`` — move to the next cell.

Each public per-cell class of the vocabulary (``CombinerIterator``,
``RegexFilterIterator``, ...) is a few lines over :class:`StageIterator`,
the one adapter that shows a stage through this contract.  A tablet
stacks a scan's layers bottom-up — table-configured layers (combiners,
filters), then scan-time layers — over one storage leaf, the same
fused pass (sliced runs → tombstones → versioning) the staged form
runs, and :func:`open_batches` turns the stack's top back into batches.
"""

from __future__ import annotations

import bisect
import operator
import re
from array import array
from functools import partial
from itertools import compress, islice, repeat
from typing import (Callable, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

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


def _in_columns(family: str, qualifier: str, columns) -> bool:
    """The seek-time column filter (``columns`` not ``None``)."""
    for fam, qual in columns:
        if family == fam and (qual is None or qualifier == qual):
            return True
    return False


def _column_match(key: Key, columns: Columns) -> bool:
    return columns is None or _in_columns(key.family, key.qualifier, columns)


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


# -- batch stages ------------------------------------------------------------
#
# Every row-/cell-local layer of the vocabulary is defined once, below,
# as a *stage*: a generator function ``Iterable[ColumnBatch] →
# Iterator[ColumnBatch]``.  The contract: batches arrive non-empty and
# in key order and leave non-empty and in key order; a stage looks at
# nothing beyond the cell (or row) group it is folding, so the state
# for a group that straddles a batch boundary lives in the generator's
# locals and a stage may be reused for any number of scans; a stage
# owns the batches it is handed (nothing upstream reads them again).

#: ``Iterable[ColumnBatch] → Iterator[ColumnBatch]``
Stage = Callable[[Iterable], Iterator]


def batches(it: SortedKVIterator, batch_cells: int) -> Iterator:
    """A seeked iterator's remaining cells as ColumnBatches of up to
    ``batch_cells`` entries — the bridge from the per-cell world into
    the batch world.  Each cell is taken off ``it`` (``top`` then
    ``advance``) only when the batch that holds it is being built."""
    from repro.net.cells import ColumnBatch  # lazy: dbsim ← net cycle

    def cells():
        while it.has_top():
            cell = it.top()
            it.advance()
            yield cell

    source = cells()
    while True:
        batch = ColumnBatch.from_cells(islice(source, batch_cells))
        if not len(batch):
            return
        yield batch


def open_batches(top: SortedKVIterator, rng: Range, columns: Columns,
                 batch_cells: int) -> Iterator:
    """Seek a stack's top and return its output as ColumnBatches.  A
    :class:`BatchIterator` top hands on the batches it already has —
    a stack of stage layers over a batch leaf builds no cell; any
    other top is seeked and re-batched ``batch_cells`` at a time."""
    if isinstance(top, BatchIterator):
        return top._open(rng, columns)
    top.seek(rng, columns)
    return batches(top, batch_cells)


def select_stage(mask) -> Stage:
    """A mask-select stage: ``mask(batch)`` gives one truthy/falsy
    flag per entry, or ``None`` to keep the whole batch."""
    def stage(batches):
        for batch in batches:
            flags = mask(batch)
            if flags is not None:
                keep = list(compress(range(len(batch)), flags))
                if len(keep) < len(batch):
                    batch = batch.select(keep)
            if len(batch):
                yield batch
    return stage


def visibility_stage(auths) -> Stage:
    """Cell-level security: drop the entries whose visibility
    expression the authorizations cannot satisfy (each distinct label
    is evaluated once per layer)."""
    can_see = auths.can_see
    verdicts: dict = {}

    def mask(batch):
        viss = batch.visibilities
        if not any(viss):
            return None  # "" is visible to every Authorizations
        for label in set(viss) - verdicts.keys():
            verdicts[label] = can_see(label)
        return map(verdicts.__getitem__, viss)
    return select_stage(mask)


def column_stage(qualifiers: Iterable[str]) -> Stage:
    """Keep an explicit qualifier set."""
    quals = frozenset(qualifiers)
    return select_stage(lambda batch: map(quals.__contains__,
                                          batch.qualifiers))


def regex_stage(row: str = None, qualifier: str = None,
                value: str = None) -> Stage:
    """Keep entries whose row / qualifier / value match the given
    regexes (``re.search``); ``None`` fields match everything."""
    searches = [(column, re.compile(pattern).search)
                for column, pattern in (("rows", row),
                                        ("qualifiers", qualifier),
                                        ("values", value)) if pattern]

    def mask(batch):
        hits = [map(search, getattr(batch, column))
                for column, search in searches]
        if len(hits) < 2:
            return hits[0] if hits else None
        return map(all, zip(*hits))
    return select_stage(mask)


def age_off_stage(cutoff: int) -> Stage:
    """Drop entries whose timestamp is ≤ ``cutoff``."""
    return select_stage(lambda batch: map(partial(operator.lt, cutoff),
                                          batch.timestamps))


def _cell_ids(batch):
    return zip(batch.rows, batch.families, batch.qualifiers,
               batch.visibilities)


def versions_stage(max_versions: int) -> Stage:
    """Keep the ``max_versions`` newest entries of each logical cell."""
    if max_versions < 1:
        raise ValueError(f"max_versions must be >= 1, got {max_versions}")

    def stage(batches):
        last, seen = None, 0  # the cell group open at a batch's end
        for batch in batches:
            keep = []
            for i, cid in enumerate(_cell_ids(batch)):
                if cid == last:
                    seen += 1
                else:
                    last, seen = cid, 1
                if seen <= max_versions:
                    keep.append(i)
            if keep:
                yield batch if len(keep) == len(batch) else batch.select(keep)
    return stage


def combiner_stage(reduce_fn: Callable[[float, float], float]) -> Stage:
    """Fold all versions of a logical cell into one entry: the newest
    version's key, the left fold of the decoded values, re-encoded."""
    def stage(batches):
        held = None  # the open group's first entry, as a 1-entry batch
        last, acc = None, 0.0
        for batch in batches:
            firsts: List[int] = []  # where this batch's groups begin
            closed: List[str] = []  # folded value per group that ended
            for i, (cid, value) in enumerate(zip(_cell_ids(batch),
                                                 batch.values)):
                value = decode_number(value)
                if cid == last:
                    acc = reduce_fn(acc, value)
                    continue
                if last is not None:
                    closed.append(encode_number(acc))
                last, acc = cid, value
                firsts.append(i)
            if not firsts:
                continue  # the whole batch folded into the open group
            out = batch.select(firsts[:-1])
            if held is not None:
                held.extend(out)
                out = held
            held = batch.select(firsts[-1:])
            if closed:
                out.values = closed
                yield out
        if held is not None:
            held.values = [encode_number(acc)]
            yield held
    return stage


_MONOIDS = {"sum": operator.add, "min": min, "max": max}


def reduce_stage(op: str = "sum", family: str = "", qualifier: str = "deg",
                 count: bool = False) -> Stage:
    """Fold every entry of a row into ONE output entry.  ``op`` is a
    monoid name ("sum" | "min" | "max"); ``count=True`` folds entry
    *counts* instead of decoded values.  The output key is
    deterministic: the source row, the configured family/qualifier,
    empty visibility, and the *maximum* timestamp seen in the row."""
    if op not in _MONOIDS:
        raise ValueError(
            f"unknown reduce op {op!r}; known: {sorted(_MONOIDS)}")
    fold = _MONOIDS[op]

    def stage(batches):
        from repro.net.cells import ColumnBatch  # lazy: dbsim ← net cycle

        def folded(rows, stamps, values):
            n = len(rows)
            return ColumnBatch(rows, [family] * n, [qualifier] * n, [""] * n,
                               array("q", stamps), [False] * n, values)

        row, acc, newest = None, 0.0, 0  # the row group still open
        for batch in batches:
            rows: List[str] = []
            stamps: List[int] = []
            values: List[str] = []
            for r, ts, value in zip(
                    batch.rows, batch.timestamps,
                    repeat(1.0) if count else map(decode_number,
                                                  batch.values)):
                if r == row:
                    acc = fold(acc, value)
                    if ts > newest:
                        newest = ts
                    continue
                if row is not None:
                    rows.append(row)
                    stamps.append(newest)
                    values.append(encode_number(acc))
                row, acc, newest = r, value, ts
            if rows:
                yield folded(rows, stamps, values)
        if row is not None:
            yield folded([row], [newest], [encode_number(acc)])
    return stage


def apply_stage(fn: Callable[[float], float],
                drop_zero: bool = True) -> Stage:
    """Map each entry's numeric value through ``fn`` — the GraphBLAS
    Apply kernel; with ``drop_zero`` results equal to 0 are dropped."""
    def stage(batches):
        for batch in batches:
            outs = [fn(decode_number(value)) for value in batch.values]
            if drop_zero:
                keep = [i for i, out in enumerate(outs) if not out == 0]
                if len(keep) < len(outs):
                    batch = batch.select(keep)
                    outs = [outs[i] for i in keep]
            if outs:
                batch.values = list(map(encode_number, outs))
                yield batch
    return stage


# -- layers: what iterator tuples hold ----------------------------------------


class Layer:
    """One iterator layer of the vocabulary, carrying its batch stage.

    A layer is still an ``IteratorFactory``: calling it with a source
    iterator gives the per-cell form (a :class:`StageIterator`), so it
    goes wherever a ``lambda src: ...`` goes.  But a scan whose table
    and scan layers *all* carry a ``stage`` never builds that form —
    the tablet feeds its fused storage pass through the stages.

    ``op`` is the layer's wire form (an iterspec op dict), what a
    remote tablet is sent instead of the code; ``None`` for a layer
    that cannot cross the wire.  ``reduce_fn`` is set on the built-in
    combiners only: the ⊕ the storage pass can fold by itself when
    the combiner is the table's first layer.
    """

    __slots__ = ("stage", "op", "reduce_fn")

    def __init__(self, stage: Stage, op: Optional[dict] = None,
                 reduce_fn: Optional[Callable] = None):
        self.stage = stage
        self.op = op
        self.reduce_fn = reduce_fn

    def __call__(self, source: SortedKVIterator) -> "StageIterator":
        return StageIterator(source, self.stage)


class BatchIterator(_WrappingIterator):
    """The cells of a batch stream, seen through the seek/top/advance
    contract.  A subclass says where the batches come from."""

    def __init__(self, source):
        self._cells: Iterator[Cell] = iter(())
        super().__init__(source)

    def _open(self, rng: Range, columns: Columns) -> Iterator:
        """Position the source; the ColumnBatches from there on."""
        raise NotImplementedError

    def seek(self, rng: Range, columns: Columns = None) -> None:
        self._cells = (cell for batch in self._open(rng, columns)
                       for cell in batch.cells())
        self._advance_to_top()

    def _advance_to_top(self) -> None:
        self._top = next(self._cells, None)


class StageIterator(BatchIterator):
    """A batch stage behind the per-cell contract — the one adapter
    under every per-cell class below.

    The source's cells enter the stage in batches of up to
    ``_READ_AHEAD``, each batch taken off the source only when the
    stage asks for it.  Over another :class:`BatchIterator` the stage
    takes that one's *batches*, so a run of k stage layers costs one
    cell→batch and one batch→cell conversion, not k."""

    _READ_AHEAD = 256

    def __init__(self, source: SortedKVIterator, stage: Stage):
        self._stage = stage
        super().__init__(source)

    def _open(self, rng: Range, columns: Columns) -> Iterator:
        return self._stage(open_batches(self._source, rng, columns,
                                        self._READ_AHEAD))


class VisibilityFilterIterator(StageIterator):
    """Server-side cell-level security: drop cells whose visibility
    expression the scan's authorizations cannot satisfy."""

    def __init__(self, source: SortedKVIterator, auths):
        super().__init__(source, visibility_stage(auths))


class VersioningIterator(StageIterator):
    """Keep the ``max_versions`` newest timestamps per logical cell
    (Accumulo's default table iterator, max_versions=1)."""

    def __init__(self, source: SortedKVIterator, max_versions: int = 1):
        super().__init__(source, versions_stage(max_versions))


class CombinerIterator(StageIterator):
    """Fold all versions of a logical cell into one value with a binary
    reduce on decoded numbers — Accumulo's Combiner family.  With a
    ``plus`` reduce this is the SummingCombiner that gives Graphulo its
    ⊕ accumulation on writes (duplicate inserts *combine*, they don't
    overwrite)."""

    def __init__(self, source: SortedKVIterator,
                 reduce_fn: Callable[[float, float], float]):
        super().__init__(source, combiner_stage(reduce_fn))


#: the built-in combiners by name (⊕ = + | min | max): the ``combiner``
#: op's vocabulary, and the only table iterators a remote table's
#: config may name
COMBINERS = {name: Layer(combiner_stage(fn), {"op": "combiner", "fn": name},
                         reduce_fn=fn)
             for name, fn in (("sum", operator.add), ("min", min),
                              ("max", max))}
SummingCombiner = COMBINERS["sum"]
MinCombiner = COMBINERS["min"]
MaxCombiner = COMBINERS["max"]


class ColumnFilterIterator(StageIterator):
    """Filter to an explicit qualifier set (server-side column
    projection beyond the seek-time filter)."""

    def __init__(self, source: SortedKVIterator, qualifiers: Iterable[str]):
        super().__init__(source, column_stage(qualifiers))


class RegexFilterIterator(StageIterator):
    """Keep cells whose row / qualifier / value match the given regexes
    (Accumulo's RegExFilter).  ``None`` fields match everything."""

    def __init__(self, source: SortedKVIterator, row: str = None,
                 qualifier: str = None, value: str = None):
        super().__init__(source, regex_stage(row, qualifier, value))


class AgeOffIterator(StageIterator):
    """Drop cells whose timestamp is ≤ ``cutoff`` (Accumulo's AgeOff
    filter against the tablet's logical clock) — retention policy as an
    iterator, applied at scan *and* made permanent by compaction."""

    def __init__(self, source: SortedKVIterator, cutoff: int):
        super().__init__(source, age_off_stage(cutoff))


class RowReduceIterator(StageIterator):
    """Fold every cell of a row into ONE output cell — the Reduce/fold
    terminal of an iterator stack (Graphulo's server-side aggregation,
    e.g. degree computation: one ``deg`` cell per vertex row).  See
    :func:`reduce_stage` for the arguments and the output key."""

    def __init__(self, source: SortedKVIterator, op: str = "sum",
                 family: str = "", qualifier: str = "deg",
                 count: bool = False):
        super().__init__(source, reduce_stage(op, family, qualifier, count))


class ApplyIterator(StageIterator):
    """Transform each cell's numeric value with a unary function — the
    GraphBLAS Apply kernel executed server-side (Graphulo ApplyIterator)."""

    def __init__(self, source: SortedKVIterator,
                 fn: Callable[[float], float], drop_zero: bool = True):
        super().__init__(source, apply_stage(fn, drop_zero))
