"""The server-side iterator framework: every layer is a batch stage.

Accumulo's killer extension point — and the mechanism Graphulo rides —
is a stack of iterators applied server-side to the sorted, merged cell
stream of each tablet.  Here every layer of that stack (visibility,
column / regex / age-off filters, versioning, combiners, Apply, the row
Reduce, and any layer a user writes) is a *batch stage*: a generator
function from :class:`~repro.net.cells.ColumnBatch` batches to
ColumnBatch batches.  A :class:`Layer` carries its stage, and a tablet
runs a scan as that chain of stages over its fused storage pass (sliced
runs → tombstones → versioning), building no per-cell object.

A per-cell Python predicate is a stage too::

    Layer(select_stage(lambda batch: map(pred, batch.cells())))
"""

from __future__ import annotations

import operator
import re
from array import array
from functools import partial
from itertools import compress, repeat
from typing import (Callable, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.dbsim.key import decode_number, encode_number

#: Column filter: None = all, else a set of (family, qualifier) pairs
#: where qualifier None means "whole family".
Columns = Optional[Sequence[Tuple[str, Optional[str]]]]


def _in_columns(family: str, qualifier: str, columns) -> bool:
    """The storage pass's column filter (``columns`` not ``None``)."""
    for fam, qual in columns:
        if family == fam and (qual is None or qualifier == qual):
            return True
    return False


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
                for column, pattern in (
                    (operator.attrgetter("rows"), row),
                    (operator.attrgetter("qualifiers"), qualifier),
                    (operator.methodcaller("text"), value)) if pattern]

    def mask(batch):
        hits = [map(search, column(batch)) for column, search in searches]
        if len(hits) < 2:
            return hits[0] if hits else None
        return map(all, zip(*hits))
    return select_stage(mask)


def age_off_stage(cutoff: int) -> Stage:
    """Drop entries whose timestamp is ≤ ``cutoff``."""
    return select_stage(lambda batch: map(partial(operator.lt, cutoff),
                                          batch.timestamps))


def distinct_stage(seen: Iterable[str] = ()) -> Stage:
    """Keep the first entry of each qualifier the stream holds, in key
    order — a BFS hop's new neighbours — and none of a qualifier in
    ``seen``.  Unlike every stage above, its state (the qualifiers
    seen) crosses rows: a stream resumed part-way is exact when ``seen``
    holds what its first part delivered."""
    seeded = frozenset(seen)

    def stage(batches):
        seen = set(seeded)
        add = seen.add
        for batch in batches:
            keep = [i for i, qual in enumerate(batch.qualifiers)
                    if qual not in seen and not add(qual)]
            if keep:
                yield batch if len(keep) == len(batch) else batch.select(keep)
    return stage


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
                                                 batch.numbers())):
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
            outs = list(map(fn, batch.numbers()))
            if drop_zero:
                keep = [i for i, out in enumerate(outs) if not out == 0]
                if len(keep) < len(outs):
                    batch = batch.select(keep)
                    outs = [outs[i] for i in keep]
            if outs:
                batch.set_numbers(outs)
                yield batch
    return stage


# -- layers: what iterator tuples hold ----------------------------------------


class Layer:
    """One iterator layer: a batch stage, and what the tablet may know
    about it.  The one thing ``table_iterators`` and ``scan_iterators``
    hold — a user-written layer is ``Layer(stage)``.

    ``op`` is the layer's wire form (an iterspec op dict), what a
    remote tablet is sent instead of the code; ``None`` for a layer
    that cannot cross the wire (it runs on the client, over the whole
    scan's batches).  ``reduce_fn`` is set on the built-in combiners
    only: the ⊕ the storage pass can fold by itself when the combiner
    is the table's first layer.
    """

    __slots__ = ("stage", "op", "reduce_fn")

    def __init__(self, stage: Stage, op: Optional[dict] = None,
                 reduce_fn: Optional[Callable] = None):
        self.stage = stage
        self.op = op
        self.reduce_fn = reduce_fn


def as_layers(items: Iterable, where: str) -> Tuple[Layer, ...]:
    """``items`` as a tuple of :class:`Layer`\\ s — the one check
    where layers enter (scanner construction, :class:`~repro.dbsim.
    server.TableConfig`), so a bad one fails there, not mid-scan."""
    items = tuple(items)
    for item in items:
        if not isinstance(item, Layer):
            raise TypeError(
                f"{where} must hold Layer(stage) objects, got {item!r}: "
                f"wrap a batch stage as Layer(stage), a per-cell "
                f"predicate as Layer(select_stage(lambda batch: "
                f"map(pred, batch.cells())))")
    return items


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
