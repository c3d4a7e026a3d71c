"""Accumulo-style keys, cells, and ranges.

A cell is ``Key(row, family, qualifier, visibility, timestamp) → value``
with the Accumulo sort order: lexicographic on (row, family, qualifier,
visibility), then timestamp *descending* (newest version first).  All
key components and values are strings — the D4M convention the paper
builds on (numbers are encoded with :func:`encode_number`).
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter, neg
from typing import (Iterable, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)


def encode_number(x: float) -> str:
    """Encode a number as a value string (integral floats lose the .0)."""
    f = float(x)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


#: :func:`encode_numbers` formats fewer values than this one by one:
#: below it numpy's per-call set-up costs more than the calls it saves
#: (64 Jaccard coefficients: 65 µs one by one, 48 µs vectorised; 32:
#: 20 µs against 60 µs)
VECTOR_MIN = 64


def encode_numbers(values) -> List[str]:
    """``list(map(encode_number, values))``, bit for bit, for a value
    column — a float64 array or any sequence of numbers — as a step
    writes one: integral values with ``|x| < 1e15`` become ``str(int)``,
    the rest ``repr(float)``.

    From :data:`VECTOR_MIN` values up, when the process holds numpy
    already, each *distinct* value is formatted once (``np.unique``) —
    a product's counts and a Jaccard table's small-integer ratios
    repeat: 4 096 coefficients take 0.35 ms, not 2.5 ms.  A server that
    has never multiplied reads its combiner tables without loading
    numpy."""
    np = sys.modules.get("numpy") if len(values) >= VECTOR_MIN else None
    if np is None:
        if hasattr(values, "tolist"):  # an array: its floats, not scalars
            values = values.tolist()
        return list(map(encode_number, values))
    arr = np.asarray(values, dtype=np.float64)
    # ±0 fall together, as do NaNs: each pair's texts are equal
    distinct, where = np.unique(arr, return_inverse=True)
    return list(map(_formatted(np, distinct).__getitem__, where.tolist()))


def _formatted(np, arr) -> List[str]:
    """:func:`encode_number` of every value of a float64 array: one
    numpy pass picks the integral values, and each kind is formatted by
    one C-level ``map``."""
    whole = np.abs(arr) < 1e15
    whole &= arr == np.trunc(arr)
    if whole.all():
        return list(map(str, arr.astype(np.int64).tolist()))
    out = list(map(repr, arr.tolist()))
    at = np.flatnonzero(whole)
    for i, text in zip(at.tolist(),
                       map(str, arr[at].astype(np.int64).tolist())):
        out[i] = text
    return out


#: Parse a value string back to a float (raises ValueError if not
#: numeric): ``float`` itself, so ``map(decode_number, values)`` decodes
#: a column with no Python frame per value.
decode_number = float


class Key(NamedTuple):
    """An immutable Accumulo key.

    ``delete=True`` marks a tombstone: it suppresses every version of
    the same logical cell with an equal or older timestamp, and is
    dropped (along with what it hides) at major compaction.

    A key is a tuple — built in C (see :data:`repro.net.cells.new_key`),
    hashed and compared for equality field by field — so it equals a
    plain 6-tuple with the same fields.  Ordering is *not* the tuple
    order: all four comparisons go through :meth:`sort_tuple`.
    """

    row: str
    family: str = ""
    qualifier: str = ""
    visibility: str = ""
    timestamp: int = 0
    delete: bool = False

    def sort_tuple(self) -> Tuple[str, str, str, str, int, int]:
        # timestamp negated: newer versions sort first; a delete sorts
        # before a put at the same timestamp (Accumulo's tie-break)
        return (self.row, self.family, self.qualifier, self.visibility,
                -self.timestamp, 0 if self.delete else 1)

    # every one of the four: a tuple's own would order timestamps
    # ascending
    def __lt__(self, other: "Key") -> bool:
        return self.sort_tuple() < other.sort_tuple()

    def __le__(self, other: "Key") -> bool:
        return self.sort_tuple() <= other.sort_tuple()

    def __gt__(self, other: "Key") -> bool:
        return self.sort_tuple() > other.sort_tuple()

    def __ge__(self, other: "Key") -> bool:
        return self.sort_tuple() >= other.sort_tuple()

    def same_cell(self, other: "Key") -> bool:
        """True when the keys address the same logical cell (all
        components except timestamp equal) — the versioning boundary."""
        return (self.row == other.row and self.family == other.family
                and self.qualifier == other.qualifier
                and self.visibility == other.visibility)

    def cell_id(self) -> Tuple[str, str, str, str]:
        return (self.row, self.family, self.qualifier, self.visibility)


class Cell(NamedTuple):
    """A key-value pair (a 2-tuple: ``key, value = cell`` unpacks it)."""

    key: Key
    value: str

    def triple(self) -> Tuple[str, str, str]:
        """(row, qualifier, value) — the sparse-matrix view of a cell."""
        return (self.key.row, self.key.qualifier, self.value)


#: What storage holds for a key — the tuple :meth:`Key.sort_tuple`
#: defines: ``(row, family, qualifier, visibility, -timestamp, 0 if
#: delete else 1)``.  Tuples compare in C, so a run of cells is kept as
#: two aligned lists, ``(keys, values)``, and sorted, bisected and
#: merged without a per-cell object.
SortKey = Tuple[str, str, str, str, int, int]


def sort_keys(rows: Sequence[str], families: Sequence[str],
              qualifiers: Sequence[str], visibilities: Sequence[str],
              timestamps: Sequence[int],
              deletes: Sequence[bool]) -> List[SortKey]:
    """Six aligned key columns → their sort-key tuples, by one ``zip``."""
    puts = ([0 if d else 1 for d in deletes] if any(deletes)
            else repeat(1))
    return list(zip(rows, families, qualifiers, visibilities,
                    map(neg, timestamps), puts))


def field_columns(rows: Iterable[Sequence], width: int) -> List[list]:
    """The transpose of ``rows``, each ``width`` fields long: one list
    per field, each built by one C-level ``map(itemgetter(i), rows)``.
    No rows give ``width`` empty lists.

    The one bulk row → column transpose.  ``zip`` over the unpacked
    rows builds the same columns but holds a GC-tracked tuple iterator
    per row until it finishes, so a 10 000-row transpose wakes the
    cycle collector many times and promotes thousands of objects into
    its oldest generation, whose full collections walk the whole heap.
    This allocates no tracked object per row."""
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)
    return [list(map(itemgetter(i), rows)) for i in range(width)]


def key_columns(keys: Sequence[SortKey]) -> Tuple[
        List[str], List[str], List[str], List[str], List[int], List[bool]]:
    """Inverse of :func:`sort_keys`: ``(rows, families, qualifiers,
    visibilities, timestamps, deletes)``."""
    rows, fams, quals, viss, neg_ts, puts = field_columns(keys, 6)
    return (rows, fams, quals, viss, list(map(neg, neg_ts)),
            [not put for put in puts])


def sort_run(keys: List[SortKey],
             values: List[str]) -> Tuple[List[SortKey], List[str]]:
    """A run's two lists in key order, as new lists.  The sort is a
    stable index permutation keyed on the tuples themselves, so equal
    keys keep their arrival order and no Python function runs per
    comparison."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return (list(map(keys.__getitem__, order)),
            list(map(values.__getitem__, order)))


def run_cells(keys: Sequence[SortKey], values: Sequence[str]) -> List[Cell]:
    """A stored ``(keys, values)`` run as :class:`Cell` objects — for
    the callers that ask for cells; no scan or write path does.  Built
    by :meth:`~repro.net.cells.ColumnBatch.cells`, the one place cells
    are made from columns."""
    from repro.net.cells import ColumnBatch  # lazy: dbsim ← net cycle

    return ColumnBatch(*key_columns(keys), values).cells()


#: Sentinel strings bounding all real keys (rows are non-empty text).
_MIN = ""
_MAX = "\U0010FFFF" * 4


@dataclass(frozen=True)
class Range:
    """A row-range ``[start_row, stop_row)`` (half open; ``None`` =
    unbounded on that side) — the unit of a NoSQL range scan and of
    tablet assignment."""

    start_row: Optional[str] = None
    stop_row: Optional[str] = None

    @classmethod
    def exact_row(cls, row: str) -> "Range":
        return cls(row, row + "\0")

    @classmethod
    def prefix(cls, prefix: str) -> "Range":
        return cls(prefix, prefix + chr(0x10FFFF))

    def contains_row(self, row: str) -> bool:
        if self.start_row is not None and row < self.start_row:
            return False
        if self.stop_row is not None and row >= self.stop_row:
            return False
        return True

    def clip(self, other: "Range") -> Optional["Range"]:
        """Intersection with another range, or None when disjoint."""
        lo = self.start_row if other.start_row is None else (
            other.start_row if self.start_row is None
            else max(self.start_row, other.start_row))
        hi = self.stop_row if other.stop_row is None else (
            other.stop_row if self.stop_row is None
            else min(self.stop_row, other.stop_row))
        if lo is not None and hi is not None and lo >= hi:
            return None
        return Range(lo, hi)

    def single_row(self) -> Optional[str]:
        """The only row a non-empty instance of this range can contain,
        or ``None`` when it may span several rows.  ``exact_row``
        ranges qualify — the case point-lookup bloom filters serve."""
        if (self.start_row is not None and self.stop_row is not None
                and self.stop_row <= self.start_row + "\0"):
            return self.start_row
        return None

    def effective_start(self) -> str:
        return _MIN if self.start_row is None else self.start_row

    def effective_stop(self) -> str:
        return _MAX if self.stop_row is None else self.stop_row


#: What a scan carries: one range, or a *range set* — a list of ranges
#: that is sorted and disjoint (see :func:`sorted_disjoint`).
RangeSet = Union[Range, Sequence[Range]]


def sorted_disjoint(ranges: Sequence[Range]) -> bool:
    """True when the bounds never step backwards — ``start <= stop`` in
    every range and each range ends at or before the next begins, with
    only the first start and the last stop open.  That is the
    precondition of a range set: per-range order is then global key
    order, and one forward pass over a sorted run serves them all.  A
    single range is always a set."""
    if len(ranges) < 2:
        return True
    bound = _MIN
    for i, rng in enumerate(ranges):
        start = rng.effective_start()
        if start < bound or (i and rng.start_row is None):
            return False
        if rng.stop_row is None:
            return i == len(ranges) - 1
        if rng.stop_row < start:
            return False
        bound = rng.stop_row
    return True


def covering(ranges: Sequence[Range]) -> Range:
    """The smallest single range containing a (non-empty) range set."""
    return Range(ranges[0].start_row, ranges[-1].stop_row)


def clip_ranges(ranges: RangeSet, extent: Range) -> List[Range]:
    """The part of a range set inside ``extent``, as a range set.

    Two bisects find the run of ranges that reach into the extent;
    only the two at its ends can straddle a boundary, so only they are
    clipped — routing 2 000 frontier rows to four tablets costs eight
    bisects, not 8 000 ``clip`` calls."""
    if isinstance(ranges, Range):
        ranges = (ranges,)
    lo = 0 if extent.start_row is None else bisect_right(
        ranges, extent.start_row, key=Range.effective_stop)
    hi = len(ranges) if extent.stop_row is None else bisect_left(
        ranges, extent.stop_row, lo, key=Range.effective_start)
    out = list(ranges[lo:hi])
    if out:
        out[0] = extent.clip(out[0])
        if len(out) > 1:
            out[-1] = extent.clip(out[-1])
        if out[0] is None or out[-1] is None:  # an empty range at an end
            out = [r for r in out if r is not None]
    return out
