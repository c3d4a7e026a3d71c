"""Packed binary encoding for cell and mutation batches on the wire.

The hot frames of the RPC fabric — scan ``CHUNK`` payloads and
``WRITE_BATCH`` mutation batches — carry thousands of cells per frame.
Encoding each one as a JSON 7-list spends most of the frame on quoting
and most of the decode on building throwaway Python lists.  This module
packs the same 7-tuples columnar instead::

    !BI                 format version, cell count N
    5 × string column   (row, family, qualifier, visibility, value):
        !{N}I           per-entry byte lengths
        ...             the N UTF-8 entries, concatenated
    !{N}q               timestamps (int64)
    {N}s                delete flags (one byte each, 0/1)

Length-prefixed column arrays decode with two ``struct.unpack_from``
calls per column plus one ``memoryview`` slice per string — no
intermediate list-of-lists, no JSON tokenizer — and the decoder returns
*columns*, which is exactly the shape the engine's bulk paths
(``AssocArray.from_triples``, ``Tablet.write_columns``) want.  Encoding
a 10k-cell chunk is one ``b"".join`` of precomputed parts.

The columnar shape now has a first-class carrier: :class:`ColumnBatch`
holds the seven parallel columns (timestamps as ``array('q')``) and is
what the scan pipeline moves end to end — tablet drain, CHUNK encode,
client decode, engine consumption — materialising ``Cell`` objects only
when a caller actually iterates per cell (:meth:`ColumnBatch.cells`).

The encoded block is a frame *payload*; :mod:`repro.net.wire` marks it
with ``FLAG_CELLS`` (and optionally ``FLAG_ZLIB`` for per-chunk
compression) so the receiving side never guesses at the format.

Everything crossing this codec is the raw mutation shape ``(row,
family, qualifier, visibility, timestamp, delete, value)`` — cells and
mutations share it (a mutation is just a cell whose timestamp the
server may restamp), so one codec serves both directions.
"""

from __future__ import annotations

import struct
import sys
from array import array
from functools import partial
from itertools import accumulate
from typing import Iterable, List, Sequence, Tuple

from repro.dbsim.key import Cell, Key

#: bump when the block layout changes; verified on every decode
BLOCK_FORMAT = 1

#: ``new_key(fields)`` / ``new_cell((key, value))``: a :class:`Key` /
#: :class:`Cell` from one tuple of its fields, built by ``tuple.__new__``
#: in C — no ``__new__`` frame of the NamedTuple, no argument parsing.
#: Every cell made from columns (:meth:`ColumnBatch.cells`, and through
#: it :func:`~repro.dbsim.key.run_cells`) goes through these two.
new_key = partial(tuple.__new__, Key)
new_cell = partial(tuple.__new__, Cell)

_HDR = struct.Struct("!BI")

#: (row, family, qualifier, visibility, timestamp, delete, value)
MutTuple = Tuple[str, str, str, str, int, bool, str]

#: indexes of the five string components within a mutation tuple, in
#: block order (timestamps and delete flags are packed separately)
_STR_FIELDS = (0, 1, 2, 3, 6)

_LITTLE = sys.byteorder == "little"
#: array typecodes are only usable as wire codecs when their itemsize
#: matches the block layout exactly (4-byte lengths, 8-byte timestamps)
_ARR_I4 = array("I").itemsize == 4
_ARR_Q8 = array("q").itemsize == 8
#: below this count a ``struct.pack`` splat beats array+byteswap setup
_SPLAT_CUTOFF = 64


class BlockFormatError(ValueError):
    """The block bytes do not parse as a known cell-block layout."""


def _pack_u32(values, n: int) -> bytes:
    """Big-endian uint32 array; ``values`` may be any iterable of n
    ints.  Large columns go through ``array`` + ``byteswap`` (both C
    loops) instead of splatting n arguments into ``struct.pack``."""
    if n >= _SPLAT_CUTOFF and _ARR_I4:
        arr = array("I", values)
        if _LITTLE:
            arr.byteswap()
        return arr.tobytes()
    return struct.pack("!%dI" % n, *values)


def _pack_i64(values, n: int) -> bytes:
    """Big-endian int64 array (copies, so a caller's ``array('q')`` is
    never byteswapped in place)."""
    if n >= _SPLAT_CUTOFF and _ARR_Q8:
        arr = array("q", values)
        if _LITTLE:
            arr.byteswap()
        return arr.tobytes()
    return struct.pack("!%dq" % n, *values)


def encode_block(muts: Sequence[MutTuple]) -> bytes:
    """Pack mutation/cell 7-tuples into one binary block: the
    transpose of ``muts``, through :func:`encode_columns`."""
    if not muts:
        return _HDR.pack(BLOCK_FORMAT, 0)
    return encode_columns(*zip(*muts))


def encode_columns(rows: Sequence[str], families: Sequence[str],
                   qualifiers: Sequence[str], visibilities: Sequence[str],
                   timestamps, deletes, values: Sequence[str]) -> bytes:
    """Pack seven parallel columns into one binary block — the one
    encoder of the format (no per-cell tuples anywhere).

    ``timestamps`` may be any int sequence (``array('q')`` included);
    ``deletes`` may be a bool sequence or a ``bytes``/``bytearray``
    bitmap.
    """
    n = len(rows)
    if not n:
        return _HDR.pack(BLOCK_FORMAT, 0)
    parts: List[bytes] = [_HDR.pack(BLOCK_FORMAT, n)]
    for col in (rows, families, qualifiers, visibilities, values):
        blob = "".join(col)
        data = blob.encode("utf-8")
        if len(data) == len(blob):
            # pure ASCII: byte lengths == str lengths, so the column
            # encodes with ONE join + ONE encode instead of n encodes
            parts.append(_pack_u32(map(len, col), n))
        else:
            enc = [s.encode("utf-8") for s in col]
            parts.append(_pack_u32(map(len, enc), n))
            data = b"".join(enc)
        parts.append(data)
    parts.append(_pack_i64(timestamps, n))
    # scans carry no deletes and most write batches none: the all-zero
    # bitmap is one allocation
    parts.append(bytes(map(bool, deletes)) if any(deletes) else bytes(n))
    return b"".join(parts)


def _parse(buf) -> Tuple[List[str], List[str], List[str], List[str],
                         array, List[bool], List[str]]:
    """Shared block parser: columns out, timestamps as ``array('q')``."""
    view = memoryview(buf)
    if len(view) < _HDR.size:
        raise BlockFormatError(f"cell block too short: {len(view)} bytes")
    fmt, n = _HDR.unpack_from(view, 0)
    if fmt != BLOCK_FORMAT:
        raise BlockFormatError(f"cell block format {fmt} != supported "
                               f"{BLOCK_FORMAT}")
    off = _HDR.size
    str_cols: List[List[str]] = []
    try:
        lens_fmt = f"!{n}I"
        lens_size = 4 * n
        for _ in _STR_FIELDS:
            lens = struct.unpack_from(lens_fmt, view, off)
            off += lens_size
            total = sum(lens)
            col: List[str]
            if not total:
                # empty column (family/visibility are usually all "")
                col = [""] * n
            else:
                blob = str(view[off:off + total], "utf-8")
                if len(blob) == total:
                    # pure ASCII: char offsets == byte offsets, so the
                    # column decodes with ONE utf-8 pass + str slices;
                    # map(getitem, map(slice, ...)) keeps the per-entry
                    # work in C instead of interpreter dispatch
                    if total == n and max(lens) == 1:
                        # every entry is one char (family/qualifier
                        # columns usually are): list() splits in C
                        col = list(blob)
                    else:
                        bounds = list(accumulate(lens, initial=0))
                        col = list(map(blob.__getitem__,
                                       map(slice, bounds, bounds[1:])))
                else:
                    raw = view[off:off + total]
                    col = []
                    append = col.append
                    pos = 0
                    for ln in lens:
                        append(str(raw[pos:pos + ln], "utf-8"))
                        pos += ln
            off += total
            str_cols.append(col)
        if len(view) - off < 8 * n:
            raise struct.error("truncated timestamps")
        if _ARR_Q8:
            timestamps = array("q")
            timestamps.frombytes(view[off:off + 8 * n])
            if _LITTLE:
                timestamps.byteswap()
        else:  # pragma: no cover - exotic ABI
            timestamps = array("q", struct.unpack_from(f"!{n}q", view,
                                                       off))
        off += 8 * n
        flags = view[off:off + n]
        if len(flags) != n:
            raise struct.error("truncated delete flags")
        # scans carry no deletes (versioning eats them server-side), so
        # the all-zero bitmap short-circuits in C via any()
        deletes = [b != 0 for b in flags] if any(flags) else [False] * n
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        raise BlockFormatError(f"undecodable cell block: {exc}") from exc
    rows, fams, quals, vis, vals = str_cols
    return rows, fams, quals, vis, timestamps, deletes, vals


class ColumnBatch:
    """A batch of cells kept as seven parallel columns.

    This is the unit the zero-materialization scan path moves: the
    tablet drains its merge iterator into one, the server encodes the
    CHUNK block straight from it, the client decodes the block back
    into one, and the engine's bulk consumers (``from_triples``,
    ``degree_table``, BFS frontiers) read the columns directly.
    ``Cell``/``Key`` tuples exist only if someone calls :meth:`cells`
    (a remote ``for cell in scanner`` is ``chain.from_iterable`` of it
    over the batches).
    """

    __slots__ = ("rows", "families", "qualifiers", "visibilities",
                 "timestamps", "deletes", "values")

    def __init__(self, rows: List[str], families: List[str],
                 qualifiers: List[str], visibilities: List[str],
                 timestamps: array, deletes: List[bool],
                 values: List[str]):
        self.rows = rows
        self.families = families
        self.qualifiers = qualifiers
        self.visibilities = visibilities
        self.timestamps = timestamps
        self.deletes = deletes
        self.values = values

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColumnBatch):
            return NotImplemented
        return (self.rows == other.rows
                and self.families == other.families
                and self.qualifiers == other.qualifiers
                and self.visibilities == other.visibilities
                and list(self.timestamps) == list(other.timestamps)
                and self.deletes == other.deletes
                and self.values == other.values)

    @classmethod
    def empty(cls) -> "ColumnBatch":
        return cls([], [], [], [], array("q"), [], [])

    @classmethod
    def from_cells(cls, cells: Iterable[Cell]) -> "ColumnBatch":
        """The inverse of :meth:`cells`: a cell is ``(key, value)`` and
        a key six fields, so two transposes give the seven columns."""
        pairs = tuple(zip(*cells))
        if not pairs:
            return cls.empty()
        keys, values = pairs
        rows, fams, quals, viss, ts, dels = map(list, zip(*keys))
        return cls(rows, fams, quals, viss, array("q", ts), dels,
                   list(values))

    def cells(self) -> List[Cell]:
        """Materialise per-cell objects — the lazy escape hatch.

        ``Key`` and ``Cell`` are tuples, so the factories build each one
        straight from a ``zip`` row and the whole batch is two ``map``\\ s
        run in C: no Python frame per cell."""
        return list(map(new_cell, zip(map(new_key, zip(
            self.rows, self.families, self.qualifiers, self.visibilities,
            self.timestamps, self.deletes)), self.values)))

    def to_block(self) -> bytes:
        return encode_columns(self.rows, self.families, self.qualifiers,
                              self.visibilities, self.timestamps,
                              self.deletes, self.values)

    def last_key(self) -> List:
        """Resume token ``[row, family, qualifier, visibility,
        timestamp, delete]`` of the final entry."""
        i = len(self.rows) - 1
        return [self.rows[i], self.families[i], self.qualifiers[i],
                self.visibilities[i], self.timestamps[i],
                self.deletes[i]]

    def select(self, indices: Sequence[int]) -> "ColumnBatch":
        """A new batch holding only the entries at ``indices``."""
        rows, fams = self.rows, self.families
        quals, viss = self.qualifiers, self.visibilities
        ts, dels, vals = self.timestamps, self.deletes, self.values
        return ColumnBatch([rows[i] for i in indices],
                           [fams[i] for i in indices],
                           [quals[i] for i in indices],
                           [viss[i] for i in indices],
                           array("q", (ts[i] for i in indices)),
                           [dels[i] for i in indices],
                           [vals[i] for i in indices])

    def extend(self, other: "ColumnBatch") -> None:
        """Append ``other``'s entries in place (chunk coalescing)."""
        self.rows.extend(other.rows)
        self.families.extend(other.families)
        self.qualifiers.extend(other.qualifiers)
        self.visibilities.extend(other.visibilities)
        self.timestamps.extend(other.timestamps)
        self.deletes.extend(other.deletes)
        self.values.extend(other.values)


def decode_batch(buf) -> ColumnBatch:
    """Unpack a block into a :class:`ColumnBatch` (no ``Cell``\\ s)."""
    return ColumnBatch(*_parse(buf))


def decode_columns(buf) -> Tuple[List[str], List[str], List[str],
                                 List[str], List[int], List[bool],
                                 List[str]]:
    """Unpack a block into parallel columns ``(rows, families,
    qualifiers, visibilities, timestamps, deletes, values)``.

    ``buf`` may be ``bytes``, ``bytearray`` or ``memoryview``; string
    bytes are sliced out of a single memoryview (no per-column copy of
    the blob) and decoded straight to ``str``.  Timestamps come back as
    a plain ``List[int]``; bulk callers that can use ``array('q')``
    directly should prefer :func:`decode_batch`.
    """
    rows, fams, quals, vis, ts, dels, vals = _parse(buf)
    return rows, fams, quals, vis, ts.tolist(), dels, vals
