"""Packed binary encoding for cell and mutation batches on the wire.

The hot frames of the RPC fabric — scan ``CHUNK`` payloads and
``WRITE_BATCH`` mutation batches — carry thousands of cells per frame.
Encoding each one as a JSON 7-list spends most of the frame on quoting
and most of the decode on building throwaway Python lists.  This module
packs the same 7-tuples columnar, each string column dictionary-coded::

    !BI                 format version, cell count N (N = 0: nothing else)
    5 × string column   (row, family, qualifier, visibility, value):
        !I              U, the number of distinct strings (1 ≤ U ≤ N)
        !{U}I           their byte lengths
        ...             the U distinct UTF-8 strings, in first-occurrence
                        order, concatenated
        index           only when 1 < U < N: each entry's position in
                        that list, N big-endian unsigned ints of 1, 2 or
                        4 bytes as U ≤ 256, ≤ 65 536 or larger
    !{N}q               timestamps (int64)
    {N}s                delete flags (one byte each, 0/1)

U = 1 is one string N times (an all-empty family or visibility column
costs 8 bytes); U = N is a column of distinct strings, which is its own
list.  A scan chunk repeats its rows and qualifiers, so a column costs
its *distinct* strings: the decoder builds one ``str`` per distinct
string and the column is one C-level ``map`` over the index — no
``str`` per cell, and equal entries share one object and its cached
hash.  The decoder returns *columns*, which is exactly the shape the
engine's bulk paths (``AssocArray.from_triples``,
``Tablet.write_columns``) want.  Encoding a chunk is one ``b"".join``
of precomputed parts.

The columnar shape now has a first-class carrier: :class:`ColumnBatch`
holds the seven parallel columns (timestamps as ``array('q')``) and is
what the scan pipeline moves end to end — tablet drain, CHUNK encode,
client decode, engine consumption — materialising ``Cell`` objects only
when a caller actually iterates per cell (:meth:`ColumnBatch.cells`).

The encoded block is a frame *payload*; :mod:`repro.net.wire` marks it
with ``FLAG_CELLS`` so the receiving side never guesses at the format.

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
from operator import itemgetter
from typing import Iterable, List, Sequence, Tuple

from repro.dbsim.key import (Cell, Key, decode_number, encode_numbers,
                             field_columns)

#: bump when the block layout changes; verified on every decode
BLOCK_FORMAT = 2

#: ``new_key(fields)`` / ``new_cell((key, value))``: a :class:`Key` /
#: :class:`Cell` from one tuple of its fields, built by ``tuple.__new__``
#: in C — no ``__new__`` frame of the NamedTuple, no argument parsing.
#: Every cell made from columns (:meth:`ColumnBatch.cells`, and through
#: it :func:`~repro.dbsim.key.run_cells`) goes through these two.
new_key = partial(tuple.__new__, Key)
new_cell = partial(tuple.__new__, Cell)

_HDR = struct.Struct("!BI")
_U32 = struct.Struct("!I")
_U32X2 = struct.Struct("!II")

#: (row, family, qualifier, visibility, timestamp, delete, value)
MutTuple = Tuple[str, str, str, str, int, bool, str]

_LITTLE = sys.byteorder == "little"
#: array typecodes are only usable as wire codecs when their itemsize
#: matches the block layout exactly (4-byte lengths and index entries,
#: 8-byte timestamps)
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


def _index_width(u: int) -> int:
    """Bytes per index entry of a column with ``u`` distinct strings."""
    return 1 if u <= 1 << 8 else 2 if u <= 1 << 16 else 4


def _encode_strings(col: Sequence[str], n: int, parts: List[bytes]) -> None:
    """Append one string column of ``n`` entries to ``parts``: U, the
    distinct strings' lengths and bytes, then the index when 1 < U < N."""
    firsts = dict.fromkeys(col)  # insertion order: first occurrences
    u = len(firsts)
    if u == 1:
        # one string N times (family and visibility usually are ""):
        # U, its one length, its bytes
        data = col[0].encode("utf-8")
        parts += (_U32X2.pack(1, len(data)), data)
        return
    uniq = col if u == n else list(firsts)
    parts.append(_U32.pack(u))
    blob = "".join(uniq)
    data = blob.encode("utf-8")
    if len(data) == len(blob):
        # pure ASCII: byte lengths == str lengths, so the strings
        # encode with ONE join + ONE encode instead of U encodes
        parts.append(_pack_u32(map(len, uniq), u))
    else:
        enc = [s.encode("utf-8") for s in uniq]
        parts.append(_pack_u32(map(len, enc), u))
        data = b"".join(enc)
    parts.append(data)
    if 1 < u < n:
        index = map(dict(zip(uniq, range(u))).__getitem__, col)
        width = _index_width(u)
        if width == 1:
            parts.append(bytes(index))
        elif width == 4:
            parts.append(_pack_u32(index, n))
        else:
            arr = array("H", index)
            if _LITTLE:
                arr.byteswap()
            parts.append(arr.tobytes())


def encode_block(muts: Sequence[MutTuple]) -> bytes:
    """Pack mutation/cell 7-tuples into one binary block: the
    transpose of ``muts``, through :func:`encode_columns`."""
    return encode_columns(*field_columns(muts, 7))


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
        _encode_strings(col, n, parts)
    parts.append(_pack_i64(timestamps, n))
    # scans carry no deletes and most write batches none: the all-zero
    # bitmap is one allocation
    parts.append(bytes(map(bool, deletes)) if any(deletes) else bytes(n))
    return b"".join(parts)


def _take(view: memoryview, off: int, size: int, what: str) -> memoryview:
    """``size`` bytes of ``view`` from ``off``: a slice would silently
    come up short on a truncated block."""
    if len(view) - off < size:
        raise BlockFormatError(f"cell block truncated in its {what}")
    return view[off:off + size]


def _decode_strings(view: memoryview, off: int, n: int
                    ) -> Tuple[List[str], int]:
    """One string column of ``n`` entries at ``off``: the column, and
    the offset past it."""
    u = _U32.unpack_from(view, off)[0]
    if u == 1:
        # one string N times: no list of lengths to walk, no index
        size = _U32.unpack_from(view, off + 4)[0]
        off += 8
        return [str(_take(view, off, size, "strings"), "utf-8")] * n, \
            off + size
    if not 0 < u <= n:
        raise BlockFormatError(f"string column of {n} entries claims {u} "
                               f"distinct strings")
    off += 4
    lens = struct.unpack_from(f"!{u}I", view, off)
    off += 4 * u
    total = sum(lens)
    raw = _take(view, off, total, "strings")
    off += total
    blob = str(raw, "utf-8")
    if len(blob) == total:
        # pure ASCII: char offsets == byte offsets, so the strings
        # decode with ONE utf-8 pass + str slices; map(getitem,
        # map(slice, ...)) keeps the per-string work in C
        if total == u and max(lens) == 1:
            # every string is one char (family/qualifier columns
            # usually are): list() splits in C
            uniq = list(blob)
        else:
            bounds = list(accumulate(lens, initial=0))
            uniq = list(map(blob.__getitem__, map(slice, bounds, bounds[1:])))
    else:
        uniq = []
        append = uniq.append
        pos = 0
        for ln in lens:
            append(str(raw[pos:pos + ln], "utf-8"))
            pos += ln
    if u == n:
        return uniq, off
    width = _index_width(u)
    raw = _take(view, off, width * n, "index")
    off += width * n
    if width == 1:
        index = raw  # a memoryview of bytes iterates as ints
    elif width == 2 or _ARR_I4:
        index = array("H" if width == 2 else "I")
        index.frombytes(raw)
        if _LITTLE:
            index.byteswap()
    else:  # pragma: no cover - exotic ABI
        index = struct.unpack_from(f"!{n}I", raw)
    # an entry past the list raises IndexError: a malformed block
    return list(map(uniq.__getitem__, index)), off


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
    if not n:
        return [], [], [], [], array("q"), [], []
    if len(view) < _HDR.size + 9 * n:
        # every cell takes a timestamp and a delete flag: a count this
        # block cannot hold is refused before a column is allocated
        raise BlockFormatError(f"cell block of {len(view)} bytes cannot "
                               f"hold {n} cells")
    off = _HDR.size
    str_cols: List[List[str]] = []
    try:
        for _ in range(5):
            col, off = _decode_strings(view, off, n)
            str_cols.append(col)
        raw = _take(view, off, 8 * n, "timestamps")
        off += 8 * n
        if _ARR_Q8:
            timestamps = array("q")
            timestamps.frombytes(raw)
            if _LITTLE:
                timestamps.byteswap()
        else:  # pragma: no cover - exotic ABI
            timestamps = array("q", struct.unpack_from(f"!{n}q", raw))
        flags = _take(view, off, n, "delete flags")
        # scans carry no deletes (versioning eats them server-side), so
        # the all-zero bitmap short-circuits in C via any()
        deletes = [b != 0 for b in flags] if any(flags) else [False] * n
    except BlockFormatError:
        raise
    except (struct.error, ValueError, IndexError) as exc:
        # ValueError covers UnicodeDecodeError
        raise BlockFormatError(f"undecodable cell block: {exc}") from exc
    rows, fams, quals, vis, vals = str_cols
    return rows, fams, quals, vis, timestamps, deletes, vals


class ColumnBatch:
    """A batch of cells kept as seven parallel columns.

    This is the unit the zero-materialization scan path moves: the
    tablet drains its merge iterator into one, the server encodes the
    CHUNK block straight from it, the client decodes the block back
    into one, and the engine's bulk consumers (``from_triples``, a
    two-table op's steps, BFS frontiers) read the columns directly.
    ``Cell``/``Key`` tuples exist only if someone calls :meth:`cells`
    (a remote ``for cell in scanner`` is ``chain.from_iterable`` of it
    over the batches).

    ``values`` are strings, except inside a two-table op's step: there
    they are the step's float64 array until someone reads them as text.
    Only this class tells the two apart.  A stage reads the values as
    :meth:`numbers` or :meth:`text` and replaces them by
    :meth:`set_numbers`; everything else here reads text, so each
    number is encoded once (:func:`~repro.dbsim.key.encode_numbers`).
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
                and self.text() == other.text())

    @classmethod
    def from_cells(cls, cells: Iterable[Cell]) -> "ColumnBatch":
        """The inverse of :meth:`cells`: a cell is ``(key, value)`` and
        a key six fields, so two transposes give the seven columns."""
        keys, values = field_columns(cells, 2)
        rows, fams, quals, viss, ts, dels = field_columns(keys, 6)
        return cls(rows, fams, quals, viss, array("q", ts), dels, values)

    def cells(self) -> List[Cell]:
        """Materialise per-cell objects — the lazy escape hatch.

        ``Key`` and ``Cell`` are tuples, so the factories build each one
        straight from a ``zip`` row and the whole batch is two ``map``\\ s
        run in C: no Python frame per cell."""
        return list(map(new_cell, zip(map(new_key, zip(
            self.rows, self.families, self.qualifiers, self.visibilities,
            self.timestamps, self.deletes)), self.text())))

    def text(self) -> List[str]:
        """The values as a tablet stores them: a step's numbers are
        encoded, once — the batch keeps the text."""
        if not isinstance(self.values, list):
            self.values = encode_numbers(self.values)
        return self.values

    def numbers(self) -> List[float]:
        """The values as floats: text decoded (``ValueError`` if one is
        not numeric), a step's numbers as they are."""
        if isinstance(self.values, list):
            return list(map(decode_number, self.values))
        return self.values.tolist()

    def set_numbers(self, numbers: Sequence[float]) -> None:
        """Replace the values by ``numbers``, held as the values were:
        encoded in place of text, a float64 array in a step."""
        if isinstance(self.values, list):
            self.values = encode_numbers(numbers)
        else:
            import numpy as np  # a step's batch: numpy is loaded

            self.values = np.asarray(numbers, dtype=np.float64)

    def columns(self) -> list:
        """The seven columns, as a tablet stores them."""
        return [self.rows, self.families, self.qualifiers,
                self.visibilities, self.timestamps, self.deletes,
                self.text()]

    def to_block(self) -> bytes:
        return encode_columns(*self.columns())

    def last_key(self) -> List:
        """Resume token ``[row, family, qualifier, visibility,
        timestamp, delete]`` of the final entry."""
        i = len(self.rows) - 1
        return [self.rows[i], self.families[i], self.qualifiers[i],
                self.visibilities[i], self.timestamps[i],
                self.deletes[i]]

    def select(self, indices: Sequence[int]) -> "ColumnBatch":
        """A new batch holding only the entries at ``indices``: one
        C-level ``itemgetter`` call per column, or one fancy index of a
        step's float64 values."""
        if len(indices) > 1:
            get = itemgetter(*indices)
        else:  # an itemgetter of one index returns the item, not a tuple
            def get(column):
                return [column[i] for i in indices]
        values = self.values
        return ColumnBatch(list(get(self.rows)), list(get(self.families)),
                           list(get(self.qualifiers)),
                           list(get(self.visibilities)),
                           array("q", get(self.timestamps)),
                           list(get(self.deletes)),
                           list(get(values)) if isinstance(values, list)
                           else values[list(indices)])

    def extend(self, other: "ColumnBatch") -> None:
        """Append ``other``'s entries in place (chunk coalescing)."""
        self.rows.extend(other.rows)
        self.families.extend(other.families)
        self.qualifiers.extend(other.qualifiers)
        self.visibilities.extend(other.visibilities)
        self.timestamps.extend(other.timestamps)
        self.deletes.extend(other.deletes)
        self.text().extend(other.text())


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
