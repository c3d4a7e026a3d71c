"""Graphulo server-side operations.

These are the database-resident forms of the GraphBLAS kernels — the
paper's stated goal ("use Accumulo server components such as iterators
to perform graph analytics"):

* :func:`table_mult` — SpGEMM as Graphulo's TableMult, run by the
  tablet servers: each one streams the rows of its own tablets of the
  stored-transpose ``AT``, merge-joined with the matching rows of ``B``
  (a local scan, or a peer server's), multiplies a bounded block of
  shared rows at a time, and writes the summed cells straight into
  ``out``, whose *summing combiner* performs ⊕ across blocks and
  servers when ``out`` is read — ``out`` is flushed, not compacted, and
  neither operand nor the product passes through the client.  Given
  ``table_a`` (``A = ATᵀ`` stored by rows) each server instead owns
  whole output rows (:func:`multiply_owned`): it gathers the ``B`` rows
  its ``A`` rows reach, folds each output row, and writes it once;
* :func:`degree_table` (the D4M schema's Tdeg, one Reduce),
  :func:`apply_to_table` and :func:`filter_table` — Graphulo's
  one-table op: each server streams its tablets through the stage
  into ``out``'s, and no cell passes through the client;
* :func:`table_bfs` — k-hop BFS by repeated BatchScanner row fetches of
  the frontier (Graphulo's adjacency-table BFS), each tablet returning
  only the distinct neighbours it holds.

All take a :class:`~repro.dbsim.client.Connector`; result tables are
created on demand with the right combiner.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, groupby
from typing import (Callable, Dict, Iterable, Iterator, Optional, Sequence,
                    Set)

from repro.dbsim.client import Connector
from repro.dbsim.iterators import (
    COMBINERS,
    Layer,
    apply_stage,
    select_stage,
)
from repro.dbsim.key import Cell, Range, decode_number, encode_numbers
from repro.dbsim.server import Instance, MultSpec, TableConfig
from repro.dbsim.stats import OpStats
from repro.obs import trace as _trace

def create_combiner_table(conn: Connector, name: str, combiner: str = "sum",
                          splits: Sequence[str] = ()) -> None:
    """Create a table whose versions of a cell fold with ``combiner`` —
    the Accumulo idiom for accumulating writes (⊕ on collision)."""
    if combiner not in COMBINERS:
        raise ValueError(f"combiner must be one of {sorted(COMBINERS)}, "
                         f"got {combiner!r}")
    conn.create_table(name, TableConfig.combining(combiner), splits=splits)


def _spec():
    """Fresh empty iterator-stack spec.  Imported lazily: dbsim modules
    must not import :mod:`repro.net` at module scope (net imports dbsim)."""
    from repro.net.iterspec import IterSpec
    return IterSpec()


def _default_mul(a: float, b: float) -> float:
    """Default ⊗ for TableMult (arithmetic multiply).  Kept as a named
    module-level function so TableMult can recognise it and send the
    vectorised TIMES operator's name instead of a Python call."""
    return a * b


#: TableMult multiplies a block of shared inner rows once the block's
#: predicted partial products Σₜ nnz(AT[t,:])·nnz(B[t,:]) reach this
#: many: a tablet server's multiply memory is O(this bound + one inner
#: row), whatever the size of the tables.  Bigger blocks pre-sum more
#: before the write (scale-9 R-MAT AᵀA: 163k cells written at 2**16,
#: 88k at 2**18 and at no bound at all); 2**18 products are a few tens
#: of MB.
BLOCK_PARTIAL_PRODUCTS = 1 << 18


def table_mult(conn: Connector, table_at: str, table_b: str, out: str,
               mul: Callable[[float, float], float] = _default_mul,
               combiner: str = "sum", authorizations=None,
               mask: Optional[str] = None,
               triangle: Optional[str] = None,
               table_a: Optional[str] = None) -> OpStats:
    """Graphulo TableMult: ``C = Aᵀ ⊕.⊗ B`` with ``AT`` stored row-wise
    (Accumulo can only iterate rows, hence the stored transpose — the
    same reason the D4M schema keeps TedgeT).

    One control-plane operation (:meth:`~repro.dbsim.server.
    ControlPlane.table_mult`) on either backend, and the loop runs in
    the tablet servers, not here: each server hosting ``AT`` tablets
    streams them, in extent order, merge-joined with ``B``'s rows in the
    same extents, multiplies, and writes the result into ``out``
    (:meth:`~repro.dbsim.server.TabletServer.multiply_tablets`); on a
    cluster the servers' steps run at the same time (in process, one
    after another in the same order), then ``out`` is flushed.
    Whole shared rows gather into a block until its predicted partial
    products reach :data:`BLOCK_PARTIAL_PRODUCTS`, and a block never
    spans two servers.  Each block runs through the SpGEMM kernel
    (:func:`repro.sparse.spgemm.mxm`) and its already-summed cells are
    written to ``out`` at a timestamp the plan gives the block, so
    ``out``'s combiner applies ⊕ across blocks, servers and repeated
    calls in one order whenever ``out`` is read (or compacted),
    whichever step finished first.  A missing ``out`` is split like
    ``AT``, each tablet beside its ``AT`` twin; an existing one
    must combine with ``combiner`` and keep every version
    (:func:`create_combiner_table` makes one), or ``ValueError`` is
    raised before anything runs.  Cells of one inner row that share a
    qualifier (differing in family or visibility) are ⊕-combined before
    the multiply.

    ``mul`` is ⊗: the default multiply, a built-in
    :class:`~repro.semiring.ops.BinaryOp` (it travels by name), or — in
    process only — any Python callable; a cluster refuses one with
    :class:`~repro.net.iterspec.NonSerializableIteratorError` before
    any RPC.  ``combiner`` (⊕) is ``"sum"``, ``"min"`` or ``"max"``;
    another raises ``ValueError``, also before any RPC.

    ``mask`` names a table whose stored (row, qualifier) pairs are the
    only cells ``out`` receives, and ``triangle="upper"`` keeps only
    the cells whose row key is below their qualifier (Algorithm 2's
    strict upper triangle).  Both are applied before the fold, so the
    rest are never summed, written or stamped; each block reads just
    the mask rows it writes, where the mask's tablets live.  A missing
    mask raises ``KeyError`` before ``out`` is created.

    ``table_a`` names the table that stores ``A = ATᵀ`` by rows — for
    an undirected adjacency table, ``AT`` itself — and makes every
    step own whole output rows: the servers hosting ``table_a``'s
    tablets each stream their ``A`` rows a block at a time, read the
    ``B`` rows the block reaches (a local scan, or one range-set scan
    per peer tablet), fold each output row whole and write each cell
    once (:func:`multiply_owned`).  ``AT`` is then only checked to
    exist: the steps read ``table_a``.  A missing ``out`` is split like
    ``table_a`` and created plain — no combiner completes a cell
    written once — and a mask that is ``table_a`` is read where the
    rows are.  A missing ``table_a`` raises ``KeyError`` before ``out``
    is created.  Without ``table_a`` a step writes partial products
    that ``out``'s combiner folds, which is why a stage after a
    TableMult (the ``post`` of :class:`~repro.dbsim.server.MultSpec`,
    which the algorithms of :mod:`repro.dbsim.graphulo_algorithms`
    use) needs ``table_a``: ``MultSpec`` refuses one without it with
    ``ValueError``, before any RPC.  Returns the instance-wide stats
    delta for the whole operation (the cost model).
    """
    spec = MultSpec(
        table_b, out, BLOCK_PARTIAL_PRODUCTS,
        mul=_operand(conn, _mul_name(mul), mul,
                     "table_mult takes mul as a built-in BinaryOp"),
        combiner=combiner,
        auths=sorted(authorizations.tokens) if authorizations else [],
        mask=mask, triangle=triangle, table_a=table_a)
    inst = conn.instance
    before = inst.total_stats().snapshot()
    _multiply(conn, table_at, spec)
    return inst.total_stats().delta(before)


def _one_table(conn: Connector, table: str, out: str, post=None,
               mask: Optional[str] = None, authorizations=None) -> OpStats:
    """Graphulo's one-table op: each server streams its tablets of
    ``table`` through ``post`` (and ``mask``) into the ``out`` tablets
    beside them — a missing ``out`` is created plain, split like
    ``table`` — and the op's instance-wide stats delta."""
    inst = conn.instance
    before = inst.total_stats().snapshot()
    _multiply(conn, table, MultSpec(
        None, out, BLOCK_PARTIAL_PRODUCTS,
        auths=sorted(authorizations.tokens) if authorizations else [],
        post=post, mask=mask))
    return inst.total_stats().delta(before)


def _multiply(conn: Connector, table_at: str, spec: MultSpec
              ) -> Dict[str, int]:
    """One two-table op, ``spec`` over ``table_at`` — a TableMult as
    :func:`table_mult` runs it, or a one-table op when ``spec.table_b``
    is ``None`` — under a ``graphulo.table_mult`` span that carries its
    work counts, and those counts; the algorithms' entry, whose specs
    may carry a ``post``."""
    with _trace.span("graphulo.table_mult", stats=conn.instance.total_stats,
                     table_at=table_at, table_b=spec.table_b, out=spec.out,
                     combiner=spec.combiner) as sp:
        work = conn.instance.table_mult(table_at, spec)
        sp.set(**work)
        return work


def _operand(conn: Connector, wire, local, what: str):
    """A caller's operand as a spec carries it: ``wire``, its wire
    form, if any, else — in process only — ``local``, its Python form;
    a cluster refuses that with ``NonSerializableIteratorError``, before
    any RPC, ``what`` naming what it takes instead."""
    if wire is None and not isinstance(conn.instance, Instance):
        from repro.net.iterspec import NonSerializableIteratorError
        raise NonSerializableIteratorError(
            f"{what} over a cluster; the Python callable cannot cross "
            f"the wire")
    return local if wire is None else wire


def _mul_name(mul) -> Optional[str]:
    """The name ``mul`` travels by, when it is a built-in binary
    operator (the default multiply is ``"times"``)."""
    if mul is _default_mul:
        return "times"
    from repro.semiring.builtin import BINARY_OPS

    name = getattr(mul, "name", None)
    return name if BINARY_OPS.get(name) is mul else None


def _semiring(mul, combiner: str):
    """The ``(⊕, ⊗)`` of one TableMult: the out table's combiner, and
    ``mul`` — a built-in operator's name, or a Python callable."""
    from repro.semiring.builtin import (BINARY_OPS, MAX_MONOID, MIN_MONOID,
                                        PLUS_MONOID)
    from repro.semiring.ops import BinaryOp, Semiring

    if isinstance(mul, str):
        if mul not in BINARY_OPS:
            raise ValueError(f"unknown mul operator {mul!r}; "
                             f"known: {sorted(BINARY_OPS)}")
        mulop = BINARY_OPS[mul]
    else:
        mulop = BinaryOp.from_python("table_mult_mul", mul)
    add = {"sum": PLUS_MONOID, "min": MIN_MONOID, "max": MAX_MONOID}[combiner]
    return Semiring(f"table_mult_{combiner}", add, mulop)


def _block_operand(counts, quals, vals, index, dup):
    """One side of a block — cells per inner row, then every cell's
    qualifier and value — as an inner rows × keys CSR, a qualifier's
    column its position in ``index``."""
    # numpy and the kernels load with the first multiply, not with the
    # module: a tablet server imports repro.dbsim and never gets here
    # until it multiplies
    import numpy as np

    from repro.sparse.construct import from_coo

    return from_coo(
        len(counts), len(index), np.repeat(np.arange(len(counts)), counts),
        np.fromiter(map(index.__getitem__, quals), np.intp, len(quals)),
        np.fromiter(map(decode_number, vals), np.float64, len(vals)),
        dup=dup)


def _multiply_block(at, b, semiring, mask, triangle):
    """``ATᵀ ⊕.⊗ B`` over one block of shared inner rows (one operand
    when ``b`` is ``at``): the summed result as ``(keys, row ids,
    qualifier ids, float64 values)`` in key order, ids into the sorted
    ``keys`` both sides index their qualifiers by — so the kernel's
    upper triangle is the keys'.  ``mask`` is ``None`` or an iterable
    of the (row, qualifier) pairs the result may hold, drained once
    both operands are built (a read it waits on overlaps that work);
    ``triangle`` ``"upper"`` keeps row key < qualifier.  Both drop
    products before the fold."""
    from repro.sparse.construct import from_coo
    from repro.sparse.select import triu
    from repro.sparse.spgemm import mxm
    from repro.sparse.symmetric import mxm_triu

    keys = sorted(set(at[1]).union(b[1]))
    index = {key: i for i, key in enumerate(keys)}
    mat_b = _block_operand(*b, index, semiring.add)
    mat_at = (mat_b if b is at else _block_operand(*at, index,
                                                     semiring.add)).T
    if mask is not None:
        pairs = [(index[row], index[qual]) for row, qual in mask
                 if row in index and qual in index]
        mask = from_coo(len(keys), len(keys),
                        [i for i, _ in pairs], [j for _, j in pairs])
        if triangle:
            mask = triu(mask, 1)
        product = mxm(mat_at, mat_b, semiring=semiring, mask=mask)
    elif triangle:
        product = mxm_triu(mat_at, mat_b, semiring=semiring, k=1)
    else:
        product = mxm(mat_at, mat_b, semiring=semiring)
    return (keys, *product.to_coo())


def _named(keys, ids):
    """The keys at ``ids``, a block's ids into its key list."""
    return list(map(keys.__getitem__, ids.tolist()))


def _whole_rows(batches):
    """``(row, qualifiers, values)`` for every row of a columnar stream,
    in key order — a row comes out whole however the batches (tablets,
    CHUNK frames) split it."""
    row, quals, vals = None, [], []
    for batch in batches:
        rows = batch.rows
        lo, n = 0, len(rows)
        while lo < n:
            if rows[lo] != row:
                if row is not None:
                    yield row, quals, vals
                row, quals, vals = rows[lo], [], []
            # rows are sorted: bisect to the end of this row's run
            hi = n if rows[-1] == row else bisect_right(rows, row, lo, n)
            quals += batch.qualifiers[lo:hi]
            vals += batch.values[lo:hi]
            lo = hi
    if row is not None:
        yield row, quals, vals


def _joined_rows(at_rows, b_rows):
    """The whole inner rows ``AT`` and ``B`` share, as ``(AT row, B
    row)`` pairs in key order: two sorted row streams (as
    :func:`_whole_rows` yields them) advanced in lockstep (Graphulo's
    TwoTableIterator).  ``b_rows`` of ``None`` means ``B`` is ``AT``
    (``AᵀA``): each row comes alone, as ``(AT row,)``."""
    if b_rows is None:
        yield from zip(at_rows)
        return
    ra, rb = next(at_rows, None), next(b_rows, None)
    while ra is not None and rb is not None:
        if ra[0] < rb[0]:
            ra = next(at_rows, None)
        elif rb[0] < ra[0]:
            rb = next(b_rows, None)
        else:
            yield ra, rb
            ra, rb = next(at_rows, None), next(b_rows, None)


def _joined_blocks(at_rows, b_rows, bound: int):
    """:func:`_joined_rows` gathered into blocks: per side, (cells per
    inner row, qualifiers, values), and the block's predicted partial
    products Σₜ nnz(AT[t,:])·nnz(B[t,:]).  A block closes once that
    reaches ``bound``, so it holds fewer than ``bound`` cells of either
    side plus one inner row — every row it holds has a partial product
    per cell — and its boundaries follow the row sequence alone.  When
    ``B`` is ``AT`` (``b_rows`` of ``None``) its ``b`` is its ``at``."""
    at, b, predicted = ([], [], []), ([], [], []), 0
    for joined in _joined_rows(at_rows, b_rows):
        for side, (_, quals, vals) in zip((at, b), joined):
            side[0].append(len(quals))
            side[1].extend(quals)
            side[2].extend(vals)
        predicted += len(joined[0][1]) * len(joined[-1][1])
        if predicted >= bound:
            yield at, at if b_rows is None else b, predicted
            at, b, predicted = ([], [], []), ([], [], []), 0
    if predicted:
        yield at, at if b_rows is None else b, predicted


def multiply_rows(at_batches, b_batches, spec: MultSpec, write,
                  read_mask, stamps: Iterator[int]) -> Dict[str, int]:
    """One server's share of TableMult, where its rows live:
    ``at_batches`` streams its ``AT`` tablets' cells and ``b_batches``
    ``B``'s cells in the same extents (``None`` when ``B`` is ``AT``),
    both column batches in key order.  The two are merge-joined on the
    inner row and multiplied a block at a time; ``write(columns)``
    takes each block's summed cells in key order as the seven columns
    a tablet stores, every cell of a block at the block's timestamp,
    the next of ``stamps`` — the plan's, not ``out``'s clock, so no
    two partial cells of a key tie and ``out``'s combiner folds them
    in one order whichever step's write lands first.  Under a
    ``spec.mask``, ``read_mask(rows)`` opens the reads of the mask's
    cells in the sorted output ``rows`` of a block (its ``AT``
    qualifiers) and returns their stream of column batches.  Memory is
    O(:data:`BLOCK_PARTIAL_PRODUCTS` + one inner row) whatever the
    tables' size.  Block boundaries follow the
    cell sequence alone, so every backend writes the same cells at the
    same stamps.  Returns the share's work counts."""
    semiring = _semiring(spec.mul, spec.combiner)
    work = {"blocks": 0, "partial_products": 0, "cells_written": 0}
    for at, b, predicted in _joined_blocks(
            _whole_rows(at_batches),
            None if b_batches is None else _whole_rows(b_batches),
            spec.block_products):
        mask = None if spec.mask is None else _pairs(
            read_mask(sorted(set(at[1]))))
        keys, rows, quals, vals = _multiply_block(at, b, semiring, mask,
                                                  spec.triangle)
        n = len(rows)
        write((_named(keys, rows), [""] * n, _named(keys, quals), [""] * n,
               [next(stamps)] * n, [False] * n, encode_numbers(vals)))
        work["blocks"] += 1
        work["partial_products"] += predicted
        work["cells_written"] += len(rows)
    return work


def _pairs(batches):
    """The (row, qualifier) pairs of a stream of column batches."""
    return chain.from_iterable(zip(batch.rows, batch.qualifiers)
                               for batch in batches)


def mask_cells(batches, read_mask):
    """The cells of a columnar stream whose (row, qualifier) a mask
    stores, as column batches in key order, family, visibility and
    timestamp kept: a masked one-table op's step.  ``read_mask(rows)``
    opens the reads of the mask's cells in a batch's sorted rows, as
    for a masked :func:`multiply_rows` block."""
    for batch in batches:
        pairs = set(_pairs(read_mask(list(dict.fromkeys(batch.rows)))))
        keep = [i for i, pair in enumerate(zip(batch.rows, batch.qualifiers))
                if pair in pairs]
        if keep:
            yield batch if len(keep) == len(batch) else batch.select(keep)


def _row_blocks(batches, bound: int):
    """A columnar stream's cells as blocks of whole rows, ``(rows,
    qualifiers, values)`` per cell in key order: a block closes once
    it holds ``bound`` cells, so it holds fewer than ``bound`` plus one
    row."""
    rows: list = []
    quals: list = []
    vals: list = []
    for row, row_quals, row_vals in _whole_rows(batches):
        rows += [row] * len(row_quals)
        quals += row_quals
        vals += row_vals
        if len(rows) >= bound:
            yield rows, quals, vals
            rows, quals, vals = [], [], []
    if rows:
        yield rows, quals, vals


def _by_qualifier(rows, quals, vals):
    """A block of ``A`` cells as the rows of ``AT``: ``(qualifier, the
    rows holding it, their values)`` in qualifier order, rows in key
    order within one."""
    order = sorted(range(len(quals)), key=quals.__getitem__)  # stable
    for qual, group in groupby(order, quals.__getitem__):
        group = list(group)
        yield (qual, [rows[i] for i in group], [vals[i] for i in group])


def _fold_parts(parts, add):
    """Several blocks' products (:func:`_multiply_block`'s) — the same
    output rows, disjoint inner rows — folded with ⊕ into one over the
    union of their keys, ids remapped as arrays; a cell's values fold
    in the order of ``parts``."""
    import numpy as np

    from repro.sparse.construct import from_coo

    keys = sorted(set().union(*(part[0] for part in parts)))
    index = {key: i for i, key in enumerate(keys)}
    moves = [np.fromiter(map(index.__getitem__, part[0]), np.intp,
                         len(part[0])) for part in parts]
    rows, cols = (np.concatenate([move[part[i]] for move, part
                                  in zip(moves, parts)]) for i in (1, 2))
    folded = from_coo(len(keys), len(keys), rows, cols,
                      np.concatenate([part[3] for part in parts]), dup=add)
    return (keys, *folded.to_coo())


def multiply_owned(a_batches, spec: MultSpec, read_b, read_mask, write,
                   stamps: Iterator[int]) -> Dict[str, int]:
    """One server's share of a row-owned TableMult (``spec.table_a``
    given): ``a_batches`` streams its ``A`` tablets' cells in key
    order, ``A`` stored by rows, and the step owns every output row of
    them.  It takes ``A`` in blocks of whole rows (closing at
    ``spec.block_products`` cells) and, per block:

    * ``read_b(qualifiers)`` opens the reads of the ``B`` rows the
      block's sorted qualifiers name and returns their column batches,
      in key order; they are gathered in blocks of whole rows as
      :func:`multiply_rows` gathers, so no more than the block bound
      plus one row of ``B`` cells is held at once (the ``peak_gathered``
      work count is the most held);
    * ``spec.mask``'s cells in the block's rows are read once for all
      of them — they are the block's own cells when the mask is ``A``
      itself, else ``read_mask(rows)``'s, opened after the ``B`` reads;
    * each gathered block is multiplied (:func:`_multiply_block`) under
      that mask or ``spec.triangle`` and its product folded with ⊕ into
      the block's output as it comes, so every output row ends whole
      and summed, and no more than the block's output plus one gathered
      block's product is held at once (``peak_held``, in cells);
    * ``spec.post`` runs on those rows, their values still float64,
      and ``write(columns)`` takes each batch it yields, values encoded,
      every cell at the block's stamp, the next of ``stamps``.  A cell
      is written once: no ``out`` combiner completes it.

    Returns the share's work counts, ``cells_read`` being ``A``'s."""
    from array import array

    from repro.net.cells import ColumnBatch
    from repro.net.iterspec import post_layers

    semiring = _semiring(spec.mul, spec.combiner)
    post = post_layers(spec.post)
    work = {"blocks": 0, "partial_products": 0, "cells_written": 0,
            "cells_read": 0, "peak_gathered": 0, "peak_held": 0}
    for rows, quals, vals in _row_blocks(a_batches, spec.block_products):
        work["cells_read"] += len(rows)
        b_rows = _whole_rows(read_b(sorted(set(quals))))
        mask = (None if spec.mask is None
                else list(zip(rows, quals)) if spec.mask == spec.table_a
                else list(_pairs(read_mask(list(dict.fromkeys(rows))))))
        held = ((), (), (), ())
        for at, b, predicted in _joined_blocks(
                _by_qualifier(rows, quals, vals), b_rows,
                spec.block_products):
            part = _multiply_block(at, b, semiring, mask, spec.triangle)
            work["peak_held"] = max(work["peak_held"],
                                    len(held[1]) + len(part[1]))
            if len(part[1]):
                held = (_fold_parts([held, part], semiring.add)
                        if len(held[1]) else part)
            work["blocks"] += 1
            work["partial_products"] += predicted
            work["peak_gathered"] = max(work["peak_gathered"], len(b[1]))
        stamp = next(stamps)
        keys, out_rows, out_quals, out_vals = held
        n = len(out_rows)
        if not n:
            continue
        stream = [ColumnBatch(_named(keys, out_rows), [""] * n,
                              _named(keys, out_quals), [""] * n,
                              array("q", [stamp]) * n, [False] * n,
                              out_vals)]
        for layer in post:
            stream = layer.stage(stream)
        for batch in stream:
            write(batch.columns())
            work["cells_written"] += len(batch)
    return work


def degree_table(conn: Connector, table: str, out: str,
                 count_entries: bool = False, authorizations=None) -> OpStats:
    """Build/refresh a degree table: ``out[row, "", "deg"] = Σ_cols v``
    (or the entry count with ``count_entries=True``) — the D4M Tdeg,
    as a one-table op whose ``reduce`` writes each row's cell at the
    row's newest timestamp.  A refresh rebuilds an ``out`` that does
    not combine: it drops it, and the op creates it again split like
    ``table``, so a row that lost cells reads its new degree and a row
    that lost them all has none.  An ``out`` that combines adds each
    refresh to what it holds."""
    reduce = _spec().reduce("sum", qualifier="deg", count=count_entries)
    with _trace.span("graphulo.degree_table", stats=conn.instance.total_stats,
                     table=table, out=out):
        if conn.table_exists(out) and not any(
                conn.instance.config(out).folds(name) for name in COMBINERS):
            conn.delete_table(out)
        return _one_table(conn, table, out, reduce.to_wire(),
                          authorizations=authorizations)


def apply_to_table(conn: Connector, table: str, out: str,
                   fn: Callable[[float], float],
                   drop_zero: bool = True, authorizations=None) -> OpStats:
    """Server-side Apply into ``out`` as a one-table op, family,
    visibility and timestamp kept.  ``fn`` is an ``IterSpec`` of
    ``apply`` ops, or — in process only; a cluster raises
    ``NonSerializableIteratorError`` before any RPC — a Python
    callable, whose zero results ``drop_zero`` drops."""
    post = _operand(conn, None if callable(fn) else fn.to_wire(),
                    [Layer(apply_stage(fn, drop_zero))],
                    "apply_to_table takes fn as an IterSpec")
    return _one_table(conn, table, out, post, authorizations=authorizations)


def filter_table(conn: Connector, table: str, out: str,
                 predicate: Callable[[Cell], bool],
                 authorizations=None) -> OpStats:
    """Server-side value/key filter into ``out`` as a one-table op,
    kept cells as they are.  ``predicate`` is an ``IterSpec``
    (``where_value``, ``regex``, ``column`` ops), or — in process only,
    as for :func:`apply_to_table` — a Python callable taking a
    :class:`Cell`: the one place a Graphulo op builds any."""
    post = _operand(
        conn, None if callable(predicate) else predicate.to_wire(),
        [Layer(select_stage(lambda batch: map(predicate, batch.cells())))],
        "filter_table takes predicate as an IterSpec")
    return _one_table(conn, table, out, post, authorizations=authorizations)


def table_bfs(conn: Connector, edge_table: str, seeds: Iterable[str],
              hops: int, min_degree: Optional[float] = None,
              degree_table_name: Optional[str] = None,
              authorizations=None) -> Dict[str, int]:
    """k-hop BFS over an adjacency table (row = source vertex, column
    qualifier = destination vertex).

    Per hop: one BatchScanner fetch of the frontier's rows with the
    ``distinct`` op pushed down, so each tablet returns the first cell
    of each neighbour it holds, not every edge of the frontier; the
    neighbours not yet reached become the next frontier.  With
    ``min_degree`` and a degree table, high-volume "supernode" rows
    below the threshold are skipped — the Graphulo degree-filtered
    BFS.  Both scans run under ``authorizations``.  Returns ``vertex →
    hop discovered`` (seeds at 0).
    """
    if hops < 0:
        raise ValueError(f"hops must be >= 0, got {hops}")
    if min_degree is not None and degree_table_name is None:
        raise ValueError("min_degree filtering requires degree_table_name")
    with _trace.span("graphulo.table_bfs", stats=conn.instance.total_stats,
                     table=edge_table, hops=hops,
                     degree_filtered=min_degree is not None) as sp:
        dist: Dict[str, int] = {}
        frontier: Set[str] = set()
        for s in seeds:
            dist[s] = 0
            frontier.add(s)
        if not frontier:
            raise ValueError("need at least one seed vertex")

        def frontier_above(vertices: Set[str]) -> Set[str]:
            """One coalesced BatchScanner fetch of the frontier's degree
            rows with a ``value >= min_degree`` filter pushed down the
            iterator stack — sub-threshold rows are dropped inside the
            tablet server and never cross the wire."""
            bs = conn.batch_scanner(degree_table_name,
                                    authorizations=authorizations,
                                    iterspec=_spec().value_ge(min_degree))
            bs.set_ranges([Range.exact_row(v) for v in sorted(vertices)])
            keep: Set[str] = set()
            for batch in bs.scan_columns():
                keep.update(batch.rows)
            return keep & vertices

        neighbours = _spec().distinct()
        for hop in range(1, hops + 1):
            if min_degree is not None:
                frontier = frontier_above(frontier)
            if not frontier:
                break
            # sorted disjoint exact-row ranges are one range set: each
            # tablet is visited once this hop, slices out just these rows
            # and returns each neighbour among them once
            bs = conn.batch_scanner(edge_table, authorizations=authorizations,
                                    iterspec=neighbours)
            bs.set_ranges([Range.exact_row(v) for v in sorted(frontier)])
            nxt: Set[str] = set()
            for batch in bs.scan_columns():
                for dst in batch.qualifiers:
                    if dst not in dist:
                        dist[dst] = hop
                        nxt.add(dst)
            frontier = nxt
        sp.set(reached=len(dist))
        return dist
