"""Server-side graph algorithms composed from Graphulo table ops.

The paper's §IV next step — "extend the sparse matrix implementations
of the algorithms discussed in this article to associative arrays ...
directly on Accumulo data structures" — realised for Jaccard
(Algorithm 2), k-truss (Algorithm 1) and Graphulo's triangle count as
Graphulo's two-table op in the tablet servers, never materialising a
client-side matrix larger than a degree vector.  An undirected
adjacency table ``E`` is its own transpose, so each is a *row-owned*
TableMult of ``E`` with itself (``table_a=E``): every step folds whole
output rows of its own tablets, masked by ``E`` or kept to the strict
upper triangle, and runs the algorithm's stage — the k-truss
threshold, the Jaccard coefficient — on them before it writes.  A
Jaccard call and a k-truss round are one op each.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.dbsim.client import Connector
from repro.dbsim.graphulo import (BLOCK_PARTIAL_PRODUCTS, _multiply,
                                  _one_table, _spec, table_mult)
from repro.dbsim.key import decode_number
from repro.dbsim.server import MultSpec
from repro.dbsim.stats import OpStats


def table_intersect(conn: Connector, left: str, right: str, out: str,
                    keep: str = "left") -> OpStats:
    """Structural intersection of two tables on (row, qualifier).

    One masked one-table op: the ``keep`` table ("left" or "right") is
    streamed and each of its cells whose (row, qualifier) the other
    table stores is written as is, family, visibility and timestamp
    kept.  Families are not compared — the pair is what every mask and
    TableMult match on — so a kept cell needs no cell of its own family
    on the other side, and every kept-side cell of a matched pair is
    written.  ``out`` is created split like the kept table if missing.
    """
    if keep not in ("left", "right"):
        raise ValueError(f"keep must be 'left' or 'right', got {keep!r}")
    kept, other = (left, right) if keep == "left" else (right, left)
    return _one_table(conn, kept, out, mask=other)


def _drop(conn: Connector, names: Iterable[str]) -> None:
    """Delete whichever of ``names`` exist: one listing, not a probe
    each."""
    for name in sorted(set(names).intersection(conn.instance.list_tables())):
        conn.delete_table(name)


def _fresh(conn: Connector, name: str) -> str:
    _drop(conn, [name])
    return name


def table_jaccard(conn: Connector, edge_table: str, out: str) -> OpStats:
    """Server-side Jaccard on an undirected 0/1 adjacency table ``A``:
    the degree vector (one scan of A reduced per row inside the tablet
    servers: O(n) to the client, not O(nnz)), then one row-owned
    TableMult of A with itself into the strict upper triangle, as
    Algorithm 2 computes it.  Each step folds the common-neighbour
    counts ``cn`` of its own rows, and its ``jaccard`` stage writes
    ``J(i,j) = cn / (dᵢ + dⱼ − cn)`` into a fresh ``out`` at (i, j) and
    at (j, i), the mirror to whichever server holds row j.
    """
    if out == edge_table:
        raise ValueError(f"out must not be the edge table {edge_table!r}")
    inst = conn.instance
    before = inst.total_stats().snapshot()
    # weighted degrees, folded per row inside the tablet servers
    degrees: Dict[str, float] = {}
    for batch in conn.scanner(
            edge_table, iterspec=_spec().reduce("sum", qualifier="deg")
    ).scan_columns():
        degrees.update(zip(batch.rows, map(decode_number, batch.values)))
    _multiply(conn, edge_table, MultSpec(
        edge_table, _fresh(conn, out), BLOCK_PARTIAL_PRODUCTS,
        triangle="upper", table_a=edge_table,
        post=_spec().jaccard(degrees).to_wire()))
    return inst.total_stats().delta(before)


def table_triangles(conn: Connector, edge_table: str,
                    tmp_prefix: str = "_tri") -> int:
    """Triangle count of an undirected simple graph's adjacency table,
    as Graphulo counts them (arXiv:1709.01054): one TableMult of E with
    itself under ⊗ = ``pair``, masked by E and kept to the strict upper
    triangle, leaves at each edge (i, j), i < j, the number of
    triangles through it.  A triangle sits on three such edges, so the
    count is that table's sum over 3.  The servers fold each row of it
    to one cell, and the client sums those; the temporary table is
    dropped however the call ends."""
    from repro.semiring.builtin import PAIR

    tmp = _fresh(conn, f"{tmp_prefix}_cn")
    try:
        table_mult(conn, edge_table, edge_table, tmp, mul=PAIR,
                   mask=edge_table, triangle="upper", table_a=edge_table)
        total = sum(
            sum(map(decode_number, batch.values))
            for batch in conn.scanner(
                tmp, iterspec=_spec().reduce("sum")).scan_columns())
    finally:
        _drop(conn, [tmp])
    return int(total) // 3


def table_pagerank(conn: Connector, edge_table: str, out: str,
                   jump: float = 0.15, tol: float = 1e-10,
                   max_iter: int = 200,
                   tmp_prefix: str = "_pr") -> OpStats:
    """Server-side PageRank: the rank vector lives in a one-column table
    and every power-method step is one TableMult against the edge table.

    Per iteration: ``walk = TableMult(A_norm, X)`` (Aᵀ·x with A's rows
    pre-normalised by out-degree — built once as a normalised copy of
    the edge table), then the jump/dangling correction is applied while
    streaming the result into the next vector table.  Stops on L1
    change ≤ ``tol``.  Writes the final ranks to ``out`` as
    ``(vertex, "", "rank") → value``.
    """
    if not 0.0 <= jump < 1.0:
        raise ValueError(f"jump must be in [0, 1), got {jump}")
    inst = conn.instance
    before = inst.total_stats().snapshot()

    # out-degrees (one scan), then a normalised edge table A/deg(row)
    degrees: Dict[str, float] = {}
    vertices = set()
    for batch in conn.scanner(edge_table).scan_columns():
        for row, dst, value in zip(batch.rows, batch.qualifiers,
                                   batch.values):
            degrees[row] = degrees.get(row, 0.0) + decode_number(value)
            vertices.add(row)
            vertices.add(dst)
    n = len(vertices)
    if n == 0:
        raise ValueError(f"edge table {edge_table!r} is empty")
    norm_table = _fresh(conn, f"{tmp_prefix}_norm")
    conn.create_table(norm_table)
    with conn.batch_writer(norm_table) as w:
        for batch in conn.scanner(edge_table).scan_columns():
            w.put_many(batch.rows, batch.qualifiers,
                       [decode_number(value) / degrees[row]
                        for row, value in zip(batch.rows, batch.values)])

    def read_vector(table: str) -> Dict[str, float]:
        vec: Dict[str, float] = {}
        for batch in conn.scanner(table).scan_columns():
            vec.update(zip(batch.rows, map(decode_number, batch.values)))
        return vec

    def write_vector(table: str, qualifier: str,
                     vec: Dict[str, float]) -> None:
        _fresh(conn, table)
        conn.create_table(table)
        with conn.batch_writer(table) as w:
            w.put_many(list(vec), [qualifier] * len(vec), list(vec.values()))

    x = {v: 1.0 / n for v in vertices}
    xt = f"{tmp_prefix}_x"
    for _ in range(max_iter):
        write_vector(xt, "x", x)
        walk_t = _fresh(conn, f"{tmp_prefix}_walk")
        table_mult(conn, norm_table, xt, walk_t)   # (A_norm)ᵀ · x
        walk = read_vector(walk_t)
        dangling = sum(val for v, val in x.items() if v not in degrees)
        base = jump / n + (1.0 - jump) * dangling / n
        x_new = {v: base + (1.0 - jump) * walk.get(v, 0.0)
                 for v in vertices}
        conn.delete_table(walk_t)
        change = sum(abs(x_new[v] - x[v]) for v in vertices)
        x = x_new
        if change <= tol:
            break
    conn.delete_table(norm_table)
    _fresh(conn, xt)
    write_vector(out, "rank", x)
    conn.flush(out)
    return inst.total_stats().delta(before)


def table_ktruss(conn: Connector, edge_table: str, out: str, k: int,
                 tmp_prefix: str = "_truss", max_rounds: int = 100) -> OpStats:
    """Server-side k-truss of an undirected adjacency table.

    Graphulo's adjacency-matrix formulation of Algorithm 1: each round
    is one row-owned TableMult of E with itself under ⊗ = ``pair``
    (edge values ignored), masked by E — per-edge triangle support on
    E's pattern — whose steps write the edges with support ≥ k−2 as 1:
    the next E.  Rounds write into ``out`` and one temporary table in
    turn, and stop when one kept every edge it read; ``out`` then
    holds the surviving adjacency table.
    """
    if k < 3 or out == edge_table:
        raise ValueError(f"need k >= 3 and out other than the edge table; "
                         f"got k={k}, out={out!r}")
    inst = conn.instance
    before = inst.total_stats().snapshot()
    tables = (out, f"{tmp_prefix}_e")
    _drop(conn, tables)
    survive = _spec().value_ge(k - 2).apply("clip", 1, 1).to_wire()
    current = edge_table
    try:
        for round_no in range(max_rounds):
            nxt = tables[round_no % 2]
            if round_no >= 2:
                conn.delete_table(nxt)  # the round before last's edges
            work = _multiply(conn, current, MultSpec(
                current, nxt, BLOCK_PARTIAL_PRODUCTS, mul="pair",
                post=survive, mask=current, table_a=current))
            current = nxt
            if work["cells_written"] == work["cells_read"]:
                break
        else:
            raise RuntimeError(
                f"k-truss did not converge in {max_rounds} rounds")
    except BaseException:
        _drop(conn, tables)
        raise
    _drop(conn, tables[1:])
    return inst.total_stats().delta(before)
