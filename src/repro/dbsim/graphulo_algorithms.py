"""Server-side graph algorithms composed from Graphulo table ops.

The paper's §IV next step — "extend the sparse matrix implementations
of the algorithms discussed in this article to associative arrays ...
directly on Accumulo data structures" — realised for the two worked
algorithms: Jaccard (Algorithm 2) and k-truss (Algorithm 1), and
Graphulo's triangle count, running as sequences of Graphulo's
two-table op on database tables — a TableMult
(:func:`~repro.dbsim.graphulo.table_mult`, masked or upper-triangular
where the algorithm needs only part of the product), an element-wise
join or a one-table scan (:func:`~repro.dbsim.graphulo.two_table`),
each with a pushed-down stage before its write — in the tablet
servers, never materialising a client-side matrix larger than a degree
vector.  (The real Graphulo library shipped exactly these as its
flagship ops in its follow-up papers.)
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.dbsim.client import Connector
from repro.dbsim.graphulo import _spec, table_mult, two_table
from repro.dbsim.key import decode_number
from repro.dbsim.stats import OpStats


def table_intersect(conn: Connector, left: str, right: str, out: str,
                    keep: str = "left") -> OpStats:
    """Structural intersection of two tables on (row, family, qualifier).

    One ``ewise`` two-table op: the ``keep`` table ("left" or "right")
    is streamed in lockstep with the other (the TwoTableIterator
    pattern again) and, for each key present in *both*, its cell is
    written as is.  This is the masked-write primitive that lets
    server-side k-truss keep only surviving edges.
    """
    if keep not in ("left", "right"):
        raise ValueError(f"keep must be 'left' or 'right', got {keep!r}")
    inst = conn.instance
    before = inst.total_stats().snapshot()
    kept, other = (left, right) if keep == "left" else (right, left)
    two_table(conn, kept, out, other, join="ewise")
    return inst.total_stats().delta(before)


def _drop(conn: Connector, names: Iterable[str]) -> None:
    """Delete whichever of ``names`` exist: one listing, not a probe
    each."""
    for name in sorted(set(names).intersection(conn.instance.list_tables())):
        conn.delete_table(name)


def _fresh(conn: Connector, name: str) -> str:
    _drop(conn, [name])
    return name


def table_jaccard(conn: Connector, edge_table: str, out: str,
                  tmp_prefix: str = "_jac") -> OpStats:
    """Server-side Jaccard on an undirected 0/1 adjacency table.

    Pipeline (every step a table op):

    1. ``CN = triu(TableMult(A, A), 1)`` — common-neighbour counts (A
       symmetric, pattern values) of the strict upper triangle only, as
       Algorithm 2 computes them, accumulated by the result table's sum
       combiner;
    2. degree vector — one scan of A reduced per row inside the tablet
       servers (fits client memory: O(n), not O(nnz));
    3. one one-table op over CN whose ``jaccard`` stage emits
       ``J(i,j) = cn / (dᵢ + dⱼ − cn)`` into ``out`` for each CN cell,
       and the same value at ``(j, i)``: both triangle halves.
    """
    inst = conn.instance
    before = inst.total_stats().snapshot()
    cn_table = _fresh(conn, f"{tmp_prefix}_cn")
    try:
        table_mult(conn, edge_table, edge_table, cn_table, triangle="upper")
        # weighted degrees, folded per row inside the tablet servers
        degrees: Dict[str, float] = {}
        for batch in conn.scanner(
                edge_table,
                iterspec=_spec().reduce("sum", qualifier="deg")
        ).scan_columns():
            degrees.update(zip(batch.rows, map(decode_number, batch.values)))
        two_table(conn, cn_table, out, post=_spec().jaccard(degrees))
    finally:
        _drop(conn, [cn_table])
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
                   mask=edge_table, triangle="upper")
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
    """Server-side k-truss of an undirected 0/1 adjacency table.

    Graphulo's adjacency-matrix formulation of Algorithm 1: each round

    1. ``CN = TableMult(E, E)`` masked by E — per-edge triangle
       support, computed on E's pattern only;
    2. one one-table op over CN: kept where the support is ≥ k−2 and
       written as 1 — the next E, and its size;
    3. stop when no edge was dropped.

    ``out`` receives the surviving adjacency table (0/1 values).
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    inst = conn.instance
    before = inst.total_stats().snapshot()
    cn, current = f"{tmp_prefix}_cn", f"{tmp_prefix}_e"
    temps = [cn, current, f"{tmp_prefix}_next0", f"{tmp_prefix}_next1"]
    _drop(conn, temps)
    one = _spec().apply("clip", 1, 1)  # any edge value → 1
    survive = _spec().value_ge(k - 2).apply("clip", 1, 1)
    try:
        # working copy of the edge table
        count = two_table(conn, edge_table, current, post=one)["cells_written"]
        for round_no in range(max_rounds):
            table_mult(conn, current, current, cn, mask=current)
            nxt = temps[2 + round_no % 2]
            survivors = two_table(conn, cn, nxt,
                                  post=survive)["cells_written"]
            conn.delete_table(cn)
            conn.delete_table(current)
            current = nxt
            if survivors == count:
                break
            count = survivors
        else:
            raise RuntimeError(
                f"k-truss did not converge in {max_rounds} rounds")
        _fresh(conn, out)
        two_table(conn, current, out)
    finally:
        _drop(conn, temps)
    return inst.total_stats().delta(before)
