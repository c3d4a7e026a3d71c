"""Server-side graph algorithms composed from Graphulo table ops.

The paper's §IV next step — "extend the sparse matrix implementations
of the algorithms discussed in this article to associative arrays ...
directly on Accumulo data structures" — realised for the two worked
algorithms: Jaccard (Algorithm 2) and k-truss (Algorithm 1) running as
sequences of TableMult / filter / intersect operations on database
tables, never materialising a client-side matrix larger than a degree
vector.  (The real Graphulo library shipped exactly these as its
flagship ops in its follow-up papers.)
"""

from __future__ import annotations

from typing import Dict

from repro.dbsim.client import Connector
from repro.dbsim.graphulo import (
    _spec,
    _write_scan,
    create_combiner_table,
    table_mult,
)
from repro.dbsim.key import decode_number
from repro.dbsim.stats import OpStats


#: cells a streaming kernel gathers before one ``put_many``
_WRITE_CELLS = 2048


def table_intersect(conn: Connector, left: str, right: str, out: str,
                    keep: str = "left") -> OpStats:
    """Structural intersection of two tables on (row, family, qualifier).

    Streams both sorted cell streams in lockstep (the TwoTableIterator
    pattern again) and writes, for each key present in *both*, the value
    from ``keep`` ("left" or "right").  This is the masked-write
    primitive that lets server-side k-truss keep only surviving edges.
    """
    if keep not in ("left", "right"):
        raise ValueError(f"keep must be 'left' or 'right', got {keep!r}")
    inst = conn.instance
    before = inst.total_stats().snapshot()
    if not conn.table_exists(out):
        conn.create_table(out)

    def entries(table: str):
        """The table's cells in key order, as ``((row, family,
        qualifier), visibility, timestamp, value)``."""
        for batch in conn.scanner(table).scan_columns():
            yield from zip(zip(batch.rows, batch.families, batch.qualifiers),
                           batch.visibilities, batch.timestamps, batch.values)

    lefts, rights = entries(left), entries(right)
    lcell, rcell = next(lefts, None), next(rights, None)
    kept: list = []
    with conn.batch_writer(out) as writer:
        def write_kept() -> None:
            if kept:
                keys, viss, stamps, values = zip(*kept)
                rows, fams, quals = zip(*keys)
                writer.put_many(rows, quals, values, family=fams,
                                visibility=viss, timestamps=stamps)
                kept.clear()

        while lcell is not None and rcell is not None:
            if lcell[0] < rcell[0]:
                lcell = next(lefts, None)
            elif rcell[0] < lcell[0]:
                rcell = next(rights, None)
            else:
                kept.append(lcell if keep == "left" else rcell)
                if len(kept) == _WRITE_CELLS:
                    write_kept()
                lcell, rcell = next(lefts, None), next(rights, None)
        write_kept()
    conn.flush(out)
    return inst.total_stats().delta(before)


def _fresh(conn: Connector, name: str) -> str:
    if conn.table_exists(name):
        conn.delete_table(name)
    return name


def table_jaccard(conn: Connector, edge_table: str, out: str,
                  tmp_prefix: str = "_jac") -> OpStats:
    """Server-side Jaccard on an undirected 0/1 adjacency table.

    Pipeline (every step a table op):

    1. ``CN = TableMult(A, A)`` — common-neighbour counts (A symmetric,
       pattern values), accumulated by the result table's sum combiner;
    2. degree vector — one scan of A reduced per row (fits client
       memory: O(n), not O(nnz));
    3. stream CN once, emitting ``J(i,j) = cn / (dᵢ + dⱼ − cn)`` for
       i < j into ``out`` (both triangle halves written for symmetry).
    """
    inst = conn.instance
    before = inst.total_stats().snapshot()
    cn_table = _fresh(conn, f"{tmp_prefix}_cn")
    table_mult(conn, edge_table, edge_table, cn_table)

    # weighted degrees, folded per row inside the tablet servers
    degrees: Dict[str, float] = {}
    for batch in conn.scanner(
            edge_table,
            iterspec=_spec().reduce("sum", qualifier="deg")).scan_columns():
        degrees.update(zip(batch.rows, map(decode_number, batch.values)))

    if not conn.table_exists(out):
        conn.create_table(out)
    with conn.batch_writer(out) as writer:
        for batch in conn.scanner(cn_table).scan_columns():
            rows, quals, vals = [], [], []
            for i, j, value in zip(batch.rows, batch.qualifiers,
                                   batch.values):
                if i >= j:
                    continue  # strictly-upper, then mirror (Algorithm 2)
                cn = decode_number(value)
                denom = degrees.get(i, 0.0) + degrees.get(j, 0.0) - cn
                if denom <= 0:
                    continue
                rows += (i, j)
                quals += (j, i)
                vals += (cn / denom,) * 2
            writer.put_many(rows, quals, vals)
    conn.flush(out)
    conn.delete_table(cn_table)
    return inst.total_stats().delta(before)


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

    1. ``CN = TableMult(E, E)`` restricted by intersection to E's
       pattern — per-edge triangle support,
    2. keep edges with support ≥ k−2 (a value filter),
    3. stop when no edge was dropped.

    ``out`` receives the surviving adjacency table (0/1 values).
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    inst = conn.instance
    before = inst.total_stats().snapshot()

    # working copy of the edge table
    current = f"{tmp_prefix}_e"
    _fresh(conn, current)
    conn.create_table(current)
    count = 0
    with conn.batch_writer(current) as writer:
        for batch in conn.scanner(edge_table).scan_columns():
            writer.put_many(batch.rows, batch.qualifiers, ["1"] * len(batch))
            count += len(batch)

    for round_no in range(max_rounds):
        cn = _fresh(conn, f"{tmp_prefix}_cn")
        table_mult(conn, current, current, cn)
        support = _fresh(conn, f"{tmp_prefix}_sup")
        # support on the edge pattern only: intersect CN with E
        table_intersect(conn, cn, current, support, keep="left")
        nxt = _fresh(conn, f"{tmp_prefix}_next{round_no % 2}")
        conn.create_table(nxt)
        survivors = 0
        with conn.batch_writer(nxt) as writer:
            for batch in conn.scanner(support).scan_columns():
                keep = [i for i, value in enumerate(batch.values)
                        if decode_number(value) >= k - 2]
                writer.put_many([batch.rows[i] for i in keep],
                                [batch.qualifiers[i] for i in keep],
                                ["1"] * len(keep))
                survivors += len(keep)
        conn.delete_table(cn)
        conn.delete_table(support)
        conn.delete_table(current)
        current = nxt
        if survivors == count:
            break
        count = survivors
    else:
        raise RuntimeError(f"k-truss did not converge in {max_rounds} rounds")

    _fresh(conn, out)
    conn.create_table(out)
    _write_scan(conn, conn.scanner(current), out)
    conn.delete_table(current)
    return inst.total_stats().delta(before)
