"""Reference intersect, Jaccard and k-truss: the client-side loops that
used to be ``table_intersect``, ``table_jaccard`` and ``table_ktruss``
in ``repro.dbsim.graphulo_algorithms``.

Each one reads its tables through the client, transforms the cells in
Python and writes the result back.  The library now runs the same
steps in the tablet servers as two-table ops; these loops live on only
as the oracles it is tested against.
"""

from typing import Dict

from repro.dbsim.client import Connector
from repro.dbsim.graphulo import table_mult
from repro.dbsim.key import decode_number
from repro.net.iterspec import IterSpec


def merge_intersect(conn: Connector, left: str, right: str, out: str,
                    keep: str = "left") -> None:
    """Every cell of the ``keep`` side whose (row, qualifier) the other
    side also holds, written as is: a set of the other side's pairs,
    then one filtered pass."""
    if not conn.table_exists(out):
        conn.create_table(out)
    kept, other = (left, right) if keep == "left" else (right, left)
    pairs = {(c.key.row, c.key.qualifier) for c in conn.scanner(other)}
    with conn.batch_writer(out) as writer:
        for c in conn.scanner(kept):
            if (c.key.row, c.key.qualifier) in pairs:
                writer.put_many([c.key.row], [c.key.qualifier], [c.value],
                                family=[c.key.family],
                                visibility=[c.key.visibility],
                                timestamps=[c.key.timestamp])
    conn.flush(out)


def mirror_jaccard(conn: Connector, edge_table: str, out: str) -> None:
    """CN = TableMult(A, A), the degree vector, then J(i, j) for the
    strictly upper triangle of CN, mirrored into both halves."""
    table_mult(conn, edge_table, edge_table, "_oracle_cn")
    degrees: Dict[str, float] = {}
    spec = IterSpec().reduce("sum", qualifier="deg")
    for batch in conn.scanner(edge_table, iterspec=spec).scan_columns():
        degrees.update(zip(batch.rows, map(decode_number, batch.values)))
    conn.create_table(out)
    with conn.batch_writer(out) as writer:
        for batch in conn.scanner("_oracle_cn").scan_columns():
            for i, j, value in zip(batch.rows, batch.qualifiers,
                                   batch.values):
                if i >= j:
                    continue
                cn = decode_number(value)
                denom = degrees.get(i, 0.0) + degrees.get(j, 0.0) - cn
                if denom > 0:
                    writer.put_many([i, j], [j, i], [cn / denom] * 2)
    conn.flush(out)
    conn.delete_table("_oracle_cn")


def filter_ktruss(conn: Connector, edge_table: str, out: str, k: int) -> None:
    """Per round: CN = TableMult(E, E), the support table CN ∩ E, and
    the edges whose support is ≥ k − 2 written as 1 — until no edge is
    dropped."""
    current = "_oracle_e0"
    conn.create_table(current)
    with conn.batch_writer(current) as writer:
        for batch in conn.scanner(edge_table).scan_columns():
            writer.put_many(batch.rows, batch.qualifiers, ["1"] * len(batch))
    count = sum(1 for _ in conn.scanner(current))
    for round_no in range(1, 100):
        table_mult(conn, current, current, "_oracle_cn")
        merge_intersect(conn, "_oracle_cn", current, "_oracle_sup")
        nxt = f"_oracle_e{round_no}"
        conn.create_table(nxt)
        survivors = 0
        with conn.batch_writer(nxt) as writer:
            for batch in conn.scanner("_oracle_sup").scan_columns():
                keep = [i for i, value in enumerate(batch.values)
                        if decode_number(value) >= k - 2]
                writer.put_many([batch.rows[i] for i in keep],
                                [batch.qualifiers[i] for i in keep],
                                ["1"] * len(keep))
                survivors += len(keep)
        for table in ("_oracle_cn", "_oracle_sup", current):
            conn.delete_table(table)
        current = nxt
        if survivors == count:
            break
        count = survivors
    conn.create_table(out)
    with conn.batch_writer(out) as writer:
        for batch in conn.scanner(current).scan_columns():
            writer.put_many(batch.rows, batch.qualifiers, batch.values)
    conn.flush(out)
    conn.delete_table(current)
