"""Reference TableMult: the per-cell stream loop that used to be
``table_mult(via="stream")`` in ``repro.dbsim.graphulo``.

It walks both tables' sorted cells in lockstep and writes every partial
product ``(u, v) → A(t,u) ⊗ B(t,v)`` with its own ``put``, leaving all
of ⊕ to the result table's combiner.  Dominated by the blocked SpGEMM
path on every workload, it lives on only as the oracle the library's
one implementation is tested against.
"""

from typing import Callable, Optional, Tuple

from repro.dbsim.client import Connector
from repro.dbsim.graphulo import create_combiner_table
from repro.dbsim.key import decode_number


def stream_table_mult(conn: Connector, table_at: str, table_b: str, out: str,
                      mul: Callable[[float, float], float] = lambda a, b: a * b,
                      combiner: str = "sum", authorizations=None) -> int:
    """``C ⊕= ATᵀ ⊕.⊗ B`` one partial product at a time; returns the
    number of partial products written."""
    if not conn.table_exists(out):
        create_combiner_table(conn, out, combiner=combiner)

    # Two sorted row streams, advanced in lockstep (the TwoTableIterator).
    a_cells = iter(conn.scanner(table_at, authorizations=authorizations))
    b_cells = iter(conn.scanner(table_b, authorizations=authorizations))

    def next_row(stream) -> Optional[Tuple[str, list]]:
        """Pull one whole row (sorted cells share contiguous row keys)."""
        head = stream["head"]
        if head is None:
            return None
        row = head.key.row
        cells = [head]
        stream["head"] = None
        for cell in stream["iter"]:
            if cell.key.row != row:
                stream["head"] = cell
                break
            cells.append(cell)
        return row, cells

    sa = {"iter": a_cells, "head": next(a_cells, None)}
    sb = {"iter": b_cells, "head": next(b_cells, None)}
    ra = next_row(sa)
    rb = next_row(sb)
    written = 0
    with conn.batch_writer(out) as writer:
        while ra is not None and rb is not None:
            if ra[0] < rb[0]:
                ra = next_row(sa)
            elif rb[0] < ra[0]:
                rb = next_row(sb)
            else:
                for ca in ra[1]:
                    av = decode_number(ca.value)
                    for cb in rb[1]:
                        prod = mul(av, decode_number(cb.value))
                        writer.put(ca.key.qualifier, "", cb.key.qualifier,
                                   prod)
                        written += 1
                ra = next_row(sa)
                rb = next_row(sb)
    conn.compact(out)  # make the combined result durable/canonical
    return written
