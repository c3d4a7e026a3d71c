"""AssocArray ↔ database table binding (the D4M adapter).

The paper: "Graphulo database tables are exactly described using the
mathematics of associative arrays" — so moving between the two is a
triple copy, preserving string keys.  Matrix values travel as encoded
numbers; a table bound with a summing combiner accumulates on insert
exactly like ``AssocArray.from_triples`` with the plus monoid.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.dbsim.client import Connector
from repro.dbsim.graphulo import create_combiner_table
from repro.dbsim.key import Range, decode_number

if TYPE_CHECKING:  # numpy and repro.assoc load on first use, below
    from repro.assoc.array import AssocArray


def assoc_to_table(conn: Connector, a: AssocArray, table: str,
                   combiner: str = "sum", n_splits: int = 0) -> None:
    """Write an associative array into ``table`` (created if absent,
    with a combiner so repeated ingest accumulates).

    ``n_splits`` > 0 pre-splits the table at evenly-spaced row keys —
    the standard bulk-ingest practice for spreading load.
    """
    import numpy as np

    if not conn.table_exists(table):
        splits: List[str] = []
        if n_splits > 0 and len(a.row_keys) > 1:
            idx = np.linspace(0, len(a.row_keys) - 1, n_splits + 2)[1:-1]
            splits = [str(a.row_keys[int(i)]) for i in idx]
        create_combiner_table(conn, table, combiner=combiner,
                              splits=sorted(set(splits)))
    rows, cols, vals = a.triples()
    with conn.batch_writer(table) as writer:
        for r, c, v in zip(rows, cols, vals):
            writer.put(str(r), "", str(c), float(v))
    conn.flush(table)


def table_to_assoc(conn: Connector, table: str,
                   rng: Optional[Range] = None) -> AssocArray:
    """Scan (part of) a table back into an associative array.

    Non-numeric values raise — use a column filter or a server-side
    Apply to project first if the table mixes payload types.
    """
    import numpy as np

    from repro.assoc.array import AssocArray

    scanner = conn.scanner(table)
    if rng is not None:
        scanner.set_range(rng)
    rows: List[str] = []
    cols: List[str] = []
    vals: List[float] = []
    for cell in scanner:
        rows.append(cell.key.row)
        cols.append(cell.key.qualifier)
        vals.append(decode_number(cell.value))
    if not rows:
        return AssocArray.empty()
    return AssocArray.from_triples(rows, cols, np.asarray(vals))
