"""Helpers for the stage unit tests: a stage runner and a per-cell
tombstone reference.

Every tablet scan applies tombstones inside its fused storage pass
(``Tablet._drain_columns_fused``).  :func:`delete_filter` is the same
rule written cell by cell, kept so tests can feed hand-built streams
to a stage the way a tablet reads them.
"""

from repro.net.cells import ColumnBatch

#: batch sizes every stage is run at: each cell group and row group of
#: a small fixture straddles a batch boundary at one of them
BATCH_SIZES = (1, 2, 3, 2048)


def run_stage(stage, cells, sizes=BATCH_SIZES):
    """``stage`` over ``cells`` (sorted) cut into ColumnBatch lists of
    each of ``sizes`` entries.  Every cut must give the same cells —
    keys, timestamps and values — and those cells are returned."""
    outs = []
    for n in sizes:
        # fresh batches per run: a stage owns the batches it is handed
        batches = [ColumnBatch.from_cells(cells[i:i + n])
                   for i in range(0, len(cells), n)]
        outs.append([cell for batch in stage(batches)
                     for cell in batch.cells()])
    for n, out in zip(sizes[1:], outs[1:]):
        assert out == outs[0], f"batches of {n} disagree with {sizes[0]}"
    return outs[0]


def delete_filter(cells):
    """Apply tombstone semantics to a sorted merged stream of cells.

    A delete marker suppresses all versions of its logical cell with
    timestamp ≤ the marker's, and is itself omitted from scan output.
    The merged stream is cell-grouped with timestamps descending and a
    delete-before-put tie-break, so one forward pass suffices.
    """
    del_cell, del_ts = None, 0
    for cell in cells:
        key = cell.key
        if key.delete:
            del_cell, del_ts = key.cell_id(), key.timestamp
        elif not (del_cell == key.cell_id() and key.timestamp <= del_ts):
            yield cell
