"""Cell-block conveniences the tests read payloads with, written over
the codec's public API (the package itself moves blocks as columns and
builds cells only from a :class:`~repro.net.cells.ColumnBatch`)."""

from repro.net import cells


def decode_mutations(buf):
    """A block as row-major 7-tuples: the inverse of
    ``cells.encode_block``."""
    return list(zip(*cells.decode_columns(buf)))


def cells_to_block(cs):
    """Encode finished cells (timestamps already stamped)."""
    return cells.ColumnBatch.from_cells(cs).to_block()


def block_to_cells(buf):
    """Decode a block into :class:`~repro.dbsim.key.Cell`\\ s."""
    return cells.decode_batch(buf).cells()
