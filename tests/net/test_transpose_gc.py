"""Bulk row → column transposes wake no cycle collector.

``zip(*rows)`` holds one GC-tracked tuple iterator per row while it
runs: at a young-generation threshold of 100, transposing 10 000 rows
runs the collector ~100 times and promotes thousands of objects towards
its oldest generation, whose full collections walk the whole heap.
Every transpose on the write and codec paths goes through
:func:`repro.dbsim.key.field_columns` instead, which allocates no
tracked object per row.  Each path here must run at most 2 collections
(the young generation may start one allocation short of its threshold)
and give exactly what the old transpose gave.
"""

import gc
from array import array
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.dbsim.client import BatchWriter, Connector
from repro.dbsim.key import Range, key_columns, sort_keys
from repro.dbsim.server import Assignment, TabletIndex
from repro.dbsim.tablet import Tablet
from repro.net import cells, wire
from repro.net.client import RemoteTabletServer

N = 10_000
MAX_COLLECTIONS = 2


def _muts():
    return [(f"r{i:05d}", "f" if i % 5 else "", f"q{i % 97}", "",
             i % 3 * 7, i % 11 == 0, str(i)) for i in range(N)]


def _zip_columns(rows):
    """The transpose the paths used before, kept as the reference."""
    return [list(col) for col in zip(*rows)]


@contextmanager
def _collections():
    """The cycle collector's runs inside the block, one generation
    number per run, at thresholds (100, 10, 10)."""
    runs = []

    def hook(phase, info):
        if phase == "start":
            runs.append(info["generation"])

    old = gc.get_threshold()
    gc.set_threshold(100, 10, 10)
    gc.callbacks.append(hook)
    try:
        yield runs
    finally:
        gc.callbacks.remove(hook)
        gc.set_threshold(*old)


def test_the_zip_transpose_wakes_the_collector():
    # the probe sees what the paths below must not do
    muts = _muts()
    with _collections() as runs:
        columns = list(zip(*muts))
    assert len(columns) == 7
    assert len(runs) > 50


class _SentCore:
    """A client core that keeps what a RemoteTabletServer sends, and
    answers it as applied."""

    def submit_mutate(self, addr, op, payload):
        self.sent = (op, payload)
        return SimpleNamespace(result=lambda: {"applied": N})


def test_write_batch_payload():
    # a writer's flush, through the one remote handle: one transpose,
    # one encode
    core = _SentCore()
    index = TabletIndex([Assignment("t!0001", Range(), RemoteTabletServer(
        core, "tserver0", ("127.0.0.1", 0)))])
    writer = BatchWriter(Connector(SimpleNamespace(
        partition=lambda table, muts: index.partition(muts))), "t",
        buffer_size=N + 1)
    muts = _muts()
    writer._buffer.extend(muts)
    with _collections() as runs:
        writer.flush()
    assert len(runs) <= MAX_COLLECTIONS, runs
    op, payload = core.sent
    assert op == wire.WRITE_BATCH
    assert payload.meta == {"table": "t", "tablet_id": "t!0001"}
    assert payload.block == cells.encode_columns(*zip(*muts))


def test_encode_block():
    muts = _muts()
    with _collections() as runs:
        block = cells.encode_block(muts)
    assert len(runs) <= MAX_COLLECTIONS, runs
    assert block == cells.encode_columns(*zip(*muts))


@pytest.mark.parametrize("shape", ["list", "generator", "empty"])
def test_tablet_write_raw_batch(shape):
    muts = [] if shape == "empty" else _muts()
    source = (m for m in muts) if shape == "generator" else muts
    tablet = Tablet(Range())
    written = []
    # only the transpose is under test: what write_columns does with the
    # columns allocates a sort-key tuple per row by design
    tablet.write_columns = lambda *columns: written.append(columns) or 0
    with _collections() as runs:
        tablet.write_raw_batch(source)
    assert len(runs) <= MAX_COLLECTIONS, runs
    (columns,) = written
    assert [list(col) for col in columns] == (
        _zip_columns(muts) if muts else [[]] * 7)


def test_key_columns():
    keys = sort_keys(*_zip_columns(_muts())[:6])
    with _collections() as runs:
        got = key_columns(keys)
    assert len(runs) <= MAX_COLLECTIONS, runs
    rows, fams, quals, viss, neg_ts, puts = _zip_columns(keys)
    assert got == (rows, fams, quals, viss, [-t for t in neg_ts],
                   [not p for p in puts])


@pytest.mark.parametrize("shape", ["list", "iterator"])
def test_column_batch_from_cells(shape):
    cols = _zip_columns(_muts())
    cs = cells.ColumnBatch(*cols[:4], array("q", cols[4]), *cols[5:]).cells()
    source = iter(cs) if shape == "iterator" else cs
    with _collections() as runs:
        batch = cells.ColumnBatch.from_cells(source)
    assert len(runs) <= MAX_COLLECTIONS, runs
    keys, values = _zip_columns(cs)
    rows, fams, quals, viss, ts, dels = _zip_columns(keys)
    assert batch == cells.ColumnBatch(rows, fams, quals, viss,
                                      array("q", ts), dels, values)
