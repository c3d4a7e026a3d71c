"""``Tablet.write_columns`` is the one write path, and storage is cell-free.

Every way of writing — seven columns as they come off the wire, the
row-major tuples a BatchWriter buffers, :class:`Cell` objects, one cell
at a time, ``BatchWriter.put`` loops and ``put_many`` — ends in
:meth:`Tablet.write_columns`.  Random batches (zero, explicit and mixed
timestamps; tombstones; duplicate keys; labelled cells; sizes that
cross ``flush_bytes`` mid-batch) must therefore leave, whichever entry
they came through: the same scans (timestamps included), the same WAL,
the same ``approximate_bytes``, the same auto-flush points and the same
``entries_written`` / ``batched_mutations`` / ``flushes`` — and agree
with a stamping model that shares no code with the library.  A batch
holding one row outside the tablet's extent applies nothing.

Storage itself holds ``(sort-key tuples, values)``: an ingest → flush →
scan → compact → scan builds no :class:`Cell`, and a migrated tablet
arrives with its memtable, WAL and runs as they were.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbsim import Authorizations, Connector, Layer, Range, TableConfig
from repro.dbsim.errors import NotHostedError
from repro.dbsim.key import Cell, Key
from repro.dbsim.server import Instance
from repro.dbsim.tablet import Tablet
from repro.net import cells, wire
from repro.net.client import RpcCore
from repro.net.cluster import LocalCluster
from repro.net.server import TabletServerService
from repro.obs.metrics import MetricsRegistry

ROWS = [f"r{i:02d}" for i in range(12)]
SPLIT = "r06"

#: (row, family, qualifier, visibility, timestamp, delete, value); few
#: distinct keys and timestamps, so whole keys repeat — inside a batch
#: and across batches — and tie order is exercised
_put = st.tuples(
    st.sampled_from(ROWS), st.sampled_from(["", "f"]),
    st.sampled_from(["q0", "q1"]), st.sampled_from(["", "a", "a&b"]),
    st.sampled_from([0, 0, 0, 1, 2, 40]), st.just(False),
    st.sampled_from(["1", "2", "7.5", "v" * 40]))
_tombstone = st.tuples(
    st.sampled_from(ROWS), st.sampled_from(["", "f"]),
    st.sampled_from(["q0", "q1"]), st.sampled_from(["", "a"]),
    st.sampled_from([0, 0, 2]), st.just(True), st.just(""))
batches_of = st.lists(
    st.lists(st.one_of(_put, _put, _put, _tombstone), min_size=1,
             max_size=12), min_size=1, max_size=6)
#: a few cells' worth (every batch of any size crosses it somewhere),
#: a few batches' worth, and never
flush_sizes = st.sampled_from([150, 900, 1 << 30])


def _as_decoded(batch):
    """The batch as the server holds it after the wire: lists, with
    timestamps an ``array('q')``."""
    decoded = cells.decode_batch(cells.encode_block(batch))
    return (decoded.rows, decoded.families, decoded.qualifiers,
            decoded.visibilities, decoded.timestamps, decoded.deletes,
            decoded.values)


ENTRIES = {
    "columns": lambda t, b: t.write_columns(*zip(*b)),
    "decoded columns": lambda t, b: t.write_columns(*_as_decoded(b)),
    "raw tuples": lambda t, b: t.write_raw_batch(b),
    "cells": lambda t, b: t.write_batch(
        Cell(Key(*m[:6]), m[6]) for m in b),
}


def _cell_at_a_time(tablet, batch):
    for mut in batch:
        tablet.write(Key(*mut[:6]), mut[6])
    return len(batch)


def _scan(tablet, table_iterators=()):
    return [entry for batch in tablet.scan_columns(
        Range(), None, table_iterators) for entry in zip(
            batch.rows, batch.families, batch.qualifiers,
            batch.visibilities, batch.timestamps, batch.values)]


def _drive(entry, batches, flush_bytes, max_versions):
    """Apply ``batches`` through one write entry; what storage looked
    like after each, and what the tablet holds and counted at the end."""
    registry = MetricsRegistry()
    tablet = Tablet(Range(), max_versions, flush_bytes)
    tablet.bind_metrics(registry, "t")
    after_each = []
    for batch in batches:
        assert entry(tablet, batch) in (len(batch), None)
        after_each.append((
            tablet.memtable.approximate_bytes, len(tablet.memtable),
            [len(run) for run in tablet.sstables],   # auto-flush points
            list(tablet.wal.keys), list(tablet.wal.values)))
    export = registry.export()
    final = {
        "scan": _scan(tablet),
        "staged scan": _scan(tablet, (Layer(lambda batches: batches),)),
        "clock": tablet._clock,
        **{name: export[f"dbsim.table.t.{name}"] for name in (
            "entries_written", "batched_mutations", "flushes")},
    }
    assert final["scan"] == final["staged scan"]
    return after_each, final


def _stamped(batches):
    """The model: sort keys of every mutation in arrival order, a zero
    timestamp replaced by the next tick of one logical clock, which an
    explicit timestamp moves up to itself."""
    clock, keys = 0, []
    for row, fam, qual, vis, ts, delete, _ in itertools.chain(*batches):
        if ts == 0:
            clock += 1
            ts = clock
        clock = max(clock, ts)
        keys.append((row, fam, qual, vis, -ts, 0 if delete else 1))
    return keys


@settings(max_examples=60, deadline=None)
@given(batches=batches_of, flush_bytes=flush_sizes,
       max_versions=st.sampled_from([1, 2, 2 ** 31]))
def test_every_write_entry_is_write_columns(batches, flush_bytes,
                                            max_versions):
    want = _drive(ENTRIES["columns"], batches, flush_bytes, max_versions)
    for name, entry in ENTRIES.items():
        assert _drive(entry, batches, flush_bytes, max_versions) == want, name

    # one cell at a time: a batch of one, so exactly write_columns fed
    # singletons — and, however the batches are cut, the same clock
    singles = [[mut] for batch in batches for mut in batch]
    by_write = _drive(_cell_at_a_time, singles, flush_bytes, max_versions)
    assert by_write == _drive(ENTRIES["columns"], singles, flush_bytes,
                              max_versions)
    for name in ("clock", "entries_written", "batched_mutations"):
        assert by_write[1][name] == want[1][name], name

    if flush_bytes == 1 << 30:  # nothing flushed: the WAL is the history
        # (where the cuts move a flush, two cells with one whole key
        # may swap: a tie goes to the memtable over a run)
        assert by_write[1]["scan"] == want[1]["scan"]
        after_each, final = want
        values = [mut[6] for batch in batches for mut in batch]
        assert after_each[-1][3:] == (_stamped(batches), values)
        assert after_each[-1][0] == sum(
            len(m[0]) + len(m[1]) + len(m[2]) + len(m[6]) + 24
            for batch in batches for m in batch)
        assert final["flushes"] == 0


@settings(max_examples=40, deadline=None)
@given(batch=st.lists(_put, min_size=1, max_size=8), at=st.integers(0, 8),
       stray=st.sampled_from(["r02", "r09", "r11", "a", "z"]))
def test_one_row_outside_the_extent_applies_nothing(batch, at, stray):
    extent = Range("r03", "r09")
    batch = [mut for mut in batch if extent.contains_row(mut[0])]
    at = min(at, len(batch))
    batch.insert(at, (stray,) + batch[0][1:] if batch else
                 (stray, "", "q0", "", 0, False, "1"))
    for name, entry in {**ENTRIES, "cell at a time":
                        lambda t, b: _cell_at_a_time(t, b[at:])}.items():
        registry = MetricsRegistry()
        tablet = Tablet(extent)
        tablet.bind_metrics(registry, "t")
        with pytest.raises(ValueError, match="outside tablet extent"):
            entry(tablet, batch)
        assert (len(tablet.wal), len(tablet.memtable), tablet._clock,
                tablet.memtable.approximate_bytes) == (0, 0, 0, 0), name
        assert registry.export()["dbsim.table.t.entries_written"] == 0


# -- BatchWriter.put vs put_many, on both backends ----------------------------


@pytest.fixture(scope="module")
def backends():
    with LocalCluster(n_servers=2, processes=False) as cluster:
        remote = cluster.connect()
        try:
            yield {"in-process":
                   Connector(Instance(n_servers=2, metrics=MetricsRegistry())),
                   "thread-cluster": remote}
        finally:
            remote.close()


def _table_counters(conn, table):
    if isinstance(conn.instance, Instance):
        exports = [conn.instance.metrics.export()]
    else:
        exports = conn.instance.cluster_metrics()["servers"].values()
    return {name: sum(export.get(f"dbsim.table.{table}.{name}", 0)
                      for export in exports)
            for name in ("entries_written", "batched_mutations", "flushes")}


def _observe(conn, table):
    infos = [e.server.submit("tablet_info", table, e.tablet_id)()
             for e in conn.instance.tablets(table)]
    return {
        "scan": [(c.key.row, c.key.family, c.key.qualifier,
                  c.key.visibility, c.key.timestamp, c.value)
                 for c in conn.scanner(
                     table, authorizations=Authorizations(["a", "b"]))],
        "runs": [info["sstables"] for info in infos],
        "entries": [info["entries"] for info in infos],
        **_table_counters(conn, table),
    }


_names = (f"w{i}" for i in itertools.count())


@settings(max_examples=25, deadline=None)
@given(batches=batches_of, flush_bytes=flush_sizes,
       buffer_size=st.sampled_from([1, 3, 10_000]))
def test_put_loop_and_put_many_write_the_same_table(backends, batches,
                                                    flush_bytes, buffer_size):
    """A ``put_many`` is the equivalent ``put`` loop (tombstones go
    through ``delete`` either way), in-process and over the wire."""
    config = TableConfig(max_versions=2 ** 31, flush_bytes=flush_bytes)
    seen = {}
    for backend, conn in backends.items():
        for bulk in (False, True):
            table = next(_names)
            conn.create_table(table, config, splits=[SPLIT])
            try:
                with conn.batch_writer(table, buffer_size=buffer_size) as w:
                    for batch in batches:
                        for delete, group in itertools.groupby(
                                batch, key=lambda mut: mut[5]):
                            muts = list(group)
                            if delete:
                                for row, fam, qual, vis, *_ in muts:
                                    w.delete(row, fam, qual, visibility=vis)
                            elif bulk:
                                rows, fams, quals, viss, ts, _, vals = \
                                    zip(*muts)
                                w.put_many(rows, quals, vals, family=fams,
                                           visibility=viss, timestamps=ts)
                            else:
                                for row, fam, qual, vis, ts, _, val in muts:
                                    w.put(row, fam, qual, val, visibility=vis,
                                          timestamp=ts)
                seen[backend, "put_many" if bulk else "put"] = \
                    _observe(conn, table)
            finally:
                conn.delete_table(table)
    want = seen["in-process", "put"]
    for how, got in seen.items():
        assert got == want, how


# -- the remote extent check --------------------------------------------------


def _served(name):
    service = TabletServerService(name, metrics=MetricsRegistry())
    service.start()
    return service


HOST = {"table": "t", "tablet_id": "t!0001", "extent": ["r03", "r09"],
        "config": {"max_versions": 2, "table_iterators": ["sum"],
                   "flush_bytes": 1 << 20}}


def test_remote_batch_with_a_stray_row_is_not_hosted_and_applies_nothing():
    service = _served("a")
    core = RpcCore(metrics=MetricsRegistry())
    try:
        core.mutate(service.addr, wire.HOST_TABLET, HOST)
        _, tablet = service.tserver.hosted["t!0001"]
        ident = {"table": "t", "tablet_id": "t!0001"}
        good = [("r03", "", "q", "", 0, False, "1"),
                ("r08", "", "q", "", 0, False, "2")]
        for stray in ("r02", "r09"):
            with pytest.raises(NotHostedError, match="outside tablet extent"):
                core.mutate(service.addr, wire.WRITE_BATCH, wire.CellsPayload(
                    ident, cells.encode_block(
                        [good[0], (stray, "", "q", "", 0, False, "x"),
                         good[1]])))
            assert (len(tablet.wal), len(tablet.memtable),
                    tablet._clock) == (0, 0, 0)
        assert core.mutate(service.addr, wire.WRITE_BATCH, wire.CellsPayload(
            ident, cells.encode_block(good)))["applied"] == 2
        assert tablet.wal.keys == [("r03", "", "q", "", -1, 1),
                                   ("r08", "", "q", "", -2, 1)]
    finally:
        core.close()
        service.stop()


def test_a_split_under_the_writer_re_bins_the_batch_exactly_once(backends):
    """The writer's cached tablet locations go stale (another client
    splits the table): the old tablet is gone, the batch comes back
    ``NotHostedError`` having applied nothing, and the re-binned retry
    stamps what an up-to-date writer would have."""
    local, remote = backends["in-process"], backends["thread-cluster"]
    muts = [(row, "", "q", str(i)) for i, row in enumerate(ROWS * 2)]
    other = RpcCore(metrics=MetricsRegistry())
    table = next(_names)
    try:
        for conn in (local, remote):
            conn.create_table(table, TableConfig(max_versions=3))
            with conn.batch_writer(table) as w:
                w.put("r00", "", "q", "first")  # caches the locations
                w.flush()
                if conn is remote:  # split behind this client's back
                    other.mutate(remote.instance.manager_addr,
                                 wire.ADD_SPLIT,
                                 {"table": table, "row": SPLIT})
                else:
                    conn.add_split(table, SPLIT)
                for row, fam, qual, val in muts:
                    w.put(row, fam, qual, val)
        assert _observe(remote, table)["scan"] == \
            _observe(local, table)["scan"]
        assert _table_counters(remote, table)["entries_written"] == \
            _table_counters(local, table)["entries_written"] == 1 + len(muts)
    finally:
        other.close()
        for conn in (local, remote):
            conn.delete_table(table)


# -- cell-free storage ---------------------------------------------------------


def test_ingest_flush_scan_compact_scan_builds_no_cell(monkeypatch):
    n = 10_000
    rows = [f"r{i % 2_500:05d}" for i in range(n)]
    quals = [f"q{i % 7}" for i in range(n)]
    conn = Connector(Instance(n_servers=2, metrics=MetricsRegistry()))
    conn.create_table("t", TableConfig(max_versions=2), splits=["r01250"])

    # a Cell is a tuple: one built from columns comes out of the module
    # factory (ColumnBatch.cells, run_cells), any other out of
    # Cell.__new__; neither ever runs an __init__ worth counting
    built = []
    real_new, real_factory = Cell.__new__, cells.new_cell

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    def counting_factory(fields):
        built.append(fields)
        return real_factory(fields)

    def no_cells(self):
        raise AssertionError("ColumnBatch.cells() on the columnar path")

    monkeypatch.setattr(Cell, "__new__", counting_new)
    monkeypatch.setattr(cells, "new_cell", counting_factory)
    monkeypatch.setattr(cells.ColumnBatch, "cells", no_cells)

    def read():
        return sum(len(batch) for batch in conn.batch_scanner(
            "t").set_ranges([Range()]).scan_columns())

    with conn.batch_writer("t") as w:
        w.put_many(rows, quals, ["1"] * n)  # n distinct cells
    assert read() == n  # off the memtables
    conn.flush("t")
    with conn.batch_writer("t") as w:  # second versions, over the runs
        w.put_many(rows[:100], quals[:100], ["2"] * 100)
    assert read() == n + 100
    conn.compact("t")
    assert read() == n + 100
    assert built == []
    monkeypatch.undo()
    assert len(list(conn.scanner("t"))) == n + 100  # cells on request only


def test_migrate_round_trips_memtable_wal_and_runs():
    """A tablet holding a memtable, its WAL and two runs arrives as it
    left — all four sections key for key, the memtable's byte count and
    the clock — and goes on stamping and scanning like a twin that
    never moved."""
    history = (
        (True, [("r03", "", "q", "", 0, False, "1"),
                ("r04", "f", "q", "a&b", 0, False, "2")]),
        (True, [("r03", "", "q", "", 0, True, ""),
                ("r05", "", "q", "", 7, False, "x")]),
        (False, [("r08", "", "q", "", 0, False, "3"),
                 ("r03", "", "q", "", 0, False, "4"),
                 ("r08", "", "q", "", 0, True, "")]))
    twin = Tablet(Range("r03", "r09"), 2)
    a, b = _served("a"), _served("b")
    core = RpcCore(metrics=MetricsRegistry())
    try:
        core.mutate(a.addr, wire.HOST_TABLET, HOST)
        _, tablet = a.tserver.hosted["t!0001"]
        for each in (tablet, twin):
            for flush, muts in history:
                each.write_raw_batch(muts)
                if flush:
                    each.flush()

        def sections(t):
            return (t.memtable.sorted_run(), t.memtable.approximate_bytes,
                    (t.wal.keys, t.wal.values),
                    [(run.keys, run.values) for run in t.sstables], t._clock)

        want = sections(tablet)
        assert [len(keys) for keys, _ in (want[0], want[2], *want[3])] == \
            [3, 3, 2, 2]
        ident = {"table": "t", "tablet_id": "t!0001"}
        state = core.mutate(a.addr, wire.MIGRATE_OUT, ident)
        assert state.meta["sections"] == [3, 3, 2, 2]
        core.mutate(b.addr, wire.MIGRATE_IN, wire.CellsPayload(
            {**state.meta, **ident, "config": HOST["config"]}, state.block))
        _, moved = b.tserver.hosted["t!0001"]
        assert moved is not tablet and sections(moved) == want
        assert sections(moved) == sections(twin)
        more = [("r03", "", "q", "", 0, False, "5"),
                ("r06", "", "q", "", 0, False, "6")]
        for each in (moved, twin):
            each.write_raw_batch(more)
        assert _scan(moved) == _scan(twin)
        moved.crash()
        moved.recover()  # the log that travelled replays
        assert _scan(moved) == _scan(twin)
    finally:
        core.close()
        a.stop()
        b.stop()
