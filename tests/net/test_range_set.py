"""Range-set scans over the fabric: faults, re-plans, the wire boundary
and the server's scan workers.

A coalesced ``BatchScanner`` is one client scan over every tablet its
sorted, disjoint range list reaches into; each tablet's SCAN carries
that tablet's share of the list in the ``ranges`` field.  What must
hold:

* under the seeded drop / delay / corrupt / reset plan a multi-tablet
  range-set scan resumes past the last delivered key — no duplicate, no
  missing cell, timestamps included — on thread and process clusters;
* a resume or a split re-plan re-sends only the ranges from the resume
  row on (the one holding it clipped at it, which gives the cells the
  whole range gives past the key), and a re-planned scan still returns
  the per-range result — in process too, where the same client scan
  re-plans;
* a scan holding the ``distinct`` op, whose state crosses rows, reopens
  with that state — the qualifiers its tablet delivered, as the op's
  ``seen`` list — and gives the fault-free result, which it does not
  without them; a write that lands before the resume key between the
  two opens drops no qualifier; re-planned over a split, a qualifier
  repeats only across the two children; scanned range by range
  (unsorted ranges), each range keeps its own qualifiers;
* one ``distinct`` scan reopened in place after two resets in a row
  and a shed stream, then re-planned when its tablet split and
  migrated, delivers each cell once and equals, timestamps included,
  the in-process scan re-planned at the same key;
* a raw-wire SCAN whose ranges are unsorted or overlapping gets a typed
  ERROR frame, never a wrong answer;
* a one-batch SCAN is answered by the thread that read it: sequential
  lookups on one connection start no thread beyond the connection's
  first, and every thread of a connection exits once it closes.
"""

import itertools
import random
import threading
import time

import pytest

from repro.dbsim.backend import TabletRead, _past, _seeded, _ship
from repro.dbsim.client import Connector
from repro.dbsim.key import Range
from repro.dbsim.errors import NotHostedError
from repro.dbsim.server import Instance, TabletServer
from repro.net import wire
from repro.net.client import RemoteConnector
from repro.net.cluster import LocalCluster
from repro.net.faults import FaultPlan
from repro.net.iterspec import IterSpec
from repro.net.server import SCAN_CHUNK_CELLS
from repro.obs.metrics import MetricsRegistry
from tests.net import blocks

#: the last tablet's share of the range set alone is several CHUNKs
N_CELLS = 8 * SCAN_CHUNK_CELLS + 77
SPLITS = ["r02000", "r04500", "r07000"]


def _ingest(conn, table="t"):
    conn.create_table(table, splits=SPLITS)
    with conn.batch_writer(table) as w:
        for i in range(N_CELLS):
            w.put(f"r{i:05d}", "f", "q", i % 7)
    conn.flush(table)


def _range_set(seed=3):
    """~250 sorted disjoint ranges holding ~60 % of the rows: spans
    (often back to back) and exact rows, some straddling the splits."""
    rnd = random.Random(seed)
    cuts = sorted(rnd.sample(range(N_CELLS), 300))
    ranges = []
    for lo, hi in zip(cuts, cuts[1:]):
        kind = rnd.random()
        if kind < 0.6:
            ranges.append(Range(f"r{lo:05d}", f"r{hi:05d}"))
        elif kind < 0.8:
            ranges.append(Range.exact_row(f"r{lo:05d}"))
    ranges += [Range(f"r{int(s[1:]) - 40:05d}", f"r{int(s[1:]) + 40:05d}")
               for s in SPLITS]  # guaranteed straddlers
    ranges.sort(key=lambda r: r.start_row)
    out = []
    for rng in ranges:
        if not out or out[-1].stop_row <= rng.start_row:
            out.append(rng)
    return out


def _ingest_graph(conn, table="g", splits=SPLITS):
    """One row per 10 of ``_ingest``'s, each with three qualifiers
    drawn from 60: every qualifier recurs across rows and tablets, so
    ``distinct`` keeps a few cells per tablet, mostly from early rows."""
    rnd = random.Random(5)
    conn.create_table(table, splits=splits)
    with conn.batch_writer(table) as w:
        for i in range(0, N_CELLS, 10):
            for q in rnd.sample(range(60), 3):
                w.put(f"r{i:05d}", "f", f"q{q:02d}", i % 7)
    conn.flush(table)
    conn.compact(table)


def _per_range(conn, table, ranges, **kw):
    """The per-range oracle: one scanner per range, in the order given."""
    return [cell for r in ranges
            for cell in conn.batch_scanner(table, **kw).set_ranges([r])]


def _distinct(conn, ranges, table="g", seen=None):
    spec = (IterSpec([{"op": "distinct", "seen": seen}]) if seen
            else IterSpec().distinct())
    return _snap(cell for b in conn.batch_scanner(
        table, iterspec=spec).set_ranges(
            ranges).scan_columns() for cell in b.cells())


def _snap(cell_iter):
    return [(c.key.row, c.key.qualifier, c.key.timestamp, c.value)
            for c in cell_iter]


@pytest.fixture(scope="module")
def reference():
    """The in-process backend, scanned one range at a time."""
    local = Connector(Instance(n_servers=2, metrics=MetricsRegistry()))
    _ingest(local)
    return local


class TestFaultedRangeSetScan:
    SPECS = ["scan:drop:0.1", "scan:corrupt:0.15", "scan:reset:0.05",
             "*:delay:0.05:0.002"]
    SPEC = IterSpec().value_ge(3.0)

    @pytest.mark.parametrize("processes", [False, True],
                             ids=["threads", "processes"])
    def test_resumes_without_duplicates_or_gaps(self, reference, processes):
        ranges = _range_set()

        def scan(conn, **kw):
            return conn.batch_scanner("t", **kw).set_ranges(ranges)

        want = _snap(_per_range(reference, "t", ranges))
        want_spec = _snap(_per_range(reference, "t", ranges,
                                     iterspec=self.SPEC))
        assert len(want) > 4 * SCAN_CHUNK_CELLS
        registry = MetricsRegistry()
        with LocalCluster(n_servers=2, processes=processes,
                          fault_specs=self.SPECS, fault_seed=42) as c:
            conn = c.connect(metrics=registry)
            try:
                _ingest(conn)
                per_cell = _snap(scan(conn))
                columnar = _snap(
                    cell for b in scan(conn).scan_columns()
                    for cell in b.cells())
                pushed = _snap(
                    cell for b in scan(conn,
                                       iterspec=self.SPEC).scan_columns()
                    for cell in b.cells())
            finally:
                conn.close()
        assert per_cell == want  # timestamps included
        assert columnar == want
        assert pushed == want_spec
        assert registry.export()["net.client.scan_resumes"] > 0


class TestSeededResume:
    """Tiny CHUNKs and corrupt frames: many resumes inside a tablet."""

    SPECS = ["scan:corrupt:0.3", "*:delay:0.05:0.002"]

    def test_distinct_scan_resumes_exactly_and_not_without_seen(
            self, monkeypatch):
        ranges = _range_set()
        local = Connector(Instance(n_servers=2, metrics=MetricsRegistry()))
        _ingest_graph(local)
        want = _distinct(local, ranges)
        assert len(set(q for _, q, _, _ in want)) < len(want)
        # a caller's own seen list survives the reopens' seen lists
        seen = [f"q{q:02d}" for q in range(0, 60, 3)]
        want_seeded = _distinct(local, ranges, seen=seen)
        assert want_seeded == [c for c in want if c[1] not in seen]
        monkeypatch.setattr("repro.net.server.SCAN_CHUNK_CELLS", 4)
        registry = MetricsRegistry()
        with LocalCluster(n_servers=2, processes=False,
                          fault_specs=self.SPECS, fault_seed=42) as c:
            conn = c.connect(metrics=registry)
            try:
                _ingest_graph(conn)
                resumed = _distinct(conn, ranges)
                seeded = _distinct(conn, ranges, seen=seen)
                resumes = registry.export()["net.client.scan_resumes"]
                # without the seen list a reopen's distinct starts over
                # past the resume key, blind to what it already sent
                init = TabletRead.__init__

                def blind(read, *args, **kwargs):
                    init(read, *args, **kwargs)
                    read.seen = None
                monkeypatch.setattr(TabletRead, "__init__", blind)
                blinded = _distinct(conn, ranges)
            finally:
                conn.close()
        assert resumes > 0
        assert resumed == want  # timestamps included
        assert seeded == want_seeded
        assert blinded != want


def _first_tablet_half(conn, ranges):
    """The first tablet's ``distinct`` output over ``ranges``, cut in
    two: (delivered, the rest), the delivered part spanning rows."""
    first = [c for c in _distinct(conn, ranges) if c[0] < SPLITS[0]]
    cut = len(first) // 2
    assert first[0][0] < first[cut - 1][0]
    return first[:cut], first[cut:]


def _resumed_scan(conn, ranges, delivered):
    """A ``distinct`` client scan over ``ranges``, planned now and not
    yet opened, in the state a re-plan after ``delivered`` leaves it
    in: the head tablet opens past the resume key, its ``distinct``
    seeded with the qualifiers delivered."""
    inst = conn.instance
    shipped, _ = _ship(IterSpec().distinct().build_factories())
    legs = inst._plan("g", ranges, shipped)
    row, qual, ts, _ = delivered[-1]
    legs[0][2] = _seeded(shipped, {q for _, q, _, _ in delivered})
    legs[0][3] = [row, "f", qual, "", ts, False]
    return inst._scan("g", legs, None)


def _drain(scan):
    return _snap(cell for b in scan for cell in b.cells())


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(n_servers=2, processes=False) as c:
        yield c


@pytest.fixture
def conn(cluster):
    registry = MetricsRegistry()
    conn = cluster.connect(metrics=registry)
    for table in list(conn.instance.list_tables()):
        conn.instance.delete_table(table)
    conn.registry = registry
    conn.replans = lambda: registry.export()["net.client.relocates"]
    yield conn
    conn.close()


def _split_behind(conn, table, row):
    """Split ``table`` at ``row`` behind ``conn``'s open scans: in a
    cluster through another client, so this one's plan is stale; in
    process through the plane, whose index the plan was taken from."""
    if isinstance(conn.instance, Instance):
        conn.instance.add_split(table, row)
        return
    other = RemoteConnector(conn.instance.manager_addr)
    try:
        other.instance.add_split(table, row)
    finally:
        other.close()


def _split_inside_a_requested_range_mid_scan(conn, reference):
    ranges = _range_set()
    want = _snap(_per_range(reference, "t", ranges))
    _ingest(conn)
    # planned on four tablets, nothing opened yet ...
    batches = conn.instance.scan_columns("t", ranges)
    # ... then the last tablet splits inside a requested range: this
    # scan's plan is stale
    inside = next(r for r in ranges if r.start_row > "r08000"
                  and r.stop_row > r.start_row + "\0")
    _split_behind(conn, "t", inside.start_row[:-1] + "5")
    got = _snap(cell for b in batches for cell in b.cells())
    assert got == want
    # the stale tablet answered NotHostedError after earlier tablets
    # had delivered: a re-plan past the resume row
    assert conn.replans() >= 1


def _distinct_over_a_split_repeats_only_across_children(conn):
    ranges = _range_set()
    local = Connector(Instance(n_servers=2, metrics=MetricsRegistry()))
    _ingest_graph(local)
    want = _distinct(local, ranges)
    _ingest_graph(conn)
    batches = conn.instance.scan_columns(
        "g", ranges, scan_iterators=IterSpec().distinct().build_factories())
    split = "r08005"
    _split_behind(conn, "g", split)
    got = _snap(cell for b in batches for cell in b.cells())
    assert conn.replans() >= 1
    assert {q for _, q, _, _ in got} == {q for _, q, _, _ in want}
    # the tablets that did not split give exactly what they gave
    last = SPLITS[-1]
    assert [c for c in got if c[0] < last] == \
        [c for c in want if c[0] < last]
    # the split one: each child keeps one cell per qualifier, so a
    # qualifier shows at most once on each side of the split row
    for side in (lambda row: last <= row < split,
                 lambda row: row >= split):
        quals = [q for row, q, _, _ in got if side(row)]
        assert len(quals) == len(set(quals))
    tail = [q for row, q, _, _ in got if row >= last]
    assert len(tail) > len(set(tail))  # some did repeat
    # ... and the whole is the in-process scan of the split layout
    local.instance.add_split("g", split)
    assert got == _distinct(local, ranges)


class TestReplanInProcess:
    """:class:`TestReplan`'s splits under a planned scan, in process:
    the client scan is the same loop there, and re-plans the same way."""

    @pytest.fixture
    def local(self):
        conn = Connector(Instance(n_servers=2, metrics=MetricsRegistry()))
        invalidated = []
        invalidate = conn.instance.invalidate

        def spy(name=None):
            invalidated.append(name)
            invalidate(name)
        conn.instance.invalidate = spy
        conn.replans = lambda: len(invalidated)
        return conn

    def test_split_inside_a_requested_range_mid_scan(self, local, reference):
        _split_inside_a_requested_range_mid_scan(local, reference)

    def test_distinct_over_a_split_repeats_only_across_children(self, local):
        _distinct_over_a_split_repeats_only_across_children(local)

    @staticmethod
    def _move_mid_stream(local, monkeypatch, delivered, split):
        """Make the next scan's head tablet deliver ``delivered`` (its
        first cells), split at ``split``, and answer ``NotHostedError``."""
        scan_tablet = TabletServer.scan_tablet
        moved = []

        def moving(server, *args):
            batches = scan_tablet(server, *args)
            if moved:
                return batches
            moved.append(args[1])

            def head():
                yield next(batches).select(range(len(delivered)))
                batches.close()
                local.instance.add_split("g", split)
                raise NotHostedError(f"{args[1]} split")
            return head()
        monkeypatch.setattr(TabletServer, "scan_tablet", moving)

    def test_a_move_mid_stream_resumes_past_the_last_key(
            self, local, monkeypatch):
        ranges = _range_set()
        _ingest_graph(local)
        want = _snap(_per_range(local, "g", ranges))
        first = [c for c in want if c[0] < SPLITS[0]]
        self._move_mid_stream(local, monkeypatch, first[:len(first) // 2],
                              first[len(first) * 3 // 4][0])
        got = _snap(local.batch_scanner("g").set_ranges(ranges))
        assert local.replans() == 1
        assert got == want

    def test_a_move_mid_stream_seeds_the_tablets_it_became(
            self, local, monkeypatch):
        """Under ``distinct``, each child re-planned in the moved head's
        place skips every qualifier the head delivered and keeps one
        cell per qualifier of its own."""
        ranges = _range_set()
        _ingest_graph(local)
        delivered, rest = _first_tablet_half(local, ranges)
        split = rest[len(rest) // 2][0]
        self._move_mid_stream(local, monkeypatch, delivered, split)
        got = [c for c in _distinct(local, ranges) if c[0] < SPLITS[0]]
        assert got[:len(delivered)] == delivered
        got = got[len(delivered):]
        assert local.replans() == 1
        sent = {q for _, q, _, _ in delivered}
        assert not sent & {q for _, q, _, _ in got}
        for side in (lambda row: row < split, lambda row: row >= split):
            quals = [q for row, q, _, _ in got if side(row)]
            assert len(quals) == len(set(quals))
        assert {q for _, q, _, _ in got} == {q for _, q, _, _ in rest}
        assert [c for c in got if c[0] < split] == \
            [c for c in rest if c[0] < split]


class TestReplan:
    def test_split_inside_a_requested_range_mid_scan(self, conn, reference):
        _split_inside_a_requested_range_mid_scan(conn, reference)

    def test_distinct_over_a_split_repeats_only_across_children(self, conn):
        _distinct_over_a_split_repeats_only_across_children(conn)

    def test_a_write_before_the_resume_key_drops_no_qualifier(self, conn):
        """Between the first open and the reopen, a cell lands before the
        resume key under a qualifier that was not yet delivered.  The
        reopened stream still returns that qualifier's later cell: the
        server skips the delivered prefix below the op, so the op never
        sees the new cell."""
        ranges = _range_set()
        _ingest_graph(conn)
        delivered, rest = _first_tablet_half(conn, ranges)
        row, last = delivered[-1][:2]
        qual = next(q for _, q, _, _ in rest if q < last)
        with conn.batch_writer("g") as w:
            w.put(row, "f", qual, 1)  # in the resume row, before the key
        got = _drain(_resumed_scan(conn, ranges, delivered))
        assert [c for c in got if c[0] < SPLITS[0]] == rest

    def test_a_split_after_a_resume_seeds_both_children(self, conn):
        ranges = _range_set()
        _ingest_graph(conn)
        delivered, rest = _first_tablet_half(conn, ranges)
        scan = _resumed_scan(conn, ranges, delivered)
        split = rest[len(rest) // 2][0]
        _split_behind(conn, "g", split)
        got = [c for c in _drain(scan) if c[0] < SPLITS[0]]
        assert conn.replans() >= 1
        # neither child repeats a delivered qualifier, and each keeps
        # one cell per qualifier: a repeat only across the two
        sent = {q for _, q, _, _ in delivered}
        assert not sent & {q for _, q, _, _ in got}
        for side in (lambda row: row < split, lambda row: row >= split):
            quals = [q for row, q, _, _ in got if side(row)]
            assert len(quals) == len(set(quals))
        assert {q for _, q, _, _ in got} == {q for _, q, _, _ in rest}
        assert [c for c in got if c[0] < split] == \
            [c for c in rest if c[0] < split]

    def test_an_uncoalesced_distinct_keeps_each_ranges_qualifiers(
            self, conn):
        """``distinct``'s output depends on the layout: scanned range by
        range (the unsorted ranges' path), each range is a scan of its
        own."""
        ranges = _range_set()[:60]
        local = Connector(Instance(n_servers=2, metrics=MetricsRegistry()))
        for c in (local, conn):
            _ingest_graph(c)
            got = _snap(cell for b in c.batch_scanner(
                "g", iterspec=IterSpec().distinct()
            ).set_ranges(ranges[::-1]).scan_columns() for cell in b.cells())
            per_range = [cell for r in ranges[::-1]
                         for cell in _distinct(c, [r])]
            assert got == per_range
            assert sorted(got) != sorted(_distinct(c, ranges))

    def test_reopen_sends_only_ranges_past_the_resume_row(self, reference):
        ranges = [Range.exact_row("a"), Range("c", "f"), Range("f", "k"),
                  Range.exact_row("m")]
        assert _past(ranges, None) == ranges
        resume = ["d", "", "q", "", 7, False]
        # [c, f) holds the resume row: it is clipped at the row, and
        # the server skips to the resume key inside it
        assert _past(ranges, resume) == [Range("d", "f"), *ranges[2:]]
        resume = ["f", "", "q", "", 7, False]
        assert _past(ranges, resume) == ranges[2:]
        resume = ["z", "", "q", "", 7, False]
        assert _past(ranges, resume) == []
        # clipped or whole, the range holding the resume row gives the
        # same cells past the key
        (entry,) = reference.instance.tablets_for_range("t", Range(
            "r00100", "r00900"))
        ranges = [Range("r00100", "r00400"), Range("r00500", "r00900")]
        (cell,) = reference.scanner("t").set_range(Range.exact_row("r00250"))
        key = [*cell.key]

        def scan(rngs):
            return _snap(c for b in entry.server.scan_tablet(
                "t", entry.tablet_id, rngs, resume=key) for c in b.cells())
        assert scan(_past(ranges, key)) == scan(ranges)
        assert scan(ranges)[0][0] == "r00251"


#: every frame of a SCAN answered 10 ms late, unless a reset cuts it
MOVE_SPECS = ["scan:reset:0.1", "scan:delay:1:0.01"]


def _move_seed():
    """The first seed whose plan resets the head tablet's first SCAN
    and its reopen at their first frame (two failures in a row: a
    backoff), then lets the second reopen's whole answer through (its
    16 CHUNKs and DONE, with room to spare): the scan's first batch and
    the frames its stream is shed for while it stalls."""
    draws = [(0, 0, 0), (1, 0, 0)] + [(2, 0, frame) for frame in range(24)]
    fires = [True, True] + [False] * 24
    for seed in itertools.count():
        plan = FaultPlan.from_specs(MOVE_SPECS, seed)
        if [getattr(plan.draw(wire.SCAN, *draw), "kind", None) == "reset"
                for draw in draws] == fires:
            return seed


def faulted_moving_scan(monkeypatch):
    """One ``distinct`` client scan of a one-tablet table on a thread
    cluster, through every failure a tablet read meets: its first two
    opens reset, its stream shed while it stalls (another request's
    waiter reads past two CHUNKs of four cells), and its tablet split
    and migrated before that reopen, which re-plans.  Returns the cells
    (row, qualifier, timestamp, value), the cells delivered before the
    re-plan, the split row and the client's metrics export."""
    monkeypatch.setattr("repro.net.server.SCAN_CHUNK_CELLS", 4)
    monkeypatch.setattr("repro.net.client.STREAM_WINDOW_CHUNKS", 2)
    local = Connector(Instance(n_servers=2, metrics=MetricsRegistry()))
    _ingest_graph(local, splits=())
    want = _distinct(local, [Range()])
    split = want[len(want) * 2 // 3][0]
    registry, replans = MetricsRegistry(), []
    with LocalCluster(n_servers=2, processes=False, fault_specs=MOVE_SPECS,
                      fault_seed=_move_seed()) as c:
        conn = c.connect(metrics=registry)
        try:
            _ingest_graph(conn, splits=())
            (entry,) = conn.instance.tablets("g")
            replan = conn.instance._replan

            def spy(name, legs, head):
                replans.append(head.resume)
                return replan(name, legs, head)
            conn.instance._replan = spy
            batches = conn.instance.scan_columns(
                "g", scan_iterators=IterSpec().distinct().build_factories())
            got = _snap(next(batches).cells())
            time.sleep(0.3)  # the server sends the rest meanwhile
            entry.server.submit("tablet_info", "g", entry.tablet_id)()
            _split_behind(conn, "g", split)
            got += _snap(cell for b in batches for cell in b.cells())
            export = registry.export()
        finally:
            conn.close()
    (resume,) = replans
    at = [c[:3] for c in got].index((resume[0], resume[2], resume[4]))
    return got, got[:at + 1], split, export


class TestOneRemoteScanSurvivesBothFailures:
    def test_equals_the_in_process_scan_bit_for_bit(self, monkeypatch):
        got, delivered, split, export = faulted_moving_scan(monkeypatch)
        # reopened in place (after a backoff, and after a shed stream),
        # then re-planned once over the split
        assert export["net.client.retries"] >= 1
        assert export["net.client.stream_overruns"] >= 1
        assert export["net.client.relocates"] >= 1
        assert export["net.client.scan_resumes"] >= 4
        assert delivered[-1][0] < split
        assert len({c[:3] for c in got}) == len(got)  # each cell once
        # the in-process client scan, its head tablet moved after the
        # same cells: the same re-plan, seeded with the same qualifiers
        local = Connector(Instance(n_servers=2, metrics=MetricsRegistry()))
        _ingest_graph(local, splits=())
        with monkeypatch.context() as patch:
            TestReplanInProcess._move_mid_stream(local, patch, delivered,
                                                 split)
            want = _distinct(local, [Range()])
        assert got == want  # timestamps included


class TestWireBoundary:
    @staticmethod
    def _raw_scan(conn, entry, ranges=None, **fields):
        core = conn.instance.core
        if ranges is not None:
            fields["ranges"] = ranges
        stream = core.open_stream(entry.server.addr, wire.SCAN, {
            "table": "w", "tablet_id": entry.tablet_id,
            "columns": None, "resume": None, **fields})
        rows = []
        while True:
            code, pay, _ = stream.get(30.0)
            if code == wire.CHUNK:
                rows.extend(c.key.row
                            for c in blocks.block_to_cells(pay.block))
            else:
                return code, pay, rows

    def test_unsorted_or_overlapping_ranges_get_a_typed_error(self, conn):
        conn.create_table("w")
        with conn.batch_writer("w") as w:
            for row in "abcdefgh":
                w.put(row, "", "q", 1)
        (entry,) = conn.instance.tablets("w")
        code, _, rows = self._raw_scan(
            conn, entry, [["a", "c"], ["e", "e\0"], ["g", None]])
        assert (code, rows) == (wire.DONE, ["a", "b", "e", "g", "h"])
        code, _, rows = self._raw_scan(conn, entry, [])
        assert (code, rows) == (wire.DONE, [])
        for bad in ([["e", "g"], ["a", "c"]],        # unsorted
                    [["a", "e"], ["c", "g"]],        # overlapping
                    [["a", None], ["c", "d"]],       # open stop mid-list
                    [["a", "c"], [None, "g"]],       # open start mid-list
                    [["a", "c"], ["g", "e"]]):       # inverted
            code, pay, rows = self._raw_scan(conn, entry, bad)
            assert (code, rows) == (wire.ERROR, [])
            with pytest.raises(ValueError, match="sorted and disjoint"):
                wire.raise_error(pay)

    def test_ranges_is_required_and_range_is_refused(self, conn):
        conn.create_table("w")
        with conn.batch_writer("w") as w:
            for row in "abcdefgh":
                w.put(row, "", "q", 1)
        (entry,) = conn.instance.tablets("w")
        # a stale client still sending the single "range" this field
        # replaced must not be answered with the whole tablet
        for fields, exc in (({}, KeyError),
                            ({"range": ["a", "c"]}, ValueError),
                            ({"range": ["a", "c"],
                              "ranges": [["a", "c"]]}, ValueError),
                            ({"range": [None, None]}, ValueError)):
            code, pay, rows = self._raw_scan(conn, entry, **fields)
            assert (code, rows) == (wire.ERROR, []), fields
            with pytest.raises(exc):
                wire.raise_error(pay)
        code, _, rows = self._raw_scan(conn, entry, [[None, None]])
        assert (code, rows) == (wire.DONE, list("abcdefgh"))


def _conn_threads():
    """The tablet server's threads, but for the one that accepts."""
    return {t for t in threading.enumerate()
            if t.name.startswith("tserver0-") and t.name != "tserver0-accept"}


class TestScanWorkers:
    def test_sequential_lookups_start_no_thread(self):
        before = _conn_threads()
        with LocalCluster(n_servers=1, processes=False) as c:
            conn = c.connect()
            try:
                conn.create_table("t")
                with conn.batch_writer("t") as w:
                    for i in range(50):
                        w.put(f"r{i:02d}", "", "q", i)
                # the manager's connection and this client's, each with
                # the thread that accepted it
                first = _conn_threads() - before
                for i in range(50):
                    (cell,) = conn.scanner("t").set_range(
                        Range.exact_row(f"r{i:02d}"))
                    assert cell.value == str(i)
                # one stream open at a time, each one batch: the thread
                # that reads a SCAN answers it in one write and reads on
                assert first and _conn_threads() - before == first
                assert all(t.is_alive() for t in first)
            finally:
                conn.close()
        deadline = time.monotonic() + 5.0
        while (any(t.is_alive() for t in first)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        # threads die with their connection
        assert not any(t.is_alive() for t in first)
