"""Connector / Scanner / BatchScanner / BatchWriter.

The ``conn`` fixture is parametrized over both
:class:`~repro.dbsim.backend.ConnectorBackend` implementations: the
in-process :class:`~repro.dbsim.server.Instance` and a
:class:`~repro.net.client.RemoteConnector` talking to a live localhost
cluster over the RPC fabric.  Every test in this file runs against
both — the client surface must not care which side of a socket the
tablets live on.
"""

from itertools import islice

import pytest

from repro.dbsim.client import Connector
from repro.dbsim.errors import MutationsRejectedError, ServerCrashedError
from repro.dbsim.iterators import Layer
from repro.dbsim.key import Range
from repro.dbsim.server import Instance, TableConfig
from repro.dbsim.visibility import Authorizations
from repro.net.client import RemoteConnector, RemoteInstance
from repro.net.cluster import LocalCluster
from repro.net.wire import RpcError


@pytest.fixture(scope="module")
def remote_cluster():
    with LocalCluster(n_servers=2, processes=False) as cluster:
        yield cluster


def _wipe(conn):
    for table in list(conn.instance.list_tables()):
        conn.instance.delete_table(table)


def _tablet_cells(table, entry):
    """One tablet's cells, read through its server handle: the same
    ``scan_tablet`` on both backends."""
    return [cell for batch in entry.server.scan_tablet(
        table, entry.tablet_id, [Range()]) for cell in batch.cells()]


def _tablet_info(table, entry):
    return entry.server.submit("tablet_info", table, entry.tablet_id)()


@pytest.fixture(params=["local", "remote"])
def conn(request):
    if request.param == "local":
        c = Connector(Instance(n_servers=2))
    else:
        c = request.getfixturevalue("remote_cluster").connect()
        _wipe(c)  # the cluster outlives each test; tables must not
    c.create_table("t", splits=["m"])
    with c.batch_writer("t") as w:
        for r, q, v in [("a", "c1", 1), ("a", "c2", 2), ("m", "c1", 3),
                        ("z", "c9", 4)]:
            w.put(r, "", q, v)
    yield c
    if isinstance(c, RemoteConnector):
        _wipe(c)
        c.close()


class TestScanner:
    def test_full_scan_sorted_across_tablets(self, conn):
        out = [(c.key.row, c.key.qualifier, c.value)
               for c in conn.scanner("t")]
        assert out == [("a", "c1", "1"), ("a", "c2", "2"), ("m", "c1", "3"),
                       ("z", "c9", "4")]

    def test_range_scan(self, conn):
        s = conn.scanner("t").set_range(Range("a", "m"))
        assert [c.key.row for c in s] == ["a", "a"]

    def test_exact_row(self, conn):
        s = conn.scanner("t").set_range(Range.exact_row("m"))
        assert [c.value for c in s] == ["3"]

    def test_fetch_column(self, conn):
        s = conn.scanner("t").fetch_column("", "c1")
        assert [c.value for c in s] == ["1", "3"]

    def test_scan_iterators_applied(self, conn):
        from repro.dbsim.iterators import Layer, apply_stage

        s = conn.scanner("t", scan_iterators=(
            Layer(apply_stage(lambda v: v * 10)),))
        assert [c.value for c in s] == ["10", "20", "30", "40"]


class TestBatchScanner:
    def test_multiple_ranges(self, conn):
        bs = conn.batch_scanner("t").set_ranges(
            [Range.exact_row("z"), Range.exact_row("a")])
        out = [c.key.row for c in bs]
        assert out == ["z", "a", "a"]  # ranges in given order

    def test_requires_ranges(self, conn):
        with pytest.raises(ValueError):
            conn.batch_scanner("t").set_ranges([])


class TestBatchScannerAcrossSplits:
    """Range coalescing when a split lands *inside* a requested range
    after the scanner was set up — the tablet set the coalescer walks
    is stale the moment it is computed, and the results must not be."""

    def _fill(self, conn, n=300):
        conn.create_table("s")
        with conn.batch_writer("s") as w:
            for i in range(n):
                w.put(f"r{i:03d}", "", "c", i)

    def test_split_between_setup_and_iteration(self, conn):
        self._fill(conn)
        bs = conn.batch_scanner("s").set_ranges(
            [Range("r010", "r120"), Range("r150", "r260")])
        conn.instance.add_split("s", "r100")  # inside the first range
        rows = [c.key.row for c in bs]
        assert rows == [f"r{i:03d}" for i in range(10, 120)] + \
                       [f"r{i:03d}" for i in range(150, 260)]

    def test_split_mid_stream(self, conn):
        self._fill(conn)
        bs = conn.batch_scanner("s").set_ranges([Range("r010", "r260")])
        it = iter(bs)
        head = [next(it) for _ in range(10)]
        conn.instance.add_split("s", "r150")  # split while consuming
        rows = [c.key.row for c in head] + [c.key.row for c in it]
        assert rows == [f"r{i:03d}" for i in range(10, 260)]

    def test_split_mid_stream_inside_a_range_of_a_set(self, conn):
        self._fill(conn)
        bs = conn.batch_scanner("s").set_ranges(
            [Range("r010", "r120"), Range.exact_row("r130"),
             Range("r140", "r200"), Range("r220", "r260")])
        it = iter(bs)
        head = [next(it) for _ in range(10)]
        conn.instance.add_split("s", "r150")  # inside the third range
        rows = [c.key.row for c in head] + [c.key.row for c in it]
        assert rows == [f"r{i:03d}" for i in (*range(10, 120), 130,
                                              *range(140, 200),
                                              *range(220, 260))]

    @staticmethod
    def _split_behind(conn, row, table="s"):
        """Split through a *different* client, so this one's routing
        goes stale without it noticing."""
        inst = conn.instance
        if isinstance(inst, RemoteInstance):
            other = RemoteConnector(inst.manager_addr)
            try:
                other.instance.add_split(table, row)
            finally:
                other.close()
        else:
            inst.add_split(table, row)

    def test_stale_route_after_split_self_heals(self, conn):
        self._fill(conn)
        # warm this client's routing, then split through a *different*
        # client so the routing goes stale without this one noticing
        assert sum(1 for _ in conn.scanner("s")) == 300
        self._split_behind(conn, "r150")
        bs = conn.batch_scanner("s").set_ranges([Range("r100", "r200")])
        assert [c.key.row for c in bs] == \
            [f"r{i:03d}" for i in range(100, 200)]
        # a range set over the stale route: the third range straddles
        # a second split this client has not heard of either
        self._split_behind(conn, "r250")
        ranges = [Range("r010", "r120"), Range.exact_row("r130"),
                  Range("r140", "r260"), Range.prefix("r29")]
        conn.instance.add_split("s", "r200")
        self._split_behind(conn, "r230")
        got = conn.batch_scanner("s").set_ranges(ranges)
        assert [c.key.row for c in got] == \
            [f"r{i:03d}" for i in (*range(10, 120), 130, *range(140, 260),
                                   *range(290, 300))]


class TestOneScanPath:
    """A client scan is one loop on both backends: each tablet read
    through its server handle's ``scan_tablet`` with the layers that
    ship, the rest run once over the whole stream, a few tablets
    opened ahead, a moved tablet re-planned."""

    def test_a_user_layer_runs_once_over_the_whole_scan(self, conn):
        # a stateful layer sees one stream, not one per tablet: its
        # first batch is the first tablet's
        first = Layer(lambda batches: islice(batches, 1))
        assert [(c.key.row, c.value) for c in conn.scanner(
            "t", scan_iterators=(first,))] == [("a", "1"), ("a", "2")]

    def test_tablets_opened_ahead_miss_a_later_write(self, conn):
        # both tablets are open once the first cell is out: a write
        # made after it is not in this scan, as of its open
        scan = iter(conn.scanner("t"))
        assert next(scan).key.row == "a"
        with conn.batch_writer("t") as w:
            w.put("zz", "", "c9", 5)
        assert [c.key.row for c in scan] == ["a", "m", "z"]
        assert [c.key.row for c in conn.scanner("t")][-1] == "zz"

    def test_a_split_under_an_open_scan_equals_a_fresh_scan(self, conn):
        # five tablets: the last is not open yet when it splits
        conn.create_table("s", splits=["b", "d", "f", "h"])
        with conn.batch_writer("s") as w:
            for row in "abcdefghij":
                w.put(row, "", "c", row)
        scan = iter(conn.scanner("s"))
        head = [next(scan)]
        TestBatchScannerAcrossSplits._split_behind(conn, "i", "s")
        assert head + list(scan) == list(conn.scanner("s"))
        assert len(conn.instance.tablets("s")) == 6


class TestBatchWriter:
    def test_routes_to_correct_tablet(self, conn):
        inst = conn.instance
        left = inst.locate("t", "a")
        right = inst.locate("t", "z")
        assert len(_tablet_cells("t", left)) == 2
        assert len(_tablet_cells("t", right)) == 2

    def test_buffer_flush_threshold(self, conn):
        w = conn.batch_writer("t", buffer_size=2)
        w.put("q1", "", "c", 1)
        assert len(w._buffer) == 1
        w.put("q2", "", "c", 1)  # triggers flush
        assert len(w._buffer) == 0
        w.close()

    def test_write_after_close_rejected(self, conn):
        w = conn.batch_writer("t")
        w.close()
        with pytest.raises(RuntimeError):
            w.put("x", "", "c", 1)

    def test_numeric_values_encoded(self, conn):
        with conn.batch_writer("t") as w:
            w.put("num", "", "c", 2.5)
        s = conn.scanner("t").set_range(Range.exact_row("num"))
        assert [c.value for c in s] == ["2.5"]

    def test_buffer_size_validated(self, conn):
        with pytest.raises(ValueError):
            conn.batch_writer("t", buffer_size=0)

    def test_put_many_equals_put_loop(self, conn):
        """Same cells, same stamped timestamps — across tablets, across
        a buffer several times smaller than the input, with per-cell
        families and explicit timestamps as well as broadcast ones."""
        rows = [f"{'am'[i % 2]}{i % 5}" for i in range(40)]
        quals = [f"q{i:02d}" for i in range(40)]
        vals = [i / 4 if i % 3 else str(i) for i in range(40)]
        fams = [f"f{i % 2}" for i in range(40)]
        stamps = [0 if i % 4 else 1000 + i for i in range(40)]
        for table in ("loop", "bulk"):
            conn.create_table(table, splits=["m"])
        with conn.batch_writer("loop", buffer_size=7) as w:
            for r, q, v in zip(rows, quals, vals):
                w.put(r, "", q, v, visibility="a|b")
            for r, f, q, v, t in zip(rows, fams, quals, vals, stamps):
                w.put(r, f, q, v, timestamp=t)
        with conn.batch_writer("bulk", buffer_size=7) as w:
            w.put_many(rows, quals, vals, visibility="a|b")
            assert len(w._buffer) < 7   # queued a buffer at a time
            w.put_many(rows, quals, vals, family=fams, timestamps=stamps)
        auths = Authorizations(["a"])
        bulk = list(conn.scanner("bulk", authorizations=auths))
        assert bulk == list(conn.scanner("loop", authorizations=auths))
        assert len(bulk) == 80

    def test_put_many_validates(self, conn):
        with conn.batch_writer("t") as w:
            with pytest.raises(ValueError, match="align"):
                w.put_many(["a", "b"], ["q"], [1, 2])
            # a column longer than rows is refused, not truncated
            for column in ({"family": ["f", "f", "f"]},
                           {"visibility": ["", "", ""]},
                           {"timestamps": [1, 2, 3]}):
                with pytest.raises(ValueError, match="align"):
                    w.put_many(["a", "b"], ["q", "q"], [1, 2], **column)
            with pytest.raises(ValueError):
                w.put_many(["a"], ["q"], [1], visibility="a&|b")
            with pytest.raises(ValueError):
                w.put_many(["a", "b"], ["q", "q"], [1, 2],
                           visibility=["", "(a"])
            assert w._buffer == []
        w = conn.batch_writer("t")
        w.close()
        with pytest.raises(RuntimeError):
            w.put_many(["x"], ["c"], [1])


class TestFlushDiscipline:
    """BatchWriter's one flush path, spied on at the server handle: a
    flush sends every batch (``submit("write_tablet", …)``) and awaits
    none; the next flush awaits every answer of the last before it
    sends its first batch; ``flush()`` awaits all; a failing batch is
    raised once the rest of its flush is answered, and the writer stays
    failed.  A batch is named by its first row."""

    @staticmethod
    def _spy(conn, monkeypatch, failing=None):
        events = []
        cls = type(conn.instance.tablets("t")[0].server)
        real = cls.submit

        def submit(server, op, *args):
            answer = real(server, op, *args)
            if op != "write_tablet":
                return answer
            name = args[2][0][0]  # the batch's row column, first row
            events.append(("send", name))

            def spied():
                applied = answer()
                events.append(("answer", name))
                if name == failing:
                    raise RuntimeError(f"batch {name} failed")
                return applied
            return spied

        monkeypatch.setattr(cls, "submit", submit)
        return events

    @staticmethod
    def _flush(w, k):
        # one flush: two rows for each side of the split at "m"
        for row in (f"a{k}0", f"n{k}0", f"a{k}1", f"n{k}1"):
            w.put(row, "", "c", k)

    def test_the_next_flush_waits_for_the_last(self, conn, monkeypatch):
        events = self._spy(conn, monkeypatch)
        w = conn.batch_writer("t", buffer_size=4)
        self._flush(w, 0)
        # sent, and nobody waits for the answers yet
        assert events == [("send", "a00"), ("send", "n00")]
        self._flush(w, 1)
        self._flush(w, 2)
        assert events[-2:] == [("send", "a20"), ("send", "n20")]
        sent, answered = [], set()
        for kind, name in events:
            if kind == "send":
                # every batch of an earlier flush is answered first
                assert {b for b in sent if b[1] < name[1]} <= answered
                sent.append(name)
            else:
                answered.add(name)
        assert len(sent) == 6 and answered == {"a00", "n00", "a10", "n10"}
        w.flush()
        # flush() returns with nothing left unanswered
        assert {name for kind, name in events if kind == "answer"} \
            == set(sent)
        w.close()
        assert len(events) == 12  # close() after flush() sends nothing
        assert len(list(conn.scanner("t"))) == 4 + 12

    def test_a_failing_batch_waits_for_its_flush(self, conn, monkeypatch):
        events = self._spy(conn, monkeypatch, failing="a10")
        w = conn.batch_writer("t", buffer_size=4)
        self._flush(w, 0)
        self._flush(w, 1)
        with pytest.raises(RuntimeError, match="a10 failed"):
            w.flush()
        assert events[-2:] == [("answer", "a10"), ("answer", "n10")]
        with pytest.raises(MutationsRejectedError):
            w.close()
        # the failure was the answer's, after the batch applied
        assert len(list(conn.scanner("t"))) == 4 + 8

    @staticmethod
    def _crash_owner(conn, table, row):
        """Crash the server hosting ``row`` of ``table`` through its
        handle; the call that recovers it."""
        server = conn.instance.locate(table, row).server
        server.submit("crash")()
        return lambda: server.submit("recover", True)()

    def test_a_batch_a_crashed_server_refused_is_not_sent_again(self, conn):
        # the refusal is the batch's answer on both backends: flush()
        # raises it, the rest of the flush stays applied once, and the
        # writer stays failed — every later put, flush and close raises
        # the one typed error naming the refused tablet and its cells
        conn.create_table("s", TableConfig.combining("sum"), splits=["m"])
        w = conn.batch_writer("s")
        w.put("a", "", "c", 1)
        w.put("z", "", "c", 1)
        refusing = conn.instance.locate("s", "z").tablet_id
        recover = self._crash_owner(conn, "s", "z")
        with pytest.raises((ServerCrashedError, RpcError)):
            w.flush()
        recover()
        for later in (lambda: w.put("b", "", "c", 1), w.flush, w.close):
            with pytest.raises(MutationsRejectedError) as info:
                later()
            assert info.value.refused == {refusing: 1}
            assert isinstance(info.value.__cause__,
                              (ServerCrashedError, RpcError))
        assert [(c.key.row, c.value) for c in conn.scanner("s")] \
            == [("a", "1")]


class TestTableOps:
    def test_create_delete_exists(self, conn):
        conn.create_table("x")
        assert conn.table_exists("x")
        conn.delete_table("x")
        assert not conn.table_exists("x")

    def test_flush_compact(self, conn):
        conn.flush("t")
        total_runs = sum(len(_tablet_info("t", e)["sstables"])
                         for e in conn.instance.tablets("t"))
        assert total_runs >= 1
        conn.compact("t")
        for e in conn.instance.tablets("t"):
            assert len(_tablet_info("t", e)["sstables"]) <= 1


def _lines(cells):
    """One ``row family:qualifier [visibility]\\tvalue`` line per cell —
    the listing ``examples/multitenant_security.py`` prints."""
    return [f"{c.key.row} {c.key.family}:{c.key.qualifier} "
            f"[{c.key.visibility}]\t{c.value}" for c in cells]


class TestTableLifecycle:
    def test_list_tables_after_create_and_delete(self, conn):
        conn.create_table("t2")
        conn.create_table("t1")
        assert conn.instance.list_tables() == ["t", "t1", "t2"]
        conn.delete_table("t1")
        assert conn.instance.list_tables() == ["t", "t2"]

    def test_create_existing_table_rejected(self, conn):
        with pytest.raises(ValueError, match="already exists"):
            conn.create_table("t")
        assert [c.value for c in conn.scanner("t")] == ["1", "2", "3", "4"]

    def test_missing_table_raises_key_error(self, conn):
        with pytest.raises(KeyError, match="no such table"):
            list(conn.scanner("nope"))
        with pytest.raises(KeyError, match="no such table"):
            conn.delete_table("nope")

    def test_recreated_table_starts_empty(self, conn):
        conn.delete_table("t")
        conn.create_table("t")
        assert list(conn.scanner("t")) == []


class TestDataPath:
    def test_scan_lines_in_key_order(self, conn):
        conn.create_table("d")
        with conn.batch_writer("d") as w:
            w.put("r2", "f", "q1", 7)
            w.put("r1", "f", "q1", 5)
        assert _lines(conn.scanner("d")) == ["r1 f:q1 []\t5",
                                             "r2 f:q1 []\t7"]

    def test_range_is_half_open(self, conn):
        conn.create_table("d")
        with conn.batch_writer("d") as w:
            for r in ("a", "b", "c"):
                w.put(r, "f", "q", 1)
        scanner = conn.scanner("d").set_range(Range("b", "c"))
        assert _lines(scanner) == ["b f:q []\t1"]

    def test_delete_hides_cell_through_flush_and_compact(self, conn):
        conn.create_table("d")
        with conn.batch_writer("d") as w:
            w.put("r", "f", "q", 5)
            w.put("r", "f", "keep", 6)
        with conn.batch_writer("d") as w:
            w.delete("r", "f", "q")
        assert _lines(conn.scanner("d")) == ["r f:keep []\t6"]
        conn.flush("d")
        conn.compact("d")
        assert _lines(conn.scanner("d")) == ["r f:keep []\t6"]

    def test_labelled_cell_needs_authorizations(self, conn):
        conn.create_table("d")
        with conn.batch_writer("d") as w:
            w.put("r", "f", "q", "secretvalue", visibility="red")
            w.put("r", "f", "q2", "open")
        assert _lines(conn.scanner("d")) == ["r f:q2 []\topen"]
        red = conn.scanner("d", authorizations=Authorizations(["red"]))
        assert _lines(red) == ["r f:q [red]\tsecretvalue",
                               "r f:q2 []\topen"]
        blue = conn.scanner("d", authorizations=Authorizations(["blue"]))
        assert _lines(blue) == ["r f:q2 []\topen"]

    @pytest.mark.parametrize("auths, seen", [
        ((), []),
        (("red",), ["either"]),
        (("blue",), ["either"]),
        (("red", "blue"), ["both", "either"]),
    ])
    def test_visibility_expressions(self, conn, auths, seen):
        conn.create_table("d")
        with conn.batch_writer("d") as w:
            w.put("r", "f", "q1", "both", visibility="red&blue")
            w.put("r", "f", "q2", "either", visibility="red|blue")
        scanner = conn.scanner("d", authorizations=Authorizations(auths))
        assert [c.value for c in scanner] == seen

    def test_delete_targets_one_visibility(self, conn):
        conn.create_table("d")
        with conn.batch_writer("d") as w:
            w.put("r", "f", "q", "open")
            w.put("r", "f", "q", "secret", visibility="red")
        with conn.batch_writer("d") as w:
            w.delete("r", "f", "q", visibility="red")
        scanner = conn.scanner("d", authorizations=Authorizations(["red"]))
        assert _lines(scanner) == ["r f:q []\topen"]


class TestMaintenance:
    def test_entry_estimate_after_flush_and_compact(self, conn):
        conn.create_table("d")
        with conn.batch_writer("d") as w:
            w.put("r", "f", "q", 1)
        conn.flush("d")
        conn.compact("d")
        assert conn.instance.table_entry_estimate("d") == 1

    def test_repeated_split_is_one_split(self, conn):
        conn.create_table("d")
        with conn.batch_writer("d") as w:
            for r in ("a", "m", "z"):
                w.put(r, "f", "q", r)
        conn.add_split("d", "m")
        conn.add_split("d", "m")
        assert len(conn.instance.tablets("d")) == 2
        conn.add_split("d", "t")
        assert len(conn.instance.tablets("d")) == 3
        assert [c.value for c in conn.scanner("d")] == ["a", "m", "z"]
