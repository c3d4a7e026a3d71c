"""Deletes/tombstones, cell-level visibility, and WAL crash recovery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbsim import (
    Authorizations,
    Connector,
    Layer,
    PUBLIC,
    ServerCrashedError,
    VisibilityError,
    check_expression,
    parse_visibility,
)
from repro.dbsim.key import Key, Range
from repro.dbsim.server import Instance


@pytest.fixture
def conn():
    c = Connector(Instance(n_servers=2))
    c.create_table("t")
    return c


def rows_of(scanner):
    return [(c.key.row, c.key.qualifier, c.value) for c in scanner]


class TestDeletes:
    def test_delete_hides_cell(self, conn):
        with conn.batch_writer("t") as w:
            w.put("r", "", "q", 5)
        with conn.batch_writer("t") as w:
            w.delete("r", "", "q")
        assert rows_of(conn.scanner("t")) == []

    def test_delete_then_rewrite_visible(self, conn):
        with conn.batch_writer("t") as w:
            w.put("r", "", "q", 1)
            w.delete("r", "", "q")
            w.put("r", "", "q", 9)
        assert rows_of(conn.scanner("t")) == [("r", "q", "9")]

    def test_delete_only_addressed_cell(self, conn):
        with conn.batch_writer("t") as w:
            w.put("r", "", "q1", 1)
            w.put("r", "", "q2", 2)
            w.delete("r", "", "q1")
        assert rows_of(conn.scanner("t")) == [("r", "q2", "2")]

    def test_delete_across_flush(self, conn):
        with conn.batch_writer("t") as w:
            w.put("r", "", "q", 1)
        conn.flush("t")
        with conn.batch_writer("t") as w:
            w.delete("r", "", "q")
        assert rows_of(conn.scanner("t")) == []
        conn.flush("t")
        assert rows_of(conn.scanner("t")) == []

    def test_compaction_drops_tombstones(self, conn):
        with conn.batch_writer("t") as w:
            w.put("r", "", "q", 1)
            w.delete("r", "", "q")
        conn.compact("t")
        entry = conn.instance.locate("t", "r")
        tablet = entry.server.tablet("t", entry.tablet_id)
        assert tablet.entry_estimate() == 0  # marker and victim both gone

    def test_delete_does_not_hide_newer_write(self, conn):
        entry = conn.instance.locate("t", "r")
        tablet = entry.server.tablet("t", entry.tablet_id)
        tablet.write(Key("r", "", "q", "", 5), "old")
        tablet.write(Key("r", "", "q", "", 7), "new")
        tablet.delete(Key("r", "", "q", "", 6))
        assert rows_of(conn.scanner("t")) == [("r", "q", "new")]


class TestVisibilityExpressions:
    def test_parse_simple(self):
        assert parse_visibility("admin") == "admin"

    def test_and_or(self):
        a = Authorizations(["x", "y"])
        assert a.can_see("x&y")
        assert a.can_see("x|z")
        assert not a.can_see("x&z")
        assert not a.can_see("z")

    def test_parentheses(self):
        a = Authorizations(["eu", "analyst"])
        assert a.can_see("(eu|us)&analyst")
        assert not Authorizations(["analyst"]).can_see("(eu|us)&analyst")

    def test_empty_is_public(self):
        assert PUBLIC.can_see("")
        assert Authorizations(["a"]).can_see("")

    def test_mixed_ops_without_parens_rejected(self):
        with pytest.raises(VisibilityError, match="mix"):
            parse_visibility("a&b|c")

    @pytest.mark.parametrize("bad", ["a&", "&a", "(a", "a)", "a b", "a&&b",
                                     "()", ""])
    def test_malformed_rejected(self, bad):
        if bad == "":
            check_expression(bad)  # empty is legal (public)
        else:
            with pytest.raises(VisibilityError):
                parse_visibility(bad)

    def test_bad_auth_token(self):
        with pytest.raises(VisibilityError):
            Authorizations(["has space"])

    @given(st.sets(st.sampled_from(["a", "b", "c", "d"])))
    @settings(max_examples=30, deadline=None)
    def test_and_requires_all_or_any(self, auths):
        a = Authorizations(auths)
        assert a.can_see("a&b&c") == ({"a", "b", "c"} <= auths)
        assert a.can_see("a|b|c") == bool({"a", "b", "c"} & auths)


class TestVisibilityScanning:
    def test_scan_filters_by_auths(self, conn):
        with conn.batch_writer("t") as w:
            w.put("r1", "", "q", 1, visibility="secret")
            w.put("r2", "", "q", 2)
            w.put("r3", "", "q", 3, visibility="secret&audit")
        public = rows_of(conn.scanner("t"))
        assert public == [("r2", "q", "2")]
        secret = rows_of(conn.scanner(
            "t", authorizations=Authorizations(["secret"])))
        assert [r for r, _, _ in secret] == ["r1", "r2"]
        full = rows_of(conn.scanner(
            "t", authorizations=Authorizations(["secret", "audit"])))
        assert len(full) == 3

    def test_batch_scanner_respects_auths(self, conn):
        with conn.batch_writer("t") as w:
            w.put("r1", "", "q", 1, visibility="pii")
        bs = conn.batch_scanner(
            "t", authorizations=Authorizations(["pii"]))
        bs.set_ranges([Range.exact_row("r1")])
        assert len(list(bs)) == 1
        bs2 = conn.batch_scanner("t")
        bs2.set_ranges([Range.exact_row("r1")])
        assert list(bs2) == []

    def test_write_time_validation(self, conn):
        w = conn.batch_writer("t")
        with pytest.raises(VisibilityError):
            w.put("r", "", "q", 1, visibility="a&")

    def test_same_cell_different_visibility_coexist(self, conn):
        """(row, qual) with distinct visibilities are distinct cells —
        each audience sees its own version."""
        with conn.batch_writer("t") as w:
            w.put("r", "", "q", 1, visibility="alpha")
            w.put("r", "", "q", 2, visibility="beta")
        alpha = rows_of(conn.scanner("t",
                                     authorizations=Authorizations(["alpha"])))
        beta = rows_of(conn.scanner("t",
                                    authorizations=Authorizations(["beta"])))
        assert alpha == [("r", "q", "1")] and beta == [("r", "q", "2")]


class TestWALRecovery:
    def test_crash_without_wal_replay_loses_memtable(self, conn):
        with conn.batch_writer("t") as w:
            w.put("r", "", "q", 1)
        for server in conn.instance.servers:
            server.crash()
            server.recover(replay_wal=False)  # restart, skip log recovery
        assert rows_of(conn.scanner("t")) == []

    def test_recovery_replays_wal(self, conn):
        with conn.batch_writer("t") as w:
            w.put("r1", "", "q", 1)
            w.put("r2", "", "q", 2)
        for server in conn.instance.servers:
            server.crash()
            server.recover()
        assert rows_of(conn.scanner("t")) == [("r1", "q", "1"),
                                              ("r2", "q", "2")]

    def test_flushed_data_survives_crash_without_replay(self, conn):
        with conn.batch_writer("t") as w:
            w.put("r1", "", "q", 1)
        conn.flush("t")
        with conn.batch_writer("t") as w:
            w.put("r2", "", "q", 2)
        for server in conn.instance.servers:
            server.crash()
            server.recover(replay_wal=False)  # restart, skip log recovery
        assert rows_of(conn.scanner("t")) == [("r1", "q", "1")]
        for server in conn.instance.servers:
            server.recover()  # WALs stayed durable; replay them now
        assert rows_of(conn.scanner("t")) == [("r1", "q", "1"),
                                              ("r2", "q", "2")]

    def test_recovery_preserves_order_and_deletes(self, conn):
        with conn.batch_writer("t") as w:
            w.put("r", "", "q", 1)
            w.delete("r", "", "q")
            w.put("r", "", "q", 7)
        for server in conn.instance.servers:
            server.crash()
            server.recover()
        assert rows_of(conn.scanner("t")) == [("r", "q", "7")]

    def test_recovery_idempotent(self, conn):
        with conn.batch_writer("t") as w:
            w.put("r", "", "q", 1)
        entry = conn.instance.locate("t", "r")
        tablet = entry.server.tablet("t", entry.tablet_id)
        tablet.crash()
        tablet.recover()
        tablet.recover()  # double replay must not duplicate visible data
        assert rows_of(conn.scanner("t")) == [("r", "q", "1")]


class TestCrashedServerErrors:
    """A crashed (not yet recovered) server rejects every data op with
    the typed error a remote client's retry loop keys off."""

    def _crash_all(self, conn):
        for server in conn.instance.servers:
            server.crash()

    def test_scan_on_crashed_server_raises(self, conn):
        with conn.batch_writer("t") as w:
            w.put("r", "", "q", 1)
        self._crash_all(conn)
        with pytest.raises(ServerCrashedError):
            list(conn.scanner("t"))

    def test_crash_mid_open_scan_raises(self, conn):
        """A scan already streaming when the server dies must surface
        the typed error, not keep reading the dead server's tablets."""
        with conn.batch_writer("t") as w:
            for i in range(10):
                w.put(f"r{i}", "", "q", i)
        # with and without a user layer: all 10 cells sit in one
        # storage batch, so the per-cell re-check is what fires
        for scan_iterators in ((), (Layer(lambda batches: batches),)):
            scan = iter(conn.scanner("t", scan_iterators=scan_iterators))
            assert next(scan).key.row == "r0"
            self._crash_all(conn)
            with pytest.raises(ServerCrashedError):
                next(scan)
            for server in conn.instance.servers:
                server.recover()

    def test_crash_mid_staged_tablet_scan_raises(self, conn):
        """A hosted tablet's scan through a user layer re-checks its
        server at every storage batch: a crash after the scan opened
        surfaces by the next one."""
        with conn.batch_writer("t") as w:
            for i in range(10):
                w.put(f"r{i}", "", "q", i)
        entry = conn.instance.locate("t", "r0")
        tablet = entry.server.tablet("t", entry.tablet_id)
        batches = tablet.scan_columns(Range(), None, (),
                                      (Layer(lambda batches: batches),),
                                      batch_cells=4)
        assert next(batches).rows == ["r0", "r1", "r2", "r3"]
        self._crash_all(conn)
        with pytest.raises(ServerCrashedError):
            next(batches)

    def test_write_on_crashed_server_raises(self, conn):
        self._crash_all(conn)
        w = conn.batch_writer("t")
        w.put("r", "", "q", 1)
        with pytest.raises(ServerCrashedError):
            w.flush()

    def test_flush_and_compact_on_crashed_server_raise(self, conn):
        with conn.batch_writer("t") as w:
            w.put("r", "", "q", 1)
        self._crash_all(conn)
        with pytest.raises(ServerCrashedError):
            conn.flush("t")
        with pytest.raises(ServerCrashedError):
            conn.compact("t")

    def test_recover_restores_service(self, conn):
        with conn.batch_writer("t") as w:
            w.put("r", "", "q", 1)
        self._crash_all(conn)
        for server in conn.instance.servers:
            server.recover()
        assert rows_of(conn.scanner("t")) == [("r", "q", "1")]
