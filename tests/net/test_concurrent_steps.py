"""A two-table op's steps run on every tablet server at once.

The plane submits every server's ``MULTIPLY_TABLETS`` step before it
waits on any, a stepping server holds its service lock only to slice
runs and to apply a local write, and a ``"row"`` join stamps its blocks
from the plan, not from ``out``'s clock.  These tests pin what that
must keep true, on thread and process clusters of two servers:

* two steps that each write into the other server's ``out`` tablet and
  read the other's mask tablet both finish, and a ``SCAN`` or
  ``WRITE_BATCH`` sent to a stepping server is answered before its step
  ends;
* whichever step finishes first, ``C`` — float sums whose value depends
  on the order they are folded in — equals the in-process run bit for
  bit, timestamps included, and so do the row-owned ops: Jaccard, whose
  step writes mirror cells into its peer's rows, and a k-truss of
  several rounds;
* a step re-sent while the original still runs (the connection reset
  under it), or after its ack was lost, is applied once — a
  partial-product step and a row-owned one, which reads its ``B`` rows
  from its peer;
* a fresh ``out`` is split like ``AT``, each tablet beside its ``AT``
  twin, so a one-table op sends no ``WRITE_BATCH`` at all, and one
  masked by a table split and placed like its source no peer ``SCAN``
  either.
"""

import itertools
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict

import pytest

from repro.dbsim.client import Connector
from repro.dbsim.graphulo import (BLOCK_PARTIAL_PRODUCTS, _multiply,
                                  create_combiner_table, table_mult)
from repro.dbsim.graphulo_algorithms import table_jaccard, table_ktruss
from repro.dbsim.key import decode_number
from repro.dbsim.server import Instance, MultSpec
from repro.net import wire
from repro.net.client import RemoteConnector, RpcCore, format_addr
from repro.net.faults import FaultPlan, FaultRule
from repro.net.iterspec import IterSpec
from repro.net.server import (
    ManagerProcess,
    ManagerService,
    TabletServerProcess,
    TabletServerService,
)
from repro.obs.metrics import MetricsRegistry

MODES = pytest.mark.parametrize("processes", [False, True],
                                ids=["threads", "processes"])
SERVERS = ("tserver0", "tserver1")
#: how long a test waits for an op that must not hang
DEADLINE_S = 10.0


def _local():
    return Connector(Instance(n_servers=len(SERVERS),
                              metrics=MetricsRegistry()))


def _cells(conn, table):
    return list(conn.scanner(table))


@contextmanager
def _cluster(processes, faults=None, seed=0):
    """Two tablet servers and a manager; ``faults`` maps a server name
    to the fault specs its responses are drawn against, seeded with
    ``seed``.  Yields the client and each server's address by name."""
    faults = faults or {}
    if processes:
        servers = [TabletServerProcess(name, faults.get(name, ()), seed)
                   for name in SERVERS]
        manager = ManagerProcess(())
        for proc in (*servers, manager):
            proc.launch()
        manager.servers = [(s.name, s.wait_addr()) for s in servers]
        addr = manager.wait_addr()
    else:
        servers = [TabletServerService(
            name, faults=FaultPlan.from_specs(faults[name], seed)
            if name in faults else None) for name in SERVERS]
        manager = ManagerService([(s.name, s.start()) for s in servers])
        addr = manager.start()
    conn = RemoteConnector(addr, metrics=MetricsRegistry())
    try:
        yield conn, {s.name: s.addr for s in servers}
    finally:
        if processes:
            conn.instance.shutdown_cluster()
        conn.close()
        for service in (manager, *servers):
            service.stop()


def _server_metrics(addr):
    """One server's registry, asked of it directly: the manager is
    busy for as long as a TABLE_MULT runs."""
    core = RpcCore(metrics=MetricsRegistry())
    try:
        return core.call(addr, wire.METRICS, {})
    finally:
        core.close()


def _homes(conn, table, addrs=None):
    """Each tablet of ``table``, in extent order, as (start row, the
    name of its server); a cluster's servers are named by ``addrs``."""
    inst = conn.instance
    if addrs is None:
        return [(e.extent.start_row, e.server.name)
                for e in inst.table(table).index.entries]
    names = {addr: name for name, addr in addrs.items()}
    return [(p.extent.start_row, names[p.server.addr]) for p in inst.tablets(table)]


def _delays(addr):
    return _server_metrics(addr).get("net.server.faults.delay", 0)


def _wait_for(predicate, what):
    give_up = time.monotonic() + DEADLINE_S
    while not predicate():
        assert time.monotonic() < give_up, f"never saw {what}"
        time.sleep(0.01)


class _Background(threading.Thread):
    """``call`` on a daemon thread, keeping what it returns or raises."""

    def __init__(self, call):
        super().__init__(daemon=True)
        self.call = call
        self.value = self.error = None

    def run(self):
        try:
            self.value = self.call()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            self.error = exc


@contextmanager
def _in_background(call):
    """Run ``call`` on a daemon thread while the block runs; on
    leaving, wait for it (at most :data:`DEADLINE_S`) and re-raise what
    it raised.  Yields the thread, whose ``value`` is then the call's."""
    thread = _Background(call)
    thread.start()
    yield thread
    thread.join(DEADLINE_S)
    assert not thread.is_alive(), f"call still running after {DEADLINE_S} s"
    if thread.error is not None:
        raise thread.error


def _finish(call):
    """``call()``'s answer; the test fails if it has none within
    :data:`DEADLINE_S`."""
    with _in_background(call) as thread:
        pass
    return thread.value


# -- two steps that wait on each other's server -----------------------------

#: inner rows per AT tablet; each is a block of its own (block bound 1),
#: and each block reads a mask row of, and writes a row into, the other
#: server's tablets
CROSS_ROWS = 12


def _load_crossed(conn):
    """``AT``'s tablet on tserver0 holds the rows whose products land in
    ``C``'s and ``M``'s tablets on tserver1, and the other way round:
    round-robin placement, every table split in two, the same on every
    backend."""
    conn.create_table("AT", splits=["t1"])
    create_combiner_table(conn, "C", splits=["v"])
    conn.create_table("M", splits=["v"])
    with conn.batch_writer("AT") as w:
        for t in range(CROSS_ROWS):
            # tserver0's rows name v-columns (tserver1's half of C, M),
            # tserver1's rows u-columns (tserver0's half)
            for q in ("v0", "v1"):
                w.put(f"t0{t:02d}", "", q, 1 + t % 3)
            for q in ("u0", "u1"):
                w.put(f"t1{t:02d}", "", q, 2 + t % 2)
    with conn.batch_writer("M") as w:
        for a, b in (("u0", "u1"), ("u1", "u0"), ("u0", "u0"),
                     ("v0", "v1"), ("v1", "v0"), ("v1", "v1")):
            w.put(a, "", b, 1)


CROSS_SPEC = MultSpec("AT", "C", 1, mask="M")


@pytest.fixture(scope="module")
def crossed_in_process():
    local = _local()
    _load_crossed(local)
    work = local.instance.table_mult("AT", CROSS_SPEC)
    return work, _cells(local, "C")


class TestStepsWaitOnEachOther:
    @MODES
    def test_crossed_steps_both_finish(self, crossed_in_process, processes):
        with _cluster(processes) as (conn, addrs):
            _load_crossed(conn)
            # the layout the test is about: each AT tablet's outputs
            # and mask rows live on the other server
            homes = [_homes(conn, t, addrs) for t in ("AT", "C", "M")]
            _finish(lambda: conn.instance.table_mult("AT", CROSS_SPEC))
            got = _cells(conn, "C")
        assert homes == [[(None, "tserver0"), ("t1", "tserver1")],
                         *[[(None, "tserver0"), ("v", "tserver1")]] * 2]
        work, want = crossed_in_process
        assert got == want and len(want) == 6
        assert work["blocks"] == 2 * CROSS_ROWS

    @MODES
    def test_a_stepping_server_answers_scans_and_writes(
            self, crossed_in_process, processes):
        """tserver1 acks every write 0.1 s late, so tserver0's step —
        each of its blocks writes into tserver1 — runs for over a
        second.  A scan of and a write to tserver0's tablets meanwhile
        are answered while the op still runs."""
        faults = {"tserver1": ["write_batch:delay:1.0:0.1"]}
        with _cluster(processes, faults) as (conn, addrs):
            _load_crossed(conn)
            conn.create_table("X")  # round-robin: tserver0
            assert conn.instance.locate("X", "x").server.addr == addrs["tserver0"]
            delayed = _delays(addrs["tserver1"])
            with _in_background(lambda: conn.instance.table_mult(
                    "AT", CROSS_SPEC)) as op:
                _wait_for(lambda: _delays(addrs["tserver1"]) > delayed,
                          "tserver0's step write into tserver1")
                rows = {c.key.row for c in conn.scanner("AT")}
                with conn.batch_writer("X") as w:
                    w.put("x", "", "q", 1)
                answered_mid_op = op.is_alive()
            got, x = _cells(conn, "C"), _cells(conn, "X")
        assert answered_mid_op
        assert len(rows) == 2 * CROSS_ROWS and len(x) == 1
        assert got == crossed_in_process[1]


# -- whichever step finishes first ------------------------------------------

#: each step's three inner rows, one block each: every block writes one
#: partial cell into each of C's rows, and their float sum depends on
#: the order it is folded in
ORDERED = {"t0": (1e16, 1.0, -1e16), "t1": (1.0, 1e16, -1e16)}


def _load_ordered(conn):
    """``AT`` and ``B`` split at ``t1`` (tserver0, tserver1 each), ``C``
    at ``u1``: every step writes row ``u0`` into tserver0 and ``u1``
    into tserver1, one locally and one to its peer."""
    conn.create_table("AT", splits=["t1"])
    conn.create_table("B", splits=["t1"])
    create_combiner_table(conn, "C", splits=["u1"])
    with conn.batch_writer("AT") as a, conn.batch_writer("B") as b:
        for half, values in ORDERED.items():
            for i, value in enumerate(values):
                row = f"{half}{i}"
                for q in ("u0", "u1"):
                    a.put(row, "", q, value)
                b.put(row, "", "w", 1)


#: block bound 2: one inner row (2 × 1 products) per block
ORDERED_SPEC = MultSpec("B", "C", 2)


def _slow(step, how):
    """Fault specs that make ``step``'s server the later one: its step
    answered late (``"ack"``), or its writes into its peer acked late
    (``"writes"``), so they land after the other step's."""
    server, peer = (SERVERS if step == "tserver0" else SERVERS[::-1])
    if how == "ack":
        return {server: ["multiply_tablets:delay:1.0:0.1"]}
    return {peer: ["write_batch:delay:1.0:0.05"]}


ORDERS = pytest.mark.parametrize("slow, how", list(itertools.product(
    SERVERS, ("ack", "writes"))))


@pytest.fixture(scope="module")
def ordered_in_process():
    local = _local()
    _load_ordered(local)
    work = local.instance.table_mult("AT", ORDERED_SPEC)
    return work, _cells(local, "C")


@pytest.fixture(scope="module")
def jaccard_in_process():
    local = _local()
    _load_graph(local)
    table_jaccard(local, "A", "J")
    return _cells(local, "J")


@pytest.fixture(scope="module")
def ktruss_in_process():
    local = _local()
    _load_graph(local)
    table_ktruss(local, "A", "K", 3)
    return _cells(local, "K")


def _load_graph(conn):
    """An undirected graph over 12 vertices, split so both servers
    hold rows of it."""
    conn.create_table("A", splits=["v06"])
    with conn.batch_writer("A") as w:
        for u, v in itertools.combinations(range(12), 2):
            if (u * 7 + v * 3) % 4 == 0:
                w.put(f"v{u:02d}", "", f"v{v:02d}", 1)
                w.put(f"v{v:02d}", "", f"v{u:02d}", 1)


def _fold(values):
    acc = values[0]
    for value in values[1:]:
        acc += value
    return acc


class TestFinishOrder:
    def test_the_fold_follows_the_plan_stamps(self, ordered_in_process):
        """Block ``k`` of step ``s`` (of 2, base 0) is stamped ``2k + s +
        1``; each ``C`` cell folds its six partial cells newest stamp
        first and keeps the newest stamp.  Other fold orders of the same
        six values give other sums."""
        work, cells = ordered_in_process
        partials = sorted(((2 * k + s + 1, value)
                           for s, values in enumerate(ORDERED.values())
                           for k, value in enumerate(values)), reverse=True)
        assert work["blocks"] == 6
        assert [(c.key.row, c.key.timestamp, decode_number(c.value))
                for c in cells] == [
            (row, 6, _fold([value for _, value in partials]))
            for row in ("u0", "u1")]
        assert len({_fold(list(order)) for order in itertools.permutations(
            value for _, value in partials)}) > 1

    @MODES
    @ORDERS
    def test_c_equals_in_process(self, ordered_in_process, processes,
                                 slow, how):
        with _cluster(processes, _slow(slow, how)) as (conn, addrs):
            _load_ordered(conn)
            before = sum(map(_delays, addrs.values()))
            work = conn.instance.table_mult("AT", ORDERED_SPEC)
            got = _cells(conn, "C")
            delayed = sum(map(_delays, addrs.values())) - before
        assert (work, got) == ordered_in_process  # timestamps included
        # the slow step's three peer writes, or its answer
        assert delayed == (3 if how == "writes" else 1)

    @MODES
    @ORDERS
    def test_jaccard_equals_in_process(self, jaccard_in_process, processes,
                                       slow, how):
        with _cluster(processes, _slow(slow, how)) as (conn, _):
            _load_graph(conn)
            table_jaccard(conn, "A", "J")
            got = _cells(conn, "J")
        assert got == jaccard_in_process  # timestamps included
        # both servers' J tablets hold cells
        assert {c.key.row < "v06" for c in got} == {True, False}

    @MODES
    @ORDERS
    def test_ktruss_equals_in_process(self, ktruss_in_process, processes,
                                      slow, how):
        """Every round is one row-owned op whose steps finish in either
        order; the rounds and ``K`` are the same, stamps included."""
        with _cluster(processes, _slow(slow, how)) as (conn, _):
            _load_graph(conn)
            table_ktruss(conn, "A", "K", 3)
            got = _cells(conn, "K")
            tables = conn.instance.list_tables()
        assert got == ktruss_in_process  # timestamps included
        assert {c.key.row < "v06" for c in got} == {True, False}
        assert sorted(tables) == ["A", "K"]


# -- a step re-sent while it runs --------------------------------------------


#: tserver0's step over ``_load_crossed``'s tables, alone: its share
#: of ``AᵀA`` (partial products, every block writing into tserver1),
#: or, row-owned, ``AT``'s rows on tserver0 times ``M`` (every block
#: reading its ``M`` rows from tserver1)
ONE_STEP_SPECS = {
    "partial": MultSpec("AT", "C", 1),
    "row_owned": MultSpec("M", "C", 1, table_a="AT"),
}
#: the fault that slows each step's peer calls down: a step that runs
#: for over a second
SLOW_PEER = {"partial": "write_batch:delay:1.0:0.1",
             "row_owned": "scan:delay:1.0:0.1"}
FORMS = pytest.mark.parametrize("form", sorted(ONE_STEP_SPECS))


def _step_b(spec, tables):
    """The ``B`` tablets a step of ``spec`` is sent: every ``M`` tablet
    to a row-owned step, none to ``AᵀA``'s."""
    return tables(spec.table_b) if spec.table_a else []


def _step_payload(conn, addrs, spec):
    """tserver0's step of ``spec``, as the manager sends it: step 0 of
    1."""
    inst = conn.instance
    names = {addr: name for name, addr in addrs.items()}

    def assignments(table):
        return [{"tablet_id": p.tablet_id,
                 "extent": wire.range_to_wire(p.extent),
                 "server": names[p.server.addr], "addr": format_addr(p.server.addr)}
                for p in inst.tablets(table)]

    return {"table": "AT",
            "tablet_ids": [p.tablet_id for p in inst.tablets("AT")
                           if p.server.addr == addrs["tserver0"]],
            "spec": asdict(spec), "b": _step_b(spec, assignments),
            "out": assignments("C"), "mask": [],
            "base": 0, "step": 0, "steps": 1}


@pytest.fixture(scope="module")
def one_step_in_process():
    """tserver0's step alone, in process, per form."""
    done = {}
    for form, spec in ONE_STEP_SPECS.items():
        local = _local()
        _load_crossed(local)
        inst = local.instance
        server = inst.servers[0]
        work = server.multiply_tablets(
            "AT", [tid for tid, _ in server._of("AT")], spec,
            _step_b(spec, lambda table: inst.table(table).index.entries),
            inst.table("C").index.entries, [])
        inst.flush_table("C")
        done[form] = work, _cells(local, "C")
    return done


def _first_draw_fires(spec):
    """The first fault seed whose plan fires on the answer to its op's
    first request on the op's first connection, and on none of the
    first requests of the next three — the retries, each on a fresh
    connection."""
    rule = FaultRule.from_spec(spec)
    for seed in itertools.count():
        plan = FaultPlan([rule], seed=seed)
        if [plan.draw(rule.op, sender, 0) is not None
                for sender in range(4)] == [True, False, False, False]:
            return seed


class TestRunningStepExactlyOnce:
    @MODES
    @FORMS
    def test_resent_while_running(self, one_step_in_process, processes,
                                  form):
        """The connection the step came on is reset while the step
        runs; the caller's retry re-sends it, stamp and all, and is
        answered by the original when it finishes."""
        with _cluster(processes, {"tserver1": [SLOW_PEER[form]]}) as (
                conn, addrs):
            _load_crossed(conn)
            payload = _step_payload(conn, addrs, ONE_STEP_SPECS[form])
            core = RpcCore(metrics=MetricsRegistry())
            try:
                delayed = _delays(addrs["tserver1"])
                call = core.submit_mutate(addrs["tserver0"],
                                          wire.MULTIPLY_TABLETS, payload,
                                          wait=True)
                _wait_for(lambda: _delays(addrs["tserver1"]) > delayed,
                          "the step's first peer call")
                for link in list(core._conns.values()):
                    link.sock.shutdown(socket.SHUT_RDWR)
                work = _finish(call.result)
                retries = core.metrics.export()["net.client.retries"]
            finally:
                core.close()
            conn.flush("C")
            got = _cells(conn, "C")
            hits = _server_metrics(addrs["tserver0"]).get(
                "net.server.dedup_hits", 0)
        assert retries >= 1 and hits == 1
        assert (work, got) == one_step_in_process[form]  # applied once

    @MODES
    @FORMS
    def test_resent_after_a_dropped_ack(self, one_step_in_process,
                                        processes, form):
        """The step's answer is lost after it ran: the retry is
        answered from the dedup window."""
        spec = "multiply_tablets:drop:0.5"
        with _cluster(processes, {"tserver0": [spec]},
                      _first_draw_fires(spec)) as (conn, addrs):
            _load_crossed(conn)
            core = RpcCore(metrics=MetricsRegistry())
            try:
                work = core.mutate(
                    addrs["tserver0"], wire.MULTIPLY_TABLETS,
                    _step_payload(conn, addrs, ONE_STEP_SPECS[form]),
                    wait=True)
            finally:
                core.close()
            conn.flush("C")
            got = _cells(conn, "C")
            metrics = _server_metrics(addrs["tserver0"])
        assert metrics["net.server.faults.drop"] == 1
        assert metrics["net.server.dedup_hits"] == 1
        assert (work, got) == one_step_in_process[form]  # applied once


# -- where a fresh out lands -------------------------------------------------


def _load_four(conn):
    """``AT`` in 4 tablets dealt round-robin over the 2 servers, and
    ``B`` split alike but dealt one server on: every ``B`` tablet on
    the other server from its ``AT`` twin."""
    conn.create_table("AT", splits=["t2", "t4", "t6"])
    conn.create_table("X")  # moves the round-robin cursor on by one
    conn.create_table("B", splits=["t2", "t4", "t6"])
    with conn.batch_writer("AT") as a, conn.batch_writer("B") as b:
        for t in range(8):
            for q in range(3):
                a.put(f"t{t}", "", f"u{q}", t + q + 1)
                if q != 1:
                    b.put(f"t{t}", "", f"u{q}", 2)


def _load_masked(conn):
    """:func:`_load_four`, then ``M`` split like ``AT`` — one more table
    first moves the round-robin cursor back to ``AT``'s first server, so
    each ``M`` tablet lands beside its ``AT`` twin — holding some of
    ``AT``'s (row, qualifier) pairs under another family, and pairs
    ``AT`` lacks."""
    _load_four(conn)
    conn.create_table("Y")
    conn.create_table("M", splits=["t2", "t4", "t6"])
    with conn.batch_writer("M") as w:
        for t in range(8):
            w.put(f"t{t}", "f", f"u{t % 3}", 1)
            w.put(f"t{t}", "", "x", 1)


#: the one-table op, unmasked and masked by ``M``, as the library's one
#: entry runs it: ``AT``'s cells above a pushed-down value filter
ONE_TABLE_OPS = {
    "unmasked": MultSpec(None, "C", BLOCK_PARTIAL_PRODUCTS,
                         post=IterSpec().value_ge(2).to_wire()),
    "masked": MultSpec(None, "C", BLOCK_PARTIAL_PRODUCTS, mask="M",
                       post=IterSpec().value_ge(2).to_wire()),
}


class TestFreshOutPlacement:
    @MODES
    def test_out_is_split_like_at(self, processes):
        with _cluster(processes) as (conn, addrs):
            _load_four(conn)
            table_mult(conn, "AT", "B", "C")
            at, b, c = (_homes(conn, t, addrs) for t in ("AT", "B", "C"))
        assert c == at
        assert at == [(None, "tserver0"), ("t2", "tserver1"),
                      ("t4", "tserver0"), ("t6", "tserver1")]
        assert all(x[1] != y[1] for x, y in zip(at, b))
        local = _local()
        _load_four(local)
        table_mult(local, "AT", "B", "C")
        assert _homes(local, "C") == _homes(local, "AT") == at

    @MODES
    @pytest.mark.parametrize("op", sorted(ONE_TABLE_OPS))
    def test_one_table_ops_read_and_write_locally(self, processes, op):
        """A fresh ``out`` lands beside its source's tablets, and so
        does ``M``: no server receives a ``WRITE_BATCH`` or a ``SCAN``
        during the op, and ``C`` equals the in-process run, timestamps
        included."""
        with _cluster(processes) as (conn, addrs):
            _load_masked(conn)
            assert _homes(conn, "M", addrs) == _homes(conn, "AT", addrs)

            def received():
                return {(name, kind): _server_metrics(addr).get(
                    f"net.server.op.{kind}.bytes_received", 0)
                    for name, addr in addrs.items()
                    for kind in ("write_batch", "scan")}

            before = received()
            _multiply(conn, "AT", ONE_TABLE_OPS[op])
            after = received()
            got = _cells(conn, "C")
        assert after == before
        local = _local()
        _load_masked(local)
        _multiply(local, "AT", ONE_TABLE_OPS[op])
        assert got and got == _cells(local, "C")
