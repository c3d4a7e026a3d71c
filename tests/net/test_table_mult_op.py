"""Graphulo's two-table op as one operation of the database, on a
cluster.

``table_mult`` and the one-table op (a ``MultSpec`` with no
``table_b``, masked or not) over a ``RemoteConnector`` are one
``TABLE_MULT`` request to the manager; the manager's plane has each
server hosting ``AT`` tablets run them, and that server reads ``B`` or
the mask from a peer and writes ``out`` to a peer where they live
elsewhere.  These tests pin what that must keep true:

* ``mul`` / ``combiner`` cross the wire by name or not at all, and a
  spec — its field names, ``post``, ``mask``, ``triangle`` and
  ``table_a`` included — is checked where it arrives;
* ``post`` after a TableMult without ``table_a`` is refused before any
  RPC, and a missing ``table_a`` before ``out`` is created;
* exactly-once under a lost ``TABLE_MULT`` ack, a lost peer
  ``WRITE_BATCH`` ack and a peer ``SCAN`` reset mid-stream, for both
  TableMult forms and the masked and unmasked one-table op — ``C``
  equals a fault-free in-process run, timestamps included — and under
  a response deadline shorter than the op;
* a fresh ``out`` lands beside a 1-tablet ``AT``, so its partial
  products cross no wire;
* a failed op leaves no table behind — a missing mask included, and a
  step failed on a crashed server, which leaves an existing ``out`` —
  and an existing ``out`` that cannot fold a TableMult's partial
  products is refused;
* the paper's kernels built on the op (three distributed triangle
  counts, the masked upper-triangle one among them, Jaccard, k-truss,
  PageRank) equal their in-process results on thread and process
  clusters, and a k-truss of six rounds equals the client loop;
* neither operand nor the product crosses the client's sockets — for
  Jaccard and k-truss, nothing but Jaccard's degree vector does.
"""

import itertools
import json
import random
from contextlib import contextmanager

import pytest

from repro.algorithms.structure import triangle_count
from repro.dbsim.client import Connector
from repro.dbsim.graphulo import (
    BLOCK_PARTIAL_PRODUCTS,
    _multiply,
    apply_to_table,
    create_combiner_table,
    degree_table,
    filter_table,
    table_mult,
)
from repro.dbsim.graphulo_algorithms import (
    table_intersect,
    table_jaccard,
    table_ktruss,
    table_pagerank,
    table_triangles,
)
from repro.dbsim.key import decode_number
from repro.dbsim.server import Instance, MultSpec, TableConfig
from repro.net import wire
from repro.net.client import RemoteConnector, RetryPolicy
from repro.net.cluster import LocalCluster
from repro.net.faults import FaultPlan, FaultRule
from repro.net.iterspec import IterSpec, NonSerializableIteratorError
from repro.net.server import (
    ManagerProcess,
    ManagerService,
    SCAN_CHUNK_CELLS,
    TabletServerProcess,
    TabletServerService,
)
from repro.obs.metrics import MetricsRegistry
from repro.semiring.builtin import PLUS
from repro.sparse.construct import from_coo

from tests.dbsim.algorithms_oracle import filter_ktruss

MODES = pytest.mark.parametrize("processes", [False, True],
                                ids=["threads", "processes"])
#: a field a spec case leaves out
MISSING = object()
SERVERS = ("tserver0", "tserver1", "tserver2")


def _local(n_servers=len(SERVERS)):
    return Connector(Instance(n_servers=n_servers, metrics=MetricsRegistry()))


def _cells(conn, table):
    return list(conn.scanner(table))


def _client_bytes(conn):
    export = conn.instance.core.metrics.export()
    return {name: export.get(name, 0) for name in (
        "net.client.requests", "net.client.bytes_sent",
        "net.client.bytes_received", "net.client.op.scan.bytes_received",
        "net.client.op.write_batch.bytes_sent")}


# -- mul and combiner on the wire -------------------------------------------


def _operands(conn, rows=4):
    conn.create_table("A", splits=["k2"])
    conn.create_table("B")
    with conn.batch_writer("A") as w:
        for i in range(rows):
            w.put(f"k{i}", "", f"u{i % 2}", i + 1)
    with conn.batch_writer("B") as w:
        for i in range(rows):
            w.put(f"k{i}", "", "w", 2 * i + 1)


@pytest.fixture
def remote():
    with LocalCluster(n_servers=2, processes=False) as cluster:
        conn = cluster.connect(metrics=MetricsRegistry())
        try:
            yield conn
        finally:
            conn.close()


class TestMulAndCombinerOnTheWire:
    def _sent_specs(self, conn, monkeypatch):
        """The specs of every TABLE_MULT the client sends."""
        core, specs = conn.instance.core, []
        mutate = core.mutate

        def spy(addr, op, payload, **kw):
            if isinstance(payload, dict) and "spec" in payload:
                specs.append(payload["spec"])
            return mutate(addr, op, payload, **kw)

        monkeypatch.setattr(core, "mutate", spy)
        return specs

    def test_default_mul_travels_as_times(self, remote, monkeypatch):
        _operands(remote)
        specs = self._sent_specs(remote, monkeypatch)
        table_mult(remote, "A", "B", "C")
        local = _local(2)
        _operands(local)
        table_mult(local, "A", "B", "C")
        assert [spec["mul"] for spec in specs] == ["times"]
        assert _cells(remote, "C") == _cells(local, "C")

    def test_builtin_binaryop_travels_by_name(self, remote, monkeypatch):
        """min-plus with the built-in PLUS on the cluster equals the
        same product with a Python ⊗ in process."""
        _operands(remote)
        specs = self._sent_specs(remote, monkeypatch)
        table_mult(remote, "A", "B", "C", mul=PLUS, combiner="min")
        local = _local(2)
        _operands(local)
        table_mult(local, "A", "B", "C", mul=lambda x, y: x + y,
                   combiner="min")
        assert [spec["mul"] for spec in specs] == ["plus"]
        got = _cells(remote, "C")
        assert got == _cells(local, "C")
        assert {(c.key.row, c.value) for c in got} == {("u0", "2"),
                                                       ("u1", "5")}

    def test_python_callable_refused_before_any_rpc(self, remote):
        _operands(remote)
        before = _client_bytes(remote)
        with pytest.raises(NonSerializableIteratorError, match="mul"):
            table_mult(remote, "A", "B", "C", mul=lambda x, y: x * y)
        assert _client_bytes(remote) == before

    @pytest.mark.parametrize("op", [
        lambda conn: apply_to_table(conn, "A", "C", lambda v: v * v),
        lambda conn: filter_table(conn, "A", "C", lambda cell: True)],
        ids=["apply_to_table", "filter_table"])
    def test_python_stage_refused_before_any_rpc(self, remote, op):
        """A one-table op's stage crosses the wire as an ``IterSpec``:
        a Python callable is refused where ``mul`` is, before any
        request, and leaves no table behind."""
        _operands(remote)
        tables = remote.instance.list_tables()
        before = _client_bytes(remote)
        with pytest.raises(NonSerializableIteratorError, match="IterSpec"):
            op(remote)
        assert _client_bytes(remote) == before
        assert remote.instance.list_tables() == tables

    def test_in_process_still_takes_any_callable(self):
        local = _local(2)
        _operands(local)
        table_mult(local, "A", "B", "C", mul=lambda x, y: x * y + 1)
        assert {(c.key.row, c.value) for c in _cells(local, "C")} == {
            ("u0", "18"), ("u1", "36")}

    def test_unknown_combiner_refused_before_any_rpc(self, remote):
        _operands(remote)
        before = _client_bytes(remote)
        with pytest.raises(ValueError, match="combiner"):
            table_mult(remote, "A", "B", "C", combiner="xor")
        assert _client_bytes(remote) == before
        local = _local(2)
        _operands(local)
        with pytest.raises(ValueError, match="combiner"):
            table_mult(local, "A", "B", "C", combiner="xor")
        assert not local.table_exists("C")

    def test_post_without_table_a_refused_before_any_rpc(self):
        """A TableMult's steps hold partial products unless they own
        their rows, so a ``post`` needs ``table_a``: the spec refuses
        one without it before it can be sent, and the manager and a
        tablet server refuse one that arrives
        (``test_join_and_post_checked_where_they_arrive``)."""
        post = IterSpec().value_ge(2).to_wire()
        with pytest.raises(ValueError, match="table_a"):
            MultSpec("A", "C", 1 << 18, post=post)
        MultSpec("A", "C", 1 << 18, post=post, table_a="A")

    def test_server_resolves_names_from_a_fixed_table(self, remote):
        _operands(remote)
        table_mult(remote, "A", "B", "C")  # creates C
        with pytest.raises(ValueError, match="unknown mul"):
            remote.instance.table_mult(
                "A", MultSpec("B", "C", 1 << 18, mul="os.system"))

    @pytest.mark.parametrize("field, value", [
        ("block_products", 0), ("block_products", -3),
        ("block_products", 2.5), ("combiner", "xor")])
    def test_spec_checked_where_it_arrives(self, field, value):
        """A spec no library call would send is refused by the manager
        (``TABLE_MULT``) and by a tablet server (``MULTIPLY_TABLETS``)
        before anything runs — a block bound below 1 would make every
        inner row its own block."""
        with LocalCluster(n_servers=2, processes=False) as cluster:
            conn = cluster.connect(metrics=MetricsRegistry())
            try:
                _operands(conn)
                table_mult(conn, "A", "B", "C")
                before = _cells(conn, "C")
                spec = {"table_b": "B", "out": "C", "block_products": 1 << 18,
                        field: value}
                with pytest.raises(ValueError, match=field):
                    MultSpec(**spec)
                core = conn.instance.core
                with pytest.raises(ValueError, match=field):
                    core.mutate(cluster.manager_addr, wire.TABLE_MULT,
                                {"table": "A", "spec": spec})
                with pytest.raises(ValueError, match=field):
                    core.mutate(cluster.server_addrs[0],
                                wire.MULTIPLY_TABLETS,
                                {"table": "A", "tablet_ids": [], "spec": spec,
                                 "b": [], "out": []})
                assert _cells(conn, "C") == before
            finally:
                conn.close()


    @pytest.mark.parametrize("fields, match", [
        ({"join": "row"}, "join"),                 # a field no spec has
        ({"table_b": MISSING}, "table_b"),         # fields every spec has
        ({"out": MISSING}, "out"),
        ({"block_products": MISSING}, "block_products"),
        ({"post": []}, "post"),                    # after a TableMult
        ({"post": [{"op": "value_filter", "cmp": "ge", "threshold": 2}]},
         "table_a"),
        ({"table_b": None, "post": {"op": "jaccard"}}, "list"),
        ({"table_b": None, "post": [{"op": "nope"}]}, "unknown"),
        ({"table_b": None, "post": [{"op": "jaccard", "degrees": [2]}]},
         "degrees"),
        ({"table_b": None, "post": [{"op": "jaccard",
                                     "degrees": {"k1": "2"}}]}, "degrees"),
        ({"table_b": None, "triangle": "upper"}, "triangle"),
        ({"table_b": None, "table_a": "A"}, "table_a"),
        ({"table_b": None, "mask": ["B"]}, "mask"),
        ({"table_b": ["B"]}, "table_b"),
        ({"triangle": "lower"}, "triangle"),
        ({"triangle": True}, "triangle"),
        ({"mask": ["B"]}, "mask"),
        ({"table_a": ["A"]}, "table_a")])
    def test_join_and_post_checked_where_they_arrive(self, remote, fields,
                                                     match):
        """A spec no library call would send — a field no spec has (a
        stale ``join``) or one it lacks, a ``post`` after a TableMult
        without ``table_a``, a ``jaccard`` degree vector that is not a
        ``{row: number}`` map, a triangle or ``table_a`` on a one-table
        op, a table name that is not a string, a triangle but the upper
        — is refused with ``ValueError`` naming the field by the
        manager and by a tablet server before anything runs, and
        creates no table."""
        _operands(remote)
        spec = {"table_b": "B", "out": "C", "block_products": 1 << 18,
                **fields}
        spec = {name: value for name, value in spec.items()
                if value is not MISSING}
        with pytest.raises(ValueError, match=match):
            MultSpec.from_wire(spec)
        core, inst = remote.instance.core, remote.instance
        with pytest.raises(ValueError, match=match):
            core.mutate(inst.manager_addr, wire.TABLE_MULT,
                        {"table": "A", "spec": spec})
        server = inst.locate("A", "k0").server.addr
        with pytest.raises(ValueError, match=match):
            core.mutate(server, wire.MULTIPLY_TABLETS,
                        {"table": "A", "tablet_ids": [], "spec": spec,
                         "b": [], "out": []})
        assert sorted(inst.list_tables()) == ["A", "B"]


# -- exactly-once under faults ----------------------------------------------


def _seed(spec, draws, fires):
    """The first fault seed whose plan for ``spec`` fires on exactly the
    ``draws`` that ``fires`` marks — the one response of the op under
    test that each case loses.  A draw is ``(sender, number, frame)``:
    the connection's place among the op's senders, the request's number
    among that connection's requests of the op, and the frame's place
    in the answer; a retry on a fresh connection takes the next sender
    place and numbers its requests from 0 again."""
    rule = FaultRule.from_spec(spec)
    for seed in itertools.count():
        plan = FaultPlan([rule], seed=seed)
        if [plan.draw(rule.op, *draw) is not None
                for draw in draws] == fires:
            return seed


@contextmanager
def _cluster(processes, faults):
    """Three tablet servers and a manager, each with its own fault plan:
    ``faults`` maps a service name to ``(spec, seed)``."""
    def plan(name):
        spec, seed = faults.get(name, (None, 0))
        return ([spec] if spec else []), seed

    if processes:
        servers = [TabletServerProcess(name, *plan(name)) for name in SERVERS]
        manager = ManagerProcess((), *plan("manager"))
        for proc in (*servers, manager):
            proc.launch()
        manager.servers = [(s.name, s.wait_addr()) for s in servers]
        addr = manager.wait_addr()
    else:
        def faulted(name):
            specs, seed = plan(name)
            return FaultPlan.from_specs(specs, seed) if specs else None

        servers = [TabletServerService(name, faults=faulted(name))
                   for name in SERVERS]
        manager = ManagerService(
            [(s.name, s.start()) for s in servers], faults=faulted("manager"))
        addr = manager.start()
    conn = RemoteConnector(addr, metrics=MetricsRegistry())
    try:
        yield conn
    finally:
        if processes:
            conn.instance.shutdown_cluster()
        conn.close()
        for service in (manager, *servers):
            service.stop()


#: B's one tablet holds more than one CHUNK, so a reset can land
#: between two chunks of the peer read
B_COLS = 30
INNER = 2 * SCAN_CHUNK_CELLS // B_COLS


def _load_placed(conn):
    """AT on tserver0, B on tserver1, C (sum-combining, empty) on
    tserver2: round-robin placement, the same on every backend — so
    the step on tserver0 reads B from one peer and writes C to the
    other.  A fresh C would land beside AT instead."""
    conn.create_table("AT")
    conn.create_table("B")
    create_combiner_table(conn, "C")
    with conn.batch_writer("AT") as w:
        for t in range(INNER):
            for u in range(3):
                w.put(f"t{t:03d}", "", f"u{u}", 1 + (t + u) % 4)
    with conn.batch_writer("B") as w:
        for t in range(INNER):
            for v in range(B_COLS):
                w.put(f"t{t:03d}", "", f"w{v:02d}", 1 + (t * v) % 5)


def _load_owned(conn):
    """:func:`_load_placed`, then ``A = ATᵀ`` stored by rows on
    tserver0, for a row-owned op: its step reads ``B``'s rows from one
    peer and writes ``C`` to the other."""
    _load_placed(conn)
    conn.create_table("A")
    with conn.batch_writer("A") as w:
        for c in _cells(conn, "AT"):
            w.put(c.key.qualifier, "", c.key.row, c.value)


#: the TableMult of ``AT`` and ``B`` into ``C``, each form on its tables
FORMS = {
    "partial": (_load_placed,
                lambda conn: table_mult(conn, "AT", "B", "C")),
    "row_owned": (_load_owned,
                  lambda conn: table_mult(conn, "AT", "B", "C",
                                          table_a="A")),
}


def _run_form(conn, form):
    load, run = FORMS[form]
    load(conn)
    run(conn)
    return _cells(conn, "C")


@pytest.fixture(scope="module")
def fault_free():
    return {form: _run_form(_local(), form) for form in FORMS}


FAULTS = {
    # the manager's TABLE_MULT ack is lost: the client's retry replays
    "manager": ("manager", "table_mult:drop:0.5",
                [(0, 0, 0), (1, 0, 0)], [True, False],
                "manager", "net.server.dedup_hits"),
    # the peer write of C is lost on the way back: the step's retry
    # replays out of tserver2's dedup window
    "peer_write": ("tserver2", "write_batch:drop:0.5",
                   [(0, 0, 0), (1, 0, 0), (2, 0, 0)],
                   [True, False, False],
                   "tserver2", "net.server.dedup_hits"),
    # the peer read of B dies after its first chunk (the second and the
    # DONE are decided together): the step resumes on a fresh socket
    "peer_scan": ("tserver1", "scan:reset:0.5",
                  [(0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 0),
                   (1, 0, 1)],
                  [False, True, False, False, False], "tserver0",
                  "net.client.scan_resumes"),
}


class TestExactlyOnceUnderFaults:
    @MODES
    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize("case", sorted(FAULTS))
    def test_c_equals_fault_free_in_process_run(self, fault_free, processes,
                                                case, form):
        where, spec, draws, fires, witness, counter = FAULTS[case]
        with _cluster(processes,
                      {where: (spec, _seed(spec, draws, fires))}) as conn:
            got = _run_form(conn, form)
            metrics = conn.instance.cluster_metrics()
        assert got == fault_free[form]  # not doubled, timestamps equal
        export = (metrics["manager"] if witness == "manager"
                  else metrics["servers"][witness])
        assert export.get(counter, 0) >= 1  # the fault hit the op

    def test_kernel_calls_outwait_a_short_deadline(self, fault_free):
        """Every step's answer and the TableMult's own reach their
        callers 0.2 s late, past a 50 ms deadline on the client and on
        the manager: both wait for the answer instead of failing or
        re-sending, and ``C`` is written once."""
        def late(op):
            return FaultPlan.from_specs([f"{op}:delay:1.0:0.2"], 0)

        servers = [TabletServerService(name, faults=late("multiply_tablets"))
                   for name in SERVERS]
        manager = ManagerService([(s.name, s.start()) for s in servers],
                                 faults=late("table_mult"))
        conn = RemoteConnector(manager.start(), metrics=MetricsRegistry())
        inst = conn.instance
        try:
            _load_placed(conn)
            # only now: a set-up call slower than 50 ms on a busy host
            # would be re-sent, and its dedup hit blamed on the op
            manager.core.retry = RetryPolicy(attempts=3, base=0.01, cap=0.1,
                                             deadline=0.05)
            inst.core.retry = RetryPolicy(deadline=0.05)
            before = inst.core.metrics.export()
            inst.table_mult("AT", MultSpec("B", "C", BLOCK_PARTIAL_PRODUCTS))
            after = inst.core.metrics.export()
            got = _cells(conn, "C")
            metrics = inst.cluster_metrics()
        finally:
            conn.close()
            for service in (manager, *servers):
                service.stop()
        assert got == fault_free["partial"]  # not doubled, stamps equal
        for name in ("net.client.timeouts", "net.client.retries"):
            assert after[name] == before[name], name
        exports = [metrics["manager"], *metrics["servers"].values()]
        assert metrics["manager"]["net.server.faults.delay"] == 1
        assert metrics["servers"]["tserver0"]["net.server.faults.delay"] == 1
        assert metrics["manager"].get("net.client.timeouts", 0) == 0
        assert all(e.get("net.server.dedup_hits", 0) == 0 for e in exports)


#: the one-table op, as the library's one entry runs it: ``AT``'s
#: cells above a pushed-down value filter — those whose (row,
#: qualifier) ``B`` also stores, or all of them
ONE_TABLE_OPS = {
    "masked": lambda conn: _multiply(conn, "AT", MultSpec(
        None, "C", BLOCK_PARTIAL_PRODUCTS, mask="B",
        post=IterSpec().value_ge(2).to_wire())),
    "one_table": lambda conn: _multiply(conn, "AT", MultSpec(
        None, "C", BLOCK_PARTIAL_PRODUCTS,
        post=IterSpec().value_ge(2).to_wire())),
}


def _run_one_table(conn, op):
    """``_load_placed``'s tables, ``AT`` given cells at keys ``B`` has
    too — so the step on tserver0 reads the mask ``B`` from one peer
    and writes ``C`` to the other — then the op; returns ``C``'s
    cells."""
    _load_placed(conn)
    with conn.batch_writer("AT") as w:
        for t in range(0, INNER, 3):
            w.put(f"t{t:03d}", "", f"w{t % B_COLS:02d}", t % 5)
    ONE_TABLE_OPS[op](conn)
    return _cells(conn, "C")


@pytest.fixture(scope="module")
def one_table_fault_free():
    return {op: _run_one_table(_local(), op) for op in ONE_TABLE_OPS}


#: (op, fault) pairs: an unmasked one-table op reads no peer, so it has
#: no peer scan to reset
ONE_TABLE_FAULTS = [(op, case) for op in sorted(ONE_TABLE_OPS)
                    for case in sorted(FAULTS)
                    if (op, case) != ("one_table", "peer_scan")]


class TestJoinsExactlyOnceUnderFaults:
    @MODES
    @pytest.mark.parametrize("op, case", ONE_TABLE_FAULTS)
    def test_c_equals_fault_free_in_process_run(self, one_table_fault_free,
                                                processes, op, case):
        where, spec, draws, fires, witness, counter = FAULTS[case]
        with _cluster(processes,
                      {where: (spec, _seed(spec, draws, fires))}) as conn:
            got = _run_one_table(conn, op)
            metrics = conn.instance.cluster_metrics()
        assert got == one_table_fault_free[op]  # once each, timestamps equal
        # the pushed-down filter ran, and kept some cells
        assert got and all(decode_number(c.value) >= 2 for c in got)
        export = (metrics["manager"] if witness == "manager"
                  else metrics["servers"][witness])
        assert export.get(counter, 0) >= 1  # the fault hit the op


# -- where a fresh out lands ------------------------------------------------


class TestOutPlacement:
    @MODES
    def test_fresh_out_lands_beside_a_one_tablet_at(self, processes):
        """``B`` on tserver0 and ``AT`` on tserver1, so round-robin
        would put a fresh ``C`` on tserver2 and send it every partial
        product.  ``C`` is created on ``AT``'s server instead: the step
        reads ``B`` from its peer and writes ``C`` locally, and no
        server receives a ``WRITE_BATCH`` during the op."""
        def write_batch_bytes():
            return {name: export.get(
                "net.server.op.write_batch.bytes_received", 0)
                for name, export
                in inst.cluster_metrics()["servers"].items()}

        with _cluster(processes, {}) as conn:
            inst = conn.instance
            conn.create_table("B")
            conn.create_table("AT")
            with conn.batch_writer("AT") as w:
                for t in range(20):
                    w.put(f"t{t:02d}", "", f"u{t % 3}", t + 1)
            with conn.batch_writer("B") as w:
                for t in range(20):
                    w.put(f"t{t:02d}", "", f"w{t % 4}", 2 * t + 1)
            before = write_batch_bytes()
            table_mult(conn, "AT", "B", "C")
            assert write_batch_bytes() == before
            at_addr = inst.locate("AT", "t00").server.addr
            assert inst.locate("B", "t00").server.addr != at_addr  # a peer read
            assert inst.locate("C", "u0").server.addr == at_addr
            assert len(_cells(conn, "C")) == 12  # 3 × 4, all in the servers


# -- the kernels built on TableMult -----------------------------------------


N_VERTICES = 24


def _edges():
    """A seeded undirected simple graph, each edge once as (u, v), u < v."""
    rng = random.Random(7)
    return [(u, v) for u, v in itertools.combinations(range(N_VERTICES), 2)
            if rng.random() < 0.25]


def _vertex(i):
    return f"v{i:02d}"


def _load_graph(conn):
    """A (symmetric adjacency), Lt (row v, qualifier u for each edge
    u < v: the stored transpose of the strictly upper part U) and Et
    (row v, qualifier e: the stored transpose of the edge × vertex
    incidence), each split so their tablets spread over the servers."""
    splits = [_vertex(8), _vertex(16)]
    for table in ("A", "Lt", "Et"):
        conn.create_table(table, splits=splits)
    with conn.batch_writer("A") as a, conn.batch_writer("Lt") as lt, \
            conn.batch_writer("Et") as et:
        for k, (u, v) in enumerate(_edges()):
            a.put(_vertex(u), "", _vertex(v), 1)
            a.put(_vertex(v), "", _vertex(u), 1)
            lt.put(_vertex(v), "", _vertex(u), 1)
            et.put(_vertex(u), "", f"e{k:03d}", 1)
            et.put(_vertex(v), "", f"e{k:03d}", 1)


def _triangles_by_adjacency(conn):
    """Σ ((A ⊕.⊗ A) ⊙ A) / 6: each triangle at 3 edges, both ways."""
    table_mult(conn, "A", "A", "AA")
    table_intersect(conn, "AA", "A", "AAmask")
    total = sum(decode_number(c.value) for c in conn.scanner("AAmask"))
    return int(total) // 6


def _triangles_by_incidence(conn):
    """(U ⊕.⊗ Eᵀ)[u, e] = 2 exactly when both ends of edge e are
    higher neighbours of u: one cell per triangle."""
    table_mult(conn, "Lt", "Et", "UE")
    return sum(c.value == "2" for c in conn.scanner("UE"))


def _run_kernels(conn):
    _load_graph(conn)
    counts = (_triangles_by_adjacency(conn), _triangles_by_incidence(conn),
              table_triangles(conn, "A"))
    table_jaccard(conn, "A", "J")
    table_ktruss(conn, "A", "K", 3)
    table_pagerank(conn, "A", "PR", max_iter=5)
    return counts, [_cells(conn, t) for t in ("AA", "UE", "J", "K", "PR")]


@pytest.fixture(scope="module")
def kernels_in_process():
    return _run_kernels(_local())


class TestKernelsMatchInProcess:
    def test_triangle_counts_are_right(self, kernels_in_process):
        edges = set(_edges())
        want = sum((u, v) in edges and (v, w) in edges and (u, w) in edges
                   for u, v, w in itertools.combinations(range(N_VERTICES),
                                                         3))
        u, v = zip(*edges)
        adjacency = from_coo(N_VERTICES, N_VERTICES, u + v, v + u)
        assert want > 0 and triangle_count(adjacency)[0] == want
        assert kernels_in_process[0] == (want, want, want)

    @MODES
    def test_cluster_equals_in_process(self, kernels_in_process, processes):
        with LocalCluster(n_servers=len(SERVERS),
                          processes=processes) as cluster:
            conn = cluster.connect()
            try:
                got = _run_kernels(conn)
            finally:
                conn.close()
        assert got == kernels_in_process  # result cells, timestamps incl.

    @MODES
    def test_ktruss_of_six_rounds_equals_the_client_loop(self, processes):
        """k = 4 on a graph whose truss takes six rounds, each one
        row-owned op, against the client loop in process."""
        rng = random.Random(7)
        edges = [(u, v) for u, v in itertools.combinations(range(14), 2)
                 if rng.random() < 0.4]

        def load(conn):
            conn.create_table("A", splits=[_vertex(5), _vertex(10)])
            with conn.batch_writer("A") as w:
                for u, v in edges:
                    w.put(_vertex(u), "", _vertex(v), 1)
                    w.put(_vertex(v), "", _vertex(u), 1)

        def values(conn):
            return {(c.key.row, c.key.qualifier): c.value
                    for c in conn.scanner("K")}

        ref = _local()
        load(ref)
        filter_ktruss(ref, "A", "K", 4)
        with LocalCluster(n_servers=len(SERVERS),
                          processes=processes) as cluster:
            conn = cluster.connect()
            try:
                load(conn)
                inst, ops = conn.instance, []
                run = inst.table_mult

                def spy(*args):
                    ops.append(run(*args))
                    return ops[-1]

                inst.table_mult = spy
                table_ktruss(conn, "A", "K", 4)
                got = values(conn)
            finally:
                conn.close()
        assert len(ops) == 6
        assert [op["cells_written"] for op in ops][-2:] == [30, 30]
        assert got == values(ref) and len(got) == 30


# -- what the client's sockets carry ----------------------------------------


class TestClientTraffic:
    @pytest.mark.parametrize("rows", [20, 200], ids=["1x", "10x"])
    @pytest.mark.parametrize("op, cells", [
        (lambda conn: table_mult(conn, "AT", "AT", "C"),
         lambda rows: 64),  # 8 × 8
        (lambda conn: degree_table(conn, "AT", "C"),
         lambda rows: rows)],  # one per row
        ids=["table_mult", "degree_table"])
    def test_operands_and_product_stay_in_the_servers(self, remote, rows,
                                                      op, cells):
        remote.create_table("AT", splits=[f"t{rows // 2:04d}"])
        with remote.batch_writer("AT") as w:
            for t in range(rows):
                for u in range(8):
                    w.put(f"t{t:04d}", "", f"u{u}", t + u)
        before = _client_bytes(remote)
        op(remote)
        after = _client_bytes(remote)
        moved = {name: after[name] - before[name] for name in before}
        assert moved["net.client.op.scan.bytes_received"] == 0
        assert moved["net.client.op.write_batch.bytes_sent"] == 0
        assert (moved["net.client.bytes_sent"]
                + moved["net.client.bytes_received"]) < 4096
        assert len(_cells(remote, "C")) == cells(rows)  # all in the servers


# -- a failed op leaves no table behind -------------------------------------


@pytest.fixture(params=["in_process", "thread_cluster"])
def either(request):
    """A connection holding a triangle with a pendant edge, ``A``."""
    if request.param == "in_process":
        conn = _local(2)
        _load_pendant(conn)
        yield conn
        return
    with LocalCluster(n_servers=2, processes=False) as cluster:
        conn = cluster.connect(metrics=MetricsRegistry())
        try:
            _load_pendant(conn)
            yield conn
        finally:
            conn.close()


def _load_pendant(conn):
    conn.create_table("A")
    with conn.batch_writer("A") as w:
        for u, v in (("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")):
            w.put(u, "", v, 1)
            w.put(v, "", u, 1)


class TestRowOwnedOut:
    def test_fresh_out_is_plain(self, either):
        """A row-owned step folds each ``out`` cell itself and writes it
        once, so a fresh ``out`` gets no combiner: ``J`` and ``K`` are
        plain tables, as when a one-table op wrote them, and a cell
        written again replaces the old one.  A partial-product ``out``
        still combines."""
        table_jaccard(either, "A", "J")
        table_ktruss(either, "A", "K", 3)
        table_mult(either, "A", "A", "C", table_a="A")
        table_mult(either, "A", "A", "P")
        inst = either.instance
        assert [inst.config(t) for t in ("J", "K", "C", "P")] == [
            TableConfig()] * 3 + [TableConfig.combining("sum")]
        with either.batch_writer("K") as w:
            w.put("a", "", "b", 5)
        assert {(c.key.row, c.key.qualifier): c.value
                for c in either.scanner("K")}[("a", "b")] == "5"


@pytest.fixture(params=["in_process", "threads", "processes"])
def crashed(request):
    """A connection holding ``A`` split at ``c`` over two servers, the
    one hosting ``[c, ∞)`` crashed."""
    if request.param == "in_process":
        conn = _local(2)
        _load_pendant(conn)
        conn.add_split("A", "c")
        conn.instance.locate("A", "c").server.submit("crash")()
        yield conn
        return
    with LocalCluster(n_servers=2,
                      processes=request.param == "processes") as cluster:
        conn = cluster.connect(metrics=MetricsRegistry())
        try:
            _load_pendant(conn)
            conn.add_split("A", "c")
            conn.instance.locate("A", "c").server.submit("crash")()
            yield conn
        finally:
            conn.close()


class TestFailedOpsLeaveNoTable:
    def test_a_failed_step_drops_the_out_it_created(self, crashed):
        """A one-table op whose step on the crashed server fails while
        the other's applies (each reads and writes its own tablets):
        the ``out`` the op created is dropped, an existing one is kept,
        and the error says how many steps applied."""
        with pytest.raises(RuntimeError, match="1 of 2 steps"):
            table_intersect(crashed, "A", "A", "I")
        assert crashed.instance.list_tables() == ["A"]
        crashed.create_table("I", splits=["c"])
        with pytest.raises(RuntimeError, match=r"[01] of 2 steps of the op "
                                               r"applied; 'I' keeps what"):
            table_intersect(crashed, "A", "A", "I")
        assert crashed.instance.list_tables() == ["A", "I"]

    @pytest.mark.parametrize("call", [
        lambda c: table_mult(c, "A", "missing", "C"),
        lambda c: table_mult(c, "missing", "A", "C"),
        lambda c: table_mult(c, "A", "A", "C", mask="missing"),
        lambda c: table_mult(c, "A", "A", "C", table_a="missing"),
        lambda c: table_intersect(c, "missing", "A", "I"),
        lambda c: table_intersect(c, "A", "missing", "I"),
        lambda c: table_jaccard(c, "missing", "J"),
        lambda c: table_ktruss(c, "nope", "K", 3),
        lambda c: table_triangles(c, "nope")],
        ids=["mult_b", "mult_at", "mult_mask", "mult_table_a",
             "intersect_left",
             "intersect_right", "jaccard", "ktruss", "triangles"])
    def test_missing_operand(self, either, call):
        with pytest.raises(KeyError):
            call(either)
        assert either.instance.list_tables() == ["A"]

    @pytest.mark.parametrize("config", [
        TableConfig(), TableConfig.combining("max")],
        ids=["plain", "max_combiner"])
    def test_out_that_cannot_fold_the_partials(self, either, config):
        """A 2-tablet ``A`` on two servers writes up to two partial
        cells per result entry.  A plain ``out`` would keep only the
        newer one, and a max combiner under a sum the larger: the op
        refuses either before any step runs."""
        either.add_split("A", "c")
        either.create_table("C", config)
        with pytest.raises(ValueError, match="fold every version"):
            table_mult(either, "A", "A", "C")
        assert either.instance.list_tables() == ["A", "C"]
        assert _cells(either, "C") == []

    def test_ktruss_that_does_not_converge(self, either):
        """One round drops the pendant edge, and no round is left to
        see the rest survive: the temp tables go all the same."""
        with pytest.raises(RuntimeError, match="converge"):
            table_ktruss(either, "A", "K", 3, max_rounds=1)
        assert either.instance.list_tables() == ["A"]


# -- Jaccard's and k-truss's client traffic ---------------------------------


def _cliques(conn, n_cliques, size=5):
    """``n_cliques`` disjoint ``size``-cliques as a symmetric 0/1
    adjacency table: every edge is in a triangle, so a 3-truss keeps
    them all and stops after one round at any scale."""
    conn.create_table("A", splits=[f"c{n_cliques // 2:03d}"])
    with conn.batch_writer("A") as w:
        for c in range(n_cliques):
            for u, v in itertools.permutations(range(size), 2):
                w.put(f"c{c:03d}.{u}", "", f"c{c:03d}.{v}", 1)


class TestAlgorithmTraffic:
    def _moved(self, conn, run):
        before = _client_bytes(conn)
        run()
        after = _client_bytes(conn)
        return {name: after[name] - before[name] for name in before}

    def _traffic(self, conn, n_cliques):
        """Client bytes moved by one ``table_ktruss`` and one
        ``table_jaccard``, and the size of Jaccard's degree vector: the
        reduced cells a degree scan receives, and their JSON map."""
        _cliques(conn, n_cliques)
        ktruss = self._moved(conn, lambda: table_ktruss(conn, "A", "K", 3))
        jaccard = self._moved(conn, lambda: table_jaccard(conn, "A", "J"))
        reduce = IterSpec().reduce("sum", qualifier="deg")
        degrees = {}
        scan = self._moved(conn, lambda: degrees.update(
            (c.key.row, decode_number(c.value))
            for c in conn.scanner("A", iterspec=reduce)))
        assert len(degrees) == 5 * n_cliques  # one cell per vertex
        assert len(_cells(conn, "K")) == 20 * n_cliques
        assert len(_cells(conn, "J")) == 20 * n_cliques
        for name in ("A", "K", "J"):
            conn.delete_table(name)
        degree_bytes = (scan["net.client.op.scan.bytes_received"]
                        + len(json.dumps(degrees)))
        return ktruss, jaccard, scan, degree_bytes

    def test_only_the_degree_vector_crosses(self, remote):
        small = self._traffic(remote, 4)
        large = self._traffic(remote, 40)
        for ktruss, jaccard, scan, _ in (small, large):
            for moved in (ktruss, jaccard):
                assert moved["net.client.op.write_batch.bytes_sent"] == 0
            assert ktruss["net.client.op.scan.bytes_received"] == 0
            # Jaccard's one scan is the degree reduce, one cell per
            # vertex (its frames' stats vary by a few bytes; A's cells
            # would be 4x as many)
            assert (jaccard["net.client.op.scan.bytes_received"]
                    <= 1.25 * scan["net.client.op.scan.bytes_received"])

        def total(traffic):
            return sum(moved["net.client.bytes_sent"]
                       + moved["net.client.bytes_received"]
                       for moved in traffic[:2])

        # 10x the cells: the same calls, plus a 10x degree vector
        assert total(large) <= 1.2 * total(small) + large[3]
