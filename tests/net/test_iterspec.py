"""repro.net.iterspec: the wire-serializable push-down spec language.

Three contracts: (1) specs round-trip through their JSON wire form
losslessly; (2) anything outside the whitelist — unknown op or apply
names, bad arguments, misplaced reduce, raw callables — is rejected
with a typed error before any stack is built; (3) a spec executed
server-side is bit-identical (timestamps included) to the same spec
executed client-side, on thread and process clusters, under seeded
drop/delay/corrupt faults — and ships fewer scan bytes than the same
filter run client-side.
"""

import json

import pytest

from repro.dbsim.client import Connector
from repro.dbsim.key import Range, decode_number
from repro.dbsim.server import Instance, TableConfig
from repro.net import wire
from repro.net.cluster import LocalCluster
from repro.net.iterspec import (
    APPLY_OPS,
    IterSpec,
    IterSpecError,
    NonSerializableIteratorError,
    coerce,
)
from repro.obs.metrics import MetricsRegistry

#: seeded drop + delay (+ corrupt, to force scan resumes) fault plan
SPECS = ["write_batch:drop:0.1", "scan:corrupt:0.25", "*:delay:0.05:0.002"]
SEED = 42

#: one spec per op plus composites — the bit-identity catalog
CATALOG = [
    IterSpec().column_filter(["v1", "v4", "v7"]),
    IterSpec().regex(row="v[0-4]$"),
    IterSpec().regex(qualifier="v[02468]", value="^[23]"),
    IterSpec().value_ge(2.0),
    IterSpec().value_ne(1.0),
    IterSpec().age_off(2),
    IterSpec().versions(1),
    IterSpec().combiner("sum"),
    IterSpec().combiner("max"),
    IterSpec().apply("scale", 2.0),
    IterSpec().apply("clip", 1.0, 2.0),
    IterSpec().apply("negate", drop_zero=False),
    IterSpec().reduce("sum", qualifier="deg"),
    IterSpec().reduce("max", family="f", qualifier="m"),
    IterSpec().reduce("sum", count=True),
    IterSpec().value_ge(2.0).apply("square").reduce("min"),
    IterSpec().column_filter(["v1", "v2", "v3"]).combiner("sum"),
    IterSpec().distinct(),
    IterSpec().value_ge(2.0).distinct(),
    IterSpec([{"op": "distinct", "seen": ["v5", "v1"]}]),
]


def _local_conn(n_servers=3):
    return Connector(Instance(n_servers=n_servers,
                              metrics=MetricsRegistry()))


def _ingest(conn):
    """Deterministic multi-version graph table (same write order
    everywhere so logical timestamps line up bit-for-bit)."""
    conn.create_table("E", TableConfig(max_versions=3),
                      splits=["v3", "v6"])
    with conn.batch_writer("E", buffer_size=16) as w:
        for i in range(9):
            for j in range(1, 4):
                w.put(f"v{i}", "", f"v{(i * j + 1) % 9}", 1 + (i + j) % 3)
    # second round over a subset: multi-version keys + a few deletes
    with conn.batch_writer("E", buffer_size=16) as w:
        for i in range(0, 9, 2):
            w.put(f"v{i}", "", f"v{(i + 1) % 9}", 5.0)
        w.delete("v1", "", "v2")
        w.delete("v3", "", "v4")


class TestRoundTrip:
    @pytest.mark.parametrize("spec", CATALOG, ids=repr)
    def test_wire_round_trip_through_json(self, spec):
        wired = json.loads(json.dumps(spec.to_wire()))
        back = IterSpec.from_wire(wired)
        assert back == spec
        assert hash(back) == hash(spec)
        assert back.to_wire() == spec.to_wire()

    def test_empty_spec_is_falsy_and_round_trips(self):
        spec = IterSpec()
        assert not spec and len(spec) == 0
        assert IterSpec.from_wire(spec.to_wire()) == spec
        assert spec.build_factories() == ()

    def test_builders_return_new_specs(self):
        base = IterSpec().value_gt(1.0)
        grown = base.combiner("sum")
        assert len(base) == 1 and len(grown) == 2
        with pytest.raises(AttributeError):
            base.ops = ()

    def test_factories_match_op_count(self):
        for spec in CATALOG:
            assert len(spec.build_factories()) == len(spec)

    def test_coerce_accepts_spec_wire_and_none(self):
        spec = IterSpec().value_ge(2.0)
        assert coerce(spec) is spec
        assert coerce(spec.to_wire()) == spec
        assert coerce(None) is None


class TestRejection:
    @pytest.mark.parametrize("bad", [
        [{"op": "nope"}],
        [{"qualifiers": ["q"]}],                          # missing op
        ["not-a-dict"],
        {"op": "regex", "row": "x"},                      # not a list
        [{"op": "column", "qualifiers": []}],
        [{"op": "column", "qualifiers": [1, 2]}],
        [{"op": "regex"}],                                # no pattern
        [{"op": "regex", "row": "("}],                    # bad regex
        [{"op": "regex", "row": 3}],
        [{"op": "value_filter", "cmp": "gte", "threshold": 1}],
        [{"op": "value_filter", "cmp": "ge", "threshold": "x"}],
        [{"op": "value_filter", "cmp": "ge", "threshold": True}],
        [{"op": "age_off", "cutoff": 1.5}],
        [{"op": "age_off"}],
        [{"op": "versions", "max_versions": 0}],
        [{"op": "versions", "max_versions": "1"}],
        [{"op": "combiner", "fn": "avg"}],
        [{"op": "apply", "name": "exec"}],                # not whitelisted
        [{"op": "apply", "name": "scale", "args": []}],   # wrong arity
        [{"op": "apply", "name": "abs", "args": ["x"]}],
        [{"op": "apply", "name": "abs", "args": [], "drop_zero": 1}],
        [{"op": "reduce", "fn": "prod"}],
        [{"op": "reduce", "fn": "sum", "qualifier": 7}],
        [{"op": "reduce", "fn": "sum"}, {"op": "combiner", "fn": "sum"}],
        [{"op": "distinct"}, {"op": "combiner", "fn": "sum"}],
        [{"op": "distinct", "seen": "v1"}],
        [{"op": "distinct", "seen": [1]}],
    ], ids=lambda b: json.dumps(b)[:48])
    def test_bad_wire_forms_rejected(self, bad):
        with pytest.raises(IterSpecError):
            IterSpec.from_wire(bad)

    def test_reduce_must_be_last_in_builder_chain(self):
        with pytest.raises(IterSpecError, match="last"):
            IterSpec().reduce("sum").value_ge(1.0)

    def test_callable_iterspec_is_a_typed_error(self):
        with pytest.raises(NonSerializableIteratorError):
            coerce(lambda src: src)

    def test_apply_registry_arities_are_honoured(self):
        for name, (arity, maker) in APPLY_OPS.items():
            fn = maker(*([2.0] * arity))
            assert isinstance(fn(3.0), (int, float))


class TestLocalExecution:
    def test_reduce_spec_folds_rows(self):
        conn = _local_conn()
        _ingest(conn)
        got = list(conn.scanner(
            "E", iterspec=IterSpec().reduce("sum", count=True)))
        assert [c.key.row for c in got] == [f"v{i}" for i in range(9)]
        assert all(c.key.qualifier == "deg" for c in got)

    def test_spec_equals_handwritten_factories(self):
        conn = _local_conn()
        _ingest(conn)
        spec = IterSpec().value_ge(2.0).apply("scale", 2.0)
        want = list(conn.scanner(
            "E", scan_iterators=spec.build_factories()))
        got = list(conn.scanner("E", iterspec=spec))
        assert got == want  # order + timestamps

    def test_scanner_rejects_callable_iterspec(self):
        conn = _local_conn()
        conn.create_table("t")
        with pytest.raises(NonSerializableIteratorError):
            conn.scanner("t", iterspec=lambda src: src)

    def test_scan_refuses_the_jaccard_op(self):
        """``jaccard`` emits each upper cell's transpose after it, so
        its output is not in key order: only a two-table op's ``post``
        may run it."""
        conn = _local_conn()
        _ingest(conn)
        spec = IterSpec().jaccard({"v0": 1.0})
        with pytest.raises(IterSpecError, match="key order"):
            conn.scanner("E", iterspec=spec)
        with pytest.raises(IterSpecError, match="key order"):
            conn.batch_scanner("E", iterspec=spec)


@pytest.mark.parametrize("processes", [False, True],
                         ids=["threads", "procs"])
class TestRemoteBitIdentity:
    def test_specs_bit_identical_under_faults(self, processes):
        local = _local_conn()
        _ingest(local)
        want = {i: list(local.scanner("E", iterspec=spec))
                for i, spec in enumerate(CATALOG)}

        with LocalCluster(n_servers=3, processes=processes,
                          fault_specs=SPECS, fault_seed=SEED) as c:
            registry = MetricsRegistry()
            conn = c.connect(metrics=registry)
            try:
                _ingest(conn)
                for i, spec in enumerate(CATALOG):
                    per_cell = list(conn.scanner("E", iterspec=spec))
                    columnar = [cl for b in conn.scanner(
                        "E", iterspec=spec).scan_columns()
                        for cl in b.cells()]
                    assert per_cell == want[i], f"spec #{i}: {spec!r}"
                    assert columnar == want[i], f"spec #{i}: {spec!r}"
                servers = conn.instance.cluster_metrics()["servers"]
            finally:
                conn.close()
        stacks = sum(m.get("net.server.pushdown.stacks", 0)
                     for m in servers.values())
        folded = sum(m.get("net.server.pushdown.cells_folded", 0)
                     for m in servers.values())
        assert stacks > 0 and folded > 0
        # wire accounting moved both ways, on the client and on every
        # tablet server
        export = registry.export()
        assert export["net.client.bytes_sent"] > 0
        assert export["net.client.bytes_received"] > 0
        assert all(m["net.server.bytes_sent"] > 0
                   for m in servers.values())

    def test_batch_scanner_spec_bit_identical(self, processes):
        spec = IterSpec().value_ge(2.0).reduce("sum", count=True)
        ranges = [Range.exact_row(f"v{i}") for i in range(0, 9, 2)]

        # one range set, and one scanner per range
        layouts = ([ranges], [[r] for r in ranges])

        def scan(conn, sets, drain=list):
            return [cl for rngs in sets for cl in drain(
                conn.batch_scanner("E", iterspec=spec).set_ranges(rngs))]

        local = _local_conn()
        _ingest(local)
        want = scan(local, layouts[0])
        assert scan(local, layouts[1]) == want

        with LocalCluster(n_servers=3, processes=processes,
                          fault_specs=SPECS, fault_seed=SEED) as c:
            conn = c.connect()
            try:
                _ingest(conn)
                for sets in layouts:
                    assert scan(conn, sets) == want
                    got = scan(conn, sets, lambda bs: [
                        cl for b in bs.scan_columns() for cl in b.cells()])
                    assert got == want
            finally:
                conn.close()


class TestPushdownWire:
    def test_filtered_scan_ships_fewer_bytes_than_client_filter(self):
        """A predicate run inside the tablet servers returns the cells
        the client-side filter keeps, in fewer scan bytes."""
        spec = IterSpec().value_ge(2.0)
        with LocalCluster(n_servers=3, processes=False) as c:
            registry = MetricsRegistry()
            conn = c.connect(metrics=registry)

            def scan_rx():
                return registry.export().get(
                    "net.client.op.scan.bytes_received", 0)

            try:
                _ingest(conn)
                r0 = scan_rx()
                client_side = [cl for cl in conn.scanner("E")
                               if decode_number(cl.value) >= 2.0]
                r1 = scan_rx()
                pushed = list(conn.scanner("E", iterspec=spec))
                r2 = scan_rx()
            finally:
                conn.close()
        assert pushed == client_side
        assert 0 < r2 - r1 < r1 - r0


class TestRemoteErrors:
    def test_bad_spec_rejected_before_any_rpc(self):
        with LocalCluster(n_servers=1, processes=False) as c:
            conn = c.connect()
            try:
                conn.create_table("t")
                with pytest.raises(IterSpecError):
                    list(conn.scanner("t", iterspec=[{"op": "nope"}]))
                with pytest.raises(IterSpecError, match="key order"):
                    conn.scanner("t", iterspec=IterSpec().jaccard({}))
                with pytest.raises(NonSerializableIteratorError):
                    conn.scanner("t", iterspec=lambda src: src)
            finally:
                conn.close()

    def test_remote_batch_scanner_bare_callable_rejected_before_any_rpc(
            self):
        with LocalCluster(n_servers=1, processes=False) as c:
            registry = MetricsRegistry()
            conn = c.connect(metrics=registry)
            try:
                conn.create_table("t")
                sent = registry.counter("net.client.bytes_sent").value
                with pytest.raises(TypeError, match=r"Layer\(stage\)"):
                    conn.batch_scanner("t",
                                       scan_iterators=(lambda src: src,))
                assert registry.counter("net.client.bytes_sent").value \
                    == sent
            finally:
                conn.close()

    def test_server_rejects_unvalidated_wire_spec(self):
        """A malicious client that skips client-side validation gets a
        typed IterSpecError frame back, not a server stack — for an
        op outside the whitelist, and for ``jaccard``, whose output
        a scan may not carry."""
        from repro.net import wire

        with LocalCluster(n_servers=1, processes=False) as c:
            conn = c.connect()
            try:
                conn.create_table("t")
                with conn.batch_writer("t") as w:
                    w.put("r", "", "q", 1.0)
                inst = conn.instance
                entry = inst.tablets("t")[0]
                core = inst.core

                for iterspec in ([{"op": "__import__"}],
                                 [{"op": "jaccard", "degrees": {}}]):
                    stream = core.open_stream(entry.server.addr, wire.SCAN, {
                        "table": "t", "tablet_id": entry.tablet_id,
                        "ranges": [[None, None]], "columns": None,
                        "resume": None,
                        "iterspec": iterspec})
                    code, pay, _ = stream.get(30.0)
                    assert code == wire.ERROR
                    with pytest.raises(IterSpecError):
                        wire.raise_error(pay)
            finally:
                conn.close()

    def test_pushed_down_spec_error_counts_once(self):
        """A scan that the server refuses with a typed error is raised
        to the caller and counted in ``net.client.errors`` once, as a
        unary call's error is — not retried, not re-opened."""
        from repro.dbsim.iterators import Layer

        registry = MetricsRegistry()
        with LocalCluster(n_servers=1, processes=False) as c:
            conn = c.connect(metrics=registry)
            try:
                conn.create_table("t")
                with conn.batch_writer("t") as w:
                    w.put("r", "", "q", 1.0)
                before = registry.export()
                bad = Layer(lambda batches: batches, {"op": "__import__"})
                with pytest.raises(IterSpecError):
                    list(conn.instance.scan_columns("t", Range(), None,
                                                    (bad,)))
                after = registry.export()
            finally:
                conn.close()
        assert after["net.client.errors"] == before["net.client.errors"] + 1
        for name in ("retries", "scan_resumes", "requests"):
            assert after.get(f"net.client.{name}", 0) \
                - before.get(f"net.client.{name}", 0) \
                == (1 if name == "requests" else 0)
