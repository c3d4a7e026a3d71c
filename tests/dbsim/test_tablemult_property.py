"""The one TableMult path against the stream oracle, over random inputs.

Every example multiplies two random tables with the library's blocked
SpGEMM path and with ``tablemult_oracle.stream_table_mult`` (one ``put``
per partial product) and compares the result tables entry for entry —
across ⊕ ∈ {sum, min, max}, the default and custom Python ⊗, a second
call accumulating into the existing result, a block bound patched
small enough that the join splits into at least three engine calls,
and a random mask table and the upper triangle, whose reference is the
oracle's full product restricted to the mask's pairs and to row <
qualifier.  It runs in process, on one server and on two, and on a
thread cluster; the mask is split at its own rows, so on two servers
some mask rows are a peer's.  The block rule — per step, one for each
server hosting ``AT`` tablets — is checked against an independent
model of it.

Another runs the row-owned form (``table_a`` = the stored ``A =
ATᵀ``) against the partial-product one on the same random tables,
masks and triangles, under a block bound small enough to split both
``A`` and the gathered ``B`` rows: integer results are equal, float
ones within 1e-12, and no gathered block holds more ``B`` cells than
the bound plus one row — which a hub vertex pins on both backends —
and, on a complete graph, no step holds more output cells than one
``A`` block's output plus one gathered block's product.

A second property holds on one and two in-process servers and on a
thread cluster: no result table of TableMult, Jaccard or k-truss needs
a compaction — none of them compacts, and compacting the result
afterwards changes no cell, timestamps included, because its combiner
already folds the partial products when they are read.

A third pins what Jaccard's and k-truss's row-owned ops write: a
k-truss round only edges of E, and Jaccard only the strict upper
triangle of A·A and its mirror.
"""

import itertools
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.dbsim import Connector, graphulo, table_mult
from repro.dbsim.graphulo_algorithms import table_jaccard, table_ktruss
from repro.dbsim.key import decode_number
from repro.dbsim.server import Instance, TabletServer
from repro.obs import InMemorySink, trace
from repro.net.cluster import LocalCluster
from repro.obs.metrics import MetricsRegistry

from tests.dbsim.tablemult_oracle import stream_table_mult

MULS = {
    "times": None,                       # the vectorised default
    "plus": lambda x, y: x + y,          # tropical ⊗
    "affine": lambda x, y: x * y + 1,
    "smaller": min,
}

#: integer-valued inputs (negatives included: sums that cancel to an
#: explicit 0 must survive) compare exactly; float inputs stay positive
#: so that a re-ordered sum cannot cancel, and compare to 1e-12
VALUES = {
    "int": st.integers(-4, 9).map(float),
    "float": st.floats(0.125, 8.0, allow_nan=False),
}


@st.composite
def operand(draw, values, col_prefix):
    """One table as ``{(inner row, qualifier): value}``; inner rows
    t0..t2 are always populated so three blocks are reachable."""
    n_inner = draw(st.integers(3, 7))
    n_cols = draw(st.integers(1, 5))
    cells = {}
    for t in range(n_inner):
        cols = draw(st.sets(st.integers(0, n_cols - 1),
                            min_size=1 if t < 3 else 0))
        for c in sorted(cols):
            cells[(f"t{t}", f"{col_prefix}{c}")] = draw(values)
    return cells


def _load(conn, name, cells):
    conn.create_table(name, splits=["t2"])
    with conn.batch_writer(name) as writer:
        for (row, qual), value in cells.items():
            writer.put(row, "", qual, value)


def _result(conn, table):
    return {(c.key.row, c.key.qualifier): decode_number(c.value)
            for c in conn.scanner(table)}


def _steps(conn, table):
    """The table's tablet extents grouped by hosting server, in the
    order of each server's first tablet: one TableMult step each."""
    inst, steps = conn.instance, {}
    for host, extent in [(entry.server.name, entry.extent)
                         for entry in inst.tablets(table)]:
        steps.setdefault(host, []).append(extent)
    return list(steps.values())


def _model_blocks(at, b, bound, steps):
    """The block rule, restated: walk the shared inner rows of each
    step's AT tablets in key order, cut a block as soon as its partial
    products reach the bound, and at the step's end."""
    blocks = []
    shared = sorted({r for r, _ in at} & {r for r, _ in b})
    for extents in steps:
        current = []
        for row in shared:
            if not any(extent.contains_row(row) for extent in extents):
                continue
            current.append(sum(r == row for r, _ in at)
                           * sum(r == row for r, _ in b))
            if sum(current) >= bound:
                blocks.append(current)
                current = []
        blocks += [current] if current else []
    return blocks


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(n_servers=2, processes=False) as running:
        conn = running.connect(metrics=MetricsRegistry())
        try:
            yield conn
        finally:
            conn.close()


def _backend(backend, cluster):
    """A connection with no tables on the named backend."""
    if backend != "thread cluster":
        return Connector(Instance(n_servers=int(backend[0]),
                                  metrics=MetricsRegistry()))
    for table in cluster.instance.list_tables():
        cluster.delete_table(table)
    return cluster


#: both operands' qualifiers, so that the upper triangle cuts through
#: the product
QUALS = [f"q{c}" for c in range(5)]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(VALUES)),
       combiner=st.sampled_from(["sum", "min", "max"]),
       accumulate=st.booleans(),
       backend=st.sampled_from(["in process", "thread cluster"]),
       mask=st.none() | st.sets(st.tuples(st.sampled_from(QUALS),
                                          st.sampled_from(QUALS))),
       mask_split=st.sampled_from(QUALS[1:]),
       triangle=st.sampled_from([None, "upper"]))
def test_blocked_path_equals_stream_oracle(cluster, data, kind, combiner,
                                           accumulate, backend, mask,
                                           mask_split, triangle):
    at = data.draw(operand(VALUES[kind], "q"))
    b = data.draw(operand(VALUES[kind], "q"))
    if backend == "in process":
        # one server: a step, and blocks, span AT's two tablets
        n_servers = data.draw(st.sampled_from([1, 2]))
        ours = Connector(Instance(n_servers=n_servers,
                                  metrics=MetricsRegistry()))
        mul = data.draw(st.sampled_from(sorted(MULS)))
    else:
        # a Python ⊗ cannot cross the wire
        n_servers, ours, mul = 2, _backend(backend, cluster), "times"
    ref = Connector(Instance(n_servers=n_servers, metrics=MetricsRegistry()))
    for conn in (ours, ref):
        _load(conn, "AT", at)
        _load(conn, "B", b)
    if mask is not None:
        ours.create_table("M", splits=[mask_split])
        with ours.batch_writer("M") as writer:
            for row, qual in sorted(mask):
                writer.put(row, "", qual, 1)
    steps = _steps(ours, "AT")
    total = sum(sum(_model_blocks(at, b, float("inf"), steps), []))
    bound = data.draw(st.integers(1, max(1, total // 3)))
    model = _model_blocks(at, b, bound, steps)
    assume(len(model) >= 3)
    kwargs = {"combiner": combiner}
    if MULS[mul] is not None:
        kwargs["mul"] = MULS[mul]
    masks = {"mask": None if mask is None else "M", "triangle": triangle}

    seen = []
    multiply = graphulo._multiply_block

    def spy(at_side, b_side, *args):
        seen.append((threading.current_thread().name,
                     [x * y for x, y in zip(at_side[0], b_side[0])]))
        return multiply(at_side, b_side, *args)

    with mock.patch.object(graphulo, "BLOCK_PARTIAL_PRODUCTS", bound), \
            mock.patch.object(graphulo, "_multiply_block", spy):
        for _ in range(2 if accumulate else 1):
            table_mult(ours, "AT", "B", "C", **kwargs, **masks)
            stream_table_mult(ref, "AT", "B", "C", **kwargs)

    # the block rule: boundaries follow the cell sequence alone, and a
    # block overshoots the bound by less than its last inner row.  A
    # cluster's steps run at once, each on a thread of its server's, so
    # there the sequence is one per step; in process one thread runs
    # the steps in plan order
    reps = 2 if accumulate else 1
    by_thread = {}
    for thread, block in seen:
        by_thread.setdefault(thread, []).append(block)
    if backend == "in process":
        assert list(by_thread.values()) == [model * reps]
    else:
        per_step = (_model_blocks(at, b, bound, [extents])
                    for extents in steps)
        assert sorted(by_thread.values()) == sorted(
            blocks * reps for blocks in per_step if blocks)
    assert all(sum(block) - block[-1] < bound for _, block in seen)

    # masking before the fold only drops whole cells of the product
    got, want = _result(ours, "C"), {
        key: value for key, value in _result(ref, "C").items()
        if (mask is None or key in mask)
        and (triangle is None or key[0] < key[1])}
    assert got.keys() == want.keys()
    for key, value in want.items():
        if kind == "int":
            assert got[key] == value, key
        else:
            assert abs(got[key] - value) <= 1e-12 * abs(value), key


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(VALUES)),
       combiner=st.sampled_from(["sum", "min", "max"]),
       backend=st.sampled_from(["1 server", "2 servers", "thread cluster"]),
       mask=st.none() | st.sets(st.tuples(st.sampled_from(QUALS),
                                          st.sampled_from(QUALS))),
       triangle=st.sampled_from([None, "upper"]),
       bound=st.integers(1, 6))
def test_row_owned_equals_partial_products(cluster, data, kind, combiner,
                                           backend, mask, triangle, bound):
    at = data.draw(operand(VALUES[kind], "q"))
    b = data.draw(operand(VALUES[kind], "q"))
    ours, ref = _backend(backend, cluster), _backend("1 server", cluster)
    for conn in (ours, ref):
        _load(conn, "AT", at)
        _load(conn, "B", b)
        conn.create_table("A", splits=["q2"])  # A = ATᵀ, by rows
        with conn.batch_writer("A") as writer:
            for (row, qual), value in at.items():
                writer.put(qual, "", row, value)
        if mask is not None:
            conn.create_table("M", splits=["q3"])
            with conn.batch_writer("M") as writer:
                for row, qual in sorted(mask):
                    writer.put(row, "", qual, 1)
    masks = {"mask": None if mask is None else "M", "triangle": triangle}

    gathered = []
    multiply = graphulo._multiply_block

    def spy(at_side, b_side, *args):
        gathered.append(len(b_side[1]))
        return multiply(at_side, b_side, *args)

    with mock.patch.object(graphulo, "BLOCK_PARTIAL_PRODUCTS", bound), \
            mock.patch.object(graphulo, "_multiply_block", spy):
        table_mult(ours, "AT", "B", "C", combiner=combiner, table_a="A",
                   **masks)
    table_mult(ref, "AT", "B", "C", combiner=combiner, **masks)
    longest = max(sum(r == row for r, _ in b) for row, _ in b)
    assert all(n < bound + longest for n in gathered)
    got, want = _result(ours, "C"), _result(ref, "C")
    assert got.keys() == want.keys()
    for key, value in want.items():
        if kind == "int":
            assert got[key] == value, key
        else:
            assert abs(got[key] - value) <= 1e-12 * abs(value), key


#: a star's hub and its leaves, the leaves joined in a ring: every leaf
#: row names the hub, whose row is the longest
LEAVES = 40


@pytest.mark.parametrize("backend", ["1 server", "thread cluster"])
def test_row_owned_gather_stays_within_the_block_bound(cluster, backend):
    """Under a block bound of 8, no block a row-owned step multiplies
    holds more gathered ``B`` cells than the bound plus one row — the
    hub's, 40 cells — though a block of leaves reaches the hub and every
    leaf: the steps report that peak, and the ``graphulo.table_mult``
    span carries it."""
    bound = 8
    conn = _backend(backend, cluster)
    conn.create_table("E", splits=["l20"])
    with conn.batch_writer("E") as writer:
        for i in range(LEAVES):
            leaf, nxt = f"l{i:02d}", f"l{(i + 1) % LEAVES:02d}"
            for u, v in (("hub", leaf), (leaf, nxt)):
                writer.put(u, "", v, 1)
                writer.put(v, "", u, 1)
    sink = trace.enable(InMemorySink())
    try:
        with mock.patch.object(graphulo, "BLOCK_PARTIAL_PRODUCTS", bound):
            table_mult(conn, "E", "E", "C", table_a="E")
    finally:
        trace.disable()
    [span] = sink.spans("graphulo.table_mult")
    attrs = span["attrs"]
    assert bound <= attrs["peak_gathered"] < bound + LEAVES
    assert attrs["cells_read"] == 4 * LEAVES
    assert attrs["blocks"] > 4 * LEAVES // bound
    table_mult(conn, "E", "E", "P")  # the partial-product form
    assert _result(conn, "C") == _result(conn, "P")


#: a complete graph's order: every inner row of an ``A`` block reaches
#: nearly all of the block's output
CLIQUE = 12


@pytest.mark.parametrize("backend", ["1 server", "thread cluster"])
def test_row_owned_holds_one_block_of_output(cluster, backend):
    """On K₁₂ under a block bound of 22, an ``A`` block is two whole
    rows and nearly every inner row is a gathered block of its own,
    whose product covers 22 of the block's 24 output cells.  A step
    folds each product into the block's output as it comes, so it
    holds at most the output plus one product — 46 cells, where
    keeping the products until the block ends would hold ~240: the
    steps report that peak, and the span carries it.  A mask other
    than ``A`` is read once per ``A`` block, not once per gathered
    block."""
    bound = 2 * (CLIQUE - 1)
    conn = _backend(backend, cluster)
    for table in ("E", "M"):
        conn.create_table(table, splits=["v06"])
        with conn.batch_writer(table) as writer:
            for u, v in itertools.permutations(range(CLIQUE), 2):
                writer.put(f"v{u:02d}", "", f"v{v:02d}", 1)
    sink = trace.enable(InMemorySink())
    try:
        with mock.patch.object(graphulo, "BLOCK_PARTIAL_PRODUCTS", bound):
            table_mult(conn, "E", "E", "C", table_a="E")
    finally:
        trace.disable()
    [span] = sink.spans("graphulo.table_mult")
    attrs = span["attrs"]
    assert attrs["blocks"] >= CLIQUE // 2 * (CLIQUE - 2)
    assert 2 * CLIQUE + bound - 2 <= attrs["peak_held"] <= 2 * CLIQUE + bound
    table_mult(conn, "E", "E", "P")  # the partial-product form
    assert _result(conn, "C") == _result(conn, "P")

    reads = []
    scan = TabletServer.scan_tablet

    def spy(self, table, *args):
        reads.append(table)
        return scan(self, table, *args)

    with mock.patch.object(graphulo, "BLOCK_PARTIAL_PRODUCTS", bound), \
            mock.patch.object(TabletServer, "scan_tablet", spy):
        table_mult(conn, "E", "E", "CM", table_a="E", mask="M")
    if backend != "thread cluster":  # a peer's reads are its SCANs
        assert reads.count("M") == CLIQUE // 2  # blocks of two rows
    table_mult(conn, "E", "E", "PM", mask="M")
    assert _result(conn, "CM") == _result(conn, "PM")


#: an undirected simple graph on v0..v5, each edge once
GRAPHS = st.sets(st.sampled_from(list(itertools.combinations(range(6), 2))))


@pytest.mark.parametrize("backend", ["1 server", "2 servers",
                                     "thread cluster"])
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(at=operand(VALUES["int"], "u"), b=operand(VALUES["int"], "w"),
       accumulate=st.booleans(), edges=GRAPHS)
def test_results_need_no_compaction(cluster, backend, at, b, accumulate,
                                    edges):
    conn = _backend(backend, cluster)
    _load(conn, "AT", at)
    _load(conn, "B", b)
    conn.create_table("A", splits=["v3"])
    with conn.batch_writer("A") as writer:
        for u, v in sorted(edges):
            writer.put(f"v{u}", "", f"v{v}", 1)
            writer.put(f"v{v}", "", f"v{u}", 1)
    stats = [table_mult(conn, "AT", "B", "C")
             for _ in range(2 if accumulate else 1)]
    stats.append(table_jaccard(conn, "A", "J"))
    stats.append(table_ktruss(conn, "A", "K", 3))
    assert [s.compactions for s in stats] == [0] * len(stats)
    for table in ("C", "J", "K"):
        folded = list(conn.scanner(table))
        conn.compact(table)
        assert list(conn.scanner(table)) == folded, table


@settings(max_examples=25, deadline=None)
@given(edges=GRAPHS)
def test_common_neighbour_tables_hold_only_what_is_read(edges):
    """Jaccard and a k-truss round are one row-owned op each, whose
    product never leaves the mask or the upper triangle: Jaccard's op
    writes the strict upper nonzeros of A·A and their mirrors, and
    k-truss's first round only E's edges that close a triangle (k =
    3).  One server and one tablet make each op one step of one
    block."""
    conn = Connector(Instance(n_servers=1, metrics=MetricsRegistry()))
    conn.create_table("A")
    adjacency = np.zeros((6, 6))
    with conn.batch_writer("A") as writer:
        for u, v in sorted(edges):
            writer.put(f"v{u}", "", f"v{v}", 1)
            writer.put(f"v{v}", "", f"v{u}", 1)
            adjacency[u, v] = adjacency[v, u] = 1
    square = adjacency @ adjacency
    inst, written = conn.instance, []
    run = inst.table_mult

    def spy(table, spec):
        work = run(table, spec)
        if spec.table_b is not None:
            written.append(work["cells_written"])
        return work

    with mock.patch.object(inst, "table_mult", spy):
        table_jaccard(conn, "A", "J")
        table_ktruss(conn, "A", "K", 3)
    assert written[0] == 2 * np.count_nonzero(np.triu(square, 1))
    assert written[1] == np.count_nonzero(square * adjacency)
