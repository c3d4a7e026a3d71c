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

A second property holds on one and two in-process servers and on a
thread cluster: no result table of TableMult, Jaccard or k-truss needs
a compaction — none of them compacts, and compacting the result
afterwards changes no cell, timestamps included, because its combiner
already folds the partial products when they are read.

A third pins what Jaccard's and k-truss's TableMults write: k-truss's
common-neighbour table holds only edges of E, and Jaccard's only the
strict upper triangle of A·A.
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
from repro.dbsim.server import Instance
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
    hosts = ([(entry.server.name, entry.extent)
              for entry in inst.table(table).index.entries]
             if isinstance(inst, Instance) else
             [(tablet.addr, tablet.extent) for tablet in inst.tablets(table)])
    for host, extent in hosts:
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
    """k-truss's first-round CN holds only E's edges, and Jaccard's
    only the strict upper nonzeros of A·A.  One server and one tablet
    make each TableMult one step of one block, so its
    ``cells_written`` is the size of its CN."""
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
        if spec.join == "row":
            written.append(work["cells_written"])
        return work

    with mock.patch.object(inst, "table_mult", spy):
        table_jaccard(conn, "A", "J")
        table_ktruss(conn, "A", "K", 3)
    assert written[0] == np.count_nonzero(np.triu(square, 1))
    assert written[1] == np.count_nonzero(square * adjacency)
