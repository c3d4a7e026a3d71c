"""The one TableMult path against the stream oracle, over random inputs.

Every example multiplies two random tables with the library's blocked
SpGEMM path and with ``tablemult_oracle.stream_table_mult`` (one ``put``
per partial product) and compares the result tables entry for entry —
across ⊕ ∈ {sum, min, max}, the default and custom Python ⊗, a second
call accumulating into the existing result, and a block bound patched
small enough that the join splits into at least three engine calls.
The block rule — per step, one for each server hosting ``AT`` tablets,
on one server and on two — is checked against an independent model of
it.

A second property holds on one and two in-process servers and on a
thread cluster: no result table of TableMult, Jaccard or k-truss needs
a compaction — none of them compacts, and compacting the result
afterwards changes no cell, timestamps included, because its combiner
already folds the partial products when they are read.
"""

import itertools
from unittest import mock

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
    steps = {}
    for entry in conn.instance.table(table).index.entries:
        steps.setdefault(entry.server.name, []).append(entry.extent)
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


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(VALUES)),
       combiner=st.sampled_from(["sum", "min", "max"]),
       mul=st.sampled_from(sorted(MULS)), accumulate=st.booleans())
def test_blocked_path_equals_stream_oracle(data, kind, combiner, mul,
                                           accumulate):
    at = data.draw(operand(VALUES[kind], "u"))
    b = data.draw(operand(VALUES[kind], "w"))
    # one server: a step, and blocks, span AT's two tablets
    n_servers = data.draw(st.sampled_from([1, 2]))
    ours = Connector(Instance(n_servers=n_servers,
                              metrics=MetricsRegistry()))
    ref = Connector(Instance(n_servers=n_servers, metrics=MetricsRegistry()))
    for conn in (ours, ref):
        _load(conn, "AT", at)
        _load(conn, "B", b)
    steps = _steps(ours, "AT")
    total = sum(sum(_model_blocks(at, b, float("inf"), steps), []))
    bound = data.draw(st.integers(1, max(1, total // 3)))
    model = _model_blocks(at, b, bound, steps)
    assume(len(model) >= 3)
    kwargs = {"combiner": combiner}
    if MULS[mul] is not None:
        kwargs["mul"] = MULS[mul]

    seen = []
    multiply = graphulo._multiply_block

    def spy(at_side, b_side, *args):
        seen.append([x * y for x, y in zip(at_side[0], b_side[0])])
        return multiply(at_side, b_side, *args)

    with mock.patch.object(graphulo, "BLOCK_PARTIAL_PRODUCTS", bound), \
            mock.patch.object(graphulo, "_multiply_block", spy):
        for _ in range(2 if accumulate else 1):
            table_mult(ours, "AT", "B", "C", **kwargs)
            stream_table_mult(ref, "AT", "B", "C", **kwargs)

    # the block rule: boundaries follow the cell sequence alone, and a
    # block overshoots the bound by less than its last inner row
    assert seen == model * (2 if accumulate else 1)
    assert all(sum(block) - block[-1] < bound for block in seen)

    got, want = _result(ours, "C"), _result(ref, "C")
    assert got.keys() == want.keys()
    for key, value in want.items():
        if kind == "int":
            assert got[key] == value, key
        else:
            assert abs(got[key] - value) <= 1e-12 * abs(value), key


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
