"""A step's numbers stay numbers: the vectorised value encoder, and how
many values a two-table op's step decodes and encodes.

``encode_numbers`` must equal ``encode_number`` value for value, bit for
bit, on both sides of :data:`~repro.dbsim.key.VECTOR_MIN` and whether
or not the process holds numpy.  A step — partial products, row-owned,
row-owned with a ``post`` — parses each stored value it reads once and
formats each value it writes once (a Jaccard cell and its mirror share
one formatted value): the counts are pinned against the
op's own ``entries_read`` / ``entries_written``, on the in-process
backend and on a thread cluster, under the default block bound and
under one small enough to fold many blocks per output row.
"""

import random
import sys
import threading
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbsim import graphulo, graphulo_algorithms, iterators, tablet
from repro.dbsim.client import Connector
from repro.dbsim.graphulo import _multiply, _spec, table_mult
from repro.dbsim.graphulo_algorithms import table_ktruss
from repro.dbsim.key import VECTOR_MIN, encode_number, encode_numbers
from repro.dbsim.server import Instance, MultSpec
from repro.net import cells, iterspec
from repro.net.cells import ColumnBatch
from repro.net.cluster import LocalCluster
from repro.obs.metrics import MetricsRegistry

#: the values where the two formats meet or numpy and Python may differ
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e15,
         -1e15, 1e16, -1e15 + 0.5, 1e15 - 1, -(1e15 - 1), 2.0 ** 53,
         2.0 ** 53 + 2, float("inf"), float("-inf"), float("nan"), 0.5,
         1 / 3, 7.0, -7.0]

numbers = (st.floats() | st.sampled_from(EDGES)
           | st.integers(-10 ** 15, 10 ** 15).map(float)
           | st.integers(-3, 3))


@settings(max_examples=300, deadline=None)
@given(st.lists(numbers, max_size=3 * VECTOR_MIN))
def test_encode_numbers_is_encode_number_per_value(values):
    want = [encode_number(value) for value in values]
    assert encode_numbers(values) == want
    assert encode_numbers(np.array(values, dtype=np.float64)) == want


@pytest.mark.parametrize("n", [VECTOR_MIN - 1, VECTOR_MIN, 4 * VECTOR_MIN])
@pytest.mark.parametrize("repeats", [True, False],
                         ids=["repeating", "mostly distinct"])
def test_edges_on_both_sides_of_the_crossover(n, repeats):
    rnd = random.Random(n)
    pool = EDGES + ([] if repeats else
                    [rnd.uniform(-1e17, 1e17) for _ in range(n)])
    values = [rnd.choice(pool) for _ in range(n)]
    want = [encode_number(value) for value in values]
    assert encode_numbers(np.array(values)) == want
    assert encode_numbers(values) == want
    # a process that never loaded numpy formats one by one
    with mock.patch.dict(sys.modules, {"numpy": None}):
        assert encode_numbers(values) == want


def _batch(values):
    n = len(values)
    return ColumnBatch([f"r{i}" for i in range(n)], [""] * n, ["q"] * n,
                       [""] * n, array("q", [1] * n), [False] * n, values)


def test_a_batch_of_a_steps_numbers_reads_as_its_text():
    def step():
        return _batch(np.array([1.0, 0.5, 3.0]))

    def text():
        return _batch(["1", "0.5", "3"])

    assert step() == text() and text() == step()
    assert step().cells() == text().cells()
    assert step().select([2, 0]) == text().select([2, 0])
    for head, tail in ((step(), text()), (text(), step()), (step(), step())):
        head.extend(tail)
        assert head.text() == ["1", "0.5", "3"] * 2
    # set_numbers keeps a batch's kind: a step's stay numbers
    for batch, kind in ((step(), np.ndarray), (text(), list)):
        batch.set_numbers([2.0, 0.25, 3.0])
        assert isinstance(batch.values, kind)
        assert batch.numbers() == [2.0, 0.25, 3.0]
        assert batch.columns()[-1] == ["2", "0.25", "3"]


class _Codec:
    """Counts the values parsed and formatted through every codec name
    a step's modules hold."""

    def __init__(self):
        self.decoded = self.encoded = 0
        self._lock = threading.Lock()

    def _count(self, field, n):
        with self._lock:
            setattr(self, field, getattr(self, field) + n)

    def patches(self):
        def decode(text):
            self._count("decoded", 1)
            return float(text)

        def encode(value):
            self._count("encoded", 1)
            return encode_number(value)

        def encode_all(values):
            self._count("encoded", len(values))
            return encode_numbers(values)

        fakes = {"decode_number": decode, "encode_number": encode,
                 "encode_numbers": encode_all}
        return [mock.patch.object(module, name, fakes[name])
                for module in (cells, graphulo, iterators, iterspec, tablet)
                for name in fakes if hasattr(module, name)]


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(n_servers=2, processes=False) as running:
        conn = running.connect(metrics=MetricsRegistry())
        try:
            yield conn
        finally:
            conn.close()


def _graph(conn):
    """An undirected weighted graph of 24 vertices over two tablets:
    every row has a few neighbours, and some weights are fractions."""
    for table in conn.instance.list_tables():
        conn.delete_table(table)
    rnd = random.Random(7)
    edges = {tuple(sorted(rnd.sample(range(24), 2))) for _ in range(70)}
    conn.create_table("E", splits=["v12"])
    with conn.batch_writer("E") as writer:
        for u, v in sorted(edges):
            weight = rnd.choice([1, 1, 2, 0.5, 1.25])
            writer.put(f"v{u:02d}", "", f"v{v:02d}", weight)
            writer.put(f"v{v:02d}", "", f"v{u:02d}", weight)
    return 2 * len(edges)


def _jaccard_step(conn):
    degrees = {f"v{u:02d}": float(u % 5 + 1) for u in range(24)}
    _multiply(conn, "E", MultSpec(
        "E", "J", graphulo.BLOCK_PARTIAL_PRODUCTS, triangle="upper",
        table_a="E",
        post=_spec().jaccard(degrees).to_wire()))


#: op → (run it, cells written per value formatted)
OPS = {
    # B is AT: one operand, each stored value parsed once, not twice
    "partial A'A": (lambda conn: table_mult(conn, "E", "E", "P"), 1),
    "row-owned": (lambda conn: table_mult(conn, "E", "E", "C", table_a="E"),
                  1),
    # a coefficient is formatted once for its cell (i, j) and (j, i)
    "row-owned, jaccard post": (_jaccard_step, 2),
    "row-owned, masked, k-truss post": (lambda conn: table_ktruss(
        conn, "E", "K", 3), 1),
}


@pytest.mark.parametrize("bound", [8, None], ids=["bound 8", "default bound"])
@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("backend", ["2 servers", "thread cluster"])
def test_a_step_parses_each_read_value_once_and_formats_each_written_once(
        cluster, backend, op, bound):
    conn = (Connector(Instance(n_servers=2, metrics=MetricsRegistry()))
            if backend == "2 servers" else cluster)
    nnz = _graph(conn)
    codec = _Codec()
    patches = codec.patches()
    if bound is not None:
        patches += [mock.patch.object(module, "BLOCK_PARTIAL_PRODUCTS", bound)
                    for module in (graphulo, graphulo_algorithms)]
    inst = conn.instance
    before = inst.total_stats().snapshot()
    for patch in patches:
        patch.start()
    run, written_per_encoded = OPS[op]
    try:
        run(conn)
    finally:
        for patch in patches:
            patch.stop()
    stats = inst.total_stats().delta(before)
    assert stats.entries_read >= nnz and stats.entries_written > 0
    assert codec.decoded == stats.entries_read
    assert codec.encoded * written_per_encoded == stats.entries_written
