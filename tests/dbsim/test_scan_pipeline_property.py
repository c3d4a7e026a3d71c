"""The staged scan pipeline against an independent model, over random inputs.

Every layer of the iterator vocabulary is one batch stage
(``repro.dbsim.iterators``); a scan whose layers all carry a stage runs
them over the tablet's fused storage pass.  Each example here builds a
random table — a memtable over three flushed runs, tombstones between
versions, labelled cells, ``max_versions`` 1–3, a plain / sum / min
table combiner — and a random spec drawn from all eight ops, and
requires three things to agree in cells **and timestamps**:

* the staged scan, per cell and in column batches, on the in-process
  backend and on a thread-mode cluster, with the storage pass's batch
  size forced to 1, 2, 3 and 2048 so that every cell group and row
  group straddles a batch boundary somewhere;
* the same stages as user layers with no wire form
  (``Layer(stage)``), on both backends — chained onto the tablet's
  storage pass in process, and run on the client over the scan pump's
  batches on the cluster;
* ``_model`` below — plain Python over sorted tuples (``groupby``,
  ``re``, ``float``), sharing no code with the library.

Two seeded mutations of the stages (the carry dropped at a batch
boundary; a fold that runs across a row boundary) must be caught.
"""

import bisect
import contextlib
import itertools
import re
from functools import reduce as fold_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbsim import (
    Authorizations,
    Connector,
    MinCombiner,
    Range,
    SummingCombiner,
    TableConfig,
)
from repro.dbsim.iterators import Layer
from repro.dbsim.server import Instance
from repro.dbsim.tablet import Tablet
from repro.net import iterspec as iterspec_module
from repro.net.cluster import LocalCluster
from repro.net.iterspec import IterSpec

ROWS = [f"r{i:02d}" for i in range(20)]
SPLITS = ["r05", "r10", "r15"]
FAMILIES = ["", "f"]
QUALS = ["q0", "q1", "q2"]
#: label → does a token set satisfy it (the model's own truth table)
LABELS = {
    "": lambda have: True,
    "a": lambda have: "a" in have,
    "b": lambda have: "b" in have,
    "a&b": lambda have: {"a", "b"} <= have,
    "a|b": lambda have: bool({"a", "b"} & have),
}
AUTHS = [(), ("a",), ("b",), ("a", "b")]
COMBINERS = {None: (), "sum": (SummingCombiner,), "min": (MinCombiner,)}
BATCH_CELLS = (1, 2, 3, 2048)

MONOIDS = {"sum": lambda a, b: a + b, "min": min, "max": max}
CMPS = {"gt": lambda v, t: v > t, "ge": lambda v, t: v >= t,
        "lt": lambda v, t: v < t, "le": lambda v, t: v <= t,
        "eq": lambda v, t: v == t, "ne": lambda v, t: v != t}
APPLIES = {"scale": lambda k: lambda v: v * k,
           "add": lambda k: lambda v: v + k,
           "negate": lambda: lambda v: -v,
           "square": lambda: lambda v: v * v,
           "abs": lambda: abs}

# -- the model ----------------------------------------------------------------
# entries are (row, family, qualifier, visibility, timestamp, value) tuples


def _number(x) -> str:
    f = float(x)
    return str(int(f)) if f.is_integer() and abs(f) < 1e15 else repr(f)


def _cell_groups(entries):
    return [list(group) for _, group in
            itertools.groupby(entries, key=lambda e: e[:4])]


def _fold_cells(entries, fn):
    """One entry per logical cell: newest key, left fold of the values."""
    return [group[0][:5] + (_number(fold_left(
        fn, (float(e[5]) for e in group))),) for group in
        _cell_groups(entries)]


def _stored(written, max_versions, combiner):
    """What the table stack (tombstones → versioning → table combiner)
    leaves of the write phases, in key order.  Timestamps are each
    tablet's logical clock: one tick per mutation routed to it."""
    clocks = [0] * (len(SPLITS) + 1)
    puts, tombstones = [], []
    for row, family, qual, label, value in itertools.chain(*written):
        tablet = bisect.bisect_right(SPLITS, row)
        clocks[tablet] += 1
        if value is None:
            tombstones.append((row, family, qual, label, clocks[tablet]))
        else:
            puts.append((row, family, qual, label, clocks[tablet],
                         _number(value)))
    live = [e for e in puts
            if not any(t[:4] == e[:4] and t[4] >= e[4] for t in tombstones)]
    live.sort(key=lambda e: e[:4] + (-e[4],))
    kept = [e for group in _cell_groups(live) for e in group[:max_versions]]
    return _fold_cells(kept, MONOIDS[combiner]) if combiner else kept


def _run_op(op, entries):
    kind = op["op"]
    if kind == "column":
        return [e for e in entries if e[2] in op["qualifiers"]]
    if kind == "regex":
        return [e for e in entries if all(
            pattern is None or re.search(pattern, e[i])
            for i, pattern in ((0, op["row"]), (2, op["qualifier"]),
                               (5, op["value"])))]
    if kind == "value_filter":
        return [e for e in entries
                if CMPS[op["cmp"]](float(e[5]), op["threshold"])]
    if kind == "age_off":
        return [e for e in entries if e[4] > op["cutoff"]]
    if kind == "versions":
        return [e for group in _cell_groups(entries)
                for e in group[:op["max_versions"]]]
    if kind == "combiner":
        return _fold_cells(entries, MONOIDS[op["fn"]])
    if kind == "apply":
        fn = APPLIES[op["name"]](*op["args"])
        mapped = [e[:5] + (fn(float(e[5])),) for e in entries]
        return [e[:5] + (_number(e[5]),) for e in mapped
                if not (op["drop_zero"] and e[5] == 0)]
    assert kind == "reduce"
    out = []
    for row, group in itertools.groupby(entries, key=lambda e: e[0]):
        group = list(group)
        values = [1.0 if op["count"] else float(e[5]) for e in group]
        out.append((row, op["family"], op["qualifier"], "",
                    max(e[4] for e in group),
                    _number(fold_left(MONOIDS[op["fn"]], values))))
    return out


def _model(written, max_versions, combiner, ranges, column, auths, spec):
    entries = [e for e in _stored(written, max_versions, combiner)
               if any(r.contains_row(e[0]) for r in ranges)
               and (column is None or (e[1], e[2]) == column)
               and LABELS[e[3]](set(auths))]
    for op in spec.to_wire():
        entries = _run_op(op, entries)
    return entries


# -- strategies ---------------------------------------------------------------

mutation = st.tuples(
    st.sampled_from(ROWS), st.sampled_from(FAMILIES), st.sampled_from(QUALS),
    st.sampled_from(sorted(LABELS)),
    st.one_of(st.none(), st.integers(0, 9), st.sampled_from([2.5, 7.25])))
#: four write phases: three are flushed into runs, the last stays in
#: the memtable; a ``None`` value is a delete
phases = st.lists(st.lists(mutation, min_size=1, max_size=25),
                  min_size=4, max_size=4)

_op = st.one_of(
    st.lists(st.sampled_from(QUALS), min_size=1, max_size=2, unique=True).map(
        lambda quals: {"op": "column", "qualifiers": quals}),
    st.sampled_from([{"row": "r0"}, {"row": "[13579]$"},
                     {"qualifier": "q[01]"}, {"value": "^[1-4]"},
                     {"row": "r1", "value": "5$"}]).map(
        lambda fields: {"op": "regex", **fields}),
    st.builds(lambda cmp, t: {"op": "value_filter", "cmp": cmp,
                              "threshold": t},
              st.sampled_from(sorted(CMPS)), st.integers(0, 9)),
    st.integers(0, 15).map(lambda t: {"op": "age_off", "cutoff": t}),
    st.integers(1, 3).map(lambda n: {"op": "versions", "max_versions": n}),
    st.sampled_from(sorted(MONOIDS)).map(
        lambda fn: {"op": "combiner", "fn": fn}),
    st.builds(lambda call, drop: {"op": "apply", "name": call[0],
                                  "args": list(call[1:]), "drop_zero": drop},
              st.sampled_from([("scale", 2.0), ("add", -3.0), ("negate",),
                               ("square",), ("abs",)]), st.booleans()),
)
_reduce = st.builds(lambda fn, count: {"op": "reduce", "fn": fn,
                                       "qualifier": "deg", "count": count},
                    st.sampled_from(sorted(MONOIDS)), st.booleans())
specs = st.builds(lambda ops, last: IterSpec(ops + last),
                  st.lists(_op, max_size=3),
                  st.one_of(st.just([]), _reduce.map(lambda op: [op])))


@st.composite
def range_sets(draw):
    """Sorted, disjoint ranges; spans freely straddle the split points."""
    bounds = sorted(set(draw(st.lists(st.sampled_from(ROWS), min_size=2,
                                      max_size=6))))
    ranges = [Range(lo, hi) for lo, hi in zip(bounds[::2], bounds[1::2])]
    if not ranges or draw(st.booleans()):
        return [Range()]
    if draw(st.booleans()):
        ranges[-1] = Range(ranges[-1].start_row, None)
    return ranges


# -- harness ------------------------------------------------------------------


@pytest.fixture(scope="module")
def backends():
    with LocalCluster(n_servers=2, processes=False) as cluster:
        remote = cluster.connect()
        try:
            yield {"in-process": Connector(Instance(n_servers=2)),
                   "thread-cluster": remote}
        finally:
            remote.close()


@contextlib.contextmanager
def _storage_batches_of(n):
    """Force every scan's storage pass (in this process — the thread
    cluster's servers included) to emit batches of ``n`` entries."""
    real = Tablet._drain_columns_fused

    def forced(self, runs, columns, reduce_fn, batch_cells, stored=None):
        if stored is None:  # leave compactions alone
            batch_cells = n
        return real(self, runs, columns, reduce_fn, batch_cells, stored)

    Tablet._drain_columns_fused = forced
    try:
        yield
    finally:
        Tablet._drain_columns_fused = real


_names = (f"s{i}" for i in itertools.count())


def _load(conn, table, config, written):
    conn.create_table(table, config, splits=SPLITS)
    for i, phase in enumerate(written):
        with conn.batch_writer(table) as writer:
            for row, family, qual, label, value in phase:
                if value is None:
                    writer.delete(row, family, qual, visibility=label)
                else:
                    writer.put(row, family, qual, value, visibility=label)
        if i < len(written) - 1:
            conn.flush(table)


def _snap(cells):
    return [(c.key.row, c.key.family, c.key.qualifier, c.key.visibility,
             c.key.timestamp, c.value) for c in cells]


def _check(backends, written, max_versions, combiner, ranges, column, auths,
           spec, batch_cells=BATCH_CELLS):
    want = _model(written, max_versions, combiner, ranges, column, auths,
                  spec)
    config = TableConfig(max_versions=max_versions,
                         table_iterators=COMBINERS[combiner])
    for backend, conn in backends.items():
        table = next(_names)
        _load(conn, table, config, written)

        def scanner(**how):
            bs = conn.batch_scanner(
                table, authorizations=Authorizations(auths), **how)
            bs.columns = [column] if column else None
            return bs.set_ranges(ranges)

        try:
            for n in batch_cells:
                with _storage_batches_of(n):
                    where = f"{backend}, storage batches of {n}"
                    assert _snap(scanner(iterspec=spec)) == want, where
                    assert _snap(
                        cell for batch in
                        scanner(iterspec=spec).scan_columns()
                        for cell in batch.cells()) == want, where
                    # the same stages as user layers with no wire form:
                    # chained onto the storage pass in process, run on
                    # the client over the scan pump remotely
                    user = tuple(Layer(layer.stage)
                                 for layer in spec.build_factories())
                    assert _snap(scanner(scan_iterators=user)) == want, \
                        f"{where}, user layers"
        finally:
            conn.delete_table(table)


@settings(max_examples=40, deadline=None)
@given(written=phases, max_versions=st.integers(1, 3),
       combiner=st.sampled_from([None, "sum", "min"]), ranges=range_sets(),
       column=st.sampled_from([None, ("", "q1"), ("f", "q0")]),
       auths=st.sampled_from(AUTHS), spec=specs)
def test_staged_scan_equals_model_and_user_layers(
        backends, written, max_versions, combiner, ranges, column, auths,
        spec):
    _check(backends, written, max_versions, combiner, ranges, column, auths,
           spec)


# -- the check has teeth -----------------------------------------------------

#: three versions of every cell of r03 and r04 (one tablet), so cell
#: groups and row groups both straddle small storage batches
_DENSE = [[(row, "", qual, "", v) for row in ("r03", "r04") for qual in QUALS]
          for v in (1, 2, 3)] + [[("r04", "", "q0", "", 4)]]


def _dense_check(backends, spec):
    local = {"in-process": backends["in-process"]}
    _check(local, _DENSE, 3, None, [Range()], None, (), spec,
           batch_cells=(2,))


def test_dense_fixture_passes_unmutated(backends):
    _dense_check(backends, IterSpec().combiner("sum").reduce("sum"))


def test_dropping_the_carry_at_a_batch_boundary_is_caught(
        backends, monkeypatch):
    real = iterspec_module.reduce_stage

    def carry_dropped(*args):
        stage = real(*args)
        return lambda batches: itertools.chain.from_iterable(
            stage([batch]) for batch in batches)

    monkeypatch.setattr(iterspec_module, "reduce_stage", carry_dropped)
    with pytest.raises(AssertionError):
        _dense_check(backends, IterSpec().reduce("sum"))


def test_folding_across_a_row_boundary_is_caught(backends, monkeypatch):
    real = iterspec_module.reduce_stage

    def rows_run_together(*args):
        stage = real(*args)

        def one_row_per_batch(batches):
            for batch in batches:
                batch.rows = [batch.rows[0]] * len(batch)
                yield batch
        return lambda batches: stage(one_row_per_batch(batches))

    monkeypatch.setattr(iterspec_module, "reduce_stage", rows_run_together)
    with pytest.raises(AssertionError):
        _dense_check(backends, IterSpec().reduce("sum"))


# -- non-numeric values ------------------------------------------------------


@pytest.mark.parametrize("spec", [IterSpec().apply("scale", 2.0),
                                  IterSpec().reduce("sum")], ids=repr)
def test_non_numeric_value_is_the_same_typed_error_everywhere(backends, spec):
    for conn in backends.values():
        table = next(_names)
        conn.create_table(table, splits=SPLITS)
        try:
            with conn.batch_writer(table) as writer:
                writer.put("r01", "", "q0", 1)
                writer.put("r02", "", "q0", "not-a-number")
            with pytest.raises(ValueError):
                list(conn.scanner(table, iterspec=spec))
            with pytest.raises(ValueError):
                list(conn.scanner(table, iterspec=spec).scan_columns())
            if isinstance(conn.instance, Instance):
                with pytest.raises(ValueError):
                    list(conn.scanner(
                        table, scan_iterators=spec.build_factories()))
        finally:
            conn.delete_table(table)
