"""Range-set scans against the per-range oracle, over random inputs.

A coalesced ``BatchScanner`` hands every tablet its share of the sorted,
disjoint range list and the tablet slices exactly those rows out of its
runs; one scanner per range scans the same ranges one at a time.  Every
example builds a random table — a memtable over at least three flushed
runs, tombstones between versions, an empty tablet in the middle — and a
random range set (exact rows, prefixes, spans that straddle split
points, ranges that match nothing, open first start / last stop), and
requires the two to agree in cells **and timestamps**, per cell and in
column batches, on the in-process backend and on a thread-mode cluster.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbsim import Connector, Range, SummingCombiner, TableConfig
from repro.dbsim.key import sorted_disjoint
from repro.dbsim.server import Instance
from repro.net.cluster import LocalCluster
from repro.net.iterspec import IterSpec

#: r00..r29 plus a few longer keys, so a prefix range holds several rows
ROWS = sorted([f"r{i:02d}" for i in range(30)] + ["r05x", "r05y", "r17a"])
#: four tablets; no row lives in [r12, r17) — an empty tablet mid-table
SPLITS = ["r08", "r12", "r17"]
STORED = [r for r in ROWS if not "r12" <= r < "r17"]
QUALS = ["q0", "q1", "q2"]

CONFIGS = {
    "plain-v1": lambda: TableConfig(max_versions=1),
    "plain-v2": lambda: TableConfig(max_versions=2),
    "sum-v1": lambda: TableConfig(max_versions=1,
                                  table_iterators=(SummingCombiner,)),
    "sum-v2": lambda: TableConfig(max_versions=2,
                                  table_iterators=(SummingCombiner,)),
}
SPECS = {
    "none": None,
    "pushdown": IterSpec().value_ge(3.0).reduce("sum"),
}

mutation = st.tuples(st.sampled_from(STORED), st.sampled_from(QUALS),
                     st.one_of(st.none(), st.integers(0, 9)))
#: four write phases: three are flushed into runs, the last stays in
#: the memtable; a ``None`` value is a delete (a tombstone that lands
#: between the versions the other phases wrote)
phases = st.lists(st.lists(mutation, min_size=1, max_size=25),
                  min_size=4, max_size=4)

_range = st.one_of(
    st.sampled_from(ROWS).map(Range.exact_row),
    st.sampled_from(["r0", "r1", "r05", "r2", "r17"]).map(Range.prefix),
    st.tuples(st.sampled_from(ROWS), st.sampled_from(ROWS)).filter(
        lambda p: p[0] < p[1]).map(lambda p: Range(*p)),
    st.sampled_from(ROWS).map(lambda r: Range.exact_row(r + "~")),  # absent
)


@st.composite
def range_sets(draw):
    """A sorted, disjoint range list: random ranges, ordered by start,
    keeping each one that begins at or after the previous one's end."""
    kept = []
    for rng in sorted(draw(st.lists(_range, min_size=1, max_size=12)),
                      key=lambda r: (r.start_row, r.stop_row)):
        if not kept or kept[-1].stop_row <= rng.start_row:
            kept.append(rng)
    if draw(st.booleans()):
        kept[0] = Range(None, kept[0].stop_row)
    if draw(st.booleans()):
        kept[-1] = Range(kept[-1].start_row, None)
    assert sorted_disjoint(kept)
    return kept


@pytest.fixture(scope="module")
def backends():
    with LocalCluster(n_servers=2, processes=False) as cluster:
        remote = cluster.connect()
        try:
            yield {"in-process": Connector(Instance(n_servers=2)),
                   "thread-cluster": remote}
        finally:
            remote.close()


_names = (f"p{i}" for i in itertools.count())


def _load(conn, table, config, written):
    conn.create_table(table, config, splits=SPLITS)
    for i, phase in enumerate(written):
        with conn.batch_writer(table) as writer:
            for row, qual, value in phase:
                if value is None:
                    writer.delete(row, "", qual)
                else:
                    writer.put(row, "", qual, value)
        if i < len(written) - 1:
            conn.flush(table)


def _snap(cells):
    return [(c.key.row, c.key.family, c.key.qualifier, c.key.visibility,
             c.key.timestamp, c.value) for c in cells]


@settings(max_examples=40, deadline=None)
@given(written=phases, ranges=range_sets(),
       config=st.sampled_from(sorted(CONFIGS)),
       spec=st.sampled_from(sorted(SPECS)),
       column=st.sampled_from([None, "q1"]))
def test_range_set_scan_equals_per_range_scans(backends, written, ranges,
                                               config, spec, column):
    results = {}
    for backend, conn in backends.items():
        table = next(_names)
        _load(conn, table, CONFIGS[config](), written)
        try:
            def scanner(rngs):
                bs = conn.batch_scanner(table, iterspec=SPECS[spec])
                bs.columns = [("", column)] if column else None
                return bs.set_ranges(rngs)

            want = _snap(cell for r in ranges for cell in scanner([r]))
            assert _snap(scanner(ranges)) == want
            assert _snap(cell for batch in scanner(ranges).scan_columns()
                         for cell in batch.cells()) == want
            assert _snap(cell for r in ranges
                         for batch in scanner([r]).scan_columns()
                         for cell in batch.cells()) == want
            results[backend] = want
        finally:
            conn.delete_table(table)
    # and the two backends agree with each other, timestamps included
    assert results["in-process"] == results["thread-cluster"]
