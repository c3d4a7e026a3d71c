"""One control plane, checked: the in-process ``Instance``, a bare
``ControlPlane`` over recording fake handles, and a thread cluster
(the plane behind a socket, ``RemoteTabletServer`` handles) run the same
script and must agree on every tablet id, extent and placement — and
on every step, what the index says is where the tablets really are.

Also here: the literal op sequence a split drives on its handles, a
pre-split create's (each tablet hosted once, no split or migration),
the create-wedge regression (a create whose ``host_tablet`` failed must
leave the name free and no tablet hosted), and the ``TabletIndex``
properties against brute force.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbsim.client import Connector
from repro.dbsim.key import Range
from repro.dbsim.server import ControlPlane, Instance, TabletIndex
from repro.dbsim.tablet import run_now
from repro.net.client import format_addr
from repro.net.cluster import LocalCluster
from repro.obs.metrics import MetricsRegistry

N_SERVERS = 3


class FakeServer:
    """A handle that records the hosting ops it is asked for and keeps
    just enough state (``hosted``: tablet id → (table, extent)) to
    answer a split."""

    def __init__(self, name, log):
        self.name = name
        self.log = log
        self.hosted = {}
        self.fail_next_host = False

    def host_tablet(self, table, tablet_id, extent, config):
        if self.fail_next_host:
            self.fail_next_host = False
            raise ConnectionError(f"{self.name} is unreachable")
        self.log.append((self.name, "host_tablet", tablet_id))
        self.hosted[tablet_id] = (table, extent)

    def split_tablet(self, table, tablet_id, split_row, left_id, right_id):
        self.log.append((self.name, "split_tablet", tablet_id, split_row,
                         left_id, right_id))
        _, extent = self.hosted.pop(tablet_id)
        left = Range(extent.start_row, split_row)
        right = Range(split_row, extent.stop_row)
        self.hosted[left_id] = (table, left)
        self.hosted[right_id] = (table, right)
        return left, right

    def release_tablet(self, table, tablet_id):
        self.log.append((self.name, "release_tablet", tablet_id))
        return self.hosted.pop(tablet_id)

    def adopt_tablet(self, table, tablet_id, state, config):
        self.log.append((self.name, "adopt_tablet", tablet_id))
        self.hosted[tablet_id] = state

    def drop_table(self, table):
        self.log.append((self.name, "drop_table", table))
        doomed = [tid for tid, (tab, _) in self.hosted.items()
                  if tab == table]
        for tid in doomed:
            del self.hosted[tid]
        return len(doomed)

    def flush_table(self, table):
        self.log.append((self.name, "flush_table", table))

    def compact_table(self, table):
        self.log.append((self.name, "compact_table", table))

    def submit(self, op, *args):
        """An op the plane fans out, run now as an in-process server
        runs it: a failure is raised by the returned call."""
        return run_now(getattr(self, op), *args)


def fake_plane(n=N_SERVERS):
    log = []
    plane = ControlPlane([FakeServer(f"tserver{i}", log) for i in range(n)],
                         MetricsRegistry())
    return plane, log


def _bounds(extent):
    return (extent.start_row, extent.stop_row)


def plane_layout(plane):
    """``({table: [(tablet_id, extent, server)]}, {tablet_id: server})``
    — the index, and where the servers say the tablets are."""
    index = {table: [(a.tablet_id, _bounds(a.extent), a.server.name)
                     for a in plane.table(table).index.entries]
             for table in plane.list_tables()}
    hosted = {tid: server.name for server in plane.servers
              for tid in server.hosted}
    return index, hosted


def cluster_layout(inst):
    status = inst.status()
    name_of = {s["addr"]: name for name, s in status["servers"].items()}
    inst.invalidate()
    index = {table: [(p.tablet_id, _bounds(p.extent),
                      name_of[format_addr(p.server.addr)])
                     for p in inst.tablets(table)]
             for table in inst.list_tables()}
    hosted = {tid: name for name, s in status["servers"].items()
              for tid in s["tablets"]}
    return index, hosted


def run_script(backend, layout):
    """The same table lifecycle on any backend; the layout after each
    step."""
    steps = [
        lambda: backend.create_table("a", None, ["g", "p"]),
        lambda: backend.create_table("b"),
        lambda: backend.add_split("a", "k"),      # inside a tablet
        lambda: backend.add_split("a", "p"),      # already a split point
        lambda: backend.add_split("b", "m"),
        lambda: backend.delete_table("a"),
        lambda: backend.create_table("a", None, ["c"]),  # ids keep counting
        lambda: backend.flush_table("a"),
        lambda: backend.compact_table("b"),
    ]
    seen = []
    for step in steps:
        step()
        index, hosted = layout(backend)
        # the index is the truth: every tablet it names is hosted where
        # it says, and the servers host nothing else
        assert hosted == {tid: server for entries in index.values()
                          for tid, _, server in entries}
        seen.append(index)
    return seen


def test_same_layout_in_process_on_fakes_and_over_the_wire():
    in_process = run_script(
        Instance(n_servers=N_SERVERS, metrics=MetricsRegistry()),
        plane_layout)
    on_fakes = run_script(fake_plane()[0], plane_layout)
    with LocalCluster(n_servers=N_SERVERS, processes=False) as cluster:
        conn = cluster.connect()
        try:
            over_the_wire = run_script(conn.instance, cluster_layout)
        finally:
            conn.close()
    assert in_process == on_fakes == over_the_wire
    # a pre-split create mints one id per tablet and deals them in
    # extent order
    assert in_process[0]["a"] == [("a!0001", (None, "g"), "tserver0"),
                                  ("a!0002", ("g", "p"), "tserver1"),
                                  ("a!0003", ("p", None), "tserver2")]
    final = in_process[-1]
    assert final["b"] == [("b!0007", (None, "m"), "tserver0"),
                          ("b!0008", ("m", None), "tserver1")]
    assert final["a"] == [("a!0009", (None, "c"), "tserver2"),
                          ("a!0010", ("c", None), "tserver0")]


def test_a_split_is_split_at_the_owner_then_release_and_adopt():
    plane, log = fake_plane()
    plane.create_table("t")
    plane.add_split("t", "m")
    plane.add_split("t", "g")
    assert log == [
        ("tserver0", "host_tablet", "t!0001"),
        # both children start at the owner; each then moves to its pick
        ("tserver0", "split_tablet", "t!0001", "m", "t!0002", "t!0003"),
        ("tserver0", "release_tablet", "t!0002"),
        ("tserver1", "adopt_tablet", "t!0002"),
        ("tserver0", "release_tablet", "t!0003"),
        ("tserver2", "adopt_tablet", "t!0003"),
        # picks are tserver0 then tserver1: the right child's is its
        # owner, so it stays put
        ("tserver1", "split_tablet", "t!0002", "g", "t!0004", "t!0005"),
        ("tserver1", "release_tablet", "t!0004"),
        ("tserver0", "adopt_tablet", "t!0004"),
    ]
    assert plane.table("t").version == 3


def test_a_pre_split_table_is_dealt_once_at_create():
    plane, log = fake_plane(n=2)
    plane.create_table("t", None, ["m", "g", "t", "m"])  # any order, repeats
    # no split, no migration: each final tablet is hosted once, in
    # extent order, on the next server round-robin
    assert log == [("tserver0", "host_tablet", "t!0001"),
                   ("tserver1", "host_tablet", "t!0002"),
                   ("tserver0", "host_tablet", "t!0003"),
                   ("tserver1", "host_tablet", "t!0004")]
    assert plane.splits("t") == ["g", "m", "t"]
    assert plane.table("t").version == 1


def _placement(layout):
    """``{table: [(extent, server)]}`` of a layout's index."""
    return {table: [(extent, server) for _, extent, server in entries]
            for table, entries in layout[0].items()}


def test_four_tablets_land_two_and_two_on_both_backends():
    want = {"t": [((None, "g"), "tserver0"), (("g", "m"), "tserver1"),
                  (("m", "t"), "tserver0"), (("t", None), "tserver1")]}
    inst = Instance(n_servers=2, metrics=MetricsRegistry())
    inst.create_table("t", None, ["g", "m", "t"])
    assert _placement(plane_layout(inst)) == want
    with LocalCluster(n_servers=2, processes=False) as cluster:
        conn = cluster.connect()
        try:
            conn.create_table("t", None, ["g", "m", "t"])
            assert _placement(cluster_layout(conn.instance)) == want
        finally:
            conn.close()


def test_a_pre_split_table_stamps_what_a_split_empty_one_does():
    # a tablet's clock starts at 0 whether it was dealt at create or
    # split off an empty tablet, so the same writes stamp the same
    # timestamps either way
    splits = ["d", "k", "r"]
    rows = [f"{c}{i}" for i in range(3) for c in "abdkmrz"]

    def scanned(pre_split):
        conn = Connector(Instance(n_servers=2, metrics=MetricsRegistry()))
        if pre_split:
            conn.create_table("t", splits=splits)
        else:
            conn.create_table("t")
            for split in splits:
                conn.add_split("t", split)
        with conn.batch_writer("t", buffer_size=5) as writer:
            for i, row in enumerate(rows):
                writer.put(row, "", f"q{i % 2}", i)
        return [(c.key.row, c.key.qualifier, c.key.timestamp, c.value)
                for c in conn.scanner("t")]

    pre_split = scanned(True)
    assert len(pre_split) == len(rows)
    assert pre_split == scanned(False)


def test_a_failed_create_leaves_the_name_free():
    plane, log = fake_plane()
    plane.servers[0].fail_next_host = True
    with pytest.raises(ConnectionError):
        plane.create_table("t", None, ["m"])
    assert not plane.table_exists("t") and plane.list_tables() == []
    with pytest.raises(KeyError, match="no such table"):
        plane.table("t")
    plane.create_table("t")  # the retry: next id, next server
    # every host was sent before any answer was awaited: the tablet
    # hosted beside the failed one is dropped again
    assert log == [("tserver1", "host_tablet", "t!0002"),
                   ("tserver1", "drop_table", "t"),
                   ("tserver2", "host_tablet", "t!0003")]
    assert plane.table_exists("t") and plane.splits("t") == []
    plane.delete_table("t")
    assert log[-1] == ("tserver2", "drop_table", "t")

    # a host failing mid-create: the tablets hosted are dropped
    log.clear()
    plane.servers[1].fail_next_host = True  # the second tablet's host
    with pytest.raises(ConnectionError):
        plane.create_table("t", None, ["g", "m"])
    assert log == [("tserver0", "host_tablet", "t!0004"),
                   ("tserver2", "host_tablet", "t!0006"),
                   ("tserver0", "drop_table", "t"),
                   ("tserver2", "drop_table", "t")]
    assert all(not server.hosted for server in plane.servers)
    assert not plane.table_exists("t") and plane.list_tables() == []
    plane.create_table("t", None, ["g", "m"])  # the retry succeeds
    assert plane.splits("t") == ["g", "m"]
    assert plane_layout(plane)[1] == {"t!0007": "tserver0",
                                      "t!0008": "tserver1",
                                      "t!0009": "tserver2"}


def test_a_create_that_hit_a_dead_server_can_be_retried_over_the_wire():
    with LocalCluster(n_servers=2, processes=False) as cluster:
        conn = cluster.connect()
        try:
            cluster._servers[0].stop()  # tserver0 stops listening
            with pytest.raises(RuntimeError, match="host_tablet .* failed"):
                conn.create_table("t")
            assert not conn.table_exists("t")
            conn.create_table("t")  # round-robin has moved on to tserver1
            assert [p.tablet_id for p in conn.instance.tablets("t")] \
                == ["t!0002"]
            conn.delete_table("t")
        finally:
            conn.close()


# -- TabletIndex against brute force ------------------------------------------

rows = st.text(alphabet="abcd", max_size=3)
bounds = st.one_of(st.none(), rows)


def _index(splits):
    edges = [None, *sorted(splits), None]
    return TabletIndex(SimpleNamespace(extent=Range(lo, hi))
                       for lo, hi in zip(edges, edges[1:]))


@settings(max_examples=40, deadline=None)
@given(splits=st.sets(rows.filter(bool), max_size=6),
       probes=st.lists(rows, max_size=12),
       ranges=st.lists(st.tuples(bounds, bounds), max_size=6),
       new_split=rows.filter(bool))
def test_tablet_index_properties(splits, probes, ranges, new_split):
    index = _index(splits)
    entries = list(index.entries)
    assert index.starts == [e.extent.start_row or "" for e in entries]

    for row in probes:
        assert index.locate(row).extent.contains_row(row)
        assert index.entries[index.at(row)] is index.locate(row)

    for lo, hi in ranges:
        rng = Range(lo, hi)
        assert index.overlapping(rng) == [
            e for e in entries if e.extent.clip(rng) is not None]

    # partition ≡ a stable group-by on the owning entry
    muts = [(row, "", f"q{i}") for i, row in enumerate(probes)]
    want = {}
    for mut in muts:
        owner = next(e for e in entries if e.extent.contains_row(mut[0]))
        want.setdefault(id(owner), (owner, []))[1].append(mut)
    assert index.partition(muts) == list(want.values())

    # a split replaces ``starts`` (its identity is the staleness token)
    i = index.at(new_split)
    parent = entries[i].extent
    if parent.start_row != new_split:
        before = index.starts
        index.replace(
            i, SimpleNamespace(extent=Range(parent.start_row, new_split)),
            SimpleNamespace(extent=Range(new_split, parent.stop_row)))
        assert index.starts is not before
        assert index.starts == sorted({*before, new_split})
        assert all(index.locate(row).extent.contains_row(row)
                   for row in probes)
