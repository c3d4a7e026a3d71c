"""Key ordering, cells, ranges, and number encoding."""

import pickle
from array import array

import pytest

from repro.dbsim.key import Cell, Key, Range, decode_number, encode_number
from repro.net.cells import ColumnBatch


class TestKeyOrdering:
    def test_row_major(self):
        assert Key("a") < Key("b")
        assert Key("a", "f2") > Key("a", "f1")
        assert Key("a", "f", "q1") < Key("a", "f", "q2")

    def test_timestamps_descend(self):
        """Newest version sorts first — Accumulo's convention."""
        newer = Key("r", "f", "q", "", 10)
        older = Key("r", "f", "q", "", 5)
        assert newer < older

    def test_same_cell(self):
        a = Key("r", "f", "q", "", 1)
        b = Key("r", "f", "q", "", 9)
        c = Key("r", "f", "q2", "", 1)
        assert a.same_cell(b)
        assert not a.same_cell(c)

    def test_cell_id_excludes_timestamp(self):
        assert Key("r", "f", "q", "v", 1).cell_id() == ("r", "f", "q", "v")

    def test_le(self):
        assert Key("a") <= Key("a")

    def test_every_comparison_follows_sort_tuple(self):
        """A key is a tuple, whose own ``>`` would order timestamps
        ascending: all four comparisons, ``max``, ``min`` and ``sorted``
        must go through :meth:`Key.sort_tuple` instead."""
        keys = [Key("r", "f", "q", "", ts, delete)
                for ts in (1, 5, 9) for delete in (False, True)]
        keys += [Key("a"), Key("r", "g"), Key("r", "f", "p", "x", 3)]
        st = Key.sort_tuple
        for a in keys:
            for b in keys:
                assert (a < b) == (st(a) < st(b))
                assert (a <= b) == (st(a) <= st(b))
                assert (a > b) == (st(a) > st(b))
                assert (a >= b) == (st(a) >= st(b))
        assert max(keys) == max(keys, key=st) == Key("r", "g")
        assert min(keys) == min(keys, key=st) == Key("a")
        assert sorted(keys) == sorted(keys, key=st)
        assert sorted(keys, reverse=True) == sorted(keys, key=st,
                                                    reverse=True)
        newer, older = Key("r", timestamp=10), Key("r", timestamp=5)
        assert older > newer and older >= newer and not newer > older


class TestCell:
    def test_triple_view(self):
        c = Cell(Key("row1", "", "col1"), "5")
        assert c.triple() == ("row1", "col1", "5")

    def test_batch_cells_equal_constructed_cells(self):
        batch = ColumnBatch(["r1", "r2"], ["", "f"], ["q", "q2"],
                            ["", "a&b"], array("q", [7, 2**40]),
                            [False, True], ["1", ""])
        got = batch.cells()
        want = [Cell(Key("r1", "", "q", "", 7, False), "1"),
                Cell(Key("r2", "f", "q2", "a&b", 2**40, True), "")]
        assert got == want
        for cell, expected in zip(got, want):
            assert type(cell) is Cell and type(cell.key) is Key
            assert type(cell.key.timestamp) is int
            for field in Key._fields:
                assert getattr(cell.key, field) == getattr(expected.key,
                                                           field)
            assert cell.value == expected.value
        assert ColumnBatch.from_cells(got) == batch
        assert ColumnBatch.from_cells(iter([])) == ColumnBatch(
            [], [], [], [], array("q"), [], [])

    def test_pickle_hash_and_immutability(self):
        cell = Cell(Key("r", "f", "q", "v", 3, True), "x")
        back = pickle.loads(pickle.dumps(cell))
        assert back == cell and type(back) is Cell
        assert type(back.key) is Key
        assert hash(back) == hash(cell)
        assert hash(Key("r", "f")) == hash(Key("r", "f"))
        assert len({Key("r"), Key("r"), Key("r", timestamp=1)}) == 2
        key = cell.key
        with pytest.raises(AttributeError):
            key.row = "s"
        with pytest.raises(AttributeError):
            cell.value = "y"
        with pytest.raises(AttributeError):
            key.extra = 1

    def test_tuple_semantics(self):
        """The visible consequences of a tuple: a key equals the plain
        6-tuple of its fields, and a cell unpacks as ``key, value``."""
        key = Key("r", "f", "q")
        assert key == ("r", "f", "q", "", 0, False)
        k, v = Cell(key, "1")
        assert (k, v) == (key, "1")
        assert repr(key) == ("Key(row='r', family='f', qualifier='q', "
                             "visibility='', timestamp=0, delete=False)")


class TestRange:
    def test_half_open(self):
        r = Range("b", "d")
        assert not r.contains_row("a")
        assert r.contains_row("b")
        assert r.contains_row("c")
        assert not r.contains_row("d")

    def test_unbounded(self):
        assert Range().contains_row("anything")
        assert Range(None, "m").contains_row("a")
        assert not Range(None, "m").contains_row("z")

    def test_exact_row(self):
        r = Range.exact_row("abc")
        assert r.contains_row("abc")
        assert not r.contains_row("abcd")
        assert not r.contains_row("abb")

    def test_prefix(self):
        r = Range.prefix("v1")
        assert r.contains_row("v1") and r.contains_row("v1zzz")
        assert not r.contains_row("v2")

    def test_clip_overlap(self):
        out = Range("b", "f").clip(Range("d", "z"))
        assert out == Range("d", "f")

    def test_clip_disjoint_none(self):
        assert Range("a", "b").clip(Range("c", "d")) is None

    def test_clip_with_unbounded(self):
        assert Range(None, "m").clip(Range("d", None)) == Range("d", "m")
        assert Range().clip(Range("a", "b")) == Range("a", "b")


class TestNumberEncoding:
    @pytest.mark.parametrize("x,s", [(1.0, "1"), (2.5, "2.5"), (-3.0, "-3"),
                                     (0.0, "0")])
    def test_encode(self, x, s):
        assert encode_number(x) == s

    @pytest.mark.parametrize("x", [1.0, -2.5, 1e-9, 12345.678, 0.0])
    def test_roundtrip(self, x):
        assert decode_number(encode_number(x)) == x

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_number("abc")
