"""Edge cases of the columnar cell codec and :class:`ColumnBatch`: a
round-trip property over every dictionary regime of block format 2,
and malformed blocks, each of which must be a ``BlockFormatError``."""

import random
import string
import struct
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbsim.key import Cell, Key
from repro.net import cells
from tests.net import blocks


def mut(row="r", fam="f", qual="q", vis="", ts=1, delete=False, val="v"):
    return (row, fam, qual, vis, ts, delete, val)


def random_mut(rng: random.Random):
    def s(alphabet, lo=0, hi=8):
        return "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(lo, hi)))
    ascii_ = string.ascii_letters + string.digits
    multibyte = ascii_ + "é漢🜁Ω"
    return (s(multibyte), s(ascii_), s(multibyte), s(ascii_, 0, 2),
            rng.randint(-2 ** 62, 2 ** 62), rng.random() < 0.2,
            s(multibyte, 0, 20))


class TestRoundTrip:
    def test_multibyte_utf8_slow_decode_branch(self):
        # char offsets != byte offsets → the per-entry decode branch
        muts = [mut(row="naïve", qual="漢字", val="🜁🜂🜃"),
                mut(row="ascii", qual="q", val="plain"),
                mut(row="Ωmega", vis="", val="é" * 50)]
        assert blocks.decode_mutations(cells.encode_block(muts)) == muts

    def test_zero_cell_block(self):
        block = cells.encode_block([])
        assert blocks.decode_mutations(block) == []
        batch = cells.decode_batch(block)
        assert len(batch) == 0 and batch.cells() == []
        assert blocks.block_to_cells(block) == []
        # columnar encoder agrees on the empty shape
        assert cells.ColumnBatch.from_cells([]).to_block() == block

    def test_all_deletes_block(self):
        muts = [mut(row=f"r{i:03d}", ts=i, delete=True, val="")
                for i in range(100)]  # > _SPLAT_CUTOFF: array pack path
        out = blocks.decode_mutations(cells.encode_block(muts))
        assert out == muts
        assert all(d for (_, _, _, _, _, d, _) in out)
        batch = cells.decode_batch(cells.encode_block(muts))
        assert batch.deletes == [True] * 100
        assert all(c.key.delete for c in batch.cells())

    def test_encode_columns_matches_encode_block(self):
        rng = random.Random(7)
        muts = [random_mut(rng) for _ in range(300)]
        cols = list(zip(*muts))
        columnar = cells.encode_columns(
            cols[0], cols[1], cols[2], cols[3],
            array("q", cols[4]), cols[5], cols[6])
        assert columnar == cells.encode_block(muts)
        # bytes/bytearray delete bitmaps encode identically to bools
        bitmap = bytes(1 if d else 0 for d in cols[5])
        assert cells.encode_columns(
            cols[0], cols[1], cols[2], cols[3],
            list(cols[4]), bitmap, cols[6]) == columnar

    def test_encode_columns_does_not_mutate_caller_timestamps(self):
        ts = array("q", range(200))
        before = list(ts)
        cells.encode_columns(["r"] * 200, [""] * 200, ["q"] * 200,
                             [""] * 200, ts, [False] * 200, ["v"] * 200)
        assert list(ts) == before


#: a column's distinct strings are ``prefix + str(i)``, so they stay
#: distinct however the prefix is drawn; "" may be one of them
prefixes = st.text(alphabet="ab é漢🜁Ω", max_size=3)


@st.composite
def string_column(draw, n):
    """``(column, u)``: ``n`` entries over exactly ``u`` distinct
    strings, ``u`` drawn from a regime the codec tells apart — 1, N, an
    index of 1-byte entries (2–256) or of 2-byte ones (257–65 536)."""
    regimes = ["one", "all"] + ["byte"] * (n > 2) + ["short"] * (n > 257)
    regime = draw(st.sampled_from(regimes))
    u = {"one": 1, "all": n}.get(regime) or draw(
        st.integers(2, min(256, n - 1)) if regime == "byte"
        else st.integers(257, n - 1))
    prefix = draw(prefixes)
    uniq = [f"{prefix}{i}" for i in range(u)]
    if draw(st.booleans()):
        uniq[0] = ""
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    picks = list(range(u)) + [rnd.randrange(u) for _ in range(n - u)]
    rnd.shuffle(picks)
    return [uniq[i] for i in picks], u


@st.composite
def column_blocks(draw):
    # large blocks are drawn as often as small ones: only they have
    # room for a 2-byte index
    n = draw(st.integers(258, 600) if draw(st.booleans())
             else st.integers(1, 40))
    strs = [draw(string_column(n)) for _ in range(5)]
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    ts = [rnd.randint(-2 ** 63, 2 ** 63 - 1) for _ in range(n)]
    dels = [rnd.random() < 0.3 for _ in range(n)]
    (rows, _), (fams, _), (quals, _), (viss, _), (vals, _) = strs
    return (rows, fams, quals, viss, ts, dels, vals), [u for _, u in strs]


def _distinct_counts(block):
    """Each string column's U, read back from the block's layout."""
    view, off, counts = memoryview(block), 5, []
    n = struct.unpack_from("!I", view, 1)[0]
    for _ in range(5):
        u = struct.unpack_from("!I", view, off)[0]
        off += 4 + 4 * u + sum(struct.unpack_from(f"!{u}I", view, off + 4))
        if 1 < u < n:
            off += n * (1 if u <= 256 else 2 if u <= 65536 else 4)
        counts.append(u)
    return counts


class TestDictionaryRegimes:
    @settings(max_examples=60, deadline=None)
    @given(column_blocks())
    def test_round_trip_in_every_regime(self, drawn):
        columns, distinct = drawn
        block = cells.encode_columns(*columns)
        assert _distinct_counts(block) == distinct
        assert cells.decode_columns(block) == columns
        batch = cells.decode_batch(block)
        assert batch.cells() == [
            Cell(Key(*key), value) for *key, value in zip(*columns)]
        # no str per cell: equal entries decode to one shared object
        for col, u in zip((batch.rows, batch.families, batch.qualifiers,
                           batch.visibilities, batch.values), distinct):
            assert len({id(s) for s in col}) == u

    def test_more_than_65536_distinct_rows(self):
        # 4-byte index entries: U = 65 540 distinct rows over N = 70 000
        n, u = 70_000, 65_540
        rows = [f"é{i % u:05d}" for i in range(n)]
        columns = (rows, [""] * n, ["q"] * n, [""] * n, list(range(n)),
                   [i % 3 == 0 for i in range(n)], rows[::-1])
        block = cells.encode_columns(*columns)
        assert _distinct_counts(block) == [u, 1, 1, 1, u]
        assert cells.decode_columns(block) == columns


class TestColumnBatch:
    def test_cells_equivalent_to_block_to_cells(self):
        # property: for arbitrary blocks, the lazy ColumnBatch view
        # materialises exactly what the eager decoder builds
        rng = random.Random(42)
        for trial in range(20):
            muts = [random_mut(rng) for _ in range(rng.randint(0, 120))]
            block = cells.encode_block(muts)
            eager = blocks.block_to_cells(block)
            lazy = cells.decode_batch(block).cells()
            assert lazy == eager
            assert [c.key.timestamp for c in lazy] == \
                [c.key.timestamp for c in eager]

    def test_from_cells_round_trip(self):
        cs = [Cell(Key("r1", "f", "q", "", 5, False), "a"),
              Cell(Key("r2", "f", "qé", "", -3, True), "")]
        batch = cells.ColumnBatch.from_cells(cs)
        assert batch.cells() == cs
        assert blocks.block_to_cells(batch.to_block()) == cs

    def test_last_key_matches_final_cell(self):
        muts = [mut(row="a", ts=1), mut(row="b", ts=2, delete=True)]
        batch = cells.decode_batch(cells.encode_block(muts))
        assert batch.last_key() == ["b", "f", "q", "", 2, True]

    def test_select_and_extend(self):
        muts = [mut(row=f"r{i}", ts=i) for i in range(6)]
        batch = cells.decode_batch(cells.encode_block(muts))
        picked = batch.select([1, 3, 5])
        assert picked.rows == ["r1", "r3", "r5"]
        assert list(picked.timestamps) == [1, 3, 5]
        assert isinstance(picked.timestamps, array)
        other = cells.decode_batch(cells.encode_block(
            [mut(row="z", ts=99)]))
        picked.extend(other)
        assert picked.rows[-1] == "z" and list(picked.timestamps)[-1] == 99
        assert len(picked) == 4

    @staticmethod
    def _select_by_comprehension(batch, indices):
        """What ``select`` built before its columns were taken by
        ``itemgetter``: one list comprehension per column."""
        return cells.ColumnBatch(
            [batch.rows[i] for i in indices],
            [batch.families[i] for i in indices],
            [batch.qualifiers[i] for i in indices],
            [batch.visibilities[i] for i in indices],
            array("q", (batch.timestamps[i] for i in indices)),
            [batch.deletes[i] for i in indices],
            [batch.values[i] for i in indices])

    @pytest.mark.parametrize("kind", ["empty", "one", "all", "sparse",
                                      "range"])
    def test_select_equals_the_comprehensions(self, kind):
        rng = random.Random(7)
        for trial in range(30):
            n = rng.randint(1, 60)
            batch = cells.decode_batch(cells.encode_block(
                [random_mut(rng) for _ in range(n)]))
            indices = {"empty": [],
                       "one": [rng.randrange(n)],
                       "all": list(range(n)),
                       "sparse": sorted(rng.sample(range(n),
                                                   rng.randint(0, n))),
                       "range": range(rng.randrange(n), n)}[kind]
            got = batch.select(indices)
            want = self._select_by_comprehension(batch, indices)
            assert got == want
            for name in cells.ColumnBatch.__slots__:
                column = getattr(got, name)
                assert type(column) is type(getattr(want, name))
                assert column is not getattr(batch, name)
            assert got.timestamps.typecode == "q"

    def test_equality_includes_timestamps(self):
        a = cells.decode_batch(cells.encode_block([mut(ts=1)]))
        b = cells.decode_batch(cells.encode_block([mut(ts=1)]))
        c = cells.decode_batch(cells.encode_block([mut(ts=2)]))
        assert a == b and a != c


class TestBadBlocks:
    def test_truncated_timestamps_rejected(self):
        block = cells.encode_block([mut(), mut(row="r2")])
        with pytest.raises(cells.BlockFormatError):
            cells.decode_batch(block[:-20])

    def test_truncated_delete_flags_rejected(self):
        block = cells.encode_block([mut(), mut(row="r2")])
        with pytest.raises(cells.BlockFormatError):
            cells.decode_batch(block[:-1])

    def test_bad_format_version_rejected(self):
        block = bytearray(cells.encode_block([mut()]))
        block[0] = 99
        with pytest.raises(cells.BlockFormatError):
            cells.decode_batch(bytes(block))

    #: rows ["a", "b", "a"]: U at 5, lengths at 9, "ab" at 17, the
    #: 1-byte index at 19..22
    ROWS_ABA = cells.encode_block([mut(row="a"), mut(row="b"),
                                   mut(row="a")])

    @staticmethod
    def _rows_block(uniq, index):
        """A hand-built block whose row column lists ``uniq`` and a
        1-byte ``index``; its other columns are one string each.
        Everything but the row column is well formed."""
        n = len(index)
        parts = [struct.pack("!BII", cells.BLOCK_FORMAT, n, len(uniq)),
                 struct.pack(f"!{len(uniq)}I", *map(len, uniq)),
                 "".join(uniq).encode(), bytes(index)]
        parts += [struct.pack("!II", 1, 1), b"x"] * 4
        parts += [struct.pack(f"!{n}q", *range(n)), bytes(n)]
        return b"".join(parts)

    def test_hand_built_block_decodes(self):
        assert cells.decode_columns(self._rows_block(["a", "b"], [0, 1, 0])) \
            == (["a", "b", "a"], ["x"] * 3, ["x"] * 3, ["x"] * 3,
                [0, 1, 2], [False] * 3, ["x"] * 3)

    @pytest.mark.parametrize("uniq, index", [
        ([], [0, 0, 0]),                 # U = 0 with N > 0
        (["a", "b", "c", "d"], [0, 1, 2]),  # U > N, the rest consistent
    ], ids=["zero", "more_than_n"])
    def test_distinct_count_outside_1_to_n(self, uniq, index):
        with pytest.raises(cells.BlockFormatError, match="distinct"):
            cells.decode_batch(self._rows_block(uniq, index))

    def test_index_entry_past_the_distinct_strings(self):
        block = bytearray(self.ROWS_ABA)
        assert block[17:22] == b"ab\x00\x01\x00"
        block[21] = 2  # U = 2
        with pytest.raises(cells.BlockFormatError):
            cells.decode_batch(bytes(block))

    def test_two_byte_index_entry_past_the_distinct_strings(self):
        muts = [mut(row=f"r{i % 300:03d}") for i in range(400)]
        block = bytearray(cells.encode_block(muts))
        index = 5 + 4 + 4 * 300 + 4 * 300  # 300 distinct 4-byte rows
        assert struct.unpack_from("!H", block, index + 2 * 399)[0] == 99
        block[index + 2 * 399:index + 2 * 400] = struct.pack("!H", 300)
        with pytest.raises(cells.BlockFormatError):
            cells.decode_batch(bytes(block))

    @pytest.mark.parametrize("cut", [12, 18, 20],
                             ids=["lengths", "strings", "index"])
    def test_truncated_column(self, cut):
        with pytest.raises(cells.BlockFormatError):
            cells.decode_batch(self.ROWS_ABA[:cut])

    def test_every_strict_prefix_is_rejected(self):
        rng = random.Random(3)
        block = cells.encode_block([random_mut(rng) for _ in range(12)])
        for cut in range(len(block)):
            with pytest.raises(cells.BlockFormatError):
                cells.decode_batch(block[:cut])

    def test_a_cell_count_the_block_cannot_hold(self):
        # every column is U = 1: without the check against the block's
        # size, the decoder would repeat each string 4G times
        block = bytearray(cells.encode_block([mut()] * 3))
        block[1:5] = struct.pack("!I", 2 ** 32 - 1)
        with pytest.raises(cells.BlockFormatError, match="cannot hold"):
            cells.decode_batch(bytes(block))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 255))
    def test_a_corrupt_byte_decodes_or_is_typed(self, pos, value):
        block = bytearray(self.ROWS_ABA)
        block[pos % len(block)] = value
        try:
            cells.decode_batch(bytes(block))
        except cells.BlockFormatError:
            pass
