"""Edge cases of the columnar cell codec and :class:`ColumnBatch`."""

import random
import string
from array import array

import pytest

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
        assert cells.ColumnBatch.empty().to_block() == block

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
