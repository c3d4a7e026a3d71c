"""SpGEMM kernel: tile planning, the fused-key fold, bit-identity.

At every expansion budget ``mxm`` must produce byte-for-byte the CSR
arrays of the monolithic lexsort expand–sort–compress oracle
(``tests/sparse/esc_oracle.py``) — the budget bounds memory, never the
numbers — and ``_coo_to_csr`` must fold any COO stream exactly as the
oracle's lexsort fold does.  Property tests drive random matrices,
budgets, masks, semirings and COO streams through both.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.obs import InMemorySink, trace
from repro.semiring import MIN_PLUS, PLUS_PAIR
from repro.semiring.builtin import MAX_MONOID, MIN_MONOID, PLUS_MONOID
from repro.sparse import from_dense, mxm, zeros
from repro.sparse.construct import _coo_to_csr
from repro.sparse.matrix import Matrix
from repro.sparse.spgemm import (
    mxm_dense_reference,
    plan_tiles,
    predict_row_flops,
    set_expansion_probe,
)
from tests.sparse.esc_oracle import esc_mxm, lexsort_coo_to_csr


def assert_bit_identical(c, ref):
    """CSR equality down to the last bit and dtype — not allclose."""
    assert c.shape == ref.shape
    assert np.array_equal(c.indptr, ref.indptr)
    assert np.array_equal(c.indices, ref.indices)
    assert np.array_equal(c.values, ref.values)
    assert c.values.dtype == ref.values.dtype
    assert c.indices.dtype == ref.indices.dtype


class TestFlopPrediction:
    def test_exact_expansion_size(self, random_sparse):
        a, _ = random_sparse(7, 5, seed=1)
        b, _ = random_sparse(5, 6, seed=2)
        flops = predict_row_flops(a, b)
        assert flops.shape == (7,)
        b_len = np.diff(b.indptr)
        for i in range(7):
            cols, _ = a.row(i)
            assert flops[i] == int(b_len[cols].sum())

    def test_empty_a(self):
        assert predict_row_flops(zeros(3, 4), zeros(4, 2)).tolist() == [0, 0, 0]


class TestPlanTiles:
    def test_covers_rows_in_order(self):
        tiles = plan_tiles(np.array([3, 3, 3, 3]), budget=6)
        assert tiles == [(0, 2), (2, 4)]

    def test_tiles_partition(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            flops = rng.integers(0, 50, rng.integers(1, 30))
            budget = int(rng.integers(1, 120))
            tiles = plan_tiles(flops, budget)
            assert tiles[0][0] == 0 and tiles[-1][1] == len(flops)
            for (l0, h0), (l1, _) in zip(tiles, tiles[1:]):
                assert h0 == l1
            for lo, hi in tiles:
                # within budget unless the tile is a single oversized row
                assert flops[lo:hi].sum() <= budget or hi - lo == 1

    def test_oversized_row_gets_own_tile(self):
        assert plan_tiles(np.array([100, 1, 1]), budget=10) == [
            (0, 1), (1, 3)]

    def test_empty(self):
        assert plan_tiles(np.array([], dtype=np.int64), budget=5) == []

    def test_bad_budget(self):
        with pytest.raises(ValueError, match="budget"):
            plan_tiles(np.array([1]), budget=0)


class TestKernelSurface:
    def test_signature(self):
        """The budget is the kernel's only execution knob."""
        assert list(inspect.signature(mxm).parameters) == [
            "a", "b", "semiring", "mask", "expansion_budget"]
        params = inspect.signature(Matrix.mxm).parameters
        assert "strategy" not in params
        assert "expansion_budget" not in params

    def test_matrix_method_passthrough(self, random_sparse):
        a, _ = random_sparse(6, 6, seed=4)
        assert_bit_identical(a.mxm(a), esc_mxm(a, a))

    @pytest.mark.parametrize("budget", [1, None])
    def test_empty_operands(self, budget):
        out = mxm(zeros(3, 4), zeros(4, 2), expansion_budget=budget)
        assert out.shape == (3, 2) and out.nnz == 0
        assert_bit_identical(out, esc_mxm(zeros(3, 4), zeros(4, 2)))

    @pytest.mark.parametrize("budget", [1, 2, None])
    def test_empty_rows_and_empty_result(self, budget):
        # row 0 of A only hits implicit zeros of B; row 2 of A is empty
        a = from_dense([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        b = from_dense([[0.0], [3.0]])
        assert_bit_identical(mxm(a, b, expansion_budget=budget),
                             esc_mxm(a, b))


class TestRowIndependence:
    """A row block of ``A`` times ``B`` is that row block of ``A·B``,
    bit for bit — what lets each tablet of ``AT`` multiply its own
    rows on its own server."""

    @staticmethod
    def _blocks(nrows, n_blocks):
        return [blk for blk in np.array_split(np.arange(nrows), n_blocks)
                if len(blk)]

    @pytest.mark.parametrize("n_blocks", [1, 3, 8, 20])
    def test_tablet_rows_of_product(self, random_sparse, n_blocks):
        a, _ = random_sparse(12, 9, seed=4)
        b, _ = random_sparse(9, 7, seed=5)
        c = mxm(a, b)
        for blk in self._blocks(a.nrows, n_blocks):
            assert_bit_identical(mxm(a.extract(rows=blk), b),
                                 c.extract(rows=blk))

    def test_tablet_rows_min_plus(self, random_sparse):
        a, _ = random_sparse(8, 8, seed=6)
        c = mxm(a, a, semiring=MIN_PLUS)
        for blk in self._blocks(a.nrows, 3):
            assert_bit_identical(
                mxm(a.extract(rows=blk), a, semiring=MIN_PLUS),
                c.extract(rows=blk))

    def test_tablet_rows_masked(self, random_sparse):
        a, _ = random_sparse(10, 10, seed=9)
        m, _ = random_sparse(10, 10, density=0.5, seed=10)
        c = mxm(a, a, mask=m)
        assert 0 < c.nnz < mxm(a, a).nnz
        for blk in self._blocks(a.nrows, 4):
            assert_bit_identical(
                mxm(a.extract(rows=blk), a, mask=m.extract(rows=blk)),
                c.extract(rows=blk))

    @pytest.mark.parametrize("budget", [1, 7, None])
    def test_tablet_rows_under_budget(self, random_sparse, budget):
        a, _ = random_sparse(16, 10, seed=7)
        b, _ = random_sparse(10, 5, seed=8)
        c = mxm(a, b)
        for blk in self._blocks(a.nrows, 4):
            assert_bit_identical(
                mxm(a.extract(rows=blk), b, expansion_budget=budget),
                c.extract(rows=blk))

    def test_empty_tablet_rows(self):
        a = from_dense([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        b = from_dense([[2.0], [3.0]])
        out = mxm(a.extract(rows=[1, 2]), b)
        assert out.shape == (2, 1) and out.nnz == 0
        assert_bit_identical(out, mxm(a, b).extract(rows=[1, 2]))


class TestBudgetProbe:
    def test_peak_never_exceeds_budget(self, random_sparse):
        a, _ = random_sparse(40, 30, seed=5, density=0.3)
        b, _ = random_sparse(30, 25, seed=6, density=0.3)
        row_flops = predict_row_flops(a, b)
        for budget in (1, 7, 64, 10**9):
            sizes = []
            prev = set_expansion_probe(sizes.append)
            try:
                c = mxm(a, b, expansion_budget=budget)
            finally:
                set_expansion_probe(prev)
            assert sizes, "probe never fired"
            # the only legal over-budget tile is a single oversized row
            assert max(sizes) <= max(budget, int(row_flops.max()))
            assert_bit_identical(c, esc_mxm(a, b))

    def test_probe_restores(self):
        marker = lambda n: None
        prev = set_expansion_probe(marker)
        assert set_expansion_probe(prev) is marker


class TestKeyOverflow:
    def test_huge_mask_rejected(self):
        # 4 * (2^61 + 1) - 1 > int64 max: flat keys would silently wrap
        wide = (1 << 61) + 1
        empty = np.zeros(0, dtype=np.intp)
        a = Matrix(4, 1, np.zeros(5, dtype=np.intp), empty,
                   np.zeros(0), _validate=False)
        b = Matrix(1, wide, np.zeros(2, dtype=np.intp), empty,
                   np.zeros(0), _validate=False)
        mask = Matrix(4, wide, np.zeros(5, dtype=np.intp), empty,
                      np.zeros(0), _validate=False)
        with pytest.raises(ValueError, match="int64"):
            mxm(a, b, mask=mask)

    @pytest.mark.parametrize("budget", [1, None])
    def test_fused_key_overflow_multiplies(self, budget):
        """4 x (intp max // 2 + 1): ``4 * ncols - 1`` overflows the
        fused key, so a 4-row tile lexsorts and a 1-row tile does not;
        both give the oracle's bytes, duplicates folded."""
        wide = np.iinfo(np.intp).max // 2 + 1
        a = Matrix(4, 2, np.arange(0, 9, 2, dtype=np.intp),
                   np.tile(np.arange(2, dtype=np.intp), 4),
                   np.arange(1.0, 9.0), _validate=False)
        b = Matrix(2, wide, np.array([0, 3, 5], dtype=np.intp),
                   np.array([0, 5, wide - 1, 5, wide - 1], dtype=np.intp),
                   np.array([0.1, 0.2, 1e16, 0.3, -1e16]), _validate=False)
        c = mxm(a, b, expansion_budget=budget)
        assert c.shape == (4, wide) and c.nnz == 12
        assert_bit_identical(c, esc_mxm(a, b))


class TestTraceAttrs:
    def test_span_records_plan(self, random_sparse):
        a, _ = random_sparse(12, 12, seed=7, density=0.4)
        sink = InMemorySink()
        trace.enable(sink)
        try:
            mxm(a, a, expansion_budget=5)
            mxm(a, a)
        finally:
            trace.disable()
        spans = sink.spans("kernel.spgemm")
        assert len(spans) == 2
        tiled, whole = spans[0]["attrs"], spans[1]["attrs"]
        assert tiled["n_tiles"] > 1
        assert tiled["expansion_budget"] == 5
        assert 0 < tiled["peak_expansion"] <= whole["peak_expansion"]
        assert tiled["nnz_out"] == whole["nnz_out"]
        assert whole["n_tiles"] == 1
        assert whole["peak_expansion"] == int(predict_row_flops(a, a).sum())


# -- the fold: _coo_to_csr against the lexsort oracle -------------------------

@st.composite
def coo_streams(draw):
    """(nrows, ncols, rows, cols, vals): duplicate-heavy COO in any order,
    float / int / bool values, square-ish, 1 x N and N x 1 shapes."""
    nrows, ncols = draw(st.one_of(
        st.tuples(st.integers(1, 8), st.integers(1, 8)),
        st.tuples(st.just(1), st.integers(1, 40)),
        st.tuples(st.integers(1, 40), st.just(1))))
    n = draw(st.integers(0, 40))
    rows = draw(arrays(np.intp, n, elements=st.integers(0, nrows - 1)))
    cols = draw(arrays(np.intp, n, elements=st.integers(0, ncols - 1)))
    elements = {
        np.float64: st.sampled_from([0.0, 1.0, -2.5, 0.1, 0.2, 1e16, 3.0]),
        np.int64: st.integers(-5, 5),
        np.bool_: st.booleans(),
    }
    dtype = draw(st.sampled_from(sorted(elements, key=str)))
    vals = draw(arrays(dtype, n, elements=elements[dtype]))
    return nrows, ncols, rows, cols, vals


@given(coo=coo_streams(),
       dup=st.sampled_from([PLUS_MONOID, MIN_MONOID, MAX_MONOID]))
@settings(max_examples=150, deadline=None)
def test_coo_to_csr_matches_lexsort_fold(coo, dup):
    out = _coo_to_csr(*coo, dup)
    assert_bit_identical(out, lexsort_coo_to_csr(*coo, dup))
    out._check_canonical()


@pytest.mark.parametrize("nrows, ncols", [(3, 3), (1, 50), (50, 1)])
def test_coo_to_csr_folds_duplicates_in_input_order(nrows, ncols):
    """Hundreds of duplicates per key whose float sum depends on the
    order: only a stable sort keeps the lexsort fold's bits."""
    rng = np.random.default_rng(0)
    n = 20000
    rows = rng.integers(0, nrows, n).astype(np.intp)
    cols = rng.integers(0, ncols, n).astype(np.intp)
    vals = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    assert_bit_identical(
        _coo_to_csr(nrows, ncols, rows, cols, vals, PLUS_MONOID),
        lexsort_coo_to_csr(nrows, ncols, rows, cols, vals, PLUS_MONOID))


# -- property tests: random budgets, masks, semirings, bit-for-bit -----------

def sparse_pair():
    """(dense A, dense B) with compatible shapes, many zeros."""
    elements = st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, -1.5, 0.25, 7.0])
    dims = st.tuples(st.integers(1, 10), st.integers(1, 8),
                     st.integers(1, 10))
    return dims.flatmap(lambda mkn: st.tuples(
        arrays(np.float64, (mkn[0], mkn[1]), elements=elements),
        arrays(np.float64, (mkn[1], mkn[2]), elements=elements)))


@given(ab=sparse_pair(), budget=st.integers(1, 200))
@settings(max_examples=120, deadline=None)
def test_bit_identical_to_oracle(ab, budget):
    da, db = ab
    a, b = from_dense(da), from_dense(db)
    out = mxm(a, b, expansion_budget=budget)
    assert_bit_identical(out, esc_mxm(a, b))
    assert_bit_identical(mxm(a, b), esc_mxm(a, b))
    assert np.allclose(out.to_dense(), mxm_dense_reference(a, b))


@given(ab=sparse_pair(), budget=st.integers(1, 200))
@settings(max_examples=80, deadline=None)
def test_masked_bit_identical(ab, budget):
    da, db = ab
    a, b = from_dense(da), from_dense(db)
    # mask with a deterministic-but-irregular stored pattern
    dm = np.zeros((da.shape[0], db.shape[1]))
    dm.flat[::2] = 1.0
    mask = from_dense(dm)
    out = mxm(a, b, mask=mask, expansion_budget=budget)
    assert_bit_identical(out, esc_mxm(a, b, mask=mask))


@given(ab=sparse_pair(), budget=st.integers(1, 200))
@settings(max_examples=60, deadline=None)
def test_min_plus_bit_identical(ab, budget):
    da, db = ab
    a, b = from_dense(da), from_dense(db)
    out = mxm(a, b, semiring=MIN_PLUS, expansion_budget=budget)
    assert_bit_identical(out, esc_mxm(a, b, semiring=MIN_PLUS))


@given(da=arrays(np.float64, (7, 7),
                 elements=st.sampled_from([0.0, 0.0, 1.0, 3.0])),
       budget=st.integers(1, 200))
@settings(max_examples=60, deadline=None)
def test_plus_pair_square_bit_identical(da, budget):
    a = from_dense(da)
    out = mxm(a, a.T, semiring=PLUS_PAIR, expansion_budget=budget)
    assert_bit_identical(out, esc_mxm(a, a.T, semiring=PLUS_PAIR))
