"""Blocked (tablet-style) SpGEMM: exact agreement with plain mxm."""

import numpy as np
import pytest

from repro.semiring import MIN_PLUS
from repro.sparse import from_dense, mxm, zeros
from repro.sparse.blocked import blocked_mxm, row_blocks, vstack


class TestRowBlocks:
    def test_roundtrip(self, random_sparse):
        a, dense = random_sparse(13, 7, seed=1)
        for n_blocks in (1, 2, 5, 13, 20):
            blocks = row_blocks(a, n_blocks)
            assert vstack(blocks).equal(a)
            assert sum(b.nrows for b in blocks) == 13

    def test_block_contents(self, random_sparse):
        a, dense = random_sparse(10, 6, seed=2)
        blocks = row_blocks(a, 2)
        assert np.allclose(blocks[0].to_dense(), dense[:5])
        assert np.allclose(blocks[1].to_dense(), dense[5:])

    def test_validation(self, random_sparse):
        a, _ = random_sparse(4, 4, seed=3)
        with pytest.raises(ValueError):
            row_blocks(a, 0)
        with pytest.raises(ValueError):
            vstack([])

    def test_vstack_mismatched_cols(self):
        with pytest.raises(ValueError):
            vstack([zeros(2, 3), zeros(2, 4)])


class TestBlockedMxm:
    @pytest.mark.parametrize("n_blocks", [1, 3, 8])
    def test_equals_plain_mxm(self, random_sparse, n_blocks):
        a, _ = random_sparse(12, 9, seed=4)
        b, _ = random_sparse(9, 7, seed=5)
        assert blocked_mxm(a, b, n_blocks=n_blocks).equal(mxm(a, b))

    def test_semiring(self, random_sparse):
        a, _ = random_sparse(8, 8, seed=6)
        out = blocked_mxm(a, a, n_blocks=3, semiring=MIN_PLUS)
        assert out.equal(mxm(a, a, semiring=MIN_PLUS))

    def test_parallel_workers(self, random_sparse):
        a, _ = random_sparse(16, 10, seed=7)
        b, _ = random_sparse(10, 5, seed=8)
        out = blocked_mxm(a, b, n_blocks=4, workers=2)
        assert out.equal(mxm(a, b))

    def test_parallel_builtin_semiring(self, random_sparse):
        a, _ = random_sparse(10, 10, seed=9)
        out = blocked_mxm(a, a, n_blocks=4, workers=2, semiring=MIN_PLUS)
        assert out.equal(mxm(a, a, semiring=MIN_PLUS))

    def test_parallel_custom_semiring_rejected(self, random_sparse):
        from repro.semiring import PLUS_MONOID, Semiring, TIMES

        a, _ = random_sparse(6, 6, seed=10)
        custom = Semiring("my_custom", PLUS_MONOID, TIMES)
        with pytest.raises(ValueError, match="built-in"):
            blocked_mxm(a, a, workers=2, semiring=custom)

    def test_empty_matrix(self):
        out = blocked_mxm(zeros(5, 4), zeros(4, 3), n_blocks=2)
        assert out.shape == (5, 3) and out.nnz == 0


class TestSharedMemoryPath:
    def _bit_identical(self, c, ref):
        assert np.array_equal(c.indptr, ref.indptr)
        assert np.array_equal(c.indices, ref.indices)
        assert np.array_equal(c.values, ref.values)

    def test_shm_bit_identical_to_mxm(self, random_sparse):
        a, _ = random_sparse(20, 12, seed=11)
        b, _ = random_sparse(12, 9, seed=12)
        ref = mxm(a, b)
        self._bit_identical(
            blocked_mxm(a, b, n_blocks=4, workers=2, share_b=True), ref)

    def test_pickled_fallback_bit_identical(self, random_sparse):
        a, _ = random_sparse(14, 8, seed=13)
        b, _ = random_sparse(8, 6, seed=14)
        self._bit_identical(
            blocked_mxm(a, b, n_blocks=3, workers=2, share_b=False),
            mxm(a, b))

    def test_timer_merges_worker_chunks(self, random_sparse):
        from repro.util import Timer

        a, _ = random_sparse(16, 10, seed=17)
        b, _ = random_sparse(10, 5, seed=18)
        t = Timer()
        out = blocked_mxm(a, b, n_blocks=4, workers=2, timer=t)
        assert out.equal(mxm(a, b))
        assert t.counts["_mxm_block_shm"] == 4

    def test_trace_span(self, random_sparse):
        from repro.obs import InMemorySink, trace

        a, _ = random_sparse(10, 8, seed=19)
        b, _ = random_sparse(8, 6, seed=20)
        sink = InMemorySink()
        trace.enable(sink)
        try:
            blocked_mxm(a, b, n_blocks=2, workers=1)
        finally:
            trace.disable()
        (span,) = sink.spans("kernel.spgemm.blocked")
        attrs = span["attrs"]
        assert attrs["n_blocks"] == 2 and attrs["workers"] == 1
        assert attrs["shared_memory"] is False
        assert attrs["nnz_out"] == mxm(a, b).nnz
