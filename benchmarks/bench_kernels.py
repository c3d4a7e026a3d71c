"""Kernel substrate microbenchmarks: the GraphBLAS building blocks
against scipy.sparse (arithmetic semiring reference point) and across
semirings.

These support every other benchmark: the paper's algorithms are kernel
compositions, so kernel cost dominates.

Headline numbers (SpGEMM timings and peak expansions at the default
and a tiling budget on the hub-skewed workload, plus the scipy
reference point) are written to ``BENCH.kernels.json`` at module end.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from benchmarks._benchjson import write_bench_json
from repro.generators import kronecker_graph
from repro.obs import global_registry
from repro.semiring import LOR_LAND, MIN_PLUS, PLUS_PAIR
from repro.sparse import (
    DEFAULT_EXPANSION_BUDGET,
    ewise_add,
    ewise_mult,
    from_dense,
    mxm,
    mxv,
    reduce_rows,
    set_expansion_probe,
    triu,
)
from tests.sparse.esc_oracle import esc_mxm


_RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def bench_json():
    """Write whatever was measured to the BENCH json at module end."""
    yield
    write_bench_json("kernels", _RESULTS, benchmark="kernel_substrate")


def best_of(fn, rounds=3):
    best = float("inf")
    out = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


@pytest.fixture(scope="module")
def pair(rmat_medium):
    a, _, _ = rmat_medium
    return a, sp.csr_matrix(a.to_dense())


def assert_bit_identical(c, ref):
    assert np.array_equal(c.indptr, ref.indptr)
    assert np.array_equal(c.indices, ref.indices)
    assert np.array_equal(c.values, ref.values)
    assert c.values.dtype == ref.values.dtype


class TestMxmVsScipy:
    def test_ours_plus_times(self, benchmark, pair):
        a, _ = pair
        c = benchmark(mxm, a, a)
        assert c.nnz > 0

    def test_scipy_reference(self, benchmark, pair):
        _, s = pair
        c = benchmark(lambda: s @ s)
        assert c.nnz > 0

    def test_ours_matches_scipy(self, pair):
        a, s = pair
        assert np.allclose(mxm(a, a).to_dense(), (s @ s).toarray())

    @pytest.mark.parametrize("sr", [MIN_PLUS, LOR_LAND, PLUS_PAIR],
                             ids=lambda s: s.name)
    def test_semiring_variants(self, benchmark, pair, sr):
        """Semiring generality costs little: same expansion machinery."""
        a, _ = pair
        c = benchmark(mxm, a, a, sr)
        assert c.nnz > 0

    def test_masked_spgemm(self, benchmark, pair):
        """Masking to the input pattern (triangle counting shape)."""
        a, _ = pair
        c = benchmark(mxm, a, a, PLUS_PAIR, a)
        assert c.nnz <= a.nnz


@pytest.fixture(scope="module")
def hub_pair():
    """Skewed-degree SpGEMM workload: Kronecker power of a star-ish seed.

    The star seed makes hub vertices whose degree grows as 3^k while
    leaf degrees stay small, so A@A's per-row flops are wildly skewed:
    a few hub rows hold most of the expansion, which is what the
    budget's row tiles cap.  Returns A and the lexsort oracle's A@A.
    """
    seed = [[0.0, 1.0, 1.0, 1.0],
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 1.0, 0.0]]
    a = kronecker_graph(seed, k=5)  # 1024 vertices
    return a, esc_mxm(a, a)


class TestSpGEMM:
    """The one SpGEMM kernel on a hub-skewed square at the default
    budget (one tile) and at 2^14 products (well below the hub rows'
    total flops: forces tiling).  Both must be bit-identical to the
    lexsort oracle; the registry records each budget's peak expansion
    (the memory the tiles actually touched)."""

    BUDGET = 1 << 14
    BUDGETS = {"default": None, str(BUDGET): BUDGET}

    def _run(self, a, label):
        gauge = global_registry().gauge(
            f"spgemm.budget_{label}.peak_expansion")
        prev = set_expansion_probe(gauge.set_max)
        try:
            return mxm(a, a, expansion_budget=self.BUDGETS[label])
        finally:
            set_expansion_probe(prev)

    @pytest.mark.parametrize("label", list(BUDGETS))
    def test_budget(self, benchmark, hub_pair, label):
        a, ref = hub_pair
        assert_bit_identical(benchmark(self._run, a, label), ref)

    def test_record_budget_timings(self, hub_pair):
        """Best-of-3 wall time per budget on the hub workload plus the
        peak-expansion gauges -> BENCH.kernels.json."""
        a, ref = hub_pair
        budgets = {}
        for label, budget in self.BUDGETS.items():
            t, c = best_of(lambda l=label: self._run(a, l))
            assert_bit_identical(c, ref)
            gauge = global_registry().gauge(
                f"spgemm.budget_{label}.peak_expansion")
            budgets[label] = {
                "expansion_budget": budget or DEFAULT_EXPANSION_BUDGET,
                "best_s": round(t, 5), "peak_expansion": int(gauge.value)}
        s = sp.csr_matrix(a.to_dense())
        t_scipy, _ = best_of(lambda: s @ s)
        _RESULTS["spgemm_hub"] = {
            "vertices": a.nrows, "nnz": a.nnz, "nnz_out": ref.nnz,
            "budgets": budgets,
            "scipy_reference_s": round(t_scipy, 5),
        }

    def test_tiled_peak_bounded(self, hub_pair):
        """Correctness canary + the budget actually capping expansion."""
        from repro.sparse import predict_row_flops

        a, ref = hub_pair
        peak = [0]
        prev = set_expansion_probe(lambda n: peak.__setitem__(
            0, max(peak[0], n)))
        try:
            c = mxm(a, a, expansion_budget=self.BUDGET)
        finally:
            set_expansion_probe(prev)
        assert_bit_identical(c, ref)
        row_flops = predict_row_flops(a, a)
        assert peak[0] <= max(self.BUDGET, int(row_flops.max()))
        global_registry().gauge(
            f"spgemm.budget_{self.BUDGET}.peak_expansion").set_max(peak[0])


class TestSpMV:
    def test_ours(self, benchmark, pair):
        a, _ = pair
        x = np.ones(a.ncols)
        y = benchmark(mxv, a, x)
        assert y.shape == (a.nrows,)

    def test_scipy_reference(self, benchmark, pair):
        _, s = pair
        x = np.ones(s.shape[1])
        y = benchmark(lambda: s @ x)
        assert y.shape[0] == s.shape[0]

    def test_tropical_spmv(self, benchmark, pair):
        a, _ = pair
        x = np.zeros(a.ncols)
        y = benchmark(mxv, a, x, MIN_PLUS)
        assert y.shape == (a.nrows,)


class TestEwiseAndSelect:
    def test_ewise_add(self, benchmark, pair):
        a, _ = pair
        c = benchmark(ewise_add, a, a.T)
        assert c.nnz >= a.nnz

    def test_ewise_mult(self, benchmark, pair):
        a, _ = pair
        c = benchmark(ewise_mult, a, a)
        assert c.nnz == a.nnz

    def test_triu(self, benchmark, pair):
        a, _ = pair
        u = benchmark(triu, a, 1)
        assert u.nnz <= a.nnz

    def test_reduce_rows(self, benchmark, pair):
        a, _ = pair
        d = benchmark(reduce_rows, a)
        assert d.shape == (a.nrows,)

    def test_transpose(self, benchmark, pair):
        a, _ = pair
        t = benchmark(lambda: a.T)
        assert t.shape == (a.ncols, a.nrows)
