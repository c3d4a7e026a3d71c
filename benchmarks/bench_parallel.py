"""Parallel-driver benchmarks: process-pool per-source sweeps.

Shape of interest: per-source sweeps (betweenness / SSSP) parallelise
near-linearly because each source is independent, against the serial
betweenness sweep as the reference point.
"""

import numpy as np
import pytest

from repro.algorithms.centrality import betweenness_centrality
from repro.parallel import parallel_betweenness, parallel_sssp_matrix


class TestParallelBetweenness:
    def test_serial(self, benchmark, rmat_small):
        a, _, _ = rmat_small
        out = benchmark.pedantic(betweenness_centrality, args=(a,),
                                 rounds=1, iterations=1)
        assert (out >= 0).all()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_process_pool(self, benchmark, rmat_small, workers):
        a, _, _ = rmat_small
        out = benchmark.pedantic(parallel_betweenness, args=(a,),
                                 kwargs={"workers": workers},
                                 rounds=1, iterations=1)
        assert np.allclose(out, betweenness_centrality(a))


class TestParallelSSSP:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_distance_matrix(self, benchmark, rmat_small, workers):
        a, _, _ = rmat_small
        out = benchmark.pedantic(parallel_sssp_matrix, args=(a,),
                                 kwargs={"workers": workers},
                                 rounds=1, iterations=1)
        assert out.shape == (a.nrows, a.nrows)
