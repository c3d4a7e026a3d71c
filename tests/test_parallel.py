"""Process-parallel sweep drivers: results must match serial exactly."""

import numpy as np
import pytest

from repro.algorithms.centrality import betweenness_centrality, closeness_centrality
from repro.algorithms.shortestpath import apsp_min_plus
from repro.generators import erdos_renyi
from repro.parallel import (
    chunk_evenly,
    parallel_betweenness,
    parallel_closeness,
    parallel_map,
    parallel_sssp_matrix,
)
from repro.sparse import from_dense


def _square(x):
    return x * x


class TestChunking:
    def test_even_sizes(self):
        chunks = chunk_evenly(list(range(10)), 3)
        assert [len(c) for c in chunks] == [3, 3, 4] or \
               sorted(len(c) for c in chunks) in ([3, 3, 4], [3, 4, 3])
        assert sum(chunks, []) == list(range(10))

    def test_more_chunks_than_items(self):
        chunks = chunk_evenly([1, 2], 5)
        assert [list(c) for c in chunks] == [[1], [2]]

    def test_empty(self):
        assert chunk_evenly([], 3) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_evenly([1], 0)


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(_square, [(2,), (3,)], workers=1) == [4, 9]

    def test_process_pool_path(self):
        assert parallel_map(_square, [(i,) for i in range(6)],
                            workers=2) == [i * i for i in range(6)]

    def test_order_preserved(self):
        out = parallel_map(_square, [(i,) for i in range(10)], workers=3)
        assert out == [i * i for i in range(10)]

    def test_serial_path_merges_worker_timers(self):
        from repro.util import Timer

        t = Timer()
        out = parallel_map(_square, [(2,), (3,)], workers=1, timer=t)
        assert out == [4, 9]
        assert t.counts["_square"] == 2
        assert t.totals["_square"] >= 0

    def test_pool_path_merges_worker_timers(self):
        from repro.util import Timer

        t = Timer()
        out = parallel_map(_square, [(i,) for i in range(6)], workers=2,
                           timer=t)
        assert out == [i * i for i in range(6)]
        assert t.counts["_square"] == 6

    def test_driver_timer_passthrough(self):
        from repro.util import Timer

        a = erdos_renyi(20, 0.2, seed=1)
        t = Timer()
        serial = parallel_betweenness(a, workers=1)
        timed = parallel_betweenness(a, workers=2, timer=t)
        np.testing.assert_allclose(timed, serial)
        assert t.counts["_betweenness_chunk"] == 2


class TestParallelCentrality:
    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi(30, 0.15, seed=3)

    def test_betweenness_matches_serial(self, graph):
        serial = betweenness_centrality(graph)
        for workers in (1, 2, 3):
            par = parallel_betweenness(graph, workers=workers)
            assert np.allclose(par, serial)

    def test_closeness_matches_serial(self, graph):
        serial = closeness_centrality(graph)
        par = parallel_closeness(graph, workers=2)
        assert np.allclose(par, serial)

    def test_weighted_closeness(self, rng):
        n = 15
        upper = np.triu(np.where(rng.random((n, n)) < 0.3,
                                 rng.uniform(1, 4, (n, n)), 0.0), 1)
        a = from_dense(upper + upper.T)
        serial = closeness_centrality(a, weighted=True)
        par = parallel_closeness(a, workers=2, weighted=True)
        assert np.allclose(par, serial)


class TestParallelSSSP:
    def test_matches_minplus_apsp(self, rng):
        n = 20
        dense = np.where(rng.random((n, n)) < 0.2,
                         rng.uniform(0.5, 4.0, (n, n)), 0.0)
        np.fill_diagonal(dense, 0.0)
        a = from_dense(dense)
        par = parallel_sssp_matrix(a, workers=2)
        assert np.allclose(par, apsp_min_plus(a), equal_nan=True)

    def test_source_subset(self, rng):
        a = erdos_renyi(15, 0.3, seed=4)
        out = parallel_sssp_matrix(a, workers=2, sources=[0, 5])
        assert out.shape == (2, 15)
