"""ThreadedBackend: partitioned spmm must be bitwise-deterministic.

The threaded backend runs SciPy's own CSR kernel per row chunk, so its
outputs are *exactly* — not approximately — those of ``NumpyBackend`` at
every thread count, for single graphs and ragged block-diagonal batches
alike.  These tests pin that contract, plus the backend registry /
environment selection that makes ``REPRO_BACKEND=threaded`` a drop-in.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import CGNP, CGNPConfig, task_batch_loss
from repro.graph import GraphBatch, attributed_community_graph
from repro.gnn.conv import graph_ops
from repro.nn.backend import (NumpyBackend, Policy, ThreadedBackend,
                              available_backends, get_backend, make_backend,
                              policy, register_backend)
from repro.tasks import TaskSampler
from repro.utils import make_rng

THREAD_COUNTS = (1, 2, 8)


def random_csr(rng, rows, cols, nnz, dtype=np.float64, index_dtype=np.int32):
    """A CSR with duplicates merged, empty rows likely, exact dtypes."""
    r = rng.integers(0, rows, size=nnz)
    c = rng.integers(0, cols, size=nnz)
    matrix = sp.csr_matrix(
        (rng.standard_normal(nnz).astype(dtype), (r, c)), shape=(rows, cols))
    matrix.indices = matrix.indices.astype(index_dtype)
    matrix.indptr = matrix.indptr.astype(index_dtype)
    return matrix


class TestSpmmParity:
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_exact_parity_random_matrix(self, threads, dtype, index_dtype):
        rng = np.random.default_rng(0)
        matrix = random_csr(rng, 500, 300, 2500, dtype, index_dtype)
        dense = rng.standard_normal((300, 17)).astype(dtype)
        reference = NumpyBackend().spmm(matrix, dense)
        # serial_rows=1 forces the partitioned path even on small inputs.
        threaded = ThreadedBackend(num_threads=threads, serial_rows=1)
        result = threaded.spmm(matrix, dense)
        assert result.dtype == reference.dtype
        np.testing.assert_array_equal(result, reference)

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_exact_parity_matvec(self, threads):
        rng = np.random.default_rng(1)
        matrix = random_csr(rng, 400, 400, 1600)
        vector = rng.standard_normal(400)
        threaded = ThreadedBackend(num_threads=threads, serial_rows=1)
        np.testing.assert_array_equal(threaded.spmm(matrix, vector),
                                      NumpyBackend().spmm(matrix, vector))

    def test_serial_fallback_below_threshold(self):
        rng = np.random.default_rng(2)
        matrix = random_csr(rng, 64, 64, 300)
        dense = rng.standard_normal((64, 5))
        threaded = ThreadedBackend(num_threads=4, serial_rows=10_000)
        np.testing.assert_array_equal(threaded.spmm(matrix, dense),
                                      NumpyBackend().spmm(matrix, dense))

    def test_degenerate_shapes(self):
        threaded = ThreadedBackend(num_threads=4, serial_rows=1)
        empty = sp.csr_matrix((30, 30))
        dense = np.random.default_rng(3).standard_normal((30, 4))
        np.testing.assert_array_equal(threaded.spmm(empty, dense),
                                      np.zeros((30, 4)))
        one_row = sp.csr_matrix(np.ones((1, 30)))
        np.testing.assert_array_equal(threaded.spmm(one_row, dense),
                                      one_row @ dense)

    def test_mixed_dtype_falls_back_to_scipy(self):
        rng = np.random.default_rng(4)
        matrix = random_csr(rng, 100, 100, 500, dtype=np.float32)
        dense = rng.standard_normal((100, 3))  # float64
        threaded = ThreadedBackend(num_threads=4, serial_rows=1)
        reference = matrix @ dense
        result = threaded.spmm(matrix, dense)
        assert result.dtype == reference.dtype
        np.testing.assert_array_equal(result, reference)

    def test_shape_mismatch_raises_like_scipy(self):
        # The raw kernels would read the dense buffer out of bounds on a
        # shape mismatch; the guard must route to scipy's error instead.
        rng = np.random.default_rng(9)
        matrix = random_csr(rng, 50, 100, 400)
        dense = rng.standard_normal((60, 4))
        threaded = ThreadedBackend(num_threads=2, serial_rows=1)
        with pytest.raises(ValueError):
            threaded.spmm(matrix, dense)

    def test_non_contiguous_dense_falls_back(self):
        rng = np.random.default_rng(5)
        matrix = random_csr(rng, 100, 100, 500)
        wide = rng.standard_normal((100, 10))
        strided = wide[:, ::2]
        assert not strided.flags.c_contiguous
        threaded = ThreadedBackend(num_threads=4, serial_rows=1)
        np.testing.assert_array_equal(threaded.spmm(matrix, strided),
                                      matrix @ strided)

    def test_block_aligned_partition_on_batch_operator(self):
        graphs = [attributed_community_graph(
            num_nodes=n, num_communities=2, avg_degree=5.0, mixing=0.2,
            num_attributes=6, rng=make_rng(s), name=f"blk{s}")
            for s, n in ((1, 50), (2, 120), (3, 33), (4, 80))]
        batch = GraphBatch(graphs)
        ops = graph_ops(batch)
        assert ops.norm_adj.block_offsets is not None
        dense = np.random.default_rng(6).standard_normal(
            (batch.num_nodes, 13))
        reference = NumpyBackend().spmm(ops.norm_adj, dense)
        for threads in THREAD_COUNTS:
            threaded = ThreadedBackend(num_threads=threads, serial_rows=1)
            np.testing.assert_array_equal(
                threaded.spmm(ops.norm_adj, dense), reference)


class TestModelDeterminism:
    """A full model forward/backward is identical under both backends."""

    def _fixture(self):
        graph = attributed_community_graph(
            num_nodes=100, num_communities=3, avg_degree=6.0, mixing=0.15,
            num_attributes=10, rng=make_rng(7), name="thr-fixture")
        sampler = TaskSampler(graph, subgraph_nodes=45, num_support=2,
                              num_query=3)
        # Ragged: different subgraph sizes come from distinct samplers.
        small = TaskSampler(graph, subgraph_nodes=25, num_support=1,
                            num_query=2)
        tasks = sampler.sample_tasks(2, make_rng(1)) + \
            small.sample_tasks(1, make_rng(2))
        model = CGNP(tasks[0].features().shape[1],
                     CGNPConfig(hidden_dim=12, num_layers=2, conv="gcn"),
                     make_rng(4))
        model.eval()
        return model, tasks

    def _loss_and_grads(self, model, tasks):
        for parameter in model.parameters():
            parameter.zero_grad()
        loss = task_batch_loss(model, tasks)
        loss.backward()
        return loss.data.copy(), [p.grad.copy() for p in model.parameters()
                                  if p.grad is not None]

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_ragged_batch_loss_and_grads_bitwise(self, threads):
        model, tasks = self._fixture()
        with policy(backend=NumpyBackend()):
            ref_loss, ref_grads = self._loss_and_grads(model, tasks)
        threaded = ThreadedBackend(num_threads=threads, serial_rows=1)
        with policy(backend=threaded):
            thr_loss, thr_grads = self._loss_and_grads(model, tasks)
        np.testing.assert_array_equal(ref_loss, thr_loss)
        assert len(ref_grads) == len(thr_grads)
        for ref, thr in zip(ref_grads, thr_grads):
            np.testing.assert_array_equal(ref, thr)

    def test_engine_stats_surface_active_backend(self):
        from repro.api import CommunitySearchEngine

        model, tasks = self._fixture()
        engine = CommunitySearchEngine(model)
        with policy(backend=make_backend("threaded", num_threads=2)):
            engine.attach(tasks[0])
            engine.query(0)
            assert engine.stats().backend == "threaded"
        assert engine.stats().backend == get_backend().name
        assert "backend" in engine.stats().as_dict()


class TestBackendRegistry:
    def test_available_and_make(self):
        assert "numpy" in available_backends()
        assert "threaded" in available_backends()
        assert make_backend("numpy").name == "numpy"
        backend = make_backend("threaded", num_threads=3, serial_rows=7)
        assert backend.num_threads == 3 and backend.serial_rows == 7
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu")

    def test_register_backend_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("numpy", NumpyBackend)

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "threaded")
        monkeypatch.setenv("REPRO_NUM_THREADS", "5")
        assert ThreadedBackend().num_threads == 5
        assert Policy.from_env().backend.num_threads == 5

    @pytest.mark.parametrize("bad", ["abc", "0", "-2"])
    def test_bad_num_threads_names_its_variable(self, bad, monkeypatch):
        # Reported against REPRO_NUM_THREADS, not against REPRO_BACKEND
        # which selected the backend.
        monkeypatch.setenv("REPRO_BACKEND", "threaded")
        monkeypatch.setenv("REPRO_NUM_THREADS", bad)
        with pytest.raises(ValueError, match="REPRO_NUM_THREADS") as err:
            Policy.from_env()
        assert "REPRO_BACKEND" not in str(err.value)
        with pytest.raises(ValueError, match="REPRO_NUM_THREADS"):
            ThreadedBackend()

    def test_thread_count_validated(self):
        with pytest.raises(ValueError, match="num_threads"):
            ThreadedBackend(num_threads=0)

    def test_shutdown_rebuilds_pool_lazily(self):
        rng = np.random.default_rng(8)
        matrix = random_csr(rng, 300, 300, 1500)
        dense = rng.standard_normal((300, 4))
        backend = ThreadedBackend(num_threads=2, serial_rows=1)
        first = backend.spmm(matrix, dense)
        backend.shutdown()
        second = backend.spmm(matrix, dense)
        np.testing.assert_array_equal(first, second)
