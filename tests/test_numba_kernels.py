"""NumbaBackend kernel parity against the NumPy reference backend.

Skipped wholesale when the numba wheel is absent (the gating tests in
``test_numba_backend.py`` cover that path).  The contract under test:

* spmm (forward and, through the pre-transposed operator, backward),
  gather and scatter-add are **bitwise identical** to ``NumpyBackend``
  at both element dtypes (float32/float64) and both index dtypes
  (int32/int64) — the kernels reproduce the reference accumulation
  order exactly.
* the fused segment softmax matches to ≤1e-12 relative at float64
  (numba's ``exp`` may differ from NumPy's by ulps) and ≤1e-5 at
  float32; its analytic backward matches the reference backward to the
  same tolerance.
* a full GAT forward/backward over a ragged ``GraphBatch`` — the edge
  path the backend exists to accelerate — agrees between backends at
  float tolerance, and the non-GAT path (GCN, pure spmm) agrees bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

pytest.importorskip("numba")

from repro.core import CGNP, CGNPConfig, task_batch_loss  # noqa: E402
from repro.graph import GraphBatch, attributed_community_graph  # noqa: E402
from repro.gnn.conv import GATConv, graph_ops  # noqa: E402
from repro.nn import functional as F  # noqa: E402
from repro.nn.backend import (NumbaBackend, NumpyBackend,  # noqa: E402
                              available_backends, make_backend, policy)
from repro.nn.sparse import spmm  # noqa: E402
from repro.nn.tensor import Tensor  # noqa: E402
from repro.tasks import TaskSampler  # noqa: E402
from repro.utils import make_rng  # noqa: E402

ELEM_DTYPES = (np.float32, np.float64)
INDEX_DTYPES = (np.int32, np.int64)


def softmax_tol(dtype) -> float:
    return 1e-12 if np.dtype(dtype) == np.float64 else 1e-5


@pytest.fixture(scope="module")
def numba_backend() -> NumbaBackend:
    backend = make_backend("numba")
    backend.warmup()
    return backend


def random_csr(rng, rows, cols, nnz, dtype, index_dtype):
    r = rng.integers(0, rows, size=nnz)
    c = rng.integers(0, cols, size=nnz)
    matrix = sp.csr_matrix(
        (rng.standard_normal(nnz).astype(dtype), (r, c)), shape=(rows, cols))
    matrix.indices = matrix.indices.astype(index_dtype)
    matrix.indptr = matrix.indptr.astype(index_dtype)
    return matrix


class TestRegistry:
    def test_reports_installed(self):
        assert available_backends()["numba"] is True

    def test_num_threads_clamped_not_rejected(self):
        backend = make_backend("numba", num_threads=1)
        assert backend.num_threads == 1
        with pytest.raises(ValueError, match="num_threads"):
            NumbaBackend(num_threads=0)

    def test_env_thread_policy_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "1")
        assert NumbaBackend().num_threads == 1


class TestSpmmParity:
    @pytest.mark.parametrize("dtype", ELEM_DTYPES)
    @pytest.mark.parametrize("index_dtype", INDEX_DTYPES)
    def test_bitwise_random_matrix(self, numba_backend, dtype, index_dtype):
        rng = np.random.default_rng(0)
        matrix = random_csr(rng, 500, 300, 2500, dtype, index_dtype)
        dense = rng.standard_normal((300, 17)).astype(dtype)
        reference = NumpyBackend().spmm(matrix, dense)
        result = numba_backend.spmm(matrix, dense)
        assert result.dtype == reference.dtype
        np.testing.assert_array_equal(result, reference)

    @pytest.mark.parametrize("dtype", ELEM_DTYPES)
    def test_bitwise_matvec(self, numba_backend, dtype):
        rng = np.random.default_rng(1)
        matrix = random_csr(rng, 400, 400, 1600, dtype, np.int32)
        vector = rng.standard_normal(400).astype(dtype)
        np.testing.assert_array_equal(numba_backend.spmm(matrix, vector),
                                      NumpyBackend().spmm(matrix, vector))

    @pytest.mark.parametrize("index_dtype", INDEX_DTYPES)
    def test_bitwise_blocked_batch_operator(self, numba_backend, index_dtype):
        graphs = [attributed_community_graph(
            num_nodes=n, num_communities=2, avg_degree=5.0, mixing=0.2,
            num_attributes=6, rng=make_rng(s), name=f"nb{s}")
            for s, n in ((1, 50), (2, 120), (3, 33), (4, 80))]
        batch = GraphBatch(graphs)
        with policy(index_dtype=index_dtype):
            ops = graph_ops(batch)
        assert ops.norm_adj.block_offsets is not None
        dense = np.random.default_rng(6).standard_normal(
            (batch.num_nodes, 13))
        np.testing.assert_array_equal(
            numba_backend.spmm(ops.norm_adj, dense),
            NumpyBackend().spmm(ops.norm_adj, dense))

    def test_non_spanning_block_offsets_stay_correct(self, numba_backend):
        # A block annotation that does not cover every row (no in-tree
        # producer, but the attribute is just an attribute) must not
        # select the block kernel and silently zero the uncovered rows.
        rng = np.random.default_rng(20)
        matrix = random_csr(rng, 300, 300, 1500, np.float64, np.int32)
        dense = rng.standard_normal((300, 5))
        reference = NumpyBackend().spmm(matrix, dense)
        matrix.block_offsets = np.array([100, 200, 300], dtype=np.int64)
        np.testing.assert_array_equal(numba_backend.spmm(matrix, dense),
                                      reference)

    def test_spmm_gradient_bitwise(self, numba_backend):
        rng = np.random.default_rng(2)
        matrix = random_csr(rng, 200, 150, 1200, np.float64, np.int32)
        x_data = rng.standard_normal((150, 9))
        grads = {}
        for label, backend in (("numpy", NumpyBackend()),
                               ("numba", numba_backend)):
            with policy(backend=backend):
                x = Tensor(x_data.copy(), requires_grad=True)
                spmm(matrix, x).sum().backward()
                grads[label] = x.grad.copy()
        np.testing.assert_array_equal(grads["numpy"], grads["numba"])

    def test_mixed_dtype_falls_back(self, numba_backend):
        rng = np.random.default_rng(3)
        matrix = random_csr(rng, 100, 100, 500, np.float32, np.int32)
        dense = rng.standard_normal((100, 3))  # float64
        np.testing.assert_array_equal(numba_backend.spmm(matrix, dense),
                                      matrix @ dense)

    def test_shape_mismatch_raises_like_scipy(self, numba_backend):
        rng = np.random.default_rng(4)
        matrix = random_csr(rng, 50, 100, 400, np.float64, np.int32)
        with pytest.raises(ValueError):
            numba_backend.spmm(matrix, rng.standard_normal((60, 4)))

    def test_non_contiguous_dense_falls_back(self, numba_backend):
        rng = np.random.default_rng(5)
        matrix = random_csr(rng, 100, 100, 500, np.float64, np.int32)
        strided = rng.standard_normal((100, 10))[:, ::2]
        assert not strided.flags.c_contiguous
        np.testing.assert_array_equal(numba_backend.spmm(matrix, strided),
                                      matrix @ strided)


class TestEdgeOpParity:
    @pytest.mark.parametrize("dtype", ELEM_DTYPES)
    @pytest.mark.parametrize("index_dtype", INDEX_DTYPES)
    def test_gather_scatter_bitwise(self, numba_backend, dtype, index_dtype):
        rng = np.random.default_rng(7)
        reference = NumpyBackend()
        source = rng.standard_normal((40, 6)).astype(dtype)
        indices = rng.integers(0, 40, size=150).astype(index_dtype)
        np.testing.assert_array_equal(
            numba_backend.gather_rows(source, indices),
            reference.gather_rows(source, indices))
        flat = rng.standard_normal(40).astype(dtype)
        np.testing.assert_array_equal(
            numba_backend.gather_rows(flat, indices),
            reference.gather_rows(flat, indices))
        messages = rng.standard_normal((150, 6)).astype(dtype)
        np.testing.assert_array_equal(
            numba_backend.scatter_add_rows(messages, indices, 40),
            reference.scatter_add_rows(messages, indices, 40))
        np.testing.assert_array_equal(
            numba_backend.scatter_add_rows(messages[:, 0].copy(), indices, 40),
            reference.scatter_add_rows(messages[:, 0].copy(), indices, 40))

    @pytest.mark.parametrize("dtype", ELEM_DTYPES)
    @pytest.mark.parametrize("index_dtype", INDEX_DTYPES)
    def test_gather_scatter_gradients_bitwise(self, numba_backend, dtype,
                                              index_dtype):
        rng = np.random.default_rng(8)
        x_data = rng.standard_normal((30, 5)).astype(dtype)
        indices = rng.integers(0, 30, size=90).astype(index_dtype)
        grads = {}
        for label, backend in (("numpy", NumpyBackend()),
                               ("numba", numba_backend)):
            with policy(backend=backend):
                x = Tensor(x_data.copy(), requires_grad=True)
                gathered = x.take_rows(indices)
                F.scatter_add(gathered, indices, 30).sum().backward()
                grads[label] = x.grad.copy()
        np.testing.assert_array_equal(grads["numpy"], grads["numba"])

    def test_out_of_range_indices_raise_like_numpy(self, numba_backend):
        # The JIT kernels run unbounds-checked, so out-of-range indices
        # must route to the NumPy reference and raise its IndexError
        # rather than corrupt memory.
        rng = np.random.default_rng(21)
        source = rng.standard_normal((10, 3))
        bad = np.array([0, 5, 10], dtype=np.int32)   # 10 is out of range
        with pytest.raises(IndexError):
            numba_backend.gather_rows(source, bad)
        with pytest.raises(IndexError):
            numba_backend.scatter_add_rows(source[:3], bad, 10)
        with pytest.raises(IndexError):
            numba_backend.segment_softmax(source[:, 0].copy(), bad, 10)

    def test_length_mismatch_raises_like_numpy(self, numba_backend):
        # Paired-array length mismatches must also route to the NumPy
        # reference (np.add.at / np.maximum.at raise), never reach the
        # unchecked kernels.
        rng = np.random.default_rng(23)
        source = rng.standard_normal((3, 4))
        longer = np.array([0, 1, 2, 0, 1], dtype=np.int32)
        with pytest.raises(ValueError):
            numba_backend.scatter_add_rows(source, longer, 5)
        with pytest.raises(ValueError):
            numba_backend.segment_softmax(source[:, 0].copy(), longer, 5)

    def test_negative_indices_keep_numpy_semantics(self, numba_backend):
        rng = np.random.default_rng(22)
        source = rng.standard_normal((10, 3))
        negative = np.array([0, -1, 3], dtype=np.int32)
        np.testing.assert_array_equal(
            numba_backend.gather_rows(source, negative),
            NumpyBackend().gather_rows(source, negative))

    @pytest.mark.parametrize("dtype", ELEM_DTYPES)
    @pytest.mark.parametrize("index_dtype", INDEX_DTYPES)
    def test_segment_softmax_tolerance(self, numba_backend, dtype,
                                       index_dtype):
        rng = np.random.default_rng(9)
        scores = rng.standard_normal(200).astype(dtype)
        # Unsorted segments with an empty segment (id 0 unused).
        segments = rng.integers(1, 50, size=200).astype(index_dtype)
        reference = NumpyBackend().segment_softmax(scores, segments, 50)
        result = numba_backend.segment_softmax(scores, segments, 50)
        assert result.dtype == reference.dtype
        np.testing.assert_allclose(result, reference, rtol=softmax_tol(dtype),
                                   atol=0.0)
        sums = np.zeros(50, dtype=np.float64)
        np.add.at(sums, segments, result.astype(np.float64))
        np.testing.assert_allclose(sums[np.unique(segments)], 1.0,
                                   rtol=1e-5)

    @pytest.mark.parametrize("dtype", ELEM_DTYPES)
    def test_segment_softmax_gradient_tolerance(self, numba_backend, dtype):
        rng = np.random.default_rng(10)
        s_data = rng.standard_normal(120).astype(dtype)
        segments = rng.integers(0, 25, size=120).astype(np.int32)
        weights = rng.standard_normal(120).astype(dtype)
        grads = {}
        for label, backend in (("numpy", NumpyBackend()),
                               ("numba", numba_backend)):
            with policy(backend=backend):
                s = Tensor(s_data.copy(), requires_grad=True)
                out = F.segment_softmax(s, segments, 25)
                (out * Tensor(weights)).sum().backward()
                grads[label] = s.grad.copy()
        np.testing.assert_allclose(grads["numpy"], grads["numba"],
                                   rtol=0.0, atol=softmax_tol(dtype) * 10)


class TestModelParity:
    """Whole-model agreement on the paths the backend accelerates."""

    def _ragged_fixture(self, conv: str):
        graph = attributed_community_graph(
            num_nodes=100, num_communities=3, avg_degree=6.0, mixing=0.15,
            num_attributes=10, rng=make_rng(7), name="numba-fixture")
        sampler = TaskSampler(graph, subgraph_nodes=45, num_support=2,
                              num_query=3)
        small = TaskSampler(graph, subgraph_nodes=25, num_support=1,
                            num_query=2)
        tasks = sampler.sample_tasks(2, make_rng(1)) + \
            small.sample_tasks(1, make_rng(2))
        model = CGNP(tasks[0].features().shape[1],
                     CGNPConfig(hidden_dim=12, num_layers=2, conv=conv),
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

    def test_gcn_ragged_batch_bitwise(self, numba_backend):
        model, tasks = self._ragged_fixture("gcn")
        with policy(backend=NumpyBackend()):
            ref_loss, ref_grads = self._loss_and_grads(model, tasks)
        with policy(backend=numba_backend):
            nb_loss, nb_grads = self._loss_and_grads(model, tasks)
        np.testing.assert_array_equal(ref_loss, nb_loss)
        for ref, got in zip(ref_grads, nb_grads):
            np.testing.assert_array_equal(ref, got)

    @pytest.mark.parametrize("dtype", ELEM_DTYPES)
    @pytest.mark.parametrize("index_dtype", INDEX_DTYPES)
    def test_gat_ragged_batch_tolerance(self, numba_backend, dtype,
                                        index_dtype):
        with policy(dtype=dtype, index_dtype=index_dtype):
            model, tasks = self._ragged_fixture("gat")
            with policy(backend=NumpyBackend()):
                ref_loss, ref_grads = self._loss_and_grads(model, tasks)
            with policy(backend=numba_backend):
                nb_loss, nb_grads = self._loss_and_grads(model, tasks)
        tol = softmax_tol(dtype) * 100
        np.testing.assert_allclose(ref_loss, nb_loss, rtol=tol)
        assert len(ref_grads) == len(nb_grads)
        for ref, got in zip(ref_grads, nb_grads):
            np.testing.assert_allclose(ref, got, rtol=tol, atol=tol)

    def test_gat_edge_path_values(self, numba_backend):
        graph = attributed_community_graph(
            num_nodes=80, num_communities=2, avg_degree=6.0, mixing=0.2,
            num_attributes=8, rng=make_rng(11), name="gat-edge")
        ops = graph_ops(graph)
        layer = GATConv(8, 12, make_rng(12), num_heads=2)
        x = Tensor(make_rng(13).standard_normal((80, 8)))
        with policy(backend=NumpyBackend()):
            reference = layer.forward(x, ops).data.copy()
        with policy(backend=numba_backend):
            result = layer.forward(x, ops).data.copy()
        np.testing.assert_allclose(result, reference, rtol=1e-10, atol=1e-12)
