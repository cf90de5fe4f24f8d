"""Per-shard message-passing operators: keys, slices, invalidation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnn import graph_shard_ops
from repro.gnn.conv import GRAPH_OPS_KEY, graph_ops
from repro.graph import Graph, ShardedGraph
from repro.nn.backend import policy, resolve_dtype, resolve_index_dtype
from repro.utils import make_rng


def _pair(num_shards=3, n=50, d=8, seed=1):
    rng = make_rng(seed)
    edges = rng.integers(0, n, size=(n * 3, 2))
    attrs = rng.standard_normal((n, d))
    dense = Graph(n, edges, attributes=attrs)
    sharded = ShardedGraph(n, edges, attributes=attrs, num_shards=num_shards)
    return dense, sharded


class TestCacheKeys:
    def test_shard_suffixed_keys_materialise(self):
        _, sharded = _pair()
        ops = graph_shard_ops(sharded)
        ops[0].norm_adj  # touch one family
        elem = resolve_dtype().name
        index = resolve_index_dtype().name
        cache = sharded.__dict__["_ops_cache"]
        for i in range(sharded.num_shards):
            assert f"{GRAPH_OPS_KEY}.{elem}.{index}.shard{i}" in cache

    def test_memoised_across_calls(self):
        _, sharded = _pair()
        first = graph_shard_ops(sharded)
        second = graph_shard_ops(sharded)
        assert all(a is b for a, b in zip(first, second))

    def test_rejects_dense_graph(self):
        dense, _ = _pair()
        with pytest.raises(TypeError):
            graph_shard_ops(dense)

    def test_family_invalidation_rebuilds(self):
        _, sharded = _pair()
        stale = graph_shard_ops(sharded)
        sharded.invalidate_cached_ops(GRAPH_OPS_KEY)
        fresh = graph_shard_ops(sharded)
        assert all(a is not b for a, b in zip(stale, fresh))


class TestOperatorSlices:
    @pytest.mark.parametrize("index_dtype", ["int32", "int64"])
    @pytest.mark.parametrize("family", ["norm_adj", "row_norm_adj"])
    def test_compacted_slice_matches_dense_operator(self, index_dtype,
                                                    family):
        """Shard ``i``'s operator is exactly rows ``lo:hi`` of the dense
        operator restricted to the halo columns — same values, same
        per-row term order, requested index width."""
        with policy(dtype="float32", index_dtype=index_dtype):
            dense, sharded = _pair(num_shards=4)
            dense_op = getattr(graph_ops(dense), family)
            for i, ops in enumerate(graph_shard_ops(sharded)):
                block = getattr(ops, family)
                assert block.indices.dtype == np.dtype(index_dtype)
                assert block.shape == (ops.num_rows, ops.halo.size)
                reference = dense_op[ops.row_start:ops.row_stop][:, ops.halo]
                assert np.array_equal(block.toarray(), reference.toarray())

    def test_edge_family_preserves_destination_order(self):
        """Per-destination edge order must match the dense edge list —
        that ordering is what makes segment reductions bitwise."""
        dense, sharded = _pair(num_shards=3)
        dense_ops = graph_ops(dense)
        src, dst = dense_ops.edge_src, dense_ops.edge_dst
        for ops in graph_shard_ops(sharded):
            mask = (dst >= ops.row_start) & (dst < ops.row_stop)
            assert np.array_equal(ops.edge_src, src[mask])
            assert np.array_equal(ops.edge_dst_local,
                                  dst[mask] - ops.row_start)

    def test_halo_rows_resolve_globally(self):
        """Gathering the halo rows of a global matrix then applying the
        compacted operator equals the dense product rows — the gather
        contract every streaming forward relies on."""
        with policy(dtype="float64"):
            dense, sharded = _pair(num_shards=5)
            x = make_rng(9).standard_normal((dense.num_nodes, 6))
            full = graph_ops(dense).norm_adj @ x
            for ops in graph_shard_ops(sharded):
                block = ops.norm_adj @ x[ops.halo]
                assert np.array_equal(block,
                                      full[ops.row_start:ops.row_stop])

    def test_single_shard_covers_everything(self):
        dense, sharded = _pair(num_shards=1)
        (ops,) = graph_shard_ops(sharded)
        assert ops.row_start == 0 and ops.row_stop == dense.num_nodes
        assert np.array_equal(ops.halo, np.arange(dense.num_nodes))
