"""ShardedGraph container: storage, halos, bounds, lifecycle."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.graph import Graph, ShardedGraph, graph_memory_profile
from repro.nn.backend import policy, resolve_dtype
from repro.utils import make_rng


def _fixture_arrays(n=60, d=12, seed=0):
    rng = make_rng(seed)
    edges = rng.integers(0, n, size=(n * 3, 2))
    attrs = rng.standard_normal((n, d))
    return edges, attrs


def _make_pair(tmp_dir=None, n=60, d=12, num_shards=3, seed=0):
    edges, attrs = _fixture_arrays(n, d, seed)
    dense = Graph(n, edges, attributes=attrs)
    sharded = ShardedGraph(n, edges, attributes=attrs,
                           num_shards=num_shards,
                           memmap_dir=None if tmp_dir is None else str(tmp_dir))
    return dense, sharded


class TestFeatureStorage:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("index_dtype", ["int32", "int64"])
    def test_memmap_roundtrip(self, tmp_path, dtype, index_dtype):
        """Features written through the memmap read back bitwise at
        every element/index-width combination."""
        with policy(dtype=dtype, index_dtype=index_dtype):
            dense, sharded = _make_pair(tmp_path)
            assert sharded.feature_storage == "memmap"
            assert isinstance(sharded.attributes, np.memmap)
            assert sharded.attributes.dtype == resolve_dtype()
            assert np.array_equal(np.asarray(sharded.attributes),
                                  dense.attributes)
            # The backing file itself round-trips: reopen independently.
            sharded.flush()
            path = sharded.attributes.filename
            reopened = np.memmap(path, mode="r", dtype=resolve_dtype(),
                                 shape=sharded.attributes.shape)
            assert np.array_equal(np.asarray(reopened), dense.attributes)
            del reopened
            sharded.close()

    def test_in_memory_fallback(self):
        dense, sharded = _make_pair(tmp_dir=None)
        assert sharded.feature_storage == "memory"
        assert not isinstance(sharded.attributes, np.memmap)
        assert np.array_equal(sharded.attributes, dense.attributes)

    def test_callable_attributes_fill_in_chunks(self, tmp_path):
        edges, attrs = _fixture_arrays()
        attrs = attrs.astype(resolve_dtype())
        sharded = ShardedGraph(
            60, edges, attributes=lambda lo, hi: attrs[lo:hi],
            num_shards=4, memmap_dir=str(tmp_path), attribute_dim=12)
        assert np.array_equal(np.asarray(sharded.attributes), attrs)
        sharded.close()

    def test_callable_attributes_require_dim(self, tmp_path):
        edges, attrs = _fixture_arrays()
        with pytest.raises(ValueError):
            ShardedGraph(60, edges, attributes=lambda lo, hi: attrs[lo:hi],
                         num_shards=2, memmap_dir=str(tmp_path))

    def test_close_releases_files(self, tmp_path):
        """After close() every backing file is deletable — the Windows
        contract, where an open memmap handle blocks unlink."""
        _, sharded = _make_pair(tmp_path)
        sharded.buffer("scratch", (10, 4), np.float32)
        files = os.listdir(str(tmp_path))
        assert files, "memmap storage created no files"
        sharded.close()
        assert sharded.attributes is None
        for name in files:
            os.unlink(os.path.join(str(tmp_path), name))
        sharded.close()  # idempotent
        with pytest.raises(RuntimeError):
            sharded.buffer("late", (4, 4), np.float32)

    def test_context_manager_closes(self, tmp_path):
        edges, attrs = _fixture_arrays()
        with ShardedGraph(60, edges, attributes=attrs, num_shards=2,
                          memmap_dir=str(tmp_path)) as sharded:
            assert sharded.feature_storage == "memmap"
        assert sharded.attributes is None

    def test_buffer_memoised(self, tmp_path):
        _, sharded = _make_pair(tmp_path)
        first = sharded.buffer("b", (8, 3), np.float32)
        assert sharded.buffer("b", (8, 3), np.float32) is first
        assert isinstance(first, np.memmap)
        other = sharded.buffer("b", (9, 3), np.float32)
        assert other is not first
        sharded.close()


class TestPartitioning:
    def test_shard_bounds_cover_node_range(self):
        _, sharded = _make_pair(num_shards=7)
        bounds = sharded.shard_bounds
        assert bounds[0] == 0 and bounds[-1] == sharded.num_nodes
        assert np.all(np.diff(bounds) >= 1)
        covered = np.concatenate([np.arange(*sharded.shard_range(i))
                                  for i in range(sharded.num_shards)])
        assert np.array_equal(covered, np.arange(sharded.num_nodes))

    def test_shard_count_clamped_and_validated(self):
        edges, attrs = _fixture_arrays()
        clamped = ShardedGraph(60, edges, attributes=attrs, num_shards=200)
        assert clamped.num_shards == 60
        with pytest.raises(ValueError):
            ShardedGraph(60, edges, attributes=attrs, num_shards=0)

    def test_halo_contains_rows_and_in_neighbours(self):
        _, sharded = _make_pair(num_shards=4)
        indptr = sharded.adjacency.indptr
        indices = sharded.adjacency.indices
        for i in range(sharded.num_shards):
            lo, hi = sharded.shard_range(i)
            halo = sharded.halo(i)
            assert np.array_equal(halo, np.unique(halo))  # sorted unique
            assert np.isin(np.arange(lo, hi), halo).all()
            support = np.unique(indices[indptr[lo]:indptr[hi]])
            assert np.isin(support, halo).all()

    def test_multi_hop_halo_grows(self):
        _, sharded = _make_pair(num_shards=6)
        one = sharded.halo(0, hops=1)
        two = sharded.halo(0, hops=2)
        assert np.isin(one, two).all()
        assert sharded.halo(0, hops=2) is two  # memoised


class TestConversionAndProfile:
    def test_from_graph_preserves_structure(self, tmp_path):
        dense, _ = _make_pair()
        dense_with_comms = Graph(dense.num_nodes, dense._edges,
                                 attributes=dense.attributes,
                                 communities=[[0, 1, 2], [3, 4]],
                                 name="orig")
        sharded = ShardedGraph.from_graph(dense_with_comms, 3,
                                          memmap_dir=str(tmp_path))
        assert sharded.num_shards == 3
        assert sharded.name == "orig"
        assert (sharded.adjacency != dense_with_comms.adjacency).nnz == 0
        assert np.array_equal(np.asarray(sharded.attributes),
                              dense_with_comms.attributes)
        assert sharded.communities == dense_with_comms.communities
        sharded.close()

    def test_graph_memory_profile(self, tmp_path):
        dense, sharded = _make_pair(tmp_path, num_shards=4)
        dense_bytes, dense_shards = graph_memory_profile(dense)
        shard_bytes, shard_count = graph_memory_profile(sharded)
        assert dense_shards == 1
        assert shard_count == 4
        assert dense_bytes >= dense.attributes.nbytes
        # The point of the exercise: memmap sharding bounds resident
        # feature bytes by the widest halo, not the full matrix.
        assert shard_bytes < dense_bytes
        sharded.close()


class TestInvalidation:
    def test_family_prefix_invalidation_drops_shard_keys(self):
        """Invalidating any prefix of the family also drops every
        shard-suffixed variant — the documented cache-key contract."""
        _, sharded = _make_pair()
        for key in ("gnn.message_passing.float32.int32",
                    "gnn.message_passing.float32.int32.shard0",
                    "gnn.message_passing.float32.int32.shard1"):
            sharded.cached_ops(key, lambda g: object())
        sharded.invalidate_cached_ops("gnn.message_passing.float32.int32")
        assert not sharded.__dict__.get("_ops_cache")
        for key in ("gnn.message_passing.float64.int64",
                    "gnn.message_passing.float64.int64.shard2"):
            sharded.cached_ops(key, lambda g: object())
        sharded.invalidate_cached_ops("gnn.message_passing")
        assert not sharded.__dict__.get("_ops_cache")

    def test_set_attributes_drops_cached_ops(self):
        dense, _ = _make_pair()
        sentinel = dense.cached_ops("gnn.message_passing.float32.int32",
                                    lambda g: object())
        new_attrs = np.ones((dense.num_nodes, 5))
        dense.set_attributes(new_attrs)
        assert dense.attributes.shape == (dense.num_nodes, 5)
        rebuilt = dense.cached_ops("gnn.message_passing.float32.int32",
                                   lambda g: object())
        assert rebuilt is not sentinel

    def test_set_attributes_validates_rows(self):
        dense, _ = _make_pair()
        with pytest.raises(ValueError):
            dense.set_attributes(np.ones((3, 2)))

    def test_sharded_set_attributes_reinitialises_storage(self, tmp_path):
        _, sharded = _make_pair(tmp_path)
        rng = make_rng(5)
        replacement = rng.standard_normal((sharded.num_nodes, 12))
        sharded.set_attributes(replacement)
        assert sharded.feature_storage == "memmap"
        assert np.array_equal(
            np.asarray(sharded.attributes),
            replacement.astype(resolve_dtype()))
        sharded.close()
