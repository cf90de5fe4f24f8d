"""The reference scatter-add: bitwise ``np.add.at``, on every input.

``NumpyBackend.scatter_add_rows`` computes a 2-D scatter as a CSR
product and everything else with ``np.add.at``.  Both add each output
row's sources from zero in edge order, so the results must match a
literal ``np.add.at`` bit for bit, including signed zeros, infinities
and NaN.  Malformed input must keep ``np.add.at``'s behaviour: these are
the semantics the numba backend falls back to, tested here without the
numba wheel.  The end-to-end check meta-trains GCN, GAT and SAGE CGNPs
with ``np.add.at`` and with the real backend and compares every trained
parameter bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CGNP, CGNPConfig, MetaTrainConfig, meta_train
from repro.nn import backend as backend_module
from repro.nn.backend import NumpyBackend, policy
from repro.utils import make_rng

ELEM_DTYPES = (np.float32, np.float64)
INDEX_DTYPES = (np.int32, np.int64)


def add_at_reference(source, indices, num_rows):
    out = np.zeros((num_rows,) + source.shape[1:], dtype=source.dtype)
    with np.errstate(invalid="ignore"):         # inf + -inf is NaN here
        np.add.at(out, indices, source)
    return out


def assert_bitwise_equal(result, expected):
    assert result.dtype == expected.dtype
    assert result.shape == expected.shape
    assert result.tobytes() == expected.tobytes()


class AddAtBackend(NumpyBackend):
    """The reference with every scatter on ``np.add.at``; records the
    number of dimensions of each scatter's source."""

    def __init__(self):
        self.source_ndims = []

    def scatter_add_rows(self, source, indices, num_rows):
        self.source_ndims.append(source.ndim)
        return add_at_reference(source, indices, num_rows)


@pytest.fixture
def csr_scatters(monkeypatch):
    """Counts the scatters that run as a CSR product."""
    calls = []
    real = backend_module._csr_scatter_add

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(backend_module, "_csr_scatter_add", counting)
    return calls


class TestBitwiseAgainstAddAt:
    @pytest.mark.parametrize("dtype", ELEM_DTYPES)
    @pytest.mark.parametrize("index_dtype", INDEX_DTYPES)
    @pytest.mark.parametrize("shape", [(400,), (400, 17)])
    def test_random_duplicates_and_empty_rows(self, dtype, index_dtype,
                                              shape):
        rng = np.random.default_rng(0)
        source = rng.standard_normal(shape).astype(dtype)
        # 400 edges into 300 rows: many duplicates, many empty rows.
        indices = rng.integers(0, 300, size=400).astype(index_dtype)
        indices[indices % 7 == 0] = 5            # one very hot row
        expected = add_at_reference(source, indices, 300)
        assert not expected[np.setdiff1d(np.arange(300), indices)].any()
        assert_bitwise_equal(
            NumpyBackend().scatter_add_rows(source, indices, 300), expected)

    def test_two_dimensional_source_takes_the_csr_path(self, csr_scatters):
        rng = np.random.default_rng(1)
        indices = rng.integers(0, 20, size=50).astype(np.int32)
        NumpyBackend().scatter_add_rows(rng.standard_normal((50, 4)),
                                        indices, 20)
        assert len(csr_scatters) == 1
        NumpyBackend().scatter_add_rows(rng.standard_normal(50), indices, 20)
        assert len(csr_scatters) == 1            # 1-D stays on np.add.at

    def test_without_scipy_kernels_falls_back_to_add_at(self, monkeypatch):
        monkeypatch.setattr(backend_module, "_csr_kernels", None)
        rng = np.random.default_rng(6)
        source = rng.standard_normal((60, 5))
        indices = rng.integers(0, 20, size=60).astype(np.int64)
        assert_bitwise_equal(
            NumpyBackend().scatter_add_rows(source, indices, 20),
            add_at_reference(source, indices, 20))

    @pytest.mark.parametrize("dtype", ELEM_DTYPES)
    @pytest.mark.parametrize("width", [0, 3])
    def test_no_edges(self, dtype, width):
        source = np.zeros((0, width), dtype=dtype)
        indices = np.zeros(0, dtype=np.int32)
        for num_rows in (0, 6):
            result = NumpyBackend().scatter_add_rows(source, indices,
                                                     num_rows)
            assert_bitwise_equal(
                result, add_at_reference(source, indices, num_rows))

    @pytest.mark.parametrize("dtype", ELEM_DTYPES)
    def test_signed_zeros_infinities_and_nan(self, dtype):
        values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.25],
                          dtype=dtype)
        rng = np.random.default_rng(2)
        source = rng.choice(values, size=(300, 5)).astype(dtype)
        source[:4] = -0.0                        # row 0 sums only -0.0
        indices = rng.integers(0, 40, size=300).astype(np.int32)
        indices[:4] = 0
        indices[4:] = np.where(indices[4:] == 0, 1, indices[4:])
        expected = add_at_reference(source, indices, 40)
        result = NumpyBackend().scatter_add_rows(source, indices, 40)
        assert_bitwise_equal(result, expected)
        assert np.isnan(result).any() and np.isinf(result).any()
        assert not np.signbit(result[0]).any()   # 0.0 + -0.0 is +0.0

    @pytest.mark.parametrize("layout", ["strided", "fortran"])
    def test_non_contiguous_source(self, layout):
        rng = np.random.default_rng(3)
        wide = rng.standard_normal((120, 16))
        source = (wide[:, ::3] if layout == "strided"
                  else np.asfortranarray(wide))
        assert not source.flags.c_contiguous
        indices = rng.integers(0, 30, size=120).astype(np.int64)
        assert_bitwise_equal(
            NumpyBackend().scatter_add_rows(source, indices, 30),
            add_at_reference(source, indices, 30))

    def test_threaded_backend_inherits_the_path(self):
        from repro.nn.backend import ThreadedBackend

        rng = np.random.default_rng(4)
        source = rng.standard_normal((200, 8))
        indices = rng.integers(0, 50, size=200).astype(np.int32)
        assert_bitwise_equal(
            ThreadedBackend(num_threads=2).scatter_add_rows(source, indices,
                                                            50),
            add_at_reference(source, indices, 50))


class TestMalformedInputKeepsAddAtSemantics:
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_out_of_range_index_raises_index_error(self, ndim):
        source = np.ones((3, 2) if ndim == 2 else 3)
        bad = np.array([0, 5, 10], dtype=np.int32)     # 10 >= num_rows
        with pytest.raises(IndexError):
            NumpyBackend().scatter_add_rows(source, bad, 10)

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_negative_index_wraps_around(self, ndim):
        rng = np.random.default_rng(5)
        source = rng.standard_normal((4, 3) if ndim == 2 else 4)
        negative = np.array([0, -1, 3, -10], dtype=np.int32)
        result = NumpyBackend().scatter_add_rows(source, negative, 10)
        assert_bitwise_equal(result,
                             add_at_reference(source, negative, 10))
        np.testing.assert_array_equal(result[9], source[1])
        np.testing.assert_array_equal(result[0], source[0] + source[3])

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_length_mismatch_raises_value_error(self, ndim):
        source = np.ones((3, 4) if ndim == 2 else 3)
        longer = np.array([0, 1, 2, 0, 1], dtype=np.int32)
        with pytest.raises(ValueError):
            NumpyBackend().scatter_add_rows(source, longer, 5)


@pytest.mark.parametrize("conv", ["gcn", "gat", "sage"])
def test_meta_training_bitwise_equal_to_add_at(conv, tiny_tasks):
    """Trained parameters are identical with np.add.at and with the
    reference backend, for every encoder."""
    train, _ = tiny_tasks
    in_dim = train[0].features().shape[1]
    config = CGNPConfig(hidden_dim=8, num_layers=2, conv=conv, dropout=0.0)
    schedule = MetaTrainConfig(epochs=3, learning_rate=5e-3,
                               task_batch_size=2)
    reference = AddAtBackend()
    trained = {}
    for label, backend in (("add.at", reference), ("numpy", NumpyBackend())):
        with policy(backend=backend):
            model = CGNP(in_dim, config, make_rng(11))
            meta_train(model, train, schedule, make_rng(12))
        trained[label] = model.state_dict()
    assert 2 in reference.source_ndims          # the CSR path was exercised
    assert trained["add.at"].keys() == trained["numpy"].keys()
    for name, value in trained["add.at"].items():
        assert_bitwise_equal(trained["numpy"][name], value)
