"""Numba JIT kernels for the sparse message-passing hot loops.

This module is imported **lazily** by
:class:`~repro.nn.backend.NumbaBackend` and must never be imported by the
default code path: the top-level ``import numba`` is exactly the gate
that keeps the stock NumPy backend dependency-free.  When the numba
wheel is absent, importing this module raises ``ImportError`` and
``make_backend("numba")`` turns that into a clear install hint.

Kernel design
-------------
Every kernel is a plain loop nest over preallocated arrays — all
allocation, dtype resolution and shape validation stays in
:class:`~repro.nn.backend.NumbaBackend`, so each function here compiles
to a tight, branch-free loop and specialises automatically per
``(element dtype, index dtype)`` signature: float32/float64 elements and
int32/int64 CSR / edge indices each get their own compiled variant,
which is what keeps the backend honest about the process precision and
index policies.

Numerics are deliberately bit-compatible with the NumPy reference
backend wherever the reference order of operations can be reproduced:

* ``spmm_rows`` / ``spmm_vec`` / ``spmm_blocks`` accumulate each output
  row over the CSR nonzeros in index order — the same order as SciPy's
  ``csr_matvec(s)`` kernels — and numba does not contract the
  multiply-add into an FMA (no ``fastmath``), so outputs are **bitwise
  identical** to ``NumpyBackend``.  Rows (or whole collation blocks,
  for ``GraphBatch`` operators carrying ``block_offsets``) are
  independent, so they parallelise with ``prange`` without changing
  results.
* ``spmm_bias_act_rows`` / ``spmm_bias_act_blocks`` / ``bias_act_2d``
  fuse the bias-add + activation epilogue into the row loop (one output
  pass instead of three array walks).  The accumulation, bias add and
  relu branches are **bitwise identical** to the unfused reference; the
  elu branch uses ``exp`` and is float-tolerance like
  ``segment_softmax``.
* ``gather_rows_*`` copies rows — exact by construction.
* ``scatter_add_*`` starts each output row from zero and accumulates
  in edge order, as the reference does (a CSR product for 2-D sources,
  ``np.add.at`` otherwise) — bitwise identical, hence **serial** (a
  parallel scatter would need atomics and lose the deterministic
  order).
* ``segment_softmax`` fuses the max / exp / normalise passes into one
  kernel.  The accumulation order matches the NumPy path, but numba's
  ``exp`` may differ from NumPy's by an ulp, so this one op is
  float-tolerance (≤1e-12 relative at float64), not bitwise — the same
  concession the docs make for any fused transcendental kernel.

Warm-up / JIT-cache semantics: ``cache=True`` persists compiled machine
code in ``__pycache__``, so the one-time compilation cost (seconds) is
paid once per machine per signature, not once per process.
:func:`warmup` compiles every kernel for one ``(elem, index)`` signature
pair eagerly; benchmarks call it to separate cold-JIT from warm timings.
"""

from __future__ import annotations

import numpy as np
from numba import njit, prange

import numba

__all__ = [
    "spmm_rows",
    "spmm_blocks",
    "spmm_vec",
    "spmm_bias_act_rows",
    "spmm_bias_act_blocks",
    "bias_act_2d",
    "gather_rows_1d",
    "gather_rows_2d",
    "scatter_add_1d",
    "scatter_add_2d",
    "segment_softmax",
    "set_num_threads",
    "max_threads",
    "current_threads",
    "warmup",
]


def max_threads() -> int:
    """The hard thread ceiling numba was launched with."""
    return int(numba.config.NUMBA_NUM_THREADS)


def current_threads() -> int:
    """The thread count ``prange`` kernels actually run with right now.

    Distinct from :func:`max_threads`: the count is process-global and a
    previous ``set_num_threads`` call (from any backend instance) may
    have lowered it below the launch ceiling.
    """
    return int(numba.get_num_threads())


def set_num_threads(num_threads: int) -> int:
    """Clamp ``num_threads`` to numba's launch ceiling and install it.

    Numba's thread count is process-global (it sizes the one shared
    threading layer), so this affects every ``prange`` kernel, not just
    the calling backend instance.  Returns the installed count.
    """
    installed = max(1, min(int(num_threads), max_threads()))
    numba.set_num_threads(installed)
    return installed


# ---------------------------------------------------------------------------
# CSR spmm — forward and (via the pre-transposed operator) backward
# ---------------------------------------------------------------------------
@njit(parallel=True, cache=True)
def spmm_rows(indptr, indices, data, dense, out):  # pragma: no cover - JIT
    """``out[i, :] += sum_j A[i, j] * dense[j, :]`` over CSR rows.

    Accumulates over the row's nonzeros in index order (SciPy's order),
    parallel over the independent rows.  ``out`` must be zeroed.
    """
    rows = out.shape[0]
    width = dense.shape[1]
    for i in prange(rows):
        for jj in range(indptr[i], indptr[i + 1]):
            value = data[jj]
            column = indices[jj]
            for k in range(width):
                out[i, k] += value * dense[column, k]


@njit(parallel=True, cache=True)
def spmm_blocks(indptr, indices, data, dense, block_offsets, out):  # pragma: no cover - JIT
    """Block-aware spmm for ``stack_csr`` collations.

    Parallelises over the collation blocks instead of raw rows, keeping
    each member graph's rows — and its column working set — on one
    thread (the same locality argument as ``ThreadedBackend``'s
    block-aligned cuts).  Per-row arithmetic is identical to
    :func:`spmm_rows`.
    """
    blocks = block_offsets.shape[0] - 1
    width = dense.shape[1]
    for b in prange(blocks):
        for i in range(block_offsets[b], block_offsets[b + 1]):
            for jj in range(indptr[i], indptr[i + 1]):
                value = data[jj]
                column = indices[jj]
                for k in range(width):
                    out[i, k] += value * dense[column, k]


@njit(inline="always", cache=True)
def _epilogue_row(out, i, bias, has_bias, act_code):  # pragma: no cover - JIT
    """Bias + activation applied to ``out[i, :]`` while it is cache-hot.

    ``act_code``: 0 none, 1 relu, 2 elu.  The relu branch reproduces
    ``np.maximum(v, 0.0)`` bitwise (including -0.0 -> +0.0 and NaN
    propagation); elu matches ``where(v > 0, v, exp(min(v, 0)) - 1)`` up
    to the transcendental's ulps.
    """
    width = out.shape[1]
    if has_bias:
        for k in range(width):
            out[i, k] += bias[k]
    if act_code == 1:
        for k in range(width):
            v = out[i, k]
            if not v > 0.0:
                if v == v:              # NaN stays, like np.maximum
                    out[i, k] = 0.0
    elif act_code == 2:
        for k in range(width):
            v = out[i, k]
            if not v > 0.0:
                out[i, k] = np.exp(np.minimum(v, 0.0)) - 1.0


@njit(parallel=True, cache=True)
def spmm_bias_act_rows(indptr, indices, data, dense, bias, has_bias,
                       act_code, out):  # pragma: no cover - JIT
    """Fused ``act(A @ dense + bias)`` over CSR rows — one output pass.

    Per-row accumulation is identical to :func:`spmm_rows`; the epilogue
    runs on each row before the loop advances, so the output array is
    walked once instead of three times.  ``out`` must be zeroed.
    """
    rows = out.shape[0]
    width = dense.shape[1]
    for i in prange(rows):
        for jj in range(indptr[i], indptr[i + 1]):
            value = data[jj]
            column = indices[jj]
            for k in range(width):
                out[i, k] += value * dense[column, k]
        _epilogue_row(out, i, bias, has_bias, act_code)


@njit(parallel=True, cache=True)
def spmm_bias_act_blocks(indptr, indices, data, dense, block_offsets, bias,
                         has_bias, act_code, out):  # pragma: no cover - JIT
    """Fused spmm epilogue, parallel over ``stack_csr`` collation blocks
    (same locality argument as :func:`spmm_blocks`)."""
    blocks = block_offsets.shape[0] - 1
    width = dense.shape[1]
    for b in prange(blocks):
        for i in range(block_offsets[b], block_offsets[b + 1]):
            for jj in range(indptr[i], indptr[i + 1]):
                value = data[jj]
                column = indices[jj]
                for k in range(width):
                    out[i, k] += value * dense[column, k]
            _epilogue_row(out, i, bias, has_bias, act_code)


@njit(parallel=True, cache=True)
def bias_act_2d(x, bias, has_bias, act_code, out):  # pragma: no cover - JIT
    """Fused elementwise ``act(x + bias)`` into a preallocated ``out``.

    The dense-layer epilogue (GAT head combination, SAGE linear mix):
    one read of ``x`` and one write of ``out`` instead of two
    intermediate arrays.  Same numerics contract as
    :func:`_epilogue_row`.
    """
    rows, width = x.shape
    for i in prange(rows):
        for k in range(width):
            v = x[i, k]
            if has_bias:
                v = v + bias[k]
            if act_code == 1:
                if not v > 0.0:
                    if v == v:
                        v = 0.0
            elif act_code == 2:
                if not v > 0.0:
                    v = np.exp(np.minimum(v, 0.0)) - 1.0
            out[i, k] = v


@njit(parallel=True, cache=True)
def spmm_vec(indptr, indices, data, dense, out):  # pragma: no cover - JIT
    """CSR matrix @ 1-D vector, same ordering contract as :func:`spmm_rows`."""
    rows = out.shape[0]
    for i in prange(rows):
        total = out[i]
        for jj in range(indptr[i], indptr[i + 1]):
            total += data[jj] * dense[indices[jj]]
        out[i] = total


# ---------------------------------------------------------------------------
# Gather / scatter — the GAT edge path's bookkeeping ops
# ---------------------------------------------------------------------------
@njit(parallel=True, cache=True)
def gather_rows_2d(source, indices, out):  # pragma: no cover - JIT
    """``out[e, :] = source[indices[e], :]`` (row gather, exact)."""
    count = indices.shape[0]
    width = source.shape[1]
    for e in prange(count):
        row = indices[e]
        for k in range(width):
            out[e, k] = source[row, k]


@njit(parallel=True, cache=True)
def gather_rows_1d(source, indices, out):  # pragma: no cover - JIT
    for e in prange(indices.shape[0]):
        out[e] = source[indices[e]]


@njit(cache=True)
def scatter_add_2d(source, indices, out):  # pragma: no cover - JIT
    """``out[indices[e], :] += source[e, :]`` in edge order.

    Serial on purpose: matching the reference's edge-order
    accumulation is what makes the output bitwise identical to the
    NumPy backend.
    """
    count = indices.shape[0]
    width = source.shape[1]
    for e in range(count):
        row = indices[e]
        for k in range(width):
            out[row, k] += source[e, k]


@njit(cache=True)
def scatter_add_1d(source, indices, out):  # pragma: no cover - JIT
    for e in range(indices.shape[0]):
        out[indices[e]] += source[e]


# ---------------------------------------------------------------------------
# Fused segment softmax — GAT's attention normalisation
# ---------------------------------------------------------------------------
@njit(cache=True)
def segment_softmax(scores, segments, seg_max, denom, eps, out):  # pragma: no cover - JIT
    """Per-segment stable softmax, fused max / exp / normalise.

    ``seg_max`` must arrive filled with ``-inf`` and ``denom`` zeroed;
    ``eps`` is the denominator guard at the scores' own dtype.  The
    NumPy path makes three full numpy round-trips (maximum.at, exp +
    add.at, divide); this kernel streams the edges three times with no
    intermediate allocations, which is where the speedup comes from.
    """
    count = scores.shape[0]
    for e in range(count):
        s = segments[e]
        if scores[e] > seg_max[s]:
            seg_max[s] = scores[e]
    for s in range(seg_max.shape[0]):
        if not np.isfinite(seg_max[s]):
            seg_max[s] = 0.0
    for e in range(count):
        value = np.exp(scores[e] - seg_max[segments[e]])
        out[e] = value
        denom[segments[e]] += value
    for e in range(count):
        out[e] = out[e] / (denom[segments[e]] + eps)


def warmup(elem_dtype=np.float64, index_dtype=np.int64) -> None:
    """Compile every kernel for one ``(elem, index)`` signature pair.

    With ``cache=True`` the compiled code persists on disk, so after the
    first process this is a cache load (milliseconds), not a compile
    (seconds).  Benchmarks call it to split cold-JIT from warm timings.
    """
    elem = np.dtype(elem_dtype)
    index = np.dtype(index_dtype)
    indptr = np.array([0, 1, 2], dtype=index)
    indices = np.array([0, 1], dtype=index)
    data = np.ones(2, dtype=elem)
    dense = np.ones((2, 2), dtype=elem)
    out = np.zeros((2, 2), dtype=elem)
    spmm_rows(indptr, indices, data, dense, out)
    spmm_blocks(indptr, indices, data, dense,
                np.array([0, 1, 2], dtype=np.int64), out)
    spmm_vec(indptr, indices, data, dense[:, 0].copy(), out[:, 0].copy())
    bias = np.zeros(2, dtype=elem)
    spmm_bias_act_rows(indptr, indices, data, dense, bias, True, 1,
                       np.zeros((2, 2), dtype=elem))
    spmm_bias_act_blocks(indptr, indices, data, dense,
                         np.array([0, 1, 2], dtype=np.int64), bias, True, 1,
                         np.zeros((2, 2), dtype=elem))
    bias_act_2d(dense, bias, True, 2, np.zeros((2, 2), dtype=elem))
    edge = np.array([0, 1], dtype=index)
    gather_rows_2d(dense, edge, out)
    gather_rows_1d(dense[:, 0].copy(), edge, np.zeros(2, dtype=elem))
    scatter_add_2d(dense, edge, out)
    scatter_add_1d(dense[:, 0].copy(), edge, np.zeros(2, dtype=elem))
    segment_softmax(data, edge, np.full(2, -np.inf, dtype=elem),
                    np.zeros(2, dtype=elem), elem.type(1e-16),
                    np.zeros(2, dtype=elem))
