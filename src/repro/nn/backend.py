"""The numeric and serving policy, and the pluggable array backend.

This module is the single source of truth for the process-wide choices
that used to be hardwired all over the stack.  They live together in one
frozen :class:`Policy`:

* ``dtype`` — **which element width to compute in.**  The CGNP hot path
  (spmm and dense matmul) is memory-bandwidth-bound, so halving the
  element width is a direct throughput win.  Every layer that creates
  arrays — tensors, initialisers, normalised adjacencies, feature
  matrices — resolves its dtype through :func:`resolve_dtype` instead of
  naming ``np.float64``.  The default is ``float64`` (so the
  numeric-equivalence test suite stays exact).

* ``index_dtype`` — **which index width sparse structure uses.**  Edge
  lists, CSR ``indices``/``indptr`` and gather/scatter/segment index
  arrays never need to address more than 2^31 nodes in this repository,
  so they default to ``int32`` — halving the index bandwidth of every
  sparse op.  :func:`resolve_index_dtype` is the one call every
  index-creating site makes.  Index width never changes computed
  *values*, only the width of the bookkeeping arrays, so switching it is
  always numerically safe.

* ``backend`` — **which array library executes the dense/sparse
  kernels.**  The :class:`ArrayBackend` protocol gathers the operations
  the autograd engine actually dispatches — dense matmul, sparse-dense
  matmul, the gather / scatter-add / segment-softmax edge ops of the GAT
  path, array creation, RNG construction — behind one object.  The
  default :class:`NumpyBackend` runs on NumPy + SciPy;
  :class:`ThreadedBackend` partitions spmm row ranges across a reusable
  thread pool (SciPy's CSR kernels release the GIL, so the partitions
  genuinely run in parallel on multi-core machines); :class:`NumbaBackend`
  JIT-compiles the spmm and edge-path hot loops
  (:mod:`repro.nn.kernels_numba`, imported lazily so the default install
  never needs the numba wheel).  The field takes a registered name
  (``"numpy"``, ``"threaded"``, ``"numba"``) or an instance;
  :func:`available_backends` maps every registered name to whether its
  dependencies are installed, so callers can probe optional backends
  without try/except.

* ``context_storage`` — the width the serving engine caches context
  matrices at (``full`` or a narrower float/int8 width).  It sits in the
  same policy because it is read per engine from the same process
  settings and scopes as the others (:func:`resolve_context_storage`).

* ``fused`` — whether eval-mode, no-grad forwards may run the fused
  ``spmm → bias → activation`` kernels (:func:`fused_inference_enabled`).

:meth:`Policy.from_env` builds the process policy once, at import, from
``REPRO_DTYPE``, ``REPRO_INDEX_DTYPE``, ``REPRO_BACKEND`` (sized by
``REPRO_NUM_THREADS``), ``REPRO_CONTEXT_STORAGE`` and ``REPRO_FUSED``.
:func:`set_policy` replaces it for every thread; ``with policy(...):``
overrides named fields for the calling thread only, while the fields it
does not name keep following the process policy.  The hot path reads
the effective values through :func:`get_backend`, :func:`default_dtype`,
:func:`default_index_dtype`, :func:`default_context_storage` and
:func:`fused_inference_enabled` — each one thread-local read.

Cache-key convention
--------------------
Derived operators whose values depend on the element *or* index width
are memoised under ``(op, elem_dtype, index_dtype)`` keys spelled
``"<op>.<elem-name>.<index-name>"`` (e.g.
``"gnn.message_passing.float32.int32"``) in each graph's
:class:`~repro.graph.graph.OpsCache`.  ``invalidate_cached_ops("<op>")``
drops every dtype variant of the family at once.

>>> with policy(dtype="float32"):
...     resolve_dtype().name
'float32'
>>> resolve_index_dtype("int64").name
'int64'
>>> with policy(backend="threaded"):
...     get_backend().name
'threaded'
>>> with policy(fused=False):
...     fused_inference_enabled()
False
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterator, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

try:  # SciPy's raw CSR kernels (the same ones ``A @ X`` dispatches to).
    from scipy.sparse import _sparsetools as _csr_kernels
except ImportError:  # pragma: no cover - exercised only on exotic SciPy
    _csr_kernels = None

__all__ = [
    "SUPPORTED_DTYPES",
    "SUPPORTED_INDEX_DTYPES",
    "SUPPORTED_CONTEXT_STORAGE",
    "FUSED_ACTIVATIONS",
    "Policy",
    "policy",
    "set_policy",
    "get_policy",
    "get_backend",
    "default_dtype",
    "default_index_dtype",
    "default_context_storage",
    "fused_inference_enabled",
    "resolve_dtype",
    "resolve_index_dtype",
    "resolve_context_storage",
    "index_dtype_for",
    "as_index_array",
    "ArrayBackend",
    "NumpyBackend",
    "ThreadedBackend",
    "NumbaBackend",
    "available_backends",
    "backend_names",
    "register_backend",
    "make_backend",
]

#: The element widths the stack supports end to end.
SUPPORTED_DTYPES = ("float32", "float64")

#: The index widths sparse structure supports end to end.
SUPPORTED_INDEX_DTYPES = ("int32", "int64")

#: The widths the serving engine may keep cached context matrices at.
#: ``full`` stores them at the compute dtype; the narrower widths halve
#: (or quarter) the resident bytes and dequantise back to the compute
#: dtype on every decode.
SUPPORTED_CONTEXT_STORAGE = ("full", "float32", "float16", "int8")

#: The activation epilogues the fused kernels understand.  ``relu`` is
#: bitwise against ``np.maximum(x, 0.0)``; ``elu`` matches
#: :func:`repro.nn.functional.elu` exactly on the numpy path and to
#: ≤1e-12 relative on JIT paths (transcendental ulps).
FUSED_ACTIVATIONS = (None, "relu", "elu")

DTypeLike = Union[str, type, np.dtype]


def _canonical_dtype(dtype: DTypeLike) -> np.dtype:
    """Validate and normalise ``dtype`` to a numpy dtype object."""
    try:
        resolved = np.dtype(dtype)
    except TypeError as exc:
        # np.dtype raises TypeError for unparseable names (e.g. "fp32");
        # normalise to the same ValueError the not-supported branch uses.
        raise ValueError(
            f"unsupported precision {dtype!r}; choose from "
            f"{SUPPORTED_DTYPES}") from exc
    if resolved.name not in SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported precision {resolved.name!r}; choose from "
            f"{SUPPORTED_DTYPES}")
    return resolved


def _canonical_index_dtype(dtype: DTypeLike) -> np.dtype:
    """Validate and normalise an index ``dtype`` to a numpy dtype object."""
    try:
        resolved = np.dtype(dtype)
    except TypeError as exc:
        raise ValueError(
            f"unsupported index dtype {dtype!r}; choose from "
            f"{SUPPORTED_INDEX_DTYPES}") from exc
    if resolved.name not in SUPPORTED_INDEX_DTYPES:
        raise ValueError(
            f"unsupported index dtype {resolved.name!r}; choose from "
            f"{SUPPORTED_INDEX_DTYPES}")
    return resolved


def _canonical_context_storage(value: str) -> str:
    """Validate and normalise a context-storage policy name."""
    key = str(value).strip().lower()
    if key not in SUPPORTED_CONTEXT_STORAGE:
        raise ValueError(
            f"unsupported context storage {value!r}; choose from "
            f"{SUPPORTED_CONTEXT_STORAGE}")
    return key


def _canonical_fused(value) -> bool:
    """A fused-inference switch: a bool, or a word ``REPRO_FUSED`` takes."""
    if not isinstance(value, str):
        return bool(value)
    key = value.strip().lower()
    if key in ("1", "true", "on", "yes"):
        return True
    if key in ("0", "false", "off", "no"):
        return False
    raise ValueError(
        f"unsupported fused setting {value!r} (use 1/0, on/off, true/false)")


def _canonical_backend(backend: Union[str, "ArrayBackend"]) -> "ArrayBackend":
    """A backend instance, built fresh from a registered name."""
    if isinstance(backend, str):
        return make_backend(backend)
    if not isinstance(backend, ArrayBackend):
        raise TypeError(
            f"expected an ArrayBackend or a registered backend name, got "
            f"{type(backend).__name__}")
    return backend


@dataclasses.dataclass(frozen=True)
class Policy:
    """The process-wide numeric and serving settings, as one value.

    ``dtype`` is the element width arrays are created at, ``index_dtype``
    the width of sparse structure and gather/scatter indices,
    ``backend`` the :class:`ArrayBackend` kernels dispatch through,
    ``context_storage`` the width the serving engine caches contexts at
    and ``fused`` whether inference may use the fused kernels.  Every
    field is validated and normalised on construction: dtype names
    become numpy dtypes and a backend name becomes a fresh instance.

    >>> p = Policy(dtype="float32", index_dtype="int64", backend="numpy",
    ...            context_storage="int8", fused=False)
    >>> (p.dtype.name, p.index_dtype.name, p.backend.name,
    ...  p.context_storage, p.fused)
    ('float32', 'int64', 'numpy', 'int8', False)
    >>> Policy.from_env().dtype == np.dtype(os.environ.get("REPRO_DTYPE",
    ...                                                    "float64"))
    True
    """

    dtype: np.dtype
    index_dtype: np.dtype
    backend: "ArrayBackend"
    context_storage: str
    fused: bool

    def __post_init__(self):
        for field, canonical in _CANONICAL.items():
            object.__setattr__(self, field, canonical(getattr(self, field)))

    @classmethod
    def from_env(cls) -> "Policy":
        """The policy the ``REPRO_*`` environment variables describe.

        Unset variables take the defaults float64 / int32 / numpy / full
        / on.  A bad value raises ``ValueError`` naming its variable.  A
        ``REPRO_BACKEND`` whose optional dependency is missing raises
        ``ImportError`` instead of silently running on numpy, so a
        serving fleet never loses its JIT without noticing.
        """
        values = {}
        for field, (variable, default) in _ENV_VARIABLES.items():
            value = os.environ.get(variable, default)
            try:
                # The backend name is only looked up here; building it
                # comes after, so a REPRO_NUM_THREADS error names its
                # own variable.
                values[field] = (_backend_factory(value) if field == "backend"
                                 else _CANONICAL[field](value))
            except ValueError as exc:
                raise ValueError(
                    f"invalid {variable} environment variable: {exc}") from exc
        try:
            values["backend"] = values["backend"]()
        except ImportError as exc:
            name = os.environ.get("REPRO_BACKEND")
            raise ImportError(
                f"REPRO_BACKEND={name} needs an optional dependency ({exc}); "
                f"install it, or unset REPRO_BACKEND to use the default "
                f"numpy backend") from exc
        return cls(**values)


#: Each field's validator; it also normalises values given to
#: :func:`set_policy` and :func:`policy`.
_CANONICAL: Dict[str, Callable] = {
    "dtype": _canonical_dtype,
    "index_dtype": _canonical_index_dtype,
    "backend": _canonical_backend,
    "context_storage": _canonical_context_storage,
    "fused": _canonical_fused,
}

#: Each field's environment variable and its default.
_ENV_VARIABLES = {
    "dtype": ("REPRO_DTYPE", "float64"),
    "index_dtype": ("REPRO_INDEX_DTYPE", "int32"),
    "backend": ("REPRO_BACKEND", "numpy"),
    "context_storage": ("REPRO_CONTEXT_STORAGE", "full"),
    "fused": ("REPRO_FUSED", "1"),
}


def _canonical_overrides(overrides) -> Dict[str, object]:
    """``overrides`` validated; ``None`` values mean "leave as is"."""
    unknown = sorted(set(overrides) - set(_CANONICAL))
    if unknown:
        raise TypeError(f"unknown policy field(s) {unknown}; choose from "
                        f"{tuple(_CANONICAL)}")
    return {field: _CANONICAL[field](value)
            for field, value in overrides.items() if value is not None}


#: The fields one ``policy(...)`` scope overrides; ``None`` follows the
#: process policy.
_Overrides = collections.namedtuple(
    "_Overrides", tuple(_CANONICAL), defaults=(None,) * len(_CANONICAL))


class _ScopeState(threading.local):
    """The calling thread's innermost ``policy(...)`` overrides."""

    overrides = _Overrides()


_SCOPE = _ScopeState()
_SET_LOCK = threading.Lock()


def get_policy() -> Policy:
    """The process-wide policy, as :func:`set_policy` last left it.

    Scoped overrides are per-thread and not part of it; the hot-path
    readers (:func:`get_backend`, :func:`default_dtype`, ...) return the
    values in effect for the calling thread.
    """
    return _PROCESS_POLICY


def set_policy(base: Optional[Policy] = None, **overrides) -> Policy:
    """Replace the process-wide policy (all threads) and return the old one.

    The new policy is ``base`` (default: the current process policy)
    with ``overrides`` applied, so ``set_policy(dtype="float32")``
    changes one field and ``set_policy(saved)`` restores a policy saved
    earlier.  Prefer the scoped ``with policy(...):`` form; this exists
    for process entry points (CLI, benchmarks, test harnesses).
    """
    global _PROCESS_POLICY
    changes = _canonical_overrides(overrides)
    with _SET_LOCK:
        previous = _PROCESS_POLICY
        _PROCESS_POLICY = dataclasses.replace(
            previous if base is None else base, **changes)
    return previous


@contextlib.contextmanager
def policy(**overrides) -> Iterator[None]:
    """Scoped override of the named fields: ``with policy(dtype="float32"):``.

    The scope holds for the calling thread until it exits, also on an
    exception, and other threads never see it.  Fields it does not name
    (or passes as ``None``) keep following the enclosing scope and, past
    every scope, the process policy — including a later
    :func:`set_policy` from any thread.

    >>> with policy(index_dtype="int64"):
    ...     with policy(dtype="float32"):
    ...         (resolve_dtype().name, resolve_index_dtype().name)
    ('float32', 'int64')
    """
    state = _SCOPE
    outer = state.overrides
    state.overrides = outer._replace(**_canonical_overrides(overrides))
    try:
        yield
    finally:
        state.overrides = outer


def get_backend() -> "ArrayBackend":
    """The active backend (innermost ``policy(backend=...)`` scope wins,
    falling back to the process policy)."""
    backend = _SCOPE.overrides.backend
    return _PROCESS_POLICY.backend if backend is None else backend


def default_dtype() -> np.dtype:
    """The ambient element dtype (innermost ``policy(dtype=...)`` scope
    wins, falling back to the process policy)."""
    dtype = _SCOPE.overrides.dtype
    return _PROCESS_POLICY.dtype if dtype is None else dtype


def default_index_dtype() -> np.dtype:
    """The ambient index dtype (innermost ``policy(index_dtype=...)``
    scope wins, falling back to the process policy)."""
    dtype = _SCOPE.overrides.index_dtype
    return _PROCESS_POLICY.index_dtype if dtype is None else dtype


def default_context_storage() -> str:
    """The ambient context-storage width (innermost
    ``policy(context_storage=...)`` scope wins, falling back to the
    process policy)."""
    storage = _SCOPE.overrides.context_storage
    return _PROCESS_POLICY.context_storage if storage is None else storage


def fused_inference_enabled() -> bool:
    """Whether the fused inference kernels are enabled right now.

    This is a *policy*, not a capability probe: the encoder additionally
    requires eval mode and gradients off before it dispatches the fused
    path, so training numerics are never affected by this switch.

    >>> with policy(fused=True):
    ...     fused_inference_enabled()
    True
    >>> with policy(fused=False):
    ...     fused_inference_enabled()
    False
    """
    fused = _SCOPE.overrides.fused
    return _PROCESS_POLICY.fused if fused is None else fused


def resolve_context_storage(storage: Optional[str] = None) -> str:
    """``storage`` normalised, or the ambient policy when ``None``.

    The one call every context-caching site makes (the serving engine,
    its ``from_bundle`` constructor and the CLI), mirroring
    :func:`resolve_dtype` for element widths.

    >>> with policy(context_storage="float16"):
    ...     resolve_context_storage()
    'float16'
    >>> resolve_context_storage("int8")
    'int8'
    """
    if storage is None:
        return default_context_storage()
    return _canonical_context_storage(storage)


def resolve_dtype(dtype: Optional[DTypeLike] = None) -> np.dtype:
    """``dtype`` normalised, or the ambient policy dtype when ``None``.

    This is the one call every array-creating site in the stack makes
    instead of hardcoding an element width.
    """
    if dtype is None:
        return default_dtype()
    return _canonical_dtype(dtype)


def resolve_index_dtype(dtype: Optional[DTypeLike] = None) -> np.dtype:
    """``dtype`` normalised, or the ambient index dtype when ``None``.

    The one call every index-creating site (edge lists, CSR structure,
    gather/scatter/segment indices) makes instead of naming ``np.int64``.

    >>> with policy(index_dtype="int32"):
    ...     resolve_index_dtype().name
    'int32'
    >>> resolve_index_dtype("int64") is np.dtype(np.int64)
    True
    """
    if dtype is None:
        return default_index_dtype()
    return _canonical_index_dtype(dtype)


def index_dtype_for(max_value: int,
                    dtype: Optional[DTypeLike] = None) -> np.dtype:
    """The resolved index dtype, widened to int64 when ``max_value``
    genuinely overflows it — correctness beats bandwidth.

    Every site that narrows an int64-staged index array (edge lists,
    batch offsets, validated query ids) routes through this so the
    overflow guard lives in exactly one place.

    >>> with policy(index_dtype="int32"):
    ...     (index_dtype_for(100).name, index_dtype_for(2 ** 40).name)
    ('int32', 'int64')
    """
    resolved = resolve_index_dtype(dtype)
    if max_value > np.iinfo(resolved).max:
        return np.dtype(np.int64)
    return resolved


def as_index_array(indices) -> np.ndarray:
    """``indices`` as an integer array at the ambient index policy width.

    Arrays that are already integral pass through unchanged — they were
    materialised under some policy, and re-casting per call would waste
    the bandwidth the policy saves.  The gather (``Tensor.take_rows``)
    and scatter/segment (``repro.nn.functional``) paths share this
    coercion so they can never diverge.
    """
    if isinstance(indices, np.ndarray) and np.issubdtype(indices.dtype,
                                                         np.integer):
        return indices
    return np.asarray(indices, dtype=resolve_index_dtype())


def _check_act(act: Optional[str]) -> None:
    if act not in FUSED_ACTIVATIONS:
        raise ValueError(
            f"unsupported fused activation {act!r}; choose from "
            f"{FUSED_ACTIVATIONS}")


def _apply_act_inplace(out: np.ndarray, act: Optional[str]) -> None:
    """Apply a fused activation epilogue to an array the caller owns.

    ``relu`` is ``np.maximum(x, 0.0)`` (bitwise against ``Tensor.relu``);
    ``elu`` is the exact alpha=1 formula of
    :func:`repro.nn.functional.elu` — ``where(x > 0, x, exp(min(x, 0)) -
    1)`` — so the fused and unfused encoder forwards agree bitwise on
    the numpy path.
    """
    if act == "relu":
        np.maximum(out, 0.0, out=out)
    elif act == "elu":
        np.copyto(out, np.where(out > 0,
                                out, np.exp(np.minimum(out, 0.0)) - 1.0))


def _apply_bias_act_inplace(out: np.ndarray, bias: Optional[np.ndarray],
                            act: Optional[str]) -> None:
    """Bias-add then activation, mutating ``out`` (a freshly-computed
    product the caller owns — never a caller-visible input)."""
    _check_act(act)
    if bias is not None:
        out += bias
    _apply_act_inplace(out, act)


class ArrayBackend:
    """Protocol for the dense/sparse kernels the autograd engine dispatches.

    The base class documents the surface; :class:`NumpyBackend` is the
    reference implementation and :class:`ThreadedBackend` the parallel
    one.  An alternative backend subclasses this, overrides the kernels
    it accelerates, and is installed via ``set_policy(backend=...)``
    (process-wide) or ``with policy(backend=...)`` (scoped).  All methods
    take and return numpy-compatible arrays so backends can be swapped
    without touching the layers above.  See ``docs/backends.md`` for a
    walkthrough of writing one.

    >>> class NegatingBackend(NumpyBackend):
    ...     name = "negating"
    ...     def matmul(self, a, b):
    ...         return -np.matmul(a, b)
    >>> with policy(backend=NegatingBackend()):
    ...     float(get_backend().matmul(np.eye(2), np.eye(2))[0, 0])
    -1.0
    """

    #: Human-readable backend identifier (recorded in provenance).
    name = "abstract"

    # -- array creation -------------------------------------------------
    def asarray(self, data, dtype: Optional[DTypeLike] = None) -> np.ndarray:
        raise NotImplementedError

    def zeros(self, shape, dtype: Optional[DTypeLike] = None) -> np.ndarray:
        raise NotImplementedError

    def ones(self, shape, dtype: Optional[DTypeLike] = None) -> np.ndarray:
        raise NotImplementedError

    def full(self, shape, value, dtype: Optional[DTypeLike] = None) -> np.ndarray:
        raise NotImplementedError

    # -- dense kernels --------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dense (possibly batched) matrix product."""
        raise NotImplementedError

    def bias_act(self, x: np.ndarray, bias: Optional[np.ndarray] = None,
                 act: Optional[str] = None) -> np.ndarray:
        """Fused ``act(x + bias)`` epilogue (one elementwise pass).

        ``bias`` broadcasts over rows (or is ``None``); ``act`` is one of
        :data:`FUSED_ACTIVATIONS`.  The input is never mutated.  Numerics
        contract: bitwise-identical to the unfused ``x + bias`` followed
        by the reference activation on the numpy path; JIT backends may
        differ on the ``elu`` transcendental by ulps (≤1e-12 relative).
        Serves the inference-mode epilogue of layers whose main kernel is
        dense (GAT's head combination, SAGE's linear mix).
        """
        raise NotImplementedError

    # -- sparse kernels -------------------------------------------------
    def spmm(self, matrix: sp.spmatrix, dense: np.ndarray) -> np.ndarray:
        """Sparse @ dense product; ``matrix`` is a constant operator."""
        raise NotImplementedError

    def spmm_bias_act(self, matrix: sp.spmatrix, dense: np.ndarray,
                      bias: Optional[np.ndarray] = None,
                      act: Optional[str] = None) -> np.ndarray:
        """Fused ``act(matrix @ dense + bias)`` — one pass over the CSR.

        The serving hot path of the GCN layer: the unfused form walks the
        output array three times (spmm accumulate, bias add, activation);
        backends fuse the bias/activation epilogue into the row loop (or
        its chunk epilogue) so each output row is touched once while it
        is still cache-hot.  Same numerics contract as :meth:`bias_act`:
        ``relu`` and the bias add are bitwise against the unfused
        reference, ``elu`` is exact on numpy and ≤1e-12 relative on JIT
        backends.  ``act=None, bias=None`` degrades to :meth:`spmm`.
        """
        raise NotImplementedError

    def to_operator(self, matrix: sp.spmatrix,
                    dtype: Optional[DTypeLike] = None,
                    index_dtype: Optional[DTypeLike] = None) -> sp.csr_matrix:
        """Canonicalise a sparse matrix into this backend's operator form
        (CSR at the resolved element *and* index dtypes), copying only
        when necessary."""
        raise NotImplementedError

    # -- edge-path kernels (gather / scatter / segment softmax) ---------
    def gather_rows(self, source: np.ndarray,
                    indices: np.ndarray) -> np.ndarray:
        """``source[indices]`` — row gather along axis 0 (exact)."""
        raise NotImplementedError

    def scatter_add_rows(self, source: np.ndarray, indices: np.ndarray,
                         num_rows: int) -> np.ndarray:
        """Rows of ``source`` summed into ``num_rows`` output rows:
        ``out[indices[e]] += source[e]``, each output row starting from
        zero and accumulating **in edge order** (increasing ``e``) so
        backends agree bitwise.  The reference computes a 2-D scatter as
        a CSR product and anything else with ``np.add.at``; both add in
        that order.  Out-of-range indices raise ``IndexError``, negative
        ones wrap around as in NumPy indexing, and a length mismatch
        between ``indices`` and ``source`` raises ``ValueError``."""
        raise NotImplementedError

    def segment_softmax(self, scores: np.ndarray, segments: np.ndarray,
                        num_segments: int) -> np.ndarray:
        """Stable softmax of 1-D ``scores`` normalised within each
        segment: per-segment max subtraction, exp, per-segment sum (in
        edge order) and a ``1e-16`` denominator guard at the scores'
        dtype.  Backends may fuse the passes; only the transcendental may
        differ (by ulps), never the accumulation order."""
        raise NotImplementedError

    # -- randomness -----------------------------------------------------
    def rng(self, seed: int) -> np.random.Generator:
        """A fresh seeded generator for parameter init / sampling."""
        raise NotImplementedError


class NumpyBackend(ArrayBackend):
    """The default backend: NumPy dense kernels + SciPy sparse kernels."""

    name = "numpy"

    def asarray(self, data, dtype: Optional[DTypeLike] = None) -> np.ndarray:
        return np.asarray(data, dtype=resolve_dtype(dtype))

    def zeros(self, shape, dtype: Optional[DTypeLike] = None) -> np.ndarray:
        return np.zeros(shape, dtype=resolve_dtype(dtype))

    def ones(self, shape, dtype: Optional[DTypeLike] = None) -> np.ndarray:
        return np.ones(shape, dtype=resolve_dtype(dtype))

    def full(self, shape, value, dtype: Optional[DTypeLike] = None) -> np.ndarray:
        return np.full(shape, value, dtype=resolve_dtype(dtype))

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.matmul(a, b)

    def bias_act(self, x: np.ndarray, bias: Optional[np.ndarray] = None,
                 act: Optional[str] = None) -> np.ndarray:
        _check_act(act)
        if bias is not None:
            x = x + bias                   # fresh array; finish in place
            _apply_act_inplace(x, act)
            return x
        if act == "relu":
            return np.maximum(x, 0.0)
        if act == "elu":
            return np.where(x > 0, x, np.exp(np.minimum(x, 0.0)) - 1.0)
        return x

    def spmm(self, matrix: sp.spmatrix, dense: np.ndarray) -> np.ndarray:
        return matrix @ dense

    def spmm_bias_act(self, matrix: sp.spmatrix, dense: np.ndarray,
                      bias: Optional[np.ndarray] = None,
                      act: Optional[str] = None) -> np.ndarray:
        out = matrix @ dense               # fresh array; epilogue in place
        _apply_bias_act_inplace(out, bias, act)
        return out

    def to_operator(self, matrix: sp.spmatrix,
                    dtype: Optional[DTypeLike] = None,
                    index_dtype: Optional[DTypeLike] = None) -> sp.csr_matrix:
        target = resolve_dtype(dtype)
        operator = matrix if sp.isspmatrix_csr(matrix) else matrix.tocsr()
        if operator.dtype != target:
            operator = operator.astype(target)
        return _canonicalise_operator_indices(
            operator, resolve_index_dtype(index_dtype))

    def gather_rows(self, source: np.ndarray,
                    indices: np.ndarray) -> np.ndarray:
        return source[indices]

    def scatter_add_rows(self, source: np.ndarray, indices: np.ndarray,
                         num_rows: int) -> np.ndarray:
        if (_csr_kernels is not None and source.ndim == 2
                and source.dtype in _SCATTER_DTYPES
                and isinstance(indices, np.ndarray) and indices.ndim == 1
                and indices.dtype in _SCATTER_INDEX_DTYPES
                and indices.shape[0] == source.shape[0]
                and _indices_in_range(indices, num_rows)):
            return _csr_scatter_add(source, indices, num_rows)
        # 1-D sources (np.add.at is fast there) and malformed input,
        # which keeps np.add.at's errors and negative-index wrap-around.
        out = np.zeros((num_rows,) + source.shape[1:], dtype=source.dtype)
        np.add.at(out, indices, source)
        return out

    def segment_softmax(self, scores: np.ndarray, segments: np.ndarray,
                        num_segments: int) -> np.ndarray:
        seg_max = np.full(num_segments, -np.inf, dtype=scores.dtype)
        np.maximum.at(seg_max, segments, scores)
        seg_max[~np.isfinite(seg_max)] = 0.0
        exp = np.exp(scores - seg_max[segments])
        denom = np.zeros(num_segments, dtype=scores.dtype)
        np.add.at(denom, segments, exp)
        return exp / (denom + scores.dtype.type(1e-16))[segments]

    def rng(self, seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)


def _indices_in_range(indices: np.ndarray, limit: int) -> bool:
    """Whether every index lies in ``[0, limit)``.

    Selects the fast scatter paths: the reference's CSR scatter and the
    unchecked JIT kernels take only in-range indices, so anything else
    goes through ``np.add.at`` (and NumPy indexing) — which either raises
    the proper ``IndexError`` or applies NumPy's negative-index
    semantics, the same on every backend.  The cost is two O(E)
    reductions (min, then max) per call, a minor fraction of the O(E)
    passes over feature width they protect, so no validation cache.
    """
    if indices.size == 0:
        return True
    return bool(indices.min() >= 0) and bool(indices.max() < limit)


#: Dtypes of the CSR scatter path, as dtype objects: comparing them is
#: ~20x cheaper than ``dtype.name``, which matters on small scatters.
_SCATTER_DTYPES = tuple(np.dtype(name) for name in SUPPORTED_DTYPES)
_SCATTER_INDEX_DTYPES = tuple(np.dtype(name)
                              for name in SUPPORTED_INDEX_DTYPES)
_INT32_MAX = np.iinfo(np.int32).max


def _csr_scatter_add(source: np.ndarray, indices: np.ndarray,
                     num_rows: int) -> np.ndarray:
    """``S @ source`` with ``S[indices[e], e] = 1``: a 2-D row scatter-add
    as one CSR product, bitwise equal to ``np.add.at`` and roughly 10x
    faster on an 18k-edge, 64-wide GAT scatter (≈15 ms → 1.3–2 ms).

    SciPy's ``coo_tocsr`` keeps each row's entries in input order, so row
    ``r`` lists its edges in increasing ``e``; ``csr_matvecs`` adds them
    into a zeroed row in that order, and ``1.0 * x`` is exact.  These are
    the kernels ``csr_matrix(...) @ source`` runs; calling them directly
    skips SciPy's per-call construction and validation (≈80 µs), which
    made a 500 × 32 serving scatter slower than ``np.add.at``.  The
    operator is built per call: batches are re-collated every step, so a
    cached one would rarely be reused.  ``indices`` must lie in
    ``[0, num_rows)`` and match ``source`` in length.
    """
    edges, width = source.shape
    index_dtype = (indices.dtype if max(num_rows, edges) <= _INT32_MAX
                   else np.dtype(np.int64))
    indptr = np.empty(num_rows + 1, dtype=index_dtype)
    columns = np.empty(edges, dtype=index_dtype)
    ones = np.ones(edges, dtype=source.dtype)
    _csr_kernels.coo_tocsr(num_rows, edges, edges,
                           indices.astype(index_dtype, copy=False),
                           np.arange(edges, dtype=index_dtype), ones,
                           indptr, columns, np.empty_like(ones))
    out = np.zeros((num_rows, width), dtype=source.dtype)
    # Every entry is 1, so ``ones`` already is the row-ordered data array.
    _csr_kernels.csr_matvecs(num_rows, edges, width, indptr, columns, ones,
                             np.ascontiguousarray(source).reshape(-1),
                             out.reshape(-1))
    return out


def _canonicalise_operator_indices(operator: sp.csr_matrix,
                                   index_dtype: np.dtype) -> sp.csr_matrix:
    """CSR with ``indices``/``indptr`` at ``index_dtype``, sharing data.

    Falls back to int64 when the matrix genuinely needs it (shape or nnz
    beyond the int32 range) — correctness beats bandwidth.  Never mutates
    the input: a fresh container shares the data array and casts only the
    structure arrays that differ.
    """
    index_dtype = index_dtype_for(max(max(operator.shape), operator.nnz),
                                  index_dtype)
    if (operator.indices.dtype == index_dtype
            and operator.indptr.dtype == index_dtype):
        return operator
    recast = sp.csr_matrix(operator.shape, dtype=operator.dtype)
    recast.data = operator.data
    recast.indices = operator.indices.astype(index_dtype, copy=False)
    recast.indptr = operator.indptr.astype(index_dtype, copy=False)
    block_offsets = getattr(operator, "block_offsets", None)
    if block_offsets is not None:
        recast.block_offsets = block_offsets
    return recast


class ThreadedBackend(NumpyBackend):
    """Row-partitioned spmm over a reusable thread pool.

    ``spmm`` splits the CSR row range into ``num_threads`` chunks —
    aligned to block boundaries when the operator came from a
    block-diagonal :func:`~repro.graph.batch.stack_csr` collation
    (``block_offsets`` attribute), nnz-balanced even row splits
    otherwise — and runs SciPy's own CSR kernel on each chunk directly
    into a shared output.  The kernels release the GIL, so chunks execute
    in parallel on multi-core machines; per-row arithmetic is the exact
    scipy kernel in the exact same order, so outputs are **bitwise
    identical** to :class:`NumpyBackend` at any thread count.

    Below ``serial_rows`` rows the partitioning overhead outweighs the
    win and ``spmm`` runs the kernel serially (still skipping SciPy's
    per-call dispatch/validation); above it the chunk count is capped at
    ``rows // serial_rows`` so every chunk amortises its dispatch, even
    when ``num_threads`` is large.  Everything else (dense matmul, array
    creation, RNG) is inherited from :class:`NumpyBackend`.

    Parameters
    ----------
    num_threads:
        Worker count; default ``REPRO_NUM_THREADS`` or ``os.cpu_count()``.
    serial_rows:
        Minimum rows per chunk before a thread is worth dispatching.
        The default is measured, not guessed: a
        ``ThreadPoolExecutor`` submit+result round trip costs ≈11 µs on
        this stack while ``scipy``'s ``csr_matvecs`` kernel retires a
        degree-8, width-128 row in ≈0.97 µs (float64) / ≈0.55 µs
        (float32) — see ``benchmarks/BENCH_threaded.json`` and the
        ``bench-multicore`` CI artifacts.  Requiring each chunk to
        amortise its dispatch ≈8x puts the crossover at ≈360 rows
        (float64) to ≈650 rows (float32); 512 splits the difference.
        The old default of 2048 left common serving operators
        (≤2000-node task graphs) permanently single-threaded.

    >>> rng = np.random.default_rng(0)
    >>> operator = sp.csr_matrix((rng.random((64, 64)) < 0.2)
    ...                          * rng.standard_normal((64, 64)))
    >>> dense = rng.standard_normal((64, 8))
    >>> backend = ThreadedBackend(num_threads=4)
    >>> bool(np.array_equal(backend.spmm(operator, dense),
    ...                     NumpyBackend().spmm(operator, dense)))
    True
    """

    name = "threaded"

    def __init__(self, num_threads: Optional[int] = None,
                 serial_rows: int = 512):
        if num_threads is None:
            num_threads = _env_num_threads() or os.cpu_count() or 1
        if num_threads < 1:
            raise ValueError(f"num_threads must be >= 1, got {num_threads}")
        self.num_threads = int(num_threads)
        self.serial_rows = int(serial_rows)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    # -- pool lifecycle -------------------------------------------------
    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            with self._pool_lock:
                if self._pool is None:
                    # The submitting thread always computes one chunk
                    # itself, so the pool needs one fewer worker.
                    self._pool = ThreadPoolExecutor(
                        max_workers=max(self.num_threads - 1, 1),
                        thread_name_prefix="repro-spmm")
        return self._pool

    def shutdown(self) -> None:
        """Tear down the worker pool (it is rebuilt lazily on next use)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    # -- the partitioned kernel -----------------------------------------
    @staticmethod
    def _kernel_rows(matrix: sp.csr_matrix, dense: np.ndarray,
                     out: np.ndarray, lo: int, hi: int) -> None:
        """Rows ``[lo, hi)`` of ``matrix @ dense`` into ``out[lo:hi]``.

        ``indptr[lo:hi+1]`` holds *absolute* offsets into the full
        ``indices``/``data`` arrays, which is exactly what the kernel
        indexes with — so a row-range call needs no copy of the operator.
        ``out`` must be zero-initialised (the kernels accumulate).
        """
        indptr = matrix.indptr[lo:hi + 1]
        if dense.ndim == 1:
            _csr_kernels.csr_matvec(
                hi - lo, matrix.shape[1], indptr, matrix.indices,
                matrix.data, dense, out[lo:hi])
        else:
            _csr_kernels.csr_matvecs(
                hi - lo, matrix.shape[1], dense.shape[1], indptr,
                matrix.indices, matrix.data, dense.reshape(-1),
                out[lo:hi].reshape(-1))

    def _row_bounds(self, matrix: sp.csr_matrix, chunks: int) -> np.ndarray:
        """Chunk boundaries balancing nnz across ``chunks`` chunks.

        Block-diagonal operators carry their collation offsets
        (``block_offsets``); cutting only at block boundaries keeps each
        member graph's rows on one thread, which preserves cache locality
        of the member's column range.  Other operators cut wherever the
        nnz prefix crosses each balance target.
        """
        rows = matrix.shape[0]
        nnz = int(matrix.indptr[-1])
        targets = (np.arange(1, chunks, dtype=np.int64) * nnz) // chunks
        blocks = getattr(matrix, "block_offsets", None)
        if blocks is not None and len(blocks) > 2:
            candidates = np.asarray(blocks, dtype=np.int64)
            prefix = matrix.indptr[candidates].astype(np.int64)
            cuts = candidates[np.searchsorted(prefix, targets)]
        else:
            cuts = np.searchsorted(matrix.indptr, targets).astype(np.int64)
        return np.unique(np.concatenate([[0], cuts, [rows]]))

    def _chunk_count(self, rows: int) -> int:
        """How many chunks ``rows`` rows justify.

        Capped at ``rows // serial_rows`` so each dispatched chunk keeps
        at least ``serial_rows`` rows — the measured ≈8x amortisation of
        the pool's ≈11 µs submit round trip (see the class docstring) —
        rather than letting a high thread count shred a mid-sized
        operator into dispatch-dominated slivers.
        """
        return min(self.num_threads, rows // self.serial_rows)

    def _spmm_supported(self, matrix, dense: np.ndarray) -> bool:
        return not (_csr_kernels is None
                    or getattr(matrix, "format", None) != "csr"
                    or matrix.dtype != dense.dtype
                    or matrix.indices.dtype != matrix.indptr.dtype
                    or dense.ndim not in (1, 2)
                    or matrix.shape[1] != dense.shape[0]
                    or not dense.flags.c_contiguous)

    def spmm(self, matrix: sp.spmatrix, dense: np.ndarray) -> np.ndarray:
        rows = matrix.shape[0]
        if not self._spmm_supported(matrix, dense):
            # Anything the raw kernels can't take verbatim goes through
            # scipy's own dispatch (which handles upcasts, layouts, and
            # raises the dimension-mismatch error for bad shapes — the
            # raw kernels would read out of bounds instead).
            return matrix @ dense
        out = np.zeros((rows,) + dense.shape[1:], dtype=dense.dtype)
        chunks = self._chunk_count(rows)
        if chunks <= 1:
            self._kernel_rows(matrix, dense, out, 0, rows)
            return out
        bounds = self._row_bounds(matrix, chunks)
        if len(bounds) < 3:
            self._kernel_rows(matrix, dense, out, 0, rows)
            return out
        pool = self._executor()
        futures = [pool.submit(self._kernel_rows, matrix, dense, out,
                               int(lo), int(hi))
                   for lo, hi in zip(bounds[:-2], bounds[1:-1])]
        # The caller computes the last chunk itself instead of idling.
        self._kernel_rows(matrix, dense, out, int(bounds[-2]), int(bounds[-1]))
        for future in futures:
            future.result()
        return out

    def _fused_rows(self, matrix: sp.csr_matrix, dense: np.ndarray,
                    out: np.ndarray, lo: int, hi: int,
                    bias: Optional[np.ndarray], act: Optional[str]) -> None:
        """One chunk of the fused kernel: spmm rows, then the epilogue on
        the same cache-hot slice before the worker moves on."""
        self._kernel_rows(matrix, dense, out, lo, hi)
        view = out[lo:hi]
        if bias is not None:
            view += bias
        _apply_act_inplace(view, act)

    def spmm_bias_act(self, matrix: sp.spmatrix, dense: np.ndarray,
                      bias: Optional[np.ndarray] = None,
                      act: Optional[str] = None) -> np.ndarray:
        _check_act(act)
        rows = matrix.shape[0]
        if (not self._spmm_supported(matrix, dense)
                or dense.ndim != 2
                or (bias is not None
                    and not (bias.ndim == 1
                             and bias.shape[0] == dense.shape[1]
                             and bias.dtype == dense.dtype))):
            out = self.spmm(matrix, dense)   # fresh in every branch
            _apply_bias_act_inplace(out, bias, act)
            return out
        out = np.zeros((rows, dense.shape[1]), dtype=dense.dtype)
        chunks = self._chunk_count(rows)
        if chunks <= 1:
            self._fused_rows(matrix, dense, out, 0, rows, bias, act)
            return out
        bounds = self._row_bounds(matrix, chunks)
        if len(bounds) < 3:
            self._fused_rows(matrix, dense, out, 0, rows, bias, act)
            return out
        pool = self._executor()
        futures = [pool.submit(self._fused_rows, matrix, dense, out,
                               int(lo), int(hi), bias, act)
                   for lo, hi in zip(bounds[:-2], bounds[1:-1])]
        self._fused_rows(matrix, dense, out, int(bounds[-2]),
                         int(bounds[-1]), bias, act)
        for future in futures:
            future.result()
        return out


def _env_num_threads() -> Optional[int]:
    """``REPRO_NUM_THREADS`` as a worker count, or ``None`` when unset.

    The one parse of the variable: the threaded and numba constructors
    call it when given no ``num_threads``, which is also how
    :meth:`Policy.from_env` sizes a ``REPRO_BACKEND`` parallel backend.
    """
    value = os.environ.get("REPRO_NUM_THREADS", "")
    if not value:
        return None
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(
            f"invalid REPRO_NUM_THREADS environment variable: {value!r} "
            f"(use a positive integer)")
    return count


def _import_numba_kernels():
    """Import the JIT kernel module, or fail with an install hint.

    This is the single gate that keeps numba optional: nothing on the
    default path imports :mod:`repro.nn.kernels_numba`, so a stock
    install never pays the dependency — or the import cost — and only an
    explicit ``make_backend("numba")`` can hit this error.
    """
    try:
        from . import kernels_numba
    except ImportError as exc:
        raise ImportError(
            "backend 'numba' requires the optional numba dependency which "
            "is not installed; run `pip install numba` to enable the JIT "
            "kernels (the default 'numpy' and 'threaded' backends need no "
            "extra packages)") from exc
    return kernels_numba


def _numba_installed() -> bool:
    """Whether the numba wheel is importable, without importing it.

    ``sys.modules`` is consulted first so tests can hide the module by
    stubbing the entry to ``None`` (the standard import-blocking trick),
    and so an already-imported numba is reported without a filesystem
    probe.
    """
    import importlib.util
    import sys
    if "numba" in sys.modules:
        return sys.modules["numba"] is not None
    try:
        return importlib.util.find_spec("numba") is not None
    except (ImportError, ValueError):  # pragma: no cover - exotic loaders
        return False


class NumbaBackend(NumpyBackend):
    """JIT-compiled kernels for the spmm + GAT edge-path hot loops.

    Construction imports :mod:`repro.nn.kernels_numba` (and thereby
    numba) lazily; when the wheel is absent it raises ``ImportError``
    with an install hint, keeping the default install dependency-free.

    Kernel contracts (see the kernel module for the reasoning):

    * ``spmm`` — CSR rows accumulated in SciPy's order, parallel over
      rows, or over collation blocks when the operator carries the
      ``block_offsets`` annotation of a :func:`~repro.graph.batch.stack_csr`
      batch: **bitwise identical** to :class:`NumpyBackend`.
    * ``gather_rows`` / ``scatter_add_rows`` — exact / edge-order
      accumulation: **bitwise identical**.
    * ``segment_softmax`` — fused max/exp/normalise; numba's ``exp``
      may differ from NumPy's by ulps (≤1e-12 relative at float64).

    Anything a kernel cannot take verbatim (unsupported dtype, ndim,
    non-contiguous input) falls back to the inherited NumPy reference.
    Kernels specialise per ``(element dtype, index dtype)`` signature,
    so both process policies are honoured with no cross-casting.

    Parameters
    ----------
    num_threads:
        Optional thread count for the parallel kernels.  Numba's
        threading layer is process-global, so this clamps and installs
        the count for every numba kernel in the process.
    """

    name = "numba"

    def __init__(self, num_threads: Optional[int] = None):
        self._kernels = _import_numba_kernels()
        if num_threads is None:
            # One REPRO_NUM_THREADS setting sizes whichever parallel
            # backend is selected.
            num_threads = _env_num_threads()
        if num_threads is not None:
            if num_threads < 1:
                raise ValueError(
                    f"num_threads must be >= 1, got {num_threads}")
            self.num_threads = self._kernels.set_num_threads(num_threads)
        else:
            # Report what prange kernels actually run with: the count is
            # process-global, so an earlier set_num_threads (from any
            # instance) may sit below the launch ceiling.
            self.num_threads = self._kernels.current_threads()

    def warmup(self, dtype: Optional[DTypeLike] = None,
               index_dtype: Optional[DTypeLike] = None) -> None:
        """Eagerly compile every kernel for one signature pair (defaults:
        the ambient element and index policies)."""
        self._kernels.warmup(resolve_dtype(dtype),
                             resolve_index_dtype(index_dtype))

    @staticmethod
    def _supported(*arrays: np.ndarray) -> bool:
        for array in arrays:
            if array.dtype.name not in SUPPORTED_DTYPES:
                return False
            if not array.flags.c_contiguous:
                return False
        return True

    @staticmethod
    def _index_supported(indices: np.ndarray) -> bool:
        return (indices.dtype.name in SUPPORTED_INDEX_DTYPES
                and indices.flags.c_contiguous)

    def spmm(self, matrix: sp.spmatrix, dense: np.ndarray) -> np.ndarray:
        if (getattr(matrix, "format", None) != "csr"
                or matrix.dtype != dense.dtype
                or matrix.indices.dtype != matrix.indptr.dtype
                or not self._index_supported(matrix.indices)
                or dense.ndim not in (1, 2)
                or matrix.shape[1] != dense.shape[0]
                or not self._supported(matrix.data, dense)):
            # Upcasts, exotic layouts and shape mismatches go through
            # scipy's own dispatch (which also raises the proper error
            # for bad shapes — the raw kernels would read out of bounds).
            return matrix @ dense
        out = np.zeros((matrix.shape[0],) + dense.shape[1:],
                       dtype=dense.dtype)
        if dense.ndim == 1:
            self._kernels.spmm_vec(matrix.indptr, matrix.indices,
                                   matrix.data, dense, out)
            return out
        blocks = getattr(matrix, "block_offsets", None)
        # The block kernel iterates exactly [blocks[0], blocks[-1]), so
        # only a full-span annotation (as stack_csr produces) may select
        # it; anything else would silently zero the uncovered rows.
        if (blocks is not None and len(blocks) > 2
                and int(blocks[0]) == 0
                and int(blocks[-1]) == matrix.shape[0]):
            self._kernels.spmm_blocks(
                matrix.indptr, matrix.indices, matrix.data, dense,
                np.asarray(blocks, dtype=np.int64), out)
        else:
            self._kernels.spmm_rows(matrix.indptr, matrix.indices,
                                    matrix.data, dense, out)
        return out

    #: Activation dispatch codes of the fused JIT kernels.
    _ACT_CODES = {None: 0, "relu": 1, "elu": 2}

    def _bias_supported(self, bias: Optional[np.ndarray],
                        width: int, dtype: np.dtype) -> bool:
        return (bias is None
                or (bias.ndim == 1 and bias.shape[0] == width
                    and bias.dtype == dtype and bias.flags.c_contiguous))

    def bias_act(self, x: np.ndarray, bias: Optional[np.ndarray] = None,
                 act: Optional[str] = None) -> np.ndarray:
        _check_act(act)
        if (x.ndim != 2 or not self._supported(x)
                or not self._bias_supported(bias, x.shape[1], x.dtype)):
            return super().bias_act(x, bias, act)
        out = np.empty_like(x)
        bias_arr = bias if bias is not None else np.empty(0, dtype=x.dtype)
        self._kernels.bias_act_2d(x, bias_arr, bias is not None,
                                  self._ACT_CODES[act], out)
        return out

    def spmm_bias_act(self, matrix: sp.spmatrix, dense: np.ndarray,
                      bias: Optional[np.ndarray] = None,
                      act: Optional[str] = None) -> np.ndarray:
        _check_act(act)
        if (getattr(matrix, "format", None) != "csr"
                or matrix.dtype != dense.dtype
                or matrix.indices.dtype != matrix.indptr.dtype
                or not self._index_supported(matrix.indices)
                or dense.ndim != 2
                or matrix.shape[1] != dense.shape[0]
                or not self._supported(matrix.data, dense)
                or not self._bias_supported(bias, dense.shape[1],
                                            dense.dtype)):
            return super().spmm_bias_act(matrix, dense, bias, act)
        out = np.zeros((matrix.shape[0], dense.shape[1]), dtype=dense.dtype)
        bias_arr = (bias if bias is not None
                    else np.empty(0, dtype=dense.dtype))
        act_code = self._ACT_CODES[act]
        blocks = getattr(matrix, "block_offsets", None)
        # Same full-span rule as spmm: a partial annotation must not
        # silently skip the uncovered rows' epilogue.
        if (blocks is not None and len(blocks) > 2
                and int(blocks[0]) == 0
                and int(blocks[-1]) == matrix.shape[0]):
            self._kernels.spmm_bias_act_blocks(
                matrix.indptr, matrix.indices, matrix.data, dense,
                np.asarray(blocks, dtype=np.int64), bias_arr,
                bias is not None, act_code, out)
        else:
            self._kernels.spmm_bias_act_rows(
                matrix.indptr, matrix.indices, matrix.data, dense,
                bias_arr, bias is not None, act_code, out)
        return out

    def gather_rows(self, source: np.ndarray,
                    indices: np.ndarray) -> np.ndarray:
        if (source.ndim not in (1, 2) or indices.ndim != 1
                or not self._supported(source)
                or not self._index_supported(indices)
                or not _indices_in_range(indices, source.shape[0])):
            return super().gather_rows(source, indices)
        out = np.empty((indices.shape[0],) + source.shape[1:],
                       dtype=source.dtype)
        if source.ndim == 1:
            self._kernels.gather_rows_1d(source, indices, out)
        else:
            self._kernels.gather_rows_2d(source, indices, out)
        return out

    def scatter_add_rows(self, source: np.ndarray, indices: np.ndarray,
                         num_rows: int) -> np.ndarray:
        if (source.ndim not in (1, 2) or indices.ndim != 1
                or indices.shape[0] != source.shape[0]
                or not self._supported(source)
                or not self._index_supported(indices)
                or not _indices_in_range(indices, num_rows)):
            # The length check matters beyond dispatch hygiene: the JIT
            # kernel iterates the index array unbounds-checked, so a
            # mismatch must take np.add.at's error path instead.
            return super().scatter_add_rows(source, indices, num_rows)
        out = np.zeros((num_rows,) + source.shape[1:], dtype=source.dtype)
        if source.ndim == 1:
            self._kernels.scatter_add_1d(source, indices, out)
        else:
            self._kernels.scatter_add_2d(source, indices, out)
        return out

    def segment_softmax(self, scores: np.ndarray, segments: np.ndarray,
                        num_segments: int) -> np.ndarray:
        if (scores.ndim != 1 or segments.ndim != 1
                or segments.shape[0] != scores.shape[0]
                or not self._supported(scores)
                or not self._index_supported(segments)
                or not _indices_in_range(segments, num_segments)):
            # Length mismatches take the numpy path (np.maximum.at's
            # ValueError) — the JIT kernel reads segments unchecked.
            return super().segment_softmax(scores, segments, num_segments)
        out = np.empty_like(scores)
        self._kernels.segment_softmax(
            scores, segments,
            np.full(num_segments, -np.inf, dtype=scores.dtype),
            np.zeros(num_segments, dtype=scores.dtype),
            scores.dtype.type(1e-16), out)
        return out


def _make_auto_backend(**options) -> ArrayBackend:
    """The measured default backend choice for this machine.

    Derived from the committed perf records rather than guessed: the
    1-CPU container record (``benchmarks/BENCH_threaded.json``) shows
    the partitioned spmm at 0.85–1.0x on a single core (pure dispatch
    overhead), while the ``bench-multicore`` CI job asserts ≥1.3x on
    every 2+-core runner.  So ``auto`` is :class:`ThreadedBackend` when
    the machine has 2+ cores and :class:`NumpyBackend` otherwise
    (``options`` such as ``num_threads`` are forwarded to the threaded
    backend and ignored on single-core hosts, where they have nothing to
    size).  The instance keeps its concrete name (``"threaded"`` /
    ``"numpy"``), so provenance records the choice that actually ran.
    """
    if (os.cpu_count() or 1) >= 2:
        return ThreadedBackend(**options)
    return NumpyBackend()


#: Registered backend factories, keyed by name.
_BACKEND_FACTORIES: Dict[str, Callable[..., ArrayBackend]] = {
    "numpy": NumpyBackend,
    "threaded": ThreadedBackend,
    "numba": NumbaBackend,
    "auto": _make_auto_backend,
}

#: Optional per-backend installation probes; names without one are
#: always installed (no optional dependencies).
_BACKEND_PROBES: Dict[str, Callable[[], bool]] = {
    "numba": _numba_installed,
}


def available_backends() -> Dict[str, bool]:
    """The registered backends mapped to whether they are installed.

    The mapping iterates in sorted-name order, so the pre-existing
    names-only idioms (``list(...)``, ``"numpy" in ...``, iteration)
    keep working unchanged; :func:`backend_names` is the explicit
    names-only view.  A ``False`` value means the backend is registered
    but its optional dependency is missing — :func:`make_backend` on it
    raises ``ImportError`` with the install hint.

    >>> backend_names()
    ('auto', 'numba', 'numpy', 'threaded')
    >>> available_backends()["numpy"]
    True
    """
    return {name: _BACKEND_PROBES.get(name, _always_installed)()
            for name in sorted(_BACKEND_FACTORIES)}


def backend_names() -> Tuple[str, ...]:
    """The registered backend names, sorted (installed or not)."""
    return tuple(sorted(_BACKEND_FACTORIES))


def _always_installed() -> bool:
    return True


def register_backend(name: str, factory: Callable[..., ArrayBackend],
                     installed: Optional[Callable[[], bool]] = None) -> None:
    """Register a backend factory under ``name`` for :func:`make_backend`.

    ``installed`` is an optional zero-argument probe reporting whether
    the backend's dependencies are importable (for
    :func:`available_backends`); omit it for dependency-free backends.
    Re-registering a name is an error — it almost always indicates an
    accidental double import.
    """
    key = name.strip().lower()
    if key in _BACKEND_FACTORIES:
        raise ValueError(f"backend {name!r} is already registered")
    _BACKEND_FACTORIES[key] = factory
    if installed is not None:
        _BACKEND_PROBES[key] = installed


def make_backend(name: str, **options) -> ArrayBackend:
    """Instantiate a registered backend by name.

    ``options`` are forwarded to the factory (e.g.
    ``make_backend("threaded", num_threads=4)``).  Unknown names raise
    ``ValueError``; a registered backend whose optional dependency is
    missing raises ``ImportError`` with the install hint (probe first
    with :func:`available_backends` to avoid the try/except).

    >>> make_backend("numpy").name
    'numpy'
    >>> make_backend("threaded", num_threads=2).num_threads
    2
    """
    return _backend_factory(name)(**options)


def _backend_factory(name: str) -> Callable[..., ArrayBackend]:
    factory = _BACKEND_FACTORIES.get(name.strip().lower())
    if factory is None:
        raise ValueError(
            f"unknown backend {name!r}; choose from {backend_names()}")
    return factory


#: The process-wide policy; ``policy(...)`` scopes override it per thread.
_PROCESS_POLICY = Policy.from_env()
