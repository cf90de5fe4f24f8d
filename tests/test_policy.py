"""The process policy of ``repro.nn.backend``, one parametrized case per field.

Every field of :class:`~repro.nn.backend.Policy` follows the same rules:
``Policy.from_env()`` parses its ``REPRO_*`` variable and names it in the
error for a bad value; ``with policy(...)`` scopes nest and restore
(also when the body raises) and stay invisible to other threads, while
``set_policy`` reaches every thread; and a scope over one field leaves
the others following the process policy.  The cases assert relative to
whatever process policy the environment selected, so they hold under
every CI matrix entry.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest

from repro.nn.backend import (ArrayBackend, Policy, default_context_storage,
                              default_dtype, default_index_dtype,
                              fused_inference_enabled, get_backend,
                              get_policy, policy, set_policy)


class Case(NamedTuple):
    field: str
    variable: str
    default: Any          # the field when the variable is unset
    env_value: str        # a valid spelling of ``values[1]`` in the env
    bad_value: str
    values: tuple         # two distinct settings for the field
    read: Callable[[], Any]


def _plain(value):
    """A field value comparable across fresh instances (backends by name)."""
    return value.name if isinstance(value, ArrayBackend) else value


CASES = [
    Case("dtype", "REPRO_DTYPE", "float64", "float32", "fp8",
         ("float64", "float32"), default_dtype),
    Case("index_dtype", "REPRO_INDEX_DTYPE", "int32", "int64", "int7",
         ("int32", "int64"), default_index_dtype),
    Case("backend", "REPRO_BACKEND", "numpy", "threaded", "cuda",
         ("numpy", "threaded"), lambda: get_backend().name),
    Case("context_storage", "REPRO_CONTEXT_STORAGE", "full", "int8",
         "bogus", ("float16", "int8"), default_context_storage),
    Case("fused", "REPRO_FUSED", True, "off", "maybe",
         (True, False), fused_inference_enabled),
]
CASE_IDS = [case.field for case in CASES]


def _process_value(case: Case):
    return _plain(getattr(get_policy(), case.field))


def _other_than_process(case: Case):
    """A setting of the field that differs from the process policy's."""
    first, second = case.values
    return second if _process_value(case) == first else first


def _read_in_thread(read: Callable[[], Any]):
    seen = []
    worker = threading.Thread(target=lambda: seen.append(read()))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive() and len(seen) == 1
    return seen[0]


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_env_value_parsed(case, monkeypatch):
    monkeypatch.delenv(case.variable, raising=False)
    assert _plain(getattr(Policy.from_env(), case.field)) == case.default
    monkeypatch.setenv(case.variable, case.env_value)
    assert _plain(getattr(Policy.from_env(), case.field)) == case.values[1]
    monkeypatch.setenv(case.variable, case.bad_value)
    with pytest.raises(ValueError, match=case.variable):
        Policy.from_env()


@pytest.mark.parametrize("word, enabled", [
    ("1", True), ("true", True), ("on", True), ("yes", True), (" On ", True),
    ("0", False), ("false", False), ("off", False), ("no", False)])
def test_fused_env_words(word, enabled, monkeypatch):
    monkeypatch.setenv("REPRO_FUSED", word)
    assert Policy.from_env().fused is enabled


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_scope_nests_and_restores(case):
    outer, inner = case.values
    before = case.read()
    with policy(**{case.field: outer}):
        assert case.read() == outer
        with policy(**{case.field: inner}):
            assert case.read() == inner
        assert case.read() == outer
    assert case.read() == before
    with pytest.raises(RuntimeError, match="boom"):
        with policy(**{case.field: _other_than_process(case)}):
            raise RuntimeError("boom")
    assert case.read() == before


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_scope_invisible_to_other_threads(case):
    process = _process_value(case)
    with policy(**{case.field: _other_than_process(case)}):
        assert case.read() != process
        assert _read_in_thread(case.read) == process


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_set_policy_visible_to_other_threads(case):
    value = _other_than_process(case)
    previous = set_policy(**{case.field: value})
    try:
        assert _read_in_thread(case.read) == value
        assert case.read() == value
    finally:
        set_policy(previous)
    assert get_policy() == previous


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_scope_leaves_other_fields_on_process_policy(case):
    others = [other for other in CASES if other is not case]
    with policy(**{case.field: _other_than_process(case)}):
        scoped = case.read()
        previous = set_policy(**{other.field: _other_than_process(other)
                                 for other in others})
        try:
            for other in others:
                assert other.read() == _process_value(other)
                assert other.read() != _plain(getattr(previous, other.field))
            assert case.read() == scoped
        finally:
            set_policy(previous)


def test_scope_keeps_the_process_backend_instance():
    # Tools that patch kernels on get_backend()'s instance rely on a scope
    # that does not name the backend handing out that same object.
    backend = get_policy().backend
    with policy(dtype="float32", context_storage="int8"):
        assert get_backend() is backend


def test_unknown_field_rejected():
    with pytest.raises(TypeError, match="unknown policy field"):
        with policy(precision="float32"):
            pass  # pragma: no cover
    with pytest.raises(TypeError, match="unknown policy field"):
        set_policy(threads=4)


def test_none_leaves_field_unchanged():
    before = default_dtype()
    with policy(dtype=None, index_dtype="int64"):
        assert default_dtype() == before
        assert default_index_dtype() == np.int64


def test_policy_normalises_fields():
    built = Policy(dtype=np.float32, index_dtype="int64", backend="numpy",
                   context_storage=" INT8 ", fused="on")
    assert built.dtype == np.dtype(np.float32)
    assert built.index_dtype == np.dtype(np.int64)
    assert isinstance(built.backend, ArrayBackend)
    assert (built.context_storage, built.fused) == ("int8", True)
