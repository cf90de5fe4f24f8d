"""The numba backend's import gating and the availability registry.

These tests run on every install — numba present or not.  They pin the
contract that makes the backend a safe optional dependency: the name is
always registered, ``available_backends()`` reports installability
without try/except, and ``make_backend("numba")`` on a numba-less
install fails with an actionable ``pip install numba`` hint instead of a
bare ``ModuleNotFoundError``.  The kernel parity tests live in
``test_numba_kernels.py`` behind ``pytest.importorskip``.
"""

from __future__ import annotations

import sys

import pytest

from repro.cli import main as cli_main
from repro.nn.backend import (NumbaBackend, Policy, available_backends,
                              backend_names, make_backend)


def hide_numba(monkeypatch) -> None:
    """Make ``import numba`` fail even on installs that have the wheel.

    Stubbing the ``sys.modules`` entry to ``None`` is the standard
    import-blocking trick (``import numba`` then raises ImportError);
    dropping the cached kernel module — from ``sys.modules`` *and* from
    the ``repro.nn`` package attribute ``from . import`` resolves
    through — forces the lazy import gate to actually re-run rather
    than reuse an earlier success (the package attribute matters when
    the suite itself runs under ``REPRO_BACKEND=numba``, which imports
    the kernels at startup).
    """
    import repro.nn

    monkeypatch.setitem(sys.modules, "numba", None)
    monkeypatch.delitem(sys.modules, "repro.nn.kernels_numba", raising=False)
    monkeypatch.delattr(repro.nn, "kernels_numba", raising=False)


class TestImportGating:
    def test_make_backend_names_the_install_hint(self, monkeypatch):
        hide_numba(monkeypatch)
        with pytest.raises(ImportError, match="pip install numba"):
            make_backend("numba")

    def test_constructor_is_the_gate(self, monkeypatch):
        hide_numba(monkeypatch)
        # The class itself stays importable dependency-free; only
        # construction needs the wheel.
        with pytest.raises(ImportError, match="pip install numba"):
            NumbaBackend()

    def test_env_selection_reports_the_variable(self, monkeypatch):
        hide_numba(monkeypatch)
        monkeypatch.setenv("REPRO_BACKEND", "numba")
        with pytest.raises(ImportError, match="REPRO_BACKEND"):
            Policy.from_env()

    def test_default_backend_never_touches_numba(self, monkeypatch):
        hide_numba(monkeypatch)
        backend = make_backend("numpy")
        assert backend.name == "numpy"
        assert "repro.nn.kernels_numba" not in sys.modules


class TestAvailabilityRegistry:
    def test_numba_always_registered(self):
        assert "numba" in available_backends()
        assert "numba" in backend_names()

    def test_mapping_reports_installed_flags(self, monkeypatch):
        flags = available_backends()
        assert flags["numpy"] is True
        assert flags["threaded"] is True
        assert isinstance(flags["numba"], bool)
        hide_numba(monkeypatch)
        assert available_backends()["numba"] is False

    def test_hidden_probe_does_not_import(self, monkeypatch):
        # The probe must answer without importing numba: a numba-less
        # CLI startup (argparse choices) cannot afford the import cost,
        # nor the ImportError.
        monkeypatch.delitem(sys.modules, "numba", raising=False)
        available_backends()
        assert "numba" not in sys.modules

    def test_names_only_views_stay_backward_compatible(self):
        flags = available_backends()
        # The pre-PR-5 idioms: iteration, membership, list().
        assert list(flags) == sorted(flags)
        assert "numpy" in flags
        assert set(backend_names()) == set(flags)
        assert backend_names() == tuple(sorted(backend_names()))

    def test_installed_flag_matches_make_backend_behaviour(self):
        if available_backends()["numba"]:
            assert make_backend("numba").name == "numba"
        else:
            with pytest.raises(ImportError, match="pip install numba"):
                make_backend("numba")


class TestCliBackends:
    def test_backends_subcommand_lists_availability(self, capsys):
        assert cli_main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in backend_names():
            assert name in out
        assert "installed" in out

    def test_num_threads_accepted_for_numba(self, monkeypatch):
        # --num-threads now applies to numba too; with the wheel hidden
        # the run must fail on the *install hint*, not the flag check.
        hide_numba(monkeypatch)
        from repro.cli import _policy_scope
        import argparse

        args = argparse.Namespace(backend="numba", num_threads=2,
                                  index_dtype=None)
        with pytest.raises(ImportError, match="pip install numba"):
            _policy_scope(args)

    def test_num_threads_still_rejected_for_numpy(self):
        from repro.cli import _policy_scope
        import argparse

        args = argparse.Namespace(backend="numpy", num_threads=2,
                                  index_dtype=None)
        with pytest.raises(ValueError, match="--num-threads"):
            _policy_scope(args)
