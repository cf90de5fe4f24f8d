"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import clear_cache
from repro.graph import attributed_community_graph
from repro.nn.backend import get_policy, policy, set_policy
from repro.tasks import TaskSampler
from repro.utils import make_rng

#: Modules that assert exact numeric equivalence (1e-9/1e-10 bars) or the
#: float64 construction default.  They run pinned at float64 regardless of
#: the ambient ``REPRO_DTYPE``, so the float32 CI matrix entry exercises
#: the rest of the suite at reduced precision without weakening these bars.
#: The pin covers the test body only: session-scoped fixtures (graphs,
#: tasks) materialise under the ambient policy before this function-scoped
#: fixture runs, so pinned tests must not assert fixture *data* dtypes —
#: models re-cast inputs to their own dtype, which is what keeps the
#: equivalence bars exact.
_FLOAT64_PINNED_MODULES = {"test_tensor", "test_graph_batch", "test_api",
                           "test_loss_sparse", "test_init_misc",
                           "test_properties", "test_index_dtype",
                           "test_fused_kernels", "test_context_storage",
                           "test_graph_delta"}


def pytest_configure(config):
    # No pytest-asyncio dependency: async scenarios are sync tests
    # wrapping asyncio.run().  The marker exists so CI can select the
    # fast event-loop tests with `-m asyncio`.
    config.addinivalue_line(
        "markers",
        "asyncio: exercises the repro.serve event-loop path "
        "(plain asyncio.run, no pytest-asyncio)")


@pytest.fixture(autouse=True)
def _pin_numeric_equivalence_precision(request):
    if request.module.__name__ in _FLOAT64_PINNED_MODULES:
        with policy(dtype="float64"):
            yield
    else:
        yield


@pytest.fixture(autouse=True)
def _process_policy_unchanged():
    """Fail any test that leaves the process policy other than it found it.

    A leaked ``set_policy`` runs every later module under the wrong
    settings; restoring a hardcoded backend, for one, would silently put
    the ``REPRO_BACKEND=threaded`` suite on numpy.  The policy is put
    back before failing so one leak reports once.
    """
    before = get_policy()
    yield
    after = get_policy()
    if after != before:
        set_policy(before)
        pytest.fail(f"test left the process policy changed: {before} -> "
                    f"{after}")


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng(12345)


@pytest.fixture(scope="session")
def small_community_graph():
    """A 120-node attributed graph with 4 planted communities."""
    generator = make_rng(7)
    return attributed_community_graph(
        num_nodes=120, num_communities=4, avg_degree=8.0, mixing=0.12,
        num_attributes=24, rng=generator, name="fixture-graph")


@pytest.fixture(scope="session")
def tiny_tasks(small_community_graph):
    """Four train + two test tasks on the fixture graph (2-shot)."""
    generator = make_rng(99)
    sampler = TaskSampler(small_community_graph, subgraph_nodes=60,
                          num_support=2, num_query=4,
                          num_positive=4, num_negative=8)
    train = sampler.sample_tasks(4, generator, prefix="train")
    test = sampler.sample_tasks(2, generator, prefix="test")
    return train, test


@pytest.fixture(autouse=True)
def _clear_dataset_cache():
    """Keep dataset memory bounded across tests."""
    yield
    clear_cache()
