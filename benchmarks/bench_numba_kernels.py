"""Benchmark — NumbaBackend JIT kernels vs the NumPy reference backend.

Measures the two surfaces the numba backend exists for and writes an
honest ``BENCH_numba.json`` perf record:

* **GAT edge path** — a full ``GATConv`` forward + backward (gather →
  leaky-relu logits → fused segment softmax → scatter-add) on a
  paper-scale graph, NumPy vs numba, with the **cold** first call (JIT
  compilation, or on-disk cache load on a warm machine) timed separately
  from the **warm** steady state.  This is where the ≥1.5x bar applies.
* **raw kernels** — backend-level spmm / gather / scatter-add / fused
  segment-softmax timings on one large operator, plus the parity checks
  (bitwise for spmm/gather/scatter; relative tolerance for the fused
  softmax, whose ``exp`` may differ from NumPy's by ulps).
* **end-to-end serving** — engine queries/second on the synthetic SGSC
  smoke config with a GAT encoder, float32/int32 (the recommended
  serving policy).

When the numba wheel is absent the script still succeeds: it writes a
record with ``"available": false`` and a note, so CI's bench-smoke job
tolerates the optional backend being missing instead of erroring.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_numba_kernels.py [--tiny]

or through pytest (skips without numba)::

    PYTHONPATH=src python -m pytest benchmarks/bench_numba_kernels.py -s

The pytest entry always enforces parity; the ≥1.5x warm-JIT bar on the
GAT edge path applies on 2+ cores (the spmm kernels parallelise with
``prange``; the scatter/softmax kernels win by replacing ``np.add.at``
and multi-pass numpy with fused compiled loops).  Below that the record
keeps the honest number with a ``note``.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Dict, List

import numpy as np

from repro.api import CommunitySearchEngine, ModelBundle
from repro.core import CGNP, CGNPConfig, task_batch_loss
from repro.datasets import clear_cache, load_dataset
from repro.gnn.conv import GATConv, graph_ops
from repro.graph import attributed_community_graph
from repro.nn.backend import (NumpyBackend, available_backends, make_backend,
                              policy)
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor
from repro.tasks import ScenarioConfig, TaskSampler, make_scenario
from repro.utils import make_rng

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "BENCH_numba.json")

SMOKE = dict(dataset="arxiv", num_tasks=8, subgraph_nodes=220, num_support=3,
             num_query=12, hidden_dim=128, num_layers=2, epochs=2, scale=0.5,
             task_batch_size=8, serve_nodes=600, serve_batch=256,
             serve_rounds=30,
             edge_nodes=30_000, edge_degree=12, edge_features=64,
             edge_hidden=64, edge_heads=2, edge_repeats=5)
TINY = dict(dataset="arxiv", num_tasks=4, subgraph_nodes=60, num_support=2,
            num_query=6, hidden_dim=32, num_layers=2, epochs=1, scale=0.3,
            task_batch_size=4, serve_nodes=120, serve_batch=64,
            serve_rounds=10,
            edge_nodes=3_000, edge_degree=8, edge_features=16,
            edge_hidden=16, edge_heads=2, edge_repeats=3)


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _best_time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------------
# GAT edge path: forward + backward through one attention layer
# ---------------------------------------------------------------------------
def build_edge_fixture(params: Dict, seed: int = 0):
    graph = attributed_community_graph(
        num_nodes=params["edge_nodes"], num_communities=8,
        avg_degree=float(params["edge_degree"]), mixing=0.15,
        num_attributes=params["edge_features"], rng=make_rng(seed),
        name="numba-edge-bench")
    ops = graph_ops(graph)
    layer = GATConv(params["edge_features"], params["edge_hidden"],
                    make_rng(seed + 1), num_heads=params["edge_heads"])
    features = make_rng(seed + 2).standard_normal(
        (graph.num_nodes, params["edge_features"]))
    return ops, layer, features


def time_edge_path(params: Dict, numba_backend) -> Dict:
    ops, layer, features = build_edge_fixture(params)
    num_edges = int(ops.edge_src.shape[0])
    print(f"  edge fixture: {ops.num_nodes} nodes, {num_edges} directed "
          f"edges (incl. self-loops), {params['edge_heads']} heads")

    def forward_backward() -> np.ndarray:
        for parameter in layer.parameters():
            parameter.zero_grad()
        x = Tensor(features, requires_grad=False)
        out = layer.forward(x, ops)
        out.sum().backward()
        return out.data

    with policy(backend=NumpyBackend()):
        reference = forward_backward()
        numpy_seconds = _best_time(forward_backward, params["edge_repeats"])
    print(f"  edge[numpy] {numpy_seconds * 1e3:8.1f} ms")

    with policy(backend=numba_backend):
        cold_start = time.perf_counter()
        result = forward_backward()
        cold_seconds = time.perf_counter() - cold_start
        warm_seconds = _best_time(forward_backward, params["edge_repeats"])
    gap = float(np.max(np.abs(result - reference)
                       / np.maximum(np.abs(reference), 1e-30)))
    speedup = numpy_seconds / warm_seconds
    print(f"  edge[numba cold] {cold_seconds * 1e3:8.1f} ms "
          f"(includes JIT compile or on-disk cache load)")
    print(f"  edge[numba warm] {warm_seconds * 1e3:8.1f} ms "
          f"-> {speedup:4.2f}x, max rel gap {gap:.2e}")
    return {"num_edges": num_edges, "numpy_seconds": numpy_seconds,
            "numba_cold_seconds": cold_seconds,
            "numba_warm_seconds": warm_seconds,
            "speedup_warm_vs_numpy": speedup,
            "max_relative_gap": gap}


# ---------------------------------------------------------------------------
# Raw kernel sweep + parity
# ---------------------------------------------------------------------------
def run_raw_kernels(params: Dict, numba_backend) -> Dict:
    rng = np.random.default_rng(3)
    nodes = params["edge_nodes"]
    edges = nodes * params["edge_degree"]
    with policy(dtype="float32", index_dtype="int32"):
        ops, _, _ = build_edge_fixture(params, seed=4)
    dense = rng.standard_normal(
        (nodes, params["edge_hidden"])).astype(np.float32)
    segments = rng.integers(0, nodes, size=edges).astype(np.int32)
    scores = rng.standard_normal(edges).astype(np.float32)
    messages = rng.standard_normal(
        (edges, params["edge_hidden"])).astype(np.float32)
    reference = NumpyBackend()
    results: Dict[str, Dict] = {}
    checks: List[bool] = []
    for name, ref_fn, jit_fn, bitwise in (
            ("spmm",
             lambda: reference.spmm(ops.norm_adj, dense),
             lambda: numba_backend.spmm(ops.norm_adj, dense), True),
            ("gather",
             lambda: reference.gather_rows(dense, segments),
             lambda: numba_backend.gather_rows(dense, segments), True),
            ("scatter_add",
             lambda: reference.scatter_add_rows(messages, segments, nodes),
             lambda: numba_backend.scatter_add_rows(messages, segments,
                                                    nodes), True),
            ("segment_softmax",
             lambda: reference.segment_softmax(scores, segments, nodes),
             lambda: numba_backend.segment_softmax(scores, segments, nodes),
             False)):
        expected = ref_fn()
        got = jit_fn()          # warm-up / compile before timing
        if bitwise:
            equal = bool(np.array_equal(expected, got))
        else:
            equal = bool(np.allclose(expected, got, rtol=1e-5, atol=0.0))
        checks.append(equal)
        ref_seconds = _best_time(ref_fn)
        jit_seconds = _best_time(jit_fn)
        speedup = ref_seconds / jit_seconds
        results[name] = {"numpy_seconds": ref_seconds,
                         "numba_seconds": jit_seconds,
                         "speedup": speedup, "parity_ok": equal}
        print(f"  raw[{name:<15}] numpy {ref_seconds * 1e3:7.2f} ms, "
              f"numba {jit_seconds * 1e3:7.2f} ms -> {speedup:5.2f}x "
              f"(parity {'ok' if equal else 'FAIL'})")
    results["all_parity_ok"] = all(checks)
    return results


# ---------------------------------------------------------------------------
# End-to-end serving (GAT encoder, float32/int32)
# ---------------------------------------------------------------------------
def build_tasks(params: Dict, seed: int = 0):
    config = ScenarioConfig(
        num_train_tasks=params["num_tasks"], num_valid_tasks=1,
        num_test_tasks=1, subgraph_nodes=params["subgraph_nodes"],
        num_support=params["num_support"], num_query=params["num_query"],
        seed=seed)
    return make_scenario("sgsc", params["dataset"], config,
                         scale=params["scale"]).train


def build_model(tasks, params: Dict, seed: int = 5) -> CGNP:
    return CGNP(tasks[0].features().shape[1],
                CGNPConfig(hidden_dim=params["hidden_dim"],
                           num_layers=params["num_layers"], conv="gat",
                           decoder="ip"), make_rng(seed))


def run_epochs(model: CGNP, tasks, epochs: int, rng,
               task_batch_size: int) -> None:
    optimizer = Adam(model.parameters(), lr=5e-4)
    model.train()
    order = np.arange(len(tasks))
    for _ in range(epochs):
        rng.shuffle(order)
        for start in range(0, len(order), task_batch_size):
            chunk = [tasks[int(i)] for i in order[start:start + task_batch_size]]
            optimizer.zero_grad()
            loss = task_batch_loss(model, chunk)
            loss.backward()
            clip_grad_norm(model.parameters(), 5.0)
            optimizer.step()


def time_serving(params: Dict, numba_backend) -> List[Dict]:
    with policy(dtype="float32"):
        clear_cache()
        tasks = build_tasks(params)
        model = build_model(tasks, params)
        run_epochs(model, tasks, params["epochs"], make_rng(2),
                   params["task_batch_size"])
        model.eval()
        bundle = ModelBundle.from_model(model, provenance={
            "benchmark": "bench_numba_kernels", "dataset": params["dataset"]})
        dataset = load_dataset(params["dataset"], scale=params["scale"])
        sampler = TaskSampler(dataset.graph,
                              subgraph_nodes=params["serve_nodes"],
                              num_support=params["num_support"],
                              num_query=params["num_query"])
        serve_task = sampler.sample_task(make_rng(7))
    rng = make_rng(13)
    batches = [rng.integers(0, serve_task.graph.num_nodes,
                            size=params["serve_batch"])
               for _ in range(params["serve_rounds"])]
    results = []
    probabilities = {}
    for label, backend in (("numpy", NumpyBackend()),
                           ("numba", numba_backend)):
        with policy(backend=backend, dtype="float32"):
            engine = CommunitySearchEngine.from_bundle(bundle, dtype="float32")
            engine.attach(serve_task)
            for batch in batches[:2]:      # warm-up (and JIT, for numba)
                engine.predict_proba(batch)
            probabilities[label] = engine.predict_proba(batches[0])
            start = time.perf_counter()
            for batch in batches:
                engine.predict_proba(batch)
            elapsed = time.perf_counter() - start
        served = params["serve_batch"] * params["serve_rounds"]
        throughput = served / elapsed
        print(f"  serve[{label:<5}] {served:5d} queries in {elapsed:7.3f}s "
              f"-> {throughput:9.0f} queries/s")
        results.append({"backend": label, "seconds": elapsed,
                        "queries": served,
                        "queries_per_second": throughput})
    gap = float(np.max(np.abs(probabilities["numpy"]
                              - probabilities["numba"])))
    print(f"  serving parity: max |Δprob| = {gap:.2e}")
    results.append({"max_probability_gap": gap})
    return results


# ---------------------------------------------------------------------------
# Record assembly
# ---------------------------------------------------------------------------
def unavailable_record(out_path: str) -> Dict:
    """The honest record for a numba-less host — bench-smoke and the
    committed default must not error on a missing optional backend."""
    cpus = cpu_count()
    record = {
        "benchmark": "numba_jit_kernels_vs_numpy",
        "available": False,
        "cpu_count": cpus,
        "note": (
            f"the numba wheel is not installed on this {cpus}-CPU host, so "
            f"no JIT timings could be measured; `pip install numba` and "
            f"rerun benchmarks/bench_numba_kernels.py to fill this record.  "
            f"The ≥1.5x warm-JIT bar on the GAT edge path applies on hosts "
            f"with 2+ cores; CI's bench-multicore job regenerates this "
            f"record as a build artifact."),
    }
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=2)
    print(f"  numba not installed -> wrote unavailable record {out_path}")
    return record


def run_benchmark(params: Dict, out_path: str) -> Dict:
    if not available_backends()["numba"]:
        return unavailable_record(out_path)
    cpus = cpu_count()
    numba_backend = make_backend("numba")
    print(f"[bench_numba_kernels] {cpus} CPU(s) visible, "
          f"{numba_backend.num_threads} numba threads")

    print("-- GAT edge path (forward + backward, float64 default policy)")
    edge = time_edge_path(params, numba_backend)
    print("-- raw kernels (float32 elements, int32 indices)")
    raw = run_raw_kernels(params, numba_backend)
    print("-- engine serving (GAT encoder, float32/int32)")
    serving = time_serving(params, numba_backend)

    serve_speedup = (serving[1]["queries_per_second"]
                     / serving[0]["queries_per_second"])
    record = {
        "benchmark": "numba_jit_kernels_vs_numpy",
        "available": True,
        "cpu_count": cpus,
        "numba_threads": numba_backend.num_threads,
        "config": dict(params, scenario="sgsc", conv="gat", decoder="ip",
                       serving_dtype="float32", index_dtype="int32"),
        "gat_edge_path": edge,
        "raw_kernels": raw,
        "serving": serving,
        "speedup_gat_edge_path_warm": edge["speedup_warm_vs_numpy"],
        "speedup_serving_numba_vs_numpy": serve_speedup,
        "cold_jit_seconds": edge["numba_cold_seconds"],
    }
    note = (f"measured on a {cpus}-CPU host; cold timings include JIT "
            f"compilation (or the on-disk cache load that `cache=True` "
            f"reduces them to after the first run on a machine).")
    if cpus < 2:
        note += (
            "  Single-core host: the prange spmm kernels cannot exhibit "
            "parallel speedup here, so the edge-path ratio under-reports "
            "what 2+ cores deliver; the ≥1.5x bar applies on multi-core "
            "hosts (CI's bench-multicore job).")
    record["note"] = note
    print(f"  GAT edge path {edge['speedup_warm_vs_numpy']:.2f}x warm | "
          f"serving {serve_speedup:.2f}x")
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=2)
    print(f"  wrote {out_path}")
    return record


def test_numba_kernels_parity_and_speedup(tmp_path):
    """Pytest entry: parity always; the ≥1.5x warm bar on 2+ cores.

    One retry absorbs a transiently loaded CPU without weakening the bar.
    """
    import pytest

    pytest.importorskip("numba")
    cpus = cpu_count()
    best = 0.0
    for _attempt in range(2):
        record = run_benchmark(dict(SMOKE),
                               out_path=str(tmp_path / "BENCH_numba.json"))
        assert record["raw_kernels"]["all_parity_ok"]
        assert record["gat_edge_path"]["max_relative_gap"] < 1e-9
        assert record["serving"][-1]["max_probability_gap"] < 1e-5
        best = max(best, record["speedup_gat_edge_path_warm"])
        if best >= 1.5:
            break
    if cpus < 2:
        pytest.skip(f"single-CPU host ({cpus} visible): parity verified, "
                    f"best warm edge-path ratio {best:.2f}x recorded")
    assert best >= 1.5, (
        f"warm numba GAT edge path only {best:.2f}x vs numpy on a "
        f"{cpus}-CPU host (bar: 1.5x)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="CI-sized config (seconds, not minutes)")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="perf-record JSON path")
    args = parser.parse_args()
    run_benchmark(dict(TINY if args.tiny else SMOKE), out_path=args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
