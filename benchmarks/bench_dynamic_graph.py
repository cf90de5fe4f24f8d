"""Benchmark — streaming graph deltas: incremental repair vs rebuild.

The claim under test (ISSUE 9 / ROADMAP "dynamic graphs"): with
:mod:`repro.graph.delta`, a stream of edge/attribute updates interleaved
with queries sustains **>= 5x** the update throughput of the
full-invalidation baseline (drop every cached operator, re-encode every
cached context — what any mutation cost before the delta subsystem), at
*equal query correctness*.

Both modes run the identical delta stream through
``CommunitySearchEngine.apply_delta`` — ``repair=True`` patches operator
rows in place and dirties only contexts whose support set the delta's
k-hop frontier reaches; ``repair=False`` is the measured baseline.  The
final graphs are therefore identical by construction, and the record
pins it three ways:

* **final answers bitwise equal** — after the stream, both engines
  re-encode and answer the same probe queries; repaired operators must
  reproduce rebuilt operators exactly;
* **equal F1** vs the task's ground-truth communities (implied by the
  bitwise check, recorded per mode for the scoreboard);
* **(tiny only) operator parity** — every cached operator family of the
  streamed graph is compared bitwise against a fresh ``Graph`` rebuilt
  from the final edge list, the differential-test contract in miniature.

Writes a ``BENCH_dynamic.json`` perf record next to this file.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_dynamic_graph.py [--tiny]

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_dynamic_graph.py -s
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Dict, List, Tuple

import numpy as np

from conftest import peak_rss_bytes
from repro.api import CommunitySearchEngine
from repro.core import CGNP, CGNPConfig
from repro.graph import Graph, GraphDelta
from repro.gnn.conv import graph_ops
from repro.nn.backend import policy
from repro.tasks import QueryExample, Task
from repro.utils import make_rng

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "BENCH_dynamic.json")

# Full record: a graph large enough that the baseline's per-delta
# operator rebuild + context re-encode dominates, the regime streaming
# repair exists for.  60 rounds of (1 delta, 2 query batches).  The
# feature width is deliberately realistic for attributed graphs (the
# paper's datasets run 42-3703 dims) — encode cost scales with it,
# repair cost does not.
FULL = dict(nodes=100_000, edges=300_000, window=300, dim=512,
            hidden_dim=32, num_layers=2, conv="gcn", decoder="ip",
            rounds=60, adds_per_round=3, removes_per_round=1,
            attr_every=10, attr_rows=4, queries_per_round=2,
            nodes_per_call=4, check_parity=False)
# CI-sized: seconds-scale, parity asserted on top of the >= 2x bar.
# The graph must be big enough that a per-delta operator rebuild +
# context re-encode actually costs something (at toy sizes the
# baseline's rebuild is as cheap as the repair bookkeeping); n=30k is
# the smallest size where the regime the subsystem targets is visible
# while staying seconds-scale.  The >= 5x claim is the FULL record's.
TINY = dict(nodes=30_000, edges=120_000, window=60, dim=64,
            hidden_dim=16, num_layers=2, conv="gcn", decoder="ip",
            rounds=12, adds_per_round=4, removes_per_round=2,
            attr_every=4, attr_rows=4, queries_per_round=2,
            nodes_per_call=4, check_parity=True)


# ----------------------------------------------------------------------
# Deterministic synthetic substrate
# ----------------------------------------------------------------------
def locality_edges(nodes: int, edges: int, window: int,
                   seed: int = 7) -> np.ndarray:
    """Undirected edges with bounded locality: ``v ± U(1..window)``.

    Locality keeps the k-hop dirty frontier of a random delta small and
    far from the support set with high probability — the streaming
    regime (timeline graphs, road networks, interaction logs) where
    frontier-miss context reuse pays off.
    """
    rng = np.random.default_rng(seed)
    src = rng.integers(0, nodes, size=edges, dtype=np.int64)
    step = rng.integers(1, window + 1, size=edges, dtype=np.int64)
    sign = rng.integers(0, 2, size=edges, dtype=np.int64) * 2 - 1
    dst = np.clip(src + sign * step, 0, nodes - 1)
    keep = src != dst
    return np.stack([src[keep], dst[keep]], axis=1)


def feature_block(lo: int, hi: int, dim: int) -> np.ndarray:
    """Rows ``lo:hi`` of the deterministic feature matrix (float32)."""
    rows = np.arange(lo, hi, dtype=np.float64).reshape(-1, 1)
    cols = np.arange(dim, dtype=np.float64).reshape(1, -1)
    return (((rows * 0.000515 + cols * 0.137 + 0.25) % 1.0) - 0.5).astype(
        np.float32)


def build_task(graph: Graph, params: Dict, seed: int = 13) -> Task:
    """A 1-shot task (attributes only — deterministic under mutation)."""
    rng = make_rng(seed)
    nodes = graph.num_nodes

    def example(query: int) -> QueryExample:
        query = int(np.clip(query, 1, nodes - 2))
        positives = np.unique(np.clip(
            query + rng.integers(1, max(2, params["window"] // 2), size=4),
            0, nodes - 1))
        positives = positives[positives != query]
        negatives = np.unique(rng.integers(0, nodes, size=6))
        negatives = np.setdiff1d(negatives, np.append(positives, query))
        membership = np.zeros(nodes, dtype=bool)
        membership[query] = True
        membership[positives] = True
        return QueryExample(query=query, positives=positives,
                            negatives=negatives, membership=membership)

    support = [example(int(rng.integers(0, nodes)))]
    queries = [example(int(rng.integers(0, nodes))) for _ in range(3)]
    return Task(graph, support, queries, name="bench_dynamic",
                use_attributes=True, use_structural=False)


def build_model(params: Dict, seed: int = 5) -> CGNP:
    return CGNP(params["dim"], CGNPConfig(
        hidden_dim=params["hidden_dim"], num_layers=params["num_layers"],
        conv=params["conv"], aggregator="sum", decoder=params["decoder"],
        num_heads=1, use_attributes=True, use_structural=False),
        make_rng(seed))


def build_graph(params: Dict) -> Graph:
    edges = locality_edges(params["nodes"], params["edges"],
                           params["window"])
    return Graph(params["nodes"], edges,
                 attributes=feature_block(0, params["nodes"], params["dim"]))


def make_delta_stream(params: Dict, seed: int = 31) -> List[GraphDelta]:
    """One deterministic mutation stream, shared verbatim by both modes.

    Each round adds a few locality edges and removes a couple of the
    edges added in earlier rounds (so removals always name live edges);
    every ``attr_every``-th round also rewrites a handful of attribute
    rows.  Built once, up front — stream generation never pollutes the
    timed loop.
    """
    rng = np.random.default_rng(seed)
    nodes, window = params["nodes"], params["window"]
    pool: List[Tuple[int, int]] = []
    deltas: List[GraphDelta] = []
    for round_index in range(params["rounds"]):
        src = rng.integers(0, nodes - 1, size=params["adds_per_round"])
        step = rng.integers(1, window + 1, size=params["adds_per_round"])
        dst = np.clip(src + step, 0, nodes - 1)
        keep = src != dst
        add = np.stack([src[keep], dst[keep]], axis=1)
        remove = None
        if pool and params["removes_per_round"]:
            take = min(len(pool), params["removes_per_round"])
            picks = rng.choice(len(pool), size=take, replace=False)
            remove = np.asarray([pool[int(p)] for p in picks],
                                dtype=np.int64)
            for p in sorted((int(p) for p in picks), reverse=True):
                pool.pop(p)
        pool.extend((int(u), int(v)) for u, v in add)
        update = None
        if params["attr_every"] and round_index % params["attr_every"] == 0:
            rows = np.unique(rng.integers(0, nodes,
                                          size=params["attr_rows"]))
            update = (rows, feature_block(0, rows.size, params["dim"])
                      + np.float32(0.001 * (round_index + 1)))
        deltas.append(GraphDelta(add_edges=add, remove_edges=remove,
                                 update_attributes=update))
    return deltas


# ----------------------------------------------------------------------
# The streaming leg
# ----------------------------------------------------------------------
def f1_against_truth(members: np.ndarray, truth: np.ndarray) -> float:
    predicted = np.zeros(truth.shape[0], dtype=bool)
    predicted[members] = True
    true_positive = int(np.count_nonzero(predicted & truth))
    if true_positive == 0:
        return 0.0
    precision_ = true_positive / int(predicted.sum())
    recall = true_positive / int(truth.sum())
    return 2.0 * precision_ * recall / (precision_ + recall)


def stream_leg(repair: bool, params: Dict,
               deltas: List[GraphDelta]) -> Tuple[Dict, List[np.ndarray]]:
    """Run the full interleaved stream in one mode; measure sustained
    updates/sec over the (delta + queries) loop, then re-encode and
    answer the probe queries for the cross-mode parity check."""
    graph = build_graph(params)
    task = build_task(graph, params)
    engine = CommunitySearchEngine(build_model(params))
    engine.attach(task)

    rng = make_rng(23)
    probe_batches = [rng.integers(0, params["nodes"],
                                  size=params["nodes_per_call"])
                     for _ in range(params["queries_per_round"]
                                    * params["rounds"])]
    engine.predict_proba(probe_batches[0])     # warm every cold path

    start = time.perf_counter()
    batch_index = 0
    for delta in deltas:
        engine.apply_delta(delta, repair=repair)
        for _ in range(params["queries_per_round"]):
            engine.predict_proba(probe_batches[batch_index])
            batch_index += 1
    elapsed = time.perf_counter() - start

    # Post-stream probe: force a fresh encode in both modes so the final
    # answers exercise this mode's (repaired vs rebuilt) operators.
    engine.attach(task, refresh=True)
    final_probs = [engine.predict_proba(batch)
                   for batch in probe_batches[:params["queries_per_round"]]]
    f1s = [f1_against_truth(engine.query(example.query), example.membership)
           for example in task.queries]

    stats = engine.stats()
    record = {
        "mode": "repair" if repair else "rebuild_baseline",
        "stream_seconds": elapsed,
        "updates_per_second": len(deltas) / elapsed,
        "deltas_applied": stats.deltas_applied,
        "rows_repaired": stats.rows_repaired,
        "contexts_dirtied": stats.contexts_dirtied,
        "contexts_encoded": stats.contexts_encoded,
        "mean_f1": float(np.mean(f1s)),
    }
    if params.get("check_parity"):
        streamed = graph_ops(graph)
        rebuilt = graph_ops(Graph(graph.num_nodes, graph.edges,
                                  attributes=np.asarray(graph.attributes)))
        record["operators_bitwise_equal"] = _ops_equal(streamed, rebuilt)
    return record, final_probs


def _ops_equal(a, b) -> bool:
    def csr_eq(x, y):
        return (np.array_equal(x.indptr, y.indptr)
                and np.array_equal(x.indices, y.indices)
                and x.indices.dtype == y.indices.dtype
                and np.array_equal(x.data, y.data))
    return (csr_eq(a.norm_adj, b.norm_adj)
            and csr_eq(a.row_norm_adj, b.row_norm_adj)
            and csr_eq(a.row_norm_adj_t, b.row_norm_adj_t)
            and np.array_equal(a.edge_src, b.edge_src)
            and np.array_equal(a.edge_dst, b.edge_dst))


def run_stream(params: Dict) -> Dict:
    with policy(dtype="float32"):
        deltas = make_delta_stream(params)
        repair_record, repair_probs = stream_leg(True, params, deltas)
        baseline_record, baseline_probs = stream_leg(False, params, deltas)
    parity = all(np.array_equal(a, b)
                 for a, b in zip(repair_probs, baseline_probs))
    speedup = (repair_record["updates_per_second"]
               / baseline_record["updates_per_second"])
    print(f"[stream] n={params['nodes']:,} rounds={params['rounds']}: "
          f"repair {repair_record['updates_per_second']:.1f} upd/s vs "
          f"baseline {baseline_record['updates_per_second']:.1f} upd/s "
          f"({speedup:.1f}x), final answers "
          f"{'bitwise equal' if parity else 'MISMATCH'}, F1 "
          f"{repair_record['mean_f1']:.3f} vs "
          f"{baseline_record['mean_f1']:.3f}")
    return {"params": dict(params), "repair": repair_record,
            "baseline": baseline_record,
            "updates_per_second_speedup": speedup,
            "final_answers_bitwise_equal": parity,
            "equal_f1": repair_record["mean_f1"]
            == baseline_record["mean_f1"]}


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_benchmark(out_path: str, tiny: bool = False) -> Dict:
    record: Dict = {"benchmark": "dynamic_graph_streaming_deltas"}
    record["tiny"] = run_stream(dict(TINY))
    if not tiny:
        record["full"] = run_stream(dict(FULL))
    record["peak_rss_bytes"] = peak_rss_bytes()
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=2)
    print(f"  wrote {out_path}")
    return record


def check_tiny(record: Dict) -> None:
    tiny = record["tiny"]
    assert tiny["final_answers_bitwise_equal"], \
        "repair-mode answers diverged from the rebuild baseline"
    assert tiny["repair"]["operators_bitwise_equal"], \
        "streamed operators diverged from a cold rebuild"
    assert tiny["equal_f1"], "query correctness differs between modes"
    assert tiny["updates_per_second_speedup"] >= 2.0, \
        (f"repair sustained only "
         f"{tiny['updates_per_second_speedup']:.2f}x the baseline "
         f"update throughput (need >= 2x on the tiny graph)")


def check_full(record: Dict) -> None:
    full = record["full"]
    assert full["final_answers_bitwise_equal"], \
        "repair-mode answers diverged from the rebuild baseline"
    assert full["equal_f1"], "query correctness differs between modes"
    assert full["updates_per_second_speedup"] >= 5.0, \
        (f"repair sustained only "
         f"{full['updates_per_second_speedup']:.2f}x the baseline "
         f"update throughput (the acceptance bar is >= 5x)")


def test_dynamic_graph_tiny(tmp_path):
    """Pytest entry: the CI contract — answer + operator parity with the
    rebuild baseline and a >= 2x sustained update-throughput win."""
    record = run_benchmark(str(tmp_path / "BENCH_dynamic.json"), tiny=True)
    check_tiny(record)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="CI-sized: parity + >= 2x speedup only")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="perf-record JSON path")
    args = parser.parse_args()
    record = run_benchmark(args.out, tiny=args.tiny)
    check_tiny(record)
    if not args.tiny:
        check_full(record)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
