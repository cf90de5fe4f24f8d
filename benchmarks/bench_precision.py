"""Benchmark — float32 precision policy vs the float64 baseline.

Measures, on the synthetic SGSC smoke config:

* **meta-training throughput** (tasks/second): the same task set, model
  seed and mini-batch schedule run once fully under
  ``policy(dtype="float64")`` and once under ``policy(dtype="float32")`` —
  the whole pipeline (task materialisation, adjacency operators, encoder,
  decoder, Adam) executes at the policy width;
* **serving throughput** (queries/second): one float64-trained model is
  bundled and then served through
  :class:`~repro.api.engine.CommunitySearchEngine` at both precisions
  (``from_bundle(..., dtype=...)`` casts the weights on load), measuring
  the batched decode path;
* **accuracy parity**: per-query ranking AUC and F1 of the float32-served
  model must match the float64-served model to ``1e-3`` (the membership
  probabilities themselves typically agree to ~1e-6).

Writes a ``BENCH_precision.json`` perf record next to this file.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_precision.py [--tiny]

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_precision.py -s
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
from repro.datasets import clear_cache
from repro.eval.metrics import community_metrics
from repro.nn.backend import policy
from repro.nn.optim import Adam, clip_grad_norm
from repro.tasks import ScenarioConfig, TaskSampler, make_scenario
from repro.datasets import load_dataset
from repro.utils import make_rng

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "BENCH_precision.json")

# SGSC smoke config sized so spmm + dense matmul (not Python overhead)
# dominate: the precision win is a memory-bandwidth story, so the graphs
# and hidden width are larger than the batching bench's.  Structural
# features (arxiv) keep the comparison about element width, not about
# BLAS on wide one-hot inputs.
SMOKE = dict(dataset="arxiv", num_tasks=8, subgraph_nodes=220, num_support=3,
             num_query=12, hidden_dim=192, num_layers=3, epochs=2, scale=0.5,
             task_batch_size=4, serve_nodes=600, serve_batch=256,
             serve_rounds=30)
TINY = dict(dataset="arxiv", num_tasks=4, subgraph_nodes=60, num_support=2,
            num_query=6, hidden_dim=32, num_layers=2, epochs=1, scale=0.3,
            task_batch_size=2, serve_nodes=120, serve_batch=64,
            serve_rounds=10)

DTYPES = ("float64", "float32")


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
                           num_layers=params["num_layers"], conv="gcn",
                           decoder="ip"), make_rng(seed))


def run_epochs(model: CGNP, tasks, epochs: int, rng, task_batch_size: int) -> int:
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
    return epochs * len(tasks)


def time_training(dtype: str, params: Dict, repeats: int = 3) -> Dict:
    """Tasks/second of the full meta-training loop at ``dtype``."""
    with policy(dtype=dtype):
        clear_cache()  # materialise the dataset graph at this policy
        tasks = build_tasks(params)
        # Warm-up epoch on a throwaway model fills feature / operator /
        # collation caches so the timed region is steady-state throughput.
        run_epochs(build_model(tasks, params), tasks, 1, make_rng(0),
                   params["task_batch_size"])
        best = None
        for _ in range(repeats):
            model = build_model(tasks, params)
            start = time.perf_counter()
            done = run_epochs(model, tasks, params["epochs"], make_rng(1),
                              params["task_batch_size"])
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best[0]:
                best = (elapsed, done)
    elapsed, done = best
    throughput = done / elapsed
    print(f"  train[{dtype:<7}] {done:4d} task-updates in {elapsed:7.2f}s "
          f"-> {throughput:8.2f} tasks/s")
    return {"dtype": dtype, "seconds": elapsed, "task_updates": done,
            "tasks_per_second": throughput}


def build_serving_fixture(params: Dict, seed: int = 0):
    """A float64-trained bundle plus a larger held-out serving task."""
    with policy(dtype="float64"):
        clear_cache()
        tasks = build_tasks(params, seed=seed)
        model = build_model(tasks, params)
        run_epochs(model, tasks, params["epochs"], make_rng(2),
                   params["task_batch_size"])
        model.eval()
        bundle = ModelBundle.from_model(model, provenance={
            "benchmark": "bench_precision", "dataset": params["dataset"]})
        dataset = load_dataset(params["dataset"], scale=params["scale"])
        sampler = TaskSampler(dataset.graph,
                              subgraph_nodes=params["serve_nodes"],
                              num_support=params["num_support"],
                              num_query=params["num_query"])
        serve_task = sampler.sample_task(make_rng(seed + 7))
    return bundle, serve_task


def time_serving(bundle: ModelBundle, task, dtype: str, params: Dict) -> Dict:
    """Queries/second of the engine's batched decode path at ``dtype``."""
    engine = CommunitySearchEngine.from_bundle(bundle, dtype=dtype)
    engine.attach(task)  # context encoded once, outside the timed loop
    rng = make_rng(13)
    batches = [rng.integers(0, task.graph.num_nodes, size=params["serve_batch"])
               for _ in range(params["serve_rounds"])]
    for batch in batches[:2]:      # warm-up
        engine.predict_proba(batch)
    engine.reset_stats()
    start = time.perf_counter()
    for batch in batches:
        engine.predict_proba(batch)
    elapsed = time.perf_counter() - start
    served = params["serve_batch"] * params["serve_rounds"]
    throughput = served / elapsed
    print(f"  serve[{dtype:<7}] {served:5d} queries in {elapsed:7.3f}s "
          f"-> {throughput:9.0f} queries/s")
    return {"dtype": dtype, "seconds": elapsed, "queries": served,
            "queries_per_second": throughput}


def _ranking_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann–Whitney AUC of ``scores`` against a boolean mask."""
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size)
    ranks[order] = np.arange(1, scores.size + 1)
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def check_accuracy_parity(bundle: ModelBundle, task) -> Dict:
    """Eval-metric gaps between float64 and float32 serving of one bundle."""
    per_dtype = {}
    for dtype in DTYPES:
        engine = CommunitySearchEngine.from_bundle(bundle, dtype=dtype)
        engine.attach(task)
        queries = [e.query for e in task.queries]
        probabilities = engine.predict_proba(queries)
        aucs, f1s = [], []
        for row, example in zip(probabilities, task.queries):
            keep = np.ones(task.graph.num_nodes, dtype=bool)
            keep[example.query] = False
            aucs.append(_ranking_auc(row[keep], example.membership[keep]))
            members = np.flatnonzero(row >= 0.5)
            f1s.append(community_metrics(members, example.membership,
                                         example.query).f1)
        per_dtype[dtype] = {"probabilities": probabilities,
                            "auc": np.asarray(aucs), "f1": np.asarray(f1s)}
    auc_gap = float(np.nanmax(np.abs(per_dtype["float64"]["auc"]
                                     - per_dtype["float32"]["auc"])))
    f1_gap = float(np.max(np.abs(per_dtype["float64"]["f1"]
                                 - per_dtype["float32"]["f1"])))
    prob_gap = float(np.max(np.abs(
        per_dtype["float64"]["probabilities"]
        - per_dtype["float32"]["probabilities"])))
    mean_auc = float(np.nanmean(per_dtype["float64"]["auc"]))
    print(f"  parity: max |ΔAUC| = {auc_gap:.2e}, max |ΔF1| = {f1_gap:.2e}, "
          f"max |Δprob| = {prob_gap:.2e} (float64 mean AUC {mean_auc:.3f})")
    return {"max_auc_gap": auc_gap, "max_f1_gap": f1_gap,
            "max_probability_gap": prob_gap, "float64_mean_auc": mean_auc}


def run_benchmark(params: Dict, out_path: str) -> Dict:
    print(f"[bench_precision] synthetic SGSC ({params['dataset']}), "
          f"{params['num_tasks']} tasks of ~{params['subgraph_nodes']} nodes, "
          f"hidden={params['hidden_dim']}, {params['epochs']} epochs, "
          f"task_batch_size={params['task_batch_size']}; serving on a "
          f"{params['serve_nodes']}-node task, "
          f"{params['serve_batch']}-query batches")

    train_results = [time_training(dtype, params) for dtype in DTYPES]
    train_speedup = (train_results[1]["tasks_per_second"]
                     / train_results[0]["tasks_per_second"])
    print(f"  meta-training speedup float32 vs float64: {train_speedup:.2f}x")

    bundle, serve_task = build_serving_fixture(params)
    serve_results = [time_serving(bundle, serve_task, dtype, params)
                     for dtype in DTYPES]
    serve_speedup = (serve_results[1]["queries_per_second"]
                     / serve_results[0]["queries_per_second"])
    print(f"  serving speedup float32 vs float64: {serve_speedup:.2f}x")

    parity = check_accuracy_parity(bundle, serve_task)

    record = {
        "benchmark": "precision_policy_float32_vs_float64",
        "config": dict(params, scenario="sgsc", conv="gcn", decoder="ip"),
        "training": train_results,
        "serving": serve_results,
        "speedup_training_float32_vs_float64": train_speedup,
        "speedup_serving_float32_vs_float64": serve_speedup,
        "accuracy_parity": parity,
    }
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=2)
    print(f"  wrote {out_path}")
    return record


def test_precision_speedup(tmp_path):
    """Pytest entry: float32 must beat float64 >=1.5x on train AND serve,
    with eval metrics matching to 1e-3.

    Wall-clock benchmarks on shared machines are noisy; one retry absorbs
    a transiently loaded CPU without weakening the bar.
    """
    best_train, best_serve = 0.0, 0.0
    for attempt in range(2):
        record = run_benchmark(dict(SMOKE),
                               out_path=str(tmp_path / "BENCH_precision.json"))
        parity = record["accuracy_parity"]
        assert parity["max_auc_gap"] <= 1e-3
        assert parity["max_f1_gap"] <= 1e-3
        best_train = max(best_train,
                         record["speedup_training_float32_vs_float64"])
        best_serve = max(best_serve,
                         record["speedup_serving_float32_vs_float64"])
        if best_train >= 1.5 and best_serve >= 1.5:
            break
    assert best_train >= 1.5, f"training speedup {best_train:.2f}x < 1.5x"
    assert best_serve >= 1.5, f"serving speedup {best_serve:.2f}x < 1.5x"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="CI-sized config (seconds, not minutes)")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="perf-record JSON path")
    args = parser.parse_args()
    params = dict(TINY if args.tiny else SMOKE)
    run_benchmark(params, out_path=args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
