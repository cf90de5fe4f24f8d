"""Benchmark — ShardedGraph: fixed-RAM-budget encode & serve.

The claim under test (ISSUE 8 / ROADMAP "shard the graph"): with
:class:`repro.graph.ShardedGraph`, the anonymous-memory footprint of
encoding and serving a graph is bounded by ``shard_rows × d``, not
``n × d`` — so a graph whose dense feature matrix alone exceeds a RAM
budget can still be deployed, at full bitwise parity with the dense
reference.

Three legs, measured honestly:

* **budget probes** — subprocesses with an *enforced* anonymous-memory
  cap (``resource.setrlimit(RLIMIT_DATA)``, which anonymous numpy
  allocations count against while file-backed ``np.memmap`` pages do
  not).  The dense path must die with ``MemoryError`` — its feature
  matrix alone (``n × d × 4`` bytes) is provably larger than the cap —
  while the sharded path attaches and serves under the same cap, once
  per shard width, recording peak RSS and serve throughput.
* **both-fit comparison** — a smaller graph where dense *does* fit, so
  sharded throughput can be compared against the dense baseline
  in-process (the acceptance bar: within 2x).
* **tiny (CI)** — seconds-scale: asserts bitwise parity of
  ``predict_proba`` between dense and 4-shard memmap serving, and a
  >= 2x ``graph_resident_bytes`` reduction.

Writes a ``BENCH_sharded.json`` perf record next to this file.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_sharded_graph.py [--tiny]

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_sharded_graph.py -s
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from conftest import peak_rss_bytes
from repro.api import CommunitySearchEngine
from repro.core import CGNP, CGNPConfig
from repro.graph import Graph, ShardedGraph, graph_memory_profile
from repro.nn.backend import policy
from repro.tasks import QueryExample, Task
from repro.utils import make_rng

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "BENCH_sharded.json")

# The budget story needs a graph whose dense feature matrix alone
# (n*d*4 bytes at float32) provably exceeds the cap while the sharded
# working set fits with room for CSR construction transients.  2M nodes
# x 512 attributes = 4.0 GiB of features against a 2.5 GiB cap.
FULL = dict(nodes=2_000_000, edges=10_000_000, window=1000, dim=512,
            hidden_dim=16, num_layers=2, conv="gcn", decoder="ip",
            shard_widths=(4, 8, 16), budget_mb=2500,
            predict_calls=20, nodes_per_call=4)
# Dense fits here (200k x 256 x 4 = 200 MiB), so throughput is
# comparable head-to-head.
BOTH_FIT = dict(nodes=200_000, edges=1_000_000, window=500, dim=256,
                hidden_dim=16, num_layers=2, conv="gcn", decoder="ip",
                shards=4, predict_calls=30, nodes_per_call=4)
# CI-sized: parity + resident-bytes reduction in seconds.  dim is kept
# large relative to the CSR structure so the >= 2x reduction bar
# measures the feature win, not noise.
TINY = dict(nodes=2_000, edges=6_000, window=40, dim=128,
            hidden_dim=16, num_layers=2, conv="gcn", decoder="ip",
            shards=4, predict_calls=8, nodes_per_call=4)


# ----------------------------------------------------------------------
# Deterministic synthetic substrate
# ----------------------------------------------------------------------
def locality_edges(nodes: int, edges: int, window: int,
                   seed: int = 7) -> np.ndarray:
    """Undirected edges with bounded locality: ``v ± U(1..window)``.

    Locality keeps every shard's halo small (at most ``window`` rows on
    each side of the cut), which is the regime sharding targets — the
    same reason mesh/road/sequence graphs shard well.
    """
    rng = np.random.default_rng(seed)
    src = rng.integers(0, nodes, size=edges, dtype=np.int64)
    step = rng.integers(1, window + 1, size=edges, dtype=np.int64)
    sign = rng.integers(0, 2, size=edges, dtype=np.int64) * 2 - 1
    dst = np.clip(src + sign * step, 0, nodes - 1)
    keep = src != dst
    return np.stack([src[keep], dst[keep]], axis=1)


def feature_block(lo: int, hi: int, dim: int) -> np.ndarray:
    """Rows ``lo:hi`` of the deterministic feature matrix (float32).

    Cheap (no transcendentals) and position-dependent, so any row
    misalignment between the dense and sharded paths breaks parity
    loudly instead of averaging out.
    """
    rows = np.arange(lo, hi, dtype=np.float64).reshape(-1, 1)
    cols = np.arange(dim, dtype=np.float64).reshape(1, -1)
    return (((rows * 0.000515 + cols * 0.137 + 0.25) % 1.0) - 0.5).astype(
        np.float32)


def build_task(graph: Graph, params: Dict, seed: int = 13) -> Task:
    """A 1-shot task over ``graph`` (attributes only, no structural
    features — the streaming support-fill path).

    1-shot keeps the default fused serving path bitwise against the
    unfused reference, so parity checks need no environment juggling.
    """
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
    queries = [example(int(rng.integers(0, nodes))) for _ in range(2)]
    return Task(graph, support, queries, name="bench_sharded",
                use_attributes=True, use_structural=False)


def build_model(params: Dict, seed: int = 5) -> CGNP:
    return CGNP(params["dim"], CGNPConfig(
        hidden_dim=params["hidden_dim"], num_layers=params["num_layers"],
        conv=params["conv"], aggregator="sum", decoder=params["decoder"],
        num_heads=1, use_attributes=True, use_structural=False),
        make_rng(seed))


def serve_leg(engine: CommunitySearchEngine, task: Task,
              params: Dict) -> Dict:
    """Attach (context encode) then steady-state ``predict_proba``."""
    rng = make_rng(23)
    start = time.perf_counter()
    engine.attach(task)
    engine.predict_proba(rng.integers(0, task.graph.num_nodes,
                                      size=params["nodes_per_call"]))
    first_answer = time.perf_counter() - start

    batches = [rng.integers(0, task.graph.num_nodes,
                            size=params["nodes_per_call"])
               for _ in range(params["predict_calls"])]
    start = time.perf_counter()
    for batch in batches:
        engine.predict_proba(batch)
    elapsed = time.perf_counter() - start
    stats = engine.stats()
    return {
        "time_to_first_answer_seconds": first_answer,
        "queries_per_second":
            params["predict_calls"] * params["nodes_per_call"] / elapsed,
        "graph_resident_bytes": stats.graph_resident_bytes,
        "shard_count": stats.shard_count,
    }


# ----------------------------------------------------------------------
# Budget probes (subprocess, enforced anonymous-memory cap)
# ----------------------------------------------------------------------
def _vmdata_bytes() -> Optional[int]:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmData:"):
                    return int(line.split()[1]) * 1024
    except OSError:  # pragma: no cover - no procfs
        pass
    return None


def _enforce_budget(budget_bytes: int) -> bool:
    """Cap this process's anonymous memory at baseline + budget.

    ``RLIMIT_DATA`` covers private anonymous mappings (Linux >= 4.7),
    which is exactly the axis sharding bounds; ``np.memmap`` pages are
    file-backed and exempt.  Returns False where unenforceable (no
    procfs / no resource module) so records say so instead of lying.
    """
    baseline = _vmdata_bytes()
    if baseline is None:
        return False
    try:
        import resource
        cap = baseline + budget_bytes
        resource.setrlimit(resource.RLIMIT_DATA, (cap, cap))
        return True
    except (ImportError, ValueError, OSError):  # pragma: no cover
        return False


def _mount_is_tmpfs(path: str) -> bool:
    """True when ``path`` lives on tmpfs (RAM-backed — memmapping there
    would silently turn the bounded-RAM story into an unbounded one)."""
    best, fstype = "", ""
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) >= 3 and path.startswith(parts[1]) \
                        and len(parts[1]) > len(best):
                    best, fstype = parts[1], parts[2]
    except OSError:  # pragma: no cover - no procfs
        return False
    return fstype in ("tmpfs", "ramfs")


def memmap_workdir() -> str:
    """A scratch directory on real disk (never tmpfs) for memmap files."""
    for candidate in (os.path.dirname(os.path.abspath(__file__)),
                      tempfile.gettempdir()):
        if not _mount_is_tmpfs(candidate):
            return tempfile.mkdtemp(prefix="bench_shard_",
                                    dir=candidate)
    raise RuntimeError("no non-tmpfs directory available for memmap files")


def run_probe(mode: str, params: Dict, budget_mb: int,
              memmap_dir: Optional[str], result_path: str) -> None:
    """Child-process body: build + encode + serve under the enforced cap.

    ``mode`` is ``dense`` or ``sharded:<width>``.  Always writes a JSON
    result, ``ok=False`` with the error when the budget is exceeded.
    """
    budget = budget_mb * 1024 * 1024
    result: Dict = {"mode": mode, "budget_bytes": budget,
                    "dense_feature_bytes": params["nodes"] * params["dim"] * 4,
                    "ok": False}
    result["budget_enforced"] = _enforce_budget(budget)
    try:
        with policy(dtype="float32"):
            edges = locality_edges(params["nodes"], params["edges"],
                                   params["window"])
            start = time.perf_counter()
            if mode == "dense":
                attributes = np.empty((params["nodes"], params["dim"]),
                                      dtype=np.float32)
                for lo in range(0, params["nodes"], 65536):
                    hi = min(lo + 65536, params["nodes"])
                    attributes[lo:hi] = feature_block(lo, hi, params["dim"])
                graph: Graph = Graph(params["nodes"], edges,
                                     attributes=attributes)
            else:
                width = int(mode.split(":", 1)[1])
                graph = ShardedGraph(
                    params["nodes"], edges,
                    attributes=lambda lo, hi: feature_block(
                        lo, hi, params["dim"]),
                    num_shards=width, memmap_dir=memmap_dir,
                    attribute_dim=params["dim"])
            build_seconds = time.perf_counter() - start
            del edges

            task = build_task(graph, params)
            engine = CommunitySearchEngine(build_model(params))
            result.update(serve_leg(engine, task, params))
            result.update(ok=True, build_seconds=build_seconds)
    except MemoryError:
        result["error"] = "MemoryError: exceeded the anonymous-memory budget"
    result["peak_rss_bytes"] = peak_rss_bytes()
    with open(result_path, "w") as handle:
        json.dump(result, handle)


def launch_probe(mode: str, budget_mb: int, workdir: str) -> Dict:
    """Run one probe subprocess; tolerate hard deaths of the dense leg
    (a C-level allocator may abort instead of raising MemoryError)."""
    result_path = os.path.join(workdir, f"probe_{mode.replace(':', '_')}.json")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
        env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe", mode,
         "--budget-mb", str(budget_mb), "--memmap-dir", workdir,
         "--result", result_path],
        env=env, cwd=os.path.dirname(os.path.abspath(__file__)))
    if os.path.exists(result_path):
        with open(result_path) as handle:
            return json.load(handle)
    return {"mode": mode, "ok": False,
            "error": f"probe process died (returncode {proc.returncode})"}


# ----------------------------------------------------------------------
# Legs
# ----------------------------------------------------------------------
def run_budget_leg(params: Dict) -> Dict:
    workdir = memmap_workdir()
    try:
        print(f"[budget] n={params['nodes']:,} m~{params['edges']:,} "
              f"d={params['dim']} cap={params['budget_mb']} MiB "
              f"(dense features alone: "
              f"{params['nodes'] * params['dim'] * 4 / 2**30:.1f} GiB)")
        dense = launch_probe("dense", params["budget_mb"], workdir)
        print(f"  dense: {'SUCCEEDED (cap not binding?)' if dense['ok'] else dense.get('error', 'failed')}")
        sharded = []
        for width in params["shard_widths"]:
            probe = launch_probe(f"sharded:{width}", params["budget_mb"],
                                 workdir)
            sharded.append(probe)
            if probe["ok"]:
                print(f"  sharded x{width}: ok, peak RSS "
                      f"{probe['peak_rss_bytes'] / 2**30:.2f} GiB, "
                      f"resident {probe['graph_resident_bytes'] / 2**20:.0f} "
                      f"MiB, {probe['queries_per_second']:.0f} q/s")
            else:
                print(f"  sharded x{width}: FAILED — "
                      f"{probe.get('error', '?')}")
        return {"params": {k: v for k, v in params.items()},
                "dense": dense, "sharded": sharded}
    finally:
        for name in os.listdir(workdir):
            os.unlink(os.path.join(workdir, name))
        os.rmdir(workdir)


def run_both_fit_leg(params: Dict) -> Dict:
    """Dense vs sharded throughput where both fit (no cap)."""
    workdir = memmap_workdir()
    try:
        with policy(dtype="float32"):
            edges = locality_edges(params["nodes"], params["edges"],
                                   params["window"])
            attributes = feature_block(0, params["nodes"], params["dim"])
            dense_graph = Graph(params["nodes"], edges,
                                attributes=attributes)
            dense = serve_leg(CommunitySearchEngine(build_model(params)),
                              build_task(dense_graph, params), params)
            with ShardedGraph(params["nodes"], edges,
                              attributes=lambda lo, hi: feature_block(
                                  lo, hi, params["dim"]),
                              num_shards=params["shards"],
                              memmap_dir=workdir,
                              attribute_dim=params["dim"]) as shard_graph:
                sharded = serve_leg(
                    CommunitySearchEngine(build_model(params)),
                    build_task(shard_graph, params), params)
        ratio = sharded["queries_per_second"] / dense["queries_per_second"]
        print(f"[both-fit] n={params['nodes']:,}: dense "
              f"{dense['queries_per_second']:.0f} q/s vs sharded x"
              f"{params['shards']} {sharded['queries_per_second']:.0f} q/s "
              f"({ratio:.2f}x)")
        return {"params": dict(params), "dense": dense, "sharded": sharded,
                "sharded_over_dense_throughput": ratio}
    finally:
        for name in os.listdir(workdir):
            os.unlink(os.path.join(workdir, name))
        os.rmdir(workdir)


def run_tiny_leg(params: Dict) -> Dict:
    """CI leg: bitwise parity + >= 2x resident-bytes reduction."""
    workdir = memmap_workdir()
    try:
        with policy(dtype="float32"):
            edges = locality_edges(params["nodes"], params["edges"],
                                   params["window"])
            attributes = feature_block(0, params["nodes"], params["dim"])
            dense_graph = Graph(params["nodes"], edges,
                                attributes=attributes)
            model = build_model(params)
            dense_engine = CommunitySearchEngine(model)
            dense_task = build_task(dense_graph, params)
            dense_engine.attach(dense_task)

            rng = make_rng(43)
            batches = [rng.integers(0, params["nodes"],
                                    size=params["nodes_per_call"])
                       for _ in range(params["predict_calls"])]
            dense_probs = [dense_engine.predict_proba(b) for b in batches]
            dense_resident, _ = graph_memory_profile(dense_graph)

            with ShardedGraph(params["nodes"], edges,
                              attributes=lambda lo, hi: feature_block(
                                  lo, hi, params["dim"]),
                              num_shards=params["shards"],
                              memmap_dir=workdir,
                              attribute_dim=params["dim"]) as shard_graph:
                shard_engine = CommunitySearchEngine(model)
                shard_engine.attach(build_task(shard_graph, params))
                shard_probs = [shard_engine.predict_proba(b)
                               for b in batches]
                shard_resident, shard_count = graph_memory_profile(
                    shard_graph)

        parity = all(np.array_equal(a, b)
                     for a, b in zip(dense_probs, shard_probs))
        reduction = dense_resident / max(shard_resident, 1)
        print(f"[tiny] parity={'bitwise' if parity else 'MISMATCH'} "
              f"resident {dense_resident / 1024:.0f} KiB -> "
              f"{shard_resident / 1024:.0f} KiB "
              f"({reduction:.1f}x at {shard_count} shards)")
        return {"params": dict(params), "outputs_bitwise_equal": parity,
                "dense_resident_bytes": int(dense_resident),
                "sharded_resident_bytes": int(shard_resident),
                "resident_reduction": reduction,
                "shard_count": shard_count}
    finally:
        for name in os.listdir(workdir):
            os.unlink(os.path.join(workdir, name))
        os.rmdir(workdir)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_benchmark(out_path: str, tiny: bool = False) -> Dict:
    record: Dict = {"benchmark": "sharded_graph_budget_encode_serve"}
    record["tiny"] = run_tiny_leg(dict(TINY))
    if not tiny:
        record["both_fit"] = run_both_fit_leg(dict(BOTH_FIT))
        record["budget"] = run_budget_leg(dict(FULL))
    record["peak_rss_bytes"] = peak_rss_bytes()
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=2)
    print(f"  wrote {out_path}")
    return record


def check_tiny(record: Dict) -> None:
    tiny = record["tiny"]
    assert tiny["outputs_bitwise_equal"], \
        "sharded predict_proba diverged from the dense reference"
    assert tiny["resident_reduction"] >= 2.0, \
        (f"resident bytes shrank only {tiny['resident_reduction']:.2f}x "
         f"at {tiny['shard_count']} shards (need >= 2x)")


def test_sharded_budget_tiny(tmp_path):
    """Pytest entry: the CI contract — bitwise parity with the dense
    reference and a >= 2x resident-bytes reduction at 4 shards."""
    record = run_benchmark(str(tmp_path / "BENCH_sharded.json"), tiny=True)
    check_tiny(record)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="CI-sized: parity + resident-reduction only")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="perf-record JSON path")
    parser.add_argument("--probe", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--budget-mb", type=int, default=FULL["budget_mb"],
                        help=argparse.SUPPRESS)
    parser.add_argument("--memmap-dir", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--result", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe:
        run_probe(args.probe, dict(FULL), args.budget_mb,
                  args.memmap_dir, args.result)
        return 0
    record = run_benchmark(args.out, tiny=args.tiny)
    check_tiny(record)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
