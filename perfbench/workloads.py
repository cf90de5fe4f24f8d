"""The three benchmark workloads: ``train``, ``serve`` and ``churn``.

Each workload builds its inputs from the seed, times only the phases it
is named for, checks the program's answers and returns an
:class:`Outcome`.  Its timings are reported at the reference host speed
(``hostspeed.py``); the notes carry them as measured.  ``README.md`` in this directory says why each
workload and metric was chosen and which layer it stresses.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import os
import resource
import statistics
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.api import CommunitySearchEngine, ModelBundle
from repro.core import CGNP, CGNPConfig, MetaTrainConfig, meta_train
from repro.datasets import load_dataset
from repro.eval import community_metrics
from repro.graph import Graph, GraphDelta
from repro.serve import GatewayConfig, ServeGateway
from repro.tasks import ScenarioConfig, Task, make_sgsc_tasks
from repro.utils import make_rng

from hostspeed import HostSpeed, Timed, durations
from spans import BACKEND_OPS, Tracer, instrument

WORKLOADS = ("train", "serve", "churn")
BATCH = 4       # tasks per optimiser step (episodic mini-batch)
# The task corpus is fixed, like a benchmark dataset; the run's seed
# drives model initialisation, training order, traffic and deltas.
CORPUS_SEED = 0
HOST_SAMPLE_EVERY_S = 0.2       # churn: host-speed samples between rounds


@dataclasses.dataclass(frozen=True)
class Size:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    dataset_scale: float = 0.5
    subgraph_nodes: int = 100
    num_support: int = 5
    num_query: int = 10
    setup_repeats: int = 3
    train_setup_repeats: int = 5
    # train: paper-default GAT CGNP, repeated fixed-length trainings.
    train_tasks: int = 16
    train_eval_tasks: int = 16
    train_epochs: int = 10
    train_lr: float = 5e-3
    train_cold_share: float = 0.2
    # serve and churn: a briefly trained GCN CGNP served at float32.
    served_train_tasks: int = 12
    served_epochs: int = 12
    served_lr: float = 1e-2
    tenants: int = 24
    lru_slots: int = 16
    open_rate: float = 150.0
    serve_slices: int = 10
    open_share: float = 0.4
    closed_share: float = 0.4
    closed_clients: int = 8
    parity_every: int = 25
    # churn: one delta, then query batches, per round.
    edge_adds: int = 3
    edge_window: int = 6
    attr_every: int = 4
    attr_window: int = 2
    attr_ones: int = 8
    queries_per_round: int = 3
    nodes_per_query: int = 4


FULL = Size()
TINY = Size(dataset_scale=0.25, subgraph_nodes=40, num_query=4,
            setup_repeats=1, train_setup_repeats=1, train_tasks=4,
            train_eval_tasks=2, train_epochs=1, served_train_tasks=4,
            served_epochs=1, tenants=6, lru_slots=4, open_rate=200.0, serve_slices=2,
            closed_clients=2, parity_every=5)

LAYER_KEYS = tuple(
    [f"nn.backend.{op}.{kind}" for op in BACKEND_OPS
     for kind in ("calls", "ms", "mb")]
    + ["nn.backward_ms", "nn.optim_ms",
       "graph.batch_ms", "graph.apply_delta_ms", "graph.rows_repaired",
       "graph.dirty_frontier_ms", "graph.structural_features_ms",
       "gnn.encoder_ms", "gnn.encoder.calls", "gnn.graph_ops_ms",
       "gnn.graph_ops.builds", "gnn.graph_ops.hits",
       "core.forward_ms", "core.context_ms", "core.decoder_ms",
       "core.train.final_loss",
       "tasks.features_ms", "tasks.features.calls",
       "api.engine_ms", "api.context_hit_ratio", "api.contexts_encoded",
       "api.contexts_evicted", "api.contexts_dirtied_per_delta",
       "api.decode_us_per_query",
       "serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms",
       "serve.tick_requests_mean", "serve.empty_tick_ratio",
       "serve.batcher_ms_per_tick",
       "loadgen.sent", "loadgen.completed", "loadgen.failed",
       "loadgen.late_p99_ms", "loadgen.query_p99_ms",
       "trace.spans", "trace.traced_ms", "trace.throughput_per_s",
       "host.reference_ms"])


@dataclasses.dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float]
    layers: Dict[str, float]
    checks: Dict[str, bool]
    attempted: int
    failed: int
    notes: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def zipf_weights(count: int, s: float = 1.0) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** s
    return weights / weights.sum()


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def count_failure(failed: int, amount: int = 1) -> int:
    """Add failed operations; the first failure prints its traceback to
    stderr.  Call from inside the ``except`` block."""
    if not failed:
        traceback.print_exc()
    return failed + amount


def per_unit(value: float, units: int) -> float:
    return value / units if units else 0.0


def timed_since(start: float) -> Timed:
    end = time.perf_counter()
    return end, end - start


def host_notes(host: HostSpeed,
               measured: Dict[str, float]) -> Dict[str, object]:
    """The end-to-end metrics as measured, before scaling, and the host's
    reference-kernel time."""
    return {"measured": measured, "host_reference_ms": host.reference_ms,
            "host_samples": len(host.samples)}


def traced(tracer: Optional[Tracer]):
    """Instrument the program inside the block, when tracing."""
    return instrument(tracer) if tracer is not None \
        else contextlib.nullcontext()


def load_tasks(size: Size, num_train: int, num_test: int):
    """The SGSC task corpus on the synthetic Cora graph."""
    dataset = load_dataset("cora", scale=size.dataset_scale, cache=False)
    config = ScenarioConfig(
        num_train_tasks=num_train, num_valid_tasks=0, num_test_tasks=num_test,
        subgraph_nodes=size.subgraph_nodes, num_support=size.num_support,
        num_query=size.num_query, seed=CORPUS_SEED)
    return make_sgsc_tasks(dataset, config)


def repeated_setup(repeats: int, build: Callable[[], object],
                   host: HostSpeed):
    """Run ``build`` ``repeats`` times, sampling the host's speed before
    and after each; return the last result and the timed set-ups."""
    timed: List[Timed] = []
    result = None
    for _ in range(repeats):
        result = None                   # free the previous set-up first
        gc.collect()
        host.sample()
        start = time.perf_counter()
        result = build()
        timed.append(timed_since(start))
    host.sample()
    return result, timed


def answer_quality(engine: CommunitySearchEngine,
                   tasks: Sequence[Task]) -> Tuple[float, float, int]:
    """Mean F1 of every held-out query answered through the engine, and
    of the trivial answer "every node of the task graph" on the same
    queries."""
    model_f1, trivial_f1 = [], []
    for task in tasks:
        answers = engine.query([e.query for e in task.queries], task=task)
        everyone = np.arange(task.num_nodes)
        for example in task.queries:
            model_f1.append(community_metrics(
                answers[example.query], example.membership, example.query).f1)
            trivial_f1.append(community_metrics(
                everyone, example.membership, example.query).f1)
    return (float(np.mean(model_f1)), float(np.mean(trivial_f1)),
            len(model_f1))


def layer_metrics(tracer: Optional[Tracer], units: int) -> Dict[str, float]:
    """Per-layer self times (ms), calls and bytes per unit of work.

    ``gnn.encoder_ms`` is per encode and the ``graph.apply_delta`` /
    ``dirty_frontier`` / ``rows_repaired`` figures are per delta; every
    other figure is per unit of the workload's work.
    """
    layers = dict.fromkeys(LAYER_KEYS, 0.0)
    if tracer is None:
        return layers
    summary, counts = tracer.summary(), tracer.counts

    def self_ms(name: str, per: int = units) -> float:
        entry = summary.get(name)
        return per_unit(entry.self_s * 1e3, per) if entry else 0.0

    def calls(name: str) -> int:
        entry = summary.get(name)
        return entry.calls if entry else 0

    for op in BACKEND_OPS:
        name = f"nn.backend.{op}"
        layers[f"{name}.calls"] = per_unit(calls(name), units)
        layers[f"{name}.ms"] = self_ms(name)
        layers[f"{name}.mb"] = per_unit(counts[f"{name}.bytes"] / 1e6, units)
    for name in ("nn.backward", "nn.optim", "graph.batch",
                 "graph.structural_features", "gnn.graph_ops",
                 "core.forward", "core.context", "core.decoder",
                 "tasks.features", "api.engine"):
        layers[f"{name}_ms"] = self_ms(name)
    deltas = int(counts["graph.deltas"])
    layers["graph.apply_delta_ms"] = self_ms("graph.apply_delta", deltas)
    layers["graph.dirty_frontier_ms"] = self_ms("graph.dirty_frontier",
                                                deltas)
    layers["graph.rows_repaired"] = per_unit(counts["graph.rows_repaired"],
                                             deltas)
    layers["gnn.encoder_ms"] = self_ms("gnn.encoder", calls("gnn.encoder"))
    layers["gnn.encoder.calls"] = per_unit(calls("gnn.encoder"), units)
    layers["gnn.graph_ops.builds"] = per_unit(counts["gnn.graph_ops.builds"],
                                              units)
    layers["gnn.graph_ops.hits"] = per_unit(counts["gnn.graph_ops.hits"],
                                            units)
    layers["tasks.features.calls"] = per_unit(calls("tasks.features"), units)
    layers["serve.batcher_ms_per_tick"] = self_ms("serve.batcher",
                                                  calls("serve.batcher"))
    layers["trace.spans"] = per_unit(len(tracer.spans), units)
    layers["trace.traced_ms"] = per_unit(
        sum(entry.self_s for entry in summary.values()) * 1e3, units)
    return layers


COUNTERS = ("context_cache_hits", "context_cache_misses", "contexts_encoded",
            "contexts_evicted", "contexts_dirtied", "deltas_applied",
            "decode_seconds", "queries_served", "batches_served")


def counter_moves(before, after) -> Dict[str, float]:
    """How far each engine counter moved between two stats snapshots."""
    return {name: float(getattr(after, name) - getattr(before, name))
            for name in COUNTERS}


def engine_layers(moves: Dict[str, float]) -> Dict[str, float]:
    """The engine's own counters (``repro.api``); encodes and evictions
    are per request (query batch) served."""
    hits, misses = moves["context_cache_hits"], moves["context_cache_misses"]
    requests = moves["batches_served"]
    return {
        "api.context_hit_ratio": per_unit(hits, hits + misses),
        "api.contexts_encoded": per_unit(moves["contexts_encoded"], requests),
        "api.contexts_evicted": per_unit(moves["contexts_evicted"], requests),
        "api.contexts_dirtied_per_delta": per_unit(
            moves["contexts_dirtied"], moves["deltas_applied"]),
        "api.decode_us_per_query": per_unit(
            moves["decode_seconds"] * 1e6, moves["queries_served"]),
    }


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
def gat_model(in_dim: int, seed: int) -> CGNP:
    """The paper-default CGNP: GAT encoder, 3 layers, sum ⊕, IP decoder."""
    return CGNP(in_dim, CGNPConfig(hidden_dim=64, num_layers=3, conv="gat",
                                   aggregator="sum", decoder="ip"),
                make_rng(seed))


def run_train(seed: int, seconds: float, tracer: Optional[Tracer],
              size: Size = FULL, workdir: str = ".") -> Outcome:
    """Meta-train until the time is up; one unit is one optimiser step.

    The timed phase repeats one fixed-length training from the same
    initial state, so every repetition must end on a bitwise-equal loss.
    A ``train_cold_share`` of the time goes to cold epochs on tasks whose
    features and graph operators were dropped first.
    """
    host = HostSpeed()
    taskset, setups = repeated_setup(
        size.train_setup_repeats,
        lambda: load_tasks(size, size.train_tasks, size.train_eval_tasks),
        host)
    train_tasks = taskset.train
    in_dim = train_tasks[0].features().shape[1]
    config = MetaTrainConfig(epochs=size.train_epochs,
                             learning_rate=size.train_lr,
                             task_batch_size=BATCH)
    one_epoch = dataclasses.replace(config, epochs=1)
    steps_per_epoch = -(-len(train_tasks) // BATCH)
    meta_train(gat_model(in_dim, seed), train_tasks, one_epoch,
               make_rng(seed))                    # warm-up (untimed)

    epochs: List[Timed] = []
    final_losses: List[float] = []
    colds: List[Timed] = []
    attempted = failed = 0
    model = None
    started = [0.0]

    def end_epoch(*_) -> None:
        """Record the epoch, then sample the host between epochs."""
        epochs.append(timed_since(started[0]))
        host.sample()
        started[0] = time.perf_counter()

    host.sample()
    with traced(tracer):
        begin = time.perf_counter()
        cold_total = 0.0
        while not final_losses or time.perf_counter() - begin < seconds:
            started[0] = time.perf_counter()
            model = gat_model(in_dim, seed)
            attempted += config.epochs * steps_per_epoch
            try:
                state = meta_train(model, train_tasks, config,
                                   make_rng(seed), callback=end_epoch)
                final_losses.append(state.epoch_losses[-1])
            except Exception:           # noqa: BLE001 - counted as failed
                failed = count_failure(failed,
                                       config.epochs * steps_per_epoch)
            # Cold epochs, interleaved so they sample the whole run: one
            # epoch over every task after dropping its features and graph
            # operators.  A whole epoch per sample keeps the sample's task
            # mix fixed.
            while not colds or cold_total < size.train_cold_share \
                    * (time.perf_counter() - begin):
                for task in train_tasks:
                    task.invalidate_feature_caches()
                    task.graph.invalidate_cached_ops()
                attempted += steps_per_epoch
                start = time.perf_counter()
                try:
                    meta_train(gat_model(in_dim, seed), train_tasks,
                               one_epoch, make_rng(seed))
                    colds.append(timed_since(start))
                except Exception:       # noqa: BLE001 - counted as failed
                    failed = count_failure(failed, steps_per_epoch)
                cold_total += time.perf_counter() - start
                host.sample()
    rss_mb = peak_rss_mb()              # before the checks allocate

    engine = CommunitySearchEngine(model,
                                   max_cached_contexts=len(taskset.test))
    f1, trivial, queries = answer_quality(engine, taskset.test)
    layers = layer_metrics(
        tracer, (len(epochs) + len(colds)) * steps_per_epoch)
    layers["core.train.final_loss"] = final_losses[-1]
    layers["host.reference_ms"] = host.reference_ms

    def timings(seconds_of: Callable[[List[Timed]], List[float]]):
        epoch = statistics.median(seconds_of(epochs))
        return {
            "setup_s": statistics.median(seconds_of(setups)),
            "peak_rss_mb": rss_mb,
            "answer_f1": f1,
            "throughput_per_s": len(train_tasks) / epoch,
            "latency_ms": epoch / steps_per_epoch * 1e3,
            "cold_ms": statistics.median(seconds_of(colds))
            / steps_per_epoch * 1e3,
        }

    return Outcome(
        metrics=timings(host.scale),
        layers=layers,
        checks={
            "f1_beats_all_members": f1 > trivial,
            "final_loss_bitwise_repeatable": len(set(final_losses)) == 1,
            "losses_finite": bool(np.all(np.isfinite(final_losses))),
        },
        attempted=attempted, failed=failed,
        notes={"trivial_f1": trivial, "f1_queries": queries,
               "epochs_timed": len(epochs), "trainings": len(final_losses),
               "cold_epochs": len(colds), "unit": "optimiser step",
               **host_notes(host, timings(durations))})


# ----------------------------------------------------------------------
# serve and churn share one deployed model
# ----------------------------------------------------------------------
def gcn_model(in_dim: int, seed: int) -> CGNP:
    return CGNP(in_dim, CGNPConfig(hidden_dim=32, num_layers=2, conv="gcn",
                                   aggregator="sum", decoder="ip"),
                make_rng(seed))


@dataclasses.dataclass
class Deployment:
    engine: CommunitySearchEngine
    tasks: List[Task]
    bundle_path: str
    final_loss: float


def deploy(seed: int, size: Size, workdir: str, slots: int) -> Deployment:
    """Train a GCN CGNP briefly, save it as a bundle, load it at float32."""
    taskset = load_tasks(size, size.served_train_tasks, size.tenants)
    model = gcn_model(taskset.train[0].features().shape[1], seed)
    state = meta_train(model, taskset.train,
                       MetaTrainConfig(epochs=size.served_epochs,
                                       learning_rate=size.served_lr,
                                       task_batch_size=BATCH),
                       make_rng(seed))
    path = ModelBundle.from_model(model).save(
        os.path.join(workdir, "model.npz"))
    engine = CommunitySearchEngine.from_bundle(
        path, dtype="float32", max_cached_contexts=slots)
    return Deployment(engine, taskset.test, path, state.epoch_losses[-1])


@dataclasses.dataclass
class Request:
    due: float          # seconds after the open-loop phase starts
    task: int
    nodes: np.ndarray


def open_loop_requests(seed: int, rate: float, duration: float,
                       tasks: Sequence[Task]) -> List[Request]:
    """Poisson arrivals at ``rate``; Zipf-popular tasks; one node each."""
    rng = np.random.default_rng([seed, 1])
    arrivals = np.cumsum(rng.exponential(
        1.0 / rate, size=int(rate * duration * 2) + 16))
    arrivals = arrivals[arrivals < duration]
    picks = rng.choice(len(tasks), size=arrivals.size,
                       p=zipf_weights(len(tasks)))
    return [Request(due=float(due), task=int(task),
                    nodes=rng.integers(tasks[task].num_nodes, size=1))
            for due, task in zip(arrivals, picks)]


async def open_loop(gateway: ServeGateway, tasks: Sequence[Task],
                    requests: Sequence[Request], offset: float):
    """Send each request when due (``request.due - offset`` seconds from
    now); latency counts from the due time.  Returns per-request latency
    (inf when the request failed), lateness and answer."""
    loop = asyncio.get_running_loop()
    start = loop.time() - offset
    latency = [float("inf")] * len(requests)     # failed = missed limit
    late = [0.0] * len(requests)
    answers: List[Optional[np.ndarray]] = [None] * len(requests)

    async def one(index: int, request: Request) -> None:
        due = start + request.due
        if due > loop.time():
            await asyncio.sleep(due - loop.time())
        late[index] = max(0.0, loop.time() - due)
        try:
            answers[index] = await gateway.submit(request.nodes,
                                                  tasks[request.task])
        except Exception:               # noqa: BLE001 - counted as failed
            traceback.print_exc()
            return
        latency[index] = loop.time() - due

    await asyncio.gather(*[one(i, r) for i, r in enumerate(requests)])
    return latency, late, answers


async def closed_loop(gateway: ServeGateway, tasks: Sequence[Task],
                      rng_key: Sequence[int], clients: int, duration: float):
    """``clients`` callers, each sending its next request as soon as the
    last is answered; returns (completed, failed, elapsed seconds)."""
    loop = asyncio.get_running_loop()
    start = loop.time()
    completed = failed = 0

    async def client(index: int) -> None:
        nonlocal completed, failed
        rng = np.random.default_rng([*rng_key, index])
        while loop.time() - start < duration:
            task = tasks[int(rng.integers(len(tasks)))]
            try:
                await gateway.submit(rng.integers(task.num_nodes, size=1),
                                     task)
                completed += 1
            except Exception:           # noqa: BLE001 - counted as failed
                failed = count_failure(failed)

    await asyncio.gather(*[client(i) for i in range(clients)])
    return completed, failed, loop.time() - start


def gateway_layers(gateway: ServeGateway) -> Dict[str, float]:
    stats = gateway.stats()
    return {
        "serve.queue_wait_p50_ms": stats.queue_wait.percentile(0.5) * 1e3,
        "serve.queue_wait_p99_ms": stats.queue_wait.percentile(0.99) * 1e3,
        "serve.tick_requests_mean": stats.tick_batch_requests.mean,
        "serve.empty_tick_ratio": per_unit(stats.empty_ticks, stats.ticks),
    }


def run_serve(seed: int, seconds: float, tracer: Optional[Tracer],
              size: Size = FULL, workdir: str = ".") -> Outcome:
    """Serve a deployed bundle; one unit is one request or attach.

    The run is cut into slices so every phase samples the whole run.
    Each slice sends open-loop Poisson traffic over all tenants (more
    than the LRU holds), then runs a closed loop over tenants already
    cached, then attaches tenants cold.  The hot tenants are re-attached
    (untimed) before each traffic phase.
    """
    host = HostSpeed()
    deployment, setups = repeated_setup(
        size.setup_repeats,
        lambda: deploy(seed, size, workdir, size.lru_slots), host)
    engine, tasks = deployment.engine, deployment.tasks
    hot = tasks[:size.lru_slots]        # the Zipf-most-popular tenants
    slice_s = seconds / size.serve_slices
    open_s, closed_s = slice_s * size.open_share, slice_s * size.closed_share
    attach_s = slice_s - open_s - closed_s
    requests = open_loop_requests(seed, size.open_rate,
                                  open_s * size.serve_slices, tasks)
    for task in tasks:                  # warm-up (untimed)
        engine.attach(task)

    latency: List[float] = []
    late: List[float] = []
    answers: List[Optional[np.ndarray]] = []
    # Closed-loop slices: (timed, requests done, seconds the gateway's
    # ticker slept on its coalescing timer).
    closed: List[Tuple[Timed, int, float]] = []
    open_ends: List[float] = []         # when each open-loop slice ended
    opened: List[int] = []              # requests sent up to then
    attaches: List[Timed] = []
    moves: Dict[str, float] = dict.fromkeys(COUNTERS, 0.0)
    counts = {"closed": 0, "closed_failed": 0, "attaches": 0,
              "attach_failed": 0}

    config = GatewayConfig()

    async def sliced_run():
        async with ServeGateway(engine, config) as gateway:
            await gateway.submit([0], hot[0])           # warm-up
            gateway.reset_stats()
            for index in range(size.serve_slices):
                lo, hi = index * open_s, (index + 1) * open_s
                host.sample()           # no request is in flight
                for task in hot:
                    engine.attach(task)
                before = engine.stats()
                parts = await open_loop(
                    gateway, tasks,
                    [r for r in requests if lo <= r.due < hi], offset=lo)
                for key, moved in counter_moves(before,
                                                engine.stats()).items():
                    moves[key] += moved
                for collected, part in zip((latency, late, answers), parts):
                    collected.extend(part)
                open_ends.append(time.perf_counter())
                opened.append(len(latency))

                host.sample()
                for task in hot:
                    engine.attach(task)
                ticks = gateway.stats().ticks
                done, failed, elapsed = await closed_loop(
                    gateway, hot, (seed, 2, index), size.closed_clients,
                    closed_s)
                asleep = (gateway.stats().ticks - ticks) * config.tick_seconds
                closed.append(((time.perf_counter(), elapsed), done, asleep))
                counts["closed"] += done
                counts["closed_failed"] += failed

                # Attaches block the event loop on purpose: no request is
                # in flight between the phases.
                host.sample()
                begin = time.perf_counter()
                while time.perf_counter() - begin < attach_s:
                    task = tasks[counts["attaches"] % len(tasks)]
                    counts["attaches"] += 1
                    task.invalidate_feature_caches()
                    task.graph.invalidate_cached_ops()
                    start = time.perf_counter()
                    try:
                        engine.attach(task, refresh=True)
                        attaches.append(timed_since(start))
                    except Exception:   # noqa: BLE001 - counted as failed
                        counts["attach_failed"] = count_failure(
                            counts["attach_failed"])
            host.sample()
            return gateway_layers(gateway)

    with traced(tracer):
        serve_layers = asyncio.run(sliced_run())
    rss_mb = peak_rss_mb()              # before the checks allocate

    sampled = [i for i in range(0, len(requests), size.parity_every)
               if answers[i] is not None]
    parity = bool(sampled) and all(
        np.array_equal(answers[i], engine.predict_proba(
            requests[i].nodes, tasks[requests[i].task])) for i in sampled)
    f1, trivial, queries = answer_quality(engine, tasks)
    open_failed = int(np.sum(~np.isfinite(latency)))
    units = (len(requests) + counts["closed"] + counts["closed_failed"]
             + counts["attaches"])
    layers = layer_metrics(tracer, units)
    layers.update(serve_layers)
    layers.update(engine_layers(moves))
    layers.update({
        "core.train.final_loss": deployment.final_loss,
        "loadgen.sent": float(len(requests)),
        "loadgen.completed": float(len(requests) - open_failed),
        "loadgen.failed": float(open_failed),
        "loadgen.late_p99_ms": percentile(late, 99) * 1e3,
        "loadgen.query_p99_ms": percentile(latency, 99) * 1e3,
        "host.reference_ms": host.reference_ms,
    })

    def timings(seconds_of: Callable[[List[Timed]], List[float]]):
        # The ticker's sleep on its coalescing timer does not slow with
        # the host, so it is left out of the scaling: in the closed loop
        # every tick slept ``tick_seconds``, and an open-loop request
        # waits at most one tick (exactly one when it finds the ticker
        # idle, as the median request at this rate does).
        def but_timer(end: float, seconds: float, asleep: float) -> float:
            asleep = min(asleep, seconds)
            return asleep + seconds_of([(end, seconds - asleep)])[0]

        rates = [done / but_timer(end, elapsed, asleep)
                 for (end, elapsed), done, asleep in closed]
        latencies = [but_timer(end, seconds, config.tick_seconds)
                     for end, lo, hi in zip(open_ends, [0] + opened, opened)
                     for seconds in latency[lo:hi]]
        return {
            "setup_s": statistics.median(seconds_of(setups)),
            "peak_rss_mb": rss_mb,
            "answer_f1": f1,
            "throughput_per_s": statistics.median(rates),
            "latency_ms": percentile(latencies, 50) * 1e3,
            "cold_ms": statistics.median(seconds_of(attaches)) * 1e3,
        }

    return Outcome(
        metrics=timings(host.scale),
        layers=layers,
        checks={
            "f1_beats_all_members": f1 > trivial,
            "gateway_matches_direct_bitwise": parity,
        },
        attempted=units,
        failed=open_failed + counts["closed_failed"]
        + counts["attach_failed"],
        notes={"trivial_f1": trivial, "f1_queries": queries,
               "open_loop_requests": len(requests),
               "open_loop_rate_per_s": size.open_rate,
               "closed_loop_requests": counts["closed"],
               "closed_loop_clients": size.closed_clients,
               "cold_attaches": len(attaches),
               "parity_samples": len(sampled), "unit": "request or attach",
               **host_notes(host, timings(durations))})


# ----------------------------------------------------------------------
# churn
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Round:
    task: int
    delta: GraphDelta
    queries: List[Tuple[int, np.ndarray]]


class DeltaStream:
    """Deterministic per-seed stream of churn rounds.

    Each round picks a Zipf-popular tenant graph and builds one delta:
    ``edge_adds`` new edges, removal of the oldest edges the stream added
    once more than ``edge_window`` are outstanding on that graph, and on
    every ``attr_every``-th round one attribute row rewritten with a
    fresh sparse binary row, restoring the oldest rewritten row once more
    than ``attr_window`` are outstanding.  The windows keep every graph
    close to its original, so answer quality does not depend on how many
    rounds a run gets through.  The first query batch goes to the mutated
    tenant (a read after the write), the rest to Zipf-chosen tenants.
    The stream mirrors each graph's edges and original attribute rows
    itself, so it never reads the program's state.
    """

    def __init__(self, seed: int, tasks: Sequence[Task], size: Size):
        self.rng = np.random.default_rng([seed, 3])
        self.size = size
        self.nodes = [task.num_nodes for task in tasks]
        self.widths = [task.graph.attributes.shape[1] for task in tasks]
        self.edges = [set(map(tuple, task.graph.edges.tolist()))
                      for task in tasks]
        self.originals = [sp.csr_matrix(task.graph.attributes)
                          for task in tasks]
        self.added: List[List[Tuple[int, int]]] = [[] for _ in tasks]
        self.rewritten: List[List[int]] = [[] for _ in tasks]
        self.weights = zipf_weights(len(tasks))
        self.count = 0

    def __next__(self) -> Round:
        rng, size = self.rng, self.size
        target = int(rng.choice(len(self.nodes), p=self.weights))
        n, edges, added = (self.nodes[target], self.edges[target],
                           self.added[target])
        adds: List[Tuple[int, int]] = []
        while len(adds) < size.edge_adds:
            u, v = sorted(int(x) for x in rng.integers(n, size=2))
            if u != v and (u, v) not in edges:
                edges.add((u, v))
                adds.append((u, v))
        added.extend(adds)
        removes = []
        while len(added) > size.edge_window:
            removes.append(added.pop(0))
            edges.discard(removes[-1])
        update = None
        if self.count % size.attr_every == 0:
            rewritten = self.rewritten[target]
            row = int(rng.integers(n))
            while row in rewritten:
                row = int(rng.integers(n))
            value = np.zeros((1, self.widths[target]))
            value[0, rng.choice(self.widths[target], size=size.attr_ones,
                                replace=False)] = 1.0
            rows, values = [row], [value]
            rewritten.append(row)
            if len(rewritten) > size.attr_window:
                restored = rewritten.pop(0)
                rows.append(restored)
                values.append(self.originals[target][restored].toarray())
            update = (np.asarray(rows), np.concatenate(values))
        queries = [(target, rng.integers(n, size=size.nodes_per_query))]
        for _ in range(size.queries_per_round - 1):
            other = int(rng.choice(len(self.nodes), p=self.weights))
            queries.append((other, rng.integers(
                self.nodes[other], size=size.nodes_per_query)))
        self.count += 1
        delta = GraphDelta(add_edges=np.asarray(adds, dtype=np.int64),
                           remove_edges=np.asarray(
                               removes, dtype=np.int64).reshape(-1, 2),
                           update_attributes=update)
        return Round(target, delta, queries)

    def __iter__(self):
        return self


def rebuild_parity(engine: CommunitySearchEngine, tasks: Sequence[Task],
                   bundle_path: str) -> bool:
    """Every tenant's answers equal a cold engine's over a graph rebuilt
    from the final edge list and attributes."""
    cold = CommunitySearchEngine.from_bundle(
        bundle_path, dtype="float32", max_cached_contexts=len(tasks))
    for task in tasks:
        rebuilt = Graph(task.num_nodes, np.array(task.graph.edges),
                        attributes=np.array(task.graph.attributes))
        twin = Task(rebuilt, task.support, task.queries, name=task.name,
                    use_attributes=task.use_attributes,
                    use_structural=task.use_structural)
        nodes = np.arange(task.num_nodes)
        engine.attach(task, refresh=True)
        if not np.array_equal(engine.predict_proba(nodes, task),
                              cold.predict_proba(nodes, twin)):
            return False
    return True


def run_churn(seed: int, seconds: float, tracer: Optional[Tracer],
              size: Size = FULL, workdir: str = ".") -> Outcome:
    """Writes beside reads on many tenant graphs; one unit is one op (a
    delta or a query batch)."""
    host = HostSpeed()
    deployment, setups = repeated_setup(
        size.setup_repeats,
        lambda: deploy(seed, size, workdir, size.tenants), host)
    engine, tasks = deployment.engine, deployment.tasks
    for task in tasks:                  # warm-up (untimed)
        engine.predict_proba([0], task)
    stream = DeltaStream(seed, tasks, size)
    before = engine.stats()

    deltas: List[Timed] = []
    read_after_write: List[Timed] = []
    rounds: List[Timed] = []
    attempted = failed = 0
    host.sample()
    with traced(tracer):
        begin = sampled = time.perf_counter()
        for churn in stream:
            if rounds and time.perf_counter() - begin >= seconds:
                break
            if time.perf_counter() - sampled >= HOST_SAMPLE_EVERY_S:
                host.sample()
                sampled = time.perf_counter()
            attempted += 1 + len(churn.queries)
            start = time.perf_counter()
            try:
                engine.apply_delta(churn.delta, task=tasks[churn.task])
                deltas.append(timed_since(start))
                for other, nodes in churn.queries:
                    asked = time.perf_counter()
                    engine.predict_proba(nodes, tasks[other])
                    if len(read_after_write) < len(deltas):
                        read_after_write.append(timed_since(asked))
            except Exception:           # noqa: BLE001 - counted as failed
                failed = count_failure(failed, 1 + len(churn.queries))
                continue
            rounds.append(timed_since(start))
        host.sample()
    rss_mb = peak_rss_mb()              # before the checks allocate

    layers = layer_metrics(tracer, attempted)
    layers.update(engine_layers(counter_moves(before, engine.stats())))
    layers["core.train.final_loss"] = deployment.final_loss
    layers["host.reference_ms"] = host.reference_ms
    parity = rebuild_parity(engine, tasks, deployment.bundle_path)
    f1, trivial, queries = answer_quality(engine, tasks)

    def timings(seconds_of: Callable[[List[Timed]], List[float]]):
        return {
            "setup_s": statistics.median(seconds_of(setups)),
            "peak_rss_mb": rss_mb,
            "answer_f1": f1,
            "throughput_per_s": (1 + size.queries_per_round)
            / statistics.median(seconds_of(rounds)),
            "latency_ms": statistics.median(seconds_of(deltas)) * 1e3,
            "cold_ms": statistics.median(seconds_of(read_after_write)) * 1e3,
        }

    return Outcome(
        metrics=timings(host.scale),
        layers=layers,
        checks={
            "f1_beats_all_members": f1 > trivial,
            "answers_match_rebuilt_graph_bitwise": parity,
        },
        attempted=attempted, failed=failed,
        notes={"trivial_f1": trivial, "f1_queries": queries,
               "rounds": len(rounds), "unit": "op",
               **host_notes(host, timings(durations))})


RUNNERS = {"train": run_train, "serve": run_serve, "churn": run_churn}
