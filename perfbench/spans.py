"""Span tracer and the per-layer instrumentation of the benchmark.

The tracer records one span per call into a program layer: name, start,
end, the span that caused it and the identifier of the top-level call it
belongs to.  Spans stay in memory until the run ends; :meth:`Tracer.summary`
then folds them into per-name call counts, inclusive time and *self time*
(a span's duration minus the part of its interval its child spans cover).

:func:`instrument` installs the spans from outside the program: it wraps
public functions and methods of each ``repro`` module for the duration of
a ``with`` block and restores the originals afterwards.  Untraced runs
never call it, so they execute the program unmodified.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Array-backend kernels whose calls, time and bytes are reported.
BACKEND_OPS = ("matmul", "spmm", "spmm_bias_act", "gather_rows",
               "scatter_add_rows", "segment_softmax")


@dataclass
class Span:
    span_id: int
    name: str
    parent: Optional[int]
    trace_id: int
    start: float
    end: float = 0.0


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def covered_length(intervals: List[Tuple[float, float]], lo: float,
                   hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    covered = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        covered += run_end - run_start
    return covered


class Tracer:
    """In-memory span recorder for one single-threaded run.

    Re-entrant calls into the same layer collapse into the outermost
    span (``CGNP.context`` → ``context_batch`` → ``context_concat`` is one
    ``core.context`` span), so a layer's time is never counted twice.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[Span] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        if any(open_span.name == name for open_span in self._stack):
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        record = Span(span_id=span_id, name=name,
                      parent=None if parent is None else parent.span_id,
                      trace_id=span_id if parent is None else parent.trace_id,
                      start=self.clock())
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def summary(self) -> Dict[str, SpanStats]:
        """Per span name: calls, inclusive seconds and self seconds."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for record in self.spans:
            if record.parent is not None:
                children[record.parent].append((record.start, record.end))
        stats: Dict[str, SpanStats] = defaultdict(SpanStats)
        for record in self.spans:
            duration = record.end - record.start
            entry = stats[record.name]
            entry.calls += 1
            entry.total_s += duration
            entry.self_s += duration - covered_length(
                children.get(record.span_id, []), record.start, record.end)
        return dict(stats)


def _nbytes(value) -> int:
    """Bytes held by an array argument (dense or scipy sparse); 0 else."""
    if hasattr(value, "indptr"):
        return int(value.data.nbytes + value.indices.nbytes
                   + value.indptr.nbytes)
    return int(getattr(value, "nbytes", 0) or 0)


def _traced(tracer: Tracer, name: str, function: Callable,
            on_result: Optional[Callable] = None) -> Callable:
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = function(*args, **kwargs)
        if on_result is not None:
            on_result(result)
        return result
    wrapper.__wrapped__ = function
    return wrapper


def _traced_kernel(tracer: Tracer, op: str, function: Callable) -> Callable:
    name = f"nn.backend.{op}"

    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = function(*args, **kwargs)
        moved = sum(_nbytes(a) for a in args) + _nbytes(result)
        tracer.count(f"{name}.bytes", moved)
        return result
    wrapper.__wrapped__ = function
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every traced layer boundary; restore the program on exit."""
    from repro.api import engine as api_engine
    from repro.core import model as core_model
    from repro.core import train as core_train
    from repro.gnn import conv as gnn_conv
    from repro.gnn import encoder as gnn_encoder
    from repro.graph import batch as graph_batch
    from repro.graph import features as graph_features
    from repro.graph import graph as graph_graph
    from repro.nn import backend as nn_backend
    from repro.nn import optim as nn_optim
    from repro.nn import tensor as nn_tensor
    from repro.serve import batcher as serve_batcher
    from repro.tasks import task as tasks_task

    def count_repair(report):
        tracer.count("graph.deltas")
        tracer.count("graph.rows_repaired", int(report.rows_repaired))

    def traced_cached_ops(self, key, builder):
        if not key.startswith(gnn_conv.GRAPH_OPS_KEY):
            return original_cached_ops(self, key, builder)
        if key in self.__dict__.get("_ops_cache", {}):
            tracer.count("gnn.graph_ops.hits")
            return original_cached_ops(self, key, builder)
        tracer.count("gnn.graph_ops.builds")
        with tracer.span("gnn.graph_ops"):
            return original_cached_ops(self, key, builder)

    original_cached_ops = graph_graph.OpsCache.cached_ops
    # (owner, attribute, span name, result hook); None name = raw swap.
    patches = [
        (graph_graph.OpsCache, "cached_ops", None, traced_cached_ops),
        (nn_tensor.Tensor, "backward", "nn.backward", None),
        (nn_optim.Adam, "step", "nn.optim", None),
        (core_train, "clip_grad_norm", "nn.optim", None),
        (graph_batch.GraphBatch, "__init__", "graph.batch", None),
        (graph_graph.Graph, "apply_delta", "graph.apply_delta",
         count_repair),
        (api_engine, "dirty_frontier", "graph.dirty_frontier", None),
        (graph_features, "structural_features",
         "graph.structural_features", None),
        (gnn_encoder.GNNEncoder, "forward", "gnn.encoder", None),
        (gnn_encoder.GNNEncoder, "encode_hidden", "gnn.encoder", None),
        (core_train, "task_batch_loss", "core.forward", None),
        (core_model.CGNP, "context", "core.context", None),
        (core_model.CGNP, "context_batch", "core.context", None),
        (core_model.CGNP, "context_concat", "core.context", None),
        (core_model.CGNP, "query_logits_batch", "core.decoder", None),
        (core_model.CGNP, "query_logits_many", "core.decoder", None),
        (tasks_task.Task, "features", "tasks.features", None),
        (serve_batcher.MicroBatcher, "execute", "serve.batcher", None),
    ]
    for method in ("attach", "attach_many", "predict_proba",
                   "predict_proba_many", "query", "apply_delta"):
        patches.append((api_engine.CommunitySearchEngine, method,
                        "api.engine", None))

    saved = []
    for owner, attribute, name, hook in patches:
        original = owner.__dict__[attribute]
        saved.append((owner, attribute, original))
        replacement = hook if name is None else _traced(tracer, name,
                                                        original, hook)
        setattr(owner, attribute, replacement)

    backend = nn_backend.get_backend()
    for op in BACKEND_OPS:
        setattr(backend, op, _traced_kernel(tracer, op, getattr(backend, op)))
    try:
        yield tracer
    finally:
        for op in BACKEND_OPS:
            delattr(backend, op)
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
