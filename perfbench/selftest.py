"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

The file is not named ``test_*.py`` so the repository's own test run does
not collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run                                          # noqa: E402
import workloads                                    # noqa: E402
from hostspeed import REFERENCE_MS, HostSpeed, durations  # noqa: E402
from spans import Tracer, covered_length            # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_child_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 7]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 7, 10]))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("a1"):
                pass
        with tracer.span("b"):
            pass
    summary = tracer.summary()
    assert summary["root"].total_s == 10 and summary["root"].self_s == 5
    assert summary["a"].total_s == 3 and summary["a"].self_s == 2
    assert summary["a1"].self_s == 1 and summary["b"].self_s == 2
    assert sum(entry.self_s for entry in summary.values()) == 10
    assert {span.trace_id for span in tracer.spans} == {0}


def test_reentrant_span_collapses_into_outermost():
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3]))
    with tracer.span("layer"):
        with tracer.span("layer"):
            with tracer.span("kernel"):
                pass
    summary = tracer.summary()
    assert summary["layer"].calls == 1 and summary["layer"].self_s == 2
    assert summary["kernel"].self_s == 1


def test_covered_length_merges_overlaps_and_clips():
    intervals = [(1, 4), (3, 6), (8, 12), (-2, -1)]
    assert covered_length(intervals, 0, 10) == 7
    assert covered_length([], 0, 10) == 0


def test_host_speed_scales_each_piece_by_the_samples_around_it():
    # Kernel samples end at 0.01, 1.005 and 2.01 s and take 10, 5, 10 ms.
    host = HostSpeed(clock=FakeClock([0.0, 0.01, 1.0, 1.005, 2.0, 2.01]),
                     kernel=lambda: 0.0)
    for _ in range(3):
        host.sample()
    assert host.reference_ms == pytest.approx(10.0)
    pieces = [(0.005, 1.0), (0.5, 1.0), (1.5, 2.0), (3.0, 1.0)]
    # Before the first sample and after the last, one sample decides;
    # in between, the mean of the samples on either side (7.5 ms).
    assert host.scale(pieces) == pytest.approx(
        [REFERENCE_MS / 10, REFERENCE_MS / 7.5, 2 * REFERENCE_MS / 7.5,
         REFERENCE_MS / 10])
    assert durations(pieces) == [1.0, 1.0, 2.0, 1.0]


def test_reference_kernel_is_deterministic():
    host = HostSpeed()
    assert host.kernel() == host.kernel()
    host.sample()
    assert len(host.samples) == 1 and host.samples[0] > 0


def tiny_tasks():
    size = workloads.TINY
    return workloads.load_tasks(size, size.served_train_tasks,
                                size.tenants).test


def stream_rounds(seed, tasks, count):
    stream = workloads.DeltaStream(seed, tasks, workloads.TINY)
    return [next(stream) for _ in range(count)]


def same_round(a, b):
    if a.task != b.task or len(a.queries) != len(b.queries):
        return False
    for x, y in zip(a.queries, b.queries):
        if x[0] != y[0] or not np.array_equal(x[1], y[1]):
            return False
    da, db = a.delta, b.delta
    updates = (da.update_attributes is None) == (db.update_attributes is None)
    if updates and da.update_attributes is not None:
        updates = all(np.array_equal(p, q) for p, q in
                      zip(da.update_attributes, db.update_attributes))
    return (updates and np.array_equal(da.add_edges, db.add_edges)
            and np.array_equal(da.remove_edges, db.remove_edges))


def test_same_seed_gives_identical_streams():
    tasks = tiny_tasks()
    first = workloads.open_loop_requests(3, 200.0, 2.0, tasks)
    again = workloads.open_loop_requests(3, 200.0, 2.0, tiny_tasks())
    other = workloads.open_loop_requests(4, 200.0, 2.0, tasks)
    assert [(r.due, r.task, r.nodes.tolist()) for r in first] == \
        [(r.due, r.task, r.nodes.tolist()) for r in again]
    assert [r.due for r in first] != [r.due for r in other]

    rounds = stream_rounds(3, tasks, 40)
    assert all(map(same_round, rounds, stream_rounds(3, tiny_tasks(), 40)))
    assert not all(map(same_round, rounds, stream_rounds(4, tasks, 40)))


def churn_counts(seed, workdir, rounds=30):
    deployment = workloads.deploy(seed, workloads.TINY, workdir,
                                  workloads.TINY.tenants)
    engine, tasks = deployment.engine, deployment.tasks
    for churn in stream_rounds(seed, tasks, rounds):
        engine.apply_delta(churn.delta, task=tasks[churn.task])
        for other, nodes in churn.queries:
            engine.predict_proba(nodes, tasks[other])
    stats = engine.stats()
    return (deployment.final_loss, stats.deltas_applied, stats.rows_repaired,
            stats.contexts_dirtied, stats.contexts_encoded,
            stats.queries_served)


def test_same_seed_gives_identical_counts(tmp_path):
    first = churn_counts(5, str(tmp_path))
    assert first == churn_counts(5, str(tmp_path))
    assert first[1] == 30 and first[2] > 0 and first[3] > 0


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_names_every_reported_metric():
    spec = benchmark_spec()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.UNITS.values())
    assert [m["name"] for m in spec["per_layer"]] == \
        list(workloads.LAYER_KEYS)
    assert [m["unit"] for m in spec["per_layer"]] == \
        [run.layer_unit(name) for name in workloads.LAYER_KEYS]
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)


def run_cli(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(workload, trace):
    done = run_cli(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    # The tiny model trains for one epoch, so only the parity checks
    # (not F1 against the trivial answer) are meaningful at this size.
    checks = json.loads(next(line for line in lines
                             if line.startswith("checks "))[7:])
    assert all(ok for name, ok in checks.items()
               if name != "f1_beats_all_members")
    if not trace:
        assert all(result["metrics"][name]["value"] > 0
                   for name in run.UNITS)
        notes = json.loads(next(line for line in lines
                                if line.startswith("notes "))[6:])
        assert set(notes["measured"]) == set(run.UNITS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = run_cli(str(tmp_path), "train", 0)
    assert done.returncode != 0 and done.stdout == ""
