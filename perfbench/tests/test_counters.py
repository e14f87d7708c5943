"""The benchmark's own checks: repeatable counters, consistent traces.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import declared_metrics, layers, report, run  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    ScaleVerify,
    make_workdir,
    remove_workdir,
)

#: Prints the counters of one scale_verify round and of one sweep of the
#: corpus entries, each measured twice in the same process.
COUNTING_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[1] + "/src"]
from perfbench import layers, report
from perfbench.workloads import ScaleVerify
from repro.runner import SweepPlan, SweepRunner

def scale_round():
    tracer = layers.LayerTracer().install()
    try:
        workload, ops = ScaleVerify(seed=7, workdir=None), []
        for family, scale in workload.round(0):
            workload.verify(family, scale, tracer, ops)
    finally:
        tracer.uninstall()
    return report.counters(layers.operations(tracer.records()), ops)

def corpus_pass():
    tracer = layers.LayerTracer().install()
    try:
        with tracer.operation("pass") as op:
            SweepRunner(SweepPlan(jobs=1, backend="process")).run()
    finally:
        tracer.uninstall()
    return report.counters(layers.operations(tracer.records()), [op])

print(json.dumps([scale_round(), scale_round(), corpus_pass(),
                  corpus_pass()]))
"""


def _counts(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    output = subprocess.run(
        [sys.executable, "-c", COUNTING_SCRIPT, ROOT], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=600).stdout
    return json.loads(output.strip().splitlines()[-1])


def test_counters_repeat_across_runs_and_hash_seeds():
    first = _counts("0")
    second = _counts("1")
    scale, scale_again, corpus, corpus_again = first
    assert scale == scale_again
    assert corpus == corpus_again
    assert second == first
    for counts in (scale, corpus):
        assert counts["bdd.created_nodes"] > 0
        assert counts["core.traversal.images"] > 0


def test_counters_differ_between_workloads_of_different_size():
    # A counter that ignored its input would pass the test above.
    workload = ScaleVerify(seed=1, workdir=None)
    sums = []
    for family, scale in (("mutex", 4), ("mutex", 5)):
        tracer = layers.LayerTracer().install()
        ops = []
        try:
            workload.verify(family, scale, tracer, ops)
        finally:
            tracer.uninstall()
        sums.append(report.counters(layers.operations(tracer.records()),
                                    ops)["bdd.created_nodes"])
    assert sums[0] < sums[1]


@pytest.fixture(scope="module")
def traced_runs():
    """One short traced run of every workload: name -> (metrics,
    problems, failed operations)."""
    runs = {}
    for name in sorted(WORKLOADS):
        workdir = make_workdir()
        workload = WORKLOADS[name](3, workdir)
        try:
            metrics, _, problems = report.traced_run(workload, 0.0)
        finally:
            workload.close()
            remove_workdir(workdir)
        runs[name] = (metrics, problems, workload.outcome.failed)
    return runs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_is_consistent(traced_runs, name):
    metrics, problems, failed = traced_runs[name]
    assert problems == []
    assert failed == 0
    assert set(metrics) == set(report.PER_LAYER)
    for metric in report.EXPECTED[name]:
        assert metrics[metric]["value"] > 0, metric


def test_every_declared_per_layer_metric_is_measured(traced_runs):
    # A metric renamed in BENCHMARK.json or in the code would read 0
    # everywhere instead of failing.
    measured = {metric for metrics, _, _ in traced_runs.values()
                for metric, entry in metrics.items() if entry["value"]}
    assert measured == set(report.PER_LAYER)


def test_end_to_end_metrics_are_the_declared_ones():
    workdir = make_workdir()
    workload = ScaleVerify(seed=3, workdir=workdir)
    try:
        metrics, _, _ = run.end_to_end(workload, 0.0)
    finally:
        remove_workdir(workdir)
    assert workload.outcome.failed == 0
    assert list(metrics) == list(declared_metrics("end_to_end"))
    for entry in metrics.values():
        assert entry["value"] > 0


def test_consistency_check_catches_a_span_outside_its_operation():
    tracer = layers.LayerTracer()
    with tracer.operation():
        with tracer.span("core.traversal"):
            pass
    records = tracer.records()
    assert layers.consistency_problems(records) == []
    for record in records:
        if record.get("name") == "core.traversal":
            record["duration_s"] += 1.0
    assert layers.consistency_problems(records)
